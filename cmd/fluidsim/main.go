// Command fluidsim is the distributed simulation driver: the paper's four
// control modules (section 4.1) as subcommands over a shared work
// directory.
//
//	fluidsim init   -dir DIR [-method lb|fd] [-geom channel|fluepipe|fluepipe2] [-nx N -ny N] [-jx J -jy K]
//	    the initialization + decomposition programs: builds the problem,
//	    splits it into subregions and writes one dump file per rank.
//
//	fluidsim run    -dir DIR -steps S [-tcp]
//	    the job-submit program: restarts every rank from its dump file
//	    as a core.Job (one goroutine per rank; -tcp uses real TCP
//	    sockets on loopback with the shared-file port registry), runs S
//	    steps, suspends the job through the section-5.1 protocol (its
//	    sync files under DIR/sync), saves the final dumps in an orderly
//	    staggered sequence, and writes the gathered vorticity field to
//	    DIR/vorticity.pgm.
//
//	fluidsim status -dir DIR
//	    the monitoring program's read side: reports each rank's dump.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/dump"
	"repro/internal/fluid"
	"repro/internal/geom"
	"repro/internal/msg"
	"repro/internal/registry"
	"repro/internal/syncfile"
	"repro/internal/viz"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fluidsim: ")
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "init":
		err = cmdInit(os.Args[2:])
	case "run":
		err = cmdRun(os.Args[2:])
	case "status":
		err = cmdStatus(os.Args[2:], os.Stdout)
	default:
		usage()
	}
	if err != nil {
		log.Fatal(err)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: fluidsim {init|run|status} [flags]")
	os.Exit(2)
}

// configFile is the problem description persisted by init for run/status.
type configFile struct {
	Method string
	Geom   string
	NX, NY int
	JX, JY int
}

func configPath(dir string) string { return filepath.Join(dir, "problem.gob") }

func buildConfig(cf configFile) (*core.Config2D, error) {
	if cf.NX <= 0 || cf.NY <= 0 {
		return nil, fmt.Errorf("grid %dx%d: both extents must be positive", cf.NX, cf.NY)
	}
	var mask *fluid.Mask2D
	par := fluid.DefaultParams()
	periodicX := false
	switch cf.Geom {
	case "channel":
		mask = fluid.ChannelMask2D(cf.NX, cf.NY)
		par.Nu = 0.1
		par.Eps = 0.005
		par.ForceX = 1e-5
		periodicX = true
	case "fluepipe":
		mask = geom.FluePipe(cf.NX, cf.NY)
		par.Nu = 0.02
		par.Eps = 0.01
		par.InletVx = 0.08
	case "fluepipe2":
		mask = geom.FluePipeChannel(cf.NX, cf.NY)
		par.Nu = 0.02
		par.Eps = 0.01
		par.InletVx = 0.08
	default:
		return nil, fmt.Errorf("unknown geometry %q", cf.Geom)
	}
	d, err := decomp.New2D(cf.JX, cf.JY, cf.NX, cf.NY, decomp.StencilFor(cf.Method))
	if err != nil {
		return nil, err
	}
	d.PeriodicX = periodicX
	if cf.Geom == "fluepipe2" {
		if n := d.DeactivateWalls(mask.Solid); n > 0 {
			log.Printf("deactivated %d all-wall subregions; %d active (figure-2 style)", n, d.P())
		}
	}
	return &core.Config2D{Method: cf.Method, Par: par, Mask: mask, D: d}, nil
}

func cmdInit(args []string) error {
	fs := flag.NewFlagSet("init", flag.ExitOnError)
	dir := fs.String("dir", "", "work directory (required)")
	method := fs.String("method", "lb", "numerical method: lb or fd")
	geomName := fs.String("geom", "fluepipe", "geometry: channel, fluepipe, fluepipe2")
	nx := fs.Int("nx", 200, "grid width")
	ny := fs.Int("ny", 125, "grid height")
	jx := fs.Int("jx", 5, "subregions in x")
	jy := fs.Int("jy", 4, "subregions in y")
	fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("init: -dir is required")
	}
	cf := configFile{Method: *method, Geom: *geomName, NX: *nx, NY: *ny, JX: *jx, JY: *jy}
	cfg, err := buildConfig(cf)
	if err != nil {
		return err
	}
	states, err := core.Decompose2D(cfg)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}
	if err := saveGob(configPath(*dir), cf); err != nil {
		return err
	}
	for _, st := range states {
		if err := dump.Save(dump.Path(*dir, st.Rank), st); err != nil {
			return err
		}
	}
	log.Printf("decomposed %dx%d %s/%s into %d dump files under %s",
		*nx, *ny, *method, *geomName, len(states), *dir)
	return nil
}

// loadProblem reads the problem file init left in dir and rebuilds its
// configuration.
func loadProblem(dir string) (configFile, *core.Config2D, error) {
	var cf configFile
	if err := loadGob(configPath(dir), &cf); err != nil {
		return cf, nil, err
	}
	cfg, err := buildConfig(cf)
	return cf, cfg, err
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	dir := fs.String("dir", "", "work directory (required)")
	steps := fs.Int("steps", 500, "integration steps to add")
	useTCP := fs.Bool("tcp", false, "communicate over TCP sockets instead of channels")
	fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("run: -dir is required")
	}
	if *steps < 0 {
		return fmt.Errorf("run: -steps %d is negative", *steps)
	}
	_, cfg, err := loadProblem(*dir)
	if err != nil {
		return err
	}
	states, err := dump.LoadAll(*dir, cfg.D.P())
	if err != nil {
		return err
	}
	// The final dumps are saved in place, rank by rank; a run killed
	// mid-save leaves a set no restart can use.
	startStep, err := dump.CommonStep(states)
	if err != nil {
		return fmt.Errorf("run: %w (re-run init, or restore the set from a backup)", err)
	}
	until := startStep + *steps

	factory := core.HubFactory()
	if *useTCP {
		reg, err := registry.New(filepath.Join(*dir, "registry"))
		if err != nil {
			return err
		}
		run := time.Now().UnixNano() // fresh epoch namespace per run
		factory = func(rank, epoch int) (msg.Transport, error) {
			return msg.NewTCP(rank, epoch+int(run%1000)*1000, reg)
		}
	}

	sf, err := syncfile.New(filepath.Join(*dir, "sync"))
	if err != nil {
		return err
	}
	job, progs, err := core.NewJob2D(cfg, factory, sf, until)
	if err != nil {
		return err
	}
	t0 := time.Now()
	if err := job.Resume(states); err != nil {
		return err
	}
	// An undisturbed run reports nothing before its ranks finish, so a
	// silent wait is the run still computing, not a hung rank: wait on.
	for err = job.WaitDone(); errors.Is(err, core.ErrWorkerSilent); err = job.WaitDone() {
	}
	if err != nil {
		job.Shutdown()
		return err
	}
	elapsed := time.Since(t0)
	log.Printf("ran %d ranks from step %d to %d in %v (%.0f node-updates/s)",
		job.P(), startStep, until, elapsed.Round(time.Millisecond),
		float64(*steps)*float64(cfg.D.GX*cfg.D.GY)/elapsed.Seconds())

	// Every rank dumps its state and exits (section 5.1), and the dumps
	// are saved in an orderly staggered sequence (section 5.2).
	finals, err := job.Suspend()
	if err != nil {
		return err
	}
	if err := dump.NewSequencer(0).SaveAll(*dir, finals); err != nil {
		return err
	}

	res := progs.Gather(until)
	out := filepath.Join(*dir, "vorticity.pgm")
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	vort := res.Vorticity()
	lo, hi := viz.SymmetricRange(vort)
	if err := viz.WritePGM(f, res.NX, res.NY, vort, lo, hi); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	log.Printf("saved dumps and %s", out)
	return nil
}

// cmdStatus writes the problem and one line per rank dump to w. Every
// rank of the decomposition must have a readable dump: a missing or
// damaged file is an error naming it.
func cmdStatus(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("status", flag.ExitOnError)
	dir := fs.String("dir", "", "work directory (required)")
	fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("status: -dir is required")
	}
	cf, cfg, err := loadProblem(*dir)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "problem: %s %s %dx%d, decomposition (%d x %d)\n",
		cf.Method, cf.Geom, cf.NX, cf.NY, cf.JX, cf.JY)
	states, err := dump.LoadAll(*dir, cfg.D.P())
	if err != nil {
		return err
	}
	for _, st := range states {
		fmt.Fprintf(w, "rank %3d: step %6d, %2d fields, %dx%d interior\n",
			st.Rank, st.Step, len(st.Fields), st.NX, st.NY)
	}
	return nil
}
