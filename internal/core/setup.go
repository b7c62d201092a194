package core

import (
	"errors"
	"fmt"
	"runtime"

	"repro/internal/decomp"
	"repro/internal/dump"
	"repro/internal/fd"
	"repro/internal/fluid"
	"repro/internal/lbm"
	"repro/internal/msg"
)

// Method names accepted by the configs.
const (
	MethodFD = "fd" // explicit finite differences
	MethodLB = "lb" // lattice Boltzmann
)

// setup is what the driver needs of a Config2D or a Config3D, whose
// Program type is P; build, restore, decompose, run, re-split and job are
// written once over it.
type setup[P any] interface {
	Validate() error
	// decomposition returns the config's decomposition; over returns a copy
	// of the config on another one.
	decomposition() *decomp.Decomp
	over(d *decomp.Decomp) setup[P]
	// lattice describes the decomposition (valid once Validate passed).
	lattice() lattice
	// geometry builds a rank's Program with everything that is not state:
	// storage allocated (all zero), mask classified, worker budget set.
	// newProgram adds the initial condition, recut stitches a re-cut state
	// in, and restoreProgram (the tests' fresh reference) loads a dump, so
	// no rank computes a state it is about to overwrite.
	geometry(rank int) (P, error)
	// initial returns the initial fluid variables in StateFields order.
	initial() []initField
	physics() fluid.Params
	// dumpSchema returns the method name and field names of the dumps the
	// ranks write.
	dumpSchema() (method string, fields []string)
}

// built is a Program the driver constructed, so one whose method's fluid
// variables it can fill and gather, and whose dump can hand over views
// (Program2D and Program3D).
type built interface {
	Program
	fits(st *dump.State) error
	start(lat lattice, initial []initField, rho0 float64)
	stitch(lat lattice, global [][]float64)
	dump(step, epoch int, into *dump.State) *dump.State
	interior() box
	rebind(d *decomp.Decomp)
}

// workerBudget resolves the intra-rank worker count: the config's Workers
// knob if set, else an even share of GOMAXPROCS across the ranks (at
// least 1), so co-scheduled ranks don't oversubscribe the machine.
func workerBudget(workers, ranks int) int {
	if workers > 0 {
		return workers
	}
	return max(1, runtime.GOMAXPROCS(0)/max(1, ranks))
}

// newProgram builds the Program for one rank at the initial condition: the
// combined initialization + decomposition programs of section 4.1 for a
// fresh start.
func newProgram[P built](c setup[P], rank int) (P, error) {
	p, err := c.geometry(rank)
	if err != nil {
		return p, err
	}
	p.start(c.lattice(), c.initial(), c.physics().Rho0)
	return p, nil
}

// buildAll validates the config and builds every rank at the initial
// condition.
func buildAll[P built](c setup[P]) ([]P, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	progs := make([]P, len(c.lattice().boxes))
	for rank := range progs {
		p, err := newProgram(c, rank)
		if err != nil {
			return nil, err
		}
		progs[rank] = p
	}
	return progs, nil
}

// decompose is the decomposition program: it produces one dump.State per
// active subregion, each containing everything a workstation needs to
// participate.
func decompose[P built](c setup[P]) ([]*dump.State, error) {
	progs, err := buildAll(c)
	if err != nil {
		return nil, err
	}
	states := make([]*dump.State, len(progs))
	for rank, p := range progs {
		states[rank] = p.DumpState(0, 0)
	}
	return states, nil
}

// run builds the decomposed problem, integrates it in phase lockstep
// (stepSequential) and gathers the global solution.
func run[C setup[P], P built, R any](c C, steps int, gather func(C, []P, int) R) (R, []P, error) {
	var none R
	progs, err := buildAll[P](c)
	if err != nil {
		return none, nil, err
	}
	if err := stepSequential(progs, steps); err != nil {
		return none, nil, err
	}
	return gather(c, progs, steps), progs, nil
}

// runJob runs the decomposed problem as an undisturbed Job over the
// factory, one worker goroutine per rank, and gathers the global solution.
func runJob[C setup[P], P built, R any](c C, steps int, factory TransportFactory, gather func(C, []P, int) R) (R, error) {
	var none R
	j, jp, err := newJob(c, gather, factory, nil, steps)
	if err != nil {
		return none, err
	}
	j.Start()
	// An undisturbed run reports nothing before its ranks finish, so a
	// silent wait is the run still computing, not a hung rank: wait on.
	for err = j.WaitDone(); errors.Is(err, ErrWorkerSilent); err = j.WaitDone() {
	}
	j.Shutdown()
	if err != nil {
		return none, err
	}
	return jp.Gather(steps), nil
}

// stepSequential advances a set of programs in one goroutine, delivering
// messages directly between them in phase lockstep. It is the serial
// reference: identical numerics to the parallel run (including the
// filter's seam behaviour), with no transports involved.
func stepSequential[P Program](progs []P, steps int) error {
	if len(progs) == 0 {
		return fmt.Errorf("core: no programs")
	}
	phases := progs[0].Phases()
	for s := 0; s < steps; s++ {
		for ph := 0; ph < phases; ph++ {
			for _, p := range progs {
				p.Compute(ph)
			}
			// Deliver all sends after all computes: every payload is
			// copied immediately, so in-place solver buffers are safe.
			type delivery struct {
				to, dir int
				data    []float64
			}
			var inbox []delivery
			for _, p := range progs {
				for _, snd := range p.Sends(ph) {
					inbox = append(inbox, delivery{
						to: snd.Peer, dir: snd.Dir,
						data: append([]float64(nil), snd.Data...),
					})
				}
			}
			for _, d := range inbox {
				progs[d.to].Unpack(ph, d.dir, d.data)
			}
		}
	}
	return nil
}

// HubFactory returns a TransportFactory over a fresh in-process hub.
func HubFactory() TransportFactory {
	hub := msg.NewHub()
	return func(rank, epoch int) (msg.Transport, error) {
		return hub.Join(rank), nil
	}
}

// Config2D describes a complete 2D simulation: the initialization program's
// output (global mask and initial fields), the physical parameters, the
// numerical method, and the decomposition.
type Config2D struct {
	Method string // MethodFD or MethodLB
	Par    fluid.Params
	Mask   *fluid.Mask2D
	D      *decomp.Decomp

	// Workers is the intra-rank worker-slab budget handed to each rank's
	// solver; 0 means an even share of GOMAXPROCS across the ranks
	// (workerBudget). Fields are bit-identical at every value.
	Workers int

	// Initial fields at global coordinates; nil means rho = Rho0, V = 0.
	InitRho, InitVx, InitVy func(x, y int) float64
}

// Validate checks the configuration.
func (c *Config2D) Validate() error {
	if c.Method != MethodFD && c.Method != MethodLB {
		return fmt.Errorf("core: unknown method %q", c.Method)
	}
	if c.Mask == nil || c.D == nil {
		return fmt.Errorf("core: mask and decomposition are required")
	}
	if !c.D.Planar() {
		return fmt.Errorf("core: 2D config on the box decomposition %v", c.D)
	}
	if c.Mask.NX != c.D.GX || c.Mask.NY != c.D.GY {
		return fmt.Errorf("core: mask %dx%d does not match decomposition grid %dx%d",
			c.Mask.NX, c.Mask.NY, c.D.GX, c.D.GY)
	}
	// The stencil is a value the method determines: on a star decomposition
	// the corner populations of lattice Boltzmann would never be exchanged.
	// Finite differences are correct on either.
	if need := decomp.StencilFor(c.Method); need == decomp.Full && c.D.Stencil != need {
		return fmt.Errorf("core: method %q needs a %v-stencil decomposition, this one is %v", c.Method, need, c.D.Stencil)
	}
	return c.Par.Check()
}

// LocalMask2D is LocalMask3D over the planar mask, on its one plane.
func LocalMask2D(d *decomp.Decomp, sub *decomp.Subregion, m *fluid.Mask2D) func(x, y int) fluid.CellType {
	at := LocalMask3D(d, sub, &m.Mask)
	return func(x, y int) fluid.CellType { return at(x, y, 0) }
}

func (c *Config2D) decomposition() *decomp.Decomp { return c.D }

func (c *Config2D) over(d *decomp.Decomp) setup[*Program2D] {
	next := *c
	next.D = d
	return &next
}

func (c *Config2D) lattice() lattice { return latticeOf(c.D, 0) }

func (c *Config2D) geometry(rank int) (*Program2D, error) {
	sub := c.D.ByRank(rank)
	mask := LocalMask2D(c.D, sub, c.Mask)
	var m Method
	var err error
	switch c.Method {
	case MethodFD:
		m, err = fd.NewGeometry2D(sub.NX, sub.NY, c.Par, mask)
	case MethodLB:
		m, err = lbm.NewGeometry2D(sub.NX, sub.NY, c.Par, mask)
	default:
		err = fmt.Errorf("core: unknown method %q", c.Method)
	}
	if err != nil {
		return nil, err
	}
	m.SetWorkers(c.workerBudget())
	return NewProgram2D(m, c.D, rank), nil
}

func (c *Config2D) initial() []initField {
	lift := func(f func(x, y int) float64) initField {
		if f == nil {
			return nil
		}
		return func(x, y, _ int) float64 { return f(x, y) }
	}
	return []initField{lift(c.InitRho), lift(c.InitVx), lift(c.InitVy)}
}

func (c *Config2D) physics() fluid.Params { return c.Par }

// dumpSchema: Validate admits only the two methods; any other falls to the
// last and fails recut's check of the dumps' own method.
func (c *Config2D) dumpSchema() (method string, fields []string) {
	if c.Method == MethodFD {
		return fd.DumpSchema2D()
	}
	return lbm.DumpSchema2D()
}

func (c *Config2D) workerBudget() int { return workerBudget(c.Workers, c.D.P()) }

// NewProgram builds the Program for one rank at the initial condition.
func (c *Config2D) NewProgram(rank int) (*Program2D, error) { return newProgram(c, rank) }

// Decompose2D is the decomposition program: one dump.State per active
// subregion.
func Decompose2D(c *Config2D) ([]*dump.State, error) { return decompose(c) }

// Result2D is a gathered global solution.
type Result2D struct {
	NX, NY        int
	Rho, Vx, Vy   []float64 // row-major interior fields
	Steps         int
	ActiveRegions int
}

// At indexes a gathered field.
func (r *Result2D) At(f []float64, x, y int) float64 { return f[y*r.NX+x] }

// Vorticity returns the curl of the gathered velocity by centered
// differences, a fresh row-major field that is zero on the outer ring.
func (r *Result2D) Vorticity() []float64 {
	vort := make([]float64, r.NX*r.NY)
	for y := 1; y < r.NY-1; y++ {
		for x := 1; x < r.NX-1; x++ {
			g := y*r.NX + x
			vort[g] = 0.5*(r.Vy[g+1]-r.Vy[g-1]) - 0.5*(r.Vx[g+r.NX]-r.Vx[g-r.NX])
		}
	}
	return vort
}

// Gather2D assembles the global fields from per-rank programs, inverting
// the decomposition. Deactivated subregions read as fluid at rest.
func Gather2D(c *Config2D, progs []*Program2D, steps int) *Result2D {
	n := c.D.GX * c.D.GY
	res := &Result2D{
		NX: c.D.GX, NY: c.D.GY,
		Rho: make([]float64, n), Vx: make([]float64, n), Vy: make([]float64, n),
		Steps:         steps,
		ActiveRegions: c.D.P(),
	}
	for i := range res.Rho {
		res.Rho[i] = c.Par.Rho0
	}
	lat, global := c.lattice(), [][]float64{res.Rho, res.Vx, res.Vy}
	for _, p := range progs {
		p.stitch(lat, global)
	}
	return res
}

// RunSequential2D executes the decomposed problem in one goroutine, in
// phase lockstep (stepSequential): the serial reference.
func RunSequential2D(c *Config2D, steps int) (*Result2D, []*Program2D, error) {
	return run(c, steps, Gather2D)
}

// RunParallel2D runs the decomposed problem with one goroutine per
// subregion over the given transport factory: an undisturbed Job.
func RunParallel2D(c *Config2D, steps int, factory TransportFactory) (*Result2D, error) {
	return runJob(c, steps, factory, Gather2D)
}
