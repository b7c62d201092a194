package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	"repro/farm"
	"repro/internal/ckpt"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/dump"
	"repro/internal/syncfile"
)

// disturbSpec sizes lb3d_disturb: one LB D3Q15 job run twice over the same
// step count, once left alone and once with rounds of control-plane
// operations issued against it while it runs. The filter is off because a
// resize requires it. Counts are for a run of nominalSeconds.
type disturbSpec struct {
	lat       lattice
	setups    int
	steps     int           // per job run; sized so the job outlives the last round with a wide margin
	rounds    int           // {migrate, snapshot, suspend + save/load + resume, grow, shrink}
	gap       time.Duration // the job runs this long before each operation on it
	driver    int           // steps of the hand-driven 2-rank run that gives the base rate
	driverWin int           // its steps per window (see solverSpec)
}

var disturbFull = disturbSpec{
	lat:    lattice{method: core.MethodLB, nx: 48, ny: 24, nz: 24, jx: 2, jy: 1, jz: 1},
	setups: 21, steps: 1400, rounds: 33, gap: 3 * time.Millisecond, driver: 480, driverWin: 12,
}

var disturbQuick = disturbSpec{
	lat:    lattice{method: core.MethodLB, nx: 16, ny: 8, nz: 8, jx: 2, jy: 1, jz: 1},
	setups: 3, steps: 600, rounds: 3, gap: 2 * time.Millisecond, driver: 40, driverWin: 10,
}

const disturbJobID = "lb3d"

// Control-plane operation names, indexing the tracer's kOp spans.
const (
	opRound = iota
	opMigrate
	opSnapshot
	opSuspend
	opCkptSave
	opCkptLoad
	opResume
	opGrow
	opShrink
)

var disturbOpNames = []string{"round", "Migrate", "Checkpoint", "Suspend", "ckpt.SaveStates", "ckpt.LoadStates", "Resume", "Resize(grow)", "Resize(shrink)"}

// disturbJob is one built job: the farm's CoreWorkload over a core.Job,
// placed on a reservation of the paper pool.
type disturbJob struct {
	prob  *problem
	pool  *cluster.Cluster
	res   *cluster.Reservation
	wl    *farm.CoreWorkload
	progs *core.JobPrograms3D
	rng   *rand.Rand
}

// build is the set-up: seeded problem, job with its sync directory and
// transports, pool, reservation.
func (s disturbSpec) build(r *run, steps int, factory core.TransportFactory) (*disturbJob, error) {
	prob, err := newProblem(s.lat, r.opt.seed, 1)
	if err != nil {
		return nil, err
	}
	dir, err := r.scratch("sync")
	if err != nil {
		return nil, err
	}
	sf, err := syncfile.New(dir)
	if err != nil {
		return nil, err
	}
	job, progs, err := core.NewJob3D(prob.c3, factory, sf, steps)
	if err != nil {
		return nil, err
	}
	pool := cluster.NewPaperCluster()
	pool.Advance(30 * time.Minute) // every user idle: the quiet pool
	rng := rand.New(rand.NewSource(r.opt.seed))
	res, err := pool.Reserve(disturbJobID, s.lat.ranks(), cluster.DefaultPolicy(), rng)
	if err != nil {
		return nil, err
	}
	return &disturbJob{prob: prob, pool: pool, res: res, progs: progs, rng: rng,
		wl: &farm.CoreWorkload{Job: job, Cluster: pool}}, nil
}

func (j *disturbJob) gather() fields {
	g := j.progs.Gather(0)
	return fields{g.Rho, g.Vx, g.Vy, g.Vz}
}

// disturbResult is one run of the job.
type disturbResult struct {
	wall     time.Duration
	final    fields
	ops      map[int][]float64 // op -> ms per call
	loops    []float64         // per round: mean reference-loop time while the job is suspended, ns
	lastStep int               // the step of the last snapshot
	bytes    int64             // state bytes per snapshot
	opsDone  int
}

// runJob starts the job, applies the rounds (none for the undisturbed
// run) and waits for it to finish.
func (s disturbSpec) runJob(r *run, j *disturbJob, steps, rounds int, ctl *rankTrace) (*disturbResult, error) {
	res := &disturbResult{ops: map[int][]float64{}}
	ckptDir, err := r.scratch("ckpt")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(ckptDir)
	seq := dump.NewSequencer(0)
	op := func(kind int, fn func() error) error {
		if ctl != nil {
			ctl.begin(kOp, kind)
		}
		if kind != opRound {
			runtime.GC() // each operation starts from a settled heap
		}
		t0 := time.Now()
		err := fn()
		d := time.Since(t0)
		if ctl != nil {
			ctl.end()
		}
		if err != nil {
			return fmt.Errorf("%s: %w", disturbOpNames[kind], err)
		}
		res.ops[kind] = append(res.ops[kind], ms(d))
		res.opsDone++
		return nil
	}
	grown := decomp.UniformShape3D(2, 2, 1, s.lat.nx, s.lat.ny, s.lat.nz)
	base := decomp.UniformShape3D(s.lat.jx, s.lat.jy, s.lat.jz, s.lat.nx, s.lat.ny, s.lat.nz)
	pol := cluster.DefaultPolicy()

	t0 := time.Now()
	if err := j.wl.Start(j.res.Hosts); err != nil {
		return nil, err
	}
	for round := 0; round < rounds; round++ {
		if ctl != nil {
			ctl.step = round
		}
		var loop float64
		err := op(opRound, func() error {
			// A regular user sits down at one rank's host: that rank moves.
			time.Sleep(s.gap)
			host := j.res.Hosts[j.rng.Intn(len(j.res.Hosts))]
			j.pool.Reclaim(host)
			ranks, repl, err := j.pool.Migrate(j.res, []*cluster.Host{host}, pol, j.rng)
			if err != nil {
				return err
			}
			if err := op(opMigrate, func() error { return j.wl.Migrate(ranks, repl) }); err != nil {
				return err
			}
			j.pool.UserGone(host)

			// Snapshot without leaving the hosts.
			time.Sleep(s.gap)
			var states, loaded []*dump.State
			if err := op(opSnapshot, func() (err error) { states, err = j.wl.Checkpoint(); return }); err != nil {
				return err
			}
			res.lastStep, res.bytes = states[0].Step, stateBytes(states)

			// Preempt the job, put the snapshot through a directory and back,
			// and let the job go on. The job stands still while the disk
			// works, so how far it gets in a round does not depend on the
			// disk, and the reference loops around the disk work run alone.
			if err := op(opSuspend, j.wl.Suspend); err != nil {
				return err
			}
			loop = refLoop()
			gen := ckpt.StatesDirName(round)
			stepsAt := make([]int, len(states))
			for i, st := range states {
				stepsAt[i] = st.Step
			}
			if err := op(opCkptSave, func() error { return ckpt.SaveStates(ckptDir, gen, disturbJobID, states, seq) }); err != nil {
				return err
			}
			if err := op(opCkptLoad, func() (err error) {
				loaded, err = ckpt.LoadStates(ckptDir, gen, disturbJobID, stepsAt)
				return
			}); err != nil {
				return err
			}
			if !r.check(statesEqual(states, loaded), "round %d: states loaded from the checkpoint differ from the snapshot", round) {
				return fmt.Errorf("checkpoint round trip changed the state")
			}
			loop = (loop + refLoop()) / 2
			if err := op(opResume, func() error { return j.wl.Resume(j.res.Hosts) }); err != nil {
				return err
			}

			// Grow onto two more hosts, then give them back.
			time.Sleep(s.gap)
			extra := j.pool.SelectFree(2, pol)
			if len(extra) < 2 {
				return fmt.Errorf("pool has no two free hosts to grow onto")
			}
			wide := append(append([]*cluster.Host(nil), j.res.Hosts...), extra...)
			if err := op(opGrow, func() error { return j.wl.Resize(grown, wide) }); err != nil {
				return err
			}
			time.Sleep(s.gap)
			if err := op(opShrink, func() error { return j.wl.Resize(base, j.res.Hosts) }); err != nil {
				return err
			}
			for _, h := range extra {
				h.Unassign()
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", round, err)
		}
		res.loops = append(res.loops, loop)
	}
	if err := j.wl.Finish(); err != nil {
		return nil, err
	}
	res.wall = time.Since(t0)
	res.final = j.gather()
	return res, nil
}

// roundOps are the operations of one round that count as its work.
// ckpt.SaveStates is not among them: its time is the disk's fsync, which on
// a shared box moves tenfold from one hour to the next and says nothing
// about the program; it is reported as a layer metric.
var roundOps = []int{opMigrate, opSnapshot, opSuspend, opCkptLoad, opResume, opGrow, opShrink}

// rounds returns, per round, the time its operations took (the running
// gaps between them excluded) and the operations completed per reference
// second.
func (res *disturbResult) rounds() (roundMs, opsPerRS []float64) {
	roundMs = make([]float64, len(res.loops))
	opsPerRS = make([]float64, len(res.loops))
	for k := range roundMs {
		for _, op := range roundOps {
			roundMs[k] += res.ops[op][k]
		}
		opsPerRS[k] = float64(len(roundOps)) / refSeconds(roundMs[k]*1e6, res.loops[k])
	}
	return roundMs, opsPerRS
}

func stateBytes(states []*dump.State) int64 {
	n := int64(0)
	for _, st := range states {
		for _, f := range st.Fields {
			n += int64(8 * len(f))
		}
	}
	return n
}

// statesEqual compares two state sets bit for bit.
func statesEqual(a, b []*dump.State) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Rank != b[i].Rank || a[i].Step != b[i].Step || len(a[i].Fields) != len(b[i].Fields) {
			return false
		}
		for name, fa := range a[i].Fields {
			fb := b[i].Fields[name]
			if len(fa) != len(fb) {
				return false
			}
			for k := range fa {
				if math.Float64bits(fa[k]) != math.Float64bits(fb[k]) {
					return false
				}
			}
		}
	}
	return true
}

// disturb is the lb3d_disturb workload.
func (r *run) disturb() error {
	s := disturbFull
	steps, rounds, driverSteps := r.scaled(s.steps), r.scaled(s.rounds), r.scaled(s.driver)
	if r.opt.quick {
		s = disturbQuick
		steps, rounds, driverSteps = s.steps, s.rounds, s.driver
	}
	cells := s.lat.cells()
	r.detail["steps"] = map[string]int{"job": steps, "driver": driverSteps, "prefix": prefixSteps}
	r.detail["rounds"] = rounds

	// Set-up, repeated; the builds are discarded (nothing runs until Start).
	var wallS, refS []float64
	meter := newRefMeter()
	for k := 0; k < s.setups; k++ {
		var err error
		wall, ref := meter.measureFresh(func() { _, err = s.build(r, steps, core.HubFactory()) })
		if err != nil {
			return err
		}
		wallS, refS = append(wallS, wall), append(refS, ref)
	}
	r.setSetup(wallS, refS)

	// The base rate: the same lattice stepped by hand, 2 ranks over the hub,
	// as the solver workloads do. (a) Its prefix equals the sequential
	// executor's.
	hub := solverSpec{lat: s.lat, transport: "hub", driverWin: s.driverWin}
	dr, prob, err := r.drivenRunOnce(hub, driverSteps, nil, "driver")
	if err != nil {
		return err
	}
	seq, err := prob.sequential(prefixSteps)
	if err != nil {
		return err
	}
	r.checkSame(seq.sha(), dr.prefix.sha(), fmt.Sprintf("2-rank driver against the sequential executor after %d steps", prefixSteps))

	// The job left alone.
	j, err := s.build(r, steps, core.HubFactory())
	if err != nil {
		return err
	}
	und, err := s.runJob(r, j, steps, 0, nil)
	if err != nil {
		return fmt.Errorf("undisturbed run: %w", err)
	}
	r.ops(steps)
	undSHA := und.final.sha()
	r.check(und.final.finite(), "undisturbed: non-finite value in the final fields")

	// The same job, disturbed while it runs.
	j, err = s.build(r, steps, core.HubFactory())
	if err != nil {
		return err
	}
	dis, err := s.runJob(r, j, steps, rounds, nil)
	if err != nil {
		return fmt.Errorf("disturbed run: %w", err)
	}
	r.ops(steps + dis.opsDone)
	// (d) Disturbance changes nothing but the wall clock.
	r.checkSame(dis.final.sha(), undSHA, "disturbed against undisturbed run")
	r.check(dis.lastStep < steps, "the job finished (step %d of %d) before the last round's snapshot", dis.lastStep, steps)
	r.detail["result_sha256"] = undSHA
	r.detail["last_snapshot_step"] = dis.lastStep

	roundMs, opsPerRS := dis.rounds()
	resizeMs := make([]float64, rounds)
	ckptRate := make([]float64, rounds)
	for k := range resizeMs {
		resizeMs[k] = dis.ops[opGrow][k] + dis.ops[opShrink][k]
		ckptRate[k] = float64(dis.bytes) / 1e6 / ((dis.ops[opCkptSave][k] + dis.ops[opCkptLoad][k]) / 1e3)
	}
	q1, q2, q3 := quartiles(roundMs)
	r.detail["round_ms_quartiles"] = []float64{q1, q2, q3}
	opMs := map[string][]float64{"ref_loop": dis.loops}
	for _, op := range append([]int{opCkptSave}, roundOps...) {
		opMs[disturbOpNames[op]] = dis.ops[op]
	}
	r.detail["op_ms"] = opMs
	r.detail["samples"] = map[string]int{"rounds": rounds, "driver_windows": len(dr.rates)}
	r.set("work_per_rs", median(opsPerRS))
	r.set("base_work_per_rs", median(dr.rates))
	r.set("mcells_per_s", mcellsPerSec(cells, steps, dis.wall))
	r.set("migrate_ms_p50", median(dis.ops[opMigrate]))
	r.set("snapshot_ms_p50", median(dis.ops[opSnapshot]))
	r.set("resize_ms_p50", median(resizeMs))
	r.set("ckpt_mb_per_s", median(ckptRate))
	r.set("ckpt.save_ms_p50", median(dis.ops[opCkptSave]))
	r.set("ckpt.load_ms_p50", median(dis.ops[opCkptLoad]))
	r.set("core.disturb_overhead_frac", (dis.wall-und.wall).Seconds()/und.wall.Seconds())
	if !r.opt.trace {
		return nil
	}

	// Traced: the disturbed run again with spans around every operation
	// and the transport decorated; the hand-driven run again under the
	// decorators for the kernel, halo and step-split rows; then the
	// direct probes.
	tr := newTracer(4+1, "lbm") // up to four ranks while grown, plus the controller
	ctl := tr.ranks[4]
	ctl.opLayer, ctl.opNames = "control", disturbOpNames
	tr.enable(true)
	j, err = s.build(r, steps, tr.factory(core.HubFactory()))
	if err != nil {
		return err
	}
	tdis, err := s.runJob(r, j, steps, rounds, ctl)
	if err != nil {
		return fmt.Errorf("traced disturbed run: %w", err)
	}
	tr.enable(false)
	r.ops(steps + tdis.opsDone)
	r.checkSame(tdis.final.sha(), undSHA, "traced disturbed against undisturbed run")
	_, tracedOpsPerRS := tdis.rounds()
	r.set("trace_overhead_frac", 1-median(tracedOpsPerRS)/median(opsPerRS))

	dtr := newTracer(s.lat.ranks(), "lbm")
	tdr, _, err := r.drivenRunOnce(hub, driverSteps, dtr, "traced_driver")
	if err != nil {
		return err
	}
	sr, err := runSingle(s.lat, r.opt.seed, 1, prefixSteps, driverSteps, s.driverWin)
	if err != nil {
		return err
	}
	r.ops(prefixSteps + driverSteps)
	serialRate := mcellsPerSec(cells, sr.steps, stepWall(sr.stepNs))
	r.set("serial_mcells_per_s", serialRate)
	r.set("grid.state_bytes_per_cell", float64(sr.stateBytes)/float64(cells))
	r.layerMetrics(s.lat, dtr, tdr, serialRate, mcellsPerSec(cells, dr.steps, stepWall(dr.stepNs)))
	r.set("step_ms_p50", median(dr.stepNs)/1e6)
	rt0 := dtr.ranks[0]
	if err := r.probeRTT(int(rt0.sendValues / max(rt0.sends, 1))); err != nil {
		return err
	}
	r.predictEfficiency(hub, prob, serialRate)
	r.probePool(s.lat.nz)
	if err := r.probeControl(s, max(3, rounds/2)); err != nil {
		return err
	}
	if err := r.probeSyncfile(max(5, rounds)); err != nil {
		return err
	}
	// Both tracers go into the one span file: the disturbed run's ranks
	// and controller first, then the driver run's ranks.
	for _, rt := range dtr.ranks {
		rt.rank += len(tr.ranks)
		tr.ranks = append(tr.ranks, rt)
	}
	path, err := tr.write(r.opt.outDir, r.opt.workload)
	if err != nil {
		return err
	}
	r.detail["span_file"] = path
	return nil
}
