package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/msg"
	"repro/internal/registry"
)

// prefixSteps is the length of the identity prefix: after this many steps
// the 2-rank driver's fields must equal the sequential executor's bit for
// bit. The same steps warm the driver up before its timed window.
const prefixSteps = 5

// solverSpec sizes one solver workload. Step counts are for a run of
// nominalSeconds; see run.scaled. A window is the unit one rate sample is
// taken over: the reference loop runs between windows (see calib.go), so
// a window is sized to last at least 40 ms.
type solverSpec struct {
	lat       lattice
	transport string // "hub" or "tcp"
	setups    int    // how often the set-up is repeated for its median
	warmup    int    // untimed steps before the single-solver windows
	serial    int    // timed steps, one solver, one worker (and again with two, traced)
	serialWin int    // steps per window of the single-solver runs
	driver    int    // timed steps, 2 ranks x 1 worker
	driverWin int    // steps per window of the driver run
}

// solverSpecs are the three solver workloads. The two _mem lattices are
// sized above the reported last-level cache so the kernels stream from
// memory; fd2d_halo_tcp is sized so a step's compute is a small part of it
// and the transport and the driver's bookkeeping are the rest.
var solverSpecs = map[string]solverSpec{
	"lb2d_mem": {
		lat:       lattice{method: core.MethodLB, nx: 2048, ny: 1024, jx: 2, jy: 1, eps: 0.01},
		transport: "hub", setups: 3, warmup: 2, serial: 15, serialWin: 1, driver: 40, driverWin: 1,
	},
	"fd3d_mem": {
		lat:       lattice{method: core.MethodFD, nx: 256, ny: 128, nz: 128, jx: 2, jy: 1, jz: 1, eps: 0.01},
		transport: "hub", setups: 3, warmup: 2, serial: 13, serialWin: 1, driver: 30, driverWin: 1,
	},
	"fd2d_halo_tcp": {
		lat:       lattice{method: core.MethodFD, nx: 32, ny: 16, jx: 2, jy: 1, eps: 0.01},
		transport: "tcp", setups: 101, warmup: 200, serial: 300000, serialWin: 3000, driver: 120000, driverWin: 700,
	},
}

// quickSolverSpecs are the smoke-test twins: same shape, tiny size.
var quickSolverSpecs = map[string]solverSpec{
	"lb2d_mem": {
		lat:       lattice{method: core.MethodLB, nx: 128, ny: 64, jx: 2, jy: 1, eps: 0.01},
		transport: "hub", setups: 3, warmup: 2, serial: 20, serialWin: 5, driver: 40, driverWin: 10,
	},
	"fd3d_mem": {
		lat:       lattice{method: core.MethodFD, nx: 32, ny: 16, nz: 16, jx: 2, jy: 1, jz: 1, eps: 0.01},
		transport: "hub", setups: 3, warmup: 2, serial: 20, serialWin: 5, driver: 40, driverWin: 10,
	},
	"fd2d_halo_tcp": {
		lat:       lattice{method: core.MethodFD, nx: 32, ny: 16, jx: 2, jy: 1, eps: 0.01},
		transport: "tcp", setups: 3, warmup: 20, serial: 400, serialWin: 100, driver: 800, driverWin: 200,
	},
}

// instance is one built parallel run: the seeded problem, a Program and a
// Worker per rank, transports open.
type instance struct {
	prob    *problem
	progs   []core.Program
	workers []*core.Worker
}

// transportFactory opens the spec's transport. TCP publishes its ports in
// a registry directory under the run's scratch space.
func (s solverSpec) transportFactory(r *run) (core.TransportFactory, error) {
	if s.transport == "hub" {
		return core.HubFactory(), nil
	}
	dir, err := r.scratch("registry")
	if err != nil {
		return nil, err
	}
	reg, err := registry.New(dir)
	if err != nil {
		return nil, err
	}
	return func(rank, epoch int) (msg.Transport, error) {
		return msg.NewTCP(rank, epoch, reg)
	}, nil
}

// build is the set-up a parallel run pays before its first step: mask,
// decomposition, one solver per rank, transports. With a tracer, every
// Program and Transport is wrapped in its timing decorator.
func (s solverSpec) build(r *run, tr *tracer) (*instance, error) {
	prob, err := newProblem(s.lat, r.opt.seed, 1)
	if err != nil {
		return nil, err
	}
	factory, err := s.transportFactory(r)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		factory = tr.factory(factory)
	}
	in := &instance{prob: prob}
	in.progs, err = prob.programs()
	if err != nil {
		return nil, err
	}
	events := make(chan core.Event, 4*len(in.progs)) // RunStep never posts; sized as RunParallel2D does
	for rank, p := range in.progs {
		if tr != nil {
			p = &tracedProgram{Program: p, rt: tr.ranks[rank]}
			in.progs[rank] = p
		}
		w, err := core.NewWorker(p, factory, 0, events)
		if err != nil {
			in.close()
			return nil, err
		}
		in.workers = append(in.workers, w)
	}
	return in, nil
}

func (in *instance) close() {
	for _, w := range in.workers {
		w.Close()
	}
}

// pace records every rank's reference-loop times: one before the first
// step of a timed window sequence and one after every `every` steps.
type pace struct {
	every int
	loops [][]float64 // [rank][probe]
}

// advance runs n steps on every rank, one goroutine per rank as the
// driver does, and returns when all ranks are at the new step. Rank 0's
// step times are appended to stepNs when it is non-nil. With a pace, every
// rank runs the reference loop between windows of steps.
func (in *instance) advance(n int, stepNs *[]float64, pc *pace, tr *tracer) error {
	var wg sync.WaitGroup
	errs := make([]error, len(in.workers))
	if pc != nil {
		pc.loops = make([][]float64, len(in.workers))
	}
	for rank, w := range in.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var rt *rankTrace
			if tr != nil {
				rt = tr.ranks[rank]
			}
			if pc != nil {
				pc.loops[rank] = append(pc.loops[rank], refLoop())
			}
			for k := 0; k < n; k++ {
				if rt != nil {
					rt.step = w.Step
					rt.begin(kStep, 0)
				}
				t0 := time.Now()
				err := w.RunStep()
				if rank == 0 && stepNs != nil {
					*stepNs = append(*stepNs, float64(time.Since(t0)))
				}
				if rt != nil {
					rt.end()
				}
				if err != nil {
					errs[rank] = err
					in.close() // unblock the peers waiting on this rank
					return
				}
				if pc != nil && ((k+1)%pc.every == 0 || k == n-1) {
					pc.loops[rank] = append(pc.loops[rank], refLoop())
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// rates turns rank 0's step times and every rank's reference loops into
// one rate sample per window, in 1e6 site-updates per reference second.
// The ranks step in lockstep, so a window is judged against the slowest
// rank's loops around it.
func (pc *pace) rates(cells int, stepNs []float64) []float64 {
	var out []float64
	for j := 0; j+1 < len(pc.loops[0]); j++ {
		lo, hi := j*pc.every, min((j+1)*pc.every, len(stepNs))
		wall := 0.0
		for _, d := range stepNs[lo:hi] {
			wall += d
		}
		loop := 0.0
		for _, l := range pc.loops {
			loop = max(loop, (l[j]+l[j+1])/2)
		}
		out = append(out, float64(cells)*float64(hi-lo)/1e6/refSeconds(wall, loop))
	}
	return out
}

// driverResult is one timed 2-rank run.
type driverResult struct {
	steps   int
	wall    time.Duration // the timed window, reference loops included
	stepNs  []float64     // rank 0
	rates   []float64     // per window, 1e6 site-updates per reference second
	prefix  fields        // after prefixSteps
	final   fields
	mallocs uint64 // heap allocations inside the timed window
	bytes   uint64
}

// drive runs the identity prefix, then the timed window.
func (in *instance) drive(steps, window int, tr *tracer) (*driverResult, error) {
	res := &driverResult{steps: steps, stepNs: make([]float64, 0, steps)}
	if err := in.advance(prefixSteps, nil, nil, nil); err != nil {
		return nil, err
	}
	res.prefix = in.prob.gather(in.progs)
	pc := &pace{every: window}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	if tr != nil {
		tr.enable(true) // the prefix ran with the decorators idle
	}
	t0 := time.Now()
	err := in.advance(steps, &res.stepNs, pc, tr)
	res.wall = time.Since(t0)
	if tr != nil {
		tr.enable(false)
	}
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)
	res.mallocs, res.bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	res.rates = pc.rates(in.prob.lat.cells(), res.stepNs)
	res.final = in.prob.gather(in.progs)
	return res, nil
}

// stepWall is the wall time spent inside steps, reference loops excluded.
func stepWall(stepNs []float64) time.Duration {
	total := 0.0
	for _, d := range stepNs {
		total += d
	}
	return time.Duration(total)
}

// singleResult is one timed single-solver run.
type singleResult struct {
	steps      int
	stepNs     []float64
	rates      []float64 // per window, 1e6 site-updates per reference second
	final      fields
	stateBytes uint64 // heap growth at construction
}

// runSingle builds the global lattice as one solver with the given worker
// budget and times steps of StepSerial.
func runSingle(l lattice, seed int64, workers, warm, steps, window int) (*singleResult, error) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	prob, err := newProblem(l.single(), seed, workers)
	if err != nil {
		return nil, err
	}
	prog, err := prob.program(0)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)
	step, err := prob.stepSerial(prog)
	if err != nil {
		return nil, err
	}
	res := &singleResult{steps: steps, stepNs: make([]float64, 0, steps), stateBytes: m1.HeapAlloc - m0.HeapAlloc}
	for k := 0; k < warm; k++ {
		step()
	}
	runtime.GC()
	meter := newRefMeter()
	for done := 0; done < steps; {
		n := min(window, steps-done)
		_, ref := meter.measure(func() {
			for k := 0; k < n; k++ {
				t := time.Now()
				step()
				res.stepNs = append(res.stepNs, float64(time.Since(t)))
			}
		})
		res.rates = append(res.rates, float64(l.cells())*float64(n)/1e6/ref)
		done += n
	}
	res.final = prob.gather([]core.Program{prog})
	return res, nil
}

func mcellsPerSec(cells, steps int, wall time.Duration) float64 {
	return float64(cells) * float64(steps) / wall.Seconds() / 1e6
}

// massTolerance bounds the relative mass drift over a run. Lattice
// Boltzmann without the filter conserves its populations to rounding. The
// filter smooths the density the next relaxation aims for, and the
// finite-difference flux form is conservative only away from walls, so
// with either the drift grows with the step count (1e-4 to 1e-3 over the
// 50 000 steps of fd2d_halo_tcp) and the check can only catch a run that
// is going wrong.
func massTolerance(l lattice) float64 {
	if l.method == core.MethodLB && l.eps == 0 {
		return 1e-12
	}
	return 1e-2
}

// checkPhysics applies the per-run physical checks: no NaN or Inf in the
// final fields, and the conserved mass within tolerance of where it
// started.
func (r *run) checkPhysics(what string, final fields, m0, m1, tol float64) {
	r.check(final.finite(), "%s: non-finite value in the final fields", what)
	drift := (m1 - m0) / m0
	r.detail[what+"_mass_drift"] = drift
	r.check(math.Abs(drift) < tol, "%s: relative mass drift %.3g exceeds %.1g", what, drift, tol)
}

func (r *run) solverWorkload() error {
	spec, ok := solverSpecs[r.opt.workload]
	if r.opt.quick {
		spec, ok = quickSolverSpecs[r.opt.workload]
	}
	if !ok {
		return fmt.Errorf("bench: %q is not a solver workload", r.opt.workload)
	}
	return r.solver(spec)
}

// setUp builds the parallel instance spec.setups times and reports the
// median build time in reference seconds; the last instance is returned
// for the run.
func (r *run) setUp(spec solverSpec) (*instance, error) {
	var in *instance
	var wallS, refS []float64
	meter := newRefMeter()
	for k := 0; k < spec.setups; k++ {
		if in != nil {
			in.close()
			in = nil
		}
		// Every repeat starts as a new process does, with no lattice-sized
		// spans left in the heap: otherwise a repeat pays the page faults or
		// not as the scavenger happens to have run.
		release()
		var err error
		wall, ref := meter.measureFresh(func() { in, err = spec.build(r, nil) })
		if err != nil {
			return nil, err
		}
		wallS, refS = append(wallS, wall), append(refS, ref)
	}
	r.setSetup(wallS, refS)
	return in, nil
}

// drivenRun is the repeated set-up, then the prefix and timed window of
// the 2-rank driver on the last instance built.
func (r *run) drivenRun(spec solverSpec, steps int) (*driverResult, *problem, error) {
	in, err := r.setUp(spec)
	if err != nil {
		return nil, nil, err
	}
	return r.driveInstance(in, steps, spec.driverWin, nil, "driver")
}

// drivenRunOnce builds one instance (decorated when tr is set) and
// drives it.
func (r *run) drivenRunOnce(spec solverSpec, steps int, tr *tracer, what string) (*driverResult, *problem, error) {
	in, err := spec.build(r, tr)
	if err != nil {
		return nil, nil, err
	}
	return r.driveInstance(in, steps, spec.driverWin, tr, what)
}

// driveInstance runs the prefix and the timed window and applies the
// physical checks to where the run ends.
func (r *run) driveInstance(in *instance, steps, window int, tr *tracer, what string) (*driverResult, *problem, error) {
	defer in.close()
	m0, err := mass(in.progs)
	if err != nil {
		return nil, nil, err
	}
	dr, err := in.drive(steps, window, tr)
	if err != nil {
		return nil, nil, err
	}
	m1, err := mass(in.progs)
	if err != nil {
		return nil, nil, err
	}
	r.ops(prefixSteps + steps)
	r.checkPhysics(what, dr.final, m0, m1, massTolerance(in.prob.lat))
	return dr, in.prob, nil
}

func (r *run) solver(spec solverSpec) error {
	cells := spec.lat.cells()
	driverSteps, serialSteps := r.scaled(spec.driver), r.scaled(spec.serial)
	r.detail["steps"] = map[string]int{"driver": driverSteps, "serial": serialSteps, "prefix": prefixSteps}

	// The 2-rank driver, untraced: the end-to-end numbers.
	dr, prob, err := r.drivenRun(spec, driverSteps)
	if err != nil {
		return err
	}
	finalSHA, prefixSHA := dr.final.sha(), dr.prefix.sha()
	r.detail["result_sha256"] = finalSHA
	dr.prefix, dr.final = nil, nil
	release()

	// (a) The driver's prefix equals the sequential executor's, bit for bit.
	seq, err := prob.sequential(prefixSteps)
	if err != nil {
		return err
	}
	r.checkSame(seq.sha(), prefixSHA, fmt.Sprintf("2-rank driver against the sequential executor after %d steps", prefixSteps))
	seq = nil
	release()

	// One solver on the whole lattice, one worker: the plain baseline.
	sr, err := runSingle(spec.lat, r.opt.seed, 1, spec.warmup, serialSteps, spec.serialWin)
	if err != nil {
		return err
	}
	r.ops(spec.warmup + serialSteps)
	r.check(sr.final.finite(), "serial: non-finite value in the final fields")
	serialSHA := sr.final.sha()
	r.detail["serial_sha256"] = serialSHA
	r.detail["working_set_bytes"] = sr.stateBytes
	sr.final = nil
	release()

	driverRate := mcellsPerSec(cells, dr.steps, stepWall(dr.stepNs))
	serialRate := mcellsPerSec(cells, sr.steps, stepWall(sr.stepNs))
	q1, q2, q3 := quartiles(dr.stepNs)
	r.detail["step_ms_quartiles"] = []float64{q1 / 1e6, q2 / 1e6, q3 / 1e6}
	r.detail["samples"] = map[string]int{"steps": len(dr.stepNs), "driver_windows": len(dr.rates), "serial_windows": len(sr.rates)}
	r.set("work_per_rs", median(dr.rates))
	r.set("base_work_per_rs", median(sr.rates))
	r.set("mcells_per_s", driverRate)
	r.set("serial_mcells_per_s", serialRate)
	r.set("step_ms_p50", q2/1e6)
	if !r.opt.trace {
		return nil
	}

	// Traced run: the worker-slab configuration, then the same driver run
	// again under the decorators, then the direct probes.
	workerRate := 0.0
	if runtime.GOMAXPROCS(0) >= 2 {
		wr, err := runSingle(spec.lat, r.opt.seed, 2, spec.warmup, serialSteps, spec.serialWin)
		if err != nil {
			return err
		}
		r.ops(spec.warmup + serialSteps)
		// (b) Worker slabs change nothing but the wall clock.
		r.checkSame(wr.final.sha(), serialSHA, fmt.Sprintf("2-worker run against the serial run after %d steps", spec.warmup+serialSteps))
		workerRate = mcellsPerSec(cells, wr.steps, stepWall(wr.stepNs))
		wr = nil
		release()
	} else {
		r.detail["workers_mcells_per_s"] = "skipped: fewer than 2 processors"
	}
	r.set("workers_mcells_per_s", workerRate)
	r.set("pool.slab_speedup", workerRate/serialRate)
	r.set("grid.state_bytes_per_cell", float64(sr.stateBytes)/float64(cells))

	layer := "fd"
	if spec.lat.method == core.MethodLB {
		layer = "lbm"
	}
	tr := newTracer(spec.lat.ranks(), layer)
	tdr, _, err := r.drivenRunOnce(spec, driverSteps, tr, "traced_driver")
	if err != nil {
		return err
	}
	r.checkSame(tdr.final.sha(), finalSHA, "traced against untraced driver run")
	r.set("trace_overhead_frac", 1-median(tdr.rates)/median(dr.rates))
	tdr.prefix, tdr.final = nil, nil
	release()
	r.layerMetrics(spec.lat, tr, tdr, serialRate, driverRate)
	tailPct, tailNs := tail(dr.stepNs)
	r.set("core.step_ms_tail", tailNs/1e6)
	r.set("core.step_tail_pct", tailPct)
	r.set("core.allocs_per_step", float64(dr.mallocs)/float64(dr.steps))
	r.set("core.alloc_bytes_per_step", float64(dr.bytes)/float64(dr.steps))

	r.probeFilterAndCopy(prob, 5)
	rows := spec.lat.ny
	if spec.lat.is3D() {
		rows = spec.lat.nz
	}
	r.probePool(rows)
	rt0 := tr.ranks[0]
	if err := r.probeRTT(int(rt0.sendValues / max(rt0.sends, 1))); err != nil {
		return err
	}
	r.predictEfficiency(spec, prob, serialRate)
	path, err := tr.write(r.opt.outDir, r.opt.workload)
	if err != nil {
		return err
	}
	r.detail["span_file"] = path
	return nil
}

// layerMetrics turns rank 0's spans into the per-layer rows: kernel phase
// costs, halo pack and unpack, the message census, the step-time split and
// the efficiency figures it implies.
func (r *run) layerMetrics(l lattice, tr *tracer, tdr *driverResult, serialRate, driverRate float64) {
	rt := tr.ranks[0]
	steps := float64(tdr.steps)
	rankCells := float64(l.cells()) / float64(l.ranks())
	for ph := 0; ph < 4; ph++ {
		st := &rt.stats[kCompute][ph]
		if st.count > 0 {
			r.set(fmt.Sprintf("%s.phase%d_ns_per_cell", rt.layer, ph), float64(st.self)/float64(st.count)/rankCells)
		}
	}
	_, stepTotal, stepSelf := rt.kindTotal(kStep)
	_, compute, _ := rt.kindTotal(kCompute)
	_, _, pack := rt.kindTotal(kPack)
	_, send, _ := rt.kindTotal(kSend)
	_, wait, _ := rt.kindTotal(kRecv)
	_, unpack, _ := rt.kindTotal(kUnpack)
	total := float64(stepTotal)
	r.set("core.compute_frac", float64(compute)/total)
	r.set("core.pack_frac", float64(pack)/total)
	r.set("core.send_frac", float64(send)/total)
	r.set("core.wait_frac", float64(wait)/total)
	r.set("core.unpack_frac", float64(unpack)/total)
	r.set("core.other_frac", float64(stepSelf)/total)
	r.detail["self_time_sum_over_step_wall"] = float64(compute+pack+send+wait+unpack+stepSelf) / total

	r.set("halo.pack_ns_per_value", float64(pack)/float64(max(rt.packValues, 1)))
	r.set("halo.unpack_ns_per_value", float64(unpack)/float64(max(rt.unpackValues, 1)))
	r.set("halo.msgs_per_step", float64(rt.sends)/steps)
	r.set("halo.bytes_per_step", 8*float64(rt.sendValues)/steps)
	r.set("msg.send_us_p50", median(rt.kindSamples(kSend))/1e3)
	r.set("msg.recv_wait_us_p50", median(rt.kindSamples(kRecv))/1e3)
	r.set("core.early_msgs_frac", float64(rt.early)/float64(max(rt.recvs, 1)))
	skew := 0
	for _, x := range tr.ranks {
		skew = max(skew, x.skewMax)
	}
	r.set("core.step_skew_max", float64(skew))

	// The paper's f = T_calc / (T_calc + T_com), measured; and the same
	// from the section-8 model fed this run's node rate and message cost.
	fMeasured := float64(compute) / total
	r.set("core.f_measured", fMeasured)
	r.set("core.parallel_efficiency", driverRate/(float64(l.ranks())*serialRate))
}

// predictEfficiency evaluates the section-8 model (equations 17-18) with
// this run's own inputs: U_calc is the measured serial node rate, and the
// communication rate follows from the message census and the measured
// one-way message time of the workload's transport.
func (r *run) predictEfficiency(spec solverSpec, prob *problem, serialRate float64) {
	rtt := r.metrics["msg.rtt_us_hub"]
	if spec.transport == "tcp" {
		rtt = r.metrics["msg.rtt_us_tcp"]
	}
	tcom := r.metrics["halo.msgs_per_step"] * rtt / 2 * 1e-6 // seconds per step
	n := float64(spec.lat.cells()) / float64(spec.lat.ranks())
	ucalc := serialRate * 1e6
	var f float64
	if spec.lat.is3D() {
		m := prob.c3.D.SurfaceFactor()
		f = model.Efficiency3D(n, m, ucalc*tcom/model.SurfaceNodes3D(m, n))
	} else {
		m := prob.c2.D.SurfaceFactor()
		f = model.Efficiency2D(n, m, ucalc*tcom/model.SurfaceNodes2D(m, n))
	}
	r.set("model.f_predicted", f)
}
