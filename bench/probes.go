package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/farm"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/dump"
	"repro/internal/filter"
	"repro/internal/grid"
	"repro/internal/msg"
	"repro/internal/perf"
	"repro/internal/pool"
	"repro/internal/registry"
	"repro/internal/syncfile"
)

// Direct probes: layers the decorators cannot see inside are called on
// their own, at the workload's sizes, in the traced run.

// probeFilterAndCopy times Plan.Apply and Field.CopyFrom on fields the
// size of one rank's subregion, filled with the seeded density so the
// filter has something to correct.
func (r *run) probeFilterAndCopy(prob *problem, reps int) {
	l := prob.lat
	var apply func()
	var copyOnce func()
	var cells, fieldBytes int
	if l.is3D() {
		sub := prob.c3.D.ByRank(0)
		mask := core.LocalMask3D(prob.c3.D, sub, prob.c3.Mask)
		plan := filter.NewPlan3D(sub.NX, sub.NY, sub.NZ, mask)
		fs := make([]*grid.Field3D, 4)
		for i := range fs {
			fs[i] = grid.NewField3D(sub.NX, sub.NY, sub.NZ, 1)
			for z := -1; z <= sub.NZ; z++ {
				for y := -1; y <= sub.NY; y++ {
					for x := -1; x <= sub.NX; x++ {
						fs[i].Set(x, y, z, prob.c3.InitRho(x, y, z))
					}
				}
			}
		}
		cells = sub.Nodes()
		fieldBytes = 8 * len(fs[0].Data())
		scratch := make([]float64, cells)
		apply = func() { plan.Apply(fs, max(l.eps, 0.01), scratch, filter.Serial) }
		copyOnce = func() { fs[1].CopyFrom(fs[0]) }
	} else {
		sub := prob.c2.D.ByRank(0)
		mask := core.LocalMask2D(prob.c2.D, sub, prob.c2.Mask)
		plan := filter.NewPlan2D(sub.NX, sub.NY, mask)
		fs := make([]*grid.Field2D, 3)
		for i := range fs {
			fs[i] = grid.NewField2D(sub.NX, sub.NY, 1)
			for y := -1; y <= sub.NY; y++ {
				for x := -1; x <= sub.NX; x++ {
					fs[i].Set(x, y, prob.c2.InitRho(x, y))
				}
			}
		}
		cells = sub.Nodes()
		fieldBytes = 8 * len(fs[0].Data())
		scratch := make([]float64, cells)
		apply = func() { plan.Apply(fs, max(l.eps, 0.01), scratch, filter.Serial) }
		copyOnce = func() { fs[1].CopyFrom(fs[0]) }
	}
	apply() // warm
	var applyNs, copyNs []float64
	for k := 0; k < reps; k++ {
		applyNs = append(applyNs, float64(timed(apply)))
	}
	copyReps := max(reps, 2_000_000/max(fieldBytes/64, 1)) // small fields need many copies per sample
	for k := 0; k < reps; k++ {
		d := timed(func() {
			for c := 0; c < copyReps; c++ {
				copyOnce()
			}
		})
		copyNs = append(copyNs, float64(d)/float64(copyReps))
	}
	if l.eps > 0 {
		r.set("filter.apply_ns_per_cell", median(applyNs)/float64(cells))
	}
	// A copy reads the field once and writes it once.
	r.set("grid.copy_gb_per_s", 2*float64(fieldBytes)/median(copyNs))
}

// probePool times the fork/join of a two-slab Run with nothing to do.
func (r *run) probePool(rows int) {
	var pr pool.Runner
	noop := func(lo, hi int) {}
	const calls = 20000
	pr.Run(2, rows, noop) // start the pool
	var perCall []float64
	for k := 0; k < 5; k++ {
		d := timed(func() {
			for c := 0; c < calls; c++ {
				pr.Run(2, rows, noop)
			}
		})
		perCall = append(perCall, us(d)/calls)
	}
	r.set("pool.run_us_per_call", median(perCall))
}

// pingPong is the median round trip of one message of the given payload
// between two ranks of a transport.
func pingPong(factory core.TransportFactory, values, trips int) (float64, error) {
	a, err := factory(0, 0)
	if err != nil {
		return 0, err
	}
	defer a.Close()
	b, err := factory(1, 0)
	if err != nil {
		return 0, err
	}
	defer b.Close()
	payload := make([]float64, values)
	echoErr := make(chan error, 1)
	go func() {
		for k := 0; k < trips; k++ {
			m, err := b.Recv()
			if err != nil {
				echoErr <- err
				return
			}
			if err := b.Send(msg.Message{To: 0, Step: m.Step, Data: m.Data}); err != nil {
				echoErr <- err
				return
			}
		}
		echoErr <- nil
	}()
	rtt := make([]float64, 0, trips)
	for k := 0; k < trips; k++ {
		t0 := time.Now()
		if err := a.Send(msg.Message{To: 1, Step: k, Data: payload}); err != nil {
			return 0, err
		}
		if _, err := a.Recv(); err != nil {
			return 0, err
		}
		rtt = append(rtt, us(time.Since(t0)))
	}
	if err := <-echoErr; err != nil {
		return 0, err
	}
	return median(rtt[trips/10:]), nil // the first trips open the connection
}

// probeRTT measures the one-message round trip over both transports at
// the workload's mean message size.
func (r *run) probeRTT(values int) error {
	const trips = 2000
	hub, err := pingPong(core.HubFactory(), values, trips)
	if err != nil {
		return fmt.Errorf("hub ping-pong: %w", err)
	}
	dir, err := r.scratch("rtt-registry")
	if err != nil {
		return err
	}
	reg, err := registry.New(dir)
	if err != nil {
		return err
	}
	tcp, err := pingPong(func(rank, epoch int) (msg.Transport, error) { return msg.NewTCP(rank, epoch, reg) }, values, trips)
	if err != nil {
		return fmt.Errorf("tcp ping-pong: %w", err)
	}
	r.set("msg.rtt_us_hub", hub)
	r.set("msg.rtt_us_tcp", tcp)
	return nil
}

// probeSyncfile times appendix B's round for two ranks: both announce and
// wait for each other.
func (r *run) probeSyncfile(rounds int) error {
	dir, err := r.scratch("syncprobe")
	if err != nil {
		return err
	}
	sf, err := syncfile.New(dir)
	if err != nil {
		return err
	}
	var roundMs []float64
	for round := 1; round <= rounds; round++ {
		var wg sync.WaitGroup
		errs := make([]error, 2)
		t0 := time.Now()
		for rank := 0; rank < 2; rank++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, errs[rank] = sf.SyncStep(round, rank, 10*round+rank, 2, 10*time.Second)
			}()
		}
		wg.Wait()
		roundMs = append(roundMs, ms(time.Since(t0)))
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
	}
	r.set("syncfile.round_ms_p50", median(roundMs))
	return nil
}

// probeDump times the dump file codec on one rank's state.
func (r *run) probeDump(st *dump.State, reps int) error {
	dir, err := r.scratch("dumpprobe")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	bytes := float64(stateBytes([]*dump.State{st}))
	path := filepath.Join(dir, "probe.gob")
	var enc, dec []float64
	for k := 0; k < reps; k++ {
		var err error
		d := timed(func() { err = dump.Save(path, st) })
		if err != nil {
			return err
		}
		enc = append(enc, bytes/1e6/d.Seconds())
		d = timed(func() { _, err = dump.Load(path) })
		if err != nil {
			return err
		}
		dec = append(dec, bytes/1e6/d.Seconds())
	}
	r.set("dump.encode_mb_per_s", median(enc))
	r.set("dump.decode_mb_per_s", median(dec))
	r.set("dump.bytes_per_rank", bytes)
	return nil
}

// probeControl times the core.Job control calls singly on a running job,
// and Program.DumpState / RestoreState on one rank.
func (r *run) probeControl(s disturbSpec, reps int) error {
	prob, err := newProblem(s.lat, r.opt.seed, 1)
	if err != nil {
		return err
	}
	dir, err := r.scratch("ctlprobe")
	if err != nil {
		return err
	}
	sf, err := syncfile.New(dir)
	if err != nil {
		return err
	}
	// The job must not run out of steps while it is being probed.
	job, _, err := core.NewJob3D(prob.c3, core.HubFactory(), sf, 1<<30)
	if err != nil {
		return err
	}
	grown := decomp.UniformShape3D(2, 2, 1, s.lat.nx, s.lat.ny, s.lat.nz)
	base := decomp.UniformShape3D(s.lat.jx, s.lat.jy, s.lat.jz, s.lat.nx, s.lat.ny, s.lat.nz)
	var suspend, resume, migrate, grow, shrink []float64
	var states []*dump.State
	job.Start()
	for k := 0; k < reps; k++ {
		time.Sleep(s.gap)
		d := timed(func() { states, err = job.Suspend() })
		if err != nil {
			return fmt.Errorf("Suspend: %w", err)
		}
		suspend = append(suspend, ms(d))
		d = timed(func() { err = job.Resume(states) })
		if err != nil {
			return fmt.Errorf("Resume: %w", err)
		}
		resume = append(resume, ms(d))
		time.Sleep(s.gap)
		d = timed(func() { err = job.MigrateRanks([]int{k % 2}, nil) })
		if err != nil {
			return fmt.Errorf("MigrateRanks: %w", err)
		}
		migrate = append(migrate, ms(d))
		time.Sleep(s.gap)
		d = timed(func() { err = job.Resize(grown) })
		if err != nil {
			return fmt.Errorf("Resize grow: %w", err)
		}
		grow = append(grow, ms(d))
		time.Sleep(s.gap)
		d = timed(func() { err = job.Resize(base) })
		if err != nil {
			return fmt.Errorf("Resize shrink: %w", err)
		}
		shrink = append(shrink, ms(d))
		r.ops(5)
	}
	// Stop the endless job: suspend leaves no worker running.
	if states, err = job.Suspend(); err != nil {
		return fmt.Errorf("final Suspend: %w", err)
	}
	r.set("core.suspend_ms_p50", median(suspend))
	r.set("core.resume_ms_p50", median(resume))
	r.set("core.migrate_ms_p50", median(migrate))
	r.set("core.resize_grow_ms_p50", median(grow))
	r.set("core.resize_shrink_ms_p50", median(shrink))

	prog, err := prob.program(0)
	if err != nil {
		return err
	}
	var dumpMs, restoreMs []float64
	var st *dump.State
	for k := 0; k < 4*reps; k++ {
		dumpMs = append(dumpMs, ms(timed(func() { st = prog.DumpState(0, 0) })))
		d := timed(func() { err = prog.RestoreState(st) })
		if err != nil {
			return err
		}
		restoreMs = append(restoreMs, ms(d))
	}
	r.set("core.dumpstate_ms_p50", median(dumpMs))
	r.set("core.restorestate_ms_p50", median(restoreMs))
	return r.probeDump(states[0], 4*reps)
}

// probePerf prices every generated job through the perf engine over the
// paper's shared Ethernet, the way a farm built WithTimer(PerfTimer)
// would at each placement.
func (r *run) probePerf(jobs []farm.JobSpec) error {
	timer := farm.PerfTimer(perf.Ethernet)
	hosts := cluster.NewPaperCluster().Hosts
	priceUs := make([]float64, 0, len(jobs))
	t0 := time.Now()
	for _, js := range jobs {
		t := time.Now()
		if _, err := timer(js, decomp.Shape{}, hosts[:js.Ranks()]); err != nil {
			return fmt.Errorf("PerfTimer %s: %w", js.ID, err)
		}
		priceUs = append(priceUs, us(time.Since(t)))
	}
	r.ops(len(jobs))
	r.set("perf.price_us_p50", median(priceUs))
	r.set("perf.prices_per_s", float64(len(jobs))/time.Since(t0).Seconds())
	return nil
}

// probeReserve times Cluster.Reserve + Release of an eight-host claim with
// the seeded permutation scan.
func (r *run) probeReserve(reps int) error {
	pool := cluster.NewPaperCluster()
	pool.Advance(30 * time.Minute)
	rng := rand.New(rand.NewSource(r.opt.seed))
	pol := cluster.DefaultPolicy()
	var reserveUs []float64
	for k := 0; k < reps; k++ {
		t := time.Now()
		res, err := pool.Reserve("probe", 8, pol, rng)
		if err != nil {
			return err
		}
		res.Release()
		reserveUs = append(reserveUs, us(time.Since(t)))
	}
	r.set("cluster.reserve_us_p50", median(reserveUs))
	return nil
}
