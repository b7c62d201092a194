package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/decomp"
	"repro/internal/dump"
	"repro/internal/fluid"
	"repro/internal/msg"
	"repro/internal/syncfile"
)

// restoreProgram builds the Program a dump belongs to anew: the
// rank's geometry with the dumped state loaded into it. It is the fresh
// reference the tests compare a reused or re-cut rank with.
func restoreProgram[P built](c setup[P], st *dump.State) (P, error) {
	p, err := c.geometry(st.Rank)
	if err != nil {
		return p, err
	}
	return p, p.RestoreState(st)
}

// TestReusedRankEqualsFresh: a copied dump restored into the used Program
// it came from leaves that Program equal, in every field the reflection
// walk reaches, to restoreProgram of the same dump — hidden double-swap
// buffers, filter rings and exchange slices included. A dump of views
// (the handover of an exiting rank) is already in place and changes
// nothing. Either way the two step on to equal Programs. Both methods,
// both dimensions, the filter on and off, restored after an odd and an
// even step count.
func TestReusedRankEqualsFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(181))
	for _, method := range []string{MethodLB, MethodFD} {
		for _, eps := range []float64{0, 0.01} {
			par := fluid.DefaultParams()
			par.Nu, par.Eps, par.ForceX = 0.1, eps, 1e-5
			d2, err := decomp.NewShaped(decomp.Shape{X: []int{13, 11}, Y: []int{8, 10}}, decomp.Full)
			if err != nil {
				t.Fatal(err)
			}
			d2.PeriodicX = true
			cfg2 := &Config2D{
				Method: method, Par: par, Mask: seamMask2D(rng, 24, 18), D: d2,
				InitRho: func(x, y int) float64 { return 1 + 0.001*math.Sin(float64(x)/3) },
				InitVy:  func(x, y int) float64 { return 1e-4 * float64(y%5) },
			}
			d3, err := decomp.NewShaped(decomp.Shape{X: []int{7, 5}, Y: []int{9}, Z: []int{3, 5}}, decomp.Star)
			if err != nil {
				t.Fatal(err)
			}
			d3.PeriodicX, d3.PeriodicZ = true, true
			cfg3 := &Config3D{
				Method: method, Par: par, Mask: seamMask3D(rng, 12, 9, 8), D: d3,
				InitRho: func(x, y, z int) float64 { return 1 + 0.001*math.Sin(float64(x+z)/3) },
				InitVx:  func(x, y, z int) float64 { return 1e-4 * float64(y%4) },
			}
			for _, at := range []int{3, 4} {
				name := fmt.Sprintf("%s eps=%v after %d steps", method, eps, at)
				reuseMatchesFresh(t, name+" 2D", d2.P(), at,
					func(rank int) (Program, error) { return cfg2.NewProgram(rank) },
					func(st *dump.State) (Program, error) { return restoreProgram(cfg2, st) })
				reuseMatchesFresh(t, name+" 3D", d3.P(), at,
					func(rank int) (Program, error) { return cfg3.NewProgram(rank) },
					func(st *dump.State) (Program, error) { return restoreProgram(cfg3, st) })
			}
		}
	}
}

// reuseMatchesFresh steps every rank of a fresh job at steps, restores each
// into itself and into a fresh Program, and compares the two after two
// more steps, and before them where the dump was copied.
func reuseMatchesFresh(t *testing.T, name string, ranks, at int,
	fresh func(rank int) (Program, error), restore func(st *dump.State) (Program, error)) {
	t.Helper()
	var used, want []Program
	for rank := 0; rank < ranks; rank++ {
		p, err := fresh(rank)
		if err != nil {
			t.Fatal(err)
		}
		used = append(used, p)
	}
	stepLockstep(used, at)
	for rank, p := range used {
		views := rank%2 == 0
		into := new(dump.State)
		if views {
			into = nil
		}
		st := p.(built).dump(at, 0, into)
		w, err := restore(st)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.RestoreState(st); err != nil {
			t.Fatal(err)
		}
		if !views {
			sameSolver(t, fmt.Sprintf("%s rank %d", name, rank), w, p)
		}
		want = append(want, w)
	}
	stepLockstep(want, 2)
	stepLockstep(used, 2)
	for rank := range want {
		sameSolver(t, fmt.Sprintf("%s rank %d, 2 steps on", name, rank), want[rank], used[rank])
	}
}

// TestReuseOfRetiredRanksEqualsFresh: a re-split onto the ranks a resize
// retired, after they have stepped, leaves each equal, in every field the
// reflection walk reaches, to the fresh geometry the same re-split builds
// without them, and hands back the same dumps: rebind clears what a used
// rank holds beyond its state, and the cut writes the rest. Both methods,
// both dimensions, a periodic axis and an open one.
func TestReuseOfRetiredRanksEqualsFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(191))
	for _, method := range []string{MethodLB, MethodFD} {
		par := fluid.DefaultParams()
		par.Nu, par.Eps, par.ForceX = 0.1, 0, 1e-5
		d2, err := decomp.New2D(2, 2, 24, 18, decomp.Full)
		if err != nil {
			t.Fatal(err)
		}
		d2.PeriodicX = true
		retiredMatchesFresh(t, method+" 2D", rng, &Config2D{
			Method: method, Par: par, Mask: seamMask2D(rng, 24, 18), D: d2,
			InitVy: func(x, y int) float64 { return 1e-4 * float64(y%5) },
		}, decomp.UniformShape(3, 2, 0, 24, 18, 0))
		d3, err := decomp.New3D(2, 1, 1, 12, 9, 8)
		if err != nil {
			t.Fatal(err)
		}
		d3.PeriodicZ = true
		retiredMatchesFresh(t, method+" 3D", rng, &Config3D{
			Method: method, Par: par, Mask: seamMask3D(rng, 12, 9, 8), D: d3,
			InitVx: func(x, y, z int) float64 { return 1e-4 * float64(y%4) },
		}, decomp.UniformShape3D(2, 2, 1, 12, 9, 8))
	}
}

// retiredMatchesFresh re-splits a randomized dump set of cfg onto the shape
// to twice, once with no retired ranks and once with ranks built on to and
// stepped, and compares the two.
func retiredMatchesFresh[P built](t *testing.T, name string, rng *rand.Rand, cfg setup[P], to decomp.Shape) {
	t.Helper()
	states, err := decompose(cfg)
	if err != nil {
		t.Fatal(err)
	}
	randomize(rng, states)
	d := cfg.decomposition()
	onto, err := decomp.NewShaped(to, d.Stencil)
	if err != nil {
		t.Fatal(err)
	}
	onto.PeriodicX, onto.PeriodicY, onto.PeriodicZ = d.PeriodicX, d.PeriodicY, d.PeriodicZ
	retired, err := buildAll(cfg.over(onto))
	if err != nil {
		t.Fatal(err)
	}
	used := make([]Program, len(retired))
	for rank, p := range retired {
		used[rank] = p
	}
	stepLockstep(used, 3)
	freshD, reusedD := *d, *d
	fresh, want, err := resplit(cfg.over(&freshD), states, to, nil)
	if err != nil {
		t.Fatal(err)
	}
	reused, got, err := resplit(cfg.over(&reusedD), states, to, retired)
	if err != nil {
		t.Fatal(err)
	}
	sameStates(t, name, want, got)
	for rank := range fresh {
		if Program(reused[rank]) != used[rank] {
			t.Fatalf("%s: rank %d is not the retired Program", name, rank)
		}
		sameSolver(t, fmt.Sprintf("%s rank %d", name, rank), fresh[rank], reused[rank])
	}
}

// TestRestoreStateRefusesMisfits: a dump without one of the method's
// fields, or with one of the wrong length, is refused before the Program
// changes, and the Program still takes a dump that fits.
func TestRestoreStateRefusesMisfits(t *testing.T) {
	cfg := resizeCfg2D(t, MethodLB, 1, 1)
	var twins []Program
	for range 2 {
		p, err := cfg.NewProgram(0)
		if err != nil {
			t.Fatal(err)
		}
		stepLockstep([]Program{p}, 3)
		twins = append(twins, p)
	}
	p, q := twins[0], twins[1]
	for name, edit := range map[string]func(st *dump.State){
		"missing f3": func(st *dump.State) { delete(st.Fields, "f3") },
		"short rho":  func(st *dump.State) { st.Fields["rho"] = st.Fields["rho"][1:] },
		"method":     func(st *dump.State) { st.Method = "fd2d" },
		"geometry":   func(st *dump.State) { st.NX++ },
	} {
		st := p.DumpState(3, 0)
		edit(st)
		if err := p.RestoreState(st); err == nil {
			t.Errorf("%s: restore accepted", name)
		}
		sameSolver(t, name+": the refused restore changed the Program", q, p)
	}
	if err := p.RestoreState(q.DumpState(3, 0)); err != nil {
		t.Fatal(err)
	}
}

// countedConfig2D is a Config2D that counts the Programs its geometry
// builds; a job over it says how many ranks it rebuilt from scratch.
type countedConfig2D struct {
	*Config2D
	built *atomic.Int64
}

func (c countedConfig2D) geometry(rank int) (*Program2D, error) {
	c.built.Add(1)
	return c.Config2D.geometry(rank)
}

// over keeps the count on the decomposition a resize builds for.
func (c countedConfig2D) over(d *decomp.Decomp) setup[*Program2D] {
	return countedConfig2D{c.Config2D.over(d).(*Config2D), c.built}
}

func gatherCounted(c countedConfig2D, progs []*Program2D, steps int) *Result2D {
	return Gather2D(c.Config2D, progs, steps)
}

// TestMigrationRebuildsNothing is TestSnapshotRebuildsNothing's twin for
// the operations that do stop ranks. A migration and a suspend+resume
// restore every stopped rank into the Program it came from: the live
// Programs are the same pointers, geometry runs zero times, and the run
// ends in the sequential reference's bits. A resize changes the boxes, so
// its ranks are fresh Programs, one geometry each.
func TestMigrationRebuildsNothing(t *testing.T) {
	const steps = 40
	for _, method := range []string{MethodLB, MethodFD} {
		t.Run(method, func(t *testing.T) {
			ref, _, err := RunSequential2D(resizeCfg2D(t, method, 2, 2), steps)
			if err != nil {
				t.Fatal(err)
			}
			var built atomic.Int64
			cfg := countedConfig2D{resizeCfg2D(t, method, 2, 2), &built}
			sf, err := syncfile.New(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			hold := newStepHold(7, 14, 21)
			j, jp, err := newJob(cfg, gatherCounted, hold.over(HubFactory()), sf, steps)
			if err != nil {
				t.Fatal(err)
			}
			j.waitTimeout = 30 * time.Second
			live := slices.Clone(jp.progs)
			same := func(what string) {
				t.Helper()
				if n := built.Load(); n != int64(len(live)) {
					t.Errorf("%s: geometry ran %d times after NewJob, want 0", what, n-int64(len(live)))
				}
				for rank, p := range live {
					if jp.progs[rank] != p || j.workers[rank].Prog != Program(p) {
						t.Errorf("%s: rank %d has a new Program", what, rank)
					}
				}
			}
			j.Start()

			hold.wait(j)
			moved := j.workers[1]
			if err := j.MigrateRanks([]int{1}, nil); err != nil {
				t.Fatal(err)
			}
			if j.workers[1] == moved {
				t.Error("migration kept the rank's worker")
			}
			same("migration")

			hold.wait(j)
			states, err := j.Suspend()
			if err != nil {
				t.Fatal(err)
			}
			if err := j.Resume(states); err != nil {
				t.Fatal(err)
			}
			same("suspend and resume")

			hold.wait(j)
			if err := j.Resize(decomp.UniformShape(3, 2, 0, 24, 16, 0)); err != nil {
				t.Fatal(err)
			}
			if n := built.Load() - int64(len(live)); n != 6 {
				t.Errorf("resize to 6 ranks ran geometry %d times, want 6", n)
			}
			for rank, p := range jp.progs {
				if slices.Contains(live, p) {
					t.Errorf("resize: rank %d kept an old Program", rank)
				}
			}
			if err := j.WaitDone(); err != nil {
				t.Fatal(err)
			}
			j.Shutdown()
			if ok, x, y, d := resultsEqual(ref, jp.Gather(steps), 0); !ok {
				t.Errorf("run differs from the reference at (%d,%d) by %g", x, y, d)
			}
		})
	}
}

// TestReplacedWorkersLeakNothing: every worker a migration, a resume or a
// resize replaces is shut down, so a compute loop still holding there
// ends, and with it its hold on the rank's Program.
func TestReplacedWorkersLeakNothing(t *testing.T) {
	const steps = 30
	j, _ := startJob2D(t, resizeCfg2D(t, MethodLB, 2, 2), steps)
	ended := func(what string, w *Worker) {
		t.Helper()
		bound := time.After(5 * time.Second)
		for {
			select {
			case _, open := <-w.wake: // closed by Shutdown
				if !open {
					return
				}
			case <-bound:
				t.Errorf("%s: the replaced worker was not shut down", what)
				return
			}
		}
	}
	old := j.workers[2]
	if err := j.MigrateRanks([]int{2}, nil); err != nil {
		t.Fatal(err)
	}
	ended("migration", old)

	olds := []*Worker{j.workers[0], j.workers[1], j.workers[2], j.workers[3]}
	states, err := j.Suspend()
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Resume(states); err != nil {
		t.Fatal(err)
	}
	for _, w := range olds {
		ended("suspend and resume", w)
	}

	olds = []*Worker{j.workers[0], j.workers[1], j.workers[2], j.workers[3]}
	if err := j.Resize(decomp.UniformShape(3, 2, 0, 24, 16, 0)); err != nil {
		t.Fatal(err)
	}
	for _, w := range olds {
		ended("resize", w)
	}
	if err := j.WaitDone(); err != nil {
		t.Fatal(err)
	}
	j.Shutdown()
}

// transportLog opens TCP transports through open and keeps every one, so
// a test can count those still open. The rank and epoch in refuse fail to
// open ({-1, -1}: none).
type transportLog struct {
	open   TransportFactory
	refuse [2]int

	mu   sync.Mutex
	made []*closeMark
}

// closeMark records whether its transport was closed.
type closeMark struct {
	msg.Transport
	epoch  int
	closed atomic.Bool
}

func (c *closeMark) Close() error {
	c.closed.Store(true)
	return c.Transport.Close()
}

func (l *transportLog) factory(rank, epoch int) (msg.Transport, error) {
	if rank == l.refuse[0] && epoch == l.refuse[1] {
		return nil, fmt.Errorf("rank %d epoch %d refused", rank, epoch)
	}
	tr, err := l.open(rank, epoch)
	if err != nil {
		return nil, err
	}
	m := &closeMark{Transport: tr, epoch: epoch}
	l.mu.Lock()
	l.made = append(l.made, m)
	l.mu.Unlock()
	return m, nil
}

// leftOpen fails the test if a transport of the epoch is still open.
func (l *transportLog) leftOpen(t *testing.T, what string, epoch int) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, m := range l.made {
		if m.epoch == epoch && !m.closed.Load() {
			n++
		}
	}
	if n > 0 {
		t.Errorf("%s: %d transports of epoch %d left open", what, n, epoch)
	}
}

// TestDroppedWorkersLeakNoTransport: a Job closes the transport of every
// worker it drops before that worker ran: the ranks already made when a
// later rank cannot open its channels, at NewJob and at a relaunch, and the
// epoch-0 workers of a job resumed before it started (a farm job restored
// from a checkpoint, fluidsim run). Over TCP an open transport is also an
// accept loop, which the package's leak check finds.
func TestDroppedWorkersLeakNoTransport(t *testing.T) {
	const steps = 20
	newSync := func() *syncfile.Sync {
		sf, err := syncfile.New(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return sf
	}
	t.Run("factory fails", func(t *testing.T) {
		l := &transportLog{open: tcpFactory(t), refuse: [2]int{3, 0}}
		if _, _, err := NewJob2D(resizeCfg2D(t, MethodLB, 2, 2), l.factory, newSync(), steps); err == nil {
			t.Fatal("NewJob2D with rank 3 refused: no error")
		}
		l.leftOpen(t, "NewJob2D", 0)
	})
	t.Run("launch fails", func(t *testing.T) {
		l := &transportLog{open: tcpFactory(t), refuse: [2]int{3, 1}}
		j, _, err := NewJob2D(resizeCfg2D(t, MethodLB, 2, 2), l.factory, newSync(), steps)
		if err != nil {
			t.Fatal(err)
		}
		j.Start()
		states, err := j.Suspend()
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Resume(states); err == nil {
			t.Fatal("Resume with rank 3 refused: no error")
		}
		l.leftOpen(t, "Resume", 0)
		l.leftOpen(t, "Resume", 1)
	})
	t.Run("resume before start", func(t *testing.T) {
		cfg := resizeCfg2D(t, MethodLB, 2, 2)
		ref, _, err := RunSequential2D(cfg, steps)
		if err != nil {
			t.Fatal(err)
		}
		states, err := Decompose2D(cfg)
		if err != nil {
			t.Fatal(err)
		}
		l := &transportLog{open: tcpFactory(t), refuse: [2]int{-1, -1}}
		j, jp, err := NewJob2D(cfg, l.factory, newSync(), steps)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Resume(states); err != nil {
			t.Fatal(err)
		}
		l.leftOpen(t, "Resume", 0)
		if err := j.WaitDone(); err != nil {
			t.Fatal(err)
		}
		j.Shutdown()
		if ok, x, y, d := resultsEqual(ref, jp.Gather(steps), 0); !ok {
			t.Errorf("resumed job differs from the reference at (%d,%d) by %g", x, y, d)
		}
	})
}

// TestShutdownIsIdempotent: Suspend has already retired every worker's
// control plane, so a Shutdown after it — or a second Shutdown — does
// nothing, where it used to close a closed channel.
func TestShutdownIsIdempotent(t *testing.T) {
	j, _ := startJob2D(t, resizeCfg2D(t, MethodFD, 2, 1), 20)
	if _, err := j.Suspend(); err != nil {
		t.Fatal(err)
	}
	j.Shutdown()
	j.Shutdown()
}
