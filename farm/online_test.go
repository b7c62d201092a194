package farm

import (
	"context"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/fluid"
	"repro/internal/syncfile"
)

// TestReclaimMigratesBitIdentical is the farm's acceptance
// scenario and section 5.1's migration end to end: a real 2D LB simulation
// runs on four hosts, a regular user comes back to one of them mid-run,
// and the farm migrates the displaced rank to a fresh host within the next
// scheduling round — repricing the job — while the finished solution stays
// bitwise identical to an undisturbed run (the suspend_test.go
// identity-check pattern, applied to the farm-driven partial migration).
// The user comes back two ways: through the Reclaim event, and by starting
// a full-time job that the farm's clock lets push the host's five-minute
// load past 1.5.
func TestReclaimMigratesBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		name     string
		disturb  func(c *cluster.Cluster, h *cluster.Host)
		reclaims int
	}{
		{"reclaim", (*cluster.Cluster).Reclaim, 1},
		{"load", func(_ *cluster.Cluster, h *cluster.Host) { h.StartJob() }, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			busy := reclaimMidRun(t, tc.disturb, tc.reclaims)
			if busy.Assigned() >= 0 {
				t.Errorf("farm still squats on %s beside its user", busy.Name)
			}
		})
	}
}

// reclaimMidRun runs the acceptance scenario with one disturbance of a
// sim host at five virtual minutes, checks the farm's counts and the bits,
// and returns the disturbed host.
func reclaimMidRun(t *testing.T, disturb func(*cluster.Cluster, *cluster.Host), reclaims int) *cluster.Host {
	t.Helper()
	const steps = 40
	mkCfg := func() *core.Config2D {
		d, err := decomp.New2D(2, 2, 24, 16, decomp.Full)
		if err != nil {
			t.Fatal(err)
		}
		d.PeriodicX = true
		par := fluid.DefaultParams()
		par.Nu = 0.1
		par.Eps = 0.01
		par.ForceX = 1e-5
		return &core.Config2D{
			Method: core.MethodLB,
			Par:    par,
			Mask:   fluid.ChannelMask2D(24, 16),
			D:      d,
		}
	}
	ref, _, err := core.RunSequential2D(mkCfg(), steps)
	if err != nil {
		t.Fatal(err)
	}

	sf, err := syncfile.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	job, progs, err := core.NewJob2D(mkCfg(), core.HubFactory(), sf, steps)
	if err != nil {
		t.Fatal(err)
	}

	s := newFarm(idlePool(), FIFO, 42)
	// Side inflates the virtual workload so the disturbance lands mid-run
	// on the scheduler's clock.
	_, err = s.Submit(JobSpec{
		ID: "sim", Method: "lb2d", JX: 2, JY: 2, Side: 1000, Steps: steps,
	}, &CoreWorkload{Job: job})
	if err != nil {
		t.Fatal(err)
	}
	// Five virtual minutes in, a user sits down at one of the sim's
	// workstations.
	var busy *cluster.Host
	s.scenarioEvery = time.Minute
	s.scenario = func(vt time.Duration, c *cluster.Cluster) {
		if vt < 5*time.Minute || busy != nil {
			return
		}
		for _, h := range c.Hosts {
			if h.Owner() == "sim" {
				busy = h
				disturb(c, h)
				return
			}
		}
	}
	s.Drain()
	sum, err := s.loop(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	if busy == nil {
		t.Fatal("scenario never fired; the sim finished before 5 virtual minutes")
	}
	if sum.Reclaims != reclaims {
		t.Errorf("reclaims = %d, want %d", sum.Reclaims, reclaims)
	}
	sim := jobByID(t, sum, "sim")
	if sim.Migrations != 1 {
		t.Errorf("sim migrations = %d, want 1 (one displaced rank)", sim.Migrations)
	}
	if sim.Repricings != 1 {
		t.Errorf("sim repricings = %d, want 1", sim.Repricings)
	}
	if sim.Preemptions != 0 {
		t.Errorf("sim preemptions = %d, want 0 (migration, not suspension)", sim.Preemptions)
	}
	if job.Epoch() != 1 {
		t.Errorf("core job at epoch %d, want 1 (one migration round)", job.Epoch())
	}

	got := progs.Gather(steps)
	for i := range ref.Rho {
		if ref.Rho[i] != got.Rho[i] || ref.Vx[i] != got.Vx[i] || ref.Vy[i] != got.Vy[i] {
			t.Fatalf("migrated simulation differs from reference at node %d", i)
		}
	}
	return busy
}

// TestReclaimFallsBackToSuspend: when no replacement host is reservable
// the farm must not squat beside the returned user — the whole job
// checkpoints off the pool and requeues until capacity returns.
func TestReclaimFallsBackToSuspend(t *testing.T) {
	pool := idlePool()
	s := newFarm(pool, FIFO, 7)
	// The victim holds 4 hosts, the filler the other 21: zero spare.
	_, err := s.Submit(JobSpec{
		ID: "victim", Method: "lb2d", JX: 2, JY: 2, Side: 200, Steps: 2000,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Submit(JobSpec{
		ID: "filler", Method: "lb2d", JX: 7, JY: 3, Side: 200, Steps: 1000,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	reclaimed := false
	s.scenarioEvery = time.Minute
	s.scenario = func(vt time.Duration, c *cluster.Cluster) {
		if vt < 2*time.Minute || reclaimed {
			return
		}
		for _, h := range c.Hosts {
			if h.Owner() == "victim" {
				c.Reclaim(h)
				reclaimed = true
				return
			}
		}
	}
	s.Drain()
	sum, err := s.loop(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reclaimed {
		t.Fatal("scenario never fired")
	}
	victim := jobByID(t, sum, "victim")
	if victim.Preemptions != 1 {
		t.Errorf("victim preemptions = %d, want 1 (suspension fallback)", victim.Preemptions)
	}
	if victim.Migrations != 0 {
		t.Errorf("victim migrations = %d, want 0 (no replacement capacity)", victim.Migrations)
	}
	if len(sum.Jobs) != 2 {
		t.Errorf("%d jobs finished, want 2", len(sum.Jobs))
	}
}

// TestEASYBoundsHeadWait: a steady stream of 12-rank jobs starves a
// 25-rank head under aggressive backfill, while EASY's virtual-finish
// reservation starts the head as soon as the first small job completes.
func TestEASYBoundsHeadWait(t *testing.T) {
	specs := []JobSpec{
		{ID: "head-wide", Method: "lb2d", JX: 5, JY: 5, Side: 40, Steps: 3000,
			Submit: time.Minute},
	}
	for k := 0; k < 8; k++ {
		specs = append(specs, JobSpec{
			ID: string(rune('a'+k)) + "-small", Method: "lb2d", JX: 4, JY: 3,
			Side: 40, Steps: 15000, Submit: time.Duration(k) * 5 * time.Minute,
		})
	}
	run := func(mode BackfillMode) Summary {
		t.Helper()
		s := newFarm(idlePool(), FIFO, 3)
		s.backfill = mode
		for _, sp := range specs {
			if _, err := s.Submit(sp, nil); err != nil {
				t.Fatal(err)
			}
		}
		s.Drain()
		sum, err := s.loop(context.Background())
		if err != nil {
			t.Fatalf("backfill %v: %v", mode, err)
		}
		if len(sum.Jobs) != len(specs) {
			t.Fatalf("backfill %v: %d jobs finished, want %d", mode, len(sum.Jobs), len(specs))
		}
		return sum
	}

	easy := jobByID(t, run(BackfillEASY), "head-wide").Wait()
	agg := jobByID(t, run(BackfillAggressive), "head-wide").Wait()

	// EASY: the head starts when the first small job's hosts return,
	// i.e. within that job's ~11-13 virtual minutes.
	if easy > 15*time.Minute {
		t.Errorf("EASY head wait = %v, want under 15m (one small-job runtime)", easy)
	}
	// Aggressive: every later small job jumps the head; the stream holds
	// the pool until it dries up.
	if agg <= 2*easy {
		t.Errorf("aggressive head wait %v not much worse than EASY %v — starvation scenario broken", agg, easy)
	}
}
