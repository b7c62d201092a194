package farm

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
)

// TestProjectedStartPerHostAvailability: the EASY shadow walk must count
// a finishing job's hosts individually — a host reclaimed by its regular
// user mid-run, or one whose user load sits above the selection
// threshold, does not come back reservable at the job's finish and must
// not inflate the head's projected start.
func TestProjectedStartPerHostAvailability(t *testing.T) {
	head := &jobState{spec: JobSpec{ID: "head", Method: "lb2d", JX: 5, JY: 5, Side: 40, Steps: 100}}

	place := func(t *testing.T) (*Farm, *cluster.Cluster, *jobState) {
		t.Helper()
		pool := idlePool()
		s := newFarm(pool, FIFO, 5)
		if _, err := s.Submit(JobSpec{
			ID: "runner", Method: "lb2d", JX: 5, JY: 4, Side: 200, Steps: 5000,
		}, nil); err != nil {
			t.Fatal(err)
		}
		s.admit(0)
		if err := s.scheduleRound(0); err != nil {
			t.Fatal(err)
		}
		if len(s.running) != 1 {
			t.Fatalf("runner not placed")
		}
		return s, pool, s.running[0]
	}

	// Baseline: 5 free + the runner's 20 hosts cover the 25-rank head at
	// the runner's virtual finish.
	s, pool, runner := place(t)
	if got := s.projectedStart(head); got != runner.FinishAt {
		t.Fatalf("projected start = %v, want the runner's finish %v", got, runner.FinishAt)
	}

	// A regular user reclaims one of the runner's hosts: that host will
	// not return to the pool when the runner finishes, so the head's
	// start is no longer computable from completions alone.
	pool.Reclaim(runner.res.Hosts[3])
	if got := s.projectedStart(head); got != -1 {
		t.Errorf("projected start = %v after a reclaim, want -1 (24 < 25 hosts)", got)
	}

	// Same through the load path: a user process pushes a held host's
	// user-attributable load past the selection threshold without any
	// reclaim event.
	s, pool, runner = place(t)
	runner.res.Hosts[7].StartJob()
	pool.Advance(30 * time.Minute) // load averages climb past 0.6
	if got := s.projectedStart(head); got != -1 {
		t.Errorf("projected start = %v with a user-busy held host, want -1", got)
	}
}

// TestEASYDegradeExplicitFallback: when the head's projected start is
// incomputable EASY falls back to aggressive backfill — but explicitly:
// the degrade is counted in the metrics summary and announced as an
// EASYDegraded event, instead of silently eroding the head's protection.
func TestEASYDegradeExplicitFallback(t *testing.T) {
	pool := idlePool()
	s := newFarm(pool, FIFO, 5)
	events := tap(t, s)

	if _, err := s.Submit(JobSpec{
		ID: "a-runner", Method: "lb2d", JX: 5, JY: 4, Side: 200, Steps: 5000,
	}, nil); err != nil {
		t.Fatal(err)
	}
	s.admit(0)
	if err := s.scheduleRound(0); err != nil {
		t.Fatal(err)
	}
	if len(s.running) != 1 {
		t.Fatal("runner not placed")
	}

	// A user sits down at a free workstation: 4 reservable hosts remain,
	// and even the runner's 20 cannot cover the 25-rank head.
	for _, h := range pool.Hosts {
		if h.Assigned() < 0 {
			pool.Reclaim(h)
			break
		}
	}
	if _, err := s.Submit(JobSpec{
		ID: "b-head", Method: "lb2d", JX: 5, JY: 5, Side: 40, Steps: 100,
	}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(JobSpec{
		ID: "c-small", Method: "lb2d", JX: 2, JY: 2, Side: 40, Steps: 15000,
	}, nil); err != nil {
		t.Fatal(err)
	}
	s.admit(0)
	if err := s.scheduleRound(0); err != nil {
		t.Fatal(err)
	}

	var degrades []EASYDegraded
	for _, ev := range events() {
		if d, ok := ev.(EASYDegraded); ok {
			degrades = append(degrades, d)
		}
	}
	if s.easyDegraded != 1 {
		t.Errorf("easyDegraded = %d, want 1", s.easyDegraded)
	}
	if len(degrades) != 1 || degrades[0] != (EASYDegraded{T: 0, Head: "b-head", Ranks: 25}) {
		t.Errorf("degrade not announced: %v", degrades)
	}
	// The fallback is aggressive: the small job runs even though no
	// finish-before-shadow guarantee exists; the head stays queued.
	running := map[string]bool{}
	for _, js := range s.running {
		running[js.spec.ID] = true
	}
	if !running["c-small"] {
		t.Error("small job not backfilled under the explicit aggressive fallback")
	}
	if running["b-head"] || len(s.queue) != 1 || s.queue[0].spec.ID != "b-head" {
		t.Error("head should still be queued")
	}
	if !s.running[len(s.running)-1].Backfilled {
		t.Error("small job not marked backfilled")
	}
}

// stormSpecs is the reclaim-storm workload of the EASY head-wait bound:
// a 20-rank head arrives behind a steady stream of 8-rank jobs while
// users keep taking workstations back.
func stormSpecs() []JobSpec {
	specs := []JobSpec{
		{ID: "head-wide", Method: "lb2d", JX: 5, JY: 4, Side: 40, Steps: 6000,
			Submit: 2 * time.Minute},
	}
	for k := 0; k < 8; k++ {
		specs = append(specs, JobSpec{
			ID:     fmt.Sprintf("small-%d", k),
			Method: "lb2d", JX: 4, JY: 2, Side: 40, Steps: 15000,
			Submit: time.Duration(k) * 5 * time.Minute,
		})
	}
	return specs
}

// TestEASYHeadWaitBoundUnderReclaimStorm is the acceptance scenario for
// the corrected shadow walk: with users reclaiming reserved hosts every
// ten virtual minutes, EASY's per-host shadow keeps the wide head's wait
// bounded (it starts within a couple of small-job runtimes) while
// aggressive backfill lets the small-job stream starve it several-fold
// longer. Before the fix, the shadow counted reclaimed hosts as
// returning, so the head's reservation was optimistic and quietly
// stopped protecting it.
func TestEASYHeadWaitBoundUnderReclaimStorm(t *testing.T) {
	run := func(mode BackfillMode) Summary {
		t.Helper()
		c := cluster.NewPaperCluster()
		c.Advance(30 * time.Minute)
		s := newFarm(c, FIFO, 1)
		s.backfill = mode
		reclaimAt := make(map[*cluster.Host]time.Duration)
		s.scenarioEvery = time.Minute
		s.scenario = func(vt time.Duration, c *cluster.Cluster) {
			for h, at := range reclaimAt {
				if at >= 0 && vt-at >= 30*time.Minute {
					c.UserGone(h)
					reclaimAt[h] = -1
				}
			}
			if vt%(10*time.Minute) != 0 {
				return
			}
			for _, h := range c.Hosts {
				if h.Assigned() >= 0 && !h.Reclaimed() {
					c.Reclaim(h)
					reclaimAt[h] = vt
					return
				}
			}
		}
		for _, sp := range stormSpecs() {
			if _, err := s.Submit(sp, nil); err != nil {
				t.Fatal(err)
			}
		}
		s.Drain()
		sum, err := s.loop(context.Background())
		if err != nil {
			t.Fatalf("backfill %v: %v", mode, err)
		}
		if len(sum.Jobs) != 9 {
			t.Fatalf("backfill %v: %d jobs finished, want 9", mode, len(sum.Jobs))
		}
		if sum.Reclaims == 0 {
			t.Fatalf("backfill %v: storm never reclaimed a host", mode)
		}
		return sum
	}

	easySum := run(BackfillEASY)
	easy := jobByID(t, easySum, "head-wide").Wait()
	agg := jobByID(t, run(BackfillAggressive), "head-wide").Wait()

	// The head needs 20 of 25 hosts while the storm keeps a few
	// reclaimed: EASY's sound reservation starts it within a couple of
	// small-job runtimes (~12 minutes each).
	if easy > 30*time.Minute {
		t.Errorf("EASY head wait = %v under the storm, want under 30m", easy)
	}
	if agg <= 2*easy {
		t.Errorf("aggressive head wait %v not much worse than EASY %v — starvation scenario broken", agg, easy)
	}
}
