package core

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/lbm"
)

// TestWorkerBudget: the Workers knob wins when set; otherwise each rank
// gets an even share of GOMAXPROCS, at least 1.
func TestWorkerBudget(t *testing.T) {
	gmp := runtime.GOMAXPROCS(0)
	for _, c := range []struct{ workers, ranks, want int }{
		{0, 1, gmp},
		{0, 10 * gmp, 1},
		{0, 0, gmp},
		{3, 10 * gmp, 3},
	} {
		if got := workerBudget(c.workers, c.ranks); got != c.want {
			t.Errorf("workerBudget(%d, %d) = %d, want %d", c.workers, c.ranks, got, c.want)
		}
	}
}

// TestWorkerBudgetBitIdenticalThroughLifecycle is the tentpole identity
// check at the job level: the same problem run at different intra-rank
// worker budgets — with a mid-run migration and a suspend/resume round
// trip thrown in — must produce bitwise identical solutions. Parallel
// slabs, the migration dump path, and the checkpoint rebuild all promise
// exact reproducibility; this test holds them to it simultaneously.
func TestWorkerBudgetBitIdenticalThroughLifecycle(t *testing.T) {
	const steps = 40
	ref, _, err := RunSequential2D(channelConfig(t, MethodLB, 2, 2, 24, 16), steps)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 3, 7} {
		cfg := channelConfig(t, MethodLB, 2, 2, 24, 16)
		cfg.Workers = workers
		hold := newStepHold(10, 25)
		j, jp := newTestJobOver(t, cfg, steps, hold.over(HubFactory()))
		j.Start()

		at := hold.wait(j)
		dumps, err := migrated(j, 2)
		if err != nil {
			t.Fatalf("workers=%d: migrate: %v", workers, err)
		}
		midRun(t, fmt.Sprintf("workers=%d: migrate", workers), dumps, at, steps)
		at = hold.wait(j)
		states, err := j.Suspend()
		if err != nil {
			t.Fatalf("workers=%d: suspend: %v", workers, err)
		}
		midRun(t, fmt.Sprintf("workers=%d: suspend", workers), states, at, steps)
		if err := j.Resume(states); err != nil {
			t.Fatalf("workers=%d: resume: %v", workers, err)
		}
		if err := j.WaitDone(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		j.Shutdown()

		got := jp.Gather(steps)
		if ok, x, y, d := resultsEqual(ref, got, 0); !ok {
			t.Errorf("workers=%d differs from serial reference at (%d,%d) by %g",
				workers, x, y, d)
		}
	}
}

// solverWorkers reads the live per-rank budgets off the job's programs.
func solverWorkers(t *testing.T, jp *JobPrograms2D) map[int]int {
	t.Helper()
	out := map[int]int{}
	for rank, p := range jp.progs {
		s, ok := p.M.(*lbm.Solver2D)
		if !ok {
			t.Fatalf("rank %d: method %T is not *lbm.Solver2D", rank, p.M)
		}
		out[rank] = s.Workers
	}
	return out
}

// TestSetWorkersSurvivesRebuilds: the config's worker budget must be set
// on every solver the migration and resume rebuild paths construct, not
// only on the ones NewJob2D built.
func TestSetWorkersSurvivesRebuilds(t *testing.T) {
	const steps = 60
	cfg := channelConfig(t, MethodLB, 2, 2, 24, 16)
	cfg.Workers = 5
	hold := newStepHold(10, 30)
	j, jp := newTestJobOver(t, cfg, steps, hold.over(HubFactory()))
	j.Start()

	at := hold.wait(j)
	dumps, err := migrated(j, 1)
	if err != nil {
		t.Fatal(err)
	}
	midRun(t, "migrate", dumps, at, steps)
	for rank, w := range solverWorkers(t, jp) {
		if w != 5 {
			t.Errorf("after migrate: rank %d workers = %d, want 5", rank, w)
		}
	}

	at = hold.wait(j)
	states, err := j.Suspend()
	if err != nil {
		t.Fatal(err)
	}
	midRun(t, "suspend", states, at, steps)
	if err := j.Resume(states); err != nil {
		t.Fatal(err)
	}
	for rank, w := range solverWorkers(t, jp) {
		if w != 5 {
			t.Errorf("after resume: rank %d workers = %d, want 5", rank, w)
		}
	}
	if err := j.WaitDone(); err != nil {
		t.Fatal(err)
	}
	j.Shutdown()
}
