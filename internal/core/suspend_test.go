package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/dump"
)

// TestSuspendResumePreservesSolution checkpoints a whole running job
// through the migration dump path, restarts it, and checks the final
// solution is bitwise identical to an uninterrupted run — the guarantee a
// farm scheduler's preemption relies on.
func TestSuspendResumePreservesSolution(t *testing.T) {
	const steps = 40
	ref, _, err := RunSequential2D(channelConfig(t, MethodLB, 2, 2, 24, 16), steps)
	if err != nil {
		t.Fatal(err)
	}

	cfg := channelConfig(t, MethodLB, 2, 2, 24, 16)
	j, jp := newTestJob(t, cfg, steps)
	j.Start()
	time.Sleep(15 * time.Millisecond)

	states, err := j.Suspend()
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 4 {
		t.Fatalf("suspend returned %d states, want 4", len(states))
	}
	for rank, st := range states {
		if st.Rank != rank {
			t.Errorf("state %d has rank %d, want sorted by rank", rank, st.Rank)
		}
	}

	// While suspended nothing runs; the pool could be handed to another
	// job here. Resume and finish.
	if err := j.Resume(states); err != nil {
		t.Fatal(err)
	}
	if err := j.WaitDone(); err != nil {
		t.Fatal(err)
	}
	j.Shutdown()

	got := jp.Gather(steps)
	if ok, x, y, d := resultsEqual(ref, got, 0); !ok {
		t.Errorf("suspended run differs from reference at (%d,%d) by %g", x, y, d)
	}
	if j.Epoch() != 1 {
		t.Errorf("epoch = %d, want 1 after one suspend/resume", j.Epoch())
	}
}

// TestResumeRefusesMixedSteps: a dump set with one rank a step ahead — what
// a rank-by-rank save killed part-way leaves behind — is refused up front
// with dump.ErrMixedSteps and nothing changed, instead of starting workers
// of which the one behind waits for a message its neighbour will never
// send (the job then dies a WaitTimeout later as ErrWorkerSilent). The job
// still resumes from the consistent set and ends in the reference's bits.
func TestResumeRefusesMixedSteps(t *testing.T) {
	const steps = 40
	ref, _, err := RunSequential2D(channelConfig(t, MethodLB, 2, 2, 24, 16), steps)
	if err != nil {
		t.Fatal(err)
	}
	j, jp := newTestJob(t, channelConfig(t, MethodLB, 2, 2, 24, 16), steps)
	j.WaitTimeout = 2 * time.Second // what an accepted mixed set costs to find out
	j.Start()
	states, err := j.Suspend()
	if err != nil {
		t.Fatal(err)
	}
	ahead := *states[2]
	ahead.Step++
	mixed := []*dump.State{states[0], states[1], &ahead, states[3]}
	if err := j.Resume(mixed); !errors.Is(err, dump.ErrMixedSteps) {
		if err == nil {
			err = j.WaitDone()
		}
		t.Fatalf("resume from mixed steps: %v, want dump.ErrMixedSteps", err)
	}
	if j.Epoch() != 0 {
		t.Errorf("epoch = %d after the refused resume, want 0", j.Epoch())
	}
	if err := j.Resume(states); err != nil {
		t.Fatal(err)
	}
	if err := j.WaitDone(); err != nil {
		t.Fatal(err)
	}
	j.Shutdown()
	if ok, x, y, d := resultsEqual(ref, jp.Gather(steps), 0); !ok {
		t.Errorf("run differs from reference at (%d,%d) by %g", x, y, d)
	}
}

// TestSnapshotKeepsRunning checkpoints a running job without evicting it:
// Snapshot returns states frozen at the save point while the job
// continues to completion, bit-identical to an uninterrupted run — and a
// second job rebuilt from the snapshot finishes with the same bits too.
// This is the farm coordinator's durability primitive: persist a running
// job's state without giving up its hosts.
func TestSnapshotKeepsRunning(t *testing.T) {
	const steps = 40
	ref, _, err := RunSequential2D(channelConfig(t, MethodLB, 2, 2, 24, 16), steps)
	if err != nil {
		t.Fatal(err)
	}

	cfg := channelConfig(t, MethodLB, 2, 2, 24, 16)
	j, jp := newTestJob(t, cfg, steps)
	j.Start()
	time.Sleep(15 * time.Millisecond)

	states, err := j.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 4 {
		t.Fatalf("snapshot returned %d states, want 4", len(states))
	}
	savedSteps := make([]int, len(states))
	for rank, st := range states {
		if st.Rank != rank {
			t.Errorf("state %d has rank %d, want sorted by rank", rank, st.Rank)
		}
		savedSteps[rank] = st.Step
	}

	// The job kept its workers: it must finish on its own, undisturbed.
	if err := j.WaitDone(); err != nil {
		t.Fatal(err)
	}
	j.Shutdown()
	got := jp.Gather(steps)
	if ok, x, y, d := resultsEqual(ref, got, 0); !ok {
		t.Errorf("snapshotted run differs from reference at (%d,%d) by %g", x, y, d)
	}

	// The returned states stayed frozen at the save point even though the
	// job ran past it.
	for rank, st := range states {
		if st.Step != savedSteps[rank] {
			t.Errorf("rank %d snapshot advanced from step %d to %d", rank, savedSteps[rank], st.Step)
		}
	}

	// A fresh job restored from the snapshot finishes bit-identically —
	// the coordinator-crash restore path.
	cfg2 := channelConfig(t, MethodLB, 2, 2, 24, 16)
	j2, jp2 := newTestJob(t, cfg2, steps)
	if err := j2.Resume(states); err != nil {
		t.Fatal(err)
	}
	if err := j2.WaitDone(); err != nil {
		t.Fatal(err)
	}
	j2.Shutdown()
	got2 := jp2.Gather(steps)
	if ok, x, y, d := resultsEqual(ref, got2, 0); !ok {
		t.Errorf("restored run differs from reference at (%d,%d) by %g", x, y, d)
	}
}

// TestSuspendTwice exercises repeated preemption of the same job.
func TestSuspendTwice(t *testing.T) {
	const steps = 30
	ref, _, err := RunSequential2D(channelConfig(t, MethodFD, 2, 1, 16, 8), steps)
	if err != nil {
		t.Fatal(err)
	}
	cfg := channelConfig(t, MethodFD, 2, 1, 16, 8)
	j, jp := newTestJob(t, cfg, steps)
	j.Start()
	for i := 0; i < 2; i++ {
		time.Sleep(5 * time.Millisecond)
		states, err := j.Suspend()
		if err != nil {
			t.Fatalf("suspend %d: %v", i, err)
		}
		if err := j.Resume(states); err != nil {
			t.Fatalf("resume %d: %v", i, err)
		}
	}
	if err := j.WaitDone(); err != nil {
		t.Fatal(err)
	}
	j.Shutdown()
	got := jp.Gather(steps)
	if ok, x, y, d := resultsEqual(ref, got, 0); !ok {
		t.Errorf("twice-suspended run differs at (%d,%d) by %g", x, y, d)
	}
}

// TestSuspendAfterCompletion: suspending a job whose workers already
// finished still dumps a complete, restartable checkpoint.
func TestSuspendAfterCompletion(t *testing.T) {
	const steps = 5
	cfg := channelConfig(t, MethodLB, 2, 1, 16, 8)
	ref, _, err := RunSequential2D(channelConfig(t, MethodLB, 2, 1, 16, 8), steps)
	if err != nil {
		t.Fatal(err)
	}
	j, jp := newTestJob(t, cfg, steps)
	j.Start()
	if err := j.WaitDone(); err != nil {
		t.Fatal(err)
	}
	states, err := j.Suspend()
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range states {
		if st.Step != steps {
			t.Errorf("rank %d dumped at step %d, want %d", st.Rank, st.Step, steps)
		}
	}
	if err := j.Resume(states); err != nil {
		t.Fatal(err)
	}
	if err := j.WaitDone(); err != nil {
		t.Fatal(err)
	}
	j.Shutdown()
	got := jp.Gather(steps)
	if ok, x, y, d := resultsEqual(ref, got, 0); !ok {
		t.Errorf("post-completion suspend corrupted state at (%d,%d) by %g", x, y, d)
	}
}

// TestPlaceOnAndRelease: an external scheduler's reservation flows into
// the job's host bookkeeping and back out.
func TestPlaceOnAndRelease(t *testing.T) {
	cfg := channelConfig(t, MethodLB, 2, 1, 16, 8)
	j, _ := newTestJob(t, cfg, 3)
	cl := cluster.NewPaperCluster()
	cl.Advance(30 * time.Minute)
	res, err := cl.Reserve("job-a", j.P(), cluster.DefaultPolicy(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.PlaceOn(cl, res.Hosts); err != nil {
		t.Fatal(err)
	}
	for rank := 0; rank < j.P(); rank++ {
		h := j.HostOf(rank)
		if h == nil || h.Assigned() != rank {
			t.Fatalf("rank %d not placed: %v", rank, h)
		}
	}
	j.ReleaseHosts()
	if j.HostOf(0) != nil {
		t.Error("ReleaseHosts kept the placement")
	}
	if res.Hosts[0].Assigned() != -1 {
		t.Error("ReleaseHosts left the host assigned")
	}
	res.Release() // idempotent after the job released its hosts
	j.Start()
	if err := j.WaitDone(); err != nil {
		t.Fatal(err)
	}
	j.Shutdown()
}
