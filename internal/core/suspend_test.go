package core

import (
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/dump"
	"repro/internal/syncfile"
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
	hold := newStepHold(12)
	j, jp := newTestJobOver(t, cfg, steps, hold.over(HubFactory()))
	j.Start()
	at := hold.wait(j)

	states, err := j.Suspend()
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 4 {
		t.Fatalf("suspend returned %d states, want 4", len(states))
	}
	midRun(t, "suspend", states, at, steps)
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
// send (the job then dies a wait timeout later as ErrWorkerSilent). The job
// still resumes from the consistent set and ends in the reference's bits.
func TestResumeRefusesMixedSteps(t *testing.T) {
	const steps = 40
	ref, _, err := RunSequential2D(channelConfig(t, MethodLB, 2, 2, 24, 16), steps)
	if err != nil {
		t.Fatal(err)
	}
	j, jp := newTestJob(t, channelConfig(t, MethodLB, 2, 2, 24, 16), steps)
	j.waitTimeout = 2 * time.Second // what an accepted mixed set costs to find out
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

// TestNewJobRefusesNegativeUntil: a job to a step below 0 is refused when
// it is made. A worker clamps its pause step to until, and the negative
// pause steps are its sentinels, so such a job would never pause and a
// suspend would wait out the job's wait timeout.
func TestNewJobRefusesNegativeUntil(t *testing.T) {
	sf, err := syncfile.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if j, _, err := NewJob2D(channelConfig(t, MethodLB, 2, 2, 24, 16), HubFactory(), sf, -1); err == nil {
		j.Shutdown()
		t.Error("NewJob2D accepted until = -1")
	}
	if j, _, err := NewJob3D(periodicConfig3D(t, MethodFD, 2, 1, 1, true, false), HubFactory(), sf, -2); err == nil {
		j.Shutdown()
		t.Error("NewJob3D accepted until = -2")
	}
}

// TestResumeRefusesRankSet: a dump set that is not one dump per rank — a
// rank repeated, or one outside the decomposition — is refused with an
// error naming the rank, before anything is retired, instead of starting
// workers of which some wait for a neighbour that never runs (the job then
// dies a wait timeout later as ErrWorkerSilent, its rank goroutines left
// behind). A set with one dump that does not fit its rank is refused
// before any rank is restored: the suspended states are views of the
// ranks' arrays, so restoring the other dumps first would change them.
// The job stays suspended, and the proper set still ends in the serial
// run's bits.
func TestResumeRefusesRankSet(t *testing.T) {
	const steps = 40
	ref, _, err := RunSequential2D(channelConfig(t, MethodLB, 2, 2, 24, 16), steps)
	if err != nil {
		t.Fatal(err)
	}
	j, jp := newTestJob(t, channelConfig(t, MethodLB, 2, 2, 24, 16), steps)
	j.waitTimeout = 2 * time.Second // what an accepted bad set costs to find out
	j.Start()
	states, err := j.Suspend()
	if err != nil {
		t.Fatal(err)
	}
	outside := *states[3]
	outside.Rank = 4
	for _, c := range []struct {
		name string
		set  []*dump.State
		rank string // what the refusal must name
	}{
		{"repeated", []*dump.State{states[0], states[0], states[2], states[3]}, "rank 0"},
		{"out of range", []*dump.State{states[0], states[1], states[2], &outside}, "rank 4"},
	} {
		err := j.Resume(c.set)
		if err == nil {
			t.Fatalf("resume from a %s rank: accepted, then %v", c.name, j.WaitDone())
		}
		if !strings.Contains(err.Error(), c.rank) {
			t.Errorf("resume from a %s rank: %v, want an error naming %s", c.name, err, c.rank)
		}
		if j.Epoch() != 0 {
			t.Errorf("epoch = %d after the refused %s set, want 0", j.Epoch(), c.name)
		}
	}
	misfit := make([]*dump.State, len(states))
	for i, st := range states {
		c := *st
		c.Fields = make(map[string][]float64, len(st.Fields))
		for name, data := range st.Fields {
			c.Fields[name] = make([]float64, len(data)) // all zero: restored, it would change the bits
		}
		misfit[i] = &c
	}
	misfit[3].NX++
	if err := j.Resume(misfit); err == nil || !strings.Contains(err.Error(), "rank 3") {
		t.Fatalf("resume from a set whose rank 3 does not fit: %v, want an error naming rank 3", err)
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
	hold := newStepHold(12)
	j, jp := newTestJobOver(t, cfg, steps, hold.over(HubFactory()))
	j.Start()
	at := hold.wait(j)

	states, err := j.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 4 {
		t.Fatalf("snapshot returned %d states, want 4", len(states))
	}
	midRun(t, "snapshot", states, at, steps)
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

// TestSnapshotRebuildsNothing: a snapshot is section 5.1's protocol with no
// process moving, so it rebuilds no Program and replaces no worker. Every
// rank keeps its live Program, the epoch advances by one per snapshot, and
// the run still ends in the sequential reference's bits.
func TestSnapshotRebuildsNothing(t *testing.T) {
	const steps = 40
	t.Run("fd2D", func(t *testing.T) {
		ref, _, err := RunSequential2D(channelConfig(t, MethodFD, 2, 2, 24, 16), steps)
		if err != nil {
			t.Fatal(err)
		}
		job, jp := newTestJob(t, channelConfig(t, MethodFD, 2, 2, 24, 16), steps)
		snapshotInPlace(t, job, func(rank int) Program { return jp.progs[rank] })
		if ok, x, y, d := resultsEqual(ref, jp.Gather(steps), 0); !ok {
			t.Errorf("snapshotted run differs from reference at (%d,%d) by %g", x, y, d)
		}
	})
	t.Run("lb3D", func(t *testing.T) {
		ref, _, err := RunSequential3D(resizeCfg3D(t, MethodLB, 2, 2, 1), steps)
		if err != nil {
			t.Fatal(err)
		}
		sf, err := syncfile.New(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		job, jp, err := NewJob3D(resizeCfg3D(t, MethodLB, 2, 2, 1), HubFactory(), sf, steps)
		if err != nil {
			t.Fatal(err)
		}
		snapshotInPlace(t, job, func(rank int) Program { return jp.progs[rank] })
		got := jp.Gather(steps)
		for i := range ref.Rho {
			for _, pair := range [][2][]float64{{ref.Rho, got.Rho}, {ref.Vx, got.Vx}, {ref.Vy, got.Vy}, {ref.Vz, got.Vz}} {
				if math.Float64bits(pair[0][i]) != math.Float64bits(pair[1][i]) {
					t.Fatalf("snapshotted 3D run differs from reference at index %d", i)
				}
			}
		}
	})
}

// snapshotInPlace starts the job, snapshots it twice while it runs, checks
// that nothing was rebuilt or replaced and that the second snapshot came
// back in the first one's arrays, waits for it to finish, and checks that
// the job let go of the snapshot it kept.
func snapshotInPlace(t *testing.T, job *Job, live func(rank int) Program) {
	t.Helper()
	rebuilt := 0
	rebuild := job.rebuild
	job.rebuild = func(states []*dump.State) ([]Program, error) {
		rebuilt += len(states)
		return rebuild(states)
	}
	progs := make([]Program, job.P())
	workers := make([]*Worker, job.P())
	for rank := range progs {
		progs[rank], workers[rank] = live(rank), job.workers[rank]
	}
	job.Start()
	var first []*dump.State
	for k := 0; k < 2; k++ {
		epoch := job.Epoch()
		states, err := job.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if len(states) != job.P() {
			t.Fatalf("snapshot %d returned %d states for %d ranks", k, len(states), job.P())
		}
		if job.Epoch() != epoch+1 {
			t.Errorf("snapshot %d: epoch %d -> %d, want one step", k, epoch, job.Epoch())
		}
		for rank, st := range states {
			for name, data := range st.Fields {
				if k == 1 && &data[0] != &first[rank].Fields[name][0] {
					t.Errorf("rank %d: the second snapshot's %s is a new array", rank, name)
				}
			}
		}
		first = states
	}
	if rebuilt != 0 {
		t.Errorf("two snapshots rebuilt %d Programs, want 0", rebuilt)
	}
	for rank, p := range progs {
		if live(rank) != p || job.workers[rank] != workers[rank] || job.workers[rank].Prog != p {
			t.Errorf("rank %d: the snapshot replaced its live Program or its worker", rank)
		}
	}
	if err := job.WaitDone(); err != nil {
		t.Fatal(err)
	}
	job.Shutdown()
	if job.kept != nil {
		t.Error("the finished job still keeps its last snapshot")
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
	hold := newStepHold(5, 15)
	j, jp := newTestJobOver(t, cfg, steps, hold.over(HubFactory()))
	j.Start()
	for i := 0; i < 2; i++ {
		at := hold.wait(j)
		states, err := j.Suspend()
		if err != nil {
			t.Fatalf("suspend %d: %v", i, err)
		}
		midRun(t, fmt.Sprintf("suspend %d", i), states, at, steps)
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

// TestSuspendFailedRoundReturnsItsCause: a pause round whose shared file
// cannot be written fails Suspend with the file's own error at once, not
// with ErrWorkerSilent after the wait timeout. The round takes its file
// away and releases every hold, so the job runs on to the serial run's
// bits.
func TestSuspendFailedRoundReturnsItsCause(t *testing.T) {
	const steps = 30
	ref, _, err := RunSequential2D(channelConfig(t, MethodLB, 2, 1, 24, 16), steps)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	sf, err := syncfile.New(dir)
	if err != nil {
		t.Fatal(err)
	}
	// A directory where the first round's file goes: Announce cannot
	// open it for appending.
	round := filepath.Join(dir, "sync-000001")
	if err := os.Mkdir(round, 0o755); err != nil {
		t.Fatal(err)
	}
	hold := newStepHold(10)
	j, jp, err := NewJob2D(channelConfig(t, MethodLB, 2, 1, 24, 16), hold.over(HubFactory()), sf, steps)
	if err != nil {
		t.Fatal(err)
	}
	j.waitTimeout = 300 * time.Millisecond
	j.Start()
	_, release := hold.held(j)
	begun := time.Now()
	_, err = j.Suspend()
	took := time.Since(begun)
	close(release)

	var pe *fs.PathError
	if !errors.As(err, &pe) || pe.Path != round || errors.Is(err, ErrWorkerSilent) {
		t.Errorf("Suspend over an unwritable round file: %v, want the round file's own error", err)
	}
	if took >= j.waitTimeout {
		t.Errorf("Suspend failed after %v, want before the %v wait timeout", took, j.waitTimeout)
	}
	if _, err := os.Stat(round); !os.IsNotExist(err) {
		t.Errorf("the failed round left its file behind (stat: %v)", err)
	}
	j.waitTimeout = 30 * time.Second
	if err := j.WaitDone(); err != nil {
		t.Fatal(err)
	}
	j.Shutdown()
	if ok, x, y, d := resultsEqual(ref, jp.Gather(steps), 0); !ok {
		t.Errorf("the job after a failed round differs from the reference at (%d,%d) by %g", x, y, d)
	}
}

// TestSnapshotsBackToBackHoldOneStep: a hundred snapshots in a row, then a
// suspend, each catch every rank at one step. A resumed rank clears its
// hold before it answers, so a round that starts on the last answer
// cannot lose its hold on that rank.
func TestSnapshotsBackToBackHoldOneStep(t *testing.T) {
	j, _ := newTestJob(t, channelConfig(t, MethodFD, 4, 1, 32, 8), 1<<20)
	// A rank that lost its hold runs past the sync step and the round
	// waits for a pause that never comes; fail that well before the
	// test's deadline.
	j.waitTimeout = 5 * time.Second
	j.Start()
	for i := range 100 {
		states, err := j.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dump.CommonStep(states); err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
	}
	states, err := j.Suspend()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dump.CommonStep(states); err != nil {
		t.Fatalf("suspend after the snapshots: %v", err)
	}
}
