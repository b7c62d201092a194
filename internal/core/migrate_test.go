package core

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/decomp"
	"repro/internal/dump"
	"repro/internal/fluid"
	"repro/internal/msg"
	"repro/internal/syncfile"
)

func newTestJob(t *testing.T, cfg *Config2D, until int) (*Job, *JobPrograms2D) {
	t.Helper()
	return newTestJobOver(t, cfg, until, HubFactory())
}

func newTestJobOver(t *testing.T, cfg *Config2D, until int, factory TransportFactory) (*Job, *JobPrograms2D) {
	t.Helper()
	sf, err := syncfile.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	j, jp, err := NewJob2D(cfg, factory, sf, until)
	if err != nil {
		t.Fatal(err)
	}
	j.waitTimeout = 30 * time.Second
	return j, jp
}

// TestMigrationPreservesSolution runs the full section-5.1 protocol twice
// mid-run and checks the final solution is bitwise identical to an
// uninterrupted run: sync, dump, restart on a "new host", re-open
// channels, continue.
func TestMigrationPreservesSolution(t *testing.T) {
	const steps = 40
	ref, _, err := RunSequential2D(channelConfig(t, MethodLB, 2, 2, 24, 16), steps)
	if err != nil {
		t.Fatal(err)
	}

	cfg := channelConfig(t, MethodLB, 2, 2, 24, 16)
	hold := newStepHold(7, 20)
	j, jp := newTestJobOver(t, cfg, steps, hold.over(HubFactory()))
	j.Start()

	// Migrate rank 1 mid-run, then rank 3.
	at := hold.wait(j)
	dumps, err := migrated(j, 1)
	if err != nil {
		t.Fatal(err)
	}
	midRun(t, "first migration", dumps, at, steps)
	at = hold.wait(j)
	second, err := migrated(j, 3)
	if err != nil {
		t.Fatal(err)
	}
	midRun(t, "second migration", second, at, steps)
	if err := j.WaitDone(); err != nil {
		t.Fatal(err)
	}
	j.Shutdown()

	if len(dumps) != 1 || dumps[0].Rank != 1 {
		t.Errorf("onDump saw %v", dumps)
	}
	got := jp.Gather(steps)
	if ok, x, y, d := resultsEqual(ref, got, 0); !ok {
		t.Errorf("migrated run differs from reference at (%d,%d) by %g", x, y, d)
	}
	if j.Epoch() != 2 {
		t.Errorf("epoch = %d, want 2 after two migrations", j.Epoch())
	}
}

// TestSyncDirReusedByASecondJob: two jobs over one sync directory, one
// after the other, migrate a rank at step 30 and then at step 7. Each
// numbers its rounds from 1, so the second reads the first's announcements
// as its own, and its ranks pick different sync steps and never all
// pause, unless a round's file goes once every rank has paused.
func TestSyncDirReusedByASecondJob(t *testing.T) {
	const steps = 40
	ref, _, err := RunSequential2D(channelConfig(t, MethodLB, 2, 2, 24, 16), steps)
	if err != nil {
		t.Fatal(err)
	}
	sf, err := syncfile.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []int{30, 7} {
		hold := newStepHold(step)
		j, jp, err := NewJob2D(channelConfig(t, MethodLB, 2, 2, 24, 16), hold.over(HubFactory()), sf, steps)
		if err != nil {
			t.Fatal(err)
		}
		j.waitTimeout = 5 * time.Second
		j.Start()
		at := hold.wait(j)
		dumps, err := migrated(j, 1)
		if err != nil {
			t.Fatalf("job migrating at step %d: %v", at, err)
		}
		midRun(t, "migration", dumps, at, steps)
		if err := j.WaitDone(); err != nil {
			t.Fatal(err)
		}
		j.Shutdown()
		if ok, x, y, d := resultsEqual(ref, jp.Gather(steps), 0); !ok {
			t.Errorf("job migrating at step %d differs from the reference at (%d,%d) by %g", at, x, y, d)
		}
	}
}

// TestSimultaneousMigration migrates two ranks in one round (the paper:
// "the synchronization allows more than one process to migrate at the
// same time if it is desired").
func TestSimultaneousMigration(t *testing.T) {
	const steps = 30
	ref, _, err := RunSequential2D(channelConfig(t, MethodFD, 2, 2, 24, 16), steps)
	if err != nil {
		t.Fatal(err)
	}
	cfg := channelConfig(t, MethodFD, 2, 2, 24, 16)
	hold := newStepHold(10)
	j, jp := newTestJobOver(t, cfg, steps, hold.over(HubFactory()))
	j.Start()
	at := hold.wait(j)
	dumps, err := migrated(j, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(dumps) != 2 {
		t.Fatalf("onDump saw %d dumps, want 2", len(dumps))
	}
	midRun(t, "migration", dumps, at, steps)
	if err := j.WaitDone(); err != nil {
		t.Fatal(err)
	}
	j.Shutdown()
	got := jp.Gather(steps)
	if ok, x, y, d := resultsEqual(ref, got, 0); !ok {
		t.Errorf("double migration differs at (%d,%d) by %g", x, y, d)
	}
}

// TestMigrationAfterCompletion: a migration request that lands when some
// workers already finished still completes (sync step clamps to the run
// length).
func TestMigrationAfterCompletion(t *testing.T) {
	const steps = 5
	cfg := channelConfig(t, MethodLB, 2, 1, 16, 8)
	ref, _, err := RunSequential2D(channelConfig(t, MethodLB, 2, 1, 16, 8), steps)
	if err != nil {
		t.Fatal(err)
	}
	j, jp := newTestJob(t, cfg, steps)
	j.Start()
	// Wait for both workers to report done, then migrate.
	if err := j.WaitDone(); err != nil {
		t.Fatal(err)
	}
	if err := j.MigrateRanks([]int{0}, nil); err != nil {
		t.Fatal(err)
	}
	if err := j.WaitDone(); err != nil {
		t.Fatal(err)
	}
	j.Shutdown()
	got := jp.Gather(steps)
	if ok, x, y, d := resultsEqual(ref, got, 0); !ok {
		t.Errorf("post-completion migration corrupted state at (%d,%d) by %g", x, y, d)
	}
}

// TestMigrateUnknownRank: protocol rejects ranks that do not exist.
func TestMigrateUnknownRank(t *testing.T) {
	cfg := channelConfig(t, MethodLB, 2, 1, 16, 8)
	j, _ := newTestJob(t, cfg, 5)
	if err := j.MigrateRanks([]int{7}, nil); err == nil {
		t.Error("migration of unknown rank accepted")
	}
	j.Start()
	if err := j.WaitDone(); err != nil {
		t.Fatal(err)
	}
	j.Shutdown()
}

// heldTransport blocks every Recv until gate is closed: a rank computes and
// sends its first step's boundary data, then waits.
type heldTransport struct {
	msg.Transport
	gate <-chan struct{}
}

func (h heldTransport) Recv() (msg.Message, error) {
	<-h.gate
	return h.Transport.Recv()
}

// stepHold places a disturbance mid-run at a chosen step. Its transport
// holds every rank at its first send of each listed step, in turn; wait
// returns once all of a job's ranks are held and arms the release, which
// comes when the next pause round has been announced. Every rank then
// announces step k, the synchronization step is k+1, and the disturbance
// dumps at exactly k+1, however fast the steps run.
type stepHold struct {
	arrived chan int // the rank of each rank as it is held

	mu      sync.Mutex
	steps   []int         // steps still to hold at, in order
	release chan struct{} // closed to let the held ranks go on
}

func newStepHold(steps ...int) *stepHold {
	return &stepHold{arrived: make(chan int, 64), steps: steps, release: make(chan struct{})}
}

// over decorates a factory's transports with the hold. The rank is the
// factory's: Message.From is set by the transport underneath.
func (h *stepHold) over(factory TransportFactory) TransportFactory {
	return func(rank, epoch int) (msg.Transport, error) {
		tr, err := factory(rank, epoch)
		return holdingTransport{tr, h, rank}, err
	}
}

type holdingTransport struct {
	msg.Transport
	h    *stepHold
	rank int
}

func (t holdingTransport) Send(m msg.Message) error {
	t.h.mu.Lock()
	held := len(t.h.steps) > 0 && m.Step == t.h.steps[0]
	release := t.h.release
	t.h.mu.Unlock()
	if held {
		t.h.arrived <- t.rank
		<-release
	}
	return t.Transport.Send(m)
}

// wait blocks until every rank of j is held at the current step, moves the
// hold on to the next listed step, and lets the held ranks go on once the
// pause round that follows has been announced. It returns the step the
// next disturbance dumps at.
func (h *stepHold) wait(j *Job) int {
	at, release := h.held(j)
	round, p, timeout := j.round+1, j.P(), j.waitTimeout
	go func() {
		// The round reads back once every rank has announced. A round
		// that fails lets the ranks go too; the coordinator reports it.
		j.sf.WaitAll(round, p, timeout)
		close(release)
	}()
	return at
}

// held blocks until every rank of j is held at the current step, moves the
// hold on to the next listed step and returns the step after the held one
// with the channel that releases the held ranks.
func (h *stepHold) held(j *Job) (int, chan struct{}) {
	for range j.P() {
		<-h.arrived
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	at := h.steps[0]
	h.steps = h.steps[1:]
	release := h.release
	h.release = make(chan struct{})
	return at + 1, release
}

// migrated migrates the given ranks and returns their dumps.
func migrated(j *Job, ranks ...int) ([]*dump.State, error) {
	var dumps []*dump.State
	err := j.MigrateRanks(ranks, func(_ int, st *dump.State) { dumps = append(dumps, st) })
	return dumps, err
}

// midRun fails the test unless every dump landed at the step the hold
// placed it at, before the job's last step.
func midRun(t *testing.T, what string, states []*dump.State, want, until int) {
	t.Helper()
	for _, st := range states {
		if st.Step != want || st.Step >= until {
			t.Errorf("%s: rank %d dumped at step %d, want %d (the job ends at %d)", what, st.Rank, st.Step, want, until)
		}
	}
}

// TestSilentRanksFailTyped: when no rank reports within the wait timeout the
// coordination wait fails with ErrWorkerSilent, checkable with errors.Is,
// instead of hanging the job. Every rank is held in its first Recv, so
// the timeout is the only thing that can end the wait.
func TestSilentRanksFailTyped(t *testing.T) {
	const steps = 2
	gate := make(chan struct{})
	hub := HubFactory()
	j, _ := newTestJobOver(t, channelConfig(t, MethodLB, 2, 1, 16, 8), steps,
		func(rank, epoch int) (msg.Transport, error) {
			tr, err := hub(rank, epoch)
			return heldTransport{tr, gate}, err
		})
	j.waitTimeout = 20 * time.Millisecond
	j.Start()
	if err := j.WaitDone(); !errors.Is(err, ErrWorkerSilent) {
		t.Errorf("WaitDone over silent ranks returned %v, want ErrWorkerSilent", err)
	}
	// Release the ranks and let the run drain so no goroutine outlives
	// the test.
	close(gate)
	j.waitTimeout = 30 * time.Second
	if err := j.WaitDone(); err != nil {
		t.Fatal(err)
	}
	j.Shutdown()
}

// TestMigration3D: the full protocol on a 3D job (the LB sweep exchange
// crosses the migration boundary intact).
func TestMigration3D(t *testing.T) {
	const steps = 20
	mkCfg := func() *Config3D {
		d, err := decomp.New3D(2, 2, 1, 12, 12, 8)
		if err != nil {
			t.Fatal(err)
		}
		d.PeriodicX = true
		p := fluid.DefaultParams()
		p.Nu = 0.1
		p.Eps = 0.005
		p.ForceX = 1e-5
		return &Config3D{
			Method: MethodLB, Par: p,
			Mask: fluid.ChannelMask3D(12, 12, 8), D: d,
		}
	}
	ref, _, err := RunSequential3D(mkCfg(), steps)
	if err != nil {
		t.Fatal(err)
	}

	sf, err := syncfile.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	hold := newStepHold(6)
	j, jp, err := NewJob3D(mkCfg(), hold.over(HubFactory()), sf, steps)
	if err != nil {
		t.Fatal(err)
	}
	j.Start()
	at := hold.wait(j)
	dumps, err := migrated(j, 2)
	if err != nil {
		t.Fatal(err)
	}
	midRun(t, "migration", dumps, at, steps)
	if err := j.WaitDone(); err != nil {
		t.Fatal(err)
	}
	j.Shutdown()
	got := jp.Gather(steps)
	for i := range ref.Rho {
		if ref.Rho[i] != got.Rho[i] || ref.Vx[i] != got.Vx[i] ||
			ref.Vy[i] != got.Vy[i] || ref.Vz[i] != got.Vz[i] {
			t.Fatalf("3D migrated run differs at node %d", i)
		}
	}
}

// TestResumeOpenFailureLeavesNoRankRunning: a 2x1 hub job whose factory
// fails for one rank at epoch 1. A Snapshot, or a MigrateRanks of either
// rank, returns that failure before any rank computes on at the new epoch:
// no channel of epoch 1 is left open, the job is failed, and every rank
// still holds, so Shutdown ends them all. A rank continued or relaunched
// beside the failing one would wait in a receive for good, and TestMain's
// leak check would find it.
func TestResumeOpenFailureLeavesNoRankRunning(t *testing.T) {
	cases := []struct {
		name   string
		refuse [2]int // the (rank, epoch) whose channels fail to open
		op     func(j *Job) error
	}{
		{"snapshot", [2]int{1, 1}, func(j *Job) error { _, err := j.Snapshot(); return err }},
		{"migrate 0", [2]int{1, 1}, func(j *Job) error { return j.MigrateRanks([]int{0}, nil) }},
		{"migrate 1", [2]int{0, 1}, func(j *Job) error { return j.MigrateRanks([]int{1}, nil) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			l := &transportLog{open: HubFactory(), refuse: c.refuse}
			hold := newStepHold(4)
			j, _ := newTestJobOver(t, resizeCfg2D(t, MethodFD, 2, 1), 20, hold.over(l.factory))
			j.Start()
			hold.wait(j)
			err := c.op(j)
			if err == nil || !strings.Contains(err.Error(), "refused") {
				t.Fatalf("err = %v, want the refused channels", err)
			}
			l.leftOpen(t, c.name, 1)
			if j.state != failed {
				t.Errorf("job %s after the failed %s, want %s", j.state, c.name, failed)
			}
			j.Shutdown()
		})
	}
}
