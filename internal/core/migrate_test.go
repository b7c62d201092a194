package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/cluster"
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
	j.WaitTimeout = 30 * time.Second
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
	j, jp := newTestJob(t, cfg, steps)
	j.Start()

	// Let the computation get going, then migrate rank 1, then rank 3.
	time.Sleep(20 * time.Millisecond)
	var dumps []*dump.State
	if err := j.MigrateRanks([]int{1}, func(rank int, st *dump.State) {
		dumps = append(dumps, st)
	}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	if err := j.MigrateRanks([]int{3}, nil); err != nil {
		t.Fatal(err)
	}
	if err := j.WaitDone(); err != nil {
		t.Fatal(err)
	}
	j.Shutdown()

	if j.Migrations != 2 {
		t.Errorf("Migrations = %d, want 2", j.Migrations)
	}
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
	j, jp := newTestJob(t, cfg, steps)
	j.Start()
	time.Sleep(15 * time.Millisecond)
	if err := j.MigrateRanks([]int{0, 2}, nil); err != nil {
		t.Fatal(err)
	}
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

// TestMonitorDrivenMigration wires the virtual cluster to the job: a
// background job lands on a workstation, the five-minute load crosses 1.5,
// MonitorOnce migrates the affected rank to a free host, and the solution
// is unharmed.
func TestMonitorDrivenMigration(t *testing.T) {
	const steps = 40
	ref, _, err := RunSequential2D(channelConfig(t, MethodLB, 2, 2, 24, 16), steps)
	if err != nil {
		t.Fatal(err)
	}
	cfg := channelConfig(t, MethodLB, 2, 2, 24, 16)
	j, jp := newTestJob(t, cfg, steps)

	cl := cluster.NewPaperCluster()
	cl.Advance(30 * time.Minute) // all users idle
	if err := j.PlaceOnCluster(cl); err != nil {
		t.Fatal(err)
	}
	j.Start()

	// No migration needed while hosts are quiet.
	if ranks, err := j.MonitorOnce(cluster.DefaultMigrationPolicy()); err != nil || len(ranks) != 0 {
		t.Fatalf("spurious migration: %v %v", ranks, err)
	}

	// A regular user starts a full-time job on rank 2's host.
	busyHost := j.HostOf(2)
	busyHost.StartJob()
	cl.Advance(10 * time.Minute) // load climbs past 1.5

	ranks, err := j.MonitorOnce(cluster.DefaultMigrationPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if len(ranks) != 1 || ranks[0] != 2 {
		t.Fatalf("migrated ranks %v, want [2]", ranks)
	}
	if busyHost.Assigned() != -1 {
		t.Error("busy host still has the subprocess assigned")
	}
	if newHost := j.HostOf(2); newHost == busyHost || newHost.Assigned() != 2 {
		t.Error("rank 2 not reassigned to a fresh host")
	}

	if err := j.WaitDone(); err != nil {
		t.Fatal(err)
	}
	j.Shutdown()
	got := jp.Gather(steps)
	if ok, x, y, d := resultsEqual(ref, got, 0); !ok {
		t.Errorf("monitored run differs at (%d,%d) by %g", x, y, d)
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

// TestMonitorLoop drives the full monitoring program: periodic checks on
// simulated time, a scripted load scenario, automatic migration, and the
// usual bitwise-exactness guarantee.
func TestMonitorLoop(t *testing.T) {
	const steps = 60
	ref, _, err := RunSequential2D(channelConfig(t, MethodLB, 2, 2, 24, 16), steps)
	if err != nil {
		t.Fatal(err)
	}
	cfg := channelConfig(t, MethodLB, 2, 2, 24, 16)
	// Every rank holds in its first receive until the scenario has fired,
	// so whether the monitor finds a job to migrate does not depend on how
	// fast 60 steps run against the loop's wall-clock poll.
	gate := make(chan struct{})
	hub := HubFactory()
	j, jp := newTestJobOver(t, cfg, steps, func(rank, epoch int) (msg.Transport, error) {
		tr, err := hub(rank, epoch)
		return heldTransport{tr, gate}, err
	})
	cl := cluster.NewPaperCluster()
	cl.Advance(30 * time.Minute)
	if err := j.PlaceOnCluster(cl); err != nil {
		t.Fatal(err)
	}
	j.Start()
	busyHost := j.HostOf(0)

	migrated, err := j.MonitorLoop(5*time.Minute, cluster.DefaultMigrationPolicy(),
		func(tick int, c *cluster.Cluster) {
			if tick == 1 {
				// A user job lands on rank 0's host at the second check
				// and its load climbs past the threshold; the ranks are
				// released into the migration that follows.
				busyHost.StartJob()
				c.Advance(10 * time.Minute)
				close(gate)
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	if migrated != 1 {
		t.Errorf("monitor loop migrated %d ranks, want 1 (the busy host's)", migrated)
	}
	if newHost := j.HostOf(0); newHost == busyHost || newHost.Assigned() != 0 {
		t.Error("rank 0 not reassigned to a fresh host")
	}
	j.Shutdown()
	got := jp.Gather(steps)
	if ok, x, y, d := resultsEqual(ref, got, 0); !ok {
		t.Errorf("monitored run differs at (%d,%d) by %g", x, y, d)
	}
}

// TestSilentRanksFailTyped: when no rank reports within WaitTimeout the
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
	j.WaitTimeout = 20 * time.Millisecond
	j.Start()
	if err := j.WaitDone(); !errors.Is(err, ErrWorkerSilent) {
		t.Errorf("WaitDone over silent ranks returned %v, want ErrWorkerSilent", err)
	}
	// Release the ranks and let the run drain so no goroutine outlives
	// the test.
	close(gate)
	j.WaitTimeout = 30 * time.Second
	if err := j.WaitDone(); err != nil {
		t.Fatal(err)
	}
	j.Shutdown()
}

// TestMonitorLoopRequiresCluster: defensive error path.
func TestMonitorLoopRequiresCluster(t *testing.T) {
	cfg := channelConfig(t, MethodLB, 2, 1, 16, 8)
	j, _ := newTestJob(t, cfg, 2)
	if _, err := j.MonitorLoop(time.Minute, cluster.DefaultMigrationPolicy(), nil); err == nil {
		t.Error("MonitorLoop without a cluster accepted")
	}
	j.Start()
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
	j, jp, err := NewJob3D(mkCfg(), HubFactory(), sf, steps)
	if err != nil {
		t.Fatal(err)
	}
	j.Start()
	time.Sleep(10 * time.Millisecond)
	if err := j.MigrateRanks([]int{2}, nil); err != nil {
		t.Fatal(err)
	}
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
