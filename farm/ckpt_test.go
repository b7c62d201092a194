package farm

import (
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/dump"
	"repro/internal/fluid"
	"repro/internal/syncfile"
)

// simConfig is the small 2D LB channel the checkpoint tests run as a
// real workload (the same shape the preemption and reclaim tests use).
func simConfig(t *testing.T, jx, jy int) *core.Config2D {
	t.Helper()
	nx, ny := 12*jx, 8*jy
	d, err := decomp.New2D(jx, jy, nx, ny, decomp.Full)
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
		Mask:   fluid.ChannelMask2D(nx, ny),
		D:      d,
	}
}

func newSimJob(t *testing.T, cfg *core.Config2D, steps int) (*core.Job, *core.JobPrograms2D) {
	t.Helper()
	sf, err := syncfile.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	job, progs, err := core.NewJob2D(cfg, core.HubFactory(), sf, steps)
	if err != nil {
		t.Fatal(err)
	}
	return job, progs
}

// stopAbandoned suspends, once the test is over, a job whose coordinator
// the test kills: no farm is left to finish its ranks, which would run on
// after the test.
func stopAbandoned(t *testing.T, job *core.Job) {
	t.Helper()
	t.Cleanup(func() {
		if _, err := job.Suspend(); err != nil {
			t.Errorf("stopping the abandoned job: %v", err)
		}
	})
}

// TestKillAndRestoreBitIdentical is the subsystem's acceptance scenario.
// A farm runs a real 2D LB simulation (high priority, placed by
// preempting a wide background job, which sits suspended in the queue)
// under a scenario tick grid. Five virtual minutes in, the coordinator
// checkpoints the whole farm to disk — the running simulation through
// the suspend-and-resume snapshot, without evicting it — and is then
// killed. A fresh scheduler restored from the directory, with the
// simulation rebuilt through the workload registry, finishes the farm;
// its metrics summary is bit-identical to an uninterrupted run's, and
// the simulation's final fields are bit-identical to a sequential
// reference.
func TestKillAndRestoreBitIdentical(t *testing.T) {
	const steps = 40
	specs := []JobSpec{
		{ID: "bg", Method: "lb2d", JX: 8, JY: 3, Side: 200, Steps: 2000, Priority: 0},
		{ID: "sim", Method: "lb2d", JX: 2, JY: 2, Side: 1000, Steps: steps, Priority: 9,
			Submit: 2 * time.Minute},
	}
	ref, _, err := core.RunSequential2D(simConfig(t, 2, 2), steps)
	if err != nil {
		t.Fatal(err)
	}

	// Reference farm run: no checkpoint, but the same scenario tick grid
	// (virtual-time advances must visit the same instants for the load
	// averages to evolve bit-identically).
	runRef := func() Summary {
		t.Helper()
		s := newFarm(idlePool(), Priority, 42)
		s.scenarioEvery = time.Minute
		s.scenario = func(time.Duration, *cluster.Cluster) {}
		for _, sp := range specs {
			if _, err := s.Submit(sp, nil); err != nil {
				t.Fatal(err)
			}
		}
		s.Drain()
		sum, err := s.loop(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return sum
	}
	want := runRef()
	bg := jobByID(t, want, "bg")
	if bg.Preemptions != 1 {
		t.Fatalf("bg preempted %d times, want 1 (the checkpoint must see it suspended)", bg.Preemptions)
	}

	// The doomed coordinator: same trace, real simulation attached, a
	// checkpoint at t=5m followed by a "crash".
	dir := t.TempDir()
	pool1 := idlePool()
	s1 := newFarm(pool1, Priority, 42)
	job1, _ := newSimJob(t, simConfig(t, 2, 2), steps)
	stopAbandoned(t, job1)
	ctx, crash := context.WithCancel(context.Background())
	defer crash()
	s1.ckptDir = dir // the cancel saves there
	s1.scenarioEvery = time.Minute
	s1.scenario = func(vt time.Duration, _ *cluster.Cluster) {
		if vt >= 5*time.Minute {
			crash()
		}
	}
	if _, err := s1.Submit(specs[0], nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Submit(specs[1], &CoreWorkload{Job: job1}); err != nil {
		t.Fatal(err)
	}
	s1.Drain()
	if _, err := s1.loop(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("crashed run returned %v, want context.Canceled (nil: the farm drained before 5 virtual minutes)", err)
	}

	// The manifest must show the mid-storm shape: sim running with rank
	// states on disk, bg suspended in the queue.
	m, err := ckpt.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	phases := map[string]string{}
	for _, jr := range m.Jobs {
		phases[jr.ID] = jr.Phase
		if jr.ID == "sim" {
			if len(jr.StateSteps) != 4 {
				t.Errorf("sim checkpointed %d rank states, want 4", len(jr.StateSteps))
			}
			if len(jr.Hosts) != 4 {
				t.Errorf("sim placement records %d hosts, want 4", len(jr.Hosts))
			}
		}
	}
	if phases["sim"] != ckpt.PhaseRunning || phases["bg"] != ckpt.PhaseQueued {
		t.Fatalf("checkpoint phases %v, want sim running and bg queued", phases)
	}

	// Restore into a fresh pool and a fresh core job, discard the dead
	// coordinator, and finish the farm.
	pool2 := cluster.NewPaperCluster()
	var progs2 *core.JobPrograms2D
	reg := WorkloadRegistry{
		"sim": func(spec JobSpec) (Workload, error) {
			job2, p2 := newSimJob(t, simConfig(t, spec.JX, spec.JY), spec.Steps)
			progs2 = p2
			return &CoreWorkload{Job: job2}, nil
		},
	}
	s2, err := Restore(dir, pool2, reg)
	if err != nil {
		t.Fatal(err)
	}
	s2.scenarioEvery = time.Minute
	s2.scenario = func(time.Duration, *cluster.Cluster) {}
	got, err := s2.loop(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(want, got) {
		t.Errorf("restored run's summary differs from the uninterrupted run:\nwant %v\ngot  %v", want, got)
	}
	if progs2 == nil {
		t.Fatal("workload registry never invoked")
	}
	final := progs2.Gather(steps)
	for i := range ref.Rho {
		if ref.Rho[i] != final.Rho[i] || ref.Vx[i] != final.Vx[i] || ref.Vy[i] != final.Vy[i] {
			t.Fatalf("restored simulation differs from reference at node %d", i)
		}
	}
}

// TestAutoCheckpointRestore: the event loop's periodic checkpoint
// (CheckpointEvery) is enough to survive a crash at an arbitrary later
// instant — restoring from the last auto-save and replaying the tail
// reproduces the uninterrupted run's summary bit-exactly. The reference
// run auto-checkpoints too (into a scratch directory): checkpoints are
// virtually side-effect-free, but they pin the same advance grid.
func TestAutoCheckpointRestore(t *testing.T) {
	specs := []JobSpec{
		{ID: "a-wide", Method: "lb2d", JX: 5, JY: 4, Side: 40, Steps: 9000},
		{ID: "b-quad", Method: "lb2d", JX: 2, JY: 2, Side: 40, Steps: 12000},
		{ID: "c-late", Method: "fd2d", JX: 3, JY: 2, Side: 30, Steps: 9000,
			Submit: 10 * time.Minute},
	}
	run := func(dir string, crashAt time.Duration) (Summary, *Farm, error) {
		t.Helper()
		s := newFarm(idlePool(), FIFO, 7)
		s.ckptEvery = 2 * time.Minute
		s.ckptDir = dir
		s.scenarioEvery = time.Minute
		ctx, crash := context.WithCancel(context.Background())
		defer crash()
		s.scenario = func(vt time.Duration, _ *cluster.Cluster) {
			if crashAt > 0 && vt >= crashAt {
				// A crash saves nothing: the last auto-save must do.
				s.ckptDir = ""
				crash()
			}
		}
		for _, sp := range specs {
			if _, err := s.Submit(sp, nil); err != nil {
				t.Fatal(err)
			}
		}
		s.Drain()
		sum, err := s.loop(ctx)
		return sum, s, err
	}

	want, _, err := run(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	if _, _, err := run(dir, 5*time.Minute); !errors.Is(err, context.Canceled) {
		t.Fatalf("crashed run returned %v, want context.Canceled", err)
	}
	m, err := ckpt.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.SavedAt != 4*time.Minute {
		t.Errorf("last auto-checkpoint at %v, want 4m", m.SavedAt)
	}
	// Superseded save generations are pruned: at most the committed one
	// remains (none here — null workloads have no rank states).
	if gens, _ := filepath.Glob(filepath.Join(dir, "states-*")); len(gens) > 1 {
		t.Errorf("%d save generations on disk after pruning: %v", len(gens), gens)
	}
	// The late arrival must have been captured as still pending.
	for _, jr := range m.Jobs {
		if jr.ID == "c-late" && jr.Phase != ckpt.PhasePending {
			t.Errorf("c-late checkpointed as %s, want pending", jr.Phase)
		}
	}

	s2, err := Restore(dir, cluster.NewPaperCluster(), nil)
	if err != nil {
		t.Fatal(err)
	}
	s2.ckptEvery = 2 * time.Minute
	s2.ckptDir = t.TempDir()
	s2.scenarioEvery = time.Minute
	s2.scenario = func(time.Duration, *cluster.Cluster) {}
	got, err := s2.loop(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("restored run's summary differs:\nwant %v\ngot  %v", want, got)
	}
}

// copyTree duplicates a checkpoint directory so corruption subtests can
// each maul their own copy.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRestoreRejectsCorruptCheckpoints takes one real checkpoint (a
// 2-rank simulation running) and mauls copies of it: every corruption —
// missing manifest, missing or surplus rank dumps, states disagreeing
// with the manifest, a wrongly shaped pool, a missing workload factory —
// must be rejected with an error naming the problem, with the pool left
// as it was, never restored into a wrong farm.
func TestRestoreRejectsCorruptCheckpoints(t *testing.T) {
	const steps = 30
	dir := t.TempDir()
	pool := idlePool()
	s := newFarm(pool, FIFO, 3)
	job, _ := newSimJob(t, simConfig(t, 2, 1), steps)
	stopAbandoned(t, job)
	ctx, crash := context.WithCancel(context.Background())
	defer crash()
	s.ckptDir = dir // the cancel saves there
	s.scenarioEvery = time.Minute
	s.scenario = func(vt time.Duration, _ *cluster.Cluster) {
		if vt >= 2*time.Minute {
			crash()
		}
	}
	if _, err := s.Submit(JobSpec{
		ID: "sim", Method: "lb2d", JX: 2, JY: 1, Side: 1000, Steps: steps,
	}, &CoreWorkload{Job: job}); err != nil {
		t.Fatal(err)
	}
	s.Drain()
	if _, err := s.loop(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("run returned %v, want context.Canceled", err)
	}

	reg := WorkloadRegistry{
		"sim": func(spec JobSpec) (Workload, error) {
			job2, _ := newSimJob(t, simConfig(t, spec.JX, spec.JY), spec.Steps)
			return &CoreWorkload{Job: job2}, nil
		},
	}
	// restore also checks that a refused restore leaves the cluster as
	// it was: every refusal comes before the snapshot is applied.
	restore := func(dir string, c *cluster.Cluster, reg WorkloadRegistry) error {
		t.Helper()
		before := c.Snapshot()
		_, err := Restore(dir, c, reg)
		if err != nil && !reflect.DeepEqual(c.Snapshot(), before) {
			t.Errorf("the refused restore (%v) changed the cluster", err)
		}
		return err
	}

	if err := restore(t.TempDir(), cluster.NewPaperCluster(), reg); err == nil ||
		!strings.Contains(err.Error(), "no checkpoint manifest") {
		t.Errorf("empty dir: %v", err)
	}

	maul := func(name string, corrupt func(copy string), want string) {
		t.Helper()
		cp := t.TempDir()
		copyTree(t, dir, cp)
		corrupt(cp)
		err := restore(cp, cluster.NewPaperCluster(), reg)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %v does not mention %q", name, err, want)
		}
	}

	simDir := func(cp string) string {
		t.Helper()
		m, err := ckpt.Load(cp)
		if err != nil {
			t.Fatal(err)
		}
		return ckpt.JobDir(cp, m.StatesDir, "sim")
	}
	maul("missing rank dump", func(cp string) {
		os.Remove(dump.Path(simDir(cp), 1))
	}, "ranks [1] missing")

	maul("surplus rank dump", func(cp string) {
		jd := simDir(cp)
		data, err := os.ReadFile(dump.Path(jd, 0))
		if err != nil {
			t.Fatal(err)
		}
		os.WriteFile(dump.Path(jd, 2), data, 0o644)
	}, "3 rank dumps, expected 2")

	// editSim rewrites the sim job's manifest record. ckpt.Save checks
	// the manifest's structure only, so a record that does not fit its
	// job saves, and Restore must refuse it.
	editSim := func(cp string, edit func(*ckpt.JobRecord)) {
		t.Helper()
		m, err := ckpt.Load(cp)
		if err != nil {
			t.Fatal(err)
		}
		for i := range m.Jobs {
			if m.Jobs[i].ID == "sim" {
				edit(&m.Jobs[i])
			}
		}
		if err := ckpt.Save(cp, m); err != nil {
			t.Fatal(err)
		}
	}
	maul("torn state", func(cp string) {
		editSim(cp, func(jr *ckpt.JobRecord) { jr.StateSteps[1]++ })
	}, "torn checkpoint")

	// A record that does not fit its job's own spec (the sim is a
	// running lb2d job on a 2x1 lattice over a 2000x1000 grid) or its
	// cluster snapshot is refused too.
	for _, tc := range []struct {
		name string
		edit func(*ckpt.JobRecord)
		want string
	}{
		{"host count", func(jr *ckpt.JobRecord) { jr.Hosts = jr.Hosts[:1] }, "1 hosts for 2 ranks"},
		{"state steps", func(jr *ckpt.JobRecord) { jr.StateSteps = jr.StateSteps[:1] }, "1 state steps for 2 ranks"},
		{"swapped hosts", func(jr *ckpt.JobRecord) { jr.Hosts[0], jr.Hosts[1] = jr.Hosts[1], jr.Hosts[0] }, "manifest says rank 0"},
		{"unknown host", func(jr *ckpt.JobRecord) { jr.Hosts[1] = "nowhere" }, `unknown host "nowhere"`},
		{"wrong span count", func(jr *ckpt.JobRecord) { jr.SpansX, jr.SpansY = []int{2000}, []int{1000} }, "1 x spans for 2 pieces"},
		{"wrong span sum", func(jr *ckpt.JobRecord) { jr.SpansX, jr.SpansY = []int{1200, 801}, []int{1000} }, "x spans sum to 2001"},
		{"zero span", func(jr *ckpt.JobRecord) { jr.SpansX, jr.SpansY = []int{2000, 0}, []int{1000} }, "0-node x span"},
		{"z spans on 2D", func(jr *ckpt.JobRecord) {
			jr.SpansX, jr.SpansY, jr.SpansZ = []int{1200, 800}, []int{1000}, []int{10}
		}, "2D shape carries 1 z spans"},
		{"missing y spans", func(jr *ckpt.JobRecord) { jr.SpansX = []int{1200, 800} }, "0 y spans"},
		{"2D job with a 3D current lattice", func(jr *ckpt.JobRecord) {
			jr.CurJX, jr.CurJY, jr.CurJZ = 2, 1, 1
		}, "2D method with JZ = 1"},
		{"3D job with a 2D current lattice", func(jr *ckpt.JobRecord) {
			jr.Method, jr.JZ = "lb3d", 1
			jr.CurJX, jr.CurJY = 2, 1
		}, "3D method needs JZ >= 1"},
		{"current lattice wider than the grid", func(jr *ckpt.JobRecord) {
			jr.CurJX, jr.CurJY = 2001, 1
		}, "cannot give every subregion"},
	} {
		maul(tc.name, func(cp string) { editSim(cp, tc.edit) }, tc.want)
	}

	maul("garbage manifest", func(cp string) {
		os.WriteFile(ckpt.ManifestPath(cp), []byte("not json"), 0o644)
	}, "decode manifest")

	// A pool that differs from the snapshot only in its last host is
	// refused before any of its hosts is written.
	for _, tc := range []struct {
		name   string
		damage func(*cluster.Host)
		want   string
	}{
		{"renamed host", func(h *cluster.Host) { h.Name = "stranger" }, "not in pool"},
		{"different model", func(h *cluster.Host) { h.Model = cluster.HP715 }, "pool has a"},
	} {
		pool := cluster.NewPaperCluster()
		tc.damage(pool.Hosts[len(pool.Hosts)-1])
		if err := restore(dir, pool, reg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v does not mention %q", tc.name, err, tc.want)
		}
	}

	if err := restore(dir, &cluster.Cluster{Hosts: []*cluster.Host{cluster.NewHost("solo", cluster.HP715)}}, reg); err == nil ||
		!strings.Contains(err.Error(), "pool has 1") {
		t.Errorf("wrong pool shape: %v", err)
	}

	if err := restore(dir, cluster.NewPaperCluster(), nil); err == nil ||
		!strings.Contains(err.Error(), "no workload factory") {
		t.Errorf("missing factory: %v", err)
	}
}

// TestWeightedFairServiceRatio is the creditService/fairShare coverage:
// two tenants with 3:1 weights submitting identical serializing jobs
// receive service in exactly that ratio along the completion order, and
// the per-tenant credit equals the served time of the tenant's jobs.
func TestWeightedFairServiceRatio(t *testing.T) {
	var specs []JobSpec
	mk := func(id, user string, w float64) JobSpec {
		return JobSpec{ID: id, User: user, Weight: w,
			Method: "lb2d", JX: 5, JY: 4, Side: 40, Steps: 600}
	}
	for i := 0; i < 8; i++ {
		specs = append(specs, mk("h"+string(rune('1'+i)), "heavy", 3))
		specs = append(specs, mk("l"+string(rune('1'+i)), "light", 1))
	}
	s := newFarm(idlePool(), WeightedFair, 11)
	for _, sp := range specs {
		if _, err := s.Submit(sp, nil); err != nil {
			t.Fatal(err)
		}
	}
	s.Drain()
	sum, err := s.loop(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Jobs) != 16 {
		t.Fatalf("%d jobs finished, want 16", len(sum.Jobs))
	}

	// 20-rank jobs serialize on the 25-host pool: order by completion.
	order := append([]JobMetrics(nil), sum.Jobs...)
	sort.Slice(order, func(i, j int) bool { return order[i].Done < order[j].Done })
	heavyIn := func(n int) int {
		c := 0
		for _, j := range order[:n] {
			if strings.HasPrefix(j.ID, "h") {
				c++
			}
		}
		return c
	}
	// Service accrues per unit weight, so every window of 4 completions
	// holds 3 heavy jobs and 1 light one.
	if got := heavyIn(4); got != 3 {
		t.Errorf("heavy jobs among first 4 completions = %d, want 3", got)
	}
	if got := heavyIn(8); got != 6 {
		t.Errorf("heavy jobs among first 8 completions = %d, want 6", got)
	}

	// The tenants' credited service must equal their jobs' served time —
	// creditService charges both ledgers together.
	var heavyServed, lightServed time.Duration
	for _, j := range sum.Jobs {
		if strings.HasPrefix(j.ID, "h") {
			heavyServed += j.Served
		} else {
			lightServed += j.Served
		}
	}
	if s.servedByUser["heavy"] != heavyServed || s.servedByUser["light"] != lightServed {
		t.Errorf("tenant ledgers %v/%v, want %v/%v",
			s.servedByUser["heavy"], s.servedByUser["light"], heavyServed, lightServed)
	}
}

// TestFairShareCredit covers the bookkeeping unit-level: credit divides
// by weight, defaults the weight to 1, and an unnamed user makes the job
// its own tenant.
func TestFairShareCredit(t *testing.T) {
	s := newFarm(idlePool(), WeightedFair, 1)
	a := &jobState{spec: JobSpec{ID: "a", User: "u", Weight: 4}}
	b := &jobState{spec: JobSpec{ID: "b", User: "v"}} // weight defaults to 1
	c := &jobState{spec: JobSpec{ID: "c"}}            // own tenant

	s.creditService(a, 40*time.Second)
	s.creditService(b, 20*time.Second)
	s.creditService(c, 30*time.Second)

	if a.Served != 40*time.Second || s.servedByUser["u"] != 40*time.Second {
		t.Errorf("job a served %v, tenant u %v", a.Served, s.servedByUser["u"])
	}
	if got := s.fairShare(a); got != 10 {
		t.Errorf("fairShare(a) = %v, want 40s/weight 4 = 10", got)
	}
	if got := s.fairShare(b); got != 20 {
		t.Errorf("fairShare(b) = %v, want 20s/default weight 1 = 20", got)
	}
	if s.servedByUser["c"] != 30*time.Second {
		t.Errorf("unnamed user not charged as its own tenant: %v", s.servedByUser)
	}
	// A second job of the same tenant shares the ledger.
	a2 := &jobState{spec: JobSpec{ID: "a2", User: "u", Weight: 4}}
	s.creditService(a2, 8*time.Second)
	if got := s.fairShare(a); got != 12 {
		t.Errorf("fairShare(a) after tenant-mate credit = %v, want 48s/4 = 12", got)
	}
}
