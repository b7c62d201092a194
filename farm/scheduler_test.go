package farm

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/fluid"
	"repro/internal/perf"
	"repro/internal/syncfile"
)

// newFarm builds a farm with a policy and a seed, options that cannot
// fail validation.
func newFarm(c *cluster.Cluster, pol Policy, seed int64) *Farm {
	f, err := New(c, WithPolicy(pol), WithSeed(seed))
	if err != nil {
		panic(err)
	}
	return f
}

// tap subscribes to f's events; each call of the returned function
// hands over the events delivered since the last one. Delivery is
// synchronous with the scheduling round, so a call from a scenario tick
// sees every event emitted before it.
func tap(t testing.TB, f *Farm) func() []Event {
	// Far above any test's trace: a dropped event fails the test.
	sub := f.SubscribeBuffered(1 << 16)
	return func() []Event {
		t.Helper()
		if n := sub.Dropped(); n > 0 {
			t.Fatalf("tap dropped %d events", n)
		}
		var evs []Event
		for len(sub.ch) > 0 {
			evs = append(evs, <-sub.ch)
		}
		return evs
	}
}

func idlePool() *cluster.Cluster {
	c := cluster.NewPaperCluster()
	c.Advance(30 * time.Minute)
	return c
}

// farmMix is the deterministic multi-job scenario: eight jobs of mixed
// sizes and priorities arriving over the first minute.
func farmMix() []JobSpec {
	return []JobSpec{
		{ID: "a-wide", Method: "lb2d", JX: 5, JY: 4, Side: 40, Steps: 2000, Priority: 1, Weight: 2},
		{ID: "b-quad", Method: "lb2d", JX: 2, JY: 2, Side: 40, Steps: 3000, Priority: 1, Weight: 1},
		{ID: "c-probe", Method: "fd2d", JX: 1, JY: 1, Side: 64, Steps: 5000, Priority: 0, Weight: 1},
		{ID: "d-box", Method: "lb3d", JX: 2, JY: 2, JZ: 1, Side: 16, Steps: 800, Priority: 1, Weight: 1,
			Submit: 20 * time.Second},
		{ID: "e-acoustic", Method: "fd2d", JX: 2, JY: 1, Side: 30, Steps: 2000, Priority: 0, Weight: 1,
			Submit: 20 * time.Second},
		{ID: "f-urgent", Method: "lb2d", JX: 4, JY: 4, Side: 20, Steps: 1000, Priority: 9, Weight: 4,
			Submit: 30 * time.Second},
		{ID: "g-grand", Method: "lb2d", JX: 6, JY: 4, Side: 40, Steps: 500, Priority: 5, Weight: 1,
			Submit: 60 * time.Second},
		{ID: "h-tail", Method: "fd2d", JX: 1, JY: 1, Side: 40, Steps: 1000, Priority: 0, Weight: 1,
			Submit: 70 * time.Second},
	}
}

func replayMix(t *testing.T, pol Policy) Summary {
	t.Helper()
	sum, err := Replay(idlePool(), pol, 42, nil, farmMix())
	if err != nil {
		t.Fatalf("%v replay: %v", pol, err)
	}
	return sum
}

func jobByID(t *testing.T, sum Summary, id string) JobMetrics {
	t.Helper()
	for _, j := range sum.Jobs {
		if j.ID == id {
			return j
		}
	}
	t.Fatalf("job %s missing from summary", id)
	return JobMetrics{}
}

// TestFarmPoliciesDeterministic replays the mixed workload under each of
// the three policies and asserts the headline metrics: every job
// completes, FIFO and fair never preempt, priority preempts through the
// migration path, backfill fills the gaps, and a repeated run with the
// same seed reproduces the summary exactly.
func TestFarmPoliciesDeterministic(t *testing.T) {
	fifo := replayMix(t, FIFO)
	prio := replayMix(t, Priority)
	fair := replayMix(t, WeightedFair)

	for _, tc := range []struct {
		pol Policy
		sum Summary
	}{{FIFO, fifo}, {Priority, prio}, {WeightedFair, fair}} {
		if len(tc.sum.Jobs) != 8 {
			t.Fatalf("%v: %d jobs completed, want 8", tc.pol, len(tc.sum.Jobs))
		}
		if tc.sum.Utilization <= 0 || tc.sum.Utilization > 1 {
			t.Errorf("%v: utilization %v out of (0,1]", tc.pol, tc.sum.Utilization)
		}
		if tc.sum.Makespan <= 0 {
			t.Errorf("%v: makespan %v", tc.pol, tc.sum.Makespan)
		}
		if tc.sum.MeanWait <= 0 {
			t.Errorf("%v: mean queue wait %v, want > 0 (the pool oversubscribes)", tc.pol, tc.sum.MeanWait)
		}
	}

	if fifo.Preemptions != 0 || fair.Preemptions != 0 {
		t.Errorf("preemptions: fifo %d fair %d, want 0 (only the priority policy preempts)",
			fifo.Preemptions, fair.Preemptions)
	}
	if prio.Preemptions < 2 {
		t.Errorf("priority preemptions = %d, want >= 2", prio.Preemptions)
	}
	if fifo.Backfills == 0 {
		t.Error("FIFO backfilled nothing despite the blocked wide job")
	}

	// The urgent job jumps the queue under priority scheduling.
	uf, up := jobByID(t, fifo, "f-urgent"), jobByID(t, prio, "f-urgent")
	if up.Wait() != 0 {
		t.Errorf("priority: urgent job waited %v, want immediate preemptive start", up.Wait())
	}
	if uf.Wait() <= up.Wait() {
		t.Errorf("urgent wait fifo %v <= priority %v", uf.Wait(), up.Wait())
	}
	// The first submitted job starts immediately under FIFO.
	if w := jobByID(t, fifo, "a-wide").Wait(); w != 0 {
		t.Errorf("fifo: first job waited %v", w)
	}

	// Determinism: an identical seeded run reproduces every number.
	for _, pol := range []Policy{FIFO, Priority, WeightedFair} {
		a, b := replayMix(t, pol), replayMix(t, pol)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%v: two seeded replays diverged:\n%v\n%v", pol, a, b)
		}
	}
}

// TestWeightedFairInterleavesTenants: 20-rank jobs serialize on the
// 25-host pool, so the fair policy must alternate tenants by served time
// per unit weight rather than drain one tenant's backlog first.
func TestWeightedFairInterleavesTenants(t *testing.T) {
	mk := func(id, user string, weight float64) JobSpec {
		return JobSpec{ID: id, User: user, Weight: weight,
			Method: "lb2d", JX: 5, JY: 4, Side: 40, Steps: 500}
	}
	specs := []JobSpec{
		mk("h1", "heavy", 4), mk("h2", "heavy", 4),
		mk("l1", "light", 1), mk("l2", "light", 1),
	}
	sum, err := Replay(idlePool(), WeightedFair, 1, nil, specs)
	if err != nil {
		t.Fatal(err)
	}
	// h1 runs first (all shares zero, tie by ID), charging tenant heavy.
	// Then light's share (0) is least, so l1 jumps h2. After l1, heavy's
	// share per weight (t/4) is below light's (t/1): h2, then l2.
	done := func(id string) time.Duration { return jobByID(t, sum, id).Done }
	if !(done("h1") < done("l1") && done("l1") < done("h2") && done("h2") < done("l2")) {
		t.Errorf("fair completion order wrong: h1 %v l1 %v h2 %v l2 %v",
			done("h1"), done("l1"), done("h2"), done("l2"))
	}
	// FIFO on the same trace drains heavy's backlog first.
	fifo, err := Replay(idlePool(), FIFO, 1, nil, specs)
	if err != nil {
		t.Fatal(err)
	}
	doneF := func(id string) time.Duration { return jobByID(t, fifo, id).Done }
	if !(doneF("h2") < doneF("l1")) {
		t.Errorf("fifo order unexpected: h2 %v l1 %v", doneF("h2"), doneF("l1"))
	}
}

// TestFarmPreemptsRealCoreJob is the acceptance scenario: a real 2D LB
// simulation runs as a low-priority farm job, a high-priority burst
// arrives needing almost the whole pool, the scheduler suspends the
// simulation through the section-5.1 dump path, runs the burst, resumes
// the simulation from its checkpoint — and the finished simulation is
// bit-identical to an undisturbed run.
func TestFarmPreemptsRealCoreJob(t *testing.T) {
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

	pool := idlePool()
	s := newFarm(pool, Priority, 42)
	// The sim job: 4 ranks, low priority, long virtual runtime (the Side
	// inflates the virtual workload so the burst arrives mid-run).
	_, err = s.Submit(JobSpec{
		ID: "sim", Method: "lb2d", JX: 2, JY: 2, Side: 1000, Steps: steps, Priority: 0,
	}, &CoreWorkload{Job: job})
	if err != nil {
		t.Fatal(err)
	}
	// The burst: 22 ranks at t = 5 virtual minutes. 21 hosts are free, so
	// the scheduler must preempt the sim.
	_, err = s.Submit(JobSpec{
		ID: "burst", Method: "lb2d", JX: 11, JY: 2, Side: 40, Steps: 100, Priority: 9,
		Submit: 5 * time.Minute,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}

	s.Drain()
	sum, err := s.loop(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Preemptions != 1 {
		t.Errorf("preemptions = %d, want exactly 1 (the sim)", sum.Preemptions)
	}
	sim := jobByID(t, sum, "sim")
	if sim.Preemptions != 1 {
		t.Errorf("sim preempted %d times, want 1", sim.Preemptions)
	}
	if w := jobByID(t, sum, "burst").Wait(); w != 0 {
		t.Errorf("burst waited %v, want preemptive immediate start", w)
	}
	if job.Epoch() != 1 {
		t.Errorf("job epoch = %d, want 1 after one suspend/resume", job.Epoch())
	}

	got := progs.Gather(steps)
	for i := range ref.Rho {
		if ref.Rho[i] != got.Rho[i] || ref.Vx[i] != got.Vx[i] || ref.Vy[i] != got.Vy[i] {
			t.Fatalf("preempted simulation differs from reference at node %d", i)
		}
	}
}

// TestPreemptSkipsUserBusyVictims: suspending a job whose hosts regular
// users have since reclaimed frees no reservable capacity, so the
// scheduler must not checkpoint it for nothing when that capacity cannot
// unblock the head.
func TestPreemptSkipsUserBusyVictims(t *testing.T) {
	pool := idlePool()
	s := newFarm(pool, Priority, 1)
	if _, err := s.Submit(JobSpec{
		ID: "victim", Method: "lb2d", JX: 2, JY: 2, Side: 1000, Steps: 10000, Priority: 0,
	}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(JobSpec{
		ID: "head", Method: "lb2d", JX: 11, JY: 2, Side: 40, Steps: 100, Priority: 9,
		Submit: 30 * time.Minute,
	}, nil); err != nil {
		t.Fatal(err)
	}

	// Drive the rounds by hand so user activity can land mid-run.
	s.admit(0)
	if err := s.scheduleRound(0); err != nil {
		t.Fatal(err)
	}
	if len(s.running) != 1 || s.running[0].spec.ID != "victim" {
		t.Fatalf("victim not placed: %v running", len(s.running))
	}
	victim := s.running[0]
	// Regular users reclaim every one of the victim's hosts...
	for _, h := range victim.res.Hosts {
		h.StartJob()
	}
	pool.Advance(30 * time.Minute) // ...and their load climbs past 0.6.

	// The head needs 22 ranks; 21 hosts are free. Suspending the victim
	// would free only user-busy hosts, so nothing may be preempted.
	s.admit(30 * time.Minute)
	if err := s.scheduleRound(30 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if victim.Preempts != 0 {
		t.Errorf("victim checkpointed %d times despite freeing no capacity", victim.Preempts)
	}
	if len(s.running) != 1 || s.running[0] != victim {
		t.Errorf("victim no longer running after futile preemption attempt")
	}
	if len(s.queue) != 1 || s.queue[0].spec.ID != "head" {
		t.Errorf("head should still be queued")
	}
}

// TestBlockedRoundCostsNothing: a round that can place nothing — the
// head too wide for the free hosts and no lower-priority job to preempt,
// every job behind it too wide as well — allocates nothing and draws
// nothing from the RNG that Checkpoint persists.
func TestBlockedRoundCostsNothing(t *testing.T) {
	s := newFarm(idlePool(), Priority, 1)
	for _, sp := range []JobSpec{
		{ID: "runner", Method: "lb2d", JX: 5, JY: 4, Side: 40, Steps: 5000, Priority: 5},
		{ID: "head", Method: "lb2d", JX: 5, JY: 5, Side: 40, Steps: 100, Priority: 1},
		{ID: "tail", Method: "lb2d", JX: 4, JY: 2, Side: 40, Steps: 100, Priority: 1},
	} {
		if _, err := s.Submit(sp, nil); err != nil {
			t.Fatal(err)
		}
	}
	s.admit(0)
	if err := s.scheduleRound(0); err != nil {
		t.Fatal(err)
	}
	if len(s.running) != 1 || len(s.queue) != 2 {
		t.Fatalf("%d running, %d queued; want the runner placed and two blocked", len(s.running), len(s.queue))
	}
	state := s.src.State()
	var err error
	allocs := testing.AllocsPerRun(100, func() {
		if e := s.scheduleRound(0); e != nil {
			err = e
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("a blocked round allocates %v times", allocs)
	}
	if got := s.src.State(); got != state {
		t.Errorf("a blocked round moved the RNG from %#x to %#x", state, got)
	}
	if len(s.running) != 1 || len(s.queue) != 2 {
		t.Errorf("a blocked round changed the farm: %d running, %d queued", len(s.running), len(s.queue))
	}
}

// TestPerfTimerAddsCommunication: the perf-plane estimate includes the
// network, so it prices a step at or above the compute-only bound.
func TestPerfTimerAddsCommunication(t *testing.T) {
	spec := JobSpec{ID: "x", Method: "lb2d", JX: 4, JY: 4, Side: 40, Steps: 1}
	hosts := perf.PaperHosts(spec.Ranks())
	compute, err := ComputeTimer(spec, decomp.Shape{}, hosts)
	if err != nil {
		t.Fatal(err)
	}
	withNet, err := PerfTimer(perf.Ethernet)(spec, decomp.Shape{}, hosts)
	if err != nil {
		t.Fatal(err)
	}
	if withNet < compute {
		t.Errorf("perf step %v < compute-only %v", withNet, compute)
	}
	if withNet > 10*compute {
		t.Errorf("perf step %v implausibly above compute %v", withNet, compute)
	}
	// 3D too, exercising the Build3D path.
	spec3 := JobSpec{ID: "y", Method: "lb3d", JX: 2, JY: 2, JZ: 2, Side: 16, Steps: 1}
	if _, err := PerfTimer(perf.Ethernet)(spec3, decomp.Shape{}, perf.PaperHosts(spec3.Ranks())); err != nil {
		t.Fatal(err)
	}
}

// TestOversizedJobRejectedAtSubmit: a job larger than the pool can
// never run, so Submit refuses it with ErrNoCapacity instead of letting
// the farm stall on it later.
func TestOversizedJobRejectedAtSubmit(t *testing.T) {
	s := newFarm(idlePool(), FIFO, 1)
	_, err := s.Submit(JobSpec{ID: "huge", Method: "lb2d", JX: 6, JY: 5, Side: 10, Steps: 10}, nil)
	if !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("30-rank job on a 25-host pool: err = %v, want ErrNoCapacity", err)
	}
	// Replay surfaces the same typed rejection.
	if _, err := Replay(idlePool(), FIFO, 1, nil,
		[]JobSpec{{ID: "huge", Method: "lb2d", JX: 6, JY: 5, Side: 10, Steps: 10}}); !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("replay of an oversized job: err = %v, want ErrNoCapacity", err)
	}
}

// TestStalledFarmReportsError: a queued job blocked on host conditions
// (not capacity) trips the stall detector after a simulated week
// instead of spinning forever — the Run-loop branch the submit-time
// capacity check no longer reaches.
func TestStalledFarmReportsError(t *testing.T) {
	pool := idlePool()
	for _, h := range pool.Hosts {
		pool.Reclaim(h) // every user present: nothing is reservable, ever
	}
	s := newFarm(pool, FIFO, 1)
	if _, err := s.Submit(JobSpec{ID: "blocked", Method: "lb2d", JX: 1, JY: 1, Side: 4, Steps: 1}, nil); err != nil {
		t.Fatal(err)
	}
	s.Drain()
	_, err := s.loop(context.Background())
	if err == nil || !strings.Contains(err.Error(), "stalled for a simulated week") {
		t.Fatalf("fully reclaimed pool: err = %v, want the week-long-stall report", err)
	}
}

// TestSchedulerSubmitTypedErrors: each rejection at the submit path
// wraps its sentinel — duplicate ID, invalid spec (also from Validate on
// its own), and submission after Drain.
func TestSchedulerSubmitTypedErrors(t *testing.T) {
	s := newFarm(idlePool(), FIFO, 1)
	ok := JobSpec{ID: "x", Method: "lb2d", JX: 1, JY: 1, Side: 4, Steps: 1}
	if _, err := s.Submit(ok, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(ok, nil); !errors.Is(err, ErrDuplicateID) {
		t.Errorf("duplicate ID: err = %v, want ErrDuplicateID", err)
	}
	if _, err := s.Submit(JobSpec{ID: "bad", Method: "nope", JX: 1, JY: 1, Side: 4, Steps: 1}, nil); !errors.Is(err, ErrInvalidSpec) {
		t.Errorf("invalid spec: err = %v, want ErrInvalidSpec", err)
	}
	if err := (JobSpec{ID: "neg", Method: "lb2d", JX: 1, JY: 1, Side: 4, Steps: 1, Submit: -1}).Validate(); !errors.Is(err, ErrInvalidSpec) {
		t.Errorf("Validate: err = %v, want ErrInvalidSpec", err)
	}
	s.Drain()
	if _, err := s.Submit(JobSpec{ID: "late", Method: "lb2d", JX: 1, JY: 1, Side: 4, Steps: 1}, nil); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after Drain: err = %v, want ErrClosed", err)
	}
}

// TestSubmitValidation covers the spec checks and duplicate IDs.
func TestSubmitValidation(t *testing.T) {
	s := newFarm(idlePool(), FIFO, 1)
	bad := []JobSpec{
		{},
		{ID: "x", Method: "nope", JX: 1, JY: 1, Side: 4, Steps: 1},
		{ID: "x", Method: "lb3d", JX: 1, JY: 1, Side: 4, Steps: 1},             // 3D needs JZ
		{ID: "x", Method: "lb2d", JX: 1, JY: 1, JZ: 2, Side: 4, Steps: 1},      // 2D with JZ
		{ID: "x", Method: "lb2d", JX: 0, JY: 1, Side: 4, Steps: 1},             // bad decomp
		{ID: "x", Method: "lb2d", JX: 1, JY: 1, Side: 0, Steps: 1},             // bad side
		{ID: "x", Method: "lb2d", JX: 1, JY: 1, Side: 4, Steps: 0},             // bad steps
		{ID: "x", Method: "lb2d", JX: 1, JY: 1, Side: 4, Steps: 1, Submit: -1}, // negative arrival
		{ID: "a/b", Method: "lb2d", JX: 1, JY: 1, Side: 4, Steps: 1},           // ID with path separator
		{ID: `a\b`, Method: "lb2d", JX: 1, JY: 1, Side: 4, Steps: 1},           // ID with path separator
		{ID: "..", Method: "lb2d", JX: 1, JY: 1, Side: 4, Steps: 1},            // ID escaping the ckpt dir
	}
	for i, sp := range bad {
		if _, err := s.Submit(sp, nil); !errors.Is(err, ErrInvalidSpec) {
			t.Errorf("bad spec %d: err = %v, want ErrInvalidSpec (%+v)", i, err, sp)
		}
	}
	ok := JobSpec{ID: "x", Method: "lb2d", JX: 1, JY: 1, Side: 4, Steps: 1}
	if _, err := s.Submit(ok, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(ok, nil); err == nil {
		t.Error("duplicate ID accepted")
	}
}

// TestPolicyNames round-trips the policy names the farm experiment uses.
func TestPolicyNames(t *testing.T) {
	for _, pol := range []Policy{FIFO, Priority, WeightedFair} {
		got, err := ParsePolicy(pol.String())
		if err != nil || got != pol {
			t.Errorf("ParsePolicy(%q) = %v, %v", pol.String(), got, err)
		}
	}
	if _, err := ParsePolicy("nope"); err == nil {
		t.Error("unknown policy accepted")
	}
}

// TestSpecWorkload sanity-checks the spec arithmetic.
func TestSpecWorkload(t *testing.T) {
	s2 := JobSpec{ID: "a", Method: "lb2d", JX: 3, JY: 2, Side: 10, Steps: 1}
	if s2.Ranks() != 6 || s2.Is3D() {
		t.Errorf("2D spec arithmetic: ranks %d 3d %v", s2.Ranks(), s2.Is3D())
	}
	s3 := JobSpec{ID: "b", Method: "fd3d", JX: 2, JY: 2, JZ: 3, Side: 4, Steps: 1}
	if s3.Ranks() != 12 || !s3.Is3D() {
		t.Errorf("3D spec arithmetic: ranks %d 3d %v", s3.Ranks(), s3.Is3D())
	}
}

// TestComputeTimerHeterogeneous: under the uniform (zero) shape the step
// runs at the slowest rank's pace.
func TestComputeTimerHeterogeneous(t *testing.T) {
	spec := JobSpec{ID: "a", Method: "lb2d", JX: 2, JY: 1, Side: 10, Steps: 1}
	hosts := []*cluster.Host{
		cluster.NewHost("fast", cluster.HP715),
		cluster.NewHost("slow", cluster.HP710),
	}
	sec, err := ComputeTimer(spec, decomp.Shape{}, hosts)
	if err != nil {
		t.Fatal(err)
	}
	want := 100.0 / hosts[1].Speed("lb2d")
	if math.Abs(sec-want) > 1e-12 {
		t.Errorf("step = %v, want the 710's pace %v", sec, want)
	}
}

// TestNextTick pins the tick arithmetic Run's three periodic sources
// (scenario, autoscale, checkpoint) share: the first multiple of the
// period strictly after t.
func TestNextTick(t *testing.T) {
	for _, c := range []struct{ t, every, want time.Duration }{
		{0, time.Minute, time.Minute},
		{time.Minute, time.Minute, 2 * time.Minute}, // on a boundary: the next one, never t itself
		{90 * time.Second, time.Minute, 2 * time.Minute},
		{time.Second, time.Hour, time.Hour}, // period longer than the farm has run
		{3*time.Minute - 1, time.Minute, 3 * time.Minute},
	} {
		if got := nextTick(c.t, c.every); got != c.want {
			t.Errorf("nextTick(%v, %v) = %v, want %v", c.t, c.every, got, c.want)
		}
	}
}
