// Package farm runs a simulation farm: many queued jobs sharing one
// virtual workstation pool, with admission, capacity-aware placement,
// EASY backfill, migration-based preemption, host-reclaim migration,
// durable checkpointing and crash recovery, behind a control-plane API
// of functional options, typed job handles, sentinel errors, a
// context-aware lifecycle and a structured event stream.
//
// The paper (section 5.1) prescribes process migration so a single
// parallel job can vacate a workstation its owner reclaims. The farm
// reuses that exact machinery as a scheduling primitive: preempting a
// low-priority job is Job.Suspend — every rank synchronizes, dumps its
// state and exits — and resuming it later is Job.Resume, so a preempted
// simulation still produces bit-identical results to an undisturbed run.
//
// Placement extends cluster.SelectFree into a reservation API
// (cluster.Reserve): host slots are claimed per job and released on
// completion or preemption, and the greedy scan order is re-randomized
// every round — within the section-4.1 preference tiers — following Lee &
// Wright's observation that random permutations avoid the adversarial
// worst cases a fixed cyclic order admits.
//
// A farm is built over a cluster with functional options:
//
//	pool := cluster.NewPaperCluster()
//	f := farm.New(pool,
//		farm.WithPolicy(farm.Priority),
//		farm.WithSeed(42),
//		farm.WithCheckpoint(dir, 4*time.Minute, 0))
//
// Submit returns a typed *Job handle whose Wait, Status and Metrics
// track the job through the farm; rejections are sentinel errors
// (ErrClosed, ErrDuplicateID, ErrNoCapacity, ErrInvalidSpec) checkable
// with errors.Is. Every job is submitted before Run, as on the paper's
// one workstation (section 4.1) the job-submit program runs before the
// monitoring one: Run closes the farm to submissions as it starts and
// returns once every accepted job has finished. It drives the event
// loop under a context, and cancelling that context is the one way to
// stop it: the farm is checkpointed into the WithCheckpoint directory,
// when one is configured, and the loop returns. SubscribeBuffered yields
// the structured event stream of every scheduling decision, in a
// deterministic order for a fixed seed.
//
// Once Run has begun, its event loop owns every piece of scheduling
// state and takes no lock: it reads the context's cancellation at its
// checks, and a running job is resized from the WithAutoscaler control
// tick. A farm runs once: when Run returns, for any reason, its
// subscriptions end. Continuing after a cancellation is Restore from a
// checkpoint, as it is for the paper's one submitting and monitoring
// workstation (section 4.1) after a crash.
//
// Everything runs in the cluster's virtual time, so multi-job traces —
// and their event streams — replay deterministically regardless of how
// fast the attached workloads really compute: job runtimes come from a
// StepTimer, either the compute-only host-speed estimate or the perf
// discrete-event engine (PerfTimer), which replays each job's
// halo-exchange pattern over the modelled network. The metrics (queue
// wait, makespan, utilization, preemptions, backfills) are aggregated by
// internal/metrics. The pool entry points (Cluster, NewPaperCluster) are
// re-exported so the common path needs no internal import; richer pool
// construction lives in internal/cluster.
package farm

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/ckpt"
	"repro/internal/cluster"
)

// Farm is one simulation farm: it admits, queues, places, runs and
// preempts many jobs on one shared cluster. It takes its jobs before
// it runs: Submit queues them, each with its arrival time, and Run
// closes the farm to submissions, then plays them out until every one
// has finished. It runs once. Scheduling itself is single-threaded and
// runs in the cluster's virtual time: the loop jumps between arrivals,
// completions and scenario ticks. Build it with New or Restore.
type Farm struct {
	cluster *cluster.Cluster
	policy  Policy

	// The knobs the With* options set; each is documented there.
	backfill       BackfillMode
	timer          StepTimer
	scenario       func(t time.Duration, c *cluster.Cluster)
	scenarioEvery  time.Duration
	autoscale      func(t time.Duration, ctl AutoscaleControl)
	autoscaleEvery time.Duration
	ckptDir        string
	ckptEvery      time.Duration
	ckptGap        time.Duration

	// selection holds the section-4.1 thresholds of capacity checks and
	// reservations, migration the section-5.1 trigger; prepare fixes both.
	selection cluster.SelectionPolicy
	migration cluster.MigrationPolicy

	rng      *rand.Rand
	src      *RNG // rng's source, persisted by checkpoint
	queue    []*jobState
	running  []*jobState
	finished []*jobState
	reclaims int
	// easyDegraded counts the scheduling rounds whose EASY shadow was
	// incomputable, so backfill explicitly fell back to aggressive.
	easyDegraded int
	// Scratch reused across rounds: projectedStart's running jobs by
	// finish, chooseShape's per-rank host speeds, and handleReclaims'
	// busy hosts of one job (cluster.Migrate does not keep them).
	byFinish []*jobState
	speeds   []float64
	owned    []*cluster.Host

	// start anchors the farm-relative clock: Run sets it to the cluster
	// time it was entered at, unless Restore pre-set it to the original
	// run's anchor (restored) so a restored farm continues on the same
	// clock. Every job time (Submit, PlacedAt, FinishAt) is relative to it.
	start    time.Duration
	restored bool
	// ckptSeq numbers the save generations inside a checkpoint
	// directory; each checkpoint writes into a fresh states-<seq>
	// directory so a crash mid-save never damages the last committed
	// checkpoint.
	ckptSeq int

	// mu guards what Submit, Drain and Job share with Run's entry: the
	// jobs not yet admitted, the handles and the two flags. Run closes the
	// farm as it starts, so from then on nothing writes them but the event
	// loop, which takes no lock.
	mu        sync.Mutex
	pending   arrivals // submitted, not yet admitted to the queue
	submitted int      // jobs ever put on pending; the next one's seq
	jobs      map[string]*Job
	closed    bool // Drain, Run or Restore closed it: Submit fails
	ran       bool // Run was entered: a farm runs once

	// servedByUser accumulates virtual service time per tenant, the
	// WeightedFair bookkeeping.
	servedByUser map[string]time.Duration

	// hmu guards the subscriptions and runErr. subs is only appended to
	// in place (Close and the end of Run replace it), so emit ranges over
	// a copy of it without hmu.
	hmu  sync.Mutex
	subs []*Subscription
	// runDone is closed when Run returns, with runErr valid from then on.
	// It exists from construction, so a Wait or subscription that starts
	// before Run still observes the run ending.
	runDone chan struct{}
	runErr  error
}

// New builds a farm over the cluster. Defaults: FIFO policy, EASY
// backfill, the compute-only step timer, seed 1, no checkpointing, no
// scenario. Override any of them with options.
//
// Misconfigured options are rejected here, wrapping ErrInvalidSpec so
// callers branch with errors.Is — notably a WithScenario whose interval
// is not positive, which would otherwise arm a callback that never
// fires.
func New(c *cluster.Cluster, opts ...Option) (*Farm, error) {
	f := &Farm{policy: FIFO, backfill: BackfillEASY, timer: ComputeTimer}
	for _, o := range opts {
		o(f)
	}
	if err := f.validate(); err != nil {
		return nil, err
	}
	if f.src == nil {
		f.src = NewRNG(1)
	}
	f.prepare(c)
	return f, nil
}

// prepare gives a configured farm its cluster and the state every farm
// starts with.
func (f *Farm) prepare(c *cluster.Cluster) {
	f.cluster = c
	f.selection = cluster.DefaultPolicy()
	f.migration = cluster.DefaultMigrationPolicy()
	f.rng = rand.New(f.src)
	f.servedByUser = make(map[string]time.Duration)
	f.jobs = make(map[string]*Job)
	f.runDone = make(chan struct{})
}

// Submit queues a job and returns its handle. A nil workload replays
// the spec in virtual time without running a simulation. Submit is safe
// from any goroutine, and works until Drain is called or Run begins:
// a farm takes its jobs before it runs.
//
// Rejections are typed: branch with errors.Is against ErrInvalidSpec
// (every spec-validation failure), ErrNoCapacity (more ranks than the
// pool has hosts: no round could ever place the job, so it is refused
// here instead of stalling the farm later), ErrClosed (after Drain or
// once Run has begun) and ErrDuplicateID — the sentinels are the
// contract; the error strings are diagnostics and not stable across
// releases.
func (f *Farm) Submit(spec JobSpec, w Workload) (*Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if n := spec.Ranks(); n > len(f.cluster.Hosts) {
		return nil, fmt.Errorf("farm: submit %s: %d ranks on a %d-host pool: %w",
			spec.ID, n, len(f.cluster.Hosts), ErrNoCapacity)
	}
	if w == nil {
		w = nullWorkload{}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, fmt.Errorf("farm: submit %s: %w", spec.ID, ErrClosed)
	}
	if f.jobs[spec.ID] != nil {
		return nil, fmt.Errorf("farm: submit %q: %w", spec.ID, ErrDuplicateID)
	}
	j := newJob(f, spec.ID)
	f.jobs[spec.ID] = j
	f.arrive(&jobState{spec: spec, work: w, Accounting: ckpt.Accounting{
		Remaining: float64(spec.Steps), FirstStart: -1}})
	return j, nil
}

// Job returns the handle of a previously submitted (or restored) job.
func (f *Farm) Job(id string) (*Job, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	j, ok := f.jobs[id]
	return j, ok
}

// Drain closes the farm to new submissions before Run, which closes it
// anyway as it starts. Safe from any goroutine and idempotent; Submit
// after Drain fails with ErrClosed.
func (f *Farm) Drain() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.closed = true
}

// Run drives the farm: it closes the farm to submissions, then admits
// jobs as their arrival times pass, vacates reclaimed hosts by
// migration and retires completions in virtual time, and returns the
// metrics summary once every accepted job has finished. All reported
// times are relative to the cluster clock Run was entered at (or, on a
// restored farm, the original run's).
//
// A farm runs once. When Run returns, for any reason, every
// subscription ends; a second Run, like a Submit, fails with ErrClosed
// at once. An errored Run releases nothing: its placed jobs keep their
// hosts, as a crashed coordinator's would, and the way to continue is
// Restore from a checkpoint. Cancelling the context, from any goroutine
// or from a WithScenario callback, stops the farm at the loop's next
// check: when a checkpoint directory is configured (WithCheckpoint) the
// farm is persisted first, so the run is restorable, and Run returns an
// error wrapping context.Cause(ctx).
func (f *Farm) Run(ctx context.Context) (Summary, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	f.mu.Lock()
	ran := f.ran
	f.ran, f.closed = true, true
	f.mu.Unlock()
	if ran {
		return Summary{}, fmt.Errorf("farm: run: %w", ErrClosed)
	}

	sum, err := f.loop(ctx)
	f.hmu.Lock()
	f.runErr = err
	subs := f.subs
	f.subs = nil
	close(f.runDone)
	f.hmu.Unlock()
	for _, sub := range subs {
		sub.shut()
	}
	return sum, err
}

// Replay is the trace-replay convenience: it submits every spec without
// a workload and runs the farm to completion — the deterministic
// policy-comparison entry point the experiments use. A nil timer keeps
// the compute-only default.
func Replay(c *cluster.Cluster, policy Policy, seed int64, timer StepTimer, specs []JobSpec) (Summary, error) {
	f, err := New(c, WithPolicy(policy), WithSeed(seed), WithTimer(timer))
	if err != nil {
		return Summary{}, err
	}
	for _, sp := range specs {
		if _, err := f.Submit(sp, nil); err != nil {
			return Summary{}, err
		}
	}
	return f.Run(context.Background())
}
