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
// with errors.Is. Run drives the event loop under a context: cancelling
// the context checkpoints the farm (when a checkpoint directory is
// configured) and interrupts the loop, while Drain closes the farm
// gracefully so Run returns once every accepted job has finished.
// Subscribe yields the structured event stream of every scheduling
// decision, in a deterministic order for a fixed seed.
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
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/ckpt"
	"repro/internal/cluster"
)

// Farm is one simulation farm: it admits, queues, places, runs and
// preempts many jobs on one shared cluster. It is long-running and
// online: Submit works before and during Run, the event loop idles
// (blocking, with virtual time frozen) while the farm is empty, and
// Drain lets it finish. Scheduling itself is single-threaded and runs in
// the cluster's virtual time: the loop jumps between arrivals,
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
	src      *RNG // rng's source, persisted by Checkpoint
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

	// start anchors the farm-relative clock: the first Run sets it to
	// the cluster time it was entered at, unless Restore pre-set it to
	// the original run's anchor so a restored farm continues on the same
	// clock. Later Runs of the same farm keep the anchor — every job
	// time (Submit, PlacedAt, FinishAt) is relative to it, so a farm
	// resumed after an interrupt must not re-base them.
	start    time.Duration
	anchored bool
	restored bool
	// ckptSeq numbers the save generations inside a checkpoint
	// directory; each Checkpoint writes into a fresh states-<seq>
	// directory so a crash mid-save never damages the last committed
	// checkpoint.
	ckptSeq int

	// mu guards the scheduling state shared with Submit, Drain,
	// Interrupt and Job.Resize callers on other goroutines; everything
	// else above is owned by the event loop.
	mu          sync.Mutex
	pending     arrivals // submitted, not yet admitted to the queue
	submitted   int      // jobs ever put on pending; the next one's seq
	closed      bool
	looping     bool
	interrupted bool
	// ckptOnInterrupt makes the interrupted loop persist the farm into
	// ckptDir before returning ErrInterrupted — the context-cancellation
	// path of Run.
	ckptOnInterrupt bool
	runFailed       bool // last Run exited with an error, reservations still held
	wake            chan struct{}
	// resizeReqs queues Job.Resize calls for the event loop, which
	// drains them at the current virtual time each iteration.
	resizeReqs []resizeReq

	// servedByUser accumulates virtual service time per tenant, the
	// WeightedFair bookkeeping.
	servedByUser map[string]time.Duration

	// hmu guards the handle bookkeeping: every accepted job's handle,
	// the subscriptions, and the current run generation. run's done
	// channel is closed when that Run returns, with err valid from then
	// on. It exists from construction (and is recycled at the next Run)
	// so a Wait that starts before Run still observes the run ending,
	// and a Wait that wakes on a superseded generation re-waits on the
	// new one. subs is only appended to in place (Close and a finished
	// Run replace it), so emit ranges over a copy of it without hmu.
	hmu  sync.Mutex
	jobs map[string]*Job
	subs []*Subscription
	run  *runState
}

// runState is one Run generation's termination signal.
type runState struct {
	done chan struct{}
	err  error // valid once done is closed
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
	f.wake = make(chan struct{}, 1)
	f.servedByUser = make(map[string]time.Duration)
	f.jobs = make(map[string]*Job)
	f.run = &runState{done: make(chan struct{})}
}

// Submit queues a job and returns its handle. A nil workload replays
// the spec in virtual time without running a simulation. Submit is safe
// from any goroutine and works while Run is active: a live submission
// whose arrival time has already passed on the farm clock is admitted
// at the current virtual time.
//
// Rejections are typed: branch with errors.Is against ErrInvalidSpec
// (every spec-validation failure), ErrNoCapacity (more ranks than the
// pool has hosts: no round could ever place the job, so it is refused
// here instead of stalling the farm later), ErrClosed (after Drain) and
// ErrDuplicateID — the sentinels are the contract; the error strings are
// diagnostics and not stable across releases.
func (f *Farm) Submit(spec JobSpec, w Workload) (*Job, error) {
	j := newJob(f, spec.ID)
	// Register the handle before the loop can emit events for the job: a
	// live submission may be admitted (and finish) while Submit is still
	// returning.
	f.hmu.Lock()
	if f.jobs[spec.ID] != nil {
		f.hmu.Unlock()
		return nil, fmt.Errorf("farm: submit %q: %w", spec.ID, ErrDuplicateID)
	}
	f.jobs[spec.ID] = j
	f.hmu.Unlock()
	if err := f.submit(spec, w); err != nil {
		f.hmu.Lock()
		delete(f.jobs, spec.ID)
		f.hmu.Unlock()
		return nil, err
	}
	return j, nil
}

// submit validates the spec and puts the job on pending.
func (f *Farm) submit(spec JobSpec, w Workload) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	if n := spec.Ranks(); n > len(f.cluster.Hosts) {
		return fmt.Errorf("farm: submit %s: %d ranks on a %d-host pool: %w",
			spec.ID, n, len(f.cluster.Hosts), ErrNoCapacity)
	}
	if w == nil {
		w = nullWorkload{}
	}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return fmt.Errorf("farm: submit %s: %w", spec.ID, ErrClosed)
	}
	f.arrive(&jobState{spec: spec, work: w, Accounting: ckpt.Accounting{
		Remaining: float64(spec.Steps), FirstStart: -1, Live: f.looping}})
	f.mu.Unlock()
	f.wakeup()
	return nil
}

// Job returns the handle of a previously submitted (or restored) job.
func (f *Farm) Job(id string) (*Job, bool) {
	f.hmu.Lock()
	defer f.hmu.Unlock()
	j, ok := f.jobs[id]
	return j, ok
}

// Drain closes the farm to new submissions: Run finishes every job
// already accepted and returns. Safe from any goroutine; Submit after
// Drain fails with ErrClosed.
//
// Draining after a Run returned with an error — a workload failure, a
// stall, an interrupt — also finalizes the farm: the placed jobs'
// reservations are handed back to the pool, so a later Run reports an
// error instead of resuming — use Restore to continue from a
// checkpoint. To resume in memory instead, call Run again without
// draining in between. Drain is idempotent: a second call releases
// nothing twice. The release happens under the farm's lock and only
// once a Run has actually exited with an error, never while the loop is
// live.
func (f *Farm) Drain() {
	f.mu.Lock()
	f.closed = true
	if f.runFailed && !f.looping {
		for _, js := range f.running {
			if js.res != nil {
				js.res.Release()
				js.res = nil
			}
		}
	}
	f.mu.Unlock()
	f.wakeup()
}

// Run drives the farm: jobs are admitted as their arrival times pass,
// reclaimed hosts are vacated by migration, completions retire in
// virtual time, and the loop blocks (virtual time frozen) whenever the
// farm is empty and still open. After Drain it returns the metrics
// summary once everything accepted has finished. All reported times are
// relative to the cluster clock at the first Run.
//
// Cancelling the context stops the farm: when a checkpoint directory is
// configured (WithCheckpoint) the farm is persisted first, so the run
// is restorable, and Run returns an error wrapping context.Canceled
// (or the context's cause). Run must not be called concurrently with
// itself.
func (f *Farm) Run(ctx context.Context) (Summary, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	f.hmu.Lock()
	select {
	case <-f.run.done:
		// A previous Run already retired; this run is a new generation.
		// Waiters still holding the old one re-check and move over.
		f.run = &runState{done: make(chan struct{})}
	default:
		// First Run: keep the construction-time generation, which
		// waiters that started before Run already hold.
	}
	rs := f.run
	f.hmu.Unlock()

	// An already-canceled context stops the run at its first check,
	// deterministically; the watcher goroutine handles cancellation
	// arriving mid-run.
	if ctx.Err() != nil {
		f.interruptCheckpoint()
	}
	stop := make(chan struct{})
	watcherDone := make(chan struct{})
	//detlint:allow entropy -- the watcher only forwards ctx cancellation to interruptCheckpoint, which the loop applies at its next step boundary; it cannot reorder scheduling decisions
	go func() {
		defer close(watcherDone)
		select {
		case <-ctx.Done():
			f.interruptCheckpoint()
		case <-stop:
		}
	}()
	sum, err := f.loop()
	close(stop)
	<-watcherDone
	if ctx.Err() != nil {
		// The watcher may have fired just as the loop exited on its own;
		// a stale, unconsumed interrupt must not poison the next Run.
		f.clearInterrupt()
	}
	if errors.Is(err, ErrInterrupted) && ctx.Err() != nil {
		// Wrap both chains: errors.Is finds the context cause, and a
		// failed cancellation checkpoint stays diagnosable through the
		// loop's error.
		err = fmt.Errorf("farm: run canceled: %w (%w)", context.Cause(ctx), err)
	}

	f.hmu.Lock()
	rs.err = err
	// A Run only returns nil once the farm is drained and every job has
	// finished — the farm is over for good, so closing the channels ends
	// every subscriber's range loop. An errored Run (interrupt,
	// cancellation, workload failure) may be followed by another, so its
	// subscriptions stay attached and observe the next run.
	var subs []*Subscription
	if err == nil {
		subs = f.subs
		f.subs = nil
	}
	close(rs.done)
	f.hmu.Unlock()
	for _, sub := range subs {
		sub.shut()
	}
	return sum, err
}

// Replay is the trace-replay convenience: it submits every spec without
// a workload, drains the farm and runs it to completion — the
// deterministic policy-comparison entry point the experiments use. A
// nil timer keeps the compute-only default.
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
	f.Drain()
	return f.Run(context.Background())
}
