// Package farm is the supported public surface for running a
// simulation farm: many queued jobs sharing one virtual workstation
// pool, with admission, capacity-aware placement, EASY backfill,
// migration-based preemption, host-reclaim migration, durable
// checkpointing and crash recovery. It wraps the internal scheduler
// behind a stable control-plane API — functional-option construction,
// typed job handles, sentinel errors, context-aware lifecycle and a
// structured event stream — so the internals can keep evolving freely
// underneath it.
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
// fast the attached workloads really compute.
//
// The boundary this package draws is intra-module: consumers inside
// this repository (experiments, tests, future subsystems) compile
// against farm only, never against internal/sched, so the scheduler's
// internals can keep evolving freely. The data types are deliberately
// re-exported as aliases — farm is a control-plane surface, not a
// serialization layer — and the pool entry points (Cluster,
// NewPaperCluster) are re-exported so the common path needs no
// internal import; richer pool construction still lives in
// internal/cluster.
package farm

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/cluster"
	"repro/internal/sched"
)

// Farm is one simulation farm: a scheduler over a shared cluster plus
// the handle, subscription and lifecycle bookkeeping of the public API.
// Build it with New or Restore.
type Farm struct {
	s *sched.Scheduler

	mu   sync.Mutex
	jobs map[string]*Job
	subs []*Subscription
	// run is the current run generation: its done channel is closed when
	// that Run returns, with err valid from then on. It exists from
	// construction (and is recycled at the next Run) so a Wait that
	// starts before Run still observes the run ending, and a Wait that
	// wakes on a superseded generation re-waits on the new one.
	run *runState
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
	cfg := newConfig(opts)
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := sched.New(c, cfg.policy, cfg.seed)
	cfg.apply(s)
	return wrap(s), nil
}

// Restore rebuilds a farm from a checkpoint directory written by a
// previous farm's checkpointing (periodic, scenario-driven, or the
// cancellation path of Run): the cluster — an identically shaped,
// typically freshly built pool — is overwritten from the manifest's
// snapshot, every job is reconstructed in its checkpointed phase (with
// handles: Farm.Job finds them, and finished jobs already carry their
// metrics), real workloads are rebuilt through the registry, and the
// restored Run finishes bit-identically to one that never crashed.
//
// Policy, backfill mode and RNG state belong to the manifest, so
// WithPolicy, WithBackfill and WithSeed are rejected here. Scenario,
// timer and checkpoint options are not persisted (function pointers and
// operator-local paths); re-attach them exactly as originally
// configured, or the restored run's virtual-time grid — and with it the
// bit-identity guarantee — changes. Subscriptions do not survive a
// coordinator either: Subscribe on the restored farm before Run to
// re-attach; the stream continues with exactly the events the dead
// coordinator had not yet emitted.
func Restore(dir string, c *cluster.Cluster, reg WorkloadRegistry, opts ...Option) (*Farm, error) {
	cfg := newConfig(opts)
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.policySet || cfg.backfillSet || cfg.seedSet {
		return nil, fmt.Errorf("farm: restore: policy, backfill and seed come from the checkpoint manifest; drop WithPolicy/WithBackfill/WithSeed")
	}
	s, err := sched.Restore(dir, c, reg)
	if err != nil {
		return nil, err
	}
	cfg.apply(s)
	f := wrap(s)
	for _, info := range s.Jobs() {
		j := newJob(f, info.ID)
		j.status = info.Phase // Status is the scheduler's Phase
		if info.Phase == sched.PhaseFinished {
			j.rec, j.hasRec = info.Metrics, true
			close(j.done)
		}
		f.jobs[info.ID] = j
	}
	return f, nil
}

// wrap builds the public farm around a configured scheduler and wires
// the event dispatch.
func wrap(s *sched.Scheduler) *Farm {
	f := &Farm{s: s, jobs: make(map[string]*Job), run: &runState{done: make(chan struct{})}}
	s.Events = f.dispatch
	return f
}

// Submit queues a job and returns its handle. A nil workload replays
// the spec in virtual time without running a simulation. Submit is safe
// from any goroutine and works while Run is active (live submissions
// are admitted at the current virtual time). Rejections are typed:
// branch with errors.Is against ErrInvalidSpec, ErrNoCapacity,
// ErrClosed and ErrDuplicateID — the sentinels are the contract; the
// error strings are diagnostics and not stable across releases.
func (f *Farm) Submit(spec JobSpec, w Workload) (*Job, error) {
	j := newJob(f, spec.ID)
	// Register the handle before the scheduler can emit events for the
	// job: a live submission may be admitted (and finish) while Submit
	// is still returning.
	f.mu.Lock()
	if f.jobs[spec.ID] != nil {
		f.mu.Unlock()
		return nil, fmt.Errorf("farm: submit %q: %w", spec.ID, ErrDuplicateID)
	}
	f.jobs[spec.ID] = j
	f.mu.Unlock()
	if err := f.s.Submit(spec, w); err != nil {
		f.mu.Lock()
		delete(f.jobs, spec.ID)
		f.mu.Unlock()
		return nil, err
	}
	return j, nil
}

// Job returns the handle of a previously submitted (or restored) job.
func (f *Farm) Job(id string) (*Job, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	j, ok := f.jobs[id]
	return j, ok
}

// Drain closes the farm to new submissions: Run finishes every job
// already accepted and returns. Safe from any goroutine; Submit after
// Drain fails with ErrClosed.
//
// Draining after a Run returned with an error also finalizes the farm:
// the interrupted jobs' reservations are handed back to the pool, so a
// later Run reports an error instead of resuming — use Restore to
// continue from a checkpoint. To resume in memory instead, call Run
// again without draining in between.
func (f *Farm) Drain() { f.s.Close() }

// Interrupt aborts a running event loop without draining it: Run
// returns an error wrapping ErrInterrupted at its next check,
// abandoning the in-memory farm the way a coordinator crash would.
// Pair it with Checkpoint (from a scenario callback) to script crash
// experiments; prefer cancelling Run's context for graceful shutdown.
func (f *Farm) Interrupt() { f.s.Interrupt() }

// Checkpoint persists the whole farm into dir — every job's accounting
// and rank states, queue order, RNG state, fair-share credit and a full
// cluster snapshot — committed atomically, so a crash at any point
// leaves the previous complete checkpoint restorable by Restore. It
// must run on the scheduling goroutine: either before Run starts, after
// it returns, or from a scenario callback at an exact virtual time
// (periodic saves are WithCheckpoint's job).
func (f *Farm) Checkpoint(dir string) error { return f.s.Checkpoint(dir) }

// Run drives the farm: jobs are admitted as their arrival times pass,
// reclaimed hosts are vacated by migration, completions retire in
// virtual time, and the loop blocks (virtual time frozen) whenever the
// farm is empty and still open. After Drain it returns the metrics
// summary once everything accepted has finished.
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
	f.mu.Lock()
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
	f.mu.Unlock()

	// An already-canceled context stops the run at its first check,
	// deterministically; the watcher goroutine handles cancellation
	// arriving mid-run.
	if ctx.Err() != nil {
		f.s.InterruptCheckpoint()
	}
	stop := make(chan struct{})
	watcherDone := make(chan struct{})
	//detlint:allow entropy -- the watcher only forwards ctx cancellation to InterruptCheckpoint, which the scheduler applies at its next step boundary; it cannot reorder scheduler decisions
	go func() {
		defer close(watcherDone)
		select {
		case <-ctx.Done():
			f.s.InterruptCheckpoint()
		case <-stop:
		}
	}()
	sum, err := f.s.Run()
	close(stop)
	<-watcherDone
	if ctx.Err() != nil {
		// The watcher may have fired just as the loop exited on its own;
		// a stale, unconsumed interrupt must not poison the next Run.
		f.s.ClearInterrupt()
	}
	if errors.Is(err, ErrInterrupted) && ctx.Err() != nil {
		// Wrap both chains: errors.Is finds the context cause, and a
		// failed cancellation checkpoint stays diagnosable through the
		// scheduler's error.
		err = fmt.Errorf("farm: run canceled: %w (%w)", context.Cause(ctx), err)
	}

	f.mu.Lock()
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
	f.mu.Unlock()
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
	opts := []Option{WithPolicy(policy), WithSeed(seed)}
	if timer != nil {
		opts = append(opts, WithTimer(timer))
	}
	f, err := New(c, opts...)
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
