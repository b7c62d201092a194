package sched

import (
	"cmp"
	"container/heap"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"repro/internal/ckpt"
	"repro/internal/cluster"
	"repro/internal/sched/metrics"
)

// Scheduler admits, queues, places, runs and preempts many jobs on one
// shared cluster. It is a long-running online farm: Submit works before
// and during Run, the event loop idles (blocking, with virtual time
// frozen) while the farm is empty, and Close drains it for a clean
// shutdown. Scheduling itself is single-threaded and runs in the
// cluster's virtual time: the loop jumps between arrivals, completions
// and scenario ticks, so a trace replays deterministically for a fixed
// seed regardless of how fast the attached workloads really compute.
type Scheduler struct {
	Cluster *cluster.Cluster
	Policy  Policy
	// Timer prices one integration step per placement or migration;
	// defaults to ComputeTimer, and PerfTimer adds the network. A price
	// that is not finite and positive fails the run.
	Timer StepTimer
	// Backfill lets jobs behind a blocked queue head run in the gaps its
	// ranks cannot fill. The default is BackfillEASY: a backfilled job
	// must finish before the head's projected start, so a steady stream
	// of small jobs cannot starve a wide head. BackfillAggressive drops
	// that reservation (the pre-EASY behaviour); BackfillNone enforces
	// strict head-of-line order.
	Backfill BackfillMode
	// Events, when set, receives every structured Event of the
	// scheduling rounds — admissions, placements, backfills,
	// preemptions, migrations, completions, host reclaims, checkpoint
	// commits, EASY degrades — synchronously on the scheduling
	// goroutine, in a deterministic order for a fixed seed. The hook
	// must not block: the public farm package fans the stream out to
	// subscribers through bounded buffers. Set it before Run.
	Events func(Event)

	// Scenario, when set, is invoked on the scheduling goroutine at
	// every multiple of ScenarioEvery of virtual time while the farm has
	// work, before completions are retired. Experiments script user
	// activity through it — reclaim storms via Cluster.Reclaim /
	// Cluster.UserGone — and may Submit new jobs (live arrivals).
	Scenario      func(t time.Duration, c *cluster.Cluster)
	ScenarioEvery time.Duration

	// Autoscale, when set, is invoked on the scheduling goroutine at
	// every multiple of AutoscaleEvery of virtual time while the farm
	// has work, right after the scenario tick (so the control loop sees
	// the scripted user activity of the same instant). The callback
	// samples the farm through the control handle and actuates resize
	// decisions through it — the analyzer -> decision -> actuator
	// pipeline lives in farm/autoscale; this hook is only its
	// deterministic clock.
	Autoscale      func(t time.Duration, ctl AutoscaleControl)
	AutoscaleEvery time.Duration

	// CheckpointEvery, when positive, makes the event loop persist the
	// whole farm into CheckpointDir at every multiple of it in virtual
	// time (while the farm has work), so a crashed coordinator loses at
	// most one interval. CheckpointGap paces the per-rank dump writes
	// (the section-5.2 inter-save gap); zero writes back to back.
	// Restore does not re-arm these — re-set them (like Scenario) before
	// resuming a restored farm.
	CheckpointEvery time.Duration
	CheckpointDir   string
	CheckpointGap   time.Duration

	// selection holds the section-4.1 thresholds of capacity checks and
	// reservations, migration the section-5.1 trigger; New fixes both.
	selection cluster.SelectionPolicy
	migration cluster.MigrationPolicy

	rng      *rand.Rand
	src      *SplitMix // rng's source, persisted by Checkpoint
	queue    []*jobState
	running  []*jobState
	finished []*jobState
	reclaims int
	// easyDegraded counts the scheduling rounds whose EASY shadow was
	// incomputable, so backfill explicitly fell back to aggressive.
	easyDegraded int

	// start anchors the farm-relative clock: the first Run sets it to
	// the cluster time it was entered at, unless Restore pre-set it to
	// the original run's anchor so a restored farm continues on the same
	// clock. Later Runs of the same farm keep the anchor — every job
	// time (Submit, PlacedAt, FinishAt) is relative to it, so a farm
	// resumed after an interrupt must not re-base them.
	start    time.Duration
	anchored bool
	restored bool
	// ckptSeq numbers the save generations inside CheckpointDir; each
	// Checkpoint writes into a fresh states-<seq> directory so a crash
	// mid-save never damages the last committed checkpoint.
	ckptSeq int

	// mu guards the fields shared with Submit/Close callers on other
	// goroutines; everything else is owned by the Run loop.
	mu          sync.Mutex
	pending     arrivals // submitted, not yet admitted to the queue
	submitted   int      // jobs ever put on pending; the next one's seq
	ids         map[string]bool
	closed      bool
	looping     bool
	interrupted bool
	// ckptOnInterrupt makes the interrupted Run persist the farm into
	// CheckpointDir before returning ErrInterrupted — the
	// context-cancellation path of the public farm API.
	ckptOnInterrupt bool
	runFailed       bool // last Run exited with an error, reservations still held
	wake            chan struct{}
	// resizeReqs queues RequestResize calls for the event loop, which
	// drains them at the current virtual time each iteration.
	resizeReqs []resizeReq

	// servedByUser accumulates virtual service time per tenant, the
	// WeightedFair bookkeeping.
	servedByUser map[string]time.Duration
}

// New builds a scheduler over the cluster with the default selection and
// migration policies, the compute-only step timer, EASY backfill, and a
// seeded RNG for the randomized placement scan.
func New(c *cluster.Cluster, policy Policy, seed int64) *Scheduler {
	src := NewSplitMix(seed)
	return &Scheduler{
		Cluster:      c,
		Policy:       policy,
		selection:    cluster.DefaultPolicy(),
		migration:    cluster.DefaultMigrationPolicy(),
		Timer:        ComputeTimer,
		Backfill:     BackfillEASY,
		rng:          rand.New(src),
		src:          src,
		ids:          make(map[string]bool),
		wake:         make(chan struct{}, 1),
		servedByUser: make(map[string]time.Duration),
	}
}

// Submit queues a job. A nil workload replays the spec without running a
// simulation (NullWorkload). Submit is safe from any goroutine and works
// while Run is active: a live submission whose arrival time has already
// passed on the farm clock is admitted at the current virtual time.
//
// Rejections are typed and checkable with errors.Is: ErrInvalidSpec
// wraps every spec-validation failure, ErrNoCapacity flags a job that
// needs more ranks than the pool has hosts (it could never be placed,
// so it is refused here instead of stalling the farm later), ErrClosed
// flags submissions after Close, and ErrDuplicateID a reused job ID.
func (s *Scheduler) Submit(spec JobSpec, w Workload) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	if n := spec.Ranks(); n > len(s.Cluster.Hosts) {
		return fmt.Errorf("sched: submit %s: %d ranks on a %d-host pool: %w",
			spec.ID, n, len(s.Cluster.Hosts), ErrNoCapacity)
	}
	if w == nil {
		w = NullWorkload{}
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("sched: submit %s: %w", spec.ID, ErrClosed)
	}
	if s.ids[spec.ID] {
		s.mu.Unlock()
		return fmt.Errorf("sched: submit %q: %w", spec.ID, ErrDuplicateID)
	}
	s.ids[spec.ID] = true
	s.arrive(&jobState{spec: spec, work: w, Accounting: ckpt.Accounting{
		Remaining: float64(spec.Steps), FirstStart: -1, Live: s.looping}})
	s.mu.Unlock()
	s.wakeup()
	return nil
}

// Close marks the farm closed to new submissions: Run finishes every job
// already accepted and returns. Safe from any goroutine; Submit after
// Close fails.
//
// After a Run that returned early — a workload failure, a stall, or an
// Interrupt — Close also hands back the reservations the placed jobs
// still hold, so the pool is reusable. It is idempotent: a second Close
// releases nothing twice and never panics. The release happens under the
// scheduler lock and only once a Run has actually exited with an error
// (never while the loop is live), so Close stays safe from any
// goroutine.
func (s *Scheduler) Close() {
	s.mu.Lock()
	s.closed = true
	if s.runFailed && !s.looping {
		for _, js := range s.running {
			if js.res != nil {
				js.res.Release()
				js.res = nil
			}
		}
	}
	s.mu.Unlock()
	s.wakeup()
}

// wakeup nudges an idle Run loop; the buffered token makes the signal
// level-triggered, so it is never lost between the loop's empty-check
// and its block.
func (s *Scheduler) wakeup() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// isClosed reports whether Close was called.
func (s *Scheduler) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// isInterrupted reports whether Interrupt was called.
func (s *Scheduler) isInterrupted() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.interrupted
}

// now returns the farm-relative virtual time.
func (s *Scheduler) now() time.Duration { return s.Cluster.Now() - s.start }

// drained reports whether the farm holds no work at all.
func (s *Scheduler) drained() bool {
	if len(s.queue) > 0 || len(s.running) > 0 {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending) == 0
}

// Run drives the farm: jobs are admitted as their arrival times pass (or
// the moment they are submitted live), reclaimed hosts are vacated by
// migration, and completions retire in virtual time. When the farm goes
// empty the loop blocks until another Submit or Close arrives; after
// Close it returns the metrics summary once everything accepted has
// finished. All reported times are relative to the cluster clock at the
// call.
func (s *Scheduler) Run() (sum metrics.Summary, err error) {
	if s.CheckpointEvery > 0 && s.CheckpointDir == "" {
		return metrics.Summary{}, fmt.Errorf("sched: CheckpointEvery set without a CheckpointDir")
	}
	s.mu.Lock()
	// An interrupted farm may Run again — unless Close already finalized
	// it: Close after a failed Run hands the placed jobs' reservations
	// back to the pool, so those jobs can no longer be completed or
	// migrated in memory. Refuse cleanly here instead of panicking on a
	// nil reservation rounds later. The check lives in the same critical
	// section that raises looping, so it serializes with Close's
	// !looping finalize path.
	for _, js := range s.running {
		if js.res == nil {
			s.mu.Unlock()
			return metrics.Summary{}, fmt.Errorf(
				"sched: running job %s holds no reservation (Close finalized this farm after an interrupted run); Restore from a checkpoint instead of re-running",
				js.spec.ID)
		}
	}
	if s.restored {
		// A restored farm continues on the interrupted run's clock.
		s.restored = false
	} else if !s.anchored {
		s.start = s.Cluster.Now()
	}
	s.anchored = true
	s.looping = true
	s.runFailed = false
	s.mu.Unlock()
	now := s.now
	defer func() {
		// Flag an early exit in the same critical section that retires
		// the loop, so a concurrent Close never observes the loop gone
		// without also seeing whether reservations need handing back.
		s.mu.Lock()
		s.looping = false
		s.runFailed = err != nil
		s.mu.Unlock()
	}()
	stallSince := time.Duration(-1)
	for {
		if s.isInterrupted() {
			return metrics.Summary{}, s.interruptExit()
		}
		t := now()
		s.admit(t)
		if err := s.handleReclaims(t); err != nil {
			return metrics.Summary{}, err
		}
		s.handleResizeRequests(t)
		if err := s.scheduleRound(t); err != nil {
			return metrics.Summary{}, err
		}
		if s.drained() {
			if s.isClosed() {
				break
			}
			// Idle: no work anywhere and the farm is still open. Block
			// until a submission or Close arrives; virtual time stands
			// still while nobody is computing.
			<-s.wake
			continue
		}
		next, ok := s.nextEvent()
		if !ok {
			// Nothing running and no arrivals due: the queue is blocked
			// on host conditions (user load, idle thresholds). Let
			// virtual time pass so loads decay and users go idle; give
			// up after a simulated week without progress.
			next = t + time.Minute
			if stallSince < 0 {
				stallSince = t
			}
			if t-stallSince > 7*24*time.Hour {
				return metrics.Summary{}, fmt.Errorf("sched: farm stalled for a simulated week with %d jobs queued (pool %d hosts)",
					len(s.queue), len(s.Cluster.Hosts))
			}
		} else {
			stallSince = -1
		}
		// Scenario, autoscale and auto-checkpoint ticks cap the advance so
		// scripted user activity, control-loop samples and periodic saves
		// land at exact virtual times. At one instant they run in that
		// order, then completions retire; the loop top follows (interrupt
		// check, admissions, reclaims, resize requests, placement).
		tick, scale, save := time.Duration(-1), time.Duration(-1), time.Duration(-1)
		if s.Scenario != nil && s.ScenarioEvery > 0 {
			tick = nextTick(t, s.ScenarioEvery)
			next = min(next, tick)
		}
		if s.Autoscale != nil && s.AutoscaleEvery > 0 {
			scale = nextTick(t, s.AutoscaleEvery)
			next = min(next, scale)
		}
		if s.CheckpointEvery > 0 {
			save = nextTick(t, s.CheckpointEvery)
			next = min(next, save)
		}
		if dt := next - t; dt > 0 {
			s.Cluster.Advance(dt)
		}
		t = now()
		if tick >= 0 && t == tick {
			s.Scenario(t, s.Cluster)
			if s.isInterrupted() {
				return metrics.Summary{}, s.interruptExit()
			}
		}
		if scale >= 0 && t == scale {
			s.Autoscale(t, AutoscaleControl{s: s, t: t})
		}
		if save >= 0 && t == save {
			if err := s.Checkpoint(s.CheckpointDir); err != nil {
				return metrics.Summary{}, fmt.Errorf("sched: auto-checkpoint at %v: %w", t, err)
			}
		}
		if err := s.complete(t); err != nil {
			return metrics.Summary{}, err
		}
	}
	return s.summary(), nil
}

// nextTick returns the first multiple of every strictly after t.
func nextTick(t, every time.Duration) time.Duration {
	return t - t%every + every
}

// arrivals holds the jobs not yet admitted as a min-heap on (Submit,
// seq), so the event loop reads the next arrival off the top instead of
// scanning every job still to come.
type arrivals []*jobState

func (a arrivals) Len() int      { return len(a) }
func (a arrivals) Swap(i, j int) { a[i], a[j] = a[j], a[i] }
func (a arrivals) Less(i, j int) bool {
	return cmp.Or(cmp.Compare(a[i].spec.Submit, a[j].spec.Submit), cmp.Compare(a[i].seq, a[j].seq)) < 0
}
func (a *arrivals) Push(x any) { *a = append(*a, x.(*jobState)) }
func (a *arrivals) Pop() any {
	js := (*a)[len(*a)-1]
	*a = (*a)[:len(*a)-1]
	return js
}

// arrive numbers the job and puts it on pending, under s.mu (or in Restore, before s is shared).
func (s *Scheduler) arrive(js *jobState) {
	js.seq = s.submitted
	s.submitted++
	heap.Push(&s.pending, js)
}

func bySeq(jobs []*jobState) {
	slices.SortFunc(jobs, func(a, b *jobState) int { return cmp.Compare(a.seq, b.seq) })
}

// admit moves every job whose arrival time has passed into the queue, in
// submission order. A live submission's arrival is clamped to the current
// farm time, so its queue wait never counts time before it existed.
func (s *Scheduler) admit(t time.Duration) {
	s.mu.Lock()
	var admitted []*jobState
	for len(s.pending) > 0 && s.pending[0].spec.Submit <= t {
		js := heap.Pop(&s.pending).(*jobState)
		if js.Live && js.spec.Submit < t {
			js.spec.Submit = t
		}
		admitted = append(admitted, js)
	}
	bySeq(admitted)
	s.queue = append(s.queue, admitted...)
	s.mu.Unlock()
	// Emit outside the lock: the Events hook may fan out to subscriber
	// bookkeeping of its own.
	for _, js := range admitted {
		s.emit(JobQueued{T: t, ID: js.spec.ID})
	}
}

// nextEvent returns the earliest upcoming arrival or completion.
func (s *Scheduler) nextEvent() (time.Duration, bool) {
	best := time.Duration(-1)
	s.mu.Lock()
	if len(s.pending) > 0 {
		best = s.pending[0].spec.Submit
	}
	s.mu.Unlock()
	for _, js := range s.running {
		if best < 0 || js.FinishAt < best {
			best = js.FinishAt
		}
	}
	return best, best >= 0
}

// complete retires every running job whose virtual finish time has
// arrived, letting the workload drain and releasing the hosts.
func (s *Scheduler) complete(t time.Duration) error {
	for i := 0; i < len(s.running); {
		js := s.running[i]
		if js.FinishAt > t {
			i++
			continue
		}
		s.creditService(js, js.FinishAt-js.PlacedAt)
		js.Remaining = 0
		js.DoneAt = js.FinishAt
		if err := js.work.Finish(); err != nil {
			return fmt.Errorf("sched: finishing %s: %w", js.spec.ID, err)
		}
		js.res.Release()
		js.res = nil
		s.running = append(s.running[:i], s.running[i+1:]...)
		s.finished = append(s.finished, js)
		s.emit(JobFinished{T: js.DoneAt, ID: js.spec.ID, Job: metricsJob(js)})
	}
	return nil
}

// summary converts the finished jobs into the metrics report.
func (s *Scheduler) summary() metrics.Summary {
	jobs := make([]metrics.Job, len(s.finished))
	for i, js := range s.finished {
		jobs[i] = metricsJob(js)
	}
	sum := metrics.Summarize(jobs, len(s.Cluster.Hosts))
	sum.Reclaims = s.reclaims
	sum.EASYDegraded = s.easyDegraded
	return sum
}

// Phase is where a job currently sits in the farm lifecycle.
type Phase int

const (
	// PhasePending: submitted, arrival time not yet reached.
	PhasePending Phase = iota
	// PhaseQueued: admitted, waiting for placement.
	PhaseQueued
	// PhaseRunning: placed on a reservation.
	PhaseRunning
	// PhaseFinished: completed; its metrics record is final.
	PhaseFinished
)

func (p Phase) String() string {
	switch p {
	case PhasePending:
		return "pending"
	case PhaseQueued:
		return "queued"
	case PhaseRunning:
		return "running"
	case PhaseFinished:
		return "finished"
	}
	return fmt.Sprintf("Phase(%d)", int(p))
}

// JobInfo is one job's identity and phase, with its metrics record once
// finished.
type JobInfo struct {
	ID         string
	Phase      Phase
	Metrics    metrics.Job
	HasMetrics bool
}

// Jobs lists every job the farm has accepted with its current phase —
// pending first, then queue order, running, finished. It reads the
// loop-owned lists, so call it only while Run is not active (the public
// farm package uses it to rebuild job handles after Restore); during a
// run, track the event stream instead.
func (s *Scheduler) Jobs() []JobInfo {
	var infos []JobInfo
	for p, jobs := range s.byPhase() {
		for _, js := range jobs {
			info := JobInfo{ID: js.spec.ID, Phase: Phase(p)}
			if info.Phase == PhaseFinished {
				info.Metrics, info.HasMetrics = metricsJob(js), true
			}
			infos = append(infos, info)
		}
	}
	return infos
}

// byPhase lists every job the farm holds, indexed by Phase: pending in
// submission order, then the queue, running and finished lists in order.
func (s *Scheduler) byPhase() [4][]*jobState {
	s.mu.Lock()
	pending := slices.Clone([]*jobState(s.pending))
	s.mu.Unlock()
	bySeq(pending)
	return [4][]*jobState{pending, s.queue, s.running, s.finished}
}
