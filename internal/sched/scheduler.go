package sched

import (
	"cmp"
	"container/heap"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/decomp"
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
	// Select holds the section-4.1 thresholds used for capacity checks
	// and reservations.
	Select cluster.SelectionPolicy
	// Migration holds the section-5.1 trigger deciding when a reserved
	// host has become busy with its regular user's work.
	Migration cluster.MigrationPolicy
	// Timer prices one integration step per placement or migration;
	// defaults to ComputeTimer. Use PerfTimer for network-aware
	// estimates.
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
	// time (Submit, placedAt, finishAt) is relative to it, so a farm
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

// jobState is the scheduler's view of one job.
type jobState struct {
	spec JobSpec
	work Workload
	seq  int // submission sequence number: the tie-break among equal arrivals on pending

	remaining float64 // integration steps left (fractional across preemptions)
	stepSec   float64 // current per-step estimate
	res       *cluster.Reservation
	placedAt  time.Duration
	finishAt  time.Duration

	// shape is the job's per-axis span assignment, fixed at the first
	// placement (speed-weighted when that strictly beats uniform on the
	// mixed pool) and preserved across suspensions and migrations — the
	// rank dumps only fit one geometry. Zero means uniform.
	shape decomp.Shape
	// imbalance is the placement's load-imbalance ratio (slowest rank
	// over perfectly balanced; 1.0 is ideal), refreshed at every pricing.
	imbalance float64

	// curJX/curJY/curJZ is the job's current decomposition lattice after
	// resizes; all zero means the spec's lattice. The spec itself is
	// never mutated — it remains the submitted job — so the effective
	// spec (espec) carries the current lattice with the original grid
	// pinned whenever the scheduler prices or validates a resized job.
	curJX, curJY, curJZ int

	started    bool
	live       bool // submitted while the farm was running
	firstStart time.Duration
	doneAt     time.Duration
	served     time.Duration
	preempts   int
	backfilled bool
	migrations int
	repricings int
	// resizes counts completed resizes; growRanks/shrinkRanks total the
	// ranks added and removed by them.
	resizes     int
	growRanks   int
	shrinkRanks int
}

// resized reports whether the job currently runs a lattice other than
// its spec's.
func (j *jobState) resized() bool { return j.curJX > 0 }

// ranks returns the job's current rank count.
func (j *jobState) ranks() int {
	if !j.resized() {
		return j.spec.Ranks()
	}
	jz := j.curJZ
	if jz < 1 {
		jz = 1
	}
	return j.curJX * j.curJY * jz
}

// espec returns the job's effective spec: the submitted spec until the
// first resize, afterwards a copy carrying the current lattice with the
// original global grid pinned, so every pricing, shape validation and
// rank-count decision measures the same problem on the new rank count.
func (j *jobState) espec() JobSpec {
	if !j.resized() {
		return j.spec
	}
	e := j.spec
	e.GX, e.GY, e.GZ = j.spec.Grid()
	e.JX, e.JY, e.JZ = j.curJX, j.curJY, j.curJZ
	return e
}

// userKey returns the job's tenant; an unnamed user makes the job its
// own tenant.
func (j *jobState) userKey() string {
	if j.spec.User != "" {
		return j.spec.User
	}
	return j.spec.ID
}

// fairShare is the WeightedFair key: the tenant's virtual service time
// per unit weight.
func (s *Scheduler) fairShare(j *jobState) float64 {
	w := j.spec.Weight
	if w <= 0 {
		w = 1
	}
	return s.servedByUser[j.userKey()].Seconds() / w
}

// creditService charges served time to the job and its tenant.
func (s *Scheduler) creditService(j *jobState, d time.Duration) {
	j.served += d
	s.servedByUser[j.userKey()] += d
}

// New builds a scheduler over the cluster with the default selection and
// migration policies, the compute-only step timer, EASY backfill, and a
// seeded RNG for the randomized placement scan.
func New(c *cluster.Cluster, policy Policy, seed int64) *Scheduler {
	src := NewSplitMix(seed)
	return &Scheduler{
		Cluster:      c,
		Policy:       policy,
		Select:       cluster.DefaultPolicy(),
		Migration:    cluster.DefaultMigrationPolicy(),
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
	s.arrive(&jobState{
		spec:       spec,
		work:       w,
		remaining:  float64(spec.Steps),
		firstStart: -1,
		live:       s.looping,
	})
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
		// land at exact virtual times.
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

// pendingInOrder lists the pending jobs in submission order, for Checkpoint and Jobs.
func (s *Scheduler) pendingInOrder() []*jobState {
	s.mu.Lock()
	pending := slices.Clone([]*jobState(s.pending))
	s.mu.Unlock()
	bySeq(pending)
	return pending
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
		if js.live && js.spec.Submit < t {
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

// handleReclaims drains the cluster's host event stream and vacates every
// reserved host whose regular user came back: the displaced ranks migrate
// to replacement hosts through the section-5.1 dump/rebuild path and the
// job is repriced on its new placement, or — when no replacements are
// reservable — the whole job is suspended and requeued. Either way the
// farm never squats beside a returned user.
func (s *Scheduler) handleReclaims(t time.Duration) error {
	for _, ev := range s.Cluster.DrainEvents() {
		if ev.Kind == cluster.EventReclaim {
			s.reclaims++
			s.emit(HostReclaimed{T: ev.At - s.start, Host: ev.Host.Name, Owner: ev.Owner})
		}
	}
	busy := s.Cluster.NeedsMigration(s.Migration)
	if len(busy) == 0 {
		return nil
	}
	byOwner := make(map[string][]*cluster.Host)
	for _, h := range busy {
		byOwner[h.Owner()] = append(byOwner[h.Owner()], h)
	}
	// Iterate over a copy: a fallback suspension mutates s.running.
	for _, js := range append([]*jobState(nil), s.running...) {
		hosts := byOwner[js.spec.ID]
		if len(hosts) == 0 {
			continue
		}
		if err := s.migrateOff(js, hosts, t); err != nil {
			return err
		}
	}
	return nil
}

// migrateOff moves a running job's displaced ranks off the busy hosts and
// reprices the job on the patched placement; without replacement capacity
// it falls back to suspending the whole job.
func (s *Scheduler) migrateOff(js *jobState, busy []*cluster.Host, t time.Duration) error {
	ranks, repl, err := s.Cluster.Migrate(js.res, busy, s.Select, s.rng)
	if errors.Is(err, cluster.ErrShortfall) {
		// Not enough reservable hosts to rehost the displaced ranks: the
		// job checkpoints off the pool entirely and waits in the queue.
		return s.preempt(js, t)
	}
	if err != nil {
		return fmt.Errorf("sched: migrating %s: %w", js.spec.ID, err)
	}
	// Progress so far ran at the old placement's pace; credit it before
	// the new estimate replaces stepSec.
	elapsed := t - js.placedAt
	js.remaining -= elapsed.Seconds() / js.stepSec
	if js.remaining < 0 {
		js.remaining = 0
	}
	s.creditService(js, elapsed)
	if err := js.work.Migrate(ranks, repl); err != nil {
		return fmt.Errorf("sched: migrating %s: %w", js.spec.ID, err)
	}
	// The weighted shape was fixed when the job first dumped; reprice the
	// same geometry on the patched placement.
	sec, err := s.Timer(js.espec(), js.shape, js.res.Hosts)
	if err != nil {
		return err
	}
	imb, err := Imbalance(js.espec(), js.shape, js.res.Hosts)
	if err != nil {
		return err
	}
	js.imbalance = imb
	js.stepSec = sec
	js.placedAt = t
	js.finishAt = t + time.Duration(js.remaining*sec*float64(time.Second))
	js.migrations += len(ranks)
	js.repricings++
	s.emit(JobMigrated{T: t, ID: js.spec.ID, Ranks: append([]int(nil), ranks...),
		Hosts: hostNames(repl), StepSec: sec, Finish: js.finishAt})
	return nil
}

// less orders the queue under the active policy; every policy falls back
// to (Submit, ID) so rounds are deterministic.
func (s *Scheduler) less(a, b *jobState) bool {
	switch s.Policy {
	case Priority:
		if a.spec.Priority != b.spec.Priority {
			return a.spec.Priority > b.spec.Priority
		}
	case WeightedFair:
		if fa, fb := s.fairShare(a), s.fairShare(b); fa != fb {
			return fa < fb
		}
	}
	if a.spec.Submit != b.spec.Submit {
		return a.spec.Submit < b.spec.Submit
	}
	return a.spec.ID < b.spec.ID
}

// scheduleRound places as many queued jobs as capacity (and, under
// Priority, preemption) allows. Each placement re-sorts the queue — a
// placement changes capacity and, under WeightedFair, shares. Under
// BackfillEASY a candidate behind the blocked head must finish before the
// head's projected start (its virtual-finish-time reservation).
func (s *Scheduler) scheduleRound(t time.Duration) error {
	degradeCounted := false
	for {
		sort.SliceStable(s.queue, func(i, j int) bool { return s.less(s.queue[i], s.queue[j]) })
		placed := -1
		shadow, shadowSet := time.Duration(-1), false
		for i, js := range s.queue {
			deadline := time.Duration(-1)
			if i > 0 && s.Backfill == BackfillEASY {
				if !shadowSet {
					shadow = s.projectedStart(s.queue[0])
					shadowSet = true
					if shadow < 0 && !degradeCounted {
						// No reservation is computable for the head:
						// completions alone never free enough usable hosts.
						// Fall back to aggressive backfill for this round —
						// explicitly, so operators can see the head's
						// protection lapse instead of it eroding silently.
						// (The shadow is re-derived after every placement;
						// the round degrades once, however many passes run.)
						degradeCounted = true
						s.easyDegraded++
						s.emit(EASYDegraded{T: t, Head: s.queue[0].spec.ID, Ranks: s.queue[0].ranks()})
					}
				}
				deadline = shadow
			}
			ok, err := s.tryPlace(js, t, deadline)
			if err != nil {
				return err
			}
			if ok {
				placed = i
				break
			}
			if i == 0 && s.Policy == Priority {
				ok, err := s.tryPreempt(js, t)
				if err != nil {
					return err
				}
				if ok {
					placed = 0
					break
				}
			}
			if s.Backfill == BackfillNone {
				break
			}
		}
		if placed < 0 {
			return nil
		}
		js := s.queue[placed]
		s.queue = append(s.queue[:placed], s.queue[placed+1:]...)
		if placed > 0 {
			js.backfilled = true
			s.emit(JobBackfilled{T: t, ID: js.spec.ID, Hosts: hostNames(js.res.Hosts),
				StepSec: js.stepSec, Finish: js.finishAt, Weighted: !js.shape.IsZero()})
		} else {
			s.emit(JobPlaced{T: t, ID: js.spec.ID, Hosts: hostNames(js.res.Hosts),
				StepSec: js.stepSec, Finish: js.finishAt, Weighted: !js.shape.IsZero()})
		}
	}
}

// projectedStart estimates when the blocked queue head could start: the
// earliest virtual time at which enough hosts are reservable, assuming
// every running job returns its hosts at its virtual finish time and
// host conditions stay as they are. The shadow walk counts each
// finishing job's hosts individually — a host whose regular user has
// reclaimed it mid-run, or whose user load sits above the selection
// threshold, does not come back reservable when the job releases it, so
// it must not inflate the head's reservation. (Counting whole rank
// counts, as this walk once did, made the estimate optimistic under
// reclaim storms and silently eroded the head's protection.) It returns
// -1 when running-job completions alone never free enough hosts (the
// head waits on user activity instead) — no reservation is computable
// then, and EASY backfill explicitly degrades to the aggressive mode
// for the round (counted and announced by scheduleRound) until
// conditions change.
func (s *Scheduler) projectedStart(head *jobState) time.Duration {
	free := s.Cluster.Capacity(s.Select)
	need := head.ranks()
	run := append([]*jobState(nil), s.running...)
	sort.SliceStable(run, func(i, j int) bool { return run[i].finishAt < run[j].finishAt })
	for _, r := range run {
		if free >= need {
			break
		}
		for _, h := range r.res.Hosts {
			if h != nil && h.ReservableWhenFree(s.Select) {
				free++
			}
		}
		if free >= need {
			return r.finishAt
		}
	}
	return -1
}

// chooseShape picks a fresh placement's decomposition shape and returns
// it with its per-step price: the speed-weighted shape when it strictly
// beats the uniform one under the scheduler's own step pricing, the
// zero shape (= uniform splitting) otherwise. Comparing with s.Timer —
// not a fixed compute bound — matters under PerfTimer, where a weighted
// shape's longer boundary spans can cost more in halo exchange than its
// balanced compute saves; the comparison guarantees weighting never
// prices a placement worse than the identical-spans split would have,
// whichever timer the farm runs. Equal speeds produce a weighted shape
// bit-identical to the uniform one, so homogeneous pools always fall
// through to uniform. Returning the price lets tryPlace reuse it
// instead of running the timer — a whole discrete-event simulation
// under PerfTimer — a second time on the winning shape.
func (s *Scheduler) chooseShape(spec JobSpec, hosts []*cluster.Host) (decomp.Shape, float64, error) {
	uni := UniformShape(spec)
	if w, err := WeightedShape(spec, hosts); err == nil && !w.Equal(uni) {
		wb, errW := s.Timer(spec, w, hosts)
		ub, errU := s.Timer(spec, uni, hosts)
		if errW == nil && errU == nil && wb < ub {
			return w, wb, nil
		}
		if errU == nil {
			return decomp.Shape{}, ub, nil
		}
		// The uniform pricing itself failed; re-run it below so the
		// caller sees the error exactly as a direct pricing would.
	}
	sec, err := s.Timer(spec, decomp.Shape{}, hosts)
	return decomp.Shape{}, sec, err
}

// tryPlace reserves hosts for the job and starts (or resumes) it. A
// capacity shortfall returns (false, nil); workload failures are fatal.
// A non-negative deadline is an EASY backfill window: the placement is
// abandoned when the job's projected finish would overrun it. The caller
// announces a successful placement: JobPlaced and JobBackfilled differ by
// queue position, which tryPlace does not see.
//
// A job's decomposition shape is decided here, at its first placement:
// the speed-weighted shape when it strictly beats uniform splitting on
// the reserved hosts, uniform otherwise (chooseShape). A job that has
// started before keeps the shape it dumped with — resumptions and
// migrations reprice the same geometry on the new hosts.
func (s *Scheduler) tryPlace(js *jobState, t time.Duration, deadline time.Duration) (bool, error) {
	res, err := s.Cluster.Reserve(js.spec.ID, js.ranks(), s.Select, s.rng)
	if errors.Is(err, cluster.ErrShortfall) {
		return false, nil // Reserve draws nothing from the RNG on a shortfall
	}
	if err != nil {
		return false, fmt.Errorf("sched: placing %s: %w", js.spec.ID, err)
	}
	shape, sec := js.shape, 0.0
	if !js.started {
		shape, sec, err = s.chooseShape(js.spec, res.Hosts)
	} else {
		// A resized job resumes on its current lattice (espec), with the
		// shape it dumped under.
		sec, err = s.Timer(js.espec(), shape, res.Hosts)
	}
	if err != nil {
		res.Release()
		return false, err
	}
	finish := t + time.Duration(js.remaining*sec*float64(time.Second))
	if deadline >= 0 && finish > deadline {
		res.Release()
		return false, nil
	}
	imb, err := Imbalance(js.espec(), shape, res.Hosts)
	if err != nil {
		res.Release()
		return false, err
	}
	js.shape = shape
	js.imbalance = imb
	js.res = res
	js.stepSec = sec
	js.placedAt = t
	js.finishAt = finish
	if !js.started {
		js.started = true
		js.firstStart = t
		err = js.work.Start(res.Hosts)
	} else {
		err = js.work.Resume(res.Hosts)
	}
	if err != nil {
		res.Release()
		return false, fmt.Errorf("sched: starting %s: %w", js.spec.ID, err)
	}
	s.running = append(s.running, js)
	return true, nil
}

// tryPreempt makes room for the blocked queue head by suspending running
// jobs of strictly lower priority — lowest priority first, most recently
// placed first among equals — then places the head.
func (s *Scheduler) tryPreempt(js *jobState, t time.Duration) (bool, error) {
	need := js.ranks() - s.Cluster.Capacity(s.Select)
	if need <= 0 {
		return false, nil
	}
	var victims []*jobState
	for _, r := range s.running {
		if r.spec.Priority < js.spec.Priority {
			victims = append(victims, r)
		}
	}
	sort.SliceStable(victims, func(i, j int) bool {
		a, b := victims[i], victims[j]
		if a.spec.Priority != b.spec.Priority {
			return a.spec.Priority < b.spec.Priority
		}
		if a.placedAt != b.placedAt {
			return a.placedAt > b.placedAt
		}
		return a.spec.ID > b.spec.ID
	})
	got := 0
	var chosen []*jobState
	for _, v := range victims {
		// Count only the victim's hosts that will actually be reservable
		// once released: a host whose regular user got busy since the
		// victim was placed frees no usable capacity, and suspending for
		// it would checkpoint a job without unblocking the head.
		freed := 0
		for _, h := range v.res.Hosts {
			if h.ReservableWhenFree(s.Select) {
				freed++
			}
		}
		if freed == 0 {
			continue
		}
		chosen = append(chosen, v)
		if got += freed; got >= need {
			break
		}
	}
	if got < need {
		return false, nil
	}
	for _, v := range chosen {
		if err := s.preempt(v, t); err != nil {
			return false, err
		}
	}
	return s.tryPlace(js, t, -1)
}

// preempt suspends a running job through its workload's checkpoint path,
// releases its hosts and requeues it with the progress it made credited.
func (s *Scheduler) preempt(v *jobState, t time.Duration) error {
	elapsed := t - v.placedAt
	v.remaining -= elapsed.Seconds() / v.stepSec
	if v.remaining < 0 {
		v.remaining = 0
	}
	s.creditService(v, elapsed)
	v.preempts++
	if err := v.work.Suspend(); err != nil {
		return fmt.Errorf("sched: suspending %s: %w", v.spec.ID, err)
	}
	v.res.Release()
	v.res = nil
	for i, r := range s.running {
		if r == v {
			s.running = append(s.running[:i], s.running[i+1:]...)
			break
		}
	}
	s.queue = append(s.queue, v)
	s.emit(JobPreempted{T: t, ID: v.spec.ID, Remaining: v.remaining})
	return nil
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
		if best < 0 || js.finishAt < best {
			best = js.finishAt
		}
	}
	return best, best >= 0
}

// complete retires every running job whose virtual finish time has
// arrived, letting the workload drain and releasing the hosts.
func (s *Scheduler) complete(t time.Duration) error {
	for i := 0; i < len(s.running); {
		js := s.running[i]
		if js.finishAt > t {
			i++
			continue
		}
		s.creditService(js, js.finishAt-js.placedAt)
		js.remaining = 0
		js.doneAt = js.finishAt
		if err := js.work.Finish(); err != nil {
			return fmt.Errorf("sched: finishing %s: %w", js.spec.ID, err)
		}
		js.res.Release()
		js.res = nil
		s.running = append(s.running[:i], s.running[i+1:]...)
		s.finished = append(s.finished, js)
		s.emit(JobFinished{T: js.doneAt, ID: js.spec.ID, Job: metricsJob(js)})
	}
	return nil
}

// metricsJob converts a job's accounting into its metrics record.
func metricsJob(js *jobState) metrics.Job {
	return metrics.Job{
		ID:          js.spec.ID,
		Ranks:       js.ranks(),
		Priority:    js.spec.Priority,
		Submit:      js.spec.Submit,
		FirstStart:  js.firstStart,
		Done:        js.doneAt,
		Served:      js.served,
		Preemptions: js.preempts,
		Backfilled:  js.backfilled,
		Migrations:  js.migrations,
		Repricings:  js.repricings,
		Resizes:     js.resizes,
		GrowRanks:   js.growRanks,
		ShrinkRanks: js.shrinkRanks,
		Weighted:    !js.shape.IsZero(),
		Imbalance:   js.imbalance,
	}
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
	for _, js := range s.pendingInOrder() {
		infos = append(infos, JobInfo{ID: js.spec.ID, Phase: PhasePending})
	}
	for _, js := range s.queue {
		infos = append(infos, JobInfo{ID: js.spec.ID, Phase: PhaseQueued})
	}
	for _, js := range s.running {
		infos = append(infos, JobInfo{ID: js.spec.ID, Phase: PhaseRunning})
	}
	for _, js := range s.finished {
		infos = append(infos, JobInfo{ID: js.spec.ID, Phase: PhaseFinished,
			Metrics: metricsJob(js), HasMetrics: true})
	}
	return infos
}

// Replay is the trace-replay convenience: it submits every spec with a
// NullWorkload, closes the farm and runs it to completion — the
// deterministic policy-comparison entry point cmd/experiments and tests
// use.
func Replay(c *cluster.Cluster, policy Policy, seed int64, timer StepTimer, specs []JobSpec) (metrics.Summary, error) {
	s := New(c, policy, seed)
	if timer != nil {
		s.Timer = timer
	}
	for _, sp := range specs {
		if err := s.Submit(sp, nil); err != nil {
			return metrics.Summary{}, err
		}
	}
	s.Close()
	return s.Run()
}
