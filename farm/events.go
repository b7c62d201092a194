package farm

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/cluster"
)

// Event is one structured entry of the farm's decision stream. The
// event loop emits an Event at every decision point of a scheduling
// round — admission, placement, backfill, preemption, migration,
// resize, autoscale decision, completion, host reclaim, checkpoint
// commit, EASY degrade — to the subscriptions, synchronously on the
// scheduling goroutine, so for a fixed seed the stream is
// deterministic: two runs of the same trace produce byte-identical
// event sequences, including across a checkpoint/restore boundary (a
// restored farm emits exactly the events the dead coordinator had not
// yet emitted, never the ones it had).
//
// All times are farm-relative virtual times (the same clock the metrics
// report), and String renders a stable single-line form — the trace
// tests compare those strings.
type Event interface {
	// When returns the farm-relative virtual time of the decision.
	When() time.Duration
	fmt.Stringer
}

// JobQueued records a job's admission: its arrival time passed (or it
// was submitted live) and it now waits in the queue.
type JobQueued struct {
	T  time.Duration
	ID string
}

func (e JobQueued) When() time.Duration { return e.T }
func (e JobQueued) String() string {
	return fmt.Sprintf("t=%v queued %s", e.T, e.ID)
}

// JobPlaced records the queue head starting (or resuming) on a fresh
// reservation.
type JobPlaced struct {
	T  time.Duration
	ID string
	// Hosts is the placement, indexed by rank.
	Hosts []string
	// StepSec is the priced per-step estimate on this placement and
	// Finish the projected virtual completion time it implies.
	StepSec float64
	Finish  time.Duration
	// Weighted reports a speed-weighted decomposition shape.
	Weighted bool
}

func (e JobPlaced) When() time.Duration { return e.T }
func (e JobPlaced) String() string {
	return fmt.Sprintf("t=%v placed %s on [%s] step=%.6gs finish=%v weighted=%v",
		e.T, e.ID, strings.Join(e.Hosts, " "), e.StepSec, e.Finish, e.Weighted)
}

// JobBackfilled records a job behind the blocked queue head starting in
// the gaps the head cannot fill (under EASY, only because its projected
// finish lands before the head's reservation).
type JobBackfilled struct {
	T        time.Duration
	ID       string
	Hosts    []string
	StepSec  float64
	Finish   time.Duration
	Weighted bool
}

func (e JobBackfilled) When() time.Duration { return e.T }
func (e JobBackfilled) String() string {
	return fmt.Sprintf("t=%v backfilled %s on [%s] step=%.6gs finish=%v weighted=%v",
		e.T, e.ID, strings.Join(e.Hosts, " "), e.StepSec, e.Finish, e.Weighted)
}

// JobPreempted records a running job suspended off the pool — a
// priority preemption, or the whole-job fallback when a reclaimed
// host's ranks found no replacement — through the section-5.1 dump
// path. The job is requeued with Remaining integration steps left.
type JobPreempted struct {
	T         time.Duration
	ID        string
	Remaining float64
}

func (e JobPreempted) When() time.Duration { return e.T }
func (e JobPreempted) String() string {
	return fmt.Sprintf("t=%v preempted %s remaining=%.6g", e.T, e.ID, e.Remaining)
}

// JobMigrated records displaced ranks moving to replacement hosts
// mid-run (the section-5.1 dump/rebuild round trip) after their hosts'
// regular users returned; the job was repriced on the patched
// placement.
type JobMigrated struct {
	T  time.Duration
	ID string
	// Ranks are the displaced ranks; Hosts[i] is rank Ranks[i]'s new
	// home.
	Ranks   []int
	Hosts   []string
	StepSec float64
	Finish  time.Duration
}

func (e JobMigrated) When() time.Duration { return e.T }
func (e JobMigrated) String() string {
	parts := make([]string, len(e.Ranks))
	for i, r := range e.Ranks {
		parts[i] = fmt.Sprintf("%d>%s", r, e.Hosts[i])
	}
	return fmt.Sprintf("t=%v migrated %s [%s] step=%.6gs finish=%v",
		e.T, e.ID, strings.Join(parts, " "), e.StepSec, e.Finish)
}

// JobFinished records a job's completion, with its full metrics record.
type JobFinished struct {
	T   time.Duration
	ID  string
	Job JobMetrics
}

func (e JobFinished) When() time.Duration { return e.T }
func (e JobFinished) String() string {
	return fmt.Sprintf("t=%v finished %s wait=%v served=%v preempts=%d migr=%d",
		e.T, e.ID, e.Job.Wait(), e.Job.Served, e.Job.Preemptions, e.Job.Migrations)
}

// JobResized records a running job re-decomposed onto a new rank count
// mid-run (the malleable-job extension of migration): the reservation
// grew or shrank, the workload re-split at a step boundary, and the job
// was repriced on the new placement.
type JobResized struct {
	T  time.Duration
	ID string
	// From and To are the old and new rank counts.
	From, To int
	// Hosts is the new placement, indexed by rank.
	Hosts   []string
	StepSec float64
	Finish  time.Duration
}

func (e JobResized) When() time.Duration { return e.T }
func (e JobResized) String() string {
	return fmt.Sprintf("t=%v resized %s %d>%d on [%s] step=%.6gs finish=%v",
		e.T, e.ID, e.From, e.To, strings.Join(e.Hosts, " "), e.StepSec, e.Finish)
}

// AutoscaleDecision records one control-loop decision — grow, shrink or
// hold, with the policy's reason — whether or not it was actuated, so
// traces show why the rank counts moved (or did not).
type AutoscaleDecision struct {
	T  time.Duration
	ID string
	// Action is the policy's verdict ("grow", "shrink", "hold").
	Action   string
	From, To int
	Reason   string
}

func (e AutoscaleDecision) When() time.Duration { return e.T }
func (e AutoscaleDecision) String() string {
	return fmt.Sprintf("t=%v autoscale %s %s %d>%d reason=%q",
		e.T, e.Action, e.ID, e.From, e.To, e.Reason)
}

// HostReclaimed records a regular user sitting back down at a
// workstation a farm job had reserved: the scheduler vacates the host
// (migration or suspension) within the same round.
type HostReclaimed struct {
	T    time.Duration
	Host string
	// Owner is the job holding the host when the user returned; empty
	// when the reclaimed host was not reserved.
	Owner string
}

func (e HostReclaimed) When() time.Duration { return e.T }
func (e HostReclaimed) String() string {
	return fmt.Sprintf("t=%v reclaimed %s owner=%q", e.T, e.Host, e.Owner)
}

// CheckpointSaved records a committed farm checkpoint: the manifest was
// atomically renamed into place pointing at generation Gen, with Jobs
// job records. The directory path is deliberately omitted from String —
// it is operator-local and would break trace comparison across runs.
type CheckpointSaved struct {
	T   time.Duration
	Dir string
	Gen string
	// Jobs counts the job records in the committed manifest.
	Jobs int
}

func (e CheckpointSaved) When() time.Duration { return e.T }
func (e CheckpointSaved) String() string {
	return fmt.Sprintf("t=%v checkpoint %s jobs=%d", e.T, e.Gen, e.Jobs)
}

// EASYDegraded records a scheduling round whose blocked head had no
// computable projected start (completions alone never free enough
// usable hosts), so EASY backfill explicitly fell back to the
// aggressive mode for the round instead of silently eroding the head's
// protection.
type EASYDegraded struct {
	T     time.Duration
	Head  string
	Ranks int
}

func (e EASYDegraded) When() time.Duration { return e.T }
func (e EASYDegraded) String() string {
	return fmt.Sprintf("t=%v easy-degraded head=%s ranks=%d", e.T, e.Head, e.Ranks)
}

// hostNames copies a placement's host names, indexed by rank.
func hostNames(hosts []*cluster.Host) []string {
	names := make([]string, len(hosts))
	for i, h := range hosts {
		if h != nil {
			names[i] = h.Name
		}
	}
	return names
}
