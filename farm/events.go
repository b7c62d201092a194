package farm

import (
	"fmt"
	"strconv"
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
// Each event's T is the farm-relative virtual time of the decision (the
// same clock the metrics report), and String renders a stable
// single-line form — the trace tests compare those strings (DESIGN.md,
// "The event line").
type Event interface {
	fmt.Stringer
}

// JobQueued records a job's admission: its arrival time passed and it
// now waits in the queue.
type JobQueued struct {
	T  time.Duration
	ID string
}

func (e JobQueued) String() string             { var b [lineCap]byte; return string(e.appendText(b[:0])) }
func (e JobQueued) appendText(b []byte) []byte { return head(b, e.T, " queued ").s(e.ID) }

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

func (e JobPlaced) String() string { var b [lineCap]byte; return string(e.appendText(b[:0])) }
func (e JobPlaced) appendText(b []byte) []byte {
	return head(b, e.T, " placed ").placement(e.ID, e.Hosts, e.StepSec, e.Finish, e.Weighted)
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

func (e JobBackfilled) String() string { var b [lineCap]byte; return string(e.appendText(b[:0])) }
func (e JobBackfilled) appendText(b []byte) []byte {
	return head(b, e.T, " backfilled ").placement(e.ID, e.Hosts, e.StepSec, e.Finish, e.Weighted)
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

func (e JobPreempted) String() string { var b [lineCap]byte; return string(e.appendText(b[:0])) }
func (e JobPreempted) appendText(b []byte) []byte {
	return head(b, e.T, " preempted ").s(e.ID).s(" remaining=").g(e.Remaining)
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

func (e JobMigrated) String() string { var b [lineCap]byte; return string(e.appendText(b[:0])) }
func (e JobMigrated) appendText(b []byte) []byte {
	l := head(b, e.T, " migrated ").s(e.ID).s(" [")
	for i, r := range e.Ranks {
		if i > 0 {
			l = l.s(" ")
		}
		l = l.d(r).s(">").s(e.Hosts[i])
	}
	return l.s("]").price(e.StepSec, e.Finish)
}

// JobFinished records a job's completion, with its full metrics record.
type JobFinished struct {
	T   time.Duration
	ID  string
	Job JobMetrics
}

func (e JobFinished) String() string { var b [lineCap]byte; return string(e.appendText(b[:0])) }
func (e JobFinished) appendText(b []byte) []byte {
	return head(b, e.T, " finished ").s(e.ID).s(" wait=").v(e.Job.Wait()).s(" served=").v(e.Job.Served).
		s(" preempts=").d(e.Job.Preemptions).s(" migr=").d(e.Job.Migrations)
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

func (e JobResized) String() string { var b [lineCap]byte; return string(e.appendText(b[:0])) }
func (e JobResized) appendText(b []byte) []byte {
	return head(b, e.T, " resized ").s(e.ID).s(" ").d(e.From).s(">").d(e.To).
		s(" on ").hosts(e.Hosts).price(e.StepSec, e.Finish)
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

func (e AutoscaleDecision) String() string { var b [lineCap]byte; return string(e.appendText(b[:0])) }
func (e AutoscaleDecision) appendText(b []byte) []byte {
	return head(b, e.T, " autoscale ").s(e.Action).s(" ").s(e.ID).s(" ").d(e.From).s(">").d(e.To).
		s(" reason=").q(e.Reason)
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

func (e HostReclaimed) String() string { var b [lineCap]byte; return string(e.appendText(b[:0])) }
func (e HostReclaimed) appendText(b []byte) []byte {
	return head(b, e.T, " reclaimed ").s(e.Host).s(" owner=").q(e.Owner)
}

// CheckpointSaved records a committed farm checkpoint: the manifest was
// atomically renamed into place in the WithCheckpoint directory,
// pointing at generation Gen, with Jobs job records.
type CheckpointSaved struct {
	T   time.Duration
	Gen string
	// Jobs counts the job records in the committed manifest.
	Jobs int
}

func (e CheckpointSaved) String() string { var b [lineCap]byte; return string(e.appendText(b[:0])) }
func (e CheckpointSaved) appendText(b []byte) []byte {
	return head(b, e.T, " checkpoint ").s(e.Gen).s(" jobs=").d(e.Jobs)
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

func (e EASYDegraded) String() string { var b [lineCap]byte; return string(e.appendText(b[:0])) }
func (e EASYDegraded) appendText(b []byte) []byte {
	return head(b, e.T, " easy-degraded head=").s(e.Head).s(" ranks=").d(e.Ranks)
}

const lineCap = 256 // a String's stack buffer; a longer line grows onto the heap

// text is a line appended in its String's stack buffer (one allocation a
// line). Each one-letter method renders a field as that fmt verb (g: %.6g).
type text []byte

func (b text) s(s string) text        { return append(b, s...) }
func (b text) q(s string) text        { return strconv.AppendQuote(b, s) }
func (b text) d(n int) text           { return strconv.AppendInt(b, int64(n), 10) }
func (b text) g(x float64) text       { return strconv.AppendFloat(b, x, 'g', 6, 64) }
func (b text) t(v bool) text          { return strconv.AppendBool(b, v) }
func (b text) v(d time.Duration) text { return append(b, d.String()...) }
func (b text) price(sec float64, finish time.Duration) text {
	return b.s(" step=").g(sec).s("s finish=").v(finish)
}

// head starts a line: "t=<T>", then the kind with its own spaces.
func head(b []byte, t time.Duration, kind string) text { return text(b).s("t=").v(t).s(kind) }

// hosts appends a placement, "[h0 h1 ...]".
func (b text) hosts(hosts []string) text {
	b = b.s("[")
	for i, h := range hosts {
		if i > 0 {
			b = b.s(" ")
		}
		b = b.s(h)
	}
	return b.s("]")
}

// placement is the body JobPlaced and JobBackfilled share.
func (b text) placement(id string, hosts []string, sec float64, finish time.Duration, weighted bool) text {
	return b.s(id).s(" on ").hosts(hosts).price(sec, finish).s(" weighted=").t(weighted)
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
