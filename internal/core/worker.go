package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/decomp"
	"repro/internal/dump"
	"repro/internal/msg"
)

// TransportFactory opens a rank's communication channels for an epoch.
// Epochs increment at every migration, when all channels are re-opened
// (section 4.2: "once a TCP/IP channel is opened at startup, it remains
// open throughout the computation except during migration when it must be
// re-opened").
type TransportFactory func(rank, epoch int) (msg.Transport, error)

// ctrl messages from the coordinator to a paused worker: the in-process
// stand-in for the paper's CONT signal and its dump request.
type ctrlMsg struct {
	kind  ctrlKind
	epoch int           // for ctrlResume: the new communication epoch
	t     msg.Transport // for ctrlResume: the rank's channels, opened at epoch
	into  *dump.State   // for ctrlDump: nil to exit, else the dump to copy into
}

type ctrlKind int

const (
	ctrlResume ctrlKind = iota // take the new epoch's channels and continue
	ctrlDump                   // dump state, then exit or keep holding
)

// Event is a worker lifecycle notification to the coordinator.
type Event struct {
	Rank  int
	Kind  EventKind
	Step  int
	Err   error
	State *dump.State // for EventDumped
}

// EventKind enumerates worker notifications.
type EventKind int

const (
	// EventDone: the worker reached the requested step count.
	EventDone EventKind = iota
	// EventPaused: the worker reached the synchronization step, closed
	// its channels and holds.
	EventPaused
	// EventDumped: the paused worker dumped its state, then exited (a
	// migration or a suspend) or holds on (a snapshot).
	EventDumped
	// EventError: the worker failed.
	EventError
)

// pkey identifies a not-yet-consumed message slot.
type pkey struct {
	step, phase, dir, peer int
}

// pauseAt sentinels.
const (
	pauseNone = -1
	// pausePending: a synchronization round is in progress; the compute
	// loop must hold at the next step boundary until the sync step is
	// known. The paper's processes block after announcing their step;
	// without this, a fast worker could run past the chosen step.
	pausePending = -2
)

// Worker runs one Program over a Transport: the parallel program of
// section 4.1, "compute locally, communicate with neighbours", repeated.
//
// Communication is first-come-first-served (appendix C): whatever message
// arrives next is either consumed by the current phase or buffered for the
// step it belongs to, so a delayed neighbour never stalls progress that
// does not depend on it. Neighbouring subregions may drift several steps
// apart (appendix A); the pending buffer absorbs the early messages.
type Worker struct {
	Prog Program

	Step  int
	Epoch int

	t       msg.Transport
	pending map[pkey][]float64
	// lost holds the peers whose channels ended in this epoch, with the
	// error that said so (msg.ErrPeerLost).
	lost map[int]error
	// A phase exchanges at most one message per direction each way, so a
	// phase's outgoing batch and await's outstanding messages fit in
	// arrays the step loop reuses.
	out  [decomp.NumDirs]msg.Message
	want [decomp.NumDirs]Expect

	step    atomic.Int64 // mirror of Step, readable by the coordinator
	pauseAt atomic.Int64 // sync step to hold at; pauseNone / pausePending; the coordinator's alone

	ctrl   chan ctrlMsg  // resume and dump commands to a paused worker
	stop   sync.Once     // closes ctrl and wake once (Shutdown)
	wake   chan struct{} // nudges a holding or done worker to re-check pauseAt
	events chan<- Event
}

// NewWorker creates a worker starting at step 0.
func NewWorker(prog Program, factory TransportFactory, epoch int, events chan<- Event) (*Worker, error) {
	t, err := factory(prog.Rank(), epoch)
	if err != nil {
		return nil, err
	}
	return newWorker(prog, t, epoch, events, 0), nil
}

// newWorker creates a worker over channels t, opened at epoch, whose state
// is already at the given step (a restart from a dump file).
func newWorker(prog Program, t msg.Transport, epoch int, events chan<- Event, step int) *Worker {
	w := &Worker{
		Prog:    prog,
		Step:    step,
		Epoch:   epoch,
		t:       t,
		pending: make(map[pkey][]float64),
		lost:    make(map[int]error),
		ctrl:    make(chan ctrlMsg, 8),
		wake:    make(chan struct{}, 1),
		events:  events,
	}
	w.step.Store(int64(step))
	w.pauseAt.Store(pauseNone)
	return w
}

// Rank returns the worker's rank.
func (w *Worker) Rank() int { return w.Prog.Rank() }

// RunStep advances one full integration step: every phase computes, hands
// its messages to the transport in one batch and awaits its neighbours'.
func (w *Worker) RunStep() error {
	for ph := 0; ph < w.Prog.Phases(); ph++ {
		w.Prog.Compute(ph)
		sends := w.Prog.Sends(ph)
		if len(sends) > len(w.out) {
			return fmt.Errorf("rank %d phase %d: %d messages to send, more than one per direction",
				w.Rank(), ph, len(sends))
		}
		out := w.out[:len(sends)]
		for i, s := range sends {
			out[i] = msg.Message{To: s.Peer, Step: w.Step, Phase: ph, Dir: s.Dir, Data: s.Data}
		}
		if err := msg.SendAll(w.t, out); err != nil {
			return fmt.Errorf("rank %d step %d phase %d: send: %w", w.Rank(), w.Step, ph, err)
		}
		if err := w.await(ph); err != nil {
			return err
		}
	}
	w.Step++
	w.step.Store(int64(w.Step))
	return nil
}

// await blocks until every expected message of (w.Step, phase) has been
// unpacked, buffering messages that belong to later steps. Each payload
// goes back to the transport once Unpack has returned.
func (w *Worker) await(phase int) error {
	expects := w.Prog.Expects(phase)
	if len(expects) > len(w.want) {
		return fmt.Errorf("rank %d phase %d: %d messages expected, more than one per direction",
			w.Rank(), phase, len(expects))
	}
	want := w.want[:0]
	for _, e := range expects {
		k := pkey{w.Step, phase, e.Dir, e.Peer}
		if data, ok := w.pending[k]; ok {
			delete(w.pending, k)
			w.Prog.Unpack(phase, e.Dir, data)
			w.t.Release(data)
			continue
		}
		want = want[:len(want)+1]
		want[len(want)-1] = e
	}
	if err := w.lostAmong(want); err != nil {
		return fmt.Errorf("rank %d step %d phase %d: recv: %w", w.Rank(), w.Step, phase, err)
	}
	for len(want) > 0 {
		m, err := w.t.Recv()
		if errors.Is(err, msg.ErrPeerLost) {
			// A peer that paused closed its channels after sending all
			// this rank needs from it before the pause (DESIGN.md): its
			// loss fails only a phase that still expects it.
			w.lost[m.From] = err
			if err = w.lostAmong(want); err == nil {
				continue
			}
		}
		if err != nil {
			return fmt.Errorf("rank %d step %d phase %d: recv: %w", w.Rank(), w.Step, phase, err)
		}
		if i := w.awaited(want, phase, m); i >= 0 {
			want[i] = want[len(want)-1]
			want = want[:len(want)-1]
			w.Prog.Unpack(phase, m.Dir, m.Data)
			w.t.Release(m.Data)
			continue
		}
		// A message for a later step: buffer it. Neighbours can run
		// several steps ahead (appendix A).
		w.pending[pkey{m.Step, m.Phase, m.Dir, m.From}] = m.Data
	}
	return nil
}

// lostAmong returns the loss of the first peer in want whose channels
// ended in this epoch, or nil.
func (w *Worker) lostAmong(want []Expect) error {
	for _, e := range want {
		if err := w.lost[e.Peer]; err != nil {
			return err
		}
	}
	return nil
}

// awaited returns the index in want of the slot m fills, or -1 when m
// belongs to another step or phase.
func (w *Worker) awaited(want []Expect, phase int, m msg.Message) int {
	if m.Step != w.Step || m.Phase != phase {
		return -1
	}
	for i, e := range want {
		if e.Dir == m.Dir && e.Peer == m.From {
			return i
		}
	}
	return -1
}

// Start runs the worker to completion of `until` steps while honouring the
// migration control protocol. It blocks; run it in its own goroutine (one
// goroutine = one workstation process). The coordinator plays the role of
// the UNIX signal handler (Job.pauseAll): it reads the rank's step and
// names the step to hold at, even while this loop is blocked in a receive.
func (w *Worker) Start(until int) {
	doneSent := false
	for {
		pa := w.pauseAt.Load()
		if pa == pausePending {
			// A sync round is being resolved; hold at this boundary.
			if _, ok := <-w.wake; !ok {
				w.t.Close()
				return
			}
			continue
		}
		if pa >= 0 && int64(w.Step) >= pa {
			// Synchronization step reached: close channels and hold
			// (section 5.1).
			w.t.Close()
			w.events <- Event{Rank: w.Rank(), Kind: EventPaused, Step: w.Step}
			if !w.holdPaused() {
				return
			}
			doneSent = false
			continue
		}
		if w.Step >= until {
			if !doneSent {
				w.events <- Event{Rank: w.Rank(), Kind: EventDone, Step: w.Step}
				doneSent = true
			}
			// Wait for a pause (a migration elsewhere still needs this
			// worker) or shutdown.
			if _, ok := <-w.wake; !ok {
				w.t.Close()
				return
			}
			continue
		}
		if err := w.RunStep(); err != nil {
			w.events <- Event{Rank: w.Rank(), Kind: EventError, Step: w.Step, Err: err}
			return
		}
	}
}

// hold sets the step the compute loop holds at and wakes it if it is
// holding already.
func (w *Worker) hold(at int64) {
	w.pauseAt.Store(at)
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// holdPaused processes commands while paused at the sync step. It returns
// false when the worker exits (a migration, or Shutdown).
func (w *Worker) holdPaused() bool {
	for c := range w.ctrl {
		switch c.kind {
		case ctrlResume:
			w.t = c.t
			clear(w.lost)
			w.Epoch = c.epoch
			return true
		case ctrlDump:
			// A rank that stops computing hands its Program's (one a Job
			// built) arrays over as views; one that holds copies them.
			st := w.Prog.(built).dump(w.Step, w.Epoch, c.into)
			w.events <- Event{Rank: w.Rank(), Kind: EventDumped, Step: w.Step, State: st}
			if c.into == nil {
				return false
			}
		}
	}
	return false
}

// requestDump tells a paused worker to dump its state and exit (into nil,
// a migration) or to copy it into into and keep holding (a snapshot).
func (w *Worker) requestDump(into *dump.State) { w.ctrl <- ctrlMsg{kind: ctrlDump, into: into} }

// Shutdown closes the control plane: a running worker finishes its steps,
// and a done, holding or paused one exits. A second Shutdown does nothing.
func (w *Worker) Shutdown() {
	w.stop.Do(func() {
		close(w.ctrl)
		close(w.wake)
	})
}

// Close tears down the worker's transport (used by simple non-Start runs).
func (w *Worker) Close() error { return w.t.Close() }

// retire shuts down and closes a worker whose compute loop has exited or
// never started, so nothing it opened outlives it.
func (w *Worker) retire() {
	w.Shutdown()
	w.Close()
}
