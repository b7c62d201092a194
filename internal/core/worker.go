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

// SyncFunc announces a rank's current step for a synchronization round and
// returns the chosen synchronization step (appendix B: every process
// announces, T_max is read back, and T_max + 1 is the sync step). It is
// called from the worker's control goroutine, never from the compute loop,
// mirroring the paper's use of UNIX signal handlers: a process blocked in
// a receive still announces promptly.
type SyncFunc func(round, rank, step int) (int, error)

// ctrl messages from the coordinator to a worker: the in-process stand-in
// for the paper's UNIX signals (kill -USR2 to request migration sync, CONT
// to resume).
type ctrlMsg struct {
	kind  ctrlKind
	round int         // sync round for ctrlPause
	epoch int         // new communication epoch for ctrlResume
	into  *dump.State // for ctrlDump: nil to exit, else the dump to copy into
	reply chan error  // signalled when the command has taken effect
}

type ctrlKind int

const (
	ctrlPause  ctrlKind = iota // sync, run to the sync step, then hold
	ctrlResume                 // re-open channels and continue
	ctrlDump                   // dump state, then exit or keep holding (while paused)
)

// Event is a worker lifecycle notification to the coordinator.
type Event struct {
	Rank  int
	Kind  EventKind
	Step  int
	Err   error
	State interface{} // *dump.State for EventMigrated and eventDumped
}

// EventKind enumerates worker notifications.
type EventKind int

const (
	// EventDone: the worker reached the requested step count.
	EventDone EventKind = iota
	// EventPaused: the worker reached the synchronization step, closed
	// its channels and holds.
	EventPaused
	// EventMigrated: the worker dumped its state and exited.
	EventMigrated
	// EventError: the worker failed.
	EventError
	// eventDumped: the paused worker dumped its state and holds on.
	eventDumped
)

func (k EventKind) String() string {
	switch k {
	case EventDone:
		return "done"
	case EventPaused:
		return "paused"
	case EventMigrated:
		return "migrated"
	case EventError:
		return "error"
	case eventDumped:
		return "dumped"
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

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
	Prog    Program
	Factory TransportFactory
	Sync    SyncFunc // nil disables the pause protocol

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

	step    atomic.Int64 // mirror of Step, readable by the controller
	pauseAt atomic.Int64 // sync step to hold at; pauseNone / pausePending

	ctrl   chan ctrlMsg
	stop   sync.Once     // closes ctrl once (Shutdown)
	paused chan ctrlMsg  // resume/migrate/stop commands, forwarded
	wake   chan struct{} // nudges a done worker to re-check pauseAt
	events chan<- Event
}

// NewWorker creates a worker starting at step 0.
func NewWorker(prog Program, factory TransportFactory, epoch int, events chan<- Event) (*Worker, error) {
	return newWorkerAt(prog, factory, epoch, events, 0)
}

// newWorkerAt creates a worker whose state is already at the given step
// (a restart from a dump file).
func newWorkerAt(prog Program, factory TransportFactory, epoch int, events chan<- Event, step int) (*Worker, error) {
	t, err := factory(prog.Rank(), epoch)
	if err != nil {
		return nil, err
	}
	w := &Worker{
		Prog:    prog,
		Factory: factory,
		Step:    step,
		Epoch:   epoch,
		t:       t,
		pending: make(map[pkey][]float64),
		lost:    make(map[int]error),
		ctrl:    make(chan ctrlMsg, 8),
		paused:  make(chan ctrlMsg, 8),
		wake:    make(chan struct{}, 1),
		events:  events,
	}
	w.step.Store(int64(step))
	w.pauseAt.Store(pauseNone)
	return w, nil
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
// goroutine = one workstation process). The controller goroutine plays the
// role of the UNIX signal handler: it services synchronization requests
// even while the compute loop is blocked in a receive.
func (w *Worker) Start(until int) {
	//detlint:allow entropy -- the section-5.1 signal handler: it only services sync requests, which take effect at the step boundary the coordinator names, never mid-step
	go w.controller(until)
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
			// Wait for a pause request (a migration elsewhere still
			// needs this worker) or shutdown.
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

// controller services control commands asynchronously. Pause requests are
// resolved through the shared synchronization file and clamped to `until`
// (a worker that already finished cannot advance further, so the sync step
// never exceeds the run length).
func (w *Worker) controller(until int) {
	for c := range w.ctrl {
		switch c.kind {
		case ctrlPause:
			if w.Sync == nil {
				c.fail(fmt.Errorf("rank %d: no SyncFunc configured", w.Rank()))
				continue
			}
			// Block the compute loop at its next boundary, then announce.
			// The announced step may lag the true step by at most the one
			// step in flight, and the sync step is T_max + 1 >= announced
			// + 1, so the worker never overshoots it.
			w.pauseAt.Store(pausePending)
			s, err := w.Sync(c.round, w.Rank(), int(w.step.Load()))
			if err != nil {
				w.pauseAt.Store(pauseNone)
				w.nudge()
				c.fail(err)
				continue
			}
			if s > until {
				s = until
			}
			w.pauseAt.Store(int64(s))
			w.nudge()
			c.ok()
		default:
			// Resume/migrate/dump apply to a paused worker.
			w.paused <- c
		}
	}
	close(w.wake)
	close(w.paused)
}

// nudge wakes the compute loop if it is holding.
func (w *Worker) nudge() {
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

func (c ctrlMsg) ok() {
	if c.reply != nil {
		c.reply <- nil
	}
}

func (c ctrlMsg) fail(err error) {
	if c.reply != nil {
		c.reply <- err
	}
}

// holdPaused processes commands while paused at the sync step. It returns
// false when the worker exits (migration).
func (w *Worker) holdPaused() bool {
	for c := range w.paused {
		switch c.kind {
		case ctrlResume:
			t, err := w.Factory(w.Rank(), c.epoch)
			if err != nil {
				c.fail(err)
				w.events <- Event{Rank: w.Rank(), Kind: EventError, Step: w.Step, Err: err}
				return false
			}
			w.t = t
			clear(w.lost)
			w.Epoch = c.epoch
			w.pauseAt.Store(pauseNone)
			c.ok()
			return true
		case ctrlDump:
			// A rank that stops computing hands its Program's (one a Job
			// built) arrays over as views; one that holds copies them.
			st := w.Prog.(built).dump(w.Step, w.Epoch, c.into)
			c.ok()
			if c.into == nil {
				w.events <- Event{Rank: w.Rank(), Kind: EventMigrated, Step: w.Step, State: st}
				return false
			}
			w.events <- Event{Rank: w.Rank(), Kind: eventDumped, Step: w.Step, State: st}
		default:
			c.fail(fmt.Errorf("rank %d: unexpected control %d while paused", w.Rank(), c.kind))
		}
	}
	return false
}

// RequestPause asks the worker to synchronize (round) and hold at the sync
// step. It is the coordinator's "kill -USR2".
func (w *Worker) RequestPause(round int) {
	w.ctrl <- ctrlMsg{kind: ctrlPause, round: round}
}

// RequestResume re-opens the worker's channels under a new epoch. The
// returned channel yields the outcome; it is the coordinator's "CONT".
func (w *Worker) RequestResume(epoch int) chan error {
	reply := make(chan error, 1)
	w.ctrl <- ctrlMsg{kind: ctrlResume, epoch: epoch, reply: reply}
	return reply
}

// requestDump tells a paused worker to dump its state and exit (into nil,
// a migration) or to copy it into into and keep holding (a snapshot).
func (w *Worker) requestDump(into *dump.State) { w.ctrl <- ctrlMsg{kind: ctrlDump, into: into} }

// Shutdown closes the control plane; a running worker finishes its steps,
// a done worker exits. Its controller goroutine ends either way, and a
// second Shutdown does nothing.
func (w *Worker) Shutdown() {
	w.stop.Do(func() { close(w.ctrl) })
}

// Close tears down the worker's transport (used by simple non-Start runs).
func (w *Worker) Close() error { return w.t.Close() }

// retire shuts down and closes a worker whose compute loop has exited or
// never started, so nothing it opened outlives it.
func (w *Worker) retire() {
	w.Shutdown()
	w.Close()
}
