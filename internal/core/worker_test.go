package core

import (
	"errors"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/decomp"
	"repro/internal/dump"
	"repro/internal/msg"
)

// stubProgram is a minimal Program: one phase, one peer, records the
// payloads it unpacks in order.
type stubProgram struct {
	rank     int
	peer     int
	computed int
	unpacked []float64
}

func (p *stubProgram) Rank() int         { return p.rank }
func (p *stubProgram) Phases() int       { return 1 }
func (p *stubProgram) Compute(phase int) { p.computed++ }
func (p *stubProgram) Sends(phase int) []Send {
	return []Send{{Peer: p.peer, Dir: 0, Data: []float64{float64(p.computed)}}}
}
func (p *stubProgram) Expects(phase int) []Expect {
	return []Expect{{Peer: p.peer, Dir: 0}}
}
func (p *stubProgram) Unpack(phase int, dir int, data []float64) {
	p.unpacked = append(p.unpacked, data...)
}
func (p *stubProgram) DumpState(step, epoch int) *dump.State {
	return &dump.State{Rank: p.rank, Step: step, Epoch: epoch, Method: "stub",
		NX: 1, NY: 1, NZ: 1, Fields: map[string][]float64{"x": {1}}}
}
func (p *stubProgram) RestoreState(st *dump.State) error { return nil }

// runSteps advances a worker until its Step reaches until, with no
// control plane.
func runSteps(w *Worker, until int) error {
	for w.Step < until {
		if err := w.RunStep(); err != nil {
			return err
		}
	}
	return nil
}

// TestWorkerBuffersEarlyMessages: a fast peer may run several steps ahead
// (appendix A); its early messages must be buffered and consumed in step
// order, not dropped or misapplied.
func TestWorkerBuffersEarlyMessages(t *testing.T) {
	hub := msg.NewHub()
	factory := func(rank, epoch int) (msg.Transport, error) { return hub.Join(rank), nil }
	events := make(chan Event, 8)

	prog := &stubProgram{rank: 0, peer: 1}
	w, err := NewWorker(prog, factory, 0, events)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	// The peer floods messages for steps 0..4 before the worker starts.
	peer := hub.Join(1)
	for s := 4; s >= 0; s-- { // deliberately reversed arrival order
		if err := peer.Send(msg.Message{To: 0, Step: s, Phase: 0, Dir: 0,
			Data: []float64{float64(100 + s)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := runSteps(w, 5); err != nil {
		t.Fatal(err)
	}
	if len(prog.unpacked) != 5 {
		t.Fatalf("unpacked %d payloads, want 5", len(prog.unpacked))
	}
	for s := 0; s < 5; s++ {
		if prog.unpacked[s] != float64(100+s) {
			t.Errorf("step %d consumed %v, want %v", s, prog.unpacked[s], float64(100+s))
		}
	}
}

// recvCounter counts Recv calls and passes batches on whole, so a TCP
// transport under it still writes once per peer.
type recvCounter struct {
	msg.Transport
	recvs int
}

func (c *recvCounter) Recv() (msg.Message, error) {
	c.recvs++
	return c.Transport.Recv()
}

func (c *recvCounter) SendAll(ms []msg.Message) error { return msg.SendAll(c.Transport, ms) }

// TestAwaitServedFromPending: a peer that ran ahead has delivered the
// messages of steps 1-4 before that of step 0, so the step-0 await buffers
// them and the awaits of steps 1-4 take every expected message from
// pending without calling Recv. Over TCP the payloads unpacked are
// bit-equal to the hub's.
func TestAwaitServedFromPending(t *testing.T) {
	hub := msg.NewHub()
	tcp := tcpFactory(t)
	var unpacked [2][]float64
	for i, open := range []TransportFactory{
		func(rank, epoch int) (msg.Transport, error) { return hub.Join(rank), nil },
		tcp,
	} {
		var rc *recvCounter
		prog := &stubProgram{rank: 1, peer: 0}
		w, err := NewWorker(prog, func(rank, epoch int) (msg.Transport, error) {
			tr, err := open(rank, epoch)
			rc = &recvCounter{Transport: tr}
			return rc, err
		}, 0, make(chan Event, 1))
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		peer, err := open(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer peer.Close()
		for s := 4; s >= 0; s-- {
			if err := peer.Send(msg.Message{To: 1, Step: s, Data: []float64{float64(s) + 0.1}}); err != nil {
				t.Fatal(err)
			}
		}
		if err := runSteps(w, 1); err != nil {
			t.Fatal(err)
		}
		if rc.recvs != 5 {
			t.Fatalf("step 0 received %d messages, want all 5", rc.recvs)
		}
		if err := runSteps(w, 5); err != nil {
			t.Fatal(err)
		}
		if rc.recvs != 5 {
			t.Errorf("steps 1-4 called Recv %d times with every expected message pending", rc.recvs-5)
		}
		unpacked[i] = prog.unpacked
	}
	for s := 0; s < 5; s++ {
		hub, tcp := unpacked[0][s], unpacked[1][s]
		if math.Float64bits(hub) != math.Float64bits(float64(s)+0.1) || math.Float64bits(tcp) != math.Float64bits(hub) {
			t.Errorf("step %d unpacked %v over the hub and %v over TCP, want %v", s, hub, tcp, float64(s)+0.1)
		}
	}
}

// TestTCPStepAllocatesOnePerFrame: a two-rank finite-difference step over
// TCP allocates nothing after warm-up, not even the payload of a frame
// (the bound the name records): each frame is decoded into a buffer the
// worker released after an earlier Unpack.
func TestTCPStepAllocatesOnePerFrame(t *testing.T) {
	progs := programs(t, channelConfig(t, MethodFD, 2, 1, 32, 16).NewProgram)
	frames := 0
	for _, p := range progs {
		for ph := 0; ph < p.Phases(); ph++ {
			frames += len(p.Expects(ph))
		}
	}
	step := lockstep(t, progs, tcpFactory(t))
	for range 5 {
		step() // dial, and grow the buffers to size
	}
	allocs := testing.AllocsPerRun(50, step)
	t.Logf("%.2f allocations a step for %d frames received", allocs, frames)
	if allocs != 0 {
		t.Errorf("%.2f allocations a step for %d frames received, want 0", allocs, frames)
	}
}

// floodProgram lists given numbers of messages to send and expect.
type floodProgram struct {
	stubProgram
	sends, expects int
}

func (p *floodProgram) Sends(int) []Send     { return make([]Send, p.sends) }
func (p *floodProgram) Expects(int) []Expect { return make([]Expect, p.expects) }

// TestWorkerRefusesTwoMessagesPerDirection: a phase that lists more
// messages than there are directions fails its step with an error instead
// of overrunning the worker's per-direction arrays.
func TestWorkerRefusesTwoMessagesPerDirection(t *testing.T) {
	hub := msg.NewHub()
	factory := func(rank, epoch int) (msg.Transport, error) { return hub.Join(rank), nil }
	for _, p := range []*floodProgram{{sends: decomp.NumDirs + 1}, {expects: decomp.NumDirs + 1}} {
		w, err := NewWorker(p, factory, 0, make(chan Event, 1))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.RunStep(); err == nil || !strings.Contains(err.Error(), "more than one per direction") {
			t.Errorf("%d sends, %d expects: RunStep error %v", p.sends, p.expects, err)
		}
		w.Close()
	}
}

// TestWorkerUnsyncDrift: two coupled workers where one is much slower;
// the fast one must be able to run ahead only as far as its data
// dependencies allow (one step here, since they exchange every step), and
// everything completes.
func TestWorkerUnsyncDrift(t *testing.T) {
	hub := msg.NewHub()
	factory := func(rank, epoch int) (msg.Transport, error) { return hub.Join(rank), nil }
	events := make(chan Event, 8)
	a, err := NewWorker(&stubProgram{rank: 0, peer: 1}, factory, 0, events)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewWorker(&stubProgram{rank: 1, peer: 0}, factory, 0, events)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()
	const steps = 50
	errs := make(chan error, 2)
	go func() { errs <- runSteps(a, steps) }()
	go func() {
		// The slow worker yields before every step.
		for i := 0; i < steps; i++ {
			runtime.Gosched()
			if err := b.RunStep(); err != nil {
				errs <- err
				return
			}
		}
		errs <- nil
	}()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if a.Step != steps || b.Step != steps {
		t.Errorf("steps: %d, %d; want %d", a.Step, b.Step, steps)
	}
}

// TestWorkerErrorEventOnClosedTransport: killing the transport mid-run
// surfaces an EventError rather than hanging — the failure path the
// monitoring program watches for ("if an unrecoverable error occurs, the
// distributed simulation is stopped").
func TestWorkerErrorEventOnClosedTransport(t *testing.T) {
	hub := msg.NewHub()
	factory := func(rank, epoch int) (msg.Transport, error) { return hub.Join(rank), nil }
	events := make(chan Event, 8)
	receiving := make(chan struct{})
	w, err := NewWorker(&stubProgram{rank: 0, peer: 1}, func(rank, epoch int) (msg.Transport, error) {
		tr, err := factory(rank, epoch)
		return &recvSignal{Transport: tr, entered: receiving}, err
	}, 0, events)
	if err != nil {
		t.Fatal(err)
	}
	// No peer exists; the worker blocks in Recv. Close the transport
	// underneath it.
	go w.Start(3)
	<-receiving
	w.Close()
	select {
	case e := <-events:
		if e.Kind != EventError {
			t.Errorf("event %v, want error", e.Kind)
		}
		if !errors.Is(e.Err, msg.ErrClosed) {
			t.Errorf("error %v, want ErrClosed in chain", e.Err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("no error event after transport close")
	}
	w.Shutdown()
}

// recvSignal closes entered when its first Recv begins.
type recvSignal struct {
	msg.Transport
	entered chan struct{}
	once    sync.Once
}

func (r *recvSignal) Recv() (msg.Message, error) {
	r.once.Do(func() { close(r.entered) })
	return r.Transport.Recv()
}

// TestRestoredWorkerStartsAtDumpStep: newWorker seeds the step counter.
func TestRestoredWorkerStartsAtDumpStep(t *testing.T) {
	hub := msg.NewHub()
	events := make(chan Event, 8)
	prog := &stubProgram{rank: 0, peer: 0}
	w := newWorker(prog, hub.Join(0), 3, events, 17)
	defer w.Close()
	if w.Step != 17 || w.Epoch != 3 {
		t.Errorf("worker at step %d epoch %d, want 17, 3", w.Step, w.Epoch)
	}
	if err := runSteps(w, 18); err != nil {
		t.Fatal(err)
	}
	if prog.computed != 1 {
		t.Errorf("computed %d steps, want exactly 1", prog.computed)
	}
}
