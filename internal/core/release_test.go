package core

import (
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/msg"
)

// poisonTransport overwrites every payload handed back to it with NaN
// before passing it on, so a payload read after its Release shows in the
// bits. It numbers the payloads it receives and counts those released
// after one received later: those waited in the worker's pending buffer.
type poisonTransport struct {
	msg.Transport
	seq     map[*float64]int // a payload's first value -> its receive number
	n, last int
	held    *atomic.Int64
}

func (p *poisonTransport) Recv() (msg.Message, error) {
	m, err := p.Transport.Recv()
	if len(m.Data) > 0 {
		p.n++
		p.seq[&m.Data[0]] = p.n
	}
	return m, err
}

func (p *poisonTransport) Release(data []float64) {
	if len(data) > 0 {
		k := &data[0]
		if p.seq[k] < p.last {
			p.held.Add(1)
		}
		p.last = max(p.last, p.seq[k])
		delete(p.seq, k)
	}
	for i := range data {
		data[i] = math.NaN()
	}
	p.Transport.Release(data)
}

// poisoning decorates every transport a factory opens.
func poisoning(over TransportFactory, held *atomic.Int64) TransportFactory {
	return func(rank, epoch int) (msg.Transport, error) {
		tr, err := over(rank, epoch)
		return &poisonTransport{Transport: tr, seq: map[*float64]int{}, held: held}, err
	}
}

// aheadTransport makes a payload wait in its rank's pending buffer: the
// first time the rank awaits the last exchange of a step before the run's
// last, its Recv pulls messages until one of the next step comes (a peer
// ran a step ahead) and hands that one over first, the rest after it in
// order. The rank has sent all of its step by then, so every peer can
// finish the step and send the next one's first phase: the pull ends.
type aheadTransport struct {
	msg.Transport
	last, steps int    // the last phase that exchanges; the run's steps
	sent        [2]int // step and phase of the latest send
	fired       bool
	next        []msg.Message
}

func (a *aheadTransport) Send(m msg.Message) error {
	a.sent = [2]int{m.Step, m.Phase}
	return a.Transport.Send(m)
}

func (a *aheadTransport) Recv() (msg.Message, error) {
	if !a.fired && a.sent[1] == a.last && a.sent[0]+1 < a.steps {
		a.fired = true
		for {
			m, err := a.Transport.Recv()
			if err != nil || m.Step > a.sent[0] {
				return m, err
			}
			a.next = append(a.next, m)
		}
	}
	if len(a.next) > 0 {
		m := a.next[0]
		a.next = a.next[1:]
		return m, nil
	}
	return a.Transport.Recv()
}

// ahead decorates rank 0's transport with an aheadTransport for a run of
// the given steps; program builds the rank's Program, whose exchanges
// give the last phase that has one.
func ahead[P Program](over TransportFactory, steps int, program func(rank int) (P, error)) TransportFactory {
	return func(rank, epoch int) (msg.Transport, error) {
		tr, err := over(rank, epoch)
		if rank != 0 || err != nil {
			return tr, err
		}
		p, err := program(rank)
		if err != nil {
			return nil, err
		}
		last := p.Phases() - 1
		for len(p.Expects(last)) == 0 {
			last--
		}
		return &aheadTransport{Transport: tr, last: last, steps: steps, sent: [2]int{-1, -1}}, nil
	}
}

// sameBits returns the first index at which two sets of fields differ in
// their bits, or -1.
func sameBits(want, got [][]float64) int {
	for f := range want {
		for i := range want[f] {
			if math.Float64bits(want[f][i]) != math.Float64bits(got[f][i]) {
				return i
			}
		}
	}
	return -1
}

// TestPayloadReleasedAfterUnpack: a worker hands each payload back to its
// transport only once Unpack has returned, whether it came straight from
// Recv or waited in pending. Every released payload is overwritten with
// NaN, delivery is reordered across peers, and rank 0 takes a payload of
// the next step before the last of its current one, so that payloads do
// wait; a 2x2 FD2D and a 2x2x1 LB3D (whose ranks also send to themselves)
// run over the hub and over TCP must still end in the bits of the
// sequential run.
func TestPayloadReleasedAfterUnpack(t *testing.T) {
	transports := []struct {
		name string
		open func(t *testing.T) TransportFactory
	}{
		{"hub", func(*testing.T) TransportFactory { return HubFactory() }},
		{"tcp", tcpFactory},
	}
	for _, tr := range transports {
		t.Run("FD2D/"+tr.name, func(t *testing.T) {
			const steps = 20
			want, _, err := RunSequential2D(channelConfig(t, MethodFD, 2, 2, 24, 16), steps)
			if err != nil {
				t.Fatal(err)
			}
			var swapped, held atomic.Int64
			cfg := channelConfig(t, MethodFD, 2, 2, 24, 16)
			got, err := RunParallel2D(cfg, steps, poisoning(ahead(reordering(tr.open(t), 3, &swapped, cfg.NewProgram), steps, cfg.NewProgram), &held))
			if err != nil {
				t.Fatal(err)
			}
			if held.Load() == 0 {
				t.Fatal("no payload waited in pending: the run exercised nothing")
			}
			t.Logf("%d payloads waited in pending, %d delivered behind another peer's", held.Load(), swapped.Load())
			if i := sameBits([][]float64{want.Rho, want.Vx, want.Vy}, [][]float64{got.Rho, got.Vx, got.Vy}); i >= 0 {
				t.Errorf("differs from the sequential run at index %d", i)
			}
		})
		t.Run("LB3D/"+tr.name, func(t *testing.T) {
			const steps = 10
			// Periodic in Z too: each rank is its own neighbour there.
			cfg := func() *Config3D { return periodicConfig3D(t, MethodLB, 2, 2, 1, true, true) }
			want, _, err := RunSequential3D(cfg(), steps)
			if err != nil {
				t.Fatal(err)
			}
			var swapped, held atomic.Int64
			c := cfg()
			got, err := RunParallel3D(c, steps, poisoning(ahead(reordering(tr.open(t), 3, &swapped, c.NewProgram), steps, c.NewProgram), &held))
			if err != nil {
				t.Fatal(err)
			}
			if held.Load() == 0 {
				t.Fatal("no payload waited in pending: the run exercised nothing")
			}
			t.Logf("%d payloads waited in pending, %d delivered behind another peer's", held.Load(), swapped.Load())
			if i := sameBits([][]float64{want.Rho, want.Vx, want.Vy, want.Vz}, [][]float64{got.Rho, got.Vx, got.Vy, got.Vz}); i >= 0 {
				t.Errorf("differs from the sequential run at index %d", i)
			}
		})
	}
}

// lockstep builds a worker for each of two Programs and returns a function
// that runs one step of both, rank 1 on its own goroutine, one step per
// token; the hand-off is two channel operations, which allocate nothing.
// The goroutine and the workers end with the test.
func lockstep(t *testing.T, progs [2]Program, factory TransportFactory) func() {
	t.Helper()
	var ws [2]*Worker
	for rank, p := range progs {
		w, err := NewWorker(p, factory, 0, make(chan Event, 1))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		ws[rank] = w
	}
	token, done := make(chan struct{}), make(chan error, 1)
	go func() {
		for range token {
			done <- ws[1].RunStep()
		}
	}()
	t.Cleanup(func() { close(token) })
	return func() {
		token <- struct{}{}
		if err := ws[0].RunStep(); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// programs builds the Programs of ranks 0 and 1.
func programs[P Program](t *testing.T, build func(rank int) (P, error)) [2]Program {
	t.Helper()
	var ps [2]Program
	for rank := range ps {
		p, err := build(rank)
		if err != nil {
			t.Fatal(err)
		}
		ps[rank] = p
	}
	return ps
}

// TestParallelStepAllocatesNothing: once the transports' free lists hold
// a buffer for every payload out at a time, a two-rank step allocates
// nothing: not to send (the hub copies into a released buffer, TCP's
// loopback into one), not to receive (TCP decodes into one), not to
// compute, pack or unpack, and not to await. The table runs both methods
// in both dimensions over both transports with the filter on, one run
// with it off, and one run in which each rank is its own neighbour along
// Z. The FD2D runs' velocity messages are longer than a TCP read buffer,
// so their first payloads grew as they arrived before being released.
func TestParallelStepAllocatesNothing(t *testing.T) {
	plane := func(method string, eps float64) func(t *testing.T) [2]Program {
		return func(t *testing.T) [2]Program {
			cfg := channelConfig(t, method, 2, 1, 8, 4200)
			if method == MethodLB {
				cfg = channelConfig(t, method, 2, 1, 32, 16)
			}
			cfg.Par.Eps = eps
			return programs(t, cfg.NewProgram)
		}
	}
	box := func(method string, pz bool) func(t *testing.T) [2]Program {
		return func(t *testing.T) [2]Program {
			return programs(t, periodicConfig3D(t, method, 2, 1, 1, true, pz).NewProgram)
		}
	}
	hub := func(*testing.T) TransportFactory { return HubFactory() }
	for _, c := range []struct {
		name    string
		progs   func(t *testing.T) [2]Program
		factory func(t *testing.T) TransportFactory
	}{
		{"LB2D/hub", plane(MethodLB, 0.01), hub},
		{"LB2D/tcp", plane(MethodLB, 0.01), tcpFactory},
		{"LB3D/hub", box(MethodLB, false), hub},
		{"LB3D/tcp", box(MethodLB, false), tcpFactory},
		{"FD2D/hub", plane(MethodFD, 0.01), hub},
		{"FD2D/tcp", plane(MethodFD, 0.01), tcpFactory},
		{"FD3D/hub", box(MethodFD, false), hub},
		{"FD3D/tcp", box(MethodFD, false), tcpFactory},
		{"FD2D/hub/filter-off", plane(MethodFD, 0), hub},
		{"LB3D/tcp/self", box(MethodLB, true), tcpFactory},
	} {
		t.Run(c.name, func(t *testing.T) {
			step := lockstep(t, c.progs(t), c.factory(t))
			for range 5 {
				step() // dial, and fill the free lists
			}
			if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
				t.Errorf("%.2f allocations a step, want 0", allocs)
			}
		})
	}
}
