package core

import (
	"errors"
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/decomp"
	"repro/internal/fluid"
	"repro/internal/msg"
)

// reorderTransport decorates a rank's hub endpoint with late, cross-peer
// reordered delivery: every k-th message received is held back and handed
// to the worker after the next one, when that one comes from another peer
// (messages of one peer keep their order, as on a TCP connection). The
// worker's first-come-first-served receive with early-message buffering
// (appendices A, C) must make that invisible in the bits.
//
// Holding a message means blocking for one more, which is safe only while
// another message of the held one's own exchange is still due: that one is
// sent whether or not this rank gets any further, so the wait ends. fanIn
// (messages due per phase) and pulled (received so far per step and phase)
// decide it. With every rank decorated, the rank furthest behind can
// always finish its exchange, so the run cannot deadlock.
type reorderTransport struct {
	msg.Transport
	k, n    int
	fanIn   []int
	pulled  map[[2]int]int
	next    []msg.Message // received already, delivered first
	swapped *atomic.Int64
}

func (r *reorderTransport) pull() (msg.Message, error) {
	m, err := r.Transport.Recv()
	if err == nil {
		r.pulled[[2]int{m.Step, m.Phase}]++
	}
	return m, err
}

func (r *reorderTransport) Recv() (msg.Message, error) {
	if len(r.next) > 0 {
		m := r.next[0]
		r.next = r.next[1:]
		return m, nil
	}
	held, err := r.pull()
	if err != nil {
		return held, err
	}
	r.n++
	if r.n%r.k != 0 || r.pulled[[2]int{held.Step, held.Phase}] >= r.fanIn[held.Phase] {
		return held, nil
	}
	m, err := r.pull()
	if err != nil {
		return m, err
	}
	if m.From == held.From {
		r.next = append(r.next, m)
		return held, nil
	}
	r.swapped.Add(1)
	r.next = append(r.next, held)
	return m, nil
}

// reordering returns a factory over another with every rank's endpoint
// decorated; program builds a rank's Program, whose exchanges give the
// fan-in of each phase.
func reordering[P Program](over TransportFactory, k int, swapped *atomic.Int64, program func(rank int) (P, error)) TransportFactory {
	return func(rank, epoch int) (msg.Transport, error) {
		p, err := program(rank)
		if err != nil {
			return nil, err
		}
		fanIn := make([]int, p.Phases())
		for ph := range fanIn {
			fanIn[ph] = len(p.Expects(ph))
		}
		tr, err := over(rank, epoch)
		if err != nil {
			return nil, err
		}
		return &reorderTransport{Transport: tr, k: k, fanIn: fanIn,
			pulled: map[[2]int]int{}, swapped: swapped}, nil
	}
}

// sendLog records the messages its Send is given and counts the batches
// its SendAll is given; both pass on to the transport it wraps.
type sendLog struct {
	msg.Transport
	sent    []msg.Message
	batches int
}

func (l *sendLog) Send(m msg.Message) error {
	l.sent = append(l.sent, m)
	return l.Transport.Send(m)
}

func (l *sendLog) SendAll(ms []msg.Message) error {
	l.batches++
	return msg.SendAll(l.Transport, ms)
}

// TestSendAllThroughTheReorderDecorator: the reorder transport overrides
// Recv only and embeds the msg.Transport interface, so it has no SendAll
// even over a transport that has one; msg.SendAll then calls its Send once
// per message, in the batch's order, and stops at the first error.
func TestSendAllThroughTheReorderDecorator(t *testing.T) {
	hub := msg.NewHub()
	for rank := 1; rank <= 2; rank++ {
		defer hub.Join(rank).Close()
	}
	log := &sendLog{Transport: hub.Join(0)}
	batch := []msg.Message{{To: 1, Dir: 0}, {To: 2, Dir: 1}, {To: 1, Dir: 2}, {To: 2, Dir: 3}}
	if err := msg.SendAll(log, batch); err != nil || log.batches != 1 || len(log.sent) != 0 {
		t.Fatalf("SendAll on the batching transport: err %v, %d batches, %d single sends; want one batch", err, log.batches, len(log.sent))
	}
	r := &reorderTransport{Transport: log, k: 3, pulled: map[[2]int]int{}}
	if err := msg.SendAll(r, batch); err != nil {
		t.Fatal(err)
	}
	if log.batches != 1 || len(log.sent) != len(batch) {
		t.Fatalf("through the decorator: %d batches, %d sends; want 1 (the earlier one) and %d", log.batches, len(log.sent), len(batch))
	}
	for i, m := range log.sent {
		if m.To != batch[i].To || m.Dir != batch[i].Dir {
			t.Errorf("send %d went to rank %d dir %d, want rank %d dir %d", i, m.To, m.Dir, batch[i].To, batch[i].Dir)
		}
	}
	log.Transport.Close()
	if err := msg.SendAll(r, batch); !errors.Is(err, msg.ErrClosed) || len(log.sent) != len(batch)+1 {
		t.Errorf("on a closed transport: err %v after %d more sends; want ErrClosed after 1", err, len(log.sent)-len(batch))
	}
}

// TestReorderedDeliveryIsInvisible: lattice Boltzmann runs in 2D (full
// stencil: sides and corners) and 3D (the three-phase sweep exchange)
// whose every third message arrives late and behind another peer's end in
// the bits of the same run over the plain hub.
func TestReorderedDeliveryIsInvisible(t *testing.T) {
	t.Run("2D", func(t *testing.T) {
		const steps = 20
		want, err := RunParallel2D(channelConfig(t, MethodLB, 3, 2, 24, 16), steps, HubFactory())
		if err != nil {
			t.Fatal(err)
		}
		var swapped atomic.Int64
		cfg := channelConfig(t, MethodLB, 3, 2, 24, 16)
		got, err := RunParallel2D(cfg, steps, reordering(HubFactory(), 3, &swapped, cfg.NewProgram))
		if err != nil {
			t.Fatal(err)
		}
		if swapped.Load() == 0 {
			t.Fatal("no message was delivered behind another peer's: the run exercised nothing")
		}
		t.Logf("%d messages delivered behind another peer's", swapped.Load())
		if ok, x, y, d := resultsEqual(want, got, 0); !ok {
			t.Errorf("reordered delivery differs from the plain hub at (%d,%d) by %g", x, y, d)
		}
	})
	t.Run("3D", func(t *testing.T) {
		const steps = 10
		cfg := func() *Config3D {
			// Three boxes along the periodic axes, so the two faces of a
			// sweep phase belong to two different peers.
			d, err := decomp.New3D(3, 2, 3, 12, 8, 12)
			if err != nil {
				t.Fatal(err)
			}
			d.PeriodicX, d.PeriodicZ = true, true
			p := fluid.DefaultParams()
			p.Nu, p.Eps, p.ForceX = 0.1, 0.005, 1e-5
			return &Config3D{
				Method: MethodLB, Par: p, Mask: fluid.ChannelMask3D(12, 8, 12), D: d,
				InitRho: func(x, y, z int) float64 { return 1 + 0.001*math.Sin(2*math.Pi*float64(x+z)/12) },
			}
		}
		want, err := RunParallel3D(cfg(), steps, HubFactory())
		if err != nil {
			t.Fatal(err)
		}
		var swapped atomic.Int64
		c := cfg()
		got, err := RunParallel3D(c, steps, reordering(HubFactory(), 3, &swapped, c.NewProgram))
		if err != nil {
			t.Fatal(err)
		}
		if swapped.Load() == 0 {
			t.Fatal("no message was delivered behind another peer's: the run exercised nothing")
		}
		t.Logf("%d messages delivered behind another peer's", swapped.Load())
		for i := range want.Rho {
			for _, pair := range [][2][]float64{{want.Rho, got.Rho}, {want.Vx, got.Vx}, {want.Vy, got.Vy}, {want.Vz, got.Vz}} {
				if math.Float64bits(pair[0][i]) != math.Float64bits(pair[1][i]) {
					t.Fatalf("reordered delivery differs from the plain hub at index %d", i)
				}
			}
		}
	})
}
