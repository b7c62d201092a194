// Package netsim models the interconnect of the paper's testbed for the
// performance plane. The shared-bus 10 Mbps Ethernet (Bus) carries
// exactly one frame at a time, so the communication time seen by P
// simultaneously communicating processes grows linearly with P — the
// (P-1) factor of equation 19 that makes 2D simulations scale and 3D
// simulations collapse (figure 9). Switch models the fabrics of the
// paper's outlook; both are a Network.
//
// Every message costs a fixed per-message overhead (protocol and software
// latency, the term the paper identifies as dominating for subregions
// below 100^2 nodes) plus its serialization time bytes*8/bandwidth. The
// bus also reports backlog statistics: when the offered load exceeds its
// capacity the backlog grows without bound, the regime in which the
// paper observed TCP/IP delivery failures after excessive retransmissions.
package netsim

import (
	"container/heap"
	"fmt"
)

// Bus is a shared-bus network with FIFO arbitration.
type Bus struct {
	// BandwidthBps is the raw bit rate (10 Mbps Ethernet by default).
	BandwidthBps float64
	// OverheadSec is the fixed per-message cost: interrupt handling,
	// protocol stacks, framing. It is what makes many small messages
	// slower than one large message (section 6: FD's two messages per
	// step versus LB's one).
	OverheadSec float64
	// FrameBytes is added to every message for TCP/IP/Ethernet headers.
	FrameBytes int

	// CollisionFactor is the extra fractional cost of a message that
	// finds the bus busy: CSMA/CD collisions, exponential backoff and
	// TCP retransmissions waste bandwidth exactly when the bus is
	// contended. A factor of 1 means a contended message effectively
	// transmits twice. This is what collapses 3D runs (figures 9-11)
	// while leaving lightly loaded 2D runs untouched.
	CollisionFactor float64

	// OverloadBacklogSec is the backlog beyond which transmissions are
	// counted as network errors (TCP retransmission failures under
	// excessive traffic, end of section 7).
	OverloadBacklogSec float64

	freeAt     float64
	busySec    float64
	maxBacklog float64
	messages   int
	contended  int
	errors     int
	lastReq    float64
}

// DefaultEthernet returns the paper's network: 10 Mbps shared bus with
// 0.5 ms per-message software overhead and 60 header bytes per message.
func DefaultEthernet() *Bus {
	return &Bus{
		BandwidthBps:    10e6,
		OverheadSec:     0.5e-3,
		FrameBytes:      60,
		CollisionFactor: 1.0,
		// Half a second of queued traffic is thousands of frame times:
		// the repeated-collision regime where 1990s Ethernet drops
		// frames (16-collision limit) and TCP retransmissions start
		// failing. The parallel processes' own receive-blocking keeps
		// healthy runs far below this (section 5.2's feedback argument).
		OverloadBacklogSec: 0.5,
	}
}

// Duration returns the bus occupancy of one message of the given payload.
func (b *Bus) Duration(payloadBytes int) float64 {
	return b.OverheadSec + float64(payloadBytes+b.FrameBytes)*8/b.BandwidthBps
}

// Transmit requests the bus at time t for a message of payloadBytes and
// returns the delivery time. The bus ignores the endpoints: every frame
// occupies the single shared segment. Calls must be made in non-decreasing
// t order (the discrete-event engine guarantees this).
func (b *Bus) Transmit(t float64, src, dst, payloadBytes int) float64 {
	if t < b.lastReq-1e-12 {
		panic(fmt.Sprintf("netsim: transmit at %.9f after %.9f; events out of order", t, b.lastReq))
	}
	b.lastReq = t
	start := t
	if b.freeAt > start {
		start = b.freeAt
	}
	backlog := start - t
	if backlog > b.maxBacklog {
		b.maxBacklog = backlog
	}
	if b.OverloadBacklogSec > 0 && backlog > b.OverloadBacklogSec {
		b.errors++
	}
	dur := b.Duration(payloadBytes)
	if backlog > 0 {
		// The bus was busy: collisions and retransmissions inflate the
		// effective cost of this message.
		dur *= 1 + b.CollisionFactor
		b.contended++
	}
	b.freeAt = start + dur
	b.busySec += dur
	b.messages++
	return b.freeAt
}

// Stats summarises bus activity.
type Stats struct {
	Messages      int
	Contended     int
	BusySec       float64
	MaxBacklogSec float64
	Errors        int
}

// Stats returns the accumulated counters.
func (b *Bus) Stats() Stats {
	return Stats{
		Messages: b.messages, Contended: b.contended,
		BusySec: b.busySec, MaxBacklogSec: b.maxBacklog, Errors: b.errors,
	}
}

// Reset clears the bus state between experiments.
func (b *Bus) Reset() {
	b.freeAt, b.busySec, b.maxBacklog, b.lastReq = 0, 0, 0, 0
	b.messages, b.contended, b.errors = 0, 0, 0
}

// Event is a scheduled discrete event.
type Event struct {
	Time float64
	Seq  int64 // tie-break for determinism
	Fn   func(t float64)
}

// Queue is a deterministic discrete-event queue.
type Queue struct {
	h   eventHeap
	seq int64
	now float64
}

// NewQueue returns an empty event queue.
func NewQueue() *Queue { return &Queue{} }

// At schedules fn at absolute time t (>= now).
func (q *Queue) At(t float64, fn func(t float64)) {
	if t < q.now-1e-12 {
		panic(fmt.Sprintf("netsim: scheduling event at %.9f before now %.9f", t, q.now))
	}
	q.seq++
	heap.Push(&q.h, &Event{Time: t, Seq: q.seq, Fn: fn})
}

// Run processes events until the queue drains, returning the final time.
func (q *Queue) Run() float64 {
	for q.h.Len() > 0 {
		e := heap.Pop(&q.h).(*Event)
		q.now = e.Time
		e.Fn(e.Time)
	}
	return q.now
}

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].Time != h[j].Time {
		return h[i].Time < h[j].Time
	}
	return h[i].Seq < h[j].Seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*Event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}
