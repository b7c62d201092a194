package netsim

import "fmt"

// Network abstracts the interconnect of the performance plane, so the
// experiment engine can run the same message pattern over the paper's
// shared bus or over the technologies its conclusion predicts would make
// 3D practical: "Ethernet switches, FDDI and ATM networks".
type Network interface {
	// Transmit requests the fabric at time t for a message of
	// payloadBytes from src to dst and returns the delivery time.
	// Requests must arrive in non-decreasing t order.
	Transmit(t float64, src, dst, payloadBytes int) float64
	// Stats returns accumulated counters.
	Stats() Stats
	// Reset clears state between experiments.
	Reset()
}

// Switch models a store-and-forward switched network: each host has a
// dedicated full-duplex link into the fabric, so transmissions contend
// only per egress/ingress port, never globally. This is the "Ethernet
// switch" of the paper's conclusion; with a faster line rate it also
// stands in for FDDI (100 Mbps) and ATM (155 Mbps).
type Switch struct {
	BandwidthBps float64
	OverheadSec  float64
	FrameBytes   int

	txFree  map[int]float64 // per-source egress availability
	rxFree  map[int]float64 // per-destination ingress availability
	busySec float64
	msgs    int
	lastReq float64
}

// NewSwitch returns a switched fabric at the given line rate with the
// given per-message software overhead.
func NewSwitch(bandwidthBps, overheadSec float64, frameBytes int) *Switch {
	return &Switch{
		BandwidthBps: bandwidthBps,
		OverheadSec:  overheadSec,
		FrameBytes:   frameBytes,
		txFree:       map[int]float64{},
		rxFree:       map[int]float64{},
	}
}

// SwitchedEthernet returns a 10 Mbps switched Ethernet: same line rate and
// overhead as the shared bus, contention removed.
func SwitchedEthernet() *Switch { return NewSwitch(10e6, 0.5e-3, 60) }

// FDDI returns a 100 Mbps fabric (the token ring's capacity treated as
// switched point-to-point, an optimistic reading the paper's outlook
// shares).
func FDDI() *Switch { return NewSwitch(100e6, 0.5e-3, 60) }

// ATM returns a 155 Mbps fabric with smaller per-message overhead
// (hardware segmentation and reassembly).
func ATM() *Switch { return NewSwitch(155e6, 0.2e-3, 53) }

// Transmit sends a message through the fabric: it serializes on the
// source's egress link, then on the destination's ingress link.
func (s *Switch) Transmit(t float64, src, dst, payloadBytes int) float64 {
	if t < s.lastReq-1e-12 {
		panic(fmt.Sprintf("netsim: switch transmit at %.9f after %.9f", t, s.lastReq))
	}
	s.lastReq = t
	dur := s.OverheadSec + float64(payloadBytes+s.FrameBytes)*8/s.BandwidthBps

	start := t
	if f := s.txFree[src]; f > start {
		start = f
	}
	s.txFree[src] = start + dur
	// Store-and-forward: the frame reaches the switch at start+dur, then
	// serializes out of the destination port.
	out := start + dur
	if f := s.rxFree[dst]; f > out {
		out = f
	}
	s.rxFree[dst] = out + dur
	s.busySec += dur
	s.msgs++
	return out + dur
}

// Stats returns the message count and busy time; a switched fabric
// drops nothing and reports no backlog, so Errors, Contended and
// MaxBacklogSec stay zero.
func (s *Switch) Stats() Stats {
	return Stats{Messages: s.msgs, BusySec: s.busySec}
}

// Reset clears the fabric between experiments.
func (s *Switch) Reset() {
	s.txFree = map[int]float64{}
	s.rxFree = map[int]float64{}
	s.busySec, s.lastReq = 0, 0
	s.msgs = 0
}
