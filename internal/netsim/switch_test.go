package netsim

import (
	"math"
	"testing"
)

func TestSwitchNoCrossTalk(t *testing.T) {
	// Two disjoint pairs transmit simultaneously: on a switch neither
	// waits for the other (on the bus the second would queue).
	sw := NewSwitch(10e6, 0, 0)
	a := sw.Transmit(0, 0, 1, 12500) // 10 ms serialization, x2 store-and-forward
	b := sw.Transmit(0, 2, 3, 12500)
	if math.Abs(a-b) > 1e-12 {
		t.Errorf("disjoint transfers differ: %v vs %v", a, b)
	}
	if math.Abs(a-0.02) > 1e-9 {
		t.Errorf("delivery %v, want 0.02 (two 10ms hops)", a)
	}

	bus := &Bus{BandwidthBps: 10e6, OverheadSec: 0, FrameBytes: 0}
	a = bus.Transmit(0, 0, 1, 12500)
	b = bus.Transmit(0, 2, 3, 12500)
	if b <= a {
		t.Error("bus should serialize what the switch parallelizes")
	}
}

func TestSwitchEgressContention(t *testing.T) {
	// Two messages from the same source serialize on its egress link.
	sw := NewSwitch(10e6, 0, 0)
	first := sw.Transmit(0, 0, 1, 12500)
	second := sw.Transmit(0, 0, 2, 12500)
	if second <= first {
		t.Errorf("same-source sends did not serialize: %v then %v", first, second)
	}
}

func TestSwitchIngressContention(t *testing.T) {
	// Two messages to the same destination serialize on its ingress link.
	sw := NewSwitch(10e6, 0, 0)
	first := sw.Transmit(0, 0, 5, 12500)
	second := sw.Transmit(0, 1, 5, 12500)
	if second < first+0.01-1e-9 {
		t.Errorf("same-destination arrivals overlap: %v then %v", first, second)
	}
}

func TestSwitchResetAndStats(t *testing.T) {
	sw := SwitchedEthernet()
	sw.Transmit(0, 0, 1, 1000)
	if sw.Stats().Messages != 1 {
		t.Error("message not counted")
	}
	sw.Reset()
	if sw.Stats().Messages != 0 || sw.Stats().BusySec != 0 {
		t.Error("reset incomplete")
	}
	// Out-of-order requests panic, as on the bus.
	sw.Transmit(1, 0, 1, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order switch transmit did not panic")
		}
	}()
	sw.Transmit(0.5, 0, 1, 10)
}

func TestFabricPresets(t *testing.T) {
	// FDDI and ATM are strictly faster per byte than switched Ethernet.
	msg := 100000
	se := SwitchedEthernet().Transmit(0, 0, 1, msg)
	fd := FDDI().Transmit(0, 0, 1, msg)
	at := ATM().Transmit(0, 0, 1, msg)
	if !(at < fd && fd < se) {
		t.Errorf("fabric ordering wrong: ATM %v, FDDI %v, switched %v", at, fd, se)
	}
}

func TestBusIgnoresEndpoints(t *testing.T) {
	// Every frame occupies the one shared segment, whoever sends it to
	// whom: the same requests between other endpoints deliver alike.
	var n Network = DefaultEthernet()
	first := n.Transmit(0, 3, 4, 1250)
	second := n.Transmit(0, 5, 6, 1250)
	n.Reset()
	if again := n.Transmit(0, 0, 1, 1250); again != first {
		t.Errorf("delivery %v between other endpoints, want %v", again, first)
	}
	if contended := n.Transmit(0, 1, 0, 1250); contended != second {
		t.Errorf("queued delivery %v between other endpoints, want %v", contended, second)
	}
	if st := n.Stats(); st.Messages != 2 || st.Contended != 1 {
		t.Errorf("stats %+v, want 2 messages, 1 contended", st)
	}
}
