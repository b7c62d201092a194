package netsim

import (
	"math"
	"testing"
)

func testBus() *Bus {
	return &Bus{BandwidthBps: 10e6, OverheadSec: 1e-3, FrameBytes: 0, CollisionFactor: 0}
}

func TestDuration(t *testing.T) {
	b := testBus()
	// 1250 bytes = 10000 bits = 1 ms at 10 Mbps, plus 1 ms overhead.
	if got := b.Duration(1250); math.Abs(got-2e-3) > 1e-12 {
		t.Errorf("Duration = %v, want 2ms", got)
	}
}

func TestTransmitIdleBus(t *testing.T) {
	b := testBus()
	at := b.Transmit(1.0, 0, 1, 1250)
	if math.Abs(at-1.002) > 1e-12 {
		t.Errorf("delivery at %v, want 1.002", at)
	}
	st := b.Stats()
	if st.Messages != 1 || st.Contended != 0 || st.MaxBacklogSec != 0 {
		t.Errorf("stats %+v", st)
	}
}

func TestTransmitQueues(t *testing.T) {
	b := testBus()
	b.Transmit(0, 0, 1, 1250)       // bus busy until 0.002
	at := b.Transmit(0, 0, 1, 1250) // queued behind the first
	if math.Abs(at-0.004) > 1e-12 {
		t.Errorf("second delivery at %v, want 0.004", at)
	}
	if st := b.Stats(); st.MaxBacklogSec < 0.0019 {
		t.Errorf("backlog %v, want ~2ms", st.MaxBacklogSec)
	}
}

func TestCollisionPenalty(t *testing.T) {
	b := testBus()
	b.CollisionFactor = 1.0
	b.Transmit(0, 0, 1, 1250)
	at := b.Transmit(0, 0, 1, 1250) // contended: pays double
	if math.Abs(at-(0.002+0.004)) > 1e-12 {
		t.Errorf("contended delivery at %v, want 0.006", at)
	}
	if st := b.Stats(); st.Contended != 1 {
		t.Errorf("contended = %d, want 1", st.Contended)
	}
}

func TestOverloadErrors(t *testing.T) {
	b := testBus()
	b.OverloadBacklogSec = 0.003
	for i := 0; i < 5; i++ {
		b.Transmit(0, 0, 1, 1250) // each adds 2ms of backlog
	}
	if st := b.Stats(); st.Errors == 0 {
		t.Error("no errors despite backlog past the overload threshold")
	}
}

func TestTransmitOutOfOrderPanics(t *testing.T) {
	b := testBus()
	b.Transmit(1.0, 0, 1, 100)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order transmit did not panic")
		}
	}()
	b.Transmit(0.5, 0, 1, 100)
}

func TestReset(t *testing.T) {
	b := testBus()
	b.Transmit(5, 0, 1, 1000)
	b.Reset()
	st := b.Stats()
	if st.Messages != 0 || st.BusySec != 0 {
		t.Errorf("stats after reset: %+v", st)
	}
	// After reset, earlier times are legal again.
	if at := b.Transmit(0, 0, 1, 1250); math.Abs(at-0.002) > 1e-12 {
		t.Errorf("post-reset delivery %v", at)
	}
}

func TestQueueOrdering(t *testing.T) {
	q := NewQueue()
	var order []int
	q.At(3, func(t float64) { order = append(order, 3) })
	q.At(1, func(t float64) { order = append(order, 1) })
	q.At(2, func(t float64) { order = append(order, 2) })
	end := q.Run()
	if end != 3 {
		t.Errorf("final time %v", end)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("event order %v", order)
	}
}

func TestQueueTieBreakDeterministic(t *testing.T) {
	q := NewQueue()
	var order []string
	q.At(1, func(t float64) { order = append(order, "a") })
	q.At(1, func(t float64) { order = append(order, "b") })
	q.Run()
	if order[0] != "a" || order[1] != "b" {
		t.Errorf("tie-break order %v, want insertion order", order)
	}
}

func TestQueueCascade(t *testing.T) {
	// Events scheduled from within events run in time order.
	q := NewQueue()
	var times []float64
	q.At(1, func(t float64) {
		times = append(times, t)
		q.At(t+1, func(t float64) { times = append(times, t) })
	})
	q.At(1.5, func(t float64) { times = append(times, t) })
	q.Run()
	want := []float64{1, 1.5, 2}
	for i, w := range want {
		if times[i] != w {
			t.Fatalf("times %v, want %v", times, want)
		}
	}
}

func TestQueuePastSchedulingPanics(t *testing.T) {
	q := NewQueue()
	q.At(2, func(now float64) {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		q.At(1, func(float64) {})
	})
	q.Run()
}
