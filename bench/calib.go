package main

import (
	"runtime"
	"time"
)

// The benchmark runs on a shared two-core virtual machine whose speed
// moves by a quarter from one second to the next as its neighbours come
// and go, for every kind of work alike. Wall-clock rates taken there
// spread by 10-25% between runs of one commit, which no regression bound
// survives. So the gated end-to-end rates are taken against a reference
// loop: a fixed chain of dependent floating-point operations is timed
// before and after every measured window, and the window's time is
// expressed in reference seconds — the wall time divided by how much
// slower than one iteration per nanosecond the loop ran around it. A
// reference second is 0.9 wall seconds on this box when it is quiet, and
// stays put when it is not: in a minute where wall-clock step times spread
// by 12%, the same steps in reference time spread by 4%.
//
// setup_s is taken the same way, so it is in reference seconds too: a slow
// spell of the machine must not read as a slower set-up. Wall-clock
// readings of the rates are reported beside them as per-layer metrics, and
// the set-up's wall-clock samples are in the run's details.

// refIters is the length of the reference loop: about 9 ms here.
const refIters = 8_000_000

// refLoop runs the reference loop once and returns its wall time in ns.
// Ranks run it concurrently, so it shares nothing.
func refLoop() float64 {
	t := time.Now()
	s := 0.0
	for i := 0; i < refIters; i++ {
		s += float64(i%7) * 1.0000001
	}
	d := float64(time.Since(t))
	if s < 0 { // never true; it keeps the sum, and so the loop, alive
		return 0
	}
	return d
}

// refSeconds converts a window's wall time to reference seconds, given the
// reference loop's time around it.
func refSeconds(wallNs, loopNs float64) float64 {
	return wallNs / 1e9 * refIters / loopNs
}

// refMeter times single-goroutine operations in reference seconds: a
// reference loop runs before the first operation and after each one, and
// an operation is judged against the mean of the two loops around it.
type refMeter struct {
	last float64
}

func newRefMeter() *refMeter { return &refMeter{last: refLoop()} }

// measure runs fn and returns its duration in wall and reference seconds.
func (m *refMeter) measure(fn func()) (wall, ref float64) {
	t := time.Now()
	fn()
	d := float64(time.Since(t))
	next := refLoop()
	ref = refSeconds(d, (m.last+next)/2)
	m.last = next
	return d / 1e9, ref
}

// measureFresh is measure for an operation that does not follow the
// previous one directly: the loop before it is run anew, after a forced
// collection so the operation starts from a settled heap.
func (m *refMeter) measureFresh(fn func()) (wall, ref float64) {
	runtime.GC()
	m.last = refLoop()
	return m.measure(fn)
}
