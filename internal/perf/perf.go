// Package perf is the performance plane of the reproduction: it replays
// the per-step communication pattern of a decomposed simulation through
// the virtual cluster (host speeds from the section-7 speed table) and the
// shared-bus Ethernet model, and measures parallel efficiency with the
// timing protocol of section 7.
//
// Wall-clock timing of the functional plane cannot reproduce a 1994
// cluster (loopback TCP on one modern machine has neither the 10 Mbps
// shared bus nor the 39k-nodes-per-second hosts), so every efficiency and
// speedup figure of the paper is regenerated here instead: same
// decompositions, same message counts and sizes, same host speeds, same
// measurement discipline. The discrete-event engine preserves the real
// dependency structure — a subregion starts its next phase only when its
// own compute and all expected halo messages have finished — so pipeline
// effects, the (P-1) bus contention of equation 19 and the
// un-synchronization window of appendix A all emerge rather than being
// assumed.
package perf

import (
	"fmt"

	"repro/internal/netsim"
)

// OutMsg is one outgoing halo message in the pattern.
type OutMsg struct {
	Dst   int
	Bytes int // payload bytes (frame headers are the bus's business)
}

// WorkerSpec is the static per-step pattern of one parallel subprocess.
type WorkerSpec struct {
	Rank int
	// StepComputeSec is the local computation per integration step.
	StepComputeSec float64
	// PhaseFrac splits the step compute across phases; it must sum to 1.
	PhaseFrac []float64
	// Out lists the messages sent at the end of each phase.
	Out [][]OutMsg
	// Expect is the number of messages that must arrive for each phase
	// before the next phase may start.
	Expect []int
}

// Spec is a complete experiment.
type Spec struct {
	Workers []WorkerSpec
	Steps   int
	// Net is the interconnect: a netsim.Bus for the paper's shared
	// Ethernet, or a netsim.Switch for the conclusion's outlook
	// technologies.
	Net netsim.Network

	// SpikeProb models the occasional large delay of a time-shared
	// workstation (another process briefly steals the CPU): with
	// probability SpikeProb a phase takes twice as long. Appendix C's
	// comparison of FCFS versus strict ordering hinges on how such
	// delays propagate. Seed makes the draws reproducible.
	SpikeProb float64
	Seed      int64

	// StrictOrder gates each worker's sends to higher ranks on the
	// arrival of its lower neighbour's message (appendix C's strict
	// pipeline ordering); the default is first-come-first-served.
	StrictOrder bool
}

// Result is the outcome of one simulated run.
type Result struct {
	PerStepSec float64
	Net        netsim.Stats
}

// hashUnit maps (seed, rank, step, phase) to a uniform value in [0, 1)
// with a splitmix-style mixer.
func hashUnit(seed int64, rank, step, phase int) float64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(rank)*0xbf58476d1ce4e5b9 +
		uint64(step)*0x94d049bb133111eb + uint64(phase)*0x2545f4914f6cdd1d
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / float64(1<<53)
}

// worker is the runtime state of one subprocess.
type worker struct {
	spec WorkerSpec

	step, phase int
	// computed marks the current phase's local work as finished.
	computed bool
	// arrived counts halo arrivals per (step, phase).
	arrived map[[2]int]int
	// deferred holds strict-order sends awaiting the left neighbour.
	deferred map[[2]int][]OutMsg
	// leftSeen marks (step, phase) pairs whose left-neighbour message
	// arrived (strict-order mode).
	leftSeen map[[2]int]bool

	finish float64
	done   bool
}

// Run executes the experiment and returns timing results.
func Run(s *Spec) (*Result, error) {
	if len(s.Workers) == 0 || s.Steps <= 0 || s.Net == nil {
		return nil, fmt.Errorf("perf: incomplete spec")
	}
	for _, ws := range s.Workers {
		if len(ws.PhaseFrac) == 0 || len(ws.Out) != len(ws.PhaseFrac) || len(ws.Expect) != len(ws.PhaseFrac) {
			return nil, fmt.Errorf("perf: rank %d: inconsistent phase arrays", ws.Rank)
		}
		sum := 0.0
		for _, f := range ws.PhaseFrac {
			sum += f
		}
		if sum < 0.999 || sum > 1.001 {
			return nil, fmt.Errorf("perf: rank %d: phase fractions sum to %v", ws.Rank, sum)
		}
	}
	s.Net.Reset()
	q := netsim.NewQueue()

	ws := make([]*worker, len(s.Workers))
	for i := range s.Workers {
		ws[i] = &worker{
			spec:     s.Workers[i],
			arrived:  make(map[[2]int]int),
			deferred: make(map[[2]int][]OutMsg),
			leftSeen: make(map[[2]int]bool),
		}
	}

	var phaseDone func(w *worker, t float64)
	var tryAdvance func(w *worker, t float64)

	computeDur := func(w *worker) float64 {
		d := w.spec.StepComputeSec * w.spec.PhaseFrac[w.phase]
		// The draw depends only on (rank, step, phase), so runs that
		// differ only in ordering policy (FCFS vs strict) see identical
		// delay realizations.
		if s.SpikeProb > 0 && hashUnit(s.Seed+1, w.spec.Rank, w.step, w.phase) < s.SpikeProb {
			d *= 2
		}
		return d
	}

	startPhase := func(w *worker, t float64) {
		w.computed = false
		q.At(t+computeDur(w), func(t float64) { phaseDone(w, t) })
	}

	var deliver func(w *worker, src, step, phase int, t float64)

	transmit := func(src int, msgs []OutMsg, step, phase int, t float64) {
		for _, m := range msgs {
			dst := ws[m.Dst]
			at := s.Net.Transmit(t, src, m.Dst, m.Bytes)
			q.At(at, func(t float64) { deliver(dst, src, step, phase, t) })
		}
	}

	// releaseDeferred sends the right-going messages held for strict
	// ordering once the left neighbour's message has arrived.
	releaseDeferred := func(w *worker, key [2]int, t float64) {
		if msgs, ok := w.deferred[key]; ok {
			delete(w.deferred, key)
			transmit(w.spec.Rank, msgs, key[0], key[1], t)
		}
	}

	deliver = func(w *worker, src, step, phase int, t float64) {
		key := [2]int{step, phase}
		w.arrived[key]++
		if s.StrictOrder && src == w.spec.Rank-1 {
			w.leftSeen[key] = true
			releaseDeferred(w, key, t)
		}
		tryAdvance(w, t)
	}

	phaseDone = func(w *worker, t float64) {
		w.computed = true
		msgs := w.spec.Out[w.phase]
		key := [2]int{w.step, w.phase}
		if s.StrictOrder && w.spec.Rank > 0 && w.spec.Expect[w.phase] > 0 && !w.leftSeen[key] {
			// Appendix C strict ordering: hold right-going sends until
			// the left neighbour's data arrives; left-going sends flow.
			var now, held []OutMsg
			for _, m := range msgs {
				if m.Dst > w.spec.Rank {
					held = append(held, m)
				} else {
					now = append(now, m)
				}
			}
			transmit(w.spec.Rank, now, w.step, w.phase, t)
			if len(held) > 0 {
				w.deferred[key] = append(w.deferred[key], held...)
			}
		} else {
			transmit(w.spec.Rank, msgs, w.step, w.phase, t)
		}
		tryAdvance(w, t)
	}

	tryAdvance = func(w *worker, t float64) {
		if w.done {
			return
		}
		key := [2]int{w.step, w.phase}
		if !w.computed || w.arrived[key] < w.spec.Expect[w.phase] {
			return
		}
		// Phase complete: consume and advance.
		delete(w.arrived, key)
		delete(w.leftSeen, key)
		w.phase++
		if w.phase == len(w.spec.PhaseFrac) {
			w.phase = 0
			w.step++
			if w.step == s.Steps {
				w.done = true
				w.finish = t
				return
			}
		}
		startPhase(w, t)
	}

	for _, w := range ws {
		startPhase(w, 0)
	}
	q.Run()

	elapsed := 0.0
	for _, w := range ws {
		if !w.done {
			return nil, fmt.Errorf("perf: rank %d stalled at step %d phase %d", w.spec.Rank, w.step, w.phase)
		}
		if w.finish > elapsed {
			elapsed = w.finish
		}
	}
	return &Result{PerStepSec: elapsed / float64(s.Steps), Net: s.Net.Stats()}, nil
}
