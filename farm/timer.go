package farm

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/decomp"
	"repro/internal/netsim"
	"repro/internal/perf"
)

// StepTimer estimates the wall-clock seconds one integration step of a
// job takes on a given placement. The shape is the job's per-axis span
// assignment — speed-weighted for heterogeneous placements, zero for
// "uniform" — fixed at the job's first placement and preserved across
// suspensions and migrations (the rank dumps only fit one geometry).
// The scheduler calls the timer at every (re)placement and migration, so
// heterogeneous hosts and changed placements after a preemption are
// priced correctly against the job's actual per-rank loads.
type StepTimer func(spec JobSpec, shape decomp.Shape, hosts []*cluster.Host) (float64, error)

// shapeOrUniform resolves a zero shape to the spec's uniform shape and
// validates a non-zero one against the spec's lattice and grid.
func shapeOrUniform(spec JobSpec, shape decomp.Shape) (decomp.Shape, error) {
	if shape.IsZero() {
		return uniformShape(spec), nil
	}
	return shape, checkShape(spec, shape)
}

// checkShape validates a non-zero shape against the spec's lattice and
// grid; the zero shape is the uniform split, which always fits.
func checkShape(spec JobSpec, shape decomp.Shape) error {
	if shape.IsZero() {
		return nil
	}
	gx, gy, gz := spec.Grid()
	if err := shape.Check(spec.JX, spec.JY, spec.JZ, gx, gy, gz); err != nil {
		return fmt.Errorf("farm: job %s: %w", spec.ID, err)
	}
	return nil
}

// uniformShape returns the spec's uniform (equal-spans) shape, the
// degenerate case every job priced before speed weighting used.
func uniformShape(spec JobSpec) decomp.Shape {
	gx, gy, gz := spec.Grid()
	return decomp.UniformShape(spec.JX, spec.JY, spec.JZ, gx, gy, gz)
}

// WeightedShape returns the spec's speed-weighted shape for a placement:
// hosts[rank] serves rank, and each subregion's spans are sized
// proportionally to its host's speed (per-axis marginals). Equal speeds
// reproduce the uniform shape bit for bit. The hetero experiment builds
// on it and on Imbalance.
func WeightedShape(spec JobSpec, hosts []*cluster.Host) (decomp.Shape, error) {
	if len(hosts) < spec.Ranks() {
		return decomp.Shape{}, fmt.Errorf("farm: %d hosts for %d ranks of %s", len(hosts), spec.Ranks(), spec.ID)
	}
	return weightedShape(spec, rankSpeeds(nil, spec, hosts))
}

// weightedShape is WeightedShape over the ranks' host speeds.
func weightedShape(spec JobSpec, speed []float64) (decomp.Shape, error) {
	gx, gy, gz := spec.Grid()
	return decomp.WeightedShape(spec.JX, spec.JY, spec.JZ, gx, gy, gz, speed)
}

// rankSpeeds appends to buf the speed at which each rank's host runs the
// spec's method; hosts holds at least one host per rank.
func rankSpeeds(buf []float64, spec JobSpec, hosts []*cluster.Host) []float64 {
	for _, h := range hosts[:spec.Ranks()] {
		buf = append(buf, h.Speed(spec.Method))
	}
	return buf
}

// axisSpan returns piece i's nodes on an axis of p pieces over g nodes:
// spans[i], or on a zero shape the uniform split's, as decomp splits, so
// a uniform placement is priced and measured without building its shape.
func axisSpan(spans []int, g, p, i int) int {
	if len(spans) > 0 {
		return spans[i]
	}
	n := g / p
	if i < g%p {
		n++
	}
	return n
}

// forEachRank walks the spec's lattice in rank order (row-major, planes
// outermost) yielding each rank's node count under the shape, which is
// zero or has passed checkShape.
func forEachRank(spec JobSpec, shape decomp.Shape, f func(rank, nodes int)) {
	gx, gy, gz := spec.Grid()
	rank := 0
	for k := range max(spec.JZ, 1) {
		nz := 1
		if spec.Is3D() {
			nz = axisSpan(shape.Z, gz, spec.JZ, k)
		}
		for j := range spec.JY {
			nyz := axisSpan(shape.Y, gy, spec.JY, j) * nz
			for i := range spec.JX {
				f(rank, axisSpan(shape.X, gx, spec.JX, i)*nyz)
				rank++
			}
		}
	}
}

// ComputeTimer is the communication-free estimate: the parallel step
// runs at the pace of the slowest rank's local compute, each rank's node
// count under the shape divided by its host's speed-table rate. With a
// zero (uniform) shape every rank integrates its box of the uniform
// split and the step is priced at the slowest host's pace — the
// pre-weighting behaviour; a speed-weighted shape balances the per-rank
// loads so mixed pools stop paying the worst-host penalty.
func ComputeTimer(spec JobSpec, shape decomp.Shape, hosts []*cluster.Host) (float64, error) {
	if len(hosts) < spec.Ranks() {
		return 0, fmt.Errorf("farm: %d hosts for %d ranks of %s", len(hosts), spec.Ranks(), spec.ID)
	}
	if err := checkShape(spec, shape); err != nil {
		return 0, err
	}
	worst := 0.0
	forEachRank(spec, shape, func(rank, nodes int) {
		if t := float64(nodes) / hosts[rank].Speed(spec.Method); t > worst {
			worst = t
		}
	})
	return worst, nil
}

// Imbalance returns the placement's load-imbalance ratio: the slowest
// rank's compute time over the ideal perfectly balanced time (total
// nodes spread over the hosts' aggregate speed). 1.0 is perfect balance;
// a uniform split of a mixed-model pool sits strictly above it. The
// farm records the ratio per job and internal/metrics aggregates it.
func Imbalance(spec JobSpec, shape decomp.Shape, hosts []*cluster.Host) (float64, error) {
	worst, err := ComputeTimer(spec, shape, hosts)
	if err != nil {
		return 0, err
	}
	// Every shape's spans sum to the grid, so the ranks hold all its nodes.
	gx, gy, gz := spec.Grid()
	speed := 0.0
	for _, h := range hosts[:spec.Ranks()] {
		speed += h.Speed(spec.Method)
	}
	ideal := float64(gx*gy*max(gz, 1)) / speed
	if ideal <= 0 {
		return 0, fmt.Errorf("farm: job %s: degenerate placement (no nodes or no speed)", spec.ID)
	}
	return worst / ideal, nil
}

// PerfTimer bridges the scheduler to the performance plane: the returned
// StepTimer builds the job's decomposition (shaped, when the scheduler
// chose a weighted shape), derives its per-step halo-exchange pattern
// (message counts and sizes per section 6), and replays it through the
// perf discrete-event engine over a fresh netFn() network — so a job's
// virtual runtime includes the communication and pipeline effects the
// compute-only estimate ignores. Each estimate gets its own network
// instance; cross-job contention on one shared bus is an open item (see
// ROADMAP.md).
func PerfTimer(netFn func() netsim.Network) StepTimer {
	return func(spec JobSpec, shape decomp.Shape, hosts []*cluster.Host) (float64, error) {
		if len(hosts) < spec.Ranks() {
			return 0, fmt.Errorf("farm: %d hosts for %d ranks of %s", len(hosts), spec.Ranks(), spec.ID)
		}
		sh, err := shapeOrUniform(spec, shape)
		if err != nil {
			return 0, err
		}
		d, err := decomp.NewShaped(sh, decomp.StencilFor(spec.Method))
		if err != nil {
			return 0, err
		}
		workers, err := perf.Build(d, spec.Method, hosts)
		if err != nil {
			return 0, err
		}
		sec, _, err := perf.Measure(workers, netFn())
		return sec, err
	}
}
