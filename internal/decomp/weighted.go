// Speed-weighted decomposition: the heterogeneous-workstation refinement
// of the paper's uniform splitting. The pool mixes 715/50, 720 and 710
// models, so identical-shaped subregions run every job at its slowest
// host's pace; sizing each subregion's span proportionally to its host's
// speed balances the per-step compute so the step finishes together.
//
// The splitter stays rectangular and lattice-aligned — spans vary per
// axis index, never per cell — so the halo-exchange topology (Neighbor,
// Sends/Expects) is untouched: a weighted decomposition exchanges exactly
// the same messages as a uniform one, just with different boundary
// lengths. Uniform splitting is the degenerate equal-weights case, bit
// for bit: equal weights reproduce the uniform spans, so homogeneous pools
// see no change at all.
package decomp

import (
	"cmp"
	"fmt"
	"slices"
)

// Shape is an explicit per-axis span assignment for a (JX x JY [x JZ])
// decomposition: X[i] interior nodes for lattice column i, Y[j] for row
// j, and — for 3D — Z[k] for layer k. A zero Shape means "uniform".
// Shapes are what a farm records in its checkpoints: a job placed with a
// weighted decomposition must be rebuilt with the same spans or its rank
// dumps no longer fit.
type Shape struct {
	X, Y, Z []int
}

// IsZero reports whether the shape is unset (uniform splitting applies).
func (s Shape) IsZero() bool { return len(s.X) == 0 && len(s.Y) == 0 && len(s.Z) == 0 }

// Equal reports whether two shapes assign identical spans.
func (s Shape) Equal(o Shape) bool {
	return slices.Equal(s.X, o.X) && slices.Equal(s.Y, o.Y) && slices.Equal(s.Z, o.Z)
}

// Check validates the shape against a decomposition lattice and global
// grid: every axis present with the right piece count, every span
// positive, and the spans summing to the grid extent.
func (s Shape) Check(jx, jy, jz, gx, gy, gz int) error {
	axis := func(name string, spans []int, p, g int) error {
		if len(spans) != p {
			return fmt.Errorf("decomp: shape has %d %s spans for %d pieces", len(spans), name, p)
		}
		sum := 0
		for _, n := range spans {
			if n < 1 {
				return fmt.Errorf("decomp: shape has a %d-node %s span", n, name)
			}
			sum += n
		}
		if sum != g {
			return fmt.Errorf("decomp: %s spans sum to %d, grid is %d", name, sum, g)
		}
		return nil
	}
	if err := axis("x", s.X, jx, gx); err != nil {
		return err
	}
	if err := axis("y", s.Y, jy, gy); err != nil {
		return err
	}
	if jz > 0 {
		return axis("z", s.Z, jz, gz)
	}
	if len(s.Z) != 0 {
		return fmt.Errorf("decomp: 2D shape carries %d z spans", len(s.Z))
	}
	return nil
}

// uniformSpans splits g nodes into p equal pieces, remainder distributed
// one node per leading piece — exactly the spans New2D/New3D assign.
func uniformSpans(g, p int) []int {
	out := make([]int, p)
	for i := range out {
		_, out[i] = span(g, p, i)
	}
	return out
}

// UniformShape returns the uniform shape of a (jx x jy x jz) decomposition
// of a gx x gy x gz grid; jz < 1 is a planar decomposition, whose shape has
// no z spans.
func UniformShape(jx, jy, jz, gx, gy, gz int) Shape {
	sh := Shape{X: uniformSpans(gx, jx), Y: uniformSpans(gy, jy)}
	if jz > 0 {
		sh.Z = uniformSpans(gz, jz)
	}
	return sh
}

// UniformShape3D is UniformShape under the name bench/ calls.
func UniformShape3D(jx, jy, jz, gx, gy, gz int) Shape {
	return UniformShape(jx, jy, jz, gx, gy, gz)
}

// maxScratch is the longest axis kept on the stack; no 25-host job is longer.
const maxScratch = 32

// weightedSpans splits g nodes into len(w) contiguous pieces, written
// into spans, with piece i proportional to weight w[i], by the
// largest-remainder method: each piece gets the floor of its exact quota,
// and the leftover nodes go one each to the pieces with the largest
// fractional parts (ties to the lower index). Every piece gets at least
// one node. Equal weights reproduce the uniform spans bit for bit: all
// quotas tie, so the leading pieces take the remainder, exactly as the
// uniform splitter does.
func weightedSpans(spans []int, g int, w []float64) error {
	p := len(w)
	if p == 0 {
		return fmt.Errorf("decomp: no weights")
	}
	if g < p {
		return fmt.Errorf("decomp: %d nodes for %d weighted pieces", g, p)
	}
	total := 0.0
	for i, wi := range w {
		if wi <= 0 {
			return fmt.Errorf("decomp: weight %d is %v, want > 0", i, wi)
		}
		total += wi
	}
	var fracBuf [maxScratch]float64
	var orderBuf [maxScratch]int
	frac, order := fracBuf[:0], orderBuf[:0]
	assigned := 0
	for i, wi := range w {
		quota := float64(g) * wi / total
		spans[i] = int(quota)
		frac = append(frac, quota-float64(spans[i]))
		order = append(order, i)
		assigned += spans[i]
	}
	// Distribute the remainder by largest fractional part, lower index
	// first among ties.
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(frac[b], frac[a]) })
	for r := 0; r < g-assigned; r++ {
		spans[order[r]]++
	}
	largest := func() int {
		max := 0
		for i, n := range spans {
			if n > spans[max] {
				max = i
			}
		}
		return max
	}
	// Floating-point quotas can (in pathological cases) over-assign; give
	// back from the largest pieces, and lift any zero-span piece (a tiny
	// weight floored to nothing) to one node.
	for over := assigned - g; over > 0; over-- {
		spans[largest()]--
	}
	for i := range spans {
		for spans[i] < 1 {
			spans[largest()]--
			spans[i]++
		}
	}
	return nil
}

// WeightedShape computes the speed-weighted shape of a (jx x jy x jz)
// decomposition of a gx x gy x gz grid (jz < 1: planar, no z spans) from
// per-rank host speeds, rank order row-major with planes outermost (rank =
// (k*jy + j)*jx + i). The weight of a column, row or plane is the summed
// speed of its hosts. For chain decompositions the marginal is exact —
// each subregion's span is proportional to its own host's speed; for
// general lattices it is the best rectangular approximation that keeps
// spans lattice-aligned. Equal speeds yield the uniform shape bit for bit.
func WeightedShape(jx, jy, jz, gx, gy, gz int, speed []float64) (Shape, error) {
	planes := max(jz, 1)
	if len(speed) != jx*jy*planes {
		return Shape{}, fmt.Errorf("decomp: %d speeds for a (%d x %d x %d) lattice", len(speed), jx, jy, jz)
	}
	// Weights on the stack, spans in one array: the shape is all it allocates.
	var wBuf [3 * maxScratch]float64
	buf := slices.Grow(wBuf[:0], jx+jy+planes)[:jx+jy+planes]
	w := [3][]float64{buf[:jx], buf[jx : jx+jy], buf[jx+jy:]}
	for rank, s := range speed {
		if s <= 0 {
			return Shape{}, fmt.Errorf("decomp: speed of rank %d is %v, want > 0", rank, s)
		}
		w[0][rank%jx] += s
		w[1][rank/jx%jy] += s
		w[2][rank/(jx*jy)] += s
	}
	var spans [3][]int
	free := make([]int, len(buf))
	for axis, g := range [3]int{gx, gy, gz} {
		if axis == 2 && jz < 1 {
			break
		}
		n := len(w[axis])
		spans[axis], free = free[:n:n], free[n:]
		if err := weightedSpans(spans[axis], g, w[axis]); err != nil {
			return Shape{}, err
		}
	}
	return Shape{X: spans[0], Y: spans[1], Z: spans[2]}, nil
}
