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
// for bit: WeightedSpans with equal weights reproduces UniformSpans, so
// homogeneous pools see no change at all.
package decomp

import (
	"fmt"
	"slices"
	"sort"
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

// Is3D reports whether the shape carries a z axis.
func (s Shape) Is3D() bool { return len(s.Z) > 0 }

// Nodes returns the interior node count of the subregion at lattice
// position (i, j) in 2D or (i, j, k) in 3D (pass k = 0 for 2D shapes).
func (s Shape) Nodes(i, j, k int) int {
	n := s.X[i] * s.Y[j]
	if s.Is3D() {
		n *= s.Z[k]
	}
	return n
}

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

// UniformSpans splits g nodes into p equal pieces, remainder distributed
// one node per leading piece — exactly the spans New2D/New3D assign.
func UniformSpans(g, p int) []int {
	out := make([]int, p)
	for i := range out {
		_, out[i] = span(g, p, i)
	}
	return out
}

// UniformShape2D returns the uniform shape of a (jx x jy) decomposition.
func UniformShape2D(jx, jy, gx, gy int) Shape {
	return Shape{X: UniformSpans(gx, jx), Y: UniformSpans(gy, jy)}
}

// UniformShape3D returns the uniform shape of a (jx x jy x jz) box
// decomposition.
func UniformShape3D(jx, jy, jz, gx, gy, gz int) Shape {
	return Shape{X: UniformSpans(gx, jx), Y: UniformSpans(gy, jy), Z: UniformSpans(gz, jz)}
}

// WeightedSpans splits g nodes into len(w) contiguous pieces with piece i
// proportional to weight w[i], by the largest-remainder method: each
// piece gets the floor of its exact quota, and the leftover nodes go one
// each to the pieces with the largest fractional parts (ties to the
// lower index). Every piece gets at least one node. Equal weights
// reproduce UniformSpans bit for bit: all quotas tie, so the leading
// pieces take the remainder, exactly as the uniform splitter does.
func WeightedSpans(g int, w []float64) ([]int, error) {
	p := len(w)
	if p == 0 {
		return nil, fmt.Errorf("decomp: no weights")
	}
	if g < p {
		return nil, fmt.Errorf("decomp: %d nodes for %d weighted pieces", g, p)
	}
	total := 0.0
	for i, wi := range w {
		if wi <= 0 {
			return nil, fmt.Errorf("decomp: weight %d is %v, want > 0", i, wi)
		}
		total += wi
	}
	spans := make([]int, p)
	frac := make([]float64, p)
	assigned := 0
	for i, wi := range w {
		quota := float64(g) * wi / total
		spans[i] = int(quota)
		frac[i] = quota - float64(spans[i])
		assigned += spans[i]
	}
	// Distribute the remainder by largest fractional part, lower index
	// first among ties.
	order := make([]int, p)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return frac[order[a]] > frac[order[b]] })
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
	return spans, nil
}

// SpeedWeights2D turns per-rank host speeds into per-axis weights for a
// (jx x jy) lattice, rank order row-major (rank = j*jx + i): the column
// weight is the mean speed of the column's hosts, the row weight the
// mean of the row's. For chain decompositions (jx = 1 or jy = 1) the
// marginal is exact — each subregion's span is proportional to its own
// host's speed; for general lattices it is the best rectangular
// approximation that keeps spans lattice-aligned.
func SpeedWeights2D(jx, jy int, speed []float64) (wx, wy []float64, err error) {
	if len(speed) != jx*jy {
		return nil, nil, fmt.Errorf("decomp: %d speeds for a (%d x %d) lattice", len(speed), jx, jy)
	}
	for i, s := range speed {
		if s <= 0 {
			return nil, nil, fmt.Errorf("decomp: speed of rank %d is %v, want > 0", i, s)
		}
	}
	wx = make([]float64, jx)
	wy = make([]float64, jy)
	for j := 0; j < jy; j++ {
		for i := 0; i < jx; i++ {
			s := speed[j*jx+i]
			wx[i] += s
			wy[j] += s
		}
	}
	return wx, wy, nil
}

// SpeedWeights3D is the 3D analogue of SpeedWeights2D, rank order
// (k*jy + j)*jx + i.
func SpeedWeights3D(jx, jy, jz int, speed []float64) (wx, wy, wz []float64, err error) {
	if len(speed) != jx*jy*jz {
		return nil, nil, nil, fmt.Errorf("decomp: %d speeds for a (%d x %d x %d) lattice", len(speed), jx, jy, jz)
	}
	for i, s := range speed {
		if s <= 0 {
			return nil, nil, nil, fmt.Errorf("decomp: speed of rank %d is %v, want > 0", i, s)
		}
	}
	wx = make([]float64, jx)
	wy = make([]float64, jy)
	wz = make([]float64, jz)
	for k := 0; k < jz; k++ {
		for j := 0; j < jy; j++ {
			for i := 0; i < jx; i++ {
				s := speed[(k*jy+j)*jx+i]
				wx[i] += s
				wy[j] += s
				wz[k] += s
			}
		}
	}
	return wx, wy, wz, nil
}

// WeightedShape2D computes the speed-weighted shape of a (jx x jy)
// decomposition of a gx x gy grid from per-rank host speeds. Equal
// speeds yield the uniform shape bit for bit.
func WeightedShape2D(jx, jy, gx, gy int, speed []float64) (Shape, error) {
	wx, wy, err := SpeedWeights2D(jx, jy, speed)
	if err != nil {
		return Shape{}, err
	}
	sx, err := WeightedSpans(gx, wx)
	if err != nil {
		return Shape{}, err
	}
	sy, err := WeightedSpans(gy, wy)
	if err != nil {
		return Shape{}, err
	}
	return Shape{X: sx, Y: sy}, nil
}

// WeightedShape3D computes the speed-weighted shape of a (jx x jy x jz)
// box decomposition of a gx x gy x gz grid from per-rank host speeds.
func WeightedShape3D(jx, jy, jz, gx, gy, gz int, speed []float64) (Shape, error) {
	wx, wy, wz, err := SpeedWeights3D(jx, jy, jz, speed)
	if err != nil {
		return Shape{}, err
	}
	sx, err := WeightedSpans(gx, wx)
	if err != nil {
		return Shape{}, err
	}
	sy, err := WeightedSpans(gy, wy)
	if err != nil {
		return Shape{}, err
	}
	sz, err := WeightedSpans(gz, wz)
	if err != nil {
		return Shape{}, err
	}
	return Shape{X: sx, Y: sy, Z: sz}, nil
}

// New2DShaped builds a 2D decomposition with explicit per-axis spans.
// The global grid is the sum of the spans; New2D is the uniform special
// case. Subregions stay contiguous (X0 of column i+1 is X0+NX of column
// i), so halo exchange works unchanged.
func New2DShaped(sh Shape, st Stencil) (*Decomp2D, error) {
	jx, jy := len(sh.X), len(sh.Y)
	if jx == 0 || jy == 0 || len(sh.Z) != 0 {
		return nil, fmt.Errorf("decomp: 2D shape needs x and y spans only (got %d/%d/%d)",
			len(sh.X), len(sh.Y), len(sh.Z))
	}
	gx, gy := 0, 0
	for _, n := range sh.X {
		gx += n
	}
	for _, n := range sh.Y {
		gy += n
	}
	if err := sh.Check(jx, jy, 0, gx, gy, 0); err != nil {
		return nil, err
	}
	d := &Decomp2D{JX: jx, JY: jy, GX: gx, GY: gy, Stencil: st}
	d.subs = make([]Subregion2D, jx*jy)
	y0 := 0
	for j := 0; j < jy; j++ {
		x0 := 0
		for i := 0; i < jx; i++ {
			d.subs[j*jx+i] = Subregion2D{
				Rank: j*jx + i, I: i, J: j,
				X0: x0, Y0: y0, NX: sh.X[i], NY: sh.Y[j],
				Active: true,
			}
			x0 += sh.X[i]
		}
		y0 += sh.Y[j]
	}
	d.active = jx * jy
	return d, nil
}

// New3DShaped builds a 3D decomposition with explicit per-axis spans,
// the analogue of New2DShaped.
func New3DShaped(sh Shape) (*Decomp3D, error) {
	jx, jy, jz := len(sh.X), len(sh.Y), len(sh.Z)
	if jx == 0 || jy == 0 || jz == 0 {
		return nil, fmt.Errorf("decomp: 3D shape needs x, y and z spans (got %d/%d/%d)",
			len(sh.X), len(sh.Y), len(sh.Z))
	}
	gx, gy, gz := 0, 0, 0
	for _, n := range sh.X {
		gx += n
	}
	for _, n := range sh.Y {
		gy += n
	}
	for _, n := range sh.Z {
		gz += n
	}
	if err := sh.Check(jx, jy, jz, gx, gy, gz); err != nil {
		return nil, err
	}
	d := &Decomp3D{JX: jx, JY: jy, JZ: jz, GX: gx, GY: gy, GZ: gz}
	d.subs = make([]Subregion3D, jx*jy*jz)
	r := 0
	z0 := 0
	for k := 0; k < jz; k++ {
		y0 := 0
		for j := 0; j < jy; j++ {
			x0 := 0
			for i := 0; i < jx; i++ {
				d.subs[(k*jy+j)*jx+i] = Subregion3D{
					Rank: r, I: i, J: j, K: k,
					X0: x0, Y0: y0, Z0: z0,
					NX: sh.X[i], NY: sh.Y[j], NZ: sh.Z[k],
					Active: true,
				}
				r++
				x0 += sh.X[i]
			}
			y0 += sh.Y[j]
		}
		z0 += sh.Z[k]
	}
	d.active = r
	return d, nil
}

// ShapeOf extracts the per-axis spans of an existing 2D decomposition
// (row 0's columns and column 0's rows; shaped decompositions are
// lattice-aligned by construction).
func (d *Decomp2D) ShapeOf() Shape {
	sh := Shape{X: make([]int, d.JX), Y: make([]int, d.JY)}
	for i := 0; i < d.JX; i++ {
		sh.X[i] = d.Sub(i, 0).NX
	}
	for j := 0; j < d.JY; j++ {
		sh.Y[j] = d.Sub(0, j).NY
	}
	return sh
}

// ShapeOf extracts the per-axis spans of an existing 3D decomposition.
func (d *Decomp3D) ShapeOf() Shape {
	sh := Shape{X: make([]int, d.JX), Y: make([]int, d.JY), Z: make([]int, d.JZ)}
	for i := 0; i < d.JX; i++ {
		sh.X[i] = d.Sub(i, 0, 0).NX
	}
	for j := 0; j < d.JY; j++ {
		sh.Y[j] = d.Sub(0, j, 0).NY
	}
	for k := 0; k < d.JZ; k++ {
		sh.Z[k] = d.Sub(0, 0, k).NZ
	}
	return sh
}
