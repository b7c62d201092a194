package decomp

import (
	"reflect"
	"testing"
)

// TestWeightedSpansEqualWeightsBitIdentical: the degenerate equal-weights
// case must reproduce the uniform splitter bit for bit, remainders
// included, so homogeneous pools see no change at all.
func TestWeightedSpansEqualWeightsBitIdentical(t *testing.T) {
	for _, tc := range []struct{ g, p int }{
		{80, 2}, {81, 2}, {100, 7}, {40, 5}, {25, 25}, {26, 25}, {7, 3},
	} {
		w := make([]float64, tc.p)
		for i := range w {
			w[i] = 0.84 // any equal value, including a non-unit one
		}
		got, err := WeightedSpans(tc.g, w)
		if err != nil {
			t.Fatalf("WeightedSpans(%d, equal x%d): %v", tc.g, tc.p, err)
		}
		want := uniformSpans(tc.g, tc.p)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("g=%d p=%d: weighted %v != uniform %v", tc.g, tc.p, got, want)
		}
	}
}

// TestWeightedSpansProportional: spans track the weights (a 2:1 speed
// ratio yields a 2:1 span split) and always sum to the grid.
func TestWeightedSpansProportional(t *testing.T) {
	spans, err := WeightedSpans(30, []float64{1.0, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if spans[0] != 20 || spans[1] != 10 {
		t.Errorf("2:1 weights over 30 nodes = %v, want [20 10]", spans)
	}
	// A tiny weight still gets at least one node.
	spans, err = WeightedSpans(10, []float64{1, 1, 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for i, n := range spans {
		if n < 1 {
			t.Errorf("piece %d got %d nodes", i, n)
		}
		sum += n
	}
	if sum != 10 {
		t.Errorf("spans %v sum to %d, want 10", spans, sum)
	}
	// Invalid inputs are rejected.
	if _, err := WeightedSpans(2, []float64{1, 1, 1}); err == nil {
		t.Error("3 pieces over 2 nodes accepted")
	}
	if _, err := WeightedSpans(10, []float64{1, -1}); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := WeightedSpans(10, nil); err == nil {
		t.Error("no weights accepted")
	}
}

// weighted2D builds a speed-weighted decomposition the way production does
// (farm.WeightedShape, then the shaped constructor): spans from the
// per-rank host speeds, rank order row-major, then the lattice over them.
func weighted2D(jx, jy, gx, gy int, st Stencil, speed []float64) (*Decomp, error) {
	sh, err := WeightedShape(jx, jy, 0, gx, gy, 0, speed)
	if err != nil {
		return nil, err
	}
	return NewShaped(sh, st)
}

// weighted3D is weighted2D for a box lattice.
func weighted3D(jx, jy, jz, gx, gy, gz int, speed []float64) (*Decomp, error) {
	sh, err := WeightedShape(jx, jy, jz, gx, gy, gz, speed)
	if err != nil {
		return nil, err
	}
	return NewShaped(sh, Star)
}

// TestNew2DWeightedEqualSpeedsBitIdentical: with equal speeds the whole
// weighted decomposition — every subregion struct, rank and offset — is
// bit-identical to the uniform one (the ISSUE's degenerate-case
// guarantee).
func TestNew2DWeightedEqualSpeedsBitIdentical(t *testing.T) {
	speed := make([]float64, 5*4)
	for i := range speed {
		speed[i] = 39132
	}
	got, err := weighted2D(5, 4, 203, 161, Full, speed) // remainders on both axes
	if err != nil {
		t.Fatal(err)
	}
	want, err := New2D(5, 4, 203, 161, Full)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("equal-speed weighted decomposition differs from uniform:\n%v\n%v", got, want)
	}

	speed3 := make([]float64, 2*2*3)
	for i := range speed3 {
		speed3[i] = 1
	}
	got3, err := weighted3D(2, 2, 3, 17, 9, 11, speed3)
	if err != nil {
		t.Fatal(err)
	}
	want3, err := New3D(2, 2, 3, 17, 9, 11)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got3, want3) {
		t.Errorf("equal-speed weighted 3D decomposition differs from uniform")
	}
}

// TestNew2DWeightedChainExact: on a (P x 1) chain the marginal weights
// are the per-rank speeds themselves, so each subregion's span is exactly
// proportional to its own host's speed and contiguity holds.
func TestNew2DWeightedChainExact(t *testing.T) {
	speed := []float64{2, 1, 1}
	d, err := weighted2D(3, 1, 120, 40, Star, speed)
	if err != nil {
		t.Fatal(err)
	}
	wantNX := []int{60, 30, 30}
	x0 := 0
	for i := 0; i < 3; i++ {
		s := d.Sub(i, 0, 0)
		if s.NX != wantNX[i] {
			t.Errorf("column %d: NX = %d, want %d", i, s.NX, wantNX[i])
		}
		if s.X0 != x0 {
			t.Errorf("column %d: X0 = %d, want contiguous %d", i, s.X0, x0)
		}
		if s.NY != 40 || s.Y0 != 0 {
			t.Errorf("column %d: y span %d@%d, want 40@0", i, s.NY, s.Y0)
		}
		x0 += s.NX
	}
	// The faster host's subregion computes 2x the nodes: balanced at 2x
	// speed.
	if d.Sub(0, 0, 0).Nodes() != 2*d.Sub(1, 0, 0).Nodes() {
		t.Errorf("node ratio %d:%d, want 2:1", d.Sub(0, 0, 0).Nodes(), d.Sub(1, 0, 0).Nodes())
	}
}

// TestWeightedNeighborsAligned: weighted spans stay lattice-aligned, so
// the halo topology is identical to the uniform decomposition's and
// every east-west neighbour pair shares its y span (the message length).
func TestWeightedNeighborsAligned(t *testing.T) {
	speed := []float64{1.0, 0.84, 0.86, 1.0, 0.84, 0.86} // (3 x 2) mixed models
	d, err := weighted2D(3, 2, 121, 81, Full, speed)
	if err != nil {
		t.Fatal(err)
	}
	u, err := New2D(3, 2, 121, 81, Full)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range d.subs {
		us := u.Sub(s.I, s.J, 0)
		for _, dir := range Dirs(Full) {
			n := d.Neighbor(d.Sub(s.I, s.J, 0), dir)
			un := u.Neighbor(us, dir)
			if (n == nil) != (un == nil) {
				t.Fatalf("(%d,%d) dir %v: weighted neighbour %v, uniform %v", s.I, s.J, dir, n, un)
			}
			if n != nil && (n.I != un.I || n.J != un.J) {
				t.Errorf("(%d,%d) dir %v: weighted neighbour (%d,%d), uniform (%d,%d)",
					s.I, s.J, dir, n.I, n.J, un.I, un.J)
			}
		}
		if e := d.Neighbor(d.Sub(s.I, s.J, 0), East); e != nil {
			if e.NY != s.NY || e.Y0 != s.Y0 {
				t.Errorf("(%d,%d): east neighbour y span %d@%d, self %d@%d — halo mismatch",
					s.I, s.J, e.NY, e.Y0, s.NY, s.Y0)
			}
		}
	}
}

// TestDeactivateRenumbersWeightedSpans is the satellite regression:
// deactivating subregions of a weighted (non-uniform-span) decomposition
// must renumber the remaining ranks densely in row-major order, keep
// ByRank consistent with the lattice, and drop the inactive subregion
// from the neighbour topology — exactly as it does for uniform spans.
func TestDeactivateRenumbersWeightedSpans(t *testing.T) {
	speed := []float64{2, 1, 1, 1, 1, 2} // (3 x 2), deliberately lopsided
	d, err := weighted2D(3, 2, 100, 60, Star, speed)
	if err != nil {
		t.Fatal(err)
	}
	d.Deactivate(1, 0, 0)
	d.Deactivate(2, 1, 0)
	if d.P() != 4 {
		t.Fatalf("P = %d after two deactivations of 6, want 4", d.P())
	}
	// Dense ranks in row-major order over the active subregions.
	want := map[[2]int]int{{0, 0}: 0, {2, 0}: 1, {0, 1}: 2, {1, 1}: 3}
	for pos, rank := range want {
		s := d.Sub(pos[0], pos[1], 0)
		if !s.Active || s.Rank != rank {
			t.Errorf("(%d,%d): rank %d active %v, want rank %d active", pos[0], pos[1], s.Rank, s.Active, rank)
		}
		if got := d.ByRank(rank); got.I != pos[0] || got.J != pos[1] {
			t.Errorf("ByRank(%d) = (%d,%d), want (%d,%d)", rank, got.I, got.J, pos[0], pos[1])
		}
	}
	for _, pos := range [][2]int{{1, 0}, {2, 1}} {
		if s := d.Sub(pos[0], pos[1], 0); s.Active || s.Rank != -1 {
			t.Errorf("(%d,%d): still active (rank %d)", pos[0], pos[1], s.Rank)
		}
	}
	// The hole is gone from the topology, and spans survive untouched.
	if n := d.Neighbor(d.Sub(0, 0, 0), East); n != nil {
		t.Errorf("(0,0) east neighbour is inactive (1,0), got rank %d", n.Rank)
	}
	if n := d.Neighbor(d.Sub(1, 1, 0), West); n == nil || n.Rank != 2 {
		t.Errorf("(1,1) west neighbour = %v, want rank 2 at (0,1)", n)
	}
	// Column marginals 3:2:3 over 100 nodes: quotas 37.5/25/37.5, the
	// odd node going to the lower-index tie.
	if got := d.ShapeOf(); !reflect.DeepEqual(got.X, []int{38, 25, 37}) {
		t.Errorf("x spans after deactivation = %v, want [38 25 37]", got.X)
	}
	// ActiveSubregions returns exactly the renumbered four, in rank order.
	act := d.ActiveSubregions()
	if len(act) != 4 {
		t.Fatalf("%d active subregions, want 4", len(act))
	}
	for i, s := range act {
		if s.Rank != i {
			t.Errorf("active subregion %d has rank %d", i, s.Rank)
		}
	}
}

// TestShapeCheck covers the shape validation errors.
func TestShapeCheck(t *testing.T) {
	ok := Shape{X: []int{3, 2}, Y: []int{4}}
	if err := ok.Check(2, 1, 0, 5, 4, 0); err != nil {
		t.Errorf("valid shape rejected: %v", err)
	}
	bad := []struct {
		name string
		sh   Shape
	}{
		{"wrong piece count", Shape{X: []int{5}, Y: []int{4}}},
		{"zero span", Shape{X: []int{5, 0}, Y: []int{4}}},
		{"sum mismatch", Shape{X: []int{3, 3}, Y: []int{4}}},
		{"z spans on 2D", Shape{X: []int{3, 2}, Y: []int{4}, Z: []int{1}}},
	}
	for _, tc := range bad {
		if err := tc.sh.Check(2, 1, 0, 5, 4, 0); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
	if _, err := NewShaped(Shape{X: []int{3, 0}, Y: []int{4}}, Star); err == nil {
		t.Error("NewShaped accepted a zero span")
	}
	if _, err := NewShaped(Shape{X: []int{3}, Z: []int{4}}, Star); err == nil {
		t.Error("NewShaped accepted a shape without y spans")
	}
}

// TestShapeEqualAndIsZero covers Shape's comparisons.
func TestShapeEqualAndIsZero(t *testing.T) {
	s2 := Shape{X: []int{3, 2}, Y: []int{4, 1}}
	s3 := Shape{X: []int{3}, Y: []int{4}, Z: []int{5, 2}}
	if !s2.Equal(Shape{X: []int{3, 2}, Y: []int{4, 1}}) {
		t.Error("equal shapes compare unequal")
	}
	if s2.Equal(s3) || s2.Equal(Shape{}) {
		t.Error("unequal shapes compare equal")
	}
	if !(Shape{}).IsZero() || s2.IsZero() {
		t.Error("IsZero wrong")
	}
}

// TestNew3DWeightedSpans: the 3D weighted splitter sizes every axis by
// its marginal speed and keeps boxes contiguous.
func TestNew3DWeightedSpans(t *testing.T) {
	// (2 x 1 x 1): x axis split 2:1 by the two hosts' speeds.
	d, err := weighted3D(2, 1, 1, 90, 30, 30, []float64{2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if a, b := d.Sub(0, 0, 0), d.Sub(1, 0, 0); a.NX != 60 || b.NX != 30 || b.X0 != 60 {
		t.Errorf("3D chain spans: %d@%d, %d@%d, want 60@0, 30@60", a.NX, a.X0, b.NX, b.X0)
	}
	if d.SurfaceFactor() != 1 {
		t.Errorf("surface factor %d, want 1 (one communicating face each)", d.SurfaceFactor())
	}
}

// WeightedSpans is weightedSpans into a new slice.
func WeightedSpans(g int, w []float64) ([]int, error) {
	spans := make([]int, len(w))
	if err := weightedSpans(spans, g, w); err != nil {
		return nil, err
	}
	return spans, nil
}
