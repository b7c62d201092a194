package filter

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/fluid"
	"repro/internal/grid"
)

func allFluid(x, y int) fluid.CellType { return fluid.Interior }

func allFluid3(x, y, z int) fluid.CellType { return fluid.Interior }

func TestFilterLeavesConstantField(t *testing.T) {
	f := grid.NewField2D(12, 12, 1)
	f.Fill(3.7)
	Apply2D([]*grid.Field2D{f}, 0.01, allFluid, make([]float64, 12*12))
	for y := 0; y < 12; y++ {
		for x := 0; x < 12; x++ {
			if f.At(x, y) != 3.7 {
				t.Fatalf("constant field changed at (%d,%d): %v", x, y, f.At(x, y))
			}
		}
	}
}

func TestFilterLeavesQuadraticField(t *testing.T) {
	// The fourth difference of a quadratic is exactly zero, so the filter
	// must not perturb a parabolic (Poiseuille) profile.
	f := grid.NewField2D(16, 16, 1)
	for y := -1; y <= 16; y++ {
		for x := -1; x <= 16; x++ {
			f.Set(x, y, float64(y*y)+0.5*float64(x*x)-2*float64(x))
		}
	}
	want := f.Clone()
	Apply2D([]*grid.Field2D{f}, 0.02, allFluid, make([]float64, 16*16))
	if !f.InteriorEqual(want, 1e-12) {
		t.Error("filter perturbed a quadratic field")
	}
}

func TestFilterDampsGridScaleOscillation(t *testing.T) {
	// The (-1)^x mode is the highest spatial frequency; one filter pass
	// with strength eps multiplies it by (1 - 16 eps) per axis.
	f := grid.NewField2D(20, 20, 1)
	for y := -1; y <= 20; y++ {
		for x := -1; x <= 20; x++ {
			if (x+y)%2 == 0 {
				f.Set(x, y, 1)
			} else {
				f.Set(x, y, -1)
			}
		}
	}
	eps := 0.01
	Apply2D([]*grid.Field2D{f}, eps, allFluid, make([]float64, 20*20))
	// Interior node far from the skip zone: both axes contribute 16 eps.
	got := math.Abs(f.At(10, 10))
	want := math.Abs(1 - 32*eps)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("damped amplitude %v, want %v", got, want)
	}
	if got >= 1 {
		t.Error("filter failed to damp the grid-scale mode")
	}
}

func TestFilterSkipZone(t *testing.T) {
	// Nodes within distance 2 of a subregion side are skipped.
	f := grid.NewField2D(12, 12, 1)
	for y := -1; y <= 12; y++ {
		for x := -1; x <= 12; x++ {
			if (x+y)%2 == 0 {
				f.Set(x, y, 1)
			} else {
				f.Set(x, y, -1)
			}
		}
	}
	before := f.Clone()
	Apply2D([]*grid.Field2D{f}, 0.01, allFluid, make([]float64, 12*12))
	for _, p := range [][2]int{{0, 5}, {1, 5}, {11, 5}, {10, 5}, {5, 0}, {5, 1}, {5, 11}, {5, 10}} {
		if f.At(p[0], p[1]) != before.At(p[0], p[1]) {
			t.Errorf("skip-zone node (%d,%d) was filtered", p[0], p[1])
		}
	}
	if f.At(5, 5) == before.At(5, 5) {
		t.Error("interior node was not filtered")
	}
}

func TestFilterSkipsNearWalls(t *testing.T) {
	// A wall at (6,6): nodes within stencil reach of it are skipped.
	mask := func(x, y int) fluid.CellType {
		if x == 6 && y == 6 {
			return fluid.Wall
		}
		return fluid.Interior
	}
	f := grid.NewField2D(13, 13, 1)
	for y := -1; y <= 13; y++ {
		for x := -1; x <= 13; x++ {
			if (x+y)%2 == 0 {
				f.Set(x, y, 1)
			} else {
				f.Set(x, y, -1)
			}
		}
	}
	before := f.Clone()
	Apply2D([]*grid.Field2D{f}, 0.01, mask, make([]float64, 13*13))
	// (4,6) has the wall at distance 2 on its stencil arm: skipped.
	if f.At(4, 6) != before.At(4, 6) {
		t.Error("node with wall in stencil reach was filtered")
	}
	// (4,4) does not reach the wall with a star stencil: filtered.
	if f.At(4, 4) == before.At(4, 4) {
		t.Error("diagonal node should not see the wall (star stencil)")
	}
}

func TestFilterZeroEpsIsNoOp(t *testing.T) {
	f := grid.NewField2D(8, 8, 1)
	f.Set(4, 4, 5)
	want := f.Clone()
	Apply2D([]*grid.Field2D{f}, 0, allFluid, nil) // nil scratch legal when eps == 0
	if !f.InteriorEqual(want, 0) {
		t.Error("eps=0 filter modified the field")
	}
}

func TestFilterSweepOrderIndependent(t *testing.T) {
	// The correction is gathered before any write, so a spike's neighbours
	// see the unfiltered spike. Verify against the hand-computed result.
	f := grid.NewField2D(16, 16, 1)
	f.Set(8, 8, 1)
	eps := 0.01
	Apply2D([]*grid.Field2D{f}, eps, allFluid, make([]float64, 16*16))
	// At the spike: correction = 6+6 = 12 times the spike value.
	if got, want := f.At(8, 8), 1-eps*12; math.Abs(got-want) > 1e-15 {
		t.Errorf("spike value %v, want %v", got, want)
	}
	// At distance 1: -4 from the spike's column plus 0 from own row... the
	// node (7,8) sees the spike at x+1: coefficient -4.
	if got, want := f.At(7, 8), 0+eps*4.0; math.Abs(got-want) > 1e-15 {
		t.Errorf("neighbour value %v, want %v", got, want)
	}
	// At distance 2 on-axis: coefficient +1.
	if got, want := f.At(6, 8), -eps*1.0; math.Abs(got-want) > 1e-15 {
		t.Errorf("distance-2 value %v, want %v", got, want)
	}
	// Off-axis diagonal neighbour: unaffected by the star-shaped operator.
	if got := f.At(7, 7); got != 0 {
		t.Errorf("diagonal value %v, want 0", got)
	}
}

func TestFilterScratchTooSmallPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("undersized scratch did not panic")
		}
	}()
	f := grid.NewField2D(8, 8, 1)
	Apply2D([]*grid.Field2D{f}, 0.01, allFluid, make([]float64, 10))
}

func TestFilter3DQuadraticUnchanged(t *testing.T) {
	f := grid.NewField3D(10, 10, 10, 1)
	for z := -1; z <= 10; z++ {
		for y := -1; y <= 10; y++ {
			for x := -1; x <= 10; x++ {
				f.Set(x, y, z, float64(x*x+y*y+z*z))
			}
		}
	}
	want := f.Clone()
	Apply3D([]*grid.Field3D{f}, 0.02, allFluid3, make([]float64, 1000))
	if !f.InteriorEqual(want, 1e-12) {
		t.Error("3D filter perturbed a quadratic field")
	}
}

func TestFilter3DDampsSpike(t *testing.T) {
	f := grid.NewField3D(12, 12, 12, 1)
	f.Set(6, 6, 6, 1)
	eps := 0.01
	Apply3D([]*grid.Field3D{f}, eps, allFluid3, make([]float64, 12*12*12))
	if got, want := f.At(6, 6, 6), 1-eps*18; math.Abs(got-want) > 1e-15 {
		t.Errorf("3D spike value %v, want %v", got, want)
	}
	if got := f.At(2, 2, 2); got != 0 {
		t.Errorf("far node %v, want 0", got)
	}
}

func TestApplicable2DBounds(t *testing.T) {
	if Applicable2D(1, 5, 10, 10, allFluid) {
		t.Error("x=1 should be in the skip zone")
	}
	if Applicable2D(5, 8, 10, 10, allFluid) {
		t.Error("y=8 of ny=10 should be in the skip zone")
	}
	if !Applicable2D(5, 5, 10, 10, allFluid) {
		t.Error("centre node should be filterable")
	}
}

// TestPlanApplicabilityMatchesApplicable: the plans' bitmaps, built from a
// classified cells array, equal Applicable2D/3D evaluated through the mask
// closure at every node, for random masks of every cell type — and whatever
// the closure answers beyond the interior, because an applicable node's
// probes never get there.
func TestPlanApplicabilityMatchesApplicable(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, size := range [][3]int{{1, 1, 1}, {4, 5, 6}, {5, 5, 5}, {9, 12, 7}, {16, 8, 10}} {
		nx, ny, nz := size[0], size[1], size[2]
		for _, beyond := range []fluid.CellType{fluid.Interior, fluid.Wall} {
			m2, m3 := fluid.NewMask2D(nx, ny), fluid.NewMask3D(nx, ny, nz)
			for k := 0; k < nx*ny*nz/40; k++ {
				c := fluid.CellType(1 + rng.Intn(3))
				m2.Set(rng.Intn(nx), rng.Intn(ny), c)
				m3.Set(rng.Intn(nx), rng.Intn(ny), rng.Intn(nz), c)
			}
			mask2 := func(x, y int) fluid.CellType {
				if x < 0 || x >= nx || y < 0 || y >= ny {
					return beyond
				}
				return m2.At(x, y)
			}
			mask3 := func(x, y, z int) fluid.CellType {
				if x < 0 || x >= nx || y < 0 || y >= ny || z < 0 || z >= nz {
					return beyond
				}
				return m3.At(x, y, z)
			}
			p2, p3 := NewPlan2D(nx, ny, mask2), NewPlan3D(nx, ny, nz, mask3)
			for z := 0; z < nz; z++ {
				for y := 0; y < ny; y++ {
					for x := 0; x < nx; x++ {
						if z == 0 && p2.ok[y*nx+x] != Applicable2D(x, y, nx, ny, mask2) {
							t.Fatalf("%v: 2D plan disagrees with Applicable2D at (%d,%d)", size, x, y)
						}
						if p3.ok[(z*ny+y)*nx+x] != Applicable3D(x, y, z, nx, ny, nz, mask3) {
							t.Fatalf("%v: 3D plan disagrees with Applicable3D at (%d,%d,%d)", size, x, y, z)
						}
					}
				}
			}
		}
	}
}

// TestPlanCutsInSolverUnits: a plan hands each field's one sweep to the
// runner in the units the solvers size their slabs by, rows of a planar plan and planes
// of a box one. Were a planar plan cut by its one plane, a multi-slab
// runner would run its filter as one slab.
func TestPlanCutsInSolverUnits(t *testing.T) {
	var units []int
	slabs := 0
	count := func(n int, fn func(lo, hi int)) {
		units = append(units, n)
		for i := 0; i < 4; i++ {
			if lo, hi := i*n/4, (i+1)*n/4; lo < hi {
				slabs++
				fn(lo, hi)
			}
		}
	}
	p2 := NewPlan2D(16, 12, allFluid)
	p2.Apply([]*grid.Field2D{grid.NewField2D(16, 12, 1)}, 0.01, make([]float64, 16*12), count)
	if len(units) != 1 || units[0] != 12 || slabs != 4 {
		t.Errorf("planar 16x12: runner saw units %v in %d slabs, want rows [12] in 4", units, slabs)
	}
	units, slabs = nil, 0
	p3 := NewPlan3D(10, 9, 8, allFluid3)
	p3.Apply([]*grid.Field3D{grid.NewField3D(10, 9, 8, 1)}, 0.01, make([]float64, 10*9*8), count)
	if len(units) != 1 || units[0] != 8 || slabs != 4 {
		t.Errorf("box 10x9x8: runner saw units %v in %d slabs, want planes [8] in 4", units, slabs)
	}
}
