package fd

import (
	"runtime"
	"testing"

	"repro/internal/fluid"
	"repro/internal/grid"
	"repro/internal/pool"
)

// TestGeometryKeepsOneCopy bounds what NewGeometry2D/3D allocate with the
// filter on, at no worker budget and at a budget of 64: the StateFields,
// the cell types and the filter plan's bitmap (a byte a node each), the
// open-row flags, a ring of three rows (planes) of every velocity field
// for each slab of the cut pool.Slabs allows (and for the serial ring
// the constructor sized), and a little more — no
// next-step buffer and no lattice-sized filter scratch, either of which
// alone is over the bound. 64x48 rows are too short for pool.Slabs to cut,
// so its ring stays the serial one whatever the budget.
func TestGeometryKeepsOneCopy(t *testing.T) {
	par := testParams()
	open2 := func(x, y int) fluid.CellType { return fluid.Interior }
	for _, w := range []int{0, 64} {
		for _, c := range []struct {
			name               string
			nodes, unit, swept int // the lattice's nodes, a row's (plane's), the velocity fields
			build              func() (arrays [][]float64)
		}{
			{"2D 64x48", 64 * 48, 64, 2, func() [][]float64 {
				s, err := NewGeometry2D(64, 48, par, open2)
				if err != nil {
					t.Fatal(err)
				}
				s.SetWorkers(w)
				_, a := s.StateFields()
				return a
			}},
			{"3D 48x32x32", 48 * 32 * 32, 48 * 32, 3, func() [][]float64 {
				s, err := NewGeometry3D(48, 32, 32, par, allFluid3)
				if err != nil {
					t.Fatal(err)
				}
				s.SetWorkers(w)
				_, a := s.StateFields()
				return a
			}},
		} {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			arrays := c.build()
			runtime.ReadMemStats(&after)
			units := c.nodes / c.unit
			slabs := 1 + max(1, pool.Slabs(w, units, c.unit)) // and the constructor's serial ring, dropped by SetWorkers
			bound := uint64(2*c.nodes+units*2+3*slabs*c.swept*c.unit*8) + 16<<10
			for _, a := range arrays {
				bound += uint64(cap(a))*8 + grid.PageBytes // a field's start is staggered within a page
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > bound {
				t.Errorf("%s, %d workers: NewGeometry and SetWorkers allocated %d bytes, over the %d that one copy of the state allows", c.name, w, got, bound)
			}
		}
	}
}
