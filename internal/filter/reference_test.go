package filter

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/fluid"
	"repro/internal/grid"
)

// refApply2D and refApply3D are the plans' correction and update sweeps as
// they stood while every node went through the Field accessors, frozen as
// the oracle for the row-slice kernels in plan.go. Each keeps its own
// update expression (Add(-eps*c) in 2D, Set(At - eps*c) in 3D).

func refApply2D(p *Plan2D, fields []*grid.Field2D, eps float64) {
	scratch := make([]float64, p.nx*p.ny)
	for _, f := range fields {
		for y := 0; y < p.ny; y++ {
			for x := 0; x < p.nx; x++ {
				if !p.ok[y*p.nx+x] {
					scratch[y*p.nx+x] = 0
					continue
				}
				d4x := f.At(x-2, y) - 4*f.At(x-1, y) + 6*f.At(x, y) - 4*f.At(x+1, y) + f.At(x+2, y)
				d4y := f.At(x, y-2) - 4*f.At(x, y-1) + 6*f.At(x, y) - 4*f.At(x, y+1) + f.At(x, y+2)
				scratch[y*p.nx+x] = d4x + d4y
			}
		}
		for y := 0; y < p.ny; y++ {
			for x := 0; x < p.nx; x++ {
				if c := scratch[y*p.nx+x]; c != 0 {
					f.Set(x, y, f.At(x, y)-eps*c)
				}
			}
		}
	}
}

func refApply3D(p *Plan3D, fields []*grid.Field3D, eps float64) {
	scratch := make([]float64, p.nx*p.ny*p.nz)
	for _, f := range fields {
		for z := 0; z < p.nz; z++ {
			for y := 0; y < p.ny; y++ {
				for x := 0; x < p.nx; x++ {
					i := (z*p.ny+y)*p.nx + x
					if !p.ok[i] {
						scratch[i] = 0
						continue
					}
					d4x := f.At(x-2, y, z) - 4*f.At(x-1, y, z) + 6*f.At(x, y, z) - 4*f.At(x+1, y, z) + f.At(x+2, y, z)
					d4y := f.At(x, y-2, z) - 4*f.At(x, y-1, z) + 6*f.At(x, y, z) - 4*f.At(x, y+1, z) + f.At(x, y+2, z)
					d4z := f.At(x, y, z-2) - 4*f.At(x, y, z-1) + 6*f.At(x, y, z) - 4*f.At(x, y, z+1) + f.At(x, y, z+2)
					scratch[i] = d4x + d4y + d4z
				}
			}
		}
		for z := 0; z < p.nz; z++ {
			for y := 0; y < p.ny; y++ {
				for x := 0; x < p.nx; x++ {
					if c := scratch[(z*p.ny+y)*p.nx+x]; c != 0 {
						f.Set(x, y, z, f.At(x, y, z)-eps*c)
					}
				}
			}
		}
	}
}

// slabs is a RunFunc that cuts [0, n) into k uneven pieces, run in turn:
// the odd-numbered ones first, so that at one seam the slab below runs
// first and at the next the slab above, and a slab that wrote a unit its
// neighbour reads before the neighbour ran would show on either side.
func slabs(k int) RunFunc {
	return func(n int, fn func(lo, hi int)) {
		for _, first := range []int{1, 0} {
			for i := first; i < k; i += 2 {
				if lo, hi := i*n/k, (i+1)*n/k; lo < hi {
					fn(lo, hi)
				}
			}
		}
	}
}

// cuts are the slab counts the reference tests cut n units into: three
// fixed ones, one slab per unit, and slabs of two (and one, when n is odd).
func cuts(n int) []int { return []int{1, 2, 3, n, (n + 1) / 2} }

func sameBits(t *testing.T, name string, want, got []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("%s[%d]: reference %v, plan %v", name, i, want[i], got[i])
		}
	}
}

// TestPlanMatchesReference filters random fields (ghosts filled too) under
// random wall masks and requires the plans to leave the same bits as the
// frozen sweeps, ghosts included, for sizes down to the smallest that
// holds one applicable node and below, and for several slab cuts: among
// them one slab per row (plane) and slabs of two, where every unit of a
// slab sits within the stencil's reach of a seam.
func TestPlanMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	fill := func(d []float64) {
		for i := range d {
			d[i] = 1 + 0.1*rng.Float64()
		}
	}
	for trial, size := range [][3]int{{3, 3, 3}, {5, 5, 5}, {6, 5, 7}, {9, 12, 5}, {17, 8, 10}, {12, 13, 11}} {
		nx, ny, nz := size[0], size[1], size[2]
		m2, m3 := fluid.NewMask2D(nx, ny), fluid.NewMask3D(nx, ny, nz)
		if trial%2 == 1 {
			m2.Set(rng.Intn(nx), rng.Intn(ny), fluid.Wall)
			m3.Set(rng.Intn(nx), rng.Intn(ny), rng.Intn(nz), fluid.Wall)
		}
		for _, h := range []int{1, 2} {
			for i := range cuts(0) {
				k2, k3 := cuts(ny)[i], cuts(nz)[i]
				name := fmt.Sprintf("%dx%dx%d h%d k%d/%d", nx, ny, nz, h, k2, k3)
				p2 := NewPlan2D(nx, ny, m2.At)
				a2, b2 := grid.NewField2D(nx, ny, h), grid.NewField2D(nx, ny, h)
				fill(a2.Data())
				fill(b2.Data())
				want2, got2 := []*grid.Field2D{a2, b2}, []*grid.Field2D{a2.Clone(), b2.Clone()}
				refApply2D(p2, want2, 0.02)
				p2.Apply(got2, 0.02, make([]float64, nx*ny), slabs(k2))
				for i := range want2 {
					sameBits(t, name+" 2D", want2[i].Data(), got2[i].Data())
				}

				p3 := NewPlan3D(nx, ny, nz, m3.At)
				a3, b3 := grid.NewField3D(nx, ny, nz, h), grid.NewField3D(nx, ny, nz, h)
				fill(a3.Data())
				fill(b3.Data())
				want3, got3 := []*grid.Field3D{a3, b3}, []*grid.Field3D{a3.Clone(), b3.Clone()}
				refApply3D(p3, want3, 0.02)
				p3.Apply(got3, 0.02, make([]float64, nx*ny*nz), slabs(k3))
				for i := range want3 {
					sameBits(t, name+" 3D", want3[i].Data(), got3[i].Data())
				}
			}
		}
	}
}

// TestRowMatchesApply builds every row of a field from a five-row window,
// as the D2Q9 solver's phase 1 does, and requires Row to leave the bits
// Plan2D.Apply leaves, slot by slot: under seeded masks with walls, inlets
// and outlets, at sizes below the stencil's reach on either axis, with the
// filter on and off, and on fields holding +0 and -0 (a node whose
// correction is zero, of either sign, keeps its own). Window rows beyond the field are
// nil, so a Row that read them would panic.
func TestRowMatchesApply(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	kinds := []fluid.CellType{fluid.Wall, fluid.Inlet, fluid.Outlet}
	for trial, size := range [][2]int{{1, 1}, {3, 3}, {4, 9}, {9, 4}, {2, 7}, {7, 2}, {5, 5}, {6, 8}, {17, 12}, {33, 20}} {
		nx, ny := size[0], size[1]
		m := fluid.NewMask2D(nx, ny)
		for k := rng.Intn(4); k > 0 && trial%3 != 0; k-- {
			m.Set(rng.Intn(nx), rng.Intn(ny), kinds[rng.Intn(len(kinds))])
		}
		p := NewPlan2D(nx, ny, m.At)
		f := grid.NewField2D(nx, ny, 1)
		d := f.Data()
		// Every other field holds only +0 and -0, so its corrections are
		// zeros of either sign; the rest mix signed zeros and values.
		for i := range d {
			switch v := rng.Intn(4); {
			case v < 2 || trial%2 == 0:
				d[i] = math.Copysign(0, float64(v%2)-0.5)
			default:
				d[i] = (rng.Float64() - 0.5) * 0.1
			}
		}
		for _, eps := range []float64{0, 0.01} {
			want := f.Clone()
			p.Apply([]*grid.Field2D{want}, eps, make([]float64, nx*ny), Serial)
			for y := 0; y < ny; y++ {
				var win [5][]float64
				for k := range win {
					if r := y - 2 + k; 0 <= r && r < ny {
						win[k] = slices.Clone(d[f.Idx(0, r):][:nx])
					}
				}
				got := make([]float64, nx)
				p.Row(y, eps, win, got)
				sameBits(t, fmt.Sprintf("%dx%d eps %v row %d", nx, ny, eps, y), want.Data()[want.Idx(0, y):][:nx], got)
			}
		}
	}
}

// TestRingSizedScratch: Apply with a scratch of RingLen values — three
// rows (planes) for the serial sweep, a ring per slab and the held-back
// units of each seam for a cut — leaves the bits Apply with a whole field
// of scratch leaves; so does the serial ring under a cut on goroutines,
// whose slabs past it take their rings from the heap; and a scratch one
// value short of the serial ring panics.
func TestRingSizedScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	panics := func(f func()) (p bool) {
		defer func() { p = recover() != nil }()
		f()
		return false
	}
	goroutines := func(k int) RunFunc {
		return func(n int, fn func(lo, hi int)) {
			var wg sync.WaitGroup
			for i := range k {
				if lo, hi := i*n/k, (i+1)*n/k; lo < hi {
					wg.Add(1)
					go func() { defer wg.Done(); fn(lo, hi) }()
				}
			}
			wg.Wait()
		}
	}
	for _, size := range [][3]int{{1, 1, 1}, {3, 3, 3}, {5, 6, 7}, {9, 12, 5}, {17, 8, 10}} {
		nx, ny, nz := size[0], size[1], size[2]
		m2, m3 := fluid.NewMask2D(nx, ny), fluid.NewMask3D(nx, ny, nz)
		m2.Set(rng.Intn(nx), rng.Intn(ny), fluid.Wall)
		m3.Set(rng.Intn(nx), rng.Intn(ny), rng.Intn(nz), fluid.Wall)
		p2, p3 := NewPlan2D(nx, ny, m2.At), NewPlan3D(nx, ny, nz, m3.At)
		for i := range cuts(0) {
			k2, k3 := cuts(ny)[i], cuts(nz)[i]
			name := fmt.Sprintf("%dx%dx%d k%d/%d", nx, ny, nz, k2, k3)
			f2 := grid.NewField2D(nx, ny, 1)
			for j := range f2.Data() {
				f2.Data()[j] = rng.Float64()
			}
			want2, got2, heap2 := f2.Clone(), f2.Clone(), f2.Clone()
			p2.Apply([]*grid.Field2D{want2}, 0.02, make([]float64, nx*ny), slabs(k2))
			p2.Apply([]*grid.Field2D{got2}, 0.02, make([]float64, RingLen(k2, ny, 2, nx)), slabs(k2))
			sameBits(t, name+" 2D", want2.Data(), got2.Data())
			p2.Apply([]*grid.Field2D{heap2}, 0.02, make([]float64, RingLen(1, ny, 2, nx)), goroutines(k2))
			sameBits(t, name+" 2D serial ring", want2.Data(), heap2.Data())

			f3 := grid.NewField3D(nx, ny, nz, 1)
			for j := range f3.Data() {
				f3.Data()[j] = rng.Float64()
			}
			want3, got3, heap3 := f3.Clone(), f3.Clone(), f3.Clone()
			p3.Apply([]*grid.Field3D{want3}, 0.02, make([]float64, nx*ny*nz), slabs(k3))
			p3.Apply([]*grid.Field3D{got3}, 0.02, make([]float64, RingLen(k3, nz, 2, nx*ny)), slabs(k3))
			sameBits(t, name+" 3D", want3.Data(), got3.Data())
			p3.Apply([]*grid.Field3D{heap3}, 0.02, make([]float64, RingLen(1, nz, 2, nx*ny)), goroutines(k3))
			sameBits(t, name+" 3D serial ring", want3.Data(), heap3.Data())
		}
		f2, f3 := grid.NewField2D(nx, ny, 1), grid.NewField3D(nx, ny, nz, 1)
		if !panics(func() { p2.Apply([]*grid.Field2D{f2}, 0.02, make([]float64, RingLen(1, ny, 2, nx)-1), Serial) }) {
			t.Errorf("%v: a 2D scratch one short of the ring did not panic", size)
		}
		if !panics(func() { p3.Apply([]*grid.Field3D{f3}, 0.02, make([]float64, RingLen(1, nz, 2, nx*ny)-1), Serial) }) {
			t.Errorf("%v: a 3D scratch one short of the ring did not panic", size)
		}
	}
}
