package halo

import (
	"testing"

	"repro/internal/decomp"
	"repro/internal/grid"
)

// fillCoords stamps each node (ghosts included) with a unique value.
func fillCoords(f *grid.Field2D) {
	for y := -f.H; y < f.NY+f.H; y++ {
		for x := -f.H; x < f.NX+f.H; x++ {
			f.Set(x, y, float64(1000*y+x))
		}
	}
}

func TestExtractInjectRoundTrip(t *testing.T) {
	f := grid.NewField2D(6, 5, 1)
	fillCoords(f)
	r := Region{X0: 2, Y0: 1, NX: 3, NY: 2, NZ: 1}
	buf := Extract(f.Layout(), r, nil)
	if len(buf) != r.Len() {
		t.Fatalf("extracted %d values, want %d", len(buf), r.Len())
	}
	g := grid.NewField2D(6, 5, 1)
	rest := Inject(g.Layout(), r, buf)
	if len(rest) != 0 {
		t.Fatalf("leftover %d values", len(rest))
	}
	for y := 1; y < 3; y++ {
		for x := 2; x < 5; x++ {
			if g.At(x, y) != f.At(x, y) {
				t.Errorf("(%d,%d): got %v want %v", x, y, g.At(x, y), f.At(x, y))
			}
		}
	}
	// Outside the region g is untouched.
	if g.At(0, 0) != 0 || g.At(5, 4) != 0 {
		t.Error("Inject wrote outside the region")
	}
}

// TestSideRegionsGeometry pins the strips of a planar and of a box field:
// the interior strip (ghost-fill send, outflow-delivery receive) and the
// ghost strip beyond it (ghost-fill receive, outflow-delivery send).
func TestSideRegionsGeometry(t *testing.T) {
	planar := grid.NewField2D(8, 5, 2).Layout()
	box := grid.NewField3D(5, 6, 7, 1).Layout()
	cases := []struct {
		l        *grid.Layout
		dir      decomp.Dir
		interior Region
		ghost    Region
	}{
		{planar, decomp.West, Region{0, 0, 0, 2, 5, 1}, Region{-2, 0, 0, 2, 5, 1}},
		{planar, decomp.East, Region{6, 0, 0, 2, 5, 1}, Region{8, 0, 0, 2, 5, 1}},
		{planar, decomp.South, Region{0, 0, 0, 8, 2, 1}, Region{0, -2, 0, 8, 2, 1}},
		{planar, decomp.North, Region{0, 3, 0, 8, 2, 1}, Region{0, 5, 0, 8, 2, 1}},
		{planar, decomp.SouthWest, Region{0, 0, 0, 2, 2, 1}, Region{-2, -2, 0, 2, 2, 1}},
		{planar, decomp.NorthEast, Region{6, 3, 0, 2, 2, 1}, Region{8, 5, 0, 2, 2, 1}},
		{box, decomp.West, Region{0, 0, 0, 1, 6, 7}, Region{-1, 0, 0, 1, 6, 7}},
		{box, decomp.East, Region{4, 0, 0, 1, 6, 7}, Region{5, 0, 0, 1, 6, 7}},
		{box, decomp.North, Region{0, 5, 0, 5, 1, 7}, Region{0, 6, 0, 5, 1, 7}},
		{box, decomp.Down, Region{0, 0, 0, 5, 6, 1}, Region{0, 0, -1, 5, 6, 1}},
		{box, decomp.Up, Region{0, 0, 6, 5, 6, 1}, Region{0, 0, 7, 5, 6, 1}},
		{box, decomp.SouthEast, Region{4, 0, 0, 1, 1, 7}, Region{5, -1, 0, 1, 1, 7}},
	}
	for _, c := range cases {
		if got := Strip(c.l, c.dir, true); got != c.interior {
			t.Errorf("interior strip toward %v = %v, want %v", c.dir, got, c.interior)
		}
		if got := Strip(c.l, c.dir, false); got != c.ghost {
			t.Errorf("ghost strip toward %v = %v, want %v", c.dir, got, c.ghost)
		}
	}
}

// TestStripsPairUp: what is sent toward d is stored at the neighbour on the
// side it arrives from, d.Opposite(): the two strips have equal extents
// for every direction, ghost depths 1 and 2, under both conventions, on
// planar and box fields (of different sizes along the axes d moves along,
// as weighted neighbours are).
func TestStripsPairUp(t *testing.T) {
	for h := 1; h <= 2; h++ {
		for dir := decomp.West; int(dir) < decomp.NumDirs; dir++ {
			dx, dy, dz := dir.Delta()
			grow := func(n, off int) int {
				if off != 0 {
					return n + 3
				}
				return n
			}
			pairs := [][2]*grid.Layout{{
				grid.NewField3D(5, 6, 7, h).Layout(),
				grid.NewField3D(grow(5, dx), grow(6, dy), grow(7, dz), h).Layout(),
			}}
			if dz == 0 {
				pairs = append(pairs, [2]*grid.Layout{
					grid.NewField2D(8, 5, h).Layout(),
					grid.NewField2D(grow(8, dx), grow(5, dy), h).Layout(),
				})
			}
			for _, p := range pairs {
				for _, ghostFill := range []bool{true, false} {
					send, recv := Strip(p[0], dir, ghostFill), Strip(p[1], dir.Opposite(), !ghostFill)
					if send.NX != recv.NX || send.NY != recv.NY || send.NZ != recv.NZ || send.Len() == 0 {
						t.Errorf("h %d dir %v ghostFill %v: send %v, receive %v", h, dir, ghostFill, send, recv)
					}
				}
			}
		}
	}
}

// TestGhostFillExchange wires two side-by-side fields and checks that a
// West-East exchange reproduces a contiguous global grid: the ghost column
// of each equals the interior edge of the other.
func TestGhostFillExchange(t *testing.T) {
	left := grid.NewField2D(4, 3, 1)
	right := grid.NewField2D(4, 3, 1)
	// Global coordinates: left covers x 0..3, right covers x 4..7.
	for y := 0; y < 3; y++ {
		for x := 0; x < 4; x++ {
			left.Set(x, y, float64(100*y+x))
			right.Set(x, y, float64(100*y+x+4))
		}
	}
	// left sends East interior edge -> right's West ghost, and vice versa.
	l, r := left.Layout(), right.Layout()
	buf := Extract(l, Strip(l, decomp.East, true), nil)
	Inject(r, Strip(r, decomp.West, false), buf)
	buf = Extract(r, Strip(r, decomp.West, true), nil)
	Inject(l, Strip(l, decomp.East, false), buf)

	for y := 0; y < 3; y++ {
		if got, want := right.At(-1, y), float64(100*y+3); got != want {
			t.Errorf("right ghost (-1,%d) = %v, want %v", y, got, want)
		}
		if got, want := left.At(4, y), float64(100*y+4); got != want {
			t.Errorf("left ghost (4,%d) = %v, want %v", y, got, want)
		}
	}
}

func TestPackUnpackMultiField(t *testing.T) {
	a := grid.NewField2D(5, 4, 1)
	b := grid.NewField2D(5, 4, 1)
	fillCoords(a)
	for y := -1; y < 5; y++ {
		for x := -1; x < 6; x++ {
			b.Set(x, y, float64(-(1000*y + x)))
		}
	}
	fields := []*grid.Layout{a.Layout(), b.Layout()}
	buf := PackSend(fields, decomp.North, true, nil)
	if len(buf) != 2*5 {
		t.Fatalf("message length %d, want two fields of a 5-node side", len(buf))
	}
	// Receiver side: two fresh fields; the buffer fills their South ghosts
	// (data from the neighbour to the South arrives from direction South).
	ra := grid.NewField2D(5, 4, 1)
	rb := grid.NewField2D(5, 4, 1)
	UnpackRecv([]*grid.Layout{ra.Layout(), rb.Layout()}, decomp.South, true, buf)
	for x := 0; x < 5; x++ {
		if got, want := ra.At(x, -1), a.At(x, 3); got != want {
			t.Errorf("ra ghost (%d,-1) = %v, want %v", x, got, want)
		}
		if got, want := rb.At(x, -1), b.At(x, 3); got != want {
			t.Errorf("rb ghost (%d,-1) = %v, want %v", x, got, want)
		}
	}
}

func TestUnpackLengthMismatchPanics(t *testing.T) {
	f := grid.NewField2D(4, 4, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("UnpackRecv with oversized buffer did not panic")
		}
	}()
	buf := make([]float64, Strip(f.Layout(), decomp.West, false).Len()+3)
	UnpackRecv([]*grid.Layout{f.Layout()}, decomp.West, true, buf)
}

func fillCoords3(f *grid.Field3D) {
	for z := -f.H; z < f.NZ+f.H; z++ {
		for y := -f.H; y < f.NY+f.H; y++ {
			for x := -f.H; x < f.NX+f.H; x++ {
				f.Set(x, y, z, float64(10000*z+100*y+x))
			}
		}
	}
}

func TestExtractInject3DRoundTrip(t *testing.T) {
	f := grid.NewField3D(4, 4, 4, 1)
	fillCoords3(f)
	r := Region{X0: 1, Y0: 0, Z0: 2, NX: 2, NY: 3, NZ: 2}
	buf := Extract(f.Layout(), r, nil)
	if len(buf) != r.Len() {
		t.Fatalf("extracted %d, want %d", len(buf), r.Len())
	}
	g := grid.NewField3D(4, 4, 4, 1)
	Inject(g.Layout(), r, buf)
	for z := 2; z < 4; z++ {
		for y := 0; y < 3; y++ {
			for x := 1; x < 3; x++ {
				if g.At(x, y, z) != f.At(x, y, z) {
					t.Fatalf("(%d,%d,%d) mismatch", x, y, z)
				}
			}
		}
	}
}

func TestGhostFillExchange3D(t *testing.T) {
	lo := grid.NewField3D(3, 3, 3, 1)
	hi := grid.NewField3D(3, 3, 3, 1)
	// Stacked in z: lo covers z 0..2, hi covers z 3..5.
	for z := 0; z < 3; z++ {
		for y := 0; y < 3; y++ {
			for x := 0; x < 3; x++ {
				lo.Set(x, y, z, float64(100*z+10*y+x))
				hi.Set(x, y, z, float64(100*(z+3)+10*y+x))
			}
		}
	}
	buf := PackSend([]*grid.Layout{lo.Layout()}, decomp.Up, true, nil)
	UnpackRecv([]*grid.Layout{hi.Layout()}, decomp.Down, true, buf)
	buf = PackSend([]*grid.Layout{hi.Layout()}, decomp.Down, true, nil)
	UnpackRecv([]*grid.Layout{lo.Layout()}, decomp.Up, true, buf)
	for y := 0; y < 3; y++ {
		for x := 0; x < 3; x++ {
			if got, want := hi.At(x, y, -1), float64(100*2+10*y+x); got != want {
				t.Errorf("hi ghost (%d,%d,-1) = %v, want %v", x, y, got, want)
			}
			if got, want := lo.At(x, y, 3), float64(100*3+10*y+x); got != want {
				t.Errorf("lo ghost (%d,%d,3) = %v, want %v", x, y, got, want)
			}
		}
	}
}

// TestPackSendCounts: a face message of five variables, as in 3D LB, is
// five values per face node.
func TestPackSendCounts(t *testing.T) {
	f := grid.NewField3D(10, 20, 30, 1)
	l := f.Layout()
	fields := []*grid.Layout{l, l, l, l, l}
	if got := len(PackSend(fields, decomp.East, true, nil)); got != 5*20*30 {
		t.Errorf("packed %d values, want %d", got, 5*20*30)
	}
}
