package grid

import (
	"math"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestAvoidPageResonance(t *testing.T) {
	cases := []struct {
		n       int
		wantPad bool
	}{
		{512, true},     // 4096 bytes exactly: resonant
		{513, true},     // 4104 bytes, within slack of 4096
		{600, false},    // 4800 bytes, far from a page multiple
		{1024, true},    // 8192 bytes: resonant
		{1000, false},   // 8000 bytes: 192 from multiple, clear
		{512 * 9, true}, // larger exact multiple
		{100, false},    // 800 bytes, below one page but far from 0 mod 4096... 800%4096=800
	}
	for _, c := range cases {
		got := AvoidPageResonance(c.n)
		if c.wantPad && got == c.n {
			t.Errorf("AvoidPageResonance(%d) = %d, expected padding", c.n, got)
		}
		if !c.wantPad && got != c.n {
			t.Errorf("AvoidPageResonance(%d) = %d, expected no padding", c.n, got)
		}
		if got < c.n {
			t.Errorf("AvoidPageResonance(%d) = %d shrank the array", c.n, got)
		}
	}
}

func TestAvoidPageResonanceProperty(t *testing.T) {
	// Property: the returned capacity is never resonant and never smaller.
	f := func(n uint16) bool {
		m := AvoidPageResonance(int(n) + 1)
		if m < int(n)+1 {
			return false
		}
		rem := (m * 8) % PageBytes
		return rem > resonanceSlack && PageBytes-rem > resonanceSlack
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestField2DIndexing(t *testing.T) {
	f := NewField2D(4, 3, 2)
	if sx := f.Layout().SX; sx != 8 {
		t.Fatalf("stride = %d, want 8", sx)
	}
	// Write a unique value at every node including ghosts; check round-trip.
	for y := -2; y < 5; y++ {
		for x := -2; x < 6; x++ {
			f.Set(x, y, float64(100*y+x))
		}
	}
	for y := -2; y < 5; y++ {
		for x := -2; x < 6; x++ {
			if got := f.At(x, y); got != float64(100*y+x) {
				t.Fatalf("At(%d,%d) = %v, want %v", x, y, got, float64(100*y+x))
			}
		}
	}
}

func TestField2DIdxIsBijective(t *testing.T) {
	f := NewField2D(7, 5, 1)
	seen := map[int]bool{}
	for y := -1; y < 6; y++ {
		for x := -1; x < 8; x++ {
			i := f.Idx(x, y)
			if seen[i] {
				t.Fatalf("Idx(%d,%d) = %d collides", x, y, i)
			}
			seen[i] = true
			if i < 0 || i >= len(f.Data()) {
				t.Fatalf("Idx(%d,%d) = %d out of range [0,%d)", x, y, i, len(f.Data()))
			}
		}
	}
	if len(seen) != len(f.Data()) {
		t.Fatalf("covered %d of %d slots", len(seen), len(f.Data()))
	}
}

func TestField2DCloneAndSwap(t *testing.T) {
	f := NewField2D(5, 4, 1)
	f.Set(2, 2, 11)
	g := f.Clone()
	if !f.InteriorEqual(g, 0) {
		t.Fatal("clone differs from original")
	}
	g.Set(2, 2, 99)
	if f.At(2, 2) != 11 {
		t.Fatal("clone shares storage with original")
	}
	f.Swap(g)
	if f.At(2, 2) != 99 || g.At(2, 2) != 11 {
		t.Fatal("Swap did not exchange storage")
	}
}

func TestField2DSumAndMax(t *testing.T) {
	f := NewField2D(3, 2, 1)
	f.Fill(1000) // ghosts must not contribute
	for y := range 2 {
		for x := range 3 {
			f.Set(x, y, 0)
		}
	}
	f.Set(0, 0, 1.5)
	f.Set(2, 1, -4.25)
	if got := f.SumInterior(); math.Abs(got-(1.5-4.25)) > 1e-15 {
		t.Errorf("SumInterior = %v, want %v", got, 1.5-4.25)
	}
	if got := f.MaxAbsInterior(); got != 4.25 {
		t.Errorf("MaxAbsInterior = %v, want 4.25", got)
	}
}

func TestField2DGeometryMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Swap with mismatched geometry did not panic")
		}
	}()
	NewField2D(3, 3, 1).Swap(NewField2D(3, 4, 1))
}

func TestNewField2DRejectsBadDims(t *testing.T) {
	for _, dims := range [][3]int{{0, 3, 1}, {3, 0, 1}, {3, 3, -1}, {-2, 5, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewField2D(%v) did not panic", dims)
				}
			}()
			NewField2D(dims[0], dims[1], dims[2])
		}()
	}
}

func TestField3DIndexing(t *testing.T) {
	f := NewField3D(3, 4, 5, 1)
	for z := -1; z < 6; z++ {
		for y := -1; y < 5; y++ {
			for x := -1; x < 4; x++ {
				f.Set(x, y, z, float64(10000*z+100*y+x))
			}
		}
	}
	for z := -1; z < 6; z++ {
		for y := -1; y < 5; y++ {
			for x := -1; x < 4; x++ {
				if got := f.At(x, y, z); got != float64(10000*z+100*y+x) {
					t.Fatalf("At(%d,%d,%d) = %v", x, y, z, got)
				}
			}
		}
	}
}

func TestField3DIdxCoversStorage(t *testing.T) {
	f := NewField3D(2, 3, 4, 1)
	seen := map[int]bool{}
	for z := -1; z < 5; z++ {
		for y := -1; y < 4; y++ {
			for x := -1; x < 3; x++ {
				i := f.Idx(x, y, z)
				if seen[i] {
					t.Fatalf("index collision at (%d,%d,%d)", x, y, z)
				}
				seen[i] = true
			}
		}
	}
	if len(seen) != len(f.Data()) {
		t.Fatalf("covered %d of %d slots", len(seen), len(f.Data()))
	}
}

func TestField3DCloneSwapEqual(t *testing.T) {
	f := NewField3D(3, 3, 3, 1)
	f.Set(1, 1, 1, 5)
	g := f.Clone()
	if !f.InteriorEqual(g, 0) {
		t.Fatal("clone differs")
	}
	g.Set(1, 1, 1, 6)
	if f.InteriorEqual(g, 0.5) {
		t.Fatal("InteriorEqual too lax")
	}
	if !f.InteriorEqual(g, 1.5) {
		t.Fatal("InteriorEqual tolerance not honoured")
	}
	f.Swap(g)
	if f.At(1, 1, 1) != 6 {
		t.Fatal("Swap failed")
	}
}

func TestField3DSums(t *testing.T) {
	f := NewField3D(2, 2, 2, 1)
	f.Fill(50)
	for z := 0; z < 2; z++ {
		for y := 0; y < 2; y++ {
			for x := 0; x < 2; x++ {
				f.Set(x, y, z, 1)
			}
		}
	}
	if got := f.SumInterior(); got != 8 {
		t.Errorf("SumInterior = %v, want 8", got)
	}
	f.Set(1, 0, 1, -3)
	if got := f.MaxAbsInterior(); got != 3 {
		t.Errorf("MaxAbsInterior = %v, want 3", got)
	}
}

func TestFieldStoragePaddedAgainstResonance(t *testing.T) {
	// 512 floats per row * 8 rows = 4096 elements = 32768 bytes = 8 pages:
	// the capacity must be padded away from the resonant length.
	f := NewField2D(510, 6, 1) // (510+2)*(6+2) = 4096 elements
	if cap(f.Data())*8%PageBytes <= resonanceSlack {
		t.Errorf("storage capacity %d elems is page-resonant", cap(f.Data()))
	}
	// The storage of each field kind, fixed: a planar field has no z
	// ghosts and no plane stride, a box one plane deep has both, and a
	// page-resonant length is padded by 32 values.
	for _, c := range []struct {
		name string
		lay  *Layout
		want [5]int // len, cap, Origin, SX, SXY
	}{
		{"planar 510x6 h1 (resonant)", NewField2D(510, 6, 1).Layout(), [5]int{4096, 4128, 513, 512, 0}},
		{"planar 4x4 h1", NewField2D(4, 4, 1).Layout(), [5]int{36, 36, 7, 6, 0}},
		{"planar 3x3 h2", NewField2D(3, 3, 2).Layout(), [5]int{49, 49, 16, 7, 0}},
		{"planar 1022x510 h1 (resonant)", NewField2D(1022, 510, 1).Layout(), [5]int{524288, 524320, 1025, 1024, 0}},
		{"box 4x4x1 h1", NewField3D(4, 4, 1, 1).Layout(), [5]int{108, 108, 43, 6, 36}},
		{"box 10x10x10 h1", NewField3D(10, 10, 10, 1).Layout(), [5]int{1728, 1728, 157, 12, 144}},
		{"box 14x14x6 h1 (resonant)", NewField3D(14, 14, 6, 1).Layout(), [5]int{2048, 2080, 273, 16, 256}},
		{"box 3x4x5 h2 (resonant, 64 bytes short)", NewField3D(3, 4, 5, 2).Layout(), [5]int{504, 536, 128, 7, 56}},
	} {
		got := [5]int{len(c.lay.Data), cap(c.lay.Data), c.lay.Origin, c.lay.SX, c.lay.SXY}
		if got != c.want {
			t.Errorf("%s: len, cap, Origin, SX, SXY = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestLargeFieldStartsStaggered(t *testing.T) {
	// The slot of a field's first element: its 64-byte line within the
	// page. Without the stagger every large field starts in slot 0.
	slot := func(f *Field) int {
		return int(uintptr(unsafe.Pointer(&f.Data()[0])) % PageBytes / staggerStep)
	}
	next := func(s int) int { return (s + 1) % (PageBytes / staggerStep) }
	large := func() *Field { return &NewField2D(126, 30, 1).Field } // 128*32 values = 32 KiB, padded: the smallest staggered

	// 21 large fields back to back, as a D2Q9 solver allocates its
	// populations, post-shift buffers and fluid variables: element j of
	// each must fall in a line of its own.
	seen := map[int]int{}
	for i := range 21 {
		s := slot(large())
		if j, ok := seen[s]; ok {
			t.Fatalf("fields %d and %d both start in slot %d of the page", j, i, s)
		}
		seen[s] = i
	}

	// A clone is staggered as a new field is: it takes the next slot.
	f := large()
	if g := f.clone(); slot(&g) != next(slot(f)) {
		t.Errorf("clone starts in slot %d, want %d (its original is in %d)", slot(&g), next(slot(f)), slot(f))
	}

	// A field under 32 KiB is left to Go's allocator: its length and
	// capacity are its own, and neither it nor its clone takes a slot.
	before := slot(large())
	small := NewField2D(125, 30, 1) // 127*32 values, just under 32 KiB
	if got := [2]int{len(small.Data()), cap(small.Data())}; got != [2]int{4064, 4064} {
		t.Errorf("small field len, cap = %v, want [4064 4064]", got)
	}
	small.Clone()
	if after := slot(large()); after != next(before) {
		t.Errorf("after a small field and its clone, a large field starts in slot %d, want %d", after, next(before))
	}
}
