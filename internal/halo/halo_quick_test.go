package halo

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/decomp"
	"repro/internal/grid"
)

// TestExtractInjectProperty: for any region inside any field, inject
// (extract (f)) reproduces exactly the region and touches nothing else.
func TestExtractInjectProperty(t *testing.T) {
	f := func(nx8, ny8, x8, y8, w8, h8 uint8) bool {
		nx, ny := int(nx8%20)+3, int(ny8%20)+3
		x0, y0 := int(x8%uint8(nx))-1, int(y8%uint8(ny))-1
		w, h := int(w8)%(nx-x0)+1, int(h8)%(ny-y0)+1
		if x0+w > nx+1 || y0+h > ny+1 {
			return true // region exceeds the ghost shell; skip
		}
		src := grid.NewField2D(nx, ny, 1)
		for y := -1; y <= ny; y++ {
			for x := -1; x <= nx; x++ {
				src.Set(x, y, float64(1000*y+x))
			}
		}
		r := Region{X0: x0, Y0: y0, NX: w, NY: h, NZ: 1}
		buf := Extract(src.Layout(), r, nil)
		dst := grid.NewField2D(nx, ny, 1)
		dst.Fill(-9)
		Inject(dst.Layout(), r, buf)
		for y := -1; y <= ny; y++ {
			for x := -1; x <= nx; x++ {
				in := x >= x0 && x < x0+w && y >= y0 && y < y0+h
				want := -9.0
				if in {
					want = src.At(x, y)
				}
				if dst.At(x, y) != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestSendRecvRegionsComplementProperty: for every direction and field
// shape, the ghost-fill send region (interior) and receive region (ghost)
// are disjoint, equal-sized, and offset by exactly the side's normal
// times the interior extent.
func TestSendRecvRegionsComplementProperty(t *testing.T) {
	f := func(nx8, ny8, dir8 uint8) bool {
		nx, ny := int(nx8%30)+2, int(ny8%30)+2
		dir := decomp.Dirs(decomp.Full)[dir8%8]
		fl := grid.NewField2D(nx, ny, 1).Layout()
		send := Strip(fl, dir, true)
		recv := Strip(fl, dir, false)
		if send.Len() != recv.Len() || send.Len() == 0 {
			return false
		}
		// Disjoint: interior strips live in [0, n), ghost strips outside.
		inInterior := send.X0 >= 0 && send.Y0 >= 0 &&
			send.X0+send.NX <= nx && send.Y0+send.NY <= ny
		outInterior := recv.X0 < 0 || recv.Y0 < 0 ||
			recv.X0+recv.NX > nx || recv.Y0+recv.NY > ny
		return inInterior && outInterior
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// refExtract2D and refExtract3D are the per-row slice-and-append packers
// Extract was, per dimension, before the shared one, kept as the oracle.
func refExtract2D(f *grid.Field2D, r Region, buf []float64) []float64 {
	data := f.Data()
	for y := r.Y0; y < r.Y0+r.NY; y++ {
		row := data[f.Idx(r.X0, y) : f.Idx(r.X0, y)+r.NX]
		buf = append(buf, row...)
	}
	return buf
}

func refExtract3D(f *grid.Field3D, r Region, buf []float64) []float64 {
	for z := r.Z0; z < r.Z0+r.NZ; z++ {
		for y := r.Y0; y < r.Y0+r.NY; y++ {
			row := f.Data()[f.Idx(r.X0, y, z) : f.Idx(r.X0, y, z)+r.NX]
			buf = append(buf, row...)
		}
	}
	return buf
}

// checkStrip holds one strip of one field to the narrow-path contract.
// extract and inject are the product pair bound to a field holding
// distinct values and to a second field of the same shape; want is the
// oracle's packing of the strip.
func checkStrip(t *testing.T, name string, want []float64, data, other []float64,
	extract func(buf []float64) []float64, injectOther func(buf []float64) []float64) {
	t.Helper()
	// Appending to a non-empty buffer keeps the prefix.
	prefix := []float64{-1, -2, -3}
	got := extract(slices.Clone(prefix))
	if !slices.Equal(got[:len(prefix)], prefix) {
		t.Fatalf("%s: prefix clobbered: %v", name, got[:len(prefix)])
	}
	if !slices.Equal(got[len(prefix):], want) {
		t.Fatalf("%s: extract = %v, want %v", name, got[len(prefix):], want)
	}
	// Inject(Extract) reproduces the strip in a second field, consumes
	// exactly the strip and touches nothing else.
	before := slices.Clone(other)
	if rest := injectOther(append(slices.Clone(want), 42)); len(rest) != 1 || rest[0] != 42 {
		t.Fatalf("%s: inject left %v, want the one trailing value", name, rest)
	}
	changed := 0
	for i := range other {
		if other[i] != before[i] {
			if other[i] != data[i] {
				t.Fatalf("%s: slot %d injected as %v, source holds %v", name, i, other[i], data[i])
			}
			changed++
		}
	}
	if changed != len(want) {
		t.Fatalf("%s: inject changed %d slots, strip has %d", name, changed, len(want))
	}
	// A second call on a full-capacity buffer allocates nothing.
	buf := extract(nil)
	if allocs := testing.AllocsPerRun(5, func() { buf = extract(buf[:0]) }); allocs != 0 {
		t.Fatalf("%s: %v allocs per steady-state extract, want 0", name, allocs)
	}
}

// TestStripsMatchReference: for random field sizes, ghost depths 1 and 2,
// every direction and both strip depths, the shared extract packs exactly
// what the per-row append packer did (x-faces and corners take the narrow
// walk, the rest the row copy), round-trips through inject, appends behind
// a prefix and allocates nothing once the buffer has its capacity.
func TestStripsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20261003))
	distinct := func(data []float64, sign float64) {
		for i := range data {
			data[i] = sign * float64(i+1)
		}
	}
	for trial := 0; trial < 60; trial++ {
		h := 1 + trial%2
		nx, ny, nz := h+rng.Intn(9), h+rng.Intn(9), h+rng.Intn(6)

		f2, g2 := grid.NewField2D(nx, ny, h), grid.NewField2D(nx, ny, h)
		distinct(f2.Data(), 1)
		for _, dir := range decomp.Dirs(decomp.Full) {
			for _, interior := range []bool{true, false} {
				r := Strip(f2.Layout(), dir, interior)
				distinct(g2.Data(), -1)
				checkStrip(t, fmt.Sprintf("2D %dx%d h%d %v interior=%v", nx, ny, h, dir, interior),
					refExtract2D(f2, r, nil), f2.Data(), g2.Data(),
					func(buf []float64) []float64 { return Extract(f2.Layout(), r, buf) },
					func(buf []float64) []float64 { return Inject(g2.Layout(), r, buf) })
			}
		}

		f3, g3 := grid.NewField3D(nx, ny, nz, h), grid.NewField3D(nx, ny, nz, h)
		distinct(f3.Data(), 1)
		for dir := decomp.West; int(dir) < decomp.NumDirs; dir++ {
			for _, interior := range []bool{true, false} {
				r := Strip(f3.Layout(), dir, interior)
				distinct(g3.Data(), -1)
				checkStrip(t, fmt.Sprintf("3D %dx%dx%d h%d %v interior=%v", nx, ny, nz, h, dir, interior),
					refExtract3D(f3, r, nil), f3.Data(), g3.Data(),
					func(buf []float64) []float64 { return Extract(f3.Layout(), r, buf) },
					func(buf []float64) []float64 { return Inject(g3.Layout(), r, buf) })
			}
		}
	}
}
