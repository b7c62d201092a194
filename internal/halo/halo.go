// Package halo implements the "padding" / ghost-cell boundary exchange of
// section 4.2: each subregion is padded with extra node layers on the
// outside, and before (or after) each local computation the padded areas are
// copied between neighbouring subregions. Once the copy is done the boundary
// values are available locally and the interior update proceeds as if there
// were no communication at all.
//
// Two exchange conventions appear in the paper's two numerical methods:
//
//   - Ghost fill (finite differences): each process sends its interior edge
//     strip, and the receiver stores it into the ghost strip on the facing
//     side. Regions: SendInterior -> RecvGhost.
//
//   - Outflow delivery (lattice Boltzmann): the shift step writes populations
//     that leave the subregion into the ghost strip; each process sends its
//     ghost strip and the receiver stores it into its interior edge strip.
//     Regions: SendGhost -> RecvInterior.
//
// The package is deliberately dumb about meaning: it extracts and injects
// rectangular regions of grid fields into flat buffers, and packs several
// fields into a single buffer so that a method can send all its boundary
// data in one message (the paper notes LB sends one message per neighbour
// per step versus FD's two, which matters on a network with per-message
// overhead).
package halo

import (
	"fmt"
	"slices"

	"repro/internal/decomp"
	"repro/internal/grid"
)

// Region2D is a rectangle in field-local coordinates; ghost offsets
// (negative, or >= NX/NY) are legal.
type Region2D struct {
	X0, Y0 int
	NX, NY int
}

// Len returns the node count of the region.
func (r Region2D) Len() int { return r.NX * r.NY }

func (r Region2D) String() string {
	return fmt.Sprintf("[%d:%d)x[%d:%d)", r.X0, r.X0+r.NX, r.Y0, r.Y0+r.NY)
}

// Extract2D appends the region's values (row-major) to buf and returns the
// extended buffer.
func Extract2D(f *grid.Field2D, r Region2D, buf []float64) []float64 {
	return extract(f.Data(), f.Idx(r.X0, r.Y0), box{r.NX, r.NY, 1, f.Stride(), 0, f.H}, buf)
}

// Inject2D copies len(r) values from buf into the region and returns the
// remainder of buf.
func Inject2D(f *grid.Field2D, r Region2D, buf []float64) []float64 {
	return inject(f.Data(), f.Idx(r.X0, r.Y0), box{r.NX, r.NY, 1, f.Stride(), 0, f.H}, buf)
}

// box is a region of a field's raw storage as extract and inject walk it:
// the extents, the row and plane strides, and the field's ghost depth. A
// 2D region is one plane.
type box struct {
	nx, ny, nz int
	sx, sxy    int
	h          int
}

// extract appends the box whose first value is data[at] to buf, x fastest,
// then y, then z; the room is reserved once. Rows wider than the ghost
// depth are copied whole. A narrower box is an x-face or a corner: every
// value sits on a cache line, and often a page, of its own, so what it
// costs is how many of those misses the processor keeps in flight, and
// that is set by how few instructions separate two loads. Each of its
// columns is therefore walked down a plane in the tightest loop there is,
// one load, one store and the stride; a slice and a copy per value cost
// twice as much.
func extract(data []float64, at int, b box, buf []float64) []float64 {
	n := len(buf)
	buf = slices.Grow(buf, b.nx*b.ny*b.nz)[:n+b.nx*b.ny*b.nz] //detlint:allow allocsteady -- grows only on the first exchange; steady-state callers reuse a full-capacity buffer
	out := buf[n:]
	for z := 0; z < b.nz; z++ {
		plane := out[z*b.nx*b.ny:][:b.nx*b.ny]
		a := at + z*b.sxy
		if b.nx > b.h {
			for ; len(plane) > 0; plane = plane[b.nx:] {
				copy(plane[:b.nx], data[a:a+b.nx])
				a += b.sx
			}
			continue
		}
		for i := 0; i < b.nx; i++ {
			c := a + i
			for k := i; k < len(plane); k += b.nx {
				plane[k] = data[c]
				c += b.sx
			}
		}
	}
	return buf
}

// inject stores the leading values of buf into the box whose first value
// is data[at], in extract's order and by the same two walks, and returns
// the remainder of buf.
func inject(data []float64, at int, b box, buf []float64) []float64 {
	for z := 0; z < b.nz; z++ {
		plane := buf[z*b.nx*b.ny:][:b.nx*b.ny]
		a := at + z*b.sxy
		if b.nx > b.h {
			for ; len(plane) > 0; plane = plane[b.nx:] {
				copy(data[a:a+b.nx], plane[:b.nx])
				a += b.sx
			}
			continue
		}
		for i := 0; i < b.nx; i++ {
			c := a + i
			for k := i; k < len(plane); k += b.nx {
				data[c] = plane[k]
				c += b.sx
			}
		}
	}
	return buf[b.nx*b.ny*b.nz:]
}

// sideSpans returns the x-span and y-span of the strip on side dir of an
// nx-by-ny interior with h layers, at depth inside (true = interior strip,
// false = ghost strip).
func sideSpans(nx, ny, h int, dir decomp.Dir, interior bool) Region2D {
	switch dir {
	case decomp.West:
		if interior {
			return Region2D{0, 0, h, ny}
		}
		return Region2D{-h, 0, h, ny}
	case decomp.East:
		if interior {
			return Region2D{nx - h, 0, h, ny}
		}
		return Region2D{nx, 0, h, ny}
	case decomp.South:
		if interior {
			return Region2D{0, 0, nx, h}
		}
		return Region2D{0, -h, nx, h}
	case decomp.North:
		if interior {
			return Region2D{0, ny - h, nx, h}
		}
		return Region2D{0, ny, nx, h}
	case decomp.SouthWest:
		if interior {
			return Region2D{0, 0, h, h}
		}
		return Region2D{-h, -h, h, h}
	case decomp.SouthEast:
		if interior {
			return Region2D{nx - h, 0, h, h}
		}
		return Region2D{nx, -h, h, h}
	case decomp.NorthWest:
		if interior {
			return Region2D{0, ny - h, h, h}
		}
		return Region2D{-h, ny, h, h}
	case decomp.NorthEast:
		if interior {
			return Region2D{nx - h, ny - h, h, h}
		}
		return Region2D{nx, ny, h, h}
	}
	panic(fmt.Sprintf("halo: invalid direction %v", dir))
}

// SendInterior2D is the interior strip adjacent to side dir: what a
// ghost-fill method sends to the neighbour at dir.
func SendInterior2D(f *grid.Field2D, dir decomp.Dir) Region2D {
	return sideSpans(f.NX, f.NY, f.H, dir, true)
}

// RecvGhost2D is the ghost strip on side dir: where a ghost-fill method
// stores data received from the neighbour at dir.
func RecvGhost2D(f *grid.Field2D, dir decomp.Dir) Region2D {
	return sideSpans(f.NX, f.NY, f.H, dir, false)
}

// SendGhost2D is the ghost strip on side dir: what an outflow-delivery
// method (LB after shifting) sends to the neighbour at dir.
func SendGhost2D(f *grid.Field2D, dir decomp.Dir) Region2D {
	return sideSpans(f.NX, f.NY, f.H, dir, false)
}

// RecvInterior2D is the interior strip adjacent to side dir: where an
// outflow-delivery method stores data received from the neighbour at dir.
func RecvInterior2D(f *grid.Field2D, dir decomp.Dir) Region2D {
	return sideSpans(f.NX, f.NY, f.H, dir, true)
}

// PackSend2D extracts the send regions of every field for direction dir
// under the given convention (ghostFill true = SendInterior) into one
// buffer, so all boundary data for a neighbour travels in one message.
func PackSend2D(fields []*grid.Field2D, dir decomp.Dir, ghostFill bool, buf []float64) []float64 {
	for _, f := range fields {
		var r Region2D
		if ghostFill {
			r = SendInterior2D(f, dir)
		} else {
			r = SendGhost2D(f, dir)
		}
		buf = Extract2D(f, r, buf)
	}
	return buf
}

// UnpackRecv2D injects a buffer produced by PackSend2D on the neighbour at
// dir into the receive regions of every field.
func UnpackRecv2D(fields []*grid.Field2D, dir decomp.Dir, ghostFill bool, buf []float64) {
	for _, f := range fields {
		var r Region2D
		if ghostFill {
			r = RecvGhost2D(f, dir)
		} else {
			r = RecvInterior2D(f, dir)
		}
		buf = Inject2D(f, r, buf)
	}
	if len(buf) != 0 {
		panic(fmt.Sprintf("halo: %d leftover values after unpack", len(buf)))
	}
}

// MsgLen2D returns the number of float64 values a PackSend2D message
// carries for the given fields and direction.
func MsgLen2D(fields []*grid.Field2D, dir decomp.Dir) int {
	n := 0
	for _, f := range fields {
		n += SendInterior2D(f, dir).Len()
	}
	return n
}
