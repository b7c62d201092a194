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
//     side: the interior Strip toward dir goes into the ghost Strip.
//
//   - Outflow delivery (lattice Boltzmann): the shift step writes populations
//     that leave the subregion into the ghost strip; each process sends its
//     ghost strip and the receiver stores it into its interior edge strip.
//     The ghost Strip toward dir goes into the interior Strip.
//
// The package is written once for both dimensions, over the raw layout
// grid.Field2D and grid.Field3D both hand out: a planar field is a box one
// plane thick and a direction is an offset per axis. It is deliberately
// dumb about meaning: it extracts and injects rectangular regions of grid
// fields into flat buffers, and packs several fields into a single buffer
// so that a method can send all its boundary data in one message (the
// paper notes LB sends one message per neighbour per step versus FD's two,
// which matters on a network with per-message overhead).
package halo

import (
	"fmt"
	"slices"

	"repro/internal/decomp"
	"repro/internal/grid"
)

// Region is a box in field-local coordinates; ghost offsets (negative, or
// >= the interior extent) are legal. A region of a planar field has Z0 = 0
// and NZ = 1.
type Region struct {
	X0, Y0, Z0 int
	NX, NY, NZ int
}

// Len returns the node count of the region.
func (r Region) Len() int { return r.NX * r.NY * r.NZ }

// start is the index of the region's first value in the field's storage.
func start(l *grid.Layout, r Region) int { return l.Origin + r.Z0*l.SXY + r.Y0*l.SX + r.X0 }

// Extract appends the region's values to buf, x fastest, then y, then z,
// and returns the extended buffer; the room is reserved once. Rows wider
// than the ghost depth are copied whole. A narrower region is an x-face or
// a corner: every value sits on a cache line, and often a page, of its
// own, so what it costs is how many of those misses the processor keeps in
// flight, and that is set by how few instructions separate two loads. Each
// of its columns is therefore walked down a plane in the tightest loop
// there is, one load, one store and the stride; a slice and a copy per
// value cost twice as much.
func Extract(l *grid.Layout, r Region, buf []float64) []float64 {
	n := len(buf)
	buf = slices.Grow(buf, r.Len())[:n+r.Len()] // grows only on a caller's first exchange
	out, data, at, nx, sx := buf[n:], l.Data, start(l, r), r.NX, l.SX
	for z := 0; z < r.NZ; z++ {
		plane := out[z*nx*r.NY:][:nx*r.NY]
		a := at + z*l.SXY
		if nx > l.H {
			for ; len(plane) > 0; plane = plane[nx:] {
				copy(plane[:nx], data[a:a+nx])
				a += sx
			}
			continue
		}
		for i := 0; i < nx; i++ {
			c := a + i
			for k := i; k < len(plane); k += nx {
				plane[k] = data[c]
				c += sx
			}
		}
	}
	return buf
}

// Inject stores the leading Len values of buf into the region, in
// Extract's order and by the same two walks, and returns the remainder of
// buf.
func Inject(l *grid.Layout, r Region, buf []float64) []float64 {
	data, at, nx, sx := l.Data, start(l, r), r.NX, l.SX
	for z := 0; z < r.NZ; z++ {
		plane := buf[z*nx*r.NY:][:nx*r.NY]
		a := at + z*l.SXY
		if nx > l.H {
			for ; len(plane) > 0; plane = plane[nx:] {
				copy(data[a:a+nx], plane[:nx])
				a += sx
			}
			continue
		}
		for i := 0; i < nx; i++ {
			c := a + i
			for k := i; k < len(plane); k += nx {
				data[c] = plane[k]
				c += sx
			}
		}
	}
	return buf[r.Len():]
}

// axisSpan is the strip rule along one axis of n interior nodes and h
// ghost layers, from the direction's offset on that axis: 0 spans the
// whole interior extent; -1 and +1 the h layers at that end, the interior
// ones or the ghost ones beyond them.
func axisSpan(n, h, off int, interior bool) (x0, nx int) {
	switch {
	case off == 0:
		return 0, n
	case off < 0 && interior:
		return 0, h
	case off < 0:
		return -h, h
	case interior:
		return n - h, h
	}
	return n, h
}

// Strip returns the strip of a field on side dir: a face spans the
// interior extent of its tangential axes, an in-plane corner is h by h.
// The interior strip is what a ghost-fill method sends to the neighbour at
// dir and where an outflow-delivery method stores what arrives from it;
// the ghost strip is where a ghost-fill method stores what arrives from
// dir and what an outflow-delivery method (LB after shifting) sends there.
func Strip(l *grid.Layout, dir decomp.Dir, interior bool) Region {
	dx, dy, dz := dir.Delta()
	var r Region
	r.X0, r.NX = axisSpan(l.NX, l.H, dx, interior)
	r.Y0, r.NY = axisSpan(l.NY, l.H, dy, interior)
	r.Z0, r.NZ = axisSpan(l.NZ, l.H, dz, interior)
	return r
}

// PackSend extracts the send strips of every field, given by its layout,
// for direction dir under the given convention (ghostFill true = the
// interior strips) into one buffer, so all boundary data for a neighbour
// travels in one message.
func PackSend(fields []*grid.Layout, dir decomp.Dir, ghostFill bool, buf []float64) []float64 {
	for _, l := range fields {
		buf = Extract(l, Strip(l, dir, ghostFill), buf)
	}
	return buf
}

// UnpackRecv injects a buffer produced by PackSend on the neighbour at dir
// into the receive strips of every field.
func UnpackRecv(fields []*grid.Layout, dir decomp.Dir, ghostFill bool, buf []float64) {
	for _, l := range fields {
		buf = Inject(l, Strip(l, dir, !ghostFill), buf)
	}
	if len(buf) != 0 {
		panic(fmt.Sprintf("halo: %d leftover values after unpack", len(buf)))
	}
}
