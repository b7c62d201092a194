package halo

import (
	"fmt"

	"repro/internal/decomp"
	"repro/internal/grid"
)

// Region3D is a box in field-local coordinates; ghost offsets are legal.
type Region3D struct {
	X0, Y0, Z0 int
	NX, NY, NZ int
}

// Len returns the node count of the region.
func (r Region3D) Len() int { return r.NX * r.NY * r.NZ }

// Extract3D appends the region's values (x fastest, then y, then z) to buf.
func Extract3D(f *grid.Field3D, r Region3D, buf []float64) []float64 {
	return extract(f.Data(), f.Idx(r.X0, r.Y0, r.Z0), box{r.NX, r.NY, r.NZ, f.StrideX(), f.StrideXY(), f.H}, buf)
}

// Inject3D copies region values from buf into f and returns the remainder.
func Inject3D(f *grid.Field3D, r Region3D, buf []float64) []float64 {
	return inject(f.Data(), f.Idx(r.X0, r.Y0, r.Z0), box{r.NX, r.NY, r.NZ, f.StrideX(), f.StrideXY(), f.H}, buf)
}

// faceSpans returns the strip on face dir, interior or ghost. Face strips
// span the full interior extent of the two tangential axes.
func faceSpans(nx, ny, nz, h int, dir decomp.Dir3, interior bool) Region3D {
	switch dir {
	case decomp.West3:
		if interior {
			return Region3D{0, 0, 0, h, ny, nz}
		}
		return Region3D{-h, 0, 0, h, ny, nz}
	case decomp.East3:
		if interior {
			return Region3D{nx - h, 0, 0, h, ny, nz}
		}
		return Region3D{nx, 0, 0, h, ny, nz}
	case decomp.South3:
		if interior {
			return Region3D{0, 0, 0, nx, h, nz}
		}
		return Region3D{0, -h, 0, nx, h, nz}
	case decomp.North3:
		if interior {
			return Region3D{0, ny - h, 0, nx, h, nz}
		}
		return Region3D{0, ny, 0, nx, h, nz}
	case decomp.Down3:
		if interior {
			return Region3D{0, 0, 0, nx, ny, h}
		}
		return Region3D{0, 0, -h, nx, ny, h}
	case decomp.Up3:
		if interior {
			return Region3D{0, 0, nz - h, nx, ny, h}
		}
		return Region3D{0, 0, nz, nx, ny, h}
	}
	panic(fmt.Sprintf("halo: invalid 3D direction %v", dir))
}

// SendInterior3D is the interior face strip sent by a ghost-fill method.
func SendInterior3D(f *grid.Field3D, dir decomp.Dir3) Region3D {
	return faceSpans(f.NX, f.NY, f.NZ, f.H, dir, true)
}

// RecvGhost3D is the ghost face strip filled by a ghost-fill method.
func RecvGhost3D(f *grid.Field3D, dir decomp.Dir3) Region3D {
	return faceSpans(f.NX, f.NY, f.NZ, f.H, dir, false)
}

// SendGhost3D is the ghost face strip sent by an outflow-delivery method.
func SendGhost3D(f *grid.Field3D, dir decomp.Dir3) Region3D {
	return faceSpans(f.NX, f.NY, f.NZ, f.H, dir, false)
}

// RecvInterior3D is the interior face strip filled by an outflow-delivery
// method.
func RecvInterior3D(f *grid.Field3D, dir decomp.Dir3) Region3D {
	return faceSpans(f.NX, f.NY, f.NZ, f.H, dir, true)
}

// PackSend3D extracts the send regions of every field for face dir into one
// buffer.
func PackSend3D(fields []*grid.Field3D, dir decomp.Dir3, ghostFill bool, buf []float64) []float64 {
	for _, f := range fields {
		var r Region3D
		if ghostFill {
			r = SendInterior3D(f, dir)
		} else {
			r = SendGhost3D(f, dir)
		}
		buf = Extract3D(f, r, buf)
	}
	return buf
}

// UnpackRecv3D injects a PackSend3D buffer from the neighbour at dir.
func UnpackRecv3D(fields []*grid.Field3D, dir decomp.Dir3, ghostFill bool, buf []float64) {
	for _, f := range fields {
		var r Region3D
		if ghostFill {
			r = RecvGhost3D(f, dir)
		} else {
			r = RecvInterior3D(f, dir)
		}
		buf = Inject3D(f, r, buf)
	}
	if len(buf) != 0 {
		panic(fmt.Sprintf("halo: %d leftover values after 3D unpack", len(buf)))
	}
}

// MsgLen3D returns the message length in float64 values for the fields and
// face direction.
func MsgLen3D(fields []*grid.Field3D, dir decomp.Dir3) int {
	n := 0
	for _, f := range fields {
		n += SendInterior3D(f, dir).Len()
	}
	return n
}
