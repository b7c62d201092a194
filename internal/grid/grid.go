// Package grid provides uniform orthogonal grids with ghost-cell padding,
// the storage substrate shared by the finite-difference and lattice
// Boltzmann solvers.
//
// A Field2D or Field3D stores one scalar fluid variable (density, a velocity
// component, or one lattice Boltzmann population) on the interior nodes of a
// subregion plus H layers of ghost ("padded") nodes on every side. The
// ghost layers hold copies of neighbouring subregions' boundary values, so
// the interior update never needs to know whether it runs serially or as one
// subregion of a distributed computation (section 4.2 of the paper).
//
// Storage is a single flat slice in row-major order. The slice length is
// kept away from near-multiples of 4096 bytes per appendix E of the paper,
// which reports a 2x slowdown on HP9000/700 hardware when array lengths land
// near the virtual-memory page size; AvoidPageResonance reproduces the
// paper's fix of lengthening such arrays by a few hundred bytes.
package grid

import (
	"fmt"
	"math"
)

// PageBytes is the virtual-memory page size the appendix-E padding rule
// guards against.
const PageBytes = 4096

// resonanceSlack is how close (in bytes) an array length must be to a
// multiple of PageBytes before it is considered resonant. The paper pads
// arrays whose byte length is a "near multiple" of the page size.
const resonanceSlack = 64

// padElems is the extra padding, in float64 elements, appended to a resonant
// array. 32 elements = 256 bytes, matching the paper's 200-300 bytes.
const padElems = 32

// AvoidPageResonance returns a slice capacity >= n (in float64 elements)
// whose byte length is not a near multiple of the 4096-byte page size.
// It implements the appendix-E fix: lengthen resonant arrays by 200-300
// bytes so the CPU cache prefetcher does not thrash.
func AvoidPageResonance(n int) int {
	bytes := n * 8
	rem := bytes % PageBytes
	if rem <= resonanceSlack || PageBytes-rem <= resonanceSlack {
		return n + padElems
	}
	return n
}

// Layout is a field's raw storage as the halo layer walks it, the same
// for both field types: the flat array, the index of interior node
// (0, 0, 0), the interior extents, the row and plane strides and the ghost
// depth. A Field2D is one plane: NZ = 1, no plane stride, no ghosts along z.
// Each field holds its Layout and hands out a pointer to it, so a halo
// copy of a few values does not first copy the 80-byte description.
type Layout struct {
	Data       []float64
	Origin     int
	NX, NY, NZ int
	SX, SXY    int
	H          int
}

// Field2D is a scalar field on a 2D uniform orthogonal grid with H ghost
// layers on each side. Interior nodes are addressed 0 <= x < NX,
// 0 <= y < NY; ghost nodes extend to -H and NX+H-1 (resp. NY+H-1).
type Field2D struct {
	NX, NY int    // interior node counts
	H      int    // ghost layers per side
	lay    Layout // the storage; row stride NX + 2H
}

// NewField2D allocates a zeroed field with nx-by-ny interior nodes and h
// ghost layers. It panics if any dimension is non-positive, because a field
// of zero extent is always a programming error in this code base.
func NewField2D(nx, ny, h int) *Field2D {
	if nx <= 0 || ny <= 0 || h < 0 {
		panic(fmt.Sprintf("grid: invalid Field2D dimensions %dx%d h=%d", nx, ny, h))
	}
	sx := nx + 2*h
	n := sx * (ny + 2*h)
	return &Field2D{
		NX: nx, NY: ny, H: h,
		lay: Layout{Data: make([]float64, n, AvoidPageResonance(n)), Origin: h*sx + h,
			NX: nx, NY: ny, NZ: 1, SX: sx, H: h},
	}
}

// Stride returns the row stride of the underlying storage.
func (f *Field2D) Stride() int { return f.lay.SX }

// Data exposes the raw storage including ghost nodes. Index with
// (y+H)*Stride() + (x+H). Intended for the solvers' inner loops.
func (f *Field2D) Data() []float64 { return f.lay.Data }

// Layout hands out the field's raw layout, to be read only; it follows a
// Swap.
func (f *Field2D) Layout() *Layout { return &f.lay }

// Idx returns the flat index of interior node (x, y). Ghost nodes are
// reached with x in [-H, NX+H) and y in [-H, NY+H).
func (f *Field2D) Idx(x, y int) int { return (y+f.H)*f.lay.SX + (x + f.H) }

// At returns the value at node (x, y); ghost offsets are legal.
func (f *Field2D) At(x, y int) float64 { return f.lay.Data[f.Idx(x, y)] }

// Set stores v at node (x, y); ghost offsets are legal.
func (f *Field2D) Set(x, y int, v float64) { f.lay.Data[f.Idx(x, y)] = v }

// Add adds v to node (x, y).
func (f *Field2D) Add(x, y int, v float64) { f.lay.Data[f.Idx(x, y)] += v }

// Fill sets every node, ghosts included, to v.
func (f *Field2D) Fill(v float64) {
	for i := range f.lay.Data {
		f.lay.Data[i] = v
	}
}

// FillInterior sets every interior node to v, leaving ghosts untouched.
func (f *Field2D) FillInterior(v float64) {
	for y := 0; y < f.NY; y++ {
		row := f.lay.Data[f.Idx(0, y) : f.Idx(0, y)+f.NX]
		for i := range row {
			row[i] = v
		}
	}
}

// Clone returns a deep copy of the field.
func (f *Field2D) Clone() *Field2D {
	g := NewField2D(f.NX, f.NY, f.H)
	copy(g.lay.Data, f.lay.Data)
	return g
}

// CopyFrom copies all nodes (ghosts included) from src, which must have
// identical geometry.
func (f *Field2D) CopyFrom(src *Field2D) {
	if f.NX != src.NX || f.NY != src.NY || f.H != src.H {
		panic("grid: CopyFrom geometry mismatch")
	}
	copy(f.lay.Data, src.lay.Data)
}

// Swap exchanges the storage of f and g, which must have identical
// geometry. Solvers use it to flip current/next buffers without copying.
func (f *Field2D) Swap(g *Field2D) {
	if f.NX != g.NX || f.NY != g.NY || f.H != g.H {
		panic("grid: Swap geometry mismatch")
	}
	f.lay.Data, g.lay.Data = g.lay.Data, f.lay.Data
}

// InteriorEqual reports whether the interior nodes of f and g agree within
// tol, ignoring ghost layers. Fields must have identical interior sizes
// (ghost depth may differ).
func (f *Field2D) InteriorEqual(g *Field2D, tol float64) bool {
	if f.NX != g.NX || f.NY != g.NY {
		return false
	}
	for y := 0; y < f.NY; y++ {
		for x := 0; x < f.NX; x++ {
			if math.Abs(f.At(x, y)-g.At(x, y)) > tol {
				return false
			}
		}
	}
	return true
}

// MaxAbsInterior returns the maximum absolute interior value, a cheap
// stability probe used by tests and the monitoring program.
func (f *Field2D) MaxAbsInterior() float64 {
	m := 0.0
	for y := 0; y < f.NY; y++ {
		for x := 0; x < f.NX; x++ {
			if a := math.Abs(f.At(x, y)); a > m {
				m = a
			}
		}
	}
	return m
}

// SumInterior returns the sum of interior values; mass-conservation checks
// use it on the density field.
func (f *Field2D) SumInterior() float64 {
	s := 0.0
	for y := 0; y < f.NY; y++ {
		for x := 0; x < f.NX; x++ {
			s += f.At(x, y)
		}
	}
	return s
}

// Field3D is the three-dimensional analogue of Field2D.
type Field3D struct {
	NX, NY, NZ int
	H          int
	lay        Layout // the storage; row stride NX + 2H, plane stride SX * (NY + 2H)
}

// NewField3D allocates a zeroed 3D field with ghost layers.
func NewField3D(nx, ny, nz, h int) *Field3D {
	if nx <= 0 || ny <= 0 || nz <= 0 || h < 0 {
		panic(fmt.Sprintf("grid: invalid Field3D dimensions %dx%dx%d h=%d", nx, ny, nz, h))
	}
	sx := nx + 2*h
	sxy := sx * (ny + 2*h)
	n := sxy * (nz + 2*h)
	return &Field3D{
		NX: nx, NY: ny, NZ: nz, H: h,
		lay: Layout{Data: make([]float64, n, AvoidPageResonance(n)), Origin: h*sxy + h*sx + h,
			NX: nx, NY: ny, NZ: nz, SX: sx, SXY: sxy, H: h},
	}
}

// StrideX returns the x-row stride; StrideXY the z-plane stride.
func (f *Field3D) StrideX() int  { return f.lay.SX }
func (f *Field3D) StrideXY() int { return f.lay.SXY }

// Data exposes the raw storage including ghosts.
func (f *Field3D) Data() []float64 { return f.lay.Data }

// Layout hands out the field's raw layout, to be read only; it follows a
// Swap.
func (f *Field3D) Layout() *Layout { return &f.lay }

// Idx returns the flat index of node (x, y, z); ghost offsets are legal.
func (f *Field3D) Idx(x, y, z int) int {
	return (z+f.H)*f.lay.SXY + (y+f.H)*f.lay.SX + (x + f.H)
}

// At returns the value at node (x, y, z).
func (f *Field3D) At(x, y, z int) float64 { return f.lay.Data[f.Idx(x, y, z)] }

// Set stores v at node (x, y, z).
func (f *Field3D) Set(x, y, z int, v float64) { f.lay.Data[f.Idx(x, y, z)] = v }

// Add adds v to node (x, y, z).
func (f *Field3D) Add(x, y, z int, v float64) { f.lay.Data[f.Idx(x, y, z)] += v }

// Fill sets every node, ghosts included, to v.
func (f *Field3D) Fill(v float64) {
	for i := range f.lay.Data {
		f.lay.Data[i] = v
	}
}

// Clone returns a deep copy.
func (f *Field3D) Clone() *Field3D {
	g := NewField3D(f.NX, f.NY, f.NZ, f.H)
	copy(g.lay.Data, f.lay.Data)
	return g
}

// CopyFrom copies all nodes from src, which must have identical geometry.
func (f *Field3D) CopyFrom(src *Field3D) {
	if f.NX != src.NX || f.NY != src.NY || f.NZ != src.NZ || f.H != src.H {
		panic("grid: CopyFrom geometry mismatch")
	}
	copy(f.lay.Data, src.lay.Data)
}

// Swap exchanges storage with g (identical geometry required).
func (f *Field3D) Swap(g *Field3D) {
	if f.NX != g.NX || f.NY != g.NY || f.NZ != g.NZ || f.H != g.H {
		panic("grid: Swap geometry mismatch")
	}
	f.lay.Data, g.lay.Data = g.lay.Data, f.lay.Data
}

// InteriorEqual reports whether interiors agree within tol.
func (f *Field3D) InteriorEqual(g *Field3D, tol float64) bool {
	if f.NX != g.NX || f.NY != g.NY || f.NZ != g.NZ {
		return false
	}
	for z := 0; z < f.NZ; z++ {
		for y := 0; y < f.NY; y++ {
			for x := 0; x < f.NX; x++ {
				if math.Abs(f.At(x, y, z)-g.At(x, y, z)) > tol {
					return false
				}
			}
		}
	}
	return true
}

// SumInterior returns the sum of interior values.
func (f *Field3D) SumInterior() float64 {
	s := 0.0
	for z := 0; z < f.NZ; z++ {
		for y := 0; y < f.NY; y++ {
			for x := 0; x < f.NX; x++ {
				s += f.At(x, y, z)
			}
		}
	}
	return s
}

// MaxAbsInterior returns the maximum absolute interior value.
func (f *Field3D) MaxAbsInterior() float64 {
	m := 0.0
	for z := 0; z < f.NZ; z++ {
		for y := 0; y < f.NY; y++ {
			for x := 0; x < f.NX; x++ {
				if a := math.Abs(f.At(x, y, z)); a > m {
					m = a
				}
			}
		}
	}
	return m
}
