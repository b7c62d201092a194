// Package grid provides uniform orthogonal grids with ghost-cell padding,
// the storage substrate shared by the finite-difference and lattice
// Boltzmann solvers.
//
// A Field stores one scalar fluid variable (density, a velocity component,
// or one lattice Boltzmann population) on the interior nodes of a subregion
// plus H layers of ghost ("padded") nodes on every side. The ghost layers
// hold copies of neighbouring subregions' boundary values, so the interior
// update never needs to know whether it runs serially or as one subregion
// of a distributed computation (section 4.2 of the paper). A 2D field is a
// 3D one a plane thick, with no ghost layers along z; Field2D and Field3D
// are the same Field addressed with two or three coordinates.
//
// Storage is a single flat slice in row-major order. The slice length is
// kept away from near-multiples of 4096 bytes per appendix E of the paper,
// which reports a 2x slowdown on HP9000/700 hardware when array lengths land
// near the virtual-memory page size; AvoidPageResonance reproduces the
// paper's fix of lengthening such arrays by a few hundred bytes, and
// storage gives the starts of large fields the same treatment.
package grid

import (
	"fmt"
	"math"
	"sync/atomic"
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

// Go puts allocations of 32 KiB and more on page boundaries, so element j
// of every large field would share one page offset, and a store to one
// would alias loads from the others in their low 12 bits. storage starts
// each field of at least staggerMin bytes staggerStep bytes further into
// the page than the last (starts counts them); smaller ones keep the
// varied offsets Go's size classes give them.
const staggerMin, staggerStep = 32 << 10, 64

var starts atomic.Uint64

// storage returns zeroed field storage of length n and capacity c,
// staggered within the page when it is at least staggerMin bytes.
func storage(n, c int) []float64 {
	if c*8 < staggerMin {
		return make([]float64, n, c)
	}
	off := int(starts.Add(1)%(PageBytes/staggerStep)) * (staggerStep / 8)
	return make([]float64, off+c)[off : off+n : off+c]
}

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

// Layout is a field's raw storage as the halo layer and the kernels walk
// it: the flat array, the index of interior node (0, 0, 0), the interior
// extents, the row and plane strides and the ghost depth. Node (x, y, z)
// is at Origin + z*SXY + y*SX + x. A planar field is one plane: NZ = 1, no
// plane stride, no ghosts along z. Each field holds its Layout and hands
// out a pointer to it, so a halo copy of a few values does not first copy
// the 80-byte description.
type Layout struct {
	Data       []float64
	Origin     int
	NX, NY, NZ int
	SX, SXY    int
	H          int
}

// Field is a scalar field on a box of NX x NY x NZ interior nodes with H
// ghost layers on the x and y sides. Field2D and Field3D embed it, and
// every method taking a second field takes either view of one.
type Field struct {
	NX, NY, NZ int    // interior node counts
	H          int    // ghost layers per side
	lay        Layout // the storage; row stride NX + 2H
}

// view is a Field seen at either arity.
type view interface{ field() *Field }

func (f *Field) field() *Field { return f }

// newField allocates a zeroed field with h ghost layers on the x and y
// sides and hz along z (0 for a planar field). A field of zero extent is
// always a programming error in this code base, so it panics.
func newField(nx, ny, nz, h, hz int) Field {
	if nx <= 0 || ny <= 0 || nz <= 0 || h < 0 {
		panic(fmt.Sprintf("grid: invalid field dimensions %dx%dx%d h=%d", nx, ny, nz, h))
	}
	sx := nx + 2*h
	plane := sx * (ny + 2*h)
	n := plane * (nz + 2*hz)
	return Field{NX: nx, NY: ny, NZ: nz, H: h,
		lay: Layout{Data: storage(n, AvoidPageResonance(n)), Origin: hz*plane + h*sx + h,
			NX: nx, NY: ny, NZ: nz, SX: sx, SXY: plane, H: h}}
}

// Data exposes the raw storage including ghost nodes; Layout indexes it.
func (f *Field) Data() []float64 { return f.lay.Data }

// Layout hands out the field's raw layout, to be read only; it follows a
// Swap.
func (f *Field) Layout() *Layout { return &f.lay }

// row is interior row k = z*NY + y, ghosts excluded.
func (f *Field) row(k int) []float64 {
	return f.lay.Data[f.lay.Origin+k/f.NY*f.lay.SXY+k%f.NY*f.lay.SX:][:f.NX]
}

// Fill sets every node, ghosts included, to v.
func (f *Field) Fill(v float64) {
	for i := range f.lay.Data {
		f.lay.Data[i] = v
	}
}

// clone is a deep copy of the field.
func (f *Field) clone() Field {
	g := *f
	g.lay.Data = storage(len(f.lay.Data), cap(f.lay.Data))
	copy(g.lay.Data, f.lay.Data)
	return g
}

// sameShape reports whether g has f's extents and ghost depths.
func (f *Field) sameShape(g *Field) bool {
	return f.NX == g.NX && f.NY == g.NY && f.NZ == g.NZ && f.H == g.H && len(f.lay.Data) == len(g.lay.Data)
}

// CopyFrom copies all nodes (ghosts included) from src, which must have
// identical geometry.
func (f *Field) CopyFrom(src view) {
	if !f.sameShape(src.field()) {
		panic("grid: CopyFrom geometry mismatch")
	}
	copy(f.lay.Data, src.field().lay.Data)
}

// Swap exchanges the storage of f and g, which must have identical
// geometry. Solvers use it to flip current/next buffers without copying.
func (f *Field) Swap(g view) {
	o := g.field()
	if !f.sameShape(o) {
		panic("grid: Swap geometry mismatch")
	}
	f.lay.Data, o.lay.Data = o.lay.Data, f.lay.Data
}

// InteriorEqual reports whether the interior nodes of f and g agree within
// tol, ignoring ghost layers. Fields must have identical interior sizes
// (ghost depth may differ).
func (f *Field) InteriorEqual(g view, tol float64) bool {
	o := g.field()
	if f.NX != o.NX || f.NY != o.NY || f.NZ != o.NZ {
		return false
	}
	for k := range f.NY * f.NZ {
		r := o.row(k)
		for x, v := range f.row(k) {
			if math.Abs(v-r[x]) > tol {
				return false
			}
		}
	}
	return true
}

// MaxAbsInterior returns the maximum absolute interior value, a cheap
// stability probe used by tests and the monitoring program.
func (f *Field) MaxAbsInterior() float64 {
	m := 0.0
	for k := range f.NY * f.NZ {
		for _, v := range f.row(k) {
			if a := math.Abs(v); a > m {
				m = a
			}
		}
	}
	return m
}

// SumInterior returns the sum of interior values, x fastest, then y, then
// z; mass-conservation checks use it on the density field.
func (f *Field) SumInterior() float64 {
	s := 0.0
	for k := range f.NY * f.NZ {
		for _, v := range f.row(k) {
			s += v
		}
	}
	return s
}

// Field2D is a planar Field addressed (x, y): interior nodes
// 0 <= x < NX, 0 <= y < NY; ghost nodes extend to -H and NX+H-1 (resp.
// NY+H-1).
type Field2D struct{ Field }

// NewField2D allocates a zeroed nx-by-ny field with h ghost layers.
func NewField2D(nx, ny, h int) *Field2D {
	f := newField(nx, ny, 1, h, 0)
	f.lay.SXY = 0 // one plane: no plane stride
	return &Field2D{f}
}

// Idx returns the flat index of node (x, y); ghost offsets are legal.
func (f *Field2D) Idx(x, y int) int { return f.lay.Origin + y*f.lay.SX + x }

// At returns the value at node (x, y); ghost offsets are legal.
func (f *Field2D) At(x, y int) float64 { return f.lay.Data[f.Idx(x, y)] }

// Set stores v at node (x, y); ghost offsets are legal.
func (f *Field2D) Set(x, y int, v float64) { f.lay.Data[f.Idx(x, y)] = v }

// Clone returns a deep copy of the field.
func (f *Field2D) Clone() *Field2D { return &Field2D{f.clone()} }

// Field3D is a Field addressed (x, y, z), with H ghost layers along z too.
type Field3D struct{ Field }

// NewField3D allocates a zeroed 3D field with h ghost layers on every side.
func NewField3D(nx, ny, nz, h int) *Field3D { return &Field3D{newField(nx, ny, nz, h, h)} }

// Idx returns the flat index of node (x, y, z); ghost offsets are legal.
func (f *Field3D) Idx(x, y, z int) int { return f.lay.Origin + z*f.lay.SXY + y*f.lay.SX + x }

// At returns the value at node (x, y, z).
func (f *Field3D) At(x, y, z int) float64 { return f.lay.Data[f.Idx(x, y, z)] }

// Set stores v at node (x, y, z).
func (f *Field3D) Set(x, y, z int, v float64) { f.lay.Data[f.Idx(x, y, z)] = v }

// Clone returns a deep copy.
func (f *Field3D) Clone() *Field3D { return &Field3D{f.clone()} }
