package filter

import (
	"repro/internal/fluid"
	"repro/internal/grid"
)

// RunFunc is a parallel-for executor: it invokes fn over disjoint
// sub-ranges covering [0, n) and returns once all of them are done. The
// solvers pass their pool-backed runner; Serial is the in-place default.
type RunFunc func(n int, fn func(lo, hi int))

// Serial runs the whole range on the calling goroutine.
func Serial(n int, fn func(lo, hi int)) { fn(0, n) }

// Plan2D is the filter with its applicability precomputed. Applicability
// depends only on the mask and the subregion geometry — both fixed for a
// solver's lifetime — so evaluating the 9-point mask probe per node per
// step is pure overhead; the plan replaces it with one bitmap lookup.
//
// Apply parallelizes over rows through a RunFunc with a barrier between
// the correction and update sweeps of each field. Every node's arithmetic
// is unchanged from the serial Apply2D and no node reads another node's
// written value within a sweep, so the result is bit-identical for every
// executor and worker count.
type Plan2D struct {
	nx, ny int
	ok     []bool // row-major applicability of the full stencil

	// Per-Apply state consumed by the prebuilt sweep closures; set by
	// Apply before handing the closures to the executor, so the
	// steady-state step builds no new closures and allocates nothing.
	f       *grid.Field2D
	eps     float64
	scratch []float64
	correct func(lo, hi int)
	update  func(lo, hi int)
}

// NewPlan2D precomputes filter applicability for an nx-by-ny subregion
// from its mask closure, queried at interior coordinates only.
func NewPlan2D(nx, ny int, mask func(x, y int) fluid.CellType) *Plan2D {
	cells := make([]fluid.CellType, nx*ny)
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			cells[y*nx+x] = mask(x, y)
		}
	}
	return NewPlan2DFromCells(nx, ny, cells)
}

// NewPlan2DFromCells is NewPlan2D over the row-major interior cell types a
// solver has already classified. An applicable node lies at least two nodes
// from every side (Applicable2D), so its stencil probes never leave the
// interior and the cells array answers all of them.
func NewPlan2DFromCells(nx, ny int, cells []fluid.CellType) *Plan2D {
	p := &Plan2D{nx: nx, ny: ny, ok: make([]bool, nx*ny)}
	for y := 2; y < ny-2; y++ {
		for x := 2; x < nx-2; x++ {
			i := y*nx + x
			ok := true
			for d := -2; d <= 2 && ok; d++ {
				ok = cells[i+d] == fluid.Interior && cells[i+d*nx] == fluid.Interior
			}
			p.ok[i] = ok
		}
	}
	p.correct = p.correctRows
	p.update = p.updateRows
	return p
}

// correctRows computes the fourth-difference correction of rows
// [y0, y1) into scratch; nodes outside the stencil's reach get zero.
//
// The stencil is read through row slices of the raw storage, one per
// neighbour offset, all indexed by x. Rows within two of an edge hold no
// applicable node (Applicable2D), so their neighbour rows are never cut.
func (p *Plan2D) correctRows(y0, y1 int) {
	f, nx, sx, d := p.f, p.nx, p.f.Stride(), p.f.Data()
	for y := y0; y < y1; y++ {
		row := p.scratch[y*nx : (y+1)*nx]
		if y < 2 || y >= p.ny-2 {
			clear(row)
			continue
		}
		okRow := p.ok[y*nx:][:nx]
		at := f.Idx(0, y)
		c, w2, w1, e1, e2 := d[at:][:nx], d[at-2:][:nx], d[at-1:][:nx], d[at+1:][:nx], d[at+2:][:nx]
		s2, s1, n1, n2 := d[at-2*sx:][:nx], d[at-sx:][:nx], d[at+sx:][:nx], d[at+2*sx:][:nx]
		for x := range row {
			if !okRow[x] {
				row[x] = 0
				continue
			}
			d4x := w2[x] - 4*w1[x] + 6*c[x] - 4*e1[x] + e2[x]
			d4y := s2[x] - 4*s1[x] + 6*c[x] - 4*n1[x] + n2[x]
			row[x] = d4x + d4y
		}
	}
}

// updateRows applies the stored corrections to rows [y0, y1).
func (p *Plan2D) updateRows(y0, y1 int) {
	f, nx, eps := p.f, p.nx, p.eps
	for y := y0; y < y1; y++ {
		row := p.scratch[y*nx : (y+1)*nx]
		out := f.Data()[f.Idx(0, y):][:nx]
		for x, c := range row {
			if c != 0 {
				out[x] += -eps * c
			}
		}
	}
}

// Apply filters the fields in place with strength eps. scratch must hold
// at least nx*ny values; run executes the row sweeps (Serial for the
// serial path). The correction sweep of a field completes before its
// update sweep starts, so no node reads a filtered value.
func (p *Plan2D) Apply(fields []*grid.Field2D, eps float64, scratch []float64, run RunFunc) {
	if eps == 0 || len(fields) == 0 {
		return
	}
	if len(scratch) < p.nx*p.ny {
		panic("filter: scratch buffer too small")
	}
	p.eps, p.scratch = eps, scratch
	for _, f := range fields {
		if f.NX != p.nx || f.NY != p.ny {
			panic("filter: field geometry mismatch")
		}
		p.f = f
		run(p.ny, p.correct)
		run(p.ny, p.update)
	}
	p.f, p.scratch = nil, nil
}

// Plan3D is the 3D filter plan; Apply parallelizes over z-planes.
type Plan3D struct {
	nx, ny, nz int
	ok         []bool

	f       *grid.Field3D
	eps     float64
	scratch []float64
	correct func(lo, hi int)
	update  func(lo, hi int)
}

// NewPlan3D precomputes filter applicability for a box subregion from its
// mask closure, queried at interior coordinates only.
func NewPlan3D(nx, ny, nz int, mask func(x, y, z int) fluid.CellType) *Plan3D {
	cells := make([]fluid.CellType, nx*ny*nz)
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				cells[(z*ny+y)*nx+x] = mask(x, y, z)
			}
		}
	}
	return NewPlan3DFromCells(nx, ny, nz, cells)
}

// NewPlan3DFromCells is NewPlan3D over already classified interior cell
// types, indexed (z*ny+y)*nx+x (see NewPlan2DFromCells).
func NewPlan3DFromCells(nx, ny, nz int, cells []fluid.CellType) *Plan3D {
	p := &Plan3D{nx: nx, ny: ny, nz: nz, ok: make([]bool, nx*ny*nz)}
	sy, sz := nx, nx*ny
	for z := 2; z < nz-2; z++ {
		for y := 2; y < ny-2; y++ {
			for x := 2; x < nx-2; x++ {
				i := (z*ny+y)*nx + x
				ok := true
				for d := -2; d <= 2 && ok; d++ {
					ok = cells[i+d] == fluid.Interior && cells[i+d*sy] == fluid.Interior &&
						cells[i+d*sz] == fluid.Interior
				}
				p.ok[i] = ok
			}
		}
	}
	p.correct = p.correctPlanes
	p.update = p.updatePlanes
	return p
}

// correctPlanes computes corrections for z-planes [z0, z1) into scratch.
func (p *Plan3D) correctPlanes(z0, z1 int) {
	f, nx, ny, d := p.f, p.nx, p.ny, p.f.Data()
	sx, sxy := f.StrideX(), f.StrideXY()
	for z := z0; z < z1; z++ {
		for y := 0; y < ny; y++ {
			base := (z*ny + y) * nx
			row := p.scratch[base : base+nx]
			if y < 2 || y >= ny-2 || z < 2 || z >= p.nz-2 {
				clear(row)
				continue
			}
			okRow := p.ok[base:][:nx]
			at := f.Idx(0, y, z)
			c, w2, w1, e1, e2 := d[at:][:nx], d[at-2:][:nx], d[at-1:][:nx], d[at+1:][:nx], d[at+2:][:nx]
			s2, s1, n1, n2 := d[at-2*sx:][:nx], d[at-sx:][:nx], d[at+sx:][:nx], d[at+2*sx:][:nx]
			b2, b1, t1, t2 := d[at-2*sxy:][:nx], d[at-sxy:][:nx], d[at+sxy:][:nx], d[at+2*sxy:][:nx]
			for x := range row {
				if !okRow[x] {
					row[x] = 0
					continue
				}
				d4x := w2[x] - 4*w1[x] + 6*c[x] - 4*e1[x] + e2[x]
				d4y := s2[x] - 4*s1[x] + 6*c[x] - 4*n1[x] + n2[x]
				d4z := b2[x] - 4*b1[x] + 6*c[x] - 4*t1[x] + t2[x]
				row[x] = d4x + d4y + d4z
			}
		}
	}
}

// updatePlanes applies stored corrections to z-planes [z0, z1).
func (p *Plan3D) updatePlanes(z0, z1 int) {
	f, nx, ny, eps := p.f, p.nx, p.ny, p.eps
	for z := z0; z < z1; z++ {
		for y := 0; y < ny; y++ {
			base := (z*ny + y) * nx
			row := p.scratch[base : base+nx]
			out := f.Data()[f.Idx(0, y, z):][:nx]
			for x, c := range row {
				if c != 0 {
					out[x] -= eps * c
				}
			}
		}
	}
}

// Apply filters the 3D fields in place; scratch must hold nx*ny*nz
// values.
func (p *Plan3D) Apply(fields []*grid.Field3D, eps float64, scratch []float64, run RunFunc) {
	if eps == 0 || len(fields) == 0 {
		return
	}
	if len(scratch) < p.nx*p.ny*p.nz {
		panic("filter: scratch buffer too small")
	}
	p.eps, p.scratch = eps, scratch
	for _, f := range fields {
		if f.NX != p.nx || f.NY != p.ny || f.NZ != p.nz {
			panic("filter: field geometry mismatch")
		}
		p.f = f
		run(p.nz, p.correct)
		run(p.nz, p.update)
	}
	p.f, p.scratch = nil, nil
}
