// Package filter implements the fourth-order numerical-viscosity filter of
// section 6. The filter dissipates high spatial frequencies whose
// wavelength is comparable to the grid mesh size, preventing the
// slow-growing instabilities that appear in subsonic flow at high Reynolds
// number. The same filter is applied to rho, Vx, Vy (and Vz in 3D) by both
// the finite-difference and the lattice Boltzmann method.
//
// The discrete operator is the classical fourth-difference dissipation
// (Peyret & Taylor):
//
//	u <- u - eps * (D4x u + D4y u [+ D4z u])
//	D4x u = u[x-2] - 4 u[x-1] + 6 u[x] - 4 u[x+1] + u[x+2]
//
// The stencil reaches two nodes in every axis, but the parallel system
// exchanges only one ghost layer per step (section 4.2: 3 variables per
// boundary node in 2D). The filter therefore skips nodes within distance 2
// of a subregion side or of a wall, where the full stencil is not
// available. Serial and parallel runs of one decomposition agree bitwise,
// but the cut decides where the filter acts: a 4x4 cut of a high-Re shear
// layer that 1x1 keeps bounded diverges (core.TestFilterKeepsShearLayerBounded).
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

// Plan is the filter over one subregion with its applicability
// precomputed: applicability depends only on the mask and the subregion
// geometry, both fixed for a solver's lifetime, so the plan replaces the
// per-node mask probe with one bitmap lookup. A planar plan is one plane:
// no z term, no z sides. The sweeps run over rows, cut into the units the
// solver sizes its slabs by (rows of a planar plan, planes of a box one),
// with a barrier between the correction and update sweeps of each field.
// No node reads another's written value within a sweep, so the result is
// bit-identical for every executor and worker count.
type Plan struct {
	nx, ny, nz int
	planar     bool
	ok         []bool // applicability of the full stencil, (z*ny+y)*nx+x
	units, per int    // the sweeps' slab units and the rows in each

	// Per-Apply state consumed by the prebuilt sweep closures; set by
	// Apply before handing the closures to the executor, so the
	// steady-state step builds no new closures and allocates nothing,
	// and reset when it returns.
	l       *grid.Layout
	eps     float64
	scratch []float64
	correct func(lo, hi int)
	update  func(lo, hi int)
}

// Plan2D and Plan3D are the plan applied to fields of one arity.
type (
	Plan2D Plan
	Plan3D Plan
)

// NewPlan2D precomputes filter applicability for an nx-by-ny subregion
// from its mask closure, queried at interior coordinates only.
func NewPlan2D(nx, ny int, mask func(x, y int) fluid.CellType) *Plan2D {
	return NewPlan2DFromCells(nx, ny, fluid.Classify(nx, ny, 1, func(x, y, _ int) fluid.CellType { return mask(x, y) }))
}

// NewPlan3D precomputes filter applicability for a box subregion from its
// mask closure, queried at interior coordinates only.
func NewPlan3D(nx, ny, nz int, mask func(x, y, z int) fluid.CellType) *Plan3D {
	return NewPlan3DFromCells(nx, ny, nz, fluid.Classify(nx, ny, nz, mask))
}

// NewPlan2DFromCells and NewPlan3DFromCells build the plan over the cell
// types a solver has already classified (fluid.Classify).
func NewPlan2DFromCells(nx, ny int, cells []fluid.CellType) *Plan2D {
	return (*Plan2D)(newPlan(nx, ny, 1, true, cells))
}

func NewPlan3DFromCells(nx, ny, nz int, cells []fluid.CellType) *Plan3D {
	return (*Plan3D)(newPlan(nx, ny, nz, false, cells))
}

// newPlan marks a node applicable when it lies at least two nodes from
// every side (but a planar plan's z sides) and no stencil arm reaches a
// cell that is not Interior. Its probes then never leave the interior, so
// the cells array answers all of them.
func newPlan(nx, ny, nz int, planar bool, cells []fluid.CellType) *Plan {
	p := &Plan{nx: nx, ny: ny, nz: nz, planar: planar, ok: make([]bool, nx*ny*nz), units: nz, per: ny}
	z0, z1, sz := 2, nz-2, nx*ny
	if planar {
		z0, z1, sz = 0, 1, 0
		p.units, p.per = ny, 1
	}
	for z := z0; z < z1; z++ {
		for y := 2; y < ny-2; y++ {
			for x := 2; x < nx-2; x++ {
				i := (z*ny+y)*nx + x
				ok := true
				for d := -2; d <= 2 && ok; d++ {
					ok = cells[i+d] == fluid.Interior && cells[i+d*nx] == fluid.Interior &&
						cells[i+d*sz] == fluid.Interior
				}
				p.ok[i] = ok
			}
		}
	}
	p.correct, p.update = p.correctRows, p.updateRows
	return p
}

// d4 is the fourth difference along one axis.
func d4(m2, m1, c, p1, p2 float64) float64 { return m2 - 4*m1 + 6*c - 4*p1 + p2 }

// correctRows computes the fourth-difference correction of units
// [lo, hi) into scratch; nodes outside the stencil's reach get zero.
//
// The stencil is read through row slices of the raw storage, one per
// neighbour offset, all indexed by x. A row within two of an edge holds no
// applicable node, so it is cleared before any neighbour row is cut.
func (p *Plan) correctRows(lo, hi int) {
	nx, d, sx, sxy := p.nx, p.l.Data, p.l.SX, p.l.SXY
	for r := lo * p.per; r < hi*p.per; r++ {
		y, z := r%p.ny, r/p.ny
		row := p.scratch[r*nx:][:nx]
		if y < 2 || y >= p.ny-2 || !p.planar && (z < 2 || z >= p.nz-2) {
			clear(row)
			continue
		}
		okRow := p.ok[r*nx:][:nx]
		at := p.l.Origin + z*sxy + y*sx
		c, w2, w1, e1, e2 := d[at:][:nx], d[at-2:][:nx], d[at-1:][:nx], d[at+1:][:nx], d[at+2:][:nx]
		s2, s1, n1, n2 := d[at-2*sx:][:nx], d[at-sx:][:nx], d[at+sx:][:nx], d[at+2*sx:][:nx]
		if p.planar {
			for x := range row {
				if !okRow[x] {
					row[x] = 0
					continue
				}
				row[x] = d4(w2[x], w1[x], c[x], e1[x], e2[x]) + d4(s2[x], s1[x], c[x], n1[x], n2[x])
			}
			continue
		}
		b2, b1, t1, t2 := d[at-2*sxy:][:nx], d[at-sxy:][:nx], d[at+sxy:][:nx], d[at+2*sxy:][:nx]
		for x := range row {
			if !okRow[x] {
				row[x] = 0
				continue
			}
			row[x] = d4(w2[x], w1[x], c[x], e1[x], e2[x]) + d4(s2[x], s1[x], c[x], n1[x], n2[x]) +
				d4(b2[x], b1[x], c[x], t1[x], t2[x])
		}
	}
}

// updateRows applies the stored corrections to units [lo, hi).
func (p *Plan) updateRows(lo, hi int) {
	nx, eps := p.nx, p.eps
	for r := lo * p.per; r < hi*p.per; r++ {
		out := p.l.Data[p.l.Origin+r/p.ny*p.l.SXY+r%p.ny*p.l.SX:][:nx]
		for x, c := range p.scratch[r*nx:][:nx] {
			if c != 0 {
				out[x] -= eps * c
			}
		}
	}
}

// Row writes row y of the filtered field into out from the unfiltered
// rows y-2 .. y+2 in win, each nx long, by Apply's per-node expression
// and with no scratch. Only win[2] is read at eps = 0 or within two rows
// of a side. Its loop is kept apart from correctRows, which FD runs.
func (p *Plan2D) Row(y int, eps float64, win [5][]float64, out []float64) {
	nx, c := p.nx, win[2]
	if eps == 0 || y < 2 || y >= p.ny-2 || nx < 5 {
		copy(out[:nx], c[:nx])
		return
	}
	copy(out[:2], c)
	copy(out[nx-2:nx], c[nx-2:nx])
	m := nx - 4 // every slice is indexed by x-2, over the nodes Apply may filter
	ok, o := p.ok[y*nx+2:][:m], out[2:][:m]
	w2, w1, u, e1, e2 := c[:m], c[1:][:m], c[2:][:m], c[3:][:m], c[4:][:m]
	s2, s1, n1, n2 := win[0][2:][:m], win[1][2:][:m], win[3][2:][:m], win[4][2:][:m]
	for j, v := range u {
		if ok[j] {
			if d := d4(w2[j], w1[j], v, e1[j], e2[j]) + d4(s2[j], s1[j], v, n1[j], n2[j]); d != 0 {
				v -= eps * d
			}
		}
		o[j] = v
	}
}

// apply filters the fields in place with strength eps. scratch must hold
// at least nx*ny*nz values; run executes the sweeps (Serial for the serial
// path). The correction sweep of a field completes before its update
// sweep starts, so no node reads a filtered value.
func apply[F interface{ Layout() *grid.Layout }](p *Plan, fields []F, eps float64, scratch []float64, run RunFunc) {
	if eps == 0 || len(fields) == 0 {
		return
	}
	if len(scratch) < p.nx*p.ny*p.nz {
		panic("filter: scratch buffer too small")
	}
	p.eps, p.scratch = eps, scratch
	for _, f := range fields {
		p.l = f.Layout()
		if p.l.NX != p.nx || p.l.NY != p.ny || p.l.NZ != p.nz {
			panic("filter: field geometry mismatch")
		}
		run(p.units, p.correct)
		run(p.units, p.update)
	}
	p.l, p.eps, p.scratch = nil, 0, nil
}

// Apply filters the fields in place (see Plan); scratch must hold at least
// nx*ny values.
func (p *Plan2D) Apply(fields []*grid.Field2D, eps float64, scratch []float64, run RunFunc) {
	apply((*Plan)(p), fields, eps, scratch, run)
}

// Apply filters the 3D fields in place; scratch must hold nx*ny*nz values.
func (p *Plan3D) Apply(fields []*grid.Field3D, eps float64, scratch []float64, run RunFunc) {
	apply((*Plan)(p), fields, eps, scratch, run)
}
