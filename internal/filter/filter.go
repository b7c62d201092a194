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
//
// Plan.Apply filters each field in place through a Ring of three rows
// (planes in 3D): no lattice-sized scratch, and every node still reads
// unfiltered values. The FD solvers' velocity and density sweeps write
// their fields in place through the same Ring.
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
// no z term, no z sides. Apply sweeps each field in units the solver sizes
// its slabs by (rows of a planar plan, planes of a box one) and writes it
// in place through a Ring of depth 2, so every node reads unfiltered
// values and the result is bit-identical for every executor and worker
// count.
type Plan struct {
	nx, ny, nz int
	planar     bool
	ok         []bool // applicability of the full stencil, (z*ny+y)*nx+x
	units, per int    // the sweeps' slab units and the rows in each

	// Per-Apply state read by the sweep, prebuilt so the steady-state step
	// builds no closure and allocates nothing.
	field [1]*grid.Layout
	eps   float64
	ring  Ring
	sweep func(lo, hi int)
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
	p.sweep = p.sweepUnits
	return p
}

// d4 is the fourth difference along one axis.
func d4(m2, m1, c, p1, p2 float64) float64 { return m2 - 4*m1 + 6*c - 4*p1 + p2 }

// sweepUnits filters units [lo, hi) of the field in place through the
// ring. A row is read through slices of the raw storage, one per
// neighbour offset, all indexed by x; a row within two of an edge holds no
// applicable node and is copied before any neighbour row is cut.
func (p *Plan) sweepUnits(lo, hi int) {
	l, nx, w := p.field[0], p.nx, p.ring.Slab(lo, hi)
	d, sx, sxy := l.Data, l.SX, l.SXY
	var arms [8][]float64 // the z arms stay nil on a planar plan
	for u := lo; u < hi; u++ {
		out := w.Out(u)
		for r := u * p.per; r < (u+1)*p.per; r++ {
			y, z := r%p.ny, r/p.ny
			at, o := l.Origin+z*sxy+y*sx, out[(r-u*p.per)*nx:][:nx]
			if nx < 5 || y < 2 || y >= p.ny-2 || !p.planar && (z < 2 || z >= p.nz-2) {
				copy(o, d[at:][:nx])
				continue
			}
			arms[0], arms[1], arms[2], arms[3] = d[at-2*sx:], d[at-sx:], d[at+sx:], d[at+2*sx:]
			if !p.planar {
				arms[4], arms[5], arms[6], arms[7] = d[at-2*sxy:], d[at-sxy:], d[at+sxy:], d[at+2*sxy:]
			}
			filterRow(p.ok[r*nx:][:nx], p.eps, d[at:][:nx], &arms, o)
		}
	}
}

// filterRow writes the row c, nx >= 5 long, filtered into out by the
// per-node expression: where the row's ok allows, u - eps*c only when the
// correction c = d4(x-arm) + d4(y-arm) [+ d4(z-arm)] is not zero, so a -0
// whose correction is a zero of either sign stays -0. arms holds the rows
// at -2, -1, +1, +2 along y and, off a planar plan, along z, each indexed
// like c.
func filterRow(ok []bool, eps float64, c []float64, arms *[8][]float64, out []float64) {
	nx := len(c)
	copy(out[:2], c)
	copy(out[nx-2:nx], c[nx-2:])
	m := nx - 4 // every slice is indexed by x-2, over the nodes Apply may filter
	ok, o := ok[2:][:m], out[2:][:m]
	w2, w1, u, e1, e2 := c[:m], c[1:][:m], c[2:][:m], c[3:][:m], c[4:][:m]
	s2, s1, n1, n2 := arms[0][2:][:m], arms[1][2:][:m], arms[2][2:][:m], arms[3][2:][:m]
	if arms[4] == nil {
		for j, v := range u {
			if ok[j] {
				if d := d4(w2[j], w1[j], v, e1[j], e2[j]) + d4(s2[j], s1[j], v, n1[j], n2[j]); d != 0 {
					v -= eps * d
				}
			}
			o[j] = v
		}
		return
	}
	b2, b1, t1, t2 := arms[4][2:][:m], arms[5][2:][:m], arms[6][2:][:m], arms[7][2:][:m]
	for j, v := range u {
		if ok[j] {
			if d := d4(w2[j], w1[j], v, e1[j], e2[j]) + d4(s2[j], s1[j], v, n1[j], n2[j]) +
				d4(b2[j], b1[j], v, t1[j], t2[j]); d != 0 {
				v -= eps * d
			}
		}
		o[j] = v
	}
}

// Row writes row y of the filtered field into out from the unfiltered
// rows y-2 .. y+2 in win, each nx long, by Apply's per-node expression
// and with no scratch. Only win[2] is read at eps = 0 or within two rows
// of a side.
func (p *Plan2D) Row(y int, eps float64, win [5][]float64, out []float64) {
	nx, c := p.nx, win[2][:p.nx]
	if eps == 0 || y < 2 || y >= p.ny-2 || nx < 5 {
		copy(out[:nx], c)
		return
	}
	filterRow(p.ok[y*nx:][:nx], eps, c, &[8][]float64{win[0], win[1], win[3], win[4]}, out)
}

// apply filters the fields in place with strength eps, one sweep of run
// per field, with scratch as the ring: three rows (planes), checked before
// anything is written; a slab past them takes its ring from the heap.
func apply[F interface{ Layout() *grid.Layout }](p *Plan, fields []F, eps float64, scratch []float64, run RunFunc) {
	if eps == 0 || len(fields) == 0 {
		return
	}
	if len(scratch) < RingLen(1, p.units, 2, p.per*p.nx) {
		panic("filter: scratch buffer too small")
	}
	p.eps = eps
	for _, f := range fields {
		l := f.Layout()
		if l.NX != p.nx || l.NY != p.ny || l.NZ != p.nz {
			panic("filter: field geometry mismatch")
		}
		p.field[0] = l
		p.ring.Sweep(scratch, p.field[:], p.per, 2, run, p.sweep)
	}
	p.field[0], p.eps = nil, 0
}

// Apply filters the fields in place (see Plan and apply); scratch must
// hold RingLen(1, ny, 2, nx) values, RingLen(slabs, ny, 2, nx) for no heap.
func (p *Plan2D) Apply(fields []*grid.Field2D, eps float64, scratch []float64, run RunFunc) {
	apply((*Plan)(p), fields, eps, scratch, run)
}

// Apply filters the 3D fields in place; scratch must hold at least
// RingLen(1, nz, 2, nx*ny) values (see Plan2D.Apply).
func (p *Plan3D) Apply(fields []*grid.Field3D, eps float64, scratch []float64, run RunFunc) {
	apply((*Plan)(p), fields, eps, scratch, run)
}
