// Package fd implements the explicit finite-difference method of section 6:
// a straightforward discretization of the isothermal Navier-Stokes
// equations 1-3 with centered differences in space and forward Euler in
// time, on a uniform orthogonal grid with dx = 1.
//
// For numerical stability the density equation is updated using the
// velocities at time t+dt: the velocities are computed first, and the
// density is computed as a separate step (this ordering makes the acoustic
// subsystem a symplectic-Euler update, which is neutrally stable where
// plain forward Euler would grow). The per-cycle sequence is exactly the
// paper's:
//
//	Calculate Vx, Vy   (inner)
//	Communicate Vx, Vy (boundary)
//	Calculate rho      (inner)
//	Communicate rho    (boundary)
//	Filter rho, Vx, Vy (inner)
//
// so the method sends two messages per neighbour per integration step and
// communicates 3 variables per boundary node in 2D (4 in 3D), the counts
// that drive its efficiency behaviour in figures 7-8.
//
// Like the lattice Boltzmann method, every inner phase writes each node
// from its own neighbourhood reads of the previous-step fields, so a
// rank's subregion is cut into row slabs (z-plane slabs in 3D) on the
// shared worker pool when Workers > 1; results are bit-identical to the
// serial sweep at any worker count (see internal/pool).
package fd

import (
	"fmt"
	"slices"

	"repro/internal/decomp"
	"repro/internal/filter"
	"repro/internal/fluid"
	"repro/internal/grid"
	"repro/internal/halo"
	"repro/internal/pool"
)

// Solver2D integrates one subregion (or a whole serial domain) of the 2D
// isothermal Navier-Stokes equations.
type Solver2D struct {
	Par fluid.Params

	// Workers is the intra-rank slab count; <= 1 runs the serial sweeps.
	// Results are bit-identical at every value.
	Workers int

	Rho, Vx, Vy *grid.Field2D // current state, ghost depth 1

	nVx, nVy, nRho *grid.Field2D // next-step buffers
	ghostsPaired   bool          // next-step ghost shells equal the current ones (pairGhosts)
	scratch        []float64     // filter workspace; nil when Par.Eps is 0

	// Static per-node structure cached at construction: interior cell
	// types and per-row all-Interior flags (the branch-light fast path).
	// Only interior coordinates are cached; nothing queries a ghost's type.
	cells   []fluid.CellType
	rowOpen []bool
	plan    *filter.Plan2D

	// The sweeps and run, bound once so a step builds no method value.
	// Every sweep and the filter go through runFn.
	par          pool.Runner
	velFn, denFn func(lo, hi int)
	runFn        filter.RunFunc
	xbuf         []float64

	// Field and layout lists built once at construction so the
	// steady-state step allocates nothing; Swap exchanges field contents,
	// never these pointers, and a field's Layout follows its Swaps, so
	// they stay valid across steps.
	filterFields []*grid.Field2D
	phaseLayouts [2][]*grid.Layout
}

// NewSolver2D allocates a solver for an nx-by-ny subregion with the fields
// initialized to rho = Rho0, V = 0 (NewGeometry2D plus that initial
// condition); callers overwrite them for other initial states.
func NewSolver2D(nx, ny int, par fluid.Params, mask func(x, y int) fluid.CellType) (*Solver2D, error) {
	s, err := NewGeometry2D(nx, ny, par, mask)
	if err != nil {
		return nil, err
	}
	s.Rho.Fill(par.Rho0)
	return s, nil
}

// NewGeometry2D builds everything about a solver that is not state: the
// storage (all zero), the classified interior cell types and the filter
// plan. The caller supplies the state, as an initial condition or as a dump
// written into its StateFields, which overwrites every array an initial
// condition writes.
func NewGeometry2D(nx, ny int, par fluid.Params, mask func(x, y int) fluid.CellType) (*Solver2D, error) {
	if err := par.Check(); err != nil {
		return nil, err
	}
	if mask == nil {
		return nil, fmt.Errorf("fd: nil mask")
	}
	s := &Solver2D{
		Par:   par,
		Rho:   grid.NewField2D(nx, ny, 1),
		Vx:    grid.NewField2D(nx, ny, 1),
		Vy:    grid.NewField2D(nx, ny, 1),
		nVx:   grid.NewField2D(nx, ny, 1),
		nVy:   grid.NewField2D(nx, ny, 1),
		nRho:  grid.NewField2D(nx, ny, 1),
		cells: fluid.Classify(nx, ny, 1, func(x, y, _ int) fluid.CellType { return mask(x, y) }),
	}
	s.rowOpen = openRows(s.cells, nx)
	s.plan = filter.NewPlan2DFromCells(nx, ny, s.cells)
	if par.Eps != 0 { // the filter alone reads scratch, and not at eps = 0
		s.scratch = make([]float64, nx*ny)
	}
	s.filterFields = []*grid.Field2D{s.Rho, s.Vx, s.Vy}
	s.phaseLayouts = [2][]*grid.Layout{{s.Vx.Layout(), s.Vy.Layout()}, {s.Rho.Layout()}}
	s.velFn = s.velocityRows
	s.denFn = s.densityRows
	s.runFn = s.run
	return s, nil
}

// openRows reports, per row of nx cells, whether every cell is Interior.
func openRows(cells []fluid.CellType, nx int) []bool {
	open := make([]bool, len(cells)/nx)
	for r := range open {
		open[r] = !slices.ContainsFunc(cells[r*nx:][:nx], func(c fluid.CellType) bool { return c != fluid.Interior })
	}
	return open
}

// SetWorkers sets the intra-rank slab count (the core setup threads the
// per-rank budget through here).
func (s *Solver2D) SetWorkers(n int) { s.Workers = n }

// run executes fn over n rows cut into at most Workers slabs, fewer on a
// lattice too small to pay for the hand-off (pool.Slabs).
func (s *Solver2D) run(n int, fn func(lo, hi int)) {
	s.par.Run(pool.Slabs(s.Workers, n, s.Rho.NX), n, fn)
}

// Phases returns the number of compute phases per integration step.
func (s *Solver2D) Phases() int { return 3 }

// Exchanges reports whether a halo exchange follows the given phase.
// Velocities are exchanged after phase 0 and density after phase 1; the
// filter phase needs no communication.
func (s *Solver2D) Exchanges(phase int) bool { return phase == 0 || phase == 1 }

// ExchangeDirs returns the neighbours exchanged with after a phase: the
// four sides after the velocity and density phases, none after the filter.
func (s *Solver2D) ExchangeDirs(phase int) []decomp.Dir {
	if s.Exchanges(phase) {
		return decomp.Dirs(decomp.Star)
	}
	return nil
}

// Compute runs one compute phase on the interior nodes.
func (s *Solver2D) Compute(phase int) {
	if !s.ghostsPaired {
		s.pairGhosts()
	}
	switch phase {
	case 0:
		s.computeVelocity()
	case 1:
		s.computeDensity()
	case 2:
		s.applyFilter()
	default:
		panic(fmt.Sprintf("fd: invalid phase %d", phase))
	}
}

// pairGhosts copies the current fields over the next-step buffers, ghosts
// included. A sweep writes interior nodes and swaps the pair, so a ghost
// that no exchange fills (one beyond a non-periodic domain face) shows the
// current buffer's value on one step and the next-step buffer's on the
// other. With the two shells equal such a ghost is constant, and a dump,
// which holds the current fields only, restores bit for bit at either step
// parity. It runs before the first sweep after construction or
// ClearScratch, so it sees an initial condition or a restored dump written
// into the fields.
func (s *Solver2D) pairGhosts() {
	s.nRho.CopyFrom(s.Rho)
	s.nVx.CopyFrom(s.Vx)
	s.nVy.CopyFrom(s.Vy)
	s.ghostsPaired = true
}

// computeVelocity advances Vx, Vy by one forward-Euler step of the momentum
// equations 2-3 and applies the velocity boundary conditions. Every node
// writes only nVx/nVy at its own coordinates, so row slabs are
// write-disjoint; the swap happens after all slabs finish.
func (s *Solver2D) computeVelocity() {
	s.runFn(s.Vx.NY, s.velFn)
	s.Vx.Swap(s.nVx)
	s.Vy.Swap(s.nVy)
}

// velocityRows updates the velocity of rows [y0, y1) over raw rows: one
// Data() slice per stencil offset and output, cut once per row and indexed
// by x. An all-Interior row (open) skips the cell-type switch; a row that
// crosses a solid runs the same body and branches only on its boundary
// nodes. The momentum expressions must keep their shape (DESIGN.md).
func (s *Solver2D) velocityRows(y0, y1 int) {
	p := s.Par
	dt, nu, cs2 := p.Dt, p.Nu, p.Cs*p.Cs
	nx, sx := s.Vx.NX, s.Vx.Layout().SX
	vxA, vyA, rhoA := s.Vx.Data(), s.Vy.Data(), s.Rho.Data()
	nvxA, nvyA := s.nVx.Data(), s.nVy.Data()
	for y := y0; y < y1; y++ {
		open := s.rowOpen[y]
		cells := s.cells[y*nx:][:nx]
		b := s.Vx.Idx(0, y)
		vxC, vxE, vxW, vxN, vxS := vxA[b:][:nx], vxA[b+1:][:nx], vxA[b-1:][:nx], vxA[b+sx:][:nx], vxA[b-sx:][:nx]
		vyC, vyE, vyW, vyN, vyS := vyA[b:][:nx], vyA[b+1:][:nx], vyA[b-1:][:nx], vyA[b+sx:][:nx], vyA[b-sx:][:nx]
		rhoC, rhoE, rhoW, rhoN, rhoS := rhoA[b:][:nx], rhoA[b+1:][:nx], rhoA[b-1:][:nx], rhoA[b+sx:][:nx], rhoA[b-sx:][:nx]
		nvx, nvy := nvxA[b:][:nx], nvyA[b:][:nx]
		for x := 0; x < nx; x++ {
			vx, vy := vxC[x], vyC[x]
			if !open {
				switch cells[x] {
				case fluid.Wall:
					nvx[x], nvy[x] = 0, 0
					continue
				case fluid.Inlet:
					nvx[x], nvy[x] = p.InletVx, p.InletVy
					continue
				case fluid.Outlet:
					// Open boundary: velocity convects out unchanged.
					nvx[x], nvy[x] = vx, vy
					continue
				}
			}
			rho := rhoC[x]
			xe, xw, xn, xs := vxE[x], vxW[x], vxN[x], vxS[x]
			ye, yw, yn, ys := vyE[x], vyW[x], vyN[x], vyS[x]

			dVxdx := 0.5 * (xe - xw)
			dVxdy := 0.5 * (xn - xs)
			dVydx := 0.5 * (ye - yw)
			dVydy := 0.5 * (yn - ys)
			dRdx := 0.5 * (rhoE[x] - rhoW[x])
			dRdy := 0.5 * (rhoN[x] - rhoS[x])
			lapVx := xe + xw + xn + xs - 4*vx
			lapVy := ye + yw + yn + ys - 4*vy

			nvx[x] = vx + dt*(-vx*dVxdx-vy*dVxdy-cs2/rho*dRdx+nu*lapVx+p.ForceX)
			nvy[x] = vy + dt*(-vx*dVydx-vy*dVydy-cs2/rho*dRdy+nu*lapVy+p.ForceY)
		}
	}
}

// computeDensity advances rho by the continuity equation 1 using the
// just-updated velocities, then applies the density boundary conditions.
// The flux form conserves mass exactly over the interior.
func (s *Solver2D) computeDensity() {
	s.runFn(s.Rho.NY, s.denFn)
	s.Rho.Swap(s.nRho)
}

// densityRows updates the density of rows [y0, y1) over raw rows (see
// velocityRows).
func (s *Solver2D) densityRows(y0, y1 int) {
	p := s.Par
	dt := p.Dt
	nx, sx := s.Rho.NX, s.Rho.Layout().SX
	rhoA, vxA, vyA, nrhoA := s.Rho.Data(), s.Vx.Data(), s.Vy.Data(), s.nRho.Data()
	for y := y0; y < y1; y++ {
		open := s.rowOpen[y]
		cells := s.cells[y*nx:][:nx]
		b := s.Rho.Idx(0, y)
		rhoC, rhoE, rhoW, rhoN, rhoS := rhoA[b:][:nx], rhoA[b+1:][:nx], rhoA[b-1:][:nx], rhoA[b+sx:][:nx], rhoA[b-sx:][:nx]
		vxE, vxW, vyN, vyS := vxA[b+1:][:nx], vxA[b-1:][:nx], vyA[b+sx:][:nx], vyA[b-sx:][:nx]
		nrho := nrhoA[b:][:nx]
		for x := 0; x < nx; x++ {
			if !open {
				switch cells[x] {
				case fluid.Inlet:
					nrho[x] = p.InletRho
					continue
				case fluid.Outlet:
					nrho[x] = p.OutletRho
					continue
				}
			}
			// Walls evolve by the same flux form; with V = 0 at wall
			// nodes the normal flux at the wall face vanishes and mass
			// stays where it is.
			dFxdx := 0.5 * (rhoE[x]*vxE[x] - rhoW[x]*vxW[x])
			dFydy := 0.5 * (rhoN[x]*vyN[x] - rhoS[x]*vyS[x])
			nrho[x] = rhoC[x] - dt*(dFxdx+dFydy)
		}
	}
}

// applyFilter runs the shared fourth-order filter on rho, Vx, Vy.
func (s *Solver2D) applyFilter() {
	s.plan.Apply(s.filterFields, s.Par.Eps, s.scratch, s.runFn)
}

// layouts returns the state fields' layouts in the fixed exchange order.
func (s *Solver2D) layouts(phase int) []*grid.Layout {
	if phase == 0 {
		return s.phaseLayouts[0]
	}
	return s.phaseLayouts[1]
}

// Pack extracts the boundary data sent to the neighbour at dir after the
// given phase: the interior edge strips of the fields updated in that
// phase (ghost-fill convention).
func (s *Solver2D) Pack(phase int, dir decomp.Dir, buf []float64) []float64 {
	return halo.PackSend(s.layouts(phase), dir, true, buf)
}

// Unpack stores boundary data received from the neighbour at dir into the
// ghost strips on that side.
func (s *Solver2D) Unpack(phase int, dir decomp.Dir, buf []float64) {
	halo.UnpackRecv(s.layouts(phase), dir, true, buf)
}

// StepSerial advances a standalone (single-subregion) solver one full step,
// wrapping or reflecting its own ghosts between phases. periodicX/Y select
// periodic wrapping; non-periodic sides see walls via the mask.
func (s *Solver2D) StepSerial(periodicX, periodicY bool) {
	for ph := 0; ph < s.Phases(); ph++ {
		s.Compute(ph)
		if s.Exchanges(ph) {
			s.selfExchange(ph, periodicX, periodicY)
		}
	}
}

// selfExchange fills ghosts from the solver's own opposite edges (periodic)
// or leaves them untouched (walls handle non-periodic sides via the mask),
// reusing the solver's exchange buffer so the steady-state step does not
// allocate.
func (s *Solver2D) selfExchange(phase int, periodicX, periodicY bool) {
	if periodicX {
		s.xbuf = s.Pack(phase, decomp.East, s.xbuf[:0])
		s.Unpack(phase, decomp.West, s.xbuf)
		s.xbuf = s.Pack(phase, decomp.West, s.xbuf[:0])
		s.Unpack(phase, decomp.East, s.xbuf)
	}
	if periodicY {
		s.xbuf = s.Pack(phase, decomp.North, s.xbuf[:0])
		s.Unpack(phase, decomp.South, s.xbuf)
		s.xbuf = s.Pack(phase, decomp.South, s.xbuf[:0])
		s.Unpack(phase, decomp.North, s.xbuf)
	}
}
