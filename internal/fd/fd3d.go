package fd

import (
	"fmt"

	"repro/internal/decomp"
	"repro/internal/filter"
	"repro/internal/fluid"
	"repro/internal/grid"
	"repro/internal/halo"
	"repro/internal/pool"
)

// Solver3D integrates one box subregion of the 3D isothermal Navier-Stokes
// equations with the same scheme as Solver2D plus the V_z momentum equation
// (section 6). It communicates 4 variables per boundary node: Vx, Vy, Vz
// after the velocity update and rho after the density update.
//
// When Workers > 1 the inner phases run as z-plane slabs on the shared
// pool, bit-identical to the serial sweep.
type Solver3D struct {
	Par fluid.Params

	// Workers is the intra-rank slab count (set through SetWorkers).
	Workers int

	Rho, Vx, Vy, Vz *grid.Field3D

	ring filter.Ring // of z-planes (see Solver2D)
	buf  []float64

	// Static per-node structure cached at construction (see Solver2D).
	cells   []fluid.CellType
	rowOpen []bool // indexed z*ny + y
	plan    *filter.Plan3D

	par          pool.Runner
	velFn, denFn func(lo, hi int)
	runFn        filter.RunFunc
	xbuf         []float64

	// Field and layout lists built once at construction so the
	// steady-state step allocates nothing (see Solver2D).
	filterFields []*grid.Field3D
	phaseLayouts [2][]*grid.Layout
}

// NewSolver3D allocates a 3D solver initialized to rho = Rho0, V = 0:
// NewGeometry3D plus that initial condition.
func NewSolver3D(nx, ny, nz int, par fluid.Params, mask func(x, y, z int) fluid.CellType) (*Solver3D, error) {
	s, err := NewGeometry3D(nx, ny, nz, par, mask)
	if err != nil {
		return nil, err
	}
	s.Rho.Fill(par.Rho0)
	return s, nil
}

// NewGeometry3D builds everything about a solver that is not state, with
// all storage zero (see NewGeometry2D).
func NewGeometry3D(nx, ny, nz int, par fluid.Params, mask func(x, y, z int) fluid.CellType) (*Solver3D, error) {
	if err := par.Check(); err != nil {
		return nil, err
	}
	if mask == nil {
		return nil, fmt.Errorf("fd: nil mask")
	}
	s := &Solver3D{
		Par:   par,
		Rho:   grid.NewField3D(nx, ny, nz, 1),
		Vx:    grid.NewField3D(nx, ny, nz, 1),
		Vy:    grid.NewField3D(nx, ny, nz, 1),
		Vz:    grid.NewField3D(nx, ny, nz, 1),
		cells: fluid.Classify(nx, ny, nz, mask),
	}
	s.rowOpen = openRows(s.cells, nx)
	s.plan = filter.NewPlan3DFromCells(nx, ny, nz, s.cells)
	s.filterFields = []*grid.Field3D{s.Rho, s.Vx, s.Vy, s.Vz}
	s.phaseLayouts = [2][]*grid.Layout{{s.Vx.Layout(), s.Vy.Layout(), s.Vz.Layout()}, {s.Rho.Layout()}}
	s.velFn = s.velocityPlanes
	s.denFn = s.densityPlanes
	s.runFn = s.run
	s.SetWorkers(0)
	return s, nil
}

// SetWorkers sets the intra-rank slab count and sizes the ring of planes
// (see Solver2D.SetWorkers).
func (s *Solver3D) SetWorkers(n int) {
	s.Workers = n
	s.buf = make([]float64, filter.RingLen(pool.Slabs(n, s.Rho.NZ, s.Rho.NX*s.Rho.NY), s.Rho.NZ, 1, 3*s.Rho.NX*s.Rho.NY))
}

// run executes fn over n z-planes (see Solver2D.run).
func (s *Solver3D) run(n int, fn func(lo, hi int)) {
	s.par.Run(pool.Slabs(s.Workers, n, s.Rho.NX*s.Rho.NY), n, fn)
}

// Phases returns the number of compute phases per step.
func (s *Solver3D) Phases() int { return 3 }

// Exchanges reports whether a halo exchange follows the phase.
func (s *Solver3D) Exchanges(phase int) bool { return phase == 0 || phase == 1 }

// ExchangeDirs returns the faces exchanged after a phase: all six for the
// velocity and density phases (star stencil, no sweep ordering needed).
func (s *Solver3D) ExchangeDirs(phase int) []decomp.Dir {
	if s.Exchanges(phase) {
		return decomp.Faces()
	}
	return nil
}

// Compute runs one compute phase.
func (s *Solver3D) Compute(phase int) {
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

func (s *Solver3D) computeVelocity() {
	s.ring.Sweep(s.buf, s.phaseLayouts[0], s.Vx.NY, 1, s.runFn, s.velFn)
}

// velocityPlanes updates the velocity of z-planes [z0, z1) over raw rows:
// per row, one Data() slice per stencil offset (centre, x+-1, y+-1 at the
// row stride, z+-1 at the plane stride) and per output, all indexed by x
// (see Solver2D.velocityRows). The momentum expressions must keep their
// shape (DESIGN.md).
func (s *Solver3D) velocityPlanes(z0, z1 int) {
	p := s.Par
	dt, nu, cs2 := p.Dt, p.Nu, p.Cs*p.Cs
	nx, ny := s.Vx.NX, s.Vx.NY
	sx, sxy := s.Vx.Layout().SX, s.Vx.Layout().SXY
	vxA, vyA, vzA, rhoA := s.Vx.Data(), s.Vy.Data(), s.Vz.Data(), s.Rho.Data()
	w := s.ring.Slab(z0, z1)
	for z := z0; z < z1; z++ {
		out := w.Out(z)
		for y := 0; y < ny; y++ {
			open := s.rowOpen[z*ny+y]
			cells := s.cells[(z*ny+y)*nx:][:nx]
			b := s.Vx.Idx(0, y, z)
			vxC, vxE, vxW := vxA[b:][:nx], vxA[b+1:][:nx], vxA[b-1:][:nx]
			vxN, vxS, vxU, vxD := vxA[b+sx:][:nx], vxA[b-sx:][:nx], vxA[b+sxy:][:nx], vxA[b-sxy:][:nx]
			vyC, vyE, vyW := vyA[b:][:nx], vyA[b+1:][:nx], vyA[b-1:][:nx]
			vyN, vyS, vyU, vyD := vyA[b+sx:][:nx], vyA[b-sx:][:nx], vyA[b+sxy:][:nx], vyA[b-sxy:][:nx]
			vzC, vzE, vzW := vzA[b:][:nx], vzA[b+1:][:nx], vzA[b-1:][:nx]
			vzN, vzS, vzU, vzD := vzA[b+sx:][:nx], vzA[b-sx:][:nx], vzA[b+sxy:][:nx], vzA[b-sxy:][:nx]
			rhoC, rhoE, rhoW := rhoA[b:][:nx], rhoA[b+1:][:nx], rhoA[b-1:][:nx]
			rhoN, rhoS, rhoU, rhoD := rhoA[b+sx:][:nx], rhoA[b-sx:][:nx], rhoA[b+sxy:][:nx], rhoA[b-sxy:][:nx]
			nvx, nvy, nvz := out[y*nx:][:nx], out[(ny+y)*nx:][:nx], out[(2*ny+y)*nx:][:nx]
			for x := 0; x < nx; x++ {
				vx, vy, vz := vxC[x], vyC[x], vzC[x]
				if !open {
					switch cells[x] {
					case fluid.Wall:
						nvx[x], nvy[x], nvz[x] = 0, 0, 0
						continue
					case fluid.Inlet:
						nvx[x], nvy[x], nvz[x] = p.InletVx, p.InletVy, p.InletVz
						continue
					case fluid.Outlet:
						nvx[x], nvy[x], nvz[x] = vx, vy, vz
						continue
					}
				}
				rho := rhoC[x]
				xe, xw, xn, xs, xu, xd := vxE[x], vxW[x], vxN[x], vxS[x], vxU[x], vxD[x]
				ye, yw, yn, ys, yu, yd := vyE[x], vyW[x], vyN[x], vyS[x], vyU[x], vyD[x]
				ze, zw, zn, zs, zu, zd := vzE[x], vzW[x], vzN[x], vzS[x], vzU[x], vzD[x]

				gxx := 0.5 * (xe - xw)
				gxy := 0.5 * (xn - xs)
				gxz := 0.5 * (xu - xd)
				gyx := 0.5 * (ye - yw)
				gyy := 0.5 * (yn - ys)
				gyz := 0.5 * (yu - yd)
				gzx := 0.5 * (ze - zw)
				gzy := 0.5 * (zn - zs)
				gzz := 0.5 * (zu - zd)
				rx := 0.5 * (rhoE[x] - rhoW[x])
				ry := 0.5 * (rhoN[x] - rhoS[x])
				rz := 0.5 * (rhoU[x] - rhoD[x])
				lapVx := xe + xw + xn + xs + xu + xd - 6*vx
				lapVy := ye + yw + yn + ys + yu + yd - 6*vy
				lapVz := ze + zw + zn + zs + zu + zd - 6*vz

				nvx[x] = vx + dt*(-(vx*gxx+vy*gxy+vz*gxz)-cs2/rho*rx+nu*lapVx+p.ForceX)
				nvy[x] = vy + dt*(-(vx*gyx+vy*gyy+vz*gyz)-cs2/rho*ry+nu*lapVy+p.ForceY)
				nvz[x] = vz + dt*(-(vx*gzx+vy*gzy+vz*gzz)-cs2/rho*rz+nu*lapVz+p.ForceZ)
			}
		}
	}
}

func (s *Solver3D) computeDensity() {
	s.ring.Sweep(s.buf, s.phaseLayouts[1], s.Rho.NY, 1, s.runFn, s.denFn)
}

// densityPlanes updates the density of z-planes [z0, z1) over raw rows
// (see velocityPlanes).
func (s *Solver3D) densityPlanes(z0, z1 int) {
	p := s.Par
	dt := p.Dt
	nx, ny := s.Rho.NX, s.Rho.NY
	sx, sxy := s.Rho.Layout().SX, s.Rho.Layout().SXY
	rhoA, vxA, vyA, vzA := s.Rho.Data(), s.Vx.Data(), s.Vy.Data(), s.Vz.Data()
	w := s.ring.Slab(z0, z1)
	for z := z0; z < z1; z++ {
		out := w.Out(z)
		for y := 0; y < ny; y++ {
			open := s.rowOpen[z*ny+y]
			cells := s.cells[(z*ny+y)*nx:][:nx]
			b := s.Rho.Idx(0, y, z)
			rhoC, rhoE, rhoW := rhoA[b:][:nx], rhoA[b+1:][:nx], rhoA[b-1:][:nx]
			rhoN, rhoS, rhoU, rhoD := rhoA[b+sx:][:nx], rhoA[b-sx:][:nx], rhoA[b+sxy:][:nx], rhoA[b-sxy:][:nx]
			vxE, vxW := vxA[b+1:][:nx], vxA[b-1:][:nx]
			vyN, vyS := vyA[b+sx:][:nx], vyA[b-sx:][:nx]
			vzU, vzD := vzA[b+sxy:][:nx], vzA[b-sxy:][:nx]
			nrho := out[y*nx:][:nx]
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
				dFx := 0.5 * (rhoE[x]*vxE[x] - rhoW[x]*vxW[x])
				dFy := 0.5 * (rhoN[x]*vyN[x] - rhoS[x]*vyS[x])
				dFz := 0.5 * (rhoU[x]*vzU[x] - rhoD[x]*vzD[x])
				nrho[x] = rhoC[x] - dt*(dFx+dFy+dFz)
			}
		}
	}
}

func (s *Solver3D) applyFilter() {
	s.plan.Apply(s.filterFields, s.Par.Eps, s.buf, s.runFn)
}

// Pack extracts the interior face strip sent to the neighbour at dir after
// the given phase (ghost-fill convention; star stencil, faces only).
func (s *Solver3D) Pack(phase int, dir decomp.Dir, buf []float64) []float64 {
	return halo.PackSend(s.phaseLayouts[min(phase, 1)], dir, true, buf)
}

// Unpack stores data received from the neighbour at dir into the ghost
// face strip on that side.
func (s *Solver3D) Unpack(phase int, dir decomp.Dir, buf []float64) {
	halo.UnpackRecv(s.phaseLayouts[min(phase, 1)], dir, true, buf)
}

// StepSerial advances a standalone solver one step with periodic wrapping
// on the requested axes.
func (s *Solver3D) StepSerial(periodicX, periodicY, periodicZ bool) {
	for ph := 0; ph < s.Phases(); ph++ {
		s.Compute(ph)
		if s.Exchanges(ph) {
			s.selfExchange(ph, periodicX, periodicY, periodicZ)
		}
	}
}

func (s *Solver3D) selfExchange(phase int, px, py, pz bool) {
	wrap := func(a, b decomp.Dir) {
		s.xbuf = s.Pack(phase, a, s.xbuf[:0])
		s.Unpack(phase, b, s.xbuf)
		s.xbuf = s.Pack(phase, b, s.xbuf[:0])
		s.Unpack(phase, a, s.xbuf)
	}
	if px {
		wrap(decomp.East, decomp.West)
	}
	if py {
		wrap(decomp.North, decomp.South)
	}
	if pz {
		wrap(decomp.Up, decomp.Down)
	}
}
