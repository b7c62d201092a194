package lbm

import (
	"fmt"

	"repro/internal/decomp"
	"repro/internal/filter"
	"repro/internal/fluid"
	"repro/internal/grid"
	"repro/internal/halo"
	"repro/internal/pool"
)

// Q3 is the number of D3Q15 populations: rest + 6 axis + 8 cube diagonals.
const Q3 = 15

// D3Q15 lattice vectors and weights. Exactly five populations cross each
// face of a box subregion (the axis vector plus four diagonals), which is
// why the paper's 3D lattice Boltzmann method communicates 5 variables per
// boundary node.
var (
	cx3 = [Q3]int{0, 1, -1, 0, 0, 0, 0, 1, 1, 1, 1, -1, -1, -1, -1}
	cy3 = [Q3]int{0, 0, 0, 1, -1, 0, 0, 1, 1, -1, -1, 1, 1, -1, -1}
	cz3 = [Q3]int{0, 0, 0, 0, 0, 1, -1, 1, -1, 1, -1, 1, -1, 1, -1}
	w3  = [Q3]float64{2.0 / 9,
		1.0 / 9, 1.0 / 9, 1.0 / 9, 1.0 / 9, 1.0 / 9, 1.0 / 9,
		1.0 / 72, 1.0 / 72, 1.0 / 72, 1.0 / 72, 1.0 / 72, 1.0 / 72, 1.0 / 72, 1.0 / 72}
	opp3 [Q3]int
)

func init() {
	for i := 0; i < Q3; i++ {
		for j := 0; j < Q3; j++ {
			if cx3[j] == -cx3[i] && cy3[j] == -cy3[i] && cz3[j] == -cz3[i] {
				opp3[i] = j
				break
			}
		}
	}
}

// Solver3D integrates one box subregion with the D3Q15 lattice Boltzmann
// method.
//
// Halo exchange uses ghost-fill sweeps ordered x, then y, then z: each
// sweep sends, per face, the five populations crossing it, with the strip
// extended over the ghost layers of previously swept axes so that
// populations crossing subregion edges and corners propagate through two or
// three face messages. After the sweeps every ghost node holds the relaxed
// populations pointing into this subregion and the shift step is purely
// local. The (P x 1 x 1) pencil decompositions of figure 9 degenerate to a
// single exchange per step, matching the paper's one-message count; fuller
// 3D lattices pay one message per face per step.
//
// When Workers > 1 the inner phases are cut into z-plane slabs on the
// shared pool; writes are disjoint by plane and per-node arithmetic is
// unchanged, so fields stay bit-identical to the serial sweep.
type Solver3D struct {
	Par fluid.Params
	Tau float64

	Mask func(x, y, z int) fluid.CellType

	// Workers is the intra-rank slab count; <= 1 runs the serial sweeps.
	Workers int

	F  [Q3]*grid.Field3D
	nF [Q3]*grid.Field3D

	Rho, Vx, Vy, Vz *grid.Field3D

	scratch []float64

	// Static per-node structure cached at construction (see Solver2D).
	cells   []fluid.CellType
	rowOpen []bool // indexed z*ny + y
	plan    *filter.Plan3D

	par                       pool.Runner
	relaxFn, shiftFn, macroFn func(lo, hi int)
	runFn                     filter.RunFunc
	shiftSrc, shiftDst        *grid.Field3D
	shiftDx, shiftDy, shiftDz int
	xbuf                      []float64

	// Filter field list built once at construction so the steady-state
	// step allocates nothing (see Solver2D).
	filterFields []*grid.Field3D
}

// NewSolver3D allocates a D3Q15 solver initialized to equilibrium at
// rho = Rho0, V = 0: NewGeometry3D plus that initial condition.
func NewSolver3D(nx, ny, nz int, par fluid.Params, mask func(x, y, z int) fluid.CellType) (*Solver3D, error) {
	s, err := NewGeometry3D(nx, ny, nz, par, mask)
	if err != nil {
		return nil, err
	}
	s.Rho.Fill(par.Rho0)
	s.InitEquilibrium()
	return s, nil
}

// NewGeometry3D builds everything about a solver that is not state, with
// all storage zero (see NewGeometry2D).
func NewGeometry3D(nx, ny, nz int, par fluid.Params, mask func(x, y, z int) fluid.CellType) (*Solver3D, error) {
	if err := par.Check(); err != nil {
		return nil, err
	}
	if mask == nil {
		return nil, fmt.Errorf("lbm: nil mask")
	}
	s := &Solver3D{
		Par:     par,
		Tau:     TauFromNu(par.Nu),
		Mask:    mask,
		Rho:     grid.NewField3D(nx, ny, nz, 1),
		Vx:      grid.NewField3D(nx, ny, nz, 1),
		Vy:      grid.NewField3D(nx, ny, nz, 1),
		Vz:      grid.NewField3D(nx, ny, nz, 1),
		scratch: make([]float64, nx*ny*nz),
		cells:   make([]fluid.CellType, nx*ny*nz),
		rowOpen: make([]bool, ny*nz),
	}
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			open := true
			for x := 0; x < nx; x++ {
				c := mask(x, y, z)
				s.cells[(z*ny+y)*nx+x] = c
				if c != fluid.Interior {
					open = false
				}
			}
			s.rowOpen[z*ny+y] = open
		}
	}
	s.plan = filter.NewPlan3DFromCells(nx, ny, nz, s.cells)
	s.filterFields = []*grid.Field3D{s.Rho, s.Vx, s.Vy, s.Vz}
	for i := 0; i < Q3; i++ {
		s.F[i] = grid.NewField3D(nx, ny, nz, 1)
		s.nF[i] = grid.NewField3D(nx, ny, nz, 1)
	}
	s.relaxFn = s.relaxPlanes
	s.shiftFn = s.shiftPlanes
	s.macroFn = s.macroPlanes
	s.runFn = s.run
	return s, nil
}

// SetWorkers sets the intra-rank slab count.
func (s *Solver3D) SetWorkers(n int) { s.Workers = n }

// run executes fn over n z-planes (see Solver2D.run).
func (s *Solver3D) run(n int, fn func(lo, hi int)) {
	s.par.Run(pool.Slabs(s.Workers, n, s.Rho.NX*s.Rho.NY), n, fn)
}

// InitEquilibrium sets every interior fluid population to the equilibrium
// of the current fluid variables and zeroes ghost and wall populations,
// making closed boundaries exactly mass-neutral from step zero (see
// Solver2D.InitEquilibrium).
func (s *Solver3D) InitEquilibrium() {
	for i := 0; i < Q3; i++ {
		clear(s.F[i].Data())
	}
	nx, ny := s.Rho.NX, s.Rho.NY
	rho, vx, vy, vz := s.Rho.Data(), s.Vx.Data(), s.Vy.Data(), s.Vz.Data()
	for z := 0; z < s.Rho.NZ; z++ {
		for y := 0; y < ny; y++ {
			row := s.Rho.Idx(0, y, z)
			for x, c := range s.cells[(z*ny+y)*nx:][:nx] {
				if c == fluid.Wall {
					continue
				}
				at := row + x
				for i := 0; i < Q3; i++ {
					s.F[i].Data()[at] = feq3(i, rho[at], vx[at], vy[at], vz[at])
				}
			}
		}
	}
}

// feq3 is the D3Q15 BGK equilibrium distribution.
func feq3(i int, rho, vx, vy, vz float64) float64 {
	return feq3v(i, rho, vx, vy, vz, vx*vx+vy*vy+vz*vz)
}

// feq3v is feq3 with the speed-squared hoisted out of the per-population
// loop; the expression is identical, so the hoisting is bit-exact.
func feq3v(i int, rho, vx, vy, vz, v2 float64) float64 {
	cu := float64(cx3[i])*vx + float64(cy3[i])*vy + float64(cz3[i])*vz
	return w3[i] * rho * (1 + 3*cu + 4.5*cu*cu - 1.5*v2)
}

// Phases returns the compute-phase count: relax, then one no-op phase per
// sweep axis (y, z), then shift+macroscopics+filter. The x-face exchange
// follows the relax phase.
func (s *Solver3D) Phases() int { return 4 }

// Exchanges reports whether an exchange follows the phase; ExchangeDirs
// says on which faces.
func (s *Solver3D) Exchanges(phase int) bool { return phase <= 2 }

// Face pairs exchanged after each compute phase, fixed at package level
// so ExchangeDirs stays allocation-free on the step path.
var (
	xFaces3 = []decomp.Dir{decomp.West, decomp.East}
	yFaces3 = []decomp.Dir{decomp.South, decomp.North}
	zFaces3 = []decomp.Dir{decomp.Down, decomp.Up}
)

// ExchangeDirs returns the faces exchanged after the given phase: x faces
// after relax, then y faces, then z faces.
func (s *Solver3D) ExchangeDirs(phase int) []decomp.Dir {
	switch phase {
	case 0:
		return xFaces3
	case 1:
		return yFaces3
	case 2:
		return zFaces3
	}
	return nil
}

// Compute runs one compute phase. Phases 1 and 2 are pure exchange points.
func (s *Solver3D) Compute(phase int) {
	switch phase {
	case 0:
		s.relax()
	case 1, 2:
		// Sweep barriers: no local work, only the y/z face exchanges.
	case 3:
		s.shift()
		s.macroscopics()
		s.applyFilter()
	default:
		panic(fmt.Sprintf("lbm: invalid phase %d", phase))
	}
}

func (s *Solver3D) relax() { s.runFn(s.Rho.NZ, s.relaxFn) }

// relaxPlanes relaxes z-planes [z0, z1). All-Interior rows skip the
// cell-type dispatch; each node writes only its own populations.
func (s *Solver3D) relaxPlanes(z0, z1 int) {
	p := s.Par
	invTau := 1 / s.Tau
	forced := p.ForceX != 0 || p.ForceY != 0 || p.ForceZ != 0
	nx, ny := s.Rho.NX, s.Rho.NY
	for z := z0; z < z1; z++ {
		for y := 0; y < ny; y++ {
			open := s.rowOpen[z*ny+y]
			row := (z*ny + y) * nx
			for x := 0; x < nx; x++ {
				if !open {
					switch s.cells[row+x] {
					case fluid.Wall:
						for i := 1; i < Q3; i++ {
							if j := opp3[i]; j > i {
								a, b := s.F[i].At(x, y, z), s.F[j].At(x, y, z)
								s.F[i].Set(x, y, z, b)
								s.F[j].Set(x, y, z, a)
							}
						}
						continue
					case fluid.Inlet:
						for i := 0; i < Q3; i++ {
							s.F[i].Set(x, y, z, feq3(i, p.InletRho, p.InletVx, p.InletVy, p.InletVz))
						}
						continue
					case fluid.Outlet:
						vx, vy, vz := s.Vx.At(x, y, z), s.Vy.At(x, y, z), s.Vz.At(x, y, z)
						for i := 0; i < Q3; i++ {
							s.F[i].Set(x, y, z, feq3(i, p.OutletRho, vx, vy, vz))
						}
						continue
					}
				}
				rho := s.Rho.At(x, y, z)
				vx, vy, vz := s.Vx.At(x, y, z), s.Vy.At(x, y, z), s.Vz.At(x, y, z)
				v2 := vx*vx + vy*vy + vz*vz
				for i := 0; i < Q3; i++ {
					f := s.F[i].At(x, y, z)
					s.F[i].Set(x, y, z, f+(feq3v(i, rho, vx, vy, vz, v2)-f)*invTau)
				}
				if forced {
					for i := 1; i < Q3; i++ {
						cg := float64(cx3[i])*p.ForceX + float64(cy3[i])*p.ForceY + float64(cz3[i])*p.ForceZ
						s.F[i].Add(x, y, z, 3*w3[i]*rho*cg)
					}
				}
			}
		}
	}
}

// shift streams populations to interior targets, reading ghost sources
// filled by the three exchange sweeps. Targets are interior-only, so the
// z-plane slabs cover the whole write range.
func (s *Solver3D) shift() {
	for i := 0; i < Q3; i++ {
		s.shiftSrc, s.shiftDst = s.F[i], s.nF[i]
		s.shiftDx, s.shiftDy, s.shiftDz = cx3[i], cy3[i], cz3[i]
		s.runFn(s.Rho.NZ, s.shiftFn)
		s.F[i].Swap(s.nF[i])
	}
}

// shiftPlanes streams the current population into dst z-planes [z0, z1).
func (s *Solver3D) shiftPlanes(z0, z1 int) {
	nx, ny := s.Rho.NX, s.Rho.NY
	src, dst := s.shiftSrc, s.shiftDst
	dx, dy, dz := s.shiftDx, s.shiftDy, s.shiftDz
	for z := z0; z < z1; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				dst.Set(x, y, z, src.At(x-dx, y-dy, z-dz))
			}
		}
	}
}

func (s *Solver3D) macroscopics() { s.runFn(s.Rho.NZ, s.macroFn) }

// macroPlanes recomputes the fluid variables on z-planes [z0, z1).
func (s *Solver3D) macroPlanes(z0, z1 int) {
	nx, ny := s.Rho.NX, s.Rho.NY
	for z := z0; z < z1; z++ {
		for y := 0; y < ny; y++ {
			open := s.rowOpen[z*ny+y]
			row := (z*ny + y) * nx
			for x := 0; x < nx; x++ {
				if !open && s.cells[row+x] == fluid.Wall {
					s.Rho.Set(x, y, z, s.Par.Rho0)
					s.Vx.Set(x, y, z, 0)
					s.Vy.Set(x, y, z, 0)
					s.Vz.Set(x, y, z, 0)
					continue
				}
				rho, mx, my, mz := 0.0, 0.0, 0.0, 0.0
				for i := 0; i < Q3; i++ {
					f := s.F[i].At(x, y, z)
					rho += f
					mx += f * float64(cx3[i])
					my += f * float64(cy3[i])
					mz += f * float64(cz3[i])
				}
				s.Rho.Set(x, y, z, rho)
				s.Vx.Set(x, y, z, mx/rho)
				s.Vy.Set(x, y, z, my/rho)
				s.Vz.Set(x, y, z, mz/rho)
			}
		}
	}
}

func (s *Solver3D) applyFilter() {
	s.plan.Apply(s.filterFields, s.Par.Eps, s.scratch, s.runFn)
}

// crossingTab3 caches, per face direction, the population indices with a
// positive velocity component along it — Pack/Unpack run in the hot
// exchange path and must not allocate.
var crossingTab3 = func() (tab [6][]int) {
	for _, dir := range decomp.Faces() {
		dx, dy, dz := dir.Delta()
		for i := 1; i < Q3; i++ {
			if cx3[i]*dx+cy3[i]*dy+cz3[i]*dz > 0 {
				tab[dir] = append(tab[dir], i)
			}
		}
	}
	return tab
}()

// crossing3 returns the population indices with a positive velocity
// component along face direction dir.
func crossing3(dir decomp.Dir) []int { return crossingTab3[dir] }

// sweepRegion returns the send (interior) or receive (ghost) strip for a
// face, extended over the ghost layers of the axes swept before it.
func (s *Solver3D) sweepRegion(dir decomp.Dir, interior bool) halo.Region {
	r := halo.Strip(s.F[0].Layout(), dir, interior)
	switch dir {
	case decomp.South, decomp.North: // y sweep: extend over x ghosts
		r.X0, r.NX = r.X0-1, r.NX+2
	case decomp.Down, decomp.Up: // z sweep: extend over x and y ghosts
		r.X0, r.NX = r.X0-1, r.NX+2
		r.Y0, r.NY = r.Y0-1, r.NY+2
	}
	return r
}

// Pack extracts the populations crossing face dir from the (extended)
// interior strip: the data the neighbour's ghost layer needs before it can
// shift.
func (s *Solver3D) Pack(phase int, dir decomp.Dir, buf []float64) []float64 {
	r := s.sweepRegion(dir, true)
	for _, i := range crossing3(dir) {
		buf = halo.Extract(s.F[i].Layout(), r, buf)
	}
	return buf
}

// Unpack stores populations received from the neighbour at dir into the
// (extended) ghost strip on that side. The sender packed the populations
// crossing its Opposite(dir) face, which point into this subregion.
func (s *Solver3D) Unpack(phase int, dir decomp.Dir, buf []float64) {
	r := s.sweepRegion(dir, false)
	for _, i := range crossing3(dir.Opposite()) {
		buf = halo.Inject(s.F[i].Layout(), r, buf)
	}
	if len(buf) != 0 {
		panic(fmt.Sprintf("lbm: %d leftover values after 3D unpack", len(buf)))
	}
}

// StepSerial advances a standalone solver one step with periodic wrapping,
// reusing the solver's exchange buffer so the steady-state step does not
// allocate.
func (s *Solver3D) StepSerial(px, py, pz bool) {
	for ph := 0; ph < s.Phases(); ph++ {
		s.Compute(ph)
		if !s.Exchanges(ph) {
			continue
		}
		for _, d := range s.ExchangeDirs(ph) {
			var wraps bool
			switch d {
			case decomp.West, decomp.East:
				wraps = px
			case decomp.South, decomp.North:
				wraps = py
			case decomp.Down, decomp.Up:
				wraps = pz
			}
			if !wraps {
				continue
			}
			s.xbuf = s.Pack(ph, d, s.xbuf[:0])
			s.Unpack(ph, d.Opposite(), s.xbuf)
		}
	}
}
