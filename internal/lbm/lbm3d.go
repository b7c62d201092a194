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
// A step is two sweeps over raw rows: relax in place, then, after the
// ghost-fill sweeps, one pull of every population into nF that also sums
// the moments. When Workers > 1 each is cut into z-plane slabs on the
// shared pool; writes are disjoint by plane and per-node arithmetic is
// unchanged, so fields stay bit-identical to the serial sweep.
type Solver3D struct {
	Par fluid.Params
	Tau float64

	// Workers is the intra-rank slab count; <= 1 runs the serial sweeps.
	Workers int

	F  [Q3]*grid.Field3D
	nF [Q3]*grid.Field3D

	Rho, Vx, Vy, Vz *grid.Field3D

	scratch []float64 // filter workspace; nil when Par.Eps is 0

	// Static per-node structure cached at construction (see Solver2D).
	cells []fluid.CellType
	plan  *filter.Plan3D

	par               pool.Runner
	relaxFn, streamFn func(lo, hi int)
	runFn             filter.RunFunc
	xbuf              []float64

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
		Par:   par,
		Tau:   TauFromNu(par.Nu),
		Rho:   grid.NewField3D(nx, ny, nz, 1),
		Vx:    grid.NewField3D(nx, ny, nz, 1),
		Vy:    grid.NewField3D(nx, ny, nz, 1),
		Vz:    grid.NewField3D(nx, ny, nz, 1),
		cells: fluid.Classify(nx, ny, nz, mask),
	}
	s.plan = filter.NewPlan3DFromCells(nx, ny, nz, s.cells)
	if par.Eps != 0 { // the filter alone reads scratch, and not at eps = 0
		s.scratch = make([]float64, nx*ny*nz)
	}
	s.filterFields = []*grid.Field3D{s.Rho, s.Vx, s.Vy, s.Vz}
	for i := 0; i < Q3; i++ {
		s.F[i] = grid.NewField3D(nx, ny, nz, 1)
		s.nF[i] = grid.NewField3D(nx, ny, nz, 1)
	}
	s.relaxFn = s.relaxPlanes
	s.streamFn = s.streamPlanes
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
	cu := float64(cx3[i])*vx + float64(cy3[i])*vy + float64(cz3[i])*vz
	return w3[i] * rho * (1 + 3*cu + 4.5*cu*cu - 1.5*(vx*vx+vy*vy+vz*vz))
}

// Phases returns the compute-phase count: relax, then one no-op phase per
// sweep axis (y, z), then stream+macroscopics+filter. The x-face exchange
// follows the relax phase.
func (s *Solver3D) Phases() int { return 4 }

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
		s.runFn(s.Rho.NZ, s.relaxFn)
	case 1, 2:
		// Sweep barriers: no local work, only the y/z face exchanges.
	case 3:
		s.stream()
		s.plan.Apply(s.filterFields, s.Par.Eps, s.scratch, s.runFn)
	default:
		panic(fmt.Sprintf("lbm: invalid phase %d", phase))
	}
}

// relaxPlanes relaxes z-planes [z0, z1) in place: BGK toward the
// equilibrium of the filtered fluid variables at interior nodes, plus the
// body-force shift 3 w_i rho (c_i . g). Runs of Interior nodes take the
// unrolled loops over raw rows, with feqTerm's products shared between
// each direction and its opposite; wall, inlet and outlet nodes go through
// boundaryNode one at a time. Each node writes only its own populations.
//
// A run is relaxed in three passes over population groups — rest and
// axes, the diagonals with c_x = c_y, the diagonals with c_x = -c_y —
// which is possible because a population's relaxation reads only its own
// value and the fluid variables. Three passes over at most eleven arrays
// measured faster than one loop over all nineteen, with the fields
// staggered within the page (18.6 against 22.3 ns/cell) and far more so
// without (2.4x). The per-node expressions are those of a one-pass loop.
func (s *Solver3D) relaxPlanes(z0, z1 int) {
	p := s.Par
	invTau := 1 / s.Tau
	forced := p.ForceX != 0 || p.ForceY != 0 || p.ForceZ != 0
	var fw, fg [Q3]float64 // force shift factors: 3 w_i and c_i . g
	for i := 1; i < Q3; i++ {
		fw[i] = 3 * w3[i]
		fg[i] = float64(cx3[i])*p.ForceX + float64(cy3[i])*p.ForceY + float64(cz3[i])*p.ForceZ
	}
	w0, wa, wd := w3[0], w3[1], w3[7]
	nx, ny := s.Rho.NX, s.Rho.NY
	rhoD, vxD, vyD, vzD := s.Rho.Data(), s.Vx.Data(), s.Vy.Data(), s.Vz.Data()
	var fD [Q3][]float64
	for i := range fD {
		fD[i] = s.F[i].Data()
	}
	for z := z0; z < z1; z++ {
		for y := 0; y < ny; y++ {
			cells := s.cells[(z*ny+y)*nx:][:nx]
			row := s.Rho.Idx(0, y, z)
			for x := 0; x < nx; {
				if cells[x] != fluid.Interior {
					s.boundaryNode(row+x, cells[x])
					x++
					continue
				}
				a := row + x
				for x++; x < nx && cells[x] == fluid.Interior; x++ {
				}
				n := row + x - a
				rho, vx, vy, vz := rhoD[a:][:n], vxD[a:][:n], vyD[a:][:n], vzD[a:][:n]

				f0, f1, f2, f3 := fD[0][a:][:n], fD[1][a:][:n], fD[2][a:][:n], fD[3][a:][:n]
				f4, f5, f6 := fD[4][a:][:n], fD[5][a:][:n], fD[6][a:][:n]
				for j := 0; j < n; j++ {
					r, u, v, w := rho[j], vx[j], vy[j], vz[j]
					k := 1.5 * (u*u + v*v + w*w)
					o0 := bgk(f0[j], feqTerm(w0*r, 0, 0, k), invTau)
					wr := wa * r
					t, q := 3*u, (4.5*u)*u
					o1 := bgk(f1[j], feqTerm(wr, t, q, k), invTau)
					o2 := bgk(f2[j], feqTerm(wr, -t, q, k), invTau)
					t, q = 3*v, (4.5*v)*v
					o3 := bgk(f3[j], feqTerm(wr, t, q, k), invTau)
					o4 := bgk(f4[j], feqTerm(wr, -t, q, k), invTau)
					t, q = 3*w, (4.5*w)*w
					o5 := bgk(f5[j], feqTerm(wr, t, q, k), invTau)
					o6 := bgk(f6[j], feqTerm(wr, -t, q, k), invTau)
					if forced {
						o1 += fw[1] * r * fg[1]
						o2 += fw[2] * r * fg[2]
						o3 += fw[3] * r * fg[3]
						o4 += fw[4] * r * fg[4]
						o5 += fw[5] * r * fg[5]
						o6 += fw[6] * r * fg[6]
					}
					f0[j], f1[j], f2[j], f3[j], f4[j], f5[j], f6[j] = o0, o1, o2, o3, o4, o5, o6
				}

				f7, f8, f13, f14 := fD[7][a:][:n], fD[8][a:][:n], fD[13][a:][:n], fD[14][a:][:n]
				for j := 0; j < n; j++ {
					r, u, v, w := rho[j], vx[j], vy[j], vz[j]
					k := 1.5 * (u*u + v*v + w*w)
					wr, uv := wd*r, u+v
					cu := uv + w
					t, q := 3*cu, (4.5*cu)*cu
					o7 := bgk(f7[j], feqTerm(wr, t, q, k), invTau)
					o14 := bgk(f14[j], feqTerm(wr, -t, q, k), invTau)
					cu = uv - w
					t, q = 3*cu, (4.5*cu)*cu
					o8 := bgk(f8[j], feqTerm(wr, t, q, k), invTau)
					o13 := bgk(f13[j], feqTerm(wr, -t, q, k), invTau)
					if forced {
						o7 += fw[7] * r * fg[7]
						o8 += fw[8] * r * fg[8]
						o13 += fw[13] * r * fg[13]
						o14 += fw[14] * r * fg[14]
					}
					f7[j], f8[j], f13[j], f14[j] = o7, o8, o13, o14
				}

				f9, f10, f11, f12 := fD[9][a:][:n], fD[10][a:][:n], fD[11][a:][:n], fD[12][a:][:n]
				for j := 0; j < n; j++ {
					r, u, v, w := rho[j], vx[j], vy[j], vz[j]
					k := 1.5 * (u*u + v*v + w*w)
					wr, uv := wd*r, u-v
					cu := uv + w
					t, q := 3*cu, (4.5*cu)*cu
					o9 := bgk(f9[j], feqTerm(wr, t, q, k), invTau)
					o12 := bgk(f12[j], feqTerm(wr, -t, q, k), invTau)
					cu = uv - w
					t, q = 3*cu, (4.5*cu)*cu
					o10 := bgk(f10[j], feqTerm(wr, t, q, k), invTau)
					o11 := bgk(f11[j], feqTerm(wr, -t, q, k), invTau)
					if forced {
						o9 += fw[9] * r * fg[9]
						o10 += fw[10] * r * fg[10]
						o11 += fw[11] * r * fg[11]
						o12 += fw[12] * r * fg[12]
					}
					f9[j], f10[j], f11[j], f12[j] = o9, o10, o11, o12
				}
			}
		}
	}
}

// boundaryNode relaxes the node at flat index at in place: full-way
// bounce-back at a wall (swap each population with its opposite), the
// prescribed equilibrium at an inlet, and prescribed density with the
// local velocity at an outlet.
func (s *Solver3D) boundaryNode(at int, c fluid.CellType) {
	p := s.Par
	switch c {
	case fluid.Wall:
		for i := 1; i < Q3; i++ {
			if j := opp3[i]; j > i {
				fi, fj := s.F[i].Data(), s.F[j].Data()
				fi[at], fj[at] = fj[at], fi[at]
			}
		}
	case fluid.Inlet:
		for i := 0; i < Q3; i++ {
			s.F[i].Data()[at] = feq3(i, p.InletRho, p.InletVx, p.InletVy, p.InletVz)
		}
	case fluid.Outlet:
		vx, vy, vz := s.Vx.Data()[at], s.Vy.Data()[at], s.Vz.Data()[at]
		for i := 0; i < Q3; i++ {
			s.F[i].Data()[at] = feq3(i, p.OutletRho, vx, vy, vz)
		}
	}
}

// stream is the shift and the macroscopics in one sweep, followed by one
// round of swaps.
func (s *Solver3D) stream() {
	s.runFn(s.Rho.NZ, s.streamFn)
	for i := 0; i < Q3; i++ {
		s.F[i].Swap(s.nF[i])
	}
}

// streamPlanes pulls every population of z-planes [z0, z1) from its
// upwind neighbour, F[i] at (x-cx, y-cy, z-cz) — a ghost on the subregion
// faces, filled by the three exchange sweeps — into nF, and recomputes
// the fluid variables from the pulled values. A row is pulled with one
// copy per population, then its moments are summed from nF while the row
// is in L1. Each copy reads one array and writes one, so the sweep does
// not depend on where the fields start in the page. Pulled node by node,
// it measured 3.9x slower with every field page-aligned, and 1.1x faster
// with grid's staggered starts. The sums run in population order with
// the zero lattice components dropped. Wall nodes pull too
// (their populations are in bounce-back transit) but keep rho = Rho0,
// V = 0. Only interior nodes are written, so the slabs never share an
// address.
func (s *Solver3D) streamPlanes(z0, z1 int) {
	nx, ny := s.Rho.NX, s.Rho.NY
	sx, sxy := s.Rho.Layout().SX, s.Rho.Layout().SXY
	rho0 := s.Par.Rho0
	rhoD, vxD, vyD, vzD := s.Rho.Data(), s.Vx.Data(), s.Vy.Data(), s.Vz.Data()
	var src, dst [Q3][]float64
	var off [Q3]int
	for i := 0; i < Q3; i++ {
		src[i], dst[i] = s.F[i].Data(), s.nF[i].Data()
		off[i] = cz3[i]*sxy + cy3[i]*sx + cx3[i]
	}
	for z := z0; z < z1; z++ {
		for y := 0; y < ny; y++ {
			cells := s.cells[(z*ny+y)*nx:][:nx]
			a := s.Rho.Idx(0, y, z)
			for i := 0; i < Q3; i++ {
				copy(dst[i][a:][:nx], src[i][a-off[i]:])
			}
			rho, vx, vy, vz := rhoD[a:][:nx], vxD[a:][:nx], vyD[a:][:nx], vzD[a:][:nx]
			g0, g1, g2, g3, g4 := dst[0][a:][:nx], dst[1][a:][:nx], dst[2][a:][:nx], dst[3][a:][:nx], dst[4][a:][:nx]
			g5, g6, g7, g8, g9 := dst[5][a:][:nx], dst[6][a:][:nx], dst[7][a:][:nx], dst[8][a:][:nx], dst[9][a:][:nx]
			g10, g11, g12, g13, g14 := dst[10][a:][:nx], dst[11][a:][:nx], dst[12][a:][:nx], dst[13][a:][:nx], dst[14][a:][:nx]
			for x, c := range cells {
				if c == fluid.Wall {
					rho[x], vx[x], vy[x], vz[x] = rho0, 0, 0, 0
					continue
				}
				r := g0[x] + g1[x] + g2[x] + g3[x] + g4[x] + g5[x] + g6[x] + g7[x] + g8[x] + g9[x] + g10[x] + g11[x] + g12[x] + g13[x] + g14[x]
				mx := g1[x] - g2[x] + g7[x] + g8[x] + g9[x] + g10[x] - g11[x] - g12[x] - g13[x] - g14[x]
				my := g3[x] - g4[x] + g7[x] + g8[x] - g9[x] - g10[x] + g11[x] + g12[x] - g13[x] - g14[x]
				mz := g5[x] - g6[x] + g7[x] - g8[x] + g9[x] - g10[x] + g11[x] - g12[x] + g13[x] - g14[x]
				rho[x], vx[x], vy[x], vz[x] = r, mx/r, my/r, mz/r
			}
		}
	}
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
		s.selfExchange(ph, px, py, pz)
	}
}

// selfExchange runs the ghost-fill sweep that follows phase, wrapping each
// face onto the opposite one of this solver on the periodic axes.
func (s *Solver3D) selfExchange(phase int, px, py, pz bool) {
	for _, d := range s.ExchangeDirs(phase) {
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
		s.xbuf = s.Pack(phase, d, s.xbuf[:0])
		s.Unpack(phase, d.Opposite(), s.xbuf)
	}
}
