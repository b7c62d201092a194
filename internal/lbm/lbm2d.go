// Package lbm implements the lattice Boltzmann method of section 6 (and
// Skordos, Phys. Rev. E 48:4823): a relaxation algorithm that represents
// the fluid by population variables F_i alongside the traditional fluid
// variables rho, Vx, Vy. Each cycle the populations are relaxed toward a
// local equilibrium computed from the (filtered) fluid variables, shifted
// to the nearest neighbours of each node, and the fluid variables are
// recomputed from the shifted populations. The per-cycle sequence is the
// paper's:
//
//	Relax F_i                     (inner)
//	Shift F_i                     (inner)
//	Communicate: send/recv F_i    (boundary)
//	Calculate rho, Vx, Vy from F_i (inner)
//	Filter rho, Vx, Vy            (inner)
//
// One message per neighbour per step; in 2D only the three D2Q9
// populations crossing each side are communicated (3 variables per
// boundary node), in 3D the five D3Q15 populations crossing each face
// (5 variables per node) — the counts of section 6 that drive the
// method's communication behaviour in the performance figures.
//
// The lattice is D2Q9 in two dimensions (D3Q15 in three), with BGK
// relaxation; solid walls use full-way bounce-back, which places the
// physical wall half-way between the wall node and the adjacent fluid node.
//
// Every inner phase is per-cell independent, so a rank's subregion is
// additionally cut into row slabs updated concurrently by the shared
// worker pool when Workers > 1; no two nodes write the same address and
// no node's arithmetic changes, so the fields stay bit-identical to the
// serial sweep at any worker count (see internal/pool). In 2D, relax and
// shift are one sweep that pushes each relaxed node into the post-shift
// buffers (collideStream), and calculate and filter are one sweep from a
// five-row window per slab (calcFilterRows). In 3D the ghost-fill sweeps
// sit between relax and shift: relax runs in place, and after the
// exchange one sweep pulls each node's populations into the post-shift
// buffers and sums its moments.
package lbm

import (
	"fmt"
	"sync/atomic"

	"repro/internal/decomp"
	"repro/internal/filter"
	"repro/internal/fluid"
	"repro/internal/grid"
	"repro/internal/halo"
	"repro/internal/pool"
)

// Q2 is the number of D2Q9 populations.
const Q2 = 9

// D2Q9 lattice vectors. Index 0 is the rest population; 1-4 are the axis
// directions; 5-8 the diagonals.
var (
	cx2 = [Q2]int{0, 1, 0, -1, 0, 1, -1, -1, 1}
	cy2 = [Q2]int{0, 0, 1, 0, -1, 1, 1, -1, -1}
	w2  = [Q2]float64{4.0 / 9, 1.0 / 9, 1.0 / 9, 1.0 / 9, 1.0 / 9,
		1.0 / 36, 1.0 / 36, 1.0 / 36, 1.0 / 36}
	opp2 = [Q2]int{0, 3, 4, 1, 2, 7, 8, 5, 6}
)

// outgoing2 lists, for each 2D direction, the population indices whose
// lattice vector points into that direction's neighbour: the populations
// that must be communicated across that side or corner. It is indexed by
// direction, so Pack and Unpack look nothing up.
var outgoing2 = [decomp.NumDirs][]int{
	decomp.East:      {1, 5, 8},
	decomp.West:      {3, 6, 7},
	decomp.North:     {2, 5, 6},
	decomp.South:     {4, 7, 8},
	decomp.NorthEast: {5},
	decomp.NorthWest: {6},
	decomp.SouthWest: {7},
	decomp.SouthEast: {8},
}

// TauFromNu returns the relaxation time of the BGK lattice with kinematic
// viscosity nu, the inverse of nu = (tau - 1/2) / 3 (dx = dt = 1,
// c_s^2 = 1/3).
func TauFromNu(nu float64) float64 { return 3*nu + 0.5 }

// Solver2D integrates one subregion with the D2Q9 lattice Boltzmann method.
type Solver2D struct {
	Par fluid.Params
	Tau float64 // BGK relaxation time, from Par.Nu

	// Workers is the intra-rank slab count, set through SetWorkers; <= 1
	// runs the serial sweeps. Results are bit-identical at every value.
	Workers int

	F  [Q2]*grid.Field2D // populations, ghost depth 1
	nF [Q2]*grid.Field2D // post-shift buffers

	Rho, Vx, Vy *grid.Field2D // fluid variables (ghost layers unused)

	// Static per-node structure, cached at construction so the hot loops
	// never call the mask closure: the interior cell types, whose runs of
	// plain Interior nodes take the branch-free fast path.
	cells []fluid.CellType
	plan  *filter.Plan2D

	// Parallel-kernel machinery: the pool runner, the prebuilt range
	// closures (built once so the steady-state step allocates nothing)
	// and the reused exchange buffer.
	par                pool.Runner
	streamFn, phase1Fn func(lo, hi int)
	runFn              filter.RunFunc
	xbuf               []float64

	// Phase 1's windows, one for each slab a sweep can cut (at most
	// Workers). A slab claims the next one; which it gets varies between
	// runs, but it writes each window row before reading it.
	windows [][]float64
	claimed atomic.Int32
}

// NewSolver2D allocates a D2Q9 solver for an nx-by-ny subregion,
// initialized to equilibrium at rho = Rho0, V = 0: the geometry of
// NewGeometry2D plus that initial condition. The LB sound speed is fixed at
// c_s = 1/sqrt(3); Par.Cs is ignored by this method.
func NewSolver2D(nx, ny int, par fluid.Params, mask func(x, y int) fluid.CellType) (*Solver2D, error) {
	s, err := NewGeometry2D(nx, ny, par, mask)
	if err != nil {
		return nil, err
	}
	s.Rho.Fill(par.Rho0)
	s.InitEquilibrium()
	return s, nil
}

// NewGeometry2D builds everything about a solver that is not state: the
// storage (all zero), the classified interior cell types and the filter
// plan. The caller supplies the state — fluid variables followed by
// InitEquilibrium for a fresh start, or a dump written into its
// StateFields, which overwrites every array an initial condition writes.
func NewGeometry2D(nx, ny int, par fluid.Params, mask func(x, y int) fluid.CellType) (*Solver2D, error) {
	if err := par.Check(); err != nil {
		return nil, err
	}
	if mask == nil {
		return nil, fmt.Errorf("lbm: nil mask")
	}
	s := &Solver2D{
		Par:   par,
		Tau:   TauFromNu(par.Nu),
		Rho:   grid.NewField2D(nx, ny, 1),
		Vx:    grid.NewField2D(nx, ny, 1),
		Vy:    grid.NewField2D(nx, ny, 1),
		cells: fluid.Classify(nx, ny, 1, func(x, y, _ int) fluid.CellType { return mask(x, y) }),
	}
	s.plan = filter.NewPlan2DFromCells(nx, ny, s.cells)
	for i := 0; i < Q2; i++ {
		s.F[i] = grid.NewField2D(nx, ny, 1)
		s.nF[i] = grid.NewField2D(nx, ny, 1)
	}
	s.streamFn = s.collideStreamRows
	s.phase1Fn = s.calcFilterRows
	s.runFn = s.run
	s.SetWorkers(0)
	return s, nil
}

// SetWorkers sets the intra-rank slab count (the core setup threads the
// per-rank budget through here) and gives every slab a phase-1 window.
func (s *Solver2D) SetWorkers(n int) {
	s.Workers = n
	s.windows = make([][]float64, max(1, min(n, s.Rho.NY)))
	for i := range s.windows {
		s.windows[i] = make([]float64, 15*s.Rho.NX)
	}
}

// run executes fn over n rows on the shared pool, cut into at most Workers
// slabs, fewer on a lattice too small to pay for the hand-off (pool.Slabs).
func (s *Solver2D) run(n int, fn func(lo, hi int)) {
	s.par.Run(pool.Slabs(s.Workers, n, s.Rho.NX), n, fn)
}

// InitEquilibrium sets every interior fluid population to the equilibrium
// of the current Rho, Vx, Vy fields, and zeroes ghost and wall populations.
// Zero ghosts and empty walls make closed domain boundaries exactly
// mass-neutral: wall nodes carry only populations in bounce-back transit,
// receive nothing from beyond the domain, and reflect nothing spurious, so
// total population mass is conserved to machine precision from step zero.
// Ghosts on periodic or seam sides are overwritten by the exchange before
// they are ever read.
func (s *Solver2D) InitEquilibrium() {
	for i := 0; i < Q2; i++ {
		clear(s.F[i].Data())
	}
	nx := s.Rho.NX
	rho, vx, vy := s.Rho.Data(), s.Vx.Data(), s.Vy.Data()
	for y := 0; y < s.Rho.NY; y++ {
		row := s.Rho.Idx(0, y)
		for x, c := range s.cells[y*nx : (y+1)*nx] {
			if c == fluid.Wall {
				continue
			}
			at := row + x
			for i := 0; i < Q2; i++ {
				s.F[i].Data()[at] = feq2(i, rho[at], vx[at], vy[at])
			}
		}
	}
}

// feq2 is the D2Q9 BGK equilibrium distribution.
func feq2(i int, rho, vx, vy float64) float64 {
	cu := float64(cx2[i])*vx + float64(cy2[i])*vy
	return w2[i] * rho * (1 + 3*cu + 4.5*cu*cu - 1.5*(vx*vx+vy*vy))
}

// Phases returns the number of compute phases per step: relax+shift (with
// exchange after), then macroscopics+filter.
func (s *Solver2D) Phases() int { return 2 }

// Exchanges reports whether a halo exchange follows the phase; only the
// relax+shift phase communicates (one message per neighbour per step).
func (s *Solver2D) Exchanges(phase int) bool { return phase == 0 }

// ExchangeDirs returns the neighbours exchanged with after a phase: all
// eight (sides and corners) after relax+shift, none after macroscopics.
func (s *Solver2D) ExchangeDirs(phase int) []decomp.Dir {
	if s.Exchanges(phase) {
		return decomp.Dirs(decomp.Full)
	}
	return nil
}

// Compute runs one compute phase.
func (s *Solver2D) Compute(phase int) {
	switch phase {
	case 0:
		s.collideStream()
	case 1:
		s.claimed.Store(0)
		s.runFn(s.Rho.NY, s.phase1Fn)
	default:
		panic(fmt.Sprintf("lbm: invalid phase %d", phase))
	}
}

// collideStream is phase 0 in one sweep: every node is relaxed (BGK toward
// the equilibrium of the filtered fluid variables at interior nodes,
// bounce-back at walls, equilibrium forcing at inlets and outlets; a body
// force enters as the first-order population shift 3 w_i rho (c_i . g))
// and its nine post-relax populations are pushed straight to the nearest
// neighbours in nF, ghost targets included: those collect the outflow the
// exchange delivers to neighbouring subregions. F is only read, so the
// sweep is followed by one round of swaps.
func (s *Solver2D) collideStream() {
	s.runFn(s.Rho.NY, s.streamFn)
	for i := 0; i < Q2; i++ {
		s.F[i].Swap(s.nF[i])
	}
}

// bgk relaxes population f toward feq.
func bgk(f, feq, invTau float64) float64 { return f + (feq-f)*invTau }

// feqTerm is feq2 with the products shared by a direction and its
// opposite hoisted: wr = w_i*rho, t = 3*cu, q = (4.5*cu)*cu, k = 1.5*v2.
// Negating cu negates t and leaves q, bit for bit.
func feqTerm(wr, t, q, k float64) float64 { return wr * (((1 + t) + q) - k) }

// collideStreamRows relaxes rows [y0, y1) and pushes them into nF rows
// [y0-1, y1]. Every (population, target) slot has exactly one source
// node, so neighbouring slabs never write the same address. Runs of
// Interior nodes take the unrolled branch-free loops over raw rows; wall,
// inlet and outlet nodes go through boundaryNode one at a time.
//
// A run is pushed in two passes, rest and axes then the diagonals, which
// is possible because a population's relaxation reads only its own value
// and the fluid variables. One loop over all 21 row slices keeps more
// pointers live than amd64 has registers, so Go reloads them from the
// stack at every node; each pass holds at most 13. The per-node
// expressions are those of a one-pass loop.
func (s *Solver2D) collideStreamRows(y0, y1 int) {
	p := s.Par
	invTau := 1 / s.Tau
	forced := p.ForceX != 0 || p.ForceY != 0
	var fw, fg [Q2]float64 // force shift factors: 3 w_i and c_i . g
	for i := 1; i < Q2; i++ {
		fw[i] = 3 * w2[i]
		fg[i] = float64(cx2[i])*p.ForceX + float64(cy2[i])*p.ForceY
	}
	w0, wa, wd := w2[0], w2[1], w2[5]
	nx, sx := s.Rho.NX, s.Rho.Layout().SX
	rhoD, vxD, vyD := s.Rho.Data(), s.Vx.Data(), s.Vy.Data()
	var src, dst [Q2][]float64
	for i := 0; i < Q2; i++ {
		src[i], dst[i] = s.F[i].Data(), s.nF[i].Data()
	}
	for y := y0; y < y1; y++ {
		cells := s.cells[y*nx : (y+1)*nx]
		row := s.Rho.Idx(0, y)
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
			rho, vx, vy := rhoD[a:][:n], vxD[a:][:n], vyD[a:][:n]

			f0, f1, f2, f3, f4 := src[0][a:][:n], src[1][a:][:n], src[2][a:][:n], src[3][a:][:n], src[4][a:][:n]
			d0, d1, d2, d3, d4 := dst[0][a:][:n], dst[1][a+1:][:n], dst[2][a+sx:][:n], dst[3][a-1:][:n], dst[4][a-sx:][:n]
			for j := 0; j < n; j++ {
				r, u, v := rho[j], vx[j], vy[j]
				k := 1.5 * (u*u + v*v)
				o0 := bgk(f0[j], feqTerm(w0*r, 0, 0, k), invTau)
				wr := wa * r
				t, q := 3*u, (4.5*u)*u
				o1 := bgk(f1[j], feqTerm(wr, t, q, k), invTau)
				o3 := bgk(f3[j], feqTerm(wr, -t, q, k), invTau)
				t, q = 3*v, (4.5*v)*v
				o2 := bgk(f2[j], feqTerm(wr, t, q, k), invTau)
				o4 := bgk(f4[j], feqTerm(wr, -t, q, k), invTau)
				if forced {
					o1 += fw[1] * r * fg[1]
					o2 += fw[2] * r * fg[2]
					o3 += fw[3] * r * fg[3]
					o4 += fw[4] * r * fg[4]
				}
				d0[j], d1[j], d2[j], d3[j], d4[j] = o0, o1, o2, o3, o4
			}

			f5, f6, f7, f8 := src[5][a:][:n], src[6][a:][:n], src[7][a:][:n], src[8][a:][:n]
			d5, d6, d7, d8 := dst[5][a+sx+1:][:n], dst[6][a+sx-1:][:n], dst[7][a-sx-1:][:n], dst[8][a-sx+1:][:n]
			for j := 0; j < n; j++ {
				r, u, v := rho[j], vx[j], vy[j]
				k := 1.5 * (u*u + v*v)
				wr := wd * r
				cu := u + v
				t, q := 3*cu, (4.5*cu)*cu
				o5 := bgk(f5[j], feqTerm(wr, t, q, k), invTau)
				o7 := bgk(f7[j], feqTerm(wr, -t, q, k), invTau)
				cu = u - v
				t, q = 3*cu, (4.5*cu)*cu
				o8 := bgk(f8[j], feqTerm(wr, t, q, k), invTau)
				o6 := bgk(f6[j], feqTerm(wr, -t, q, k), invTau)
				if forced {
					o5 += fw[5] * r * fg[5]
					o6 += fw[6] * r * fg[6]
					o7 += fw[7] * r * fg[7]
					o8 += fw[8] * r * fg[8]
				}
				d5[j], d6[j], d7[j], d8[j] = o5, o6, o7, o8
			}
		}
	}
	s.zeroInflow(y0, y1)
}

// boundaryNode handles the node at flat index at: full-way bounce-back
// at a wall (reflect the populations that streamed in during the previous
// step), the prescribed equilibrium at an inlet, and prescribed density
// with the local velocity at an outlet (anchors the mean pressure while
// letting flow leave).
func (s *Solver2D) boundaryNode(at int, c fluid.CellType) {
	p, sx := s.Par, s.Rho.Layout().SX
	for i := 0; i < Q2; i++ {
		var f float64
		switch c {
		case fluid.Wall:
			f = s.F[opp2[i]].Data()[at]
		case fluid.Inlet:
			f = feq2(i, p.InletRho, p.InletVx, p.InletVy)
		case fluid.Outlet:
			f = feq2(i, p.OutletRho, s.Vx.Data()[at], s.Vy.Data()[at])
		}
		s.nF[i].Data()[at+cy2[i]*sx+cx2[i]] = f
	}
}

// zeroInflow stores zero in the interior targets of rows [y0, y1) whose
// upwind source lies outside the subregion. No node pushes into them; a
// pull sweep would have read an upstream ghost there, which nothing ever
// writes. The exchange overwrites them wherever a neighbour exists, and
// at a closed boundary the zero keeps the value nF held two steps ago
// from re-entering the lattice.
func (s *Solver2D) zeroInflow(y0, y1 int) {
	nx, ny := s.Rho.NX, s.Rho.NY
	for i := 1; i < Q2; i++ {
		d := s.nF[i]
		if cx2[i] != 0 {
			x := 0
			if cx2[i] < 0 {
				x = nx - 1
			}
			for y := y0; y < y1; y++ {
				d.Set(x, y, 0)
			}
		}
		if cy2[i] != 0 {
			y := 0
			if cy2[i] < 0 {
				y = ny - 1
			}
			if y0 <= y && y < y1 {
				clear(d.Data()[d.Idx(0, y):][:nx])
			}
		}
	}
}

// calcFilterRows is phase 1 on rows [y0, y1): "Calculate rho, Vx, Vy
// from F_i" and "Filter rho, Vx, Vy" in one sweep. The slab's window holds
// the latest five rows of the three fields, unfiltered (row r of field f
// at (r%5*3 + f)*nx), and each row is filtered from it straight into Rho,
// Vx, Vy. Phase 1 only reads F, so the slab computes the two rows beyond
// each of its sides that the filter reads rather than wait for them.
func (s *Solver2D) calcFilterRows(y0, y1 int) {
	w, nx := s.windows[s.claimed.Add(1)-1], s.Rho.NX
	for r := y0 - 2; r < y1+2; r++ {
		if 0 <= r && r < s.Rho.NY {
			s.macroRow(r, w[r%5*3*nx:])
		}
		y := r - 2 // row y's window is complete once row y+2 is in
		if y < y0 {
			continue
		}
		for f, out := range [3]*grid.Field2D{s.Rho, s.Vx, s.Vy} {
			var rows [5][]float64
			for k := range rows {
				rows[k] = w[((y+3+k)%5*3+f)*nx:] // row y-2+k
			}
			s.plan.Row(y, s.Par.Eps, rows, out.Data()[out.Idx(0, y):])
		}
	}
}

// macroRow computes the fluid variables of row y at interior nodes into
// win's first three rows. Wall nodes keep rho = Rho0, V = 0: their
// populations are in bounce-back transit and carry no fluid state. The
// sums run in population order with the zero lattice components dropped.
func (s *Solver2D) macroRow(y int, win []float64) {
	nx := s.Rho.NX
	cells := s.cells[y*nx : (y+1)*nx]
	a := s.Rho.Idx(0, y)
	rho, vx, vy := win[:nx], win[nx:][:nx], win[2*nx:][:nx]
	f0, f1, f2 := s.F[0].Data()[a:][:nx], s.F[1].Data()[a:][:nx], s.F[2].Data()[a:][:nx]
	f3, f4, f5 := s.F[3].Data()[a:][:nx], s.F[4].Data()[a:][:nx], s.F[5].Data()[a:][:nx]
	f6, f7, f8 := s.F[6].Data()[a:][:nx], s.F[7].Data()[a:][:nx], s.F[8].Data()[a:][:nx]
	for x, c := range cells {
		if c == fluid.Wall {
			rho[x], vx[x], vy[x] = s.Par.Rho0, 0, 0
			continue
		}
		r := f0[x] + f1[x] + f2[x] + f3[x] + f4[x] + f5[x] + f6[x] + f7[x] + f8[x]
		mx := f1[x] - f3[x] + f5[x] - f6[x] - f7[x] + f8[x]
		my := f2[x] - f4[x] + f5[x] + f6[x] - f7[x] - f8[x]
		rho[x], vx[x], vy[x] = r, mx/r, my/r
	}
}

// sendRegion returns the ghost-strip region of population i's outflow
// toward dir, trimmed so that every packed value was sourced from this
// subregion's interior. A diagonal population on a side strip skips the
// one node whose source lies outside the interior: that value travels on
// the corner path of the adjacent neighbour instead, so trimming keeps
// exactly one writer per receiving node.
func (s *Solver2D) sendRegion(i int, dir decomp.Dir) halo.Region {
	r := halo.Strip(s.F[i].Layout(), dir, false)
	return trim2(r, dir, cx2[i], cy2[i])
}

// recvRegion returns the interior-edge region where population i arriving
// from dir is stored; it mirrors the sender's trimmed region.
func (s *Solver2D) recvRegion(i int, dir decomp.Dir) halo.Region {
	r := halo.Strip(s.F[i].Layout(), dir, true)
	return trim2(r, dir.Opposite(), cx2[i], cy2[i])
}

// trim2 clips a side strip for a population moving with lattice vector
// (dx, dy) crossing side dir: along a vertical side the strip loses the
// node at the end the population slants away from, and symmetrically for
// horizontal sides. Corner regions (1x1) are never trimmed.
func trim2(r halo.Region, dir decomp.Dir, dx, dy int) halo.Region {
	switch dir {
	case decomp.East, decomp.West:
		if dy > 0 {
			r.Y0, r.NY = r.Y0+1, r.NY-1
		} else if dy < 0 {
			r.NY--
		}
	case decomp.North, decomp.South:
		if dx > 0 {
			r.X0, r.NX = r.X0+1, r.NX-1
		} else if dx < 0 {
			r.NX--
		}
	}
	return r
}

// Pack extracts, for the neighbour at dir, the populations streaming into
// it (outflow-delivery convention; all boundary data in one message).
func (s *Solver2D) Pack(phase int, dir decomp.Dir, buf []float64) []float64 {
	for _, i := range outgoing2[dir] {
		buf = halo.Extract(s.F[i].Layout(), s.sendRegion(i, dir), buf)
	}
	return buf
}

// Unpack stores populations received from the neighbour at dir into the
// interior edge strip on that side. The sender packed its outgoing
// populations for direction Opposite(dir), which are exactly the
// populations entering this subregion from dir.
func (s *Solver2D) Unpack(phase int, dir decomp.Dir, buf []float64) {
	for _, i := range outgoing2[dir.Opposite()] {
		buf = halo.Inject(s.F[i].Layout(), s.recvRegion(i, dir), buf)
	}
	if len(buf) != 0 {
		panic(fmt.Sprintf("lbm: %d leftover values after unpack", len(buf)))
	}
}

// StepSerial advances a standalone solver one step with periodic wrapping
// on the requested axes. ("Serial" refers to the absence of a transport —
// the exchange wraps in place; the compute slabs still honour Workers.)
func (s *Solver2D) StepSerial(periodicX, periodicY bool) {
	s.Compute(0)
	s.selfExchange(periodicX, periodicY)
	s.Compute(1)
}

// selfExchange wraps outflow back into the solver's own opposite edges,
// reusing the solver's exchange buffer so the steady-state step does not
// allocate.
func (s *Solver2D) selfExchange(periodicX, periodicY bool) {
	wrap := func(d decomp.Dir) {
		s.xbuf = s.Pack(0, d, s.xbuf[:0])
		s.Unpack(0, d.Opposite(), s.xbuf)
	}
	if periodicX {
		wrap(decomp.East)
		wrap(decomp.West)
	}
	if periodicY {
		wrap(decomp.North)
		wrap(decomp.South)
	}
	if periodicX && periodicY {
		wrap(decomp.NorthEast)
		wrap(decomp.NorthWest)
		wrap(decomp.SouthEast)
		wrap(decomp.SouthWest)
	}
}
