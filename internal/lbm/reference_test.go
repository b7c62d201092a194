package lbm

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/filter"
	"repro/internal/fluid"
	"repro/internal/grid"
)

// The functions below are the two-pass kernels Solver2D ran before phase 0
// became one fused sweep, frozen as the oracle: an in-place relax through
// the Field accessors, nine pull copies into nF, table-driven macroscopics
// and the mask-probing filter.Apply2D. They share nothing with the product
// kernels but the lattice tables and feq2.

func refRelax(s *Solver2D) {
	p := s.Par
	invTau := 1 / s.Tau
	forced := p.ForceX != 0 || p.ForceY != 0
	nx, ny := s.Rho.NX, s.Rho.NY
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			switch s.cells[y*nx+x] {
			case fluid.Wall:
				for i := 1; i < Q2; i++ {
					if j := opp2[i]; j > i {
						a, b := s.F[i].At(x, y), s.F[j].At(x, y)
						s.F[i].Set(x, y, b)
						s.F[j].Set(x, y, a)
					}
				}
				continue
			case fluid.Inlet:
				for i := 0; i < Q2; i++ {
					s.F[i].Set(x, y, feq2(i, p.InletRho, p.InletVx, p.InletVy))
				}
				continue
			case fluid.Outlet:
				vx, vy := s.Vx.At(x, y), s.Vy.At(x, y)
				for i := 0; i < Q2; i++ {
					s.F[i].Set(x, y, feq2(i, p.OutletRho, vx, vy))
				}
				continue
			}
			rho, vx, vy := s.Rho.At(x, y), s.Vx.At(x, y), s.Vy.At(x, y)
			for i := 0; i < Q2; i++ {
				f := s.F[i].At(x, y)
				s.F[i].Set(x, y, f+(feq2(i, rho, vx, vy)-f)*invTau)
			}
			if forced {
				for i := 1; i < Q2; i++ {
					cg := float64(cx2[i])*p.ForceX + float64(cy2[i])*p.ForceY
					s.F[i].Add(x, y, 3*w2[i]*rho*cg)
				}
			}
		}
	}
}

func refShift(s *Solver2D) {
	nx, ny := s.Rho.NX, s.Rho.NY
	for i := 0; i < Q2; i++ {
		dx, dy := cx2[i], cy2[i]
		src, dst := s.F[i], s.nF[i]
		gx, gy := -1, -1
		if dx > 0 {
			gx = nx
		}
		if dy > 0 {
			gy = ny
		}
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				dst.Set(x, y, src.At(x-dx, y-dy))
			}
			if dx != 0 {
				dst.Set(gx, y, src.At(gx-dx, y-dy))
			}
		}
		if dy != 0 {
			for x := 0; x < nx; x++ {
				dst.Set(x, gy, src.At(x-dx, gy-dy))
			}
			if dx != 0 {
				dst.Set(gx, gy, src.At(gx-dx, gy-dy))
			}
		}
		src.Swap(dst)
	}
}

func refMacro(s *Solver2D) {
	nx, ny := s.Rho.NX, s.Rho.NY
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			if s.cells[y*nx+x] == fluid.Wall {
				s.Rho.Set(x, y, s.Par.Rho0)
				s.Vx.Set(x, y, 0)
				s.Vy.Set(x, y, 0)
				continue
			}
			rho, mx, my := 0.0, 0.0, 0.0
			for i := 0; i < Q2; i++ {
				f := s.F[i].At(x, y)
				rho += f
				mx += f * float64(cx2[i])
				my += f * float64(cy2[i])
			}
			s.Rho.Set(x, y, rho)
			s.Vx.Set(x, y, mx/rho)
			s.Vy.Set(x, y, my/rho)
		}
	}
}

// refStep is StepSerial over the frozen kernels; the exchange between the
// phases is the product's (this PR does not touch it).
func refStep(s *Solver2D, periodicX, periodicY bool) {
	refRelax(s)
	refShift(s)
	s.selfExchange(periodicX, periodicY)
	refMacro(s)
	filter.Apply2D([]*grid.Field2D{s.Rho, s.Vx, s.Vy}, s.Par.Eps, s.Mask, s.scratch)
}

// randomMask2D scatters wall blocks, wall rows touching the subregion
// edge, and inlet and outlet nodes over an nx-by-ny lattice; roughly a
// third of the masks stay solid-free on the border so that periodic wraps
// carry fluid.
func randomMask2D(rng *rand.Rand, nx, ny int) *fluid.Mask2D {
	m := fluid.NewMask2D(nx, ny)
	if rng.Intn(3) > 0 {
		// Solid rows along an edge, full or partial.
		for _, y := range []int{0, ny - 1} {
			if rng.Intn(2) == 0 {
				m.FillRect(rng.Intn(nx/2+1), y, nx-rng.Intn(nx/2+1), y+1, fluid.Wall)
			}
		}
		if rng.Intn(2) == 0 {
			x := (nx - 1) * rng.Intn(2)
			m.FillRect(x, 0, x+1, ny, fluid.Wall)
		}
	}
	for k := rng.Intn(4); k > 0; k-- {
		x, y := rng.Intn(nx), rng.Intn(ny)
		m.FillRect(x, y, min(nx, x+1+rng.Intn(3)), min(ny, y+1+rng.Intn(3)), fluid.Wall)
	}
	for k := rng.Intn(4); k > 0; k-- {
		m.Set(rng.Intn(nx), rng.Intn(ny), fluid.Inlet)
		m.Set(rng.Intn(nx), rng.Intn(ny), fluid.Outlet)
	}
	if rng.Intn(2) == 0 {
		y0, y1 := rng.Intn(ny), rng.Intn(ny)+1
		m.FillRect(0, y0, 1, max(y0+1, y1), fluid.Inlet)
		m.FillRect(nx-1, y0, nx, max(y0+1, y1), fluid.Outlet)
	}
	return m
}

// TestFusedMatchesReference2D steps the product solver and the frozen
// two-pass kernels side by side and requires the same bits in every
// population and fluid variable, ghosts included, after every step.
func TestFusedMatchesReference2D(t *testing.T) {
	const steps = 24
	sizes := [][2]int{{3, 3}, {3, 8}, {9, 3}, {5, 7}, {16, 11}, {33, 20}}
	workers := []int{1, 2, 3, 7}
	rng := rand.New(rand.NewSource(20260928))
	for trial := 0; trial < 96; trial++ {
		// Periodic axes, forcing and the filter cycle through all sixteen
		// combinations; size and worker count are drawn beside them.
		size := sizes[rng.Intn(len(sizes))]
		nx, ny := size[0], size[1]
		px, py := trial&1 != 0, trial&2 != 0
		par := testParams()
		par.InletRho, par.OutletRho = 1.02, 0.99
		par.InletVy = -0.01
		if trial&4 != 0 {
			par.ForceX, par.ForceY = 0, 0
		} else {
			par.ForceY = -3e-6
		}
		if trial&8 != 0 {
			par.Eps = 0
		}
		m := randomMask2D(rng, nx, ny)
		w := workers[rng.Intn(len(workers))]
		name := fmt.Sprintf("t%d_%dx%d_px%v_py%v_w%d", trial, nx, ny, px, py, w)

		got, err := NewSolver2D(nx, ny, par, maskFrom(m))
		if err != nil {
			t.Fatal(err)
		}
		want, _ := NewSolver2D(nx, ny, par, maskFrom(m))
		got.cutAlways(w)
		// A rough initial state: every step then moves every bit.
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				got.Rho.Set(x, y, 1+0.05*rng.Float64())
				got.Vx.Set(x, y, 0.1*(rng.Float64()-0.5))
				got.Vy.Set(x, y, 0.1*(rng.Float64()-0.5))
			}
		}
		got.InitEquilibrium()
		want.Rho.CopyFrom(got.Rho)
		want.Vx.CopyFrom(got.Vx)
		want.Vy.CopyFrom(got.Vy)
		want.InitEquilibrium()

		for n := 1; n <= steps; n++ {
			got.StepSerial(px, py)
			refStep(want, px, py)
			at := fmt.Sprintf("%s step %d ", name, n)
			for i := 0; i < Q2; i++ {
				compareBits(t, at+fmt.Sprintf("F[%d]", i), want.F[i].Data(), got.F[i].Data())
			}
			compareBits(t, at+"Rho", want.Rho.Data(), got.Rho.Data())
			compareBits(t, at+"Vx", want.Vx.Data(), got.Vx.Data())
			compareBits(t, at+"Vy", want.Vy.Data(), got.Vy.Data())
		}
	}
}
