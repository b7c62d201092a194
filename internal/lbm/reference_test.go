package lbm

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/fluid"
	"repro/internal/grid"
)

// The functions below are the two-pass kernels Solver2D ran before phase 0
// became one fused sweep, frozen as the oracle: an in-place relax through
// the Field accessors, nine pull copies into nF, table-driven macroscopics
// and the mask-probing filter oracle (filterOracle2D). They share nothing
// with the product kernels but the lattice tables and feq2.

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
					s.F[i].Set(x, y, s.F[i].At(x, y)+3*w2[i]*rho*cg)
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
func refStep(s *Solver2D, mask func(x, y int) fluid.CellType, periodicX, periodicY bool) {
	refRelax(s)
	refShift(s)
	s.selfExchange(periodicX, periodicY)
	refMacro(s)
	filterOracle2D([]*grid.Field2D{s.Rho, s.Vx, s.Vy}, s.Par.Eps, mask, make([]float64, s.Rho.NX*s.Rho.NY))
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
		wantMask := maskFrom(m)
		want, _ := NewSolver2D(nx, ny, par, wantMask)
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
			refStep(want, wantMask, px, py)
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

// The functions below are the accessor kernels Solver3D ran before its
// phases went onto raw rows, frozen as the 3D oracle: an in-place relax
// through At/Set, fifteen full-lattice shift copies and table-driven
// macroscopics, followed by the mask-probing filterOracle3D. They share
// nothing with the product kernels but the lattice tables and feq3.

// feq3v is feq3 with the speed-squared hoisted out of the per-population
// loop; the expression is identical, so the hoisting is bit-exact.
func feq3v(i int, rho, vx, vy, vz, v2 float64) float64 {
	cu := float64(cx3[i])*vx + float64(cy3[i])*vy + float64(cz3[i])*vz
	return w3[i] * rho * (1 + 3*cu + 4.5*cu*cu - 1.5*v2)
}

func refRelax3(s *Solver3D) {
	p := s.Par
	invTau := 1 / s.Tau
	forced := p.ForceX != 0 || p.ForceY != 0 || p.ForceZ != 0
	nx, ny, nz := s.Rho.NX, s.Rho.NY, s.Rho.NZ
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				switch s.cells[(z*ny+y)*nx+x] {
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
						s.F[i].Set(x, y, z, s.F[i].At(x, y, z)+3*w3[i]*rho*cg)
					}
				}
			}
		}
	}
}

func refShift3(s *Solver3D) {
	nx, ny, nz := s.Rho.NX, s.Rho.NY, s.Rho.NZ
	for i := 0; i < Q3; i++ {
		src, dst := s.F[i], s.nF[i]
		dx, dy, dz := cx3[i], cy3[i], cz3[i]
		for z := 0; z < nz; z++ {
			for y := 0; y < ny; y++ {
				for x := 0; x < nx; x++ {
					dst.Set(x, y, z, src.At(x-dx, y-dy, z-dz))
				}
			}
		}
		s.F[i].Swap(s.nF[i])
	}
}

func refMacro3(s *Solver3D) {
	nx, ny, nz := s.Rho.NX, s.Rho.NY, s.Rho.NZ
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				if s.cells[(z*ny+y)*nx+x] == fluid.Wall {
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

// refStep3 is StepSerial over the frozen kernels; the x, y, z ghost-fill
// sweeps between relax and shift are the product's.
func refStep3(s *Solver3D, mask func(x, y, z int) fluid.CellType, px, py, pz bool) {
	refRelax3(s)
	for ph := 0; ph < 3; ph++ {
		s.selfExchange(ph, px, py, pz)
	}
	refShift3(s)
	refMacro3(s)
	filterOracle3D([]*grid.Field3D{s.Rho, s.Vx, s.Vy, s.Vz}, s.Par.Eps, mask, make([]float64, s.Rho.NX*s.Rho.NY*s.Rho.NZ))
}

// randomMask3D is randomMask2D a dimension up: solid planes on faces, full
// or partial, scattered wall boxes, inlet and outlet nodes, and sometimes
// an inlet face opposite an outlet face.
func randomMask3D(rng *rand.Rand, nx, ny, nz int) *fluid.Mask3D {
	m := fluid.NewMask3D(nx, ny, nz)
	box := func(x0, y0, z0, x1, y1, z1 int, c fluid.CellType) {
		for z := z0; z < z1; z++ {
			for y := y0; y < y1; y++ {
				for x := x0; x < x1; x++ {
					m.Set(x, y, z, c)
				}
			}
		}
	}
	if rng.Intn(3) > 0 {
		// Solid planes on y faces, full or partial, and sometimes a solid x
		// face.
		for _, y := range []int{0, ny - 1} {
			if rng.Intn(2) == 0 {
				box(rng.Intn(nx/2+1), y, rng.Intn(nz/2+1), nx-rng.Intn(nx/2+1), y+1, nz-rng.Intn(nz/2+1), fluid.Wall)
			}
		}
		if rng.Intn(2) == 0 {
			x := (nx - 1) * rng.Intn(2)
			box(x, 0, 0, x+1, ny, nz, fluid.Wall)
		}
	}
	for k := rng.Intn(4); k > 0; k-- {
		x, y, z := rng.Intn(nx), rng.Intn(ny), rng.Intn(nz)
		box(x, y, z, min(nx, x+1+rng.Intn(3)), min(ny, y+1+rng.Intn(3)), min(nz, z+1+rng.Intn(3)), fluid.Wall)
	}
	for k := rng.Intn(4); k > 0; k-- {
		m.Set(rng.Intn(nx), rng.Intn(ny), rng.Intn(nz), fluid.Inlet)
		m.Set(rng.Intn(nx), rng.Intn(ny), rng.Intn(nz), fluid.Outlet)
	}
	if rng.Intn(2) == 0 {
		z0, z1 := rng.Intn(nz), rng.Intn(nz)+1
		box(0, 0, z0, 1, ny, max(z0+1, z1), fluid.Inlet)
		box(nx-1, 0, z0, nx, ny, max(z0+1, z1), fluid.Outlet)
	}
	return m
}

// TestFusedMatchesReference3D steps the product solver and the frozen
// accessor kernels side by side and requires the same bits in every slot
// of the populations, the post-shift buffers and the fluid variables,
// ghosts included, after every step.
func TestFusedMatchesReference3D(t *testing.T) {
	const steps = 24
	sizes := [][3]int{{3, 3, 3}, {3, 5, 4}, {6, 3, 5}, {5, 7, 3}, {9, 6, 7}, {14, 9, 8}}
	workers := []int{1, 2, 3, 7}
	rng := rand.New(rand.NewSource(20261015))
	for trial := 0; trial < 64; trial++ {
		// Periodic axes, forcing and the filter cycle through all 32
		// combinations, twice; size and worker count are drawn beside them.
		size := sizes[rng.Intn(len(sizes))]
		nx, ny, nz := size[0], size[1], size[2]
		px, py, pz := trial&1 != 0, trial&2 != 0, trial&4 != 0
		par := testParams()
		par.InletRho, par.OutletRho = 1.02, 0.99
		par.InletVy, par.InletVz = -0.01, 0.005
		if trial&8 != 0 {
			par.ForceX = 0
		} else {
			par.ForceY, par.ForceZ = -3e-6, 2e-6
		}
		if trial&16 != 0 {
			par.Eps = 0
		}
		m := randomMask3D(rng, nx, ny, nz)
		w := workers[rng.Intn(len(workers))]
		name := fmt.Sprintf("t%d_%dx%dx%d_p%v%v%v_w%d", trial, nx, ny, nz, px, py, pz, w)

		got, err := NewSolver3D(nx, ny, nz, par, mask3From(m))
		if err != nil {
			t.Fatal(err)
		}
		wantMask := mask3From(m)
		want, _ := NewSolver3D(nx, ny, nz, par, wantMask)
		got.cutAlways(w)
		// A rough initial state: every step then moves every bit.
		for z := 0; z < nz; z++ {
			for y := 0; y < ny; y++ {
				for x := 0; x < nx; x++ {
					got.Rho.Set(x, y, z, 1+0.05*rng.Float64())
					got.Vx.Set(x, y, z, 0.1*(rng.Float64()-0.5))
					got.Vy.Set(x, y, z, 0.1*(rng.Float64()-0.5))
					got.Vz.Set(x, y, z, 0.1*(rng.Float64()-0.5))
				}
			}
		}
		got.InitEquilibrium()
		want.Rho.CopyFrom(got.Rho)
		want.Vx.CopyFrom(got.Vx)
		want.Vy.CopyFrom(got.Vy)
		want.Vz.CopyFrom(got.Vz)
		want.InitEquilibrium()

		for n := 1; n <= steps; n++ {
			got.StepSerial(px, py, pz)
			refStep3(want, wantMask, px, py, pz)
			at := fmt.Sprintf("%s step %d ", name, n)
			for i := 0; i < Q3; i++ {
				compareBits(t, at+fmt.Sprintf("F[%d]", i), want.F[i].Data(), got.F[i].Data())
				compareBits(t, at+fmt.Sprintf("nF[%d]", i), want.nF[i].Data(), got.nF[i].Data())
			}
			compareBits(t, at+"Rho", want.Rho.Data(), got.Rho.Data())
			compareBits(t, at+"Vx", want.Vx.Data(), got.Vx.Data())
			compareBits(t, at+"Vy", want.Vy.Data(), got.Vy.Data())
			compareBits(t, at+"Vz", want.Vz.Data(), got.Vz.Data())
		}
	}
}
