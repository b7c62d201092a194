package fd

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/fluid"
	"repro/internal/grid"
)

// The four functions below are the accessor sweeps the solvers ran before
// the inner loops moved onto raw rows, frozen verbatim as the oracle: every
// operand comes through Field.At, every result goes through Field.Set, and
// the expressions are the ones the product kernels must reproduce bit for
// bit. They share nothing with the product sweeps but the solver's storage.
// They write next-step buffers, which the solvers no longer have; ref2D and
// ref3D carry them, starting as copies of the fields, so a ghost that no
// exchange fills holds one value in both shells.

type ref2D struct {
	*Solver2D
	nVx, nVy, nRho *grid.Field2D
}

type ref3D struct {
	*Solver3D
	nVx, nVy, nVz, nRho *grid.Field3D
}

func newRef2D(s *Solver2D) *ref2D { return &ref2D{s, s.Vx.Clone(), s.Vy.Clone(), s.Rho.Clone()} }

func newRef3D(s *Solver3D) *ref3D {
	return &ref3D{s, s.Vx.Clone(), s.Vy.Clone(), s.Vz.Clone(), s.Rho.Clone()}
}

func refVelocityRows(s *ref2D, y0, y1 int) {
	p := s.Par
	dt, nu, cs2 := p.Dt, p.Nu, p.Cs*p.Cs
	nx := s.Vx.NX
	for y := y0; y < y1; y++ {
		open := s.rowOpen[y]
		for x := 0; x < nx; x++ {
			if !open {
				switch s.cells[y*nx+x] {
				case fluid.Wall:
					s.nVx.Set(x, y, 0)
					s.nVy.Set(x, y, 0)
					continue
				case fluid.Inlet:
					s.nVx.Set(x, y, p.InletVx)
					s.nVy.Set(x, y, p.InletVy)
					continue
				case fluid.Outlet:
					// Open boundary: velocity convects out unchanged.
					s.nVx.Set(x, y, s.Vx.At(x, y))
					s.nVy.Set(x, y, s.Vy.At(x, y))
					continue
				}
			}
			vx, vy := s.Vx.At(x, y), s.Vy.At(x, y)
			rho := s.Rho.At(x, y)

			dVxdx := 0.5 * (s.Vx.At(x+1, y) - s.Vx.At(x-1, y))
			dVxdy := 0.5 * (s.Vx.At(x, y+1) - s.Vx.At(x, y-1))
			dVydx := 0.5 * (s.Vy.At(x+1, y) - s.Vy.At(x-1, y))
			dVydy := 0.5 * (s.Vy.At(x, y+1) - s.Vy.At(x, y-1))
			dRdx := 0.5 * (s.Rho.At(x+1, y) - s.Rho.At(x-1, y))
			dRdy := 0.5 * (s.Rho.At(x, y+1) - s.Rho.At(x, y-1))
			lapVx := s.Vx.At(x+1, y) + s.Vx.At(x-1, y) + s.Vx.At(x, y+1) + s.Vx.At(x, y-1) - 4*vx
			lapVy := s.Vy.At(x+1, y) + s.Vy.At(x-1, y) + s.Vy.At(x, y+1) + s.Vy.At(x, y-1) - 4*vy

			s.nVx.Set(x, y, vx+dt*(-vx*dVxdx-vy*dVxdy-cs2/rho*dRdx+nu*lapVx+p.ForceX))
			s.nVy.Set(x, y, vy+dt*(-vx*dVydx-vy*dVydy-cs2/rho*dRdy+nu*lapVy+p.ForceY))
		}
	}
}

func refDensityRows(s *ref2D, y0, y1 int) {
	p := s.Par
	dt := p.Dt
	nx := s.Rho.NX
	for y := y0; y < y1; y++ {
		open := s.rowOpen[y]
		for x := 0; x < nx; x++ {
			if !open {
				switch s.cells[y*nx+x] {
				case fluid.Inlet:
					s.nRho.Set(x, y, p.InletRho)
					continue
				case fluid.Outlet:
					s.nRho.Set(x, y, p.OutletRho)
					continue
				}
			}
			// Walls evolve by the same flux form; with V = 0 at wall
			// nodes the normal flux at the wall face vanishes and mass
			// stays where it is.
			dFxdx := 0.5 * (s.Rho.At(x+1, y)*s.Vx.At(x+1, y) - s.Rho.At(x-1, y)*s.Vx.At(x-1, y))
			dFydy := 0.5 * (s.Rho.At(x, y+1)*s.Vy.At(x, y+1) - s.Rho.At(x, y-1)*s.Vy.At(x, y-1))
			s.nRho.Set(x, y, s.Rho.At(x, y)-dt*(dFxdx+dFydy))
		}
	}
}

func refVelocityPlanes(s *ref3D, z0, z1 int) {
	p := s.Par
	dt, nu, cs2 := p.Dt, p.Nu, p.Cs*p.Cs
	nx, ny := s.Vx.NX, s.Vx.NY
	for z := z0; z < z1; z++ {
		for y := 0; y < ny; y++ {
			open := s.rowOpen[z*ny+y]
			row := (z*ny + y) * nx
			for x := 0; x < nx; x++ {
				if !open {
					switch s.cells[row+x] {
					case fluid.Wall:
						s.nVx.Set(x, y, z, 0)
						s.nVy.Set(x, y, z, 0)
						s.nVz.Set(x, y, z, 0)
						continue
					case fluid.Inlet:
						s.nVx.Set(x, y, z, p.InletVx)
						s.nVy.Set(x, y, z, p.InletVy)
						s.nVz.Set(x, y, z, p.InletVz)
						continue
					case fluid.Outlet:
						s.nVx.Set(x, y, z, s.Vx.At(x, y, z))
						s.nVy.Set(x, y, z, s.Vy.At(x, y, z))
						s.nVz.Set(x, y, z, s.Vz.At(x, y, z))
						continue
					}
				}
				vx, vy, vz := s.Vx.At(x, y, z), s.Vy.At(x, y, z), s.Vz.At(x, y, z)
				rho := s.Rho.At(x, y, z)

				gxx := 0.5 * (s.Vx.At(x+1, y, z) - s.Vx.At(x-1, y, z))
				gxy := 0.5 * (s.Vx.At(x, y+1, z) - s.Vx.At(x, y-1, z))
				gxz := 0.5 * (s.Vx.At(x, y, z+1) - s.Vx.At(x, y, z-1))
				gyx := 0.5 * (s.Vy.At(x+1, y, z) - s.Vy.At(x-1, y, z))
				gyy := 0.5 * (s.Vy.At(x, y+1, z) - s.Vy.At(x, y-1, z))
				gyz := 0.5 * (s.Vy.At(x, y, z+1) - s.Vy.At(x, y, z-1))
				gzx := 0.5 * (s.Vz.At(x+1, y, z) - s.Vz.At(x-1, y, z))
				gzy := 0.5 * (s.Vz.At(x, y+1, z) - s.Vz.At(x, y-1, z))
				gzz := 0.5 * (s.Vz.At(x, y, z+1) - s.Vz.At(x, y, z-1))
				rx := 0.5 * (s.Rho.At(x+1, y, z) - s.Rho.At(x-1, y, z))
				ry := 0.5 * (s.Rho.At(x, y+1, z) - s.Rho.At(x, y-1, z))
				rz := 0.5 * (s.Rho.At(x, y, z+1) - s.Rho.At(x, y, z-1))
				lapVx := s.Vx.At(x+1, y, z) + s.Vx.At(x-1, y, z) +
					s.Vx.At(x, y+1, z) + s.Vx.At(x, y-1, z) +
					s.Vx.At(x, y, z+1) + s.Vx.At(x, y, z-1) - 6*s.Vx.At(x, y, z)
				lapVy := s.Vy.At(x+1, y, z) + s.Vy.At(x-1, y, z) +
					s.Vy.At(x, y+1, z) + s.Vy.At(x, y-1, z) +
					s.Vy.At(x, y, z+1) + s.Vy.At(x, y, z-1) - 6*s.Vy.At(x, y, z)
				lapVz := s.Vz.At(x+1, y, z) + s.Vz.At(x-1, y, z) +
					s.Vz.At(x, y+1, z) + s.Vz.At(x, y-1, z) +
					s.Vz.At(x, y, z+1) + s.Vz.At(x, y, z-1) - 6*s.Vz.At(x, y, z)

				s.nVx.Set(x, y, z, vx+dt*(-(vx*gxx+vy*gxy+vz*gxz)-cs2/rho*rx+nu*lapVx+p.ForceX))
				s.nVy.Set(x, y, z, vy+dt*(-(vx*gyx+vy*gyy+vz*gyz)-cs2/rho*ry+nu*lapVy+p.ForceY))
				s.nVz.Set(x, y, z, vz+dt*(-(vx*gzx+vy*gzy+vz*gzz)-cs2/rho*rz+nu*lapVz+p.ForceZ))
			}
		}
	}
}

func refDensityPlanes(s *ref3D, z0, z1 int) {
	p := s.Par
	dt := p.Dt
	nx, ny := s.Rho.NX, s.Rho.NY
	for z := z0; z < z1; z++ {
		for y := 0; y < ny; y++ {
			open := s.rowOpen[z*ny+y]
			row := (z*ny + y) * nx
			for x := 0; x < nx; x++ {
				if !open {
					switch s.cells[row+x] {
					case fluid.Inlet:
						s.nRho.Set(x, y, z, p.InletRho)
						continue
					case fluid.Outlet:
						s.nRho.Set(x, y, z, p.OutletRho)
						continue
					}
				}
				dFx := 0.5 * (s.Rho.At(x+1, y, z)*s.Vx.At(x+1, y, z) - s.Rho.At(x-1, y, z)*s.Vx.At(x-1, y, z))
				dFy := 0.5 * (s.Rho.At(x, y+1, z)*s.Vy.At(x, y+1, z) - s.Rho.At(x, y-1, z)*s.Vy.At(x, y-1, z))
				dFz := 0.5 * (s.Rho.At(x, y, z+1)*s.Vz.At(x, y, z+1) - s.Rho.At(x, y, z-1)*s.Vz.At(x, y, z-1))
				s.nRho.Set(x, y, z, s.Rho.At(x, y, z)-dt*(dFx+dFy+dFz))
			}
		}
	}
}

// refStep2D is StepSerial over the frozen sweeps and their swaps. The
// exchange and the serial filter are the product's.
func refStep2D(s *ref2D, px, py bool) {
	refVelocityRows(s, 0, s.Vx.NY)
	s.Vx.Swap(s.nVx)
	s.Vy.Swap(s.nVy)
	s.selfExchange(0, px, py)
	refDensityRows(s, 0, s.Rho.NY)
	s.Rho.Swap(s.nRho)
	s.selfExchange(1, px, py)
	s.applyFilter()
}

func refStep3D(s *ref3D, px, py, pz bool) {
	refVelocityPlanes(s, 0, s.Vx.NZ)
	s.Vx.Swap(s.nVx)
	s.Vy.Swap(s.nVy)
	s.Vz.Swap(s.nVz)
	s.selfExchange(0, px, py, pz)
	refDensityPlanes(s, 0, s.Rho.NZ)
	s.Rho.Swap(s.nRho)
	s.selfExchange(1, px, py, pz)
	s.applyFilter()
}

var boundaryTypes = []fluid.CellType{fluid.Wall, fluid.Inlet, fluid.Outlet}

// randomMask3D scatters wall slabs along the y and z faces, wall blocks
// that cut rows, single inlet and outlet nodes, and runs of every boundary
// type in columns 0 and nx-1 over an nx-by-ny-by-nz lattice. About a third
// of the masks keep the border free of slabs, so that periodic wraps carry
// fluid and open non-periodic faces read the ghost shell. nz = 1 with z
// ignored is the 2D mask.
func randomMask3D(rng *rand.Rand, nx, ny, nz int) *fluid.Mask3D {
	m := fluid.NewMask3D(nx, ny, nz)
	box := func(x0, y0, z0, x1, y1, z1 int, c fluid.CellType) {
		for z := z0; z < min(z1, nz); z++ {
			for y := y0; y < min(y1, ny); y++ {
				for x := x0; x < min(x1, nx); x++ {
					m.Set(x, y, z, c)
				}
			}
		}
	}
	if rng.Intn(3) > 0 {
		// Solid rows along a y face, full or partial, and a z face.
		for _, y := range []int{0, ny - 1} {
			if rng.Intn(2) == 0 {
				box(rng.Intn(nx/2+1), y, 0, nx-rng.Intn(nx/2+1), y+1, nz, fluid.Wall)
			}
		}
		if nz > 1 && rng.Intn(2) == 0 {
			z := (nz - 1) * rng.Intn(2)
			box(0, 0, z, nx, ny, z+1, fluid.Wall)
		}
	}
	for k := rng.Intn(4); k > 0; k-- {
		x, y, z := rng.Intn(nx), rng.Intn(ny), rng.Intn(nz)
		box(x, y, z, x+1+rng.Intn(3), y+1+rng.Intn(3), z+1+rng.Intn(3), fluid.Wall)
	}
	for k := rng.Intn(4); k > 0; k-- {
		m.Set(rng.Intn(nx), rng.Intn(ny), rng.Intn(nz), fluid.Inlet)
		m.Set(rng.Intn(nx), rng.Intn(ny), rng.Intn(nz), fluid.Outlet)
	}
	for _, x := range []int{0, nx - 1} {
		if rng.Intn(3) > 0 {
			y0, z0 := rng.Intn(ny), rng.Intn(nz)
			box(x, y0, z0, x+1, y0+1+rng.Intn(ny), z0+1+rng.Intn(nz), boundaryTypes[rng.Intn(len(boundaryTypes))])
		}
	}
	return m
}

// referenceTrial is one seeded configuration of the oracle tests: periodic
// axes, forcing and the filter cycle through all their combinations with
// the trial number; size, worker count and mask are drawn beside them. The
// worker counts include one slab per unit (row or plane) and slabs of two,
// where every unit of a slab sits on a seam.
type referenceTrial struct {
	par        fluid.Params
	px, py, pz bool
	workers    int
}

func newReferenceTrial(rng *rand.Rand, trial, units int) referenceTrial {
	par := testParams()
	par.InletRho, par.OutletRho = 1.02, 0.99
	par.InletVy, par.InletVz = -0.01, 0.02
	par.ForceY, par.ForceZ = -3e-6, 2e-6
	if trial&16 != 0 {
		par.ForceX, par.ForceY, par.ForceZ = 0, 0, 0
	}
	if trial&8 != 0 {
		par.Eps = 0
	}
	return referenceTrial{
		par: par,
		px:  trial&1 != 0, py: trial&2 != 0, pz: trial&4 != 0,
		workers: []int{1, 2, 3, 7, units, (units + 1) / 2}[rng.Intn(6)],
	}
}

// roughen writes a rough state into every slot of the fields, ghosts
// included, so that every step moves every bit and an open face reads a
// ghost shell that is not the default.
func roughen(rng *rand.Rand, rho []float64, vel ...[]float64) {
	for i := range rho {
		rho[i] = 1 + 0.05*rng.Float64()
		for _, v := range vel {
			v[i] = 0.1 * (rng.Float64() - 0.5)
		}
	}
}

const referenceSteps = 24

// TestReference2D steps the product solver and the frozen accessor sweeps
// side by side and requires the same bits in every slot of the fields,
// ghosts included, after every step.
func TestReference2D(t *testing.T) {
	sizes := [][2]int{{3, 3}, {3, 8}, {9, 3}, {5, 7}, {16, 11}, {33, 20}}
	rng := rand.New(rand.NewSource(20261001))
	for trial := 0; trial < 96; trial++ {
		size := sizes[rng.Intn(len(sizes))]
		nx, ny := size[0], size[1]
		c := newReferenceTrial(rng, trial, ny)
		m := randomMask3D(rng, nx, ny, 1)
		mask := func(x, y int) fluid.CellType { return m.At(x, y, 0) }
		name := fmt.Sprintf("t%d_%dx%d_px%v_py%v_w%d", trial, nx, ny, c.px, c.py, c.workers)

		got, err := NewSolver2D(nx, ny, c.par, mask)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := NewSolver2D(nx, ny, c.par, mask)
		got.cutAlways(c.workers)
		roughen(rng, got.Rho.Data(), got.Vx.Data(), got.Vy.Data())
		want.Rho.CopyFrom(got.Rho)
		want.Vx.CopyFrom(got.Vx)
		want.Vy.CopyFrom(got.Vy)
		ref := newRef2D(want)

		for n := 1; n <= referenceSteps; n++ {
			got.StepSerial(c.px, c.py)
			refStep2D(ref, c.px, c.py)
			at := fmt.Sprintf("%s step %d ", name, n)
			compareBits(t, at+"Rho", want.Rho.Data(), got.Rho.Data())
			compareBits(t, at+"Vx", want.Vx.Data(), got.Vx.Data())
			compareBits(t, at+"Vy", want.Vy.Data(), got.Vy.Data())
		}
	}
}

// TestReference3D is TestReference2D for the z-plane sweeps.
func TestReference3D(t *testing.T) {
	sizes := [][3]int{{3, 3, 3}, {3, 6, 4}, {7, 3, 5}, {5, 4, 3}, {12, 7, 6}, {17, 9, 8}}
	rng := rand.New(rand.NewSource(20261002))
	for trial := 0; trial < 64; trial++ {
		size := sizes[rng.Intn(len(sizes))]
		nx, ny, nz := size[0], size[1], size[2]
		c := newReferenceTrial(rng, trial, nz)
		m := randomMask3D(rng, nx, ny, nz)
		name := fmt.Sprintf("t%d_%dx%dx%d_px%v_py%v_pz%v_w%d", trial, nx, ny, nz, c.px, c.py, c.pz, c.workers)

		got, err := NewSolver3D(nx, ny, nz, c.par, mask3From(m))
		if err != nil {
			t.Fatal(err)
		}
		want, _ := NewSolver3D(nx, ny, nz, c.par, mask3From(m))
		got.cutAlways(c.workers)
		roughen(rng, got.Rho.Data(), got.Vx.Data(), got.Vy.Data(), got.Vz.Data())
		want.Rho.CopyFrom(got.Rho)
		want.Vx.CopyFrom(got.Vx)
		want.Vy.CopyFrom(got.Vy)
		want.Vz.CopyFrom(got.Vz)
		ref := newRef3D(want)

		for n := 1; n <= referenceSteps; n++ {
			got.StepSerial(c.px, c.py, c.pz)
			refStep3D(ref, c.px, c.py, c.pz)
			at := fmt.Sprintf("%s step %d ", name, n)
			compareBits(t, at+"Rho", want.Rho.Data(), got.Rho.Data())
			compareBits(t, at+"Vx", want.Vx.Data(), got.Vx.Data())
			compareBits(t, at+"Vy", want.Vy.Data(), got.Vy.Data())
			compareBits(t, at+"Vz", want.Vz.Data(), got.Vz.Data())
		}
	}
}

// TestRestoreParity dumps an all-Interior lattice with an open
// non-periodic face after k steps, restores the dump into a fresh
// geometry (the path core takes) and requires the restored run to stay
// bit-identical to the uninterrupted one. The face's fluid nodes read the
// out-of-domain ghosts of Rho, which the density swap exchanges with
// nRho's every step: without pairGhosts the two shells differ and every
// odd k diverges.
func TestRestoreParity(t *testing.T) {
	const more = 4
	par := testParams()
	open2 := func(x, y int) fluid.CellType { return fluid.Interior }
	for k := 1; k <= 4; k++ {
		t.Run(fmt.Sprintf("2D/k%d", k), func(t *testing.T) {
			a, err := NewSolver2D(12, 10, par, open2)
			if err != nil {
				t.Fatal(err)
			}
			for n := 0; n < k; n++ {
				a.StepSerial(true, false)
			}
			b, err := NewGeometry2D(12, 10, par, open2)
			if err != nil {
				t.Fatal(err)
			}
			copyState(b, a)
			for n := 0; n < more; n++ {
				a.StepSerial(true, false)
				b.StepSerial(true, false)
			}
			compareBits(t, "Rho", a.Rho.Data(), b.Rho.Data())
			compareBits(t, "Vx", a.Vx.Data(), b.Vx.Data())
			compareBits(t, "Vy", a.Vy.Data(), b.Vy.Data())
		})
		t.Run(fmt.Sprintf("3D/k%d", k), func(t *testing.T) {
			a, err := NewSolver3D(7, 6, 5, par, allFluid3)
			if err != nil {
				t.Fatal(err)
			}
			for n := 0; n < k; n++ {
				a.StepSerial(true, false, false)
			}
			b, err := NewGeometry3D(7, 6, 5, par, allFluid3)
			if err != nil {
				t.Fatal(err)
			}
			copyState(b, a)
			for n := 0; n < more; n++ {
				a.StepSerial(true, false, false)
				b.StepSerial(true, false, false)
			}
			compareBits(t, "Rho", a.Rho.Data(), b.Rho.Data())
			compareBits(t, "Vx", a.Vx.Data(), b.Vx.Data())
			compareBits(t, "Vy", a.Vy.Data(), b.Vy.Data())
			compareBits(t, "Vz", a.Vz.Data(), b.Vz.Data())
		})
	}
}
