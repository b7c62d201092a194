// Package fluid holds the problem description shared by the two numerical
// methods of section 6: the cell-type mask (fluid, wall, inlet, outlet),
// the physical parameters of the isothermal Navier-Stokes equations 1-3
// (kinematic viscosity nu and speed of sound c_s), and the analytic
// solutions used to validate the solvers (Hagen-Poiseuille channel flow,
// the test problem of section 7).
//
// Grid spacing is fixed at dx = 1 lattice unit; the time step dt is chosen
// by the subsonic resolution requirement dx ~ c_s dt of equation 4.
package fluid

import (
	"fmt"
	"math"
)

// CellType classifies a grid node of the simulated region (figure 1: gray
// areas are walls; dark-gray walls demarcate the inlet and the outlet).
type CellType uint8

const (
	// Interior is an ordinary fluid node updated by the solver.
	Interior CellType = iota
	// Wall is a solid no-slip node (zero velocity; bounce-back in LB).
	Wall
	// Inlet is a node with prescribed velocity and density (the jet).
	Inlet
	// Outlet is a node with prescribed density (open boundary).
	Outlet
)

var cellNames = [...]string{Interior: "fluid", Wall: "wall", Inlet: "inlet", Outlet: "outlet"}

func (c CellType) String() string {
	if int(c) < len(cellNames) {
		return cellNames[c]
	}
	return fmt.Sprintf("CellType(%d)", uint8(c))
}

// Params are the physical and numerical constants of a simulation. The
// zero value is not usable; call Check before running.
type Params struct {
	Nu  float64 // kinematic viscosity
	Cs  float64 // speed of sound
	Dt  float64 // integration time step (dx = 1)
	Eps float64 // fourth-order filter strength (0 disables the filter)

	Rho0 float64 // reference density

	// Body acceleration driving channel flows (Poiseuille).
	ForceX, ForceY, ForceZ float64

	// Inlet boundary values (the jet of air entering a flue pipe).
	InletVx, InletVy, InletVz float64
	InletRho                  float64

	// Outlet prescribed density.
	OutletRho float64
}

// Check validates the parameter set for explicit time-marching: positive
// viscosity, sound speed and density, and a time step satisfying both the
// acoustic resolution requirement of equation 4 (c_s dt <~ dx) and the
// diffusive stability limit of forward Euler (nu dt / dx^2 <= 1/4 in 2D).
func (p Params) Check() error {
	if p.Nu <= 0 {
		return fmt.Errorf("fluid: viscosity nu = %g must be positive", p.Nu)
	}
	if p.Cs <= 0 {
		return fmt.Errorf("fluid: sound speed cs = %g must be positive", p.Cs)
	}
	if p.Dt <= 0 {
		return fmt.Errorf("fluid: time step dt = %g must be positive", p.Dt)
	}
	if p.Rho0 <= 0 {
		return fmt.Errorf("fluid: reference density rho0 = %g must be positive", p.Rho0)
	}
	if p.Cs*p.Dt > 1.0+1e-12 {
		return fmt.Errorf("fluid: cs*dt = %g exceeds dx = 1; acoustic waves unresolved (eq. 4)", p.Cs*p.Dt)
	}
	if p.Nu*p.Dt > 0.25 {
		return fmt.Errorf("fluid: nu*dt = %g exceeds the diffusive stability limit 1/4", p.Nu*p.Dt)
	}
	if p.Eps < 0 || p.Eps > 1.0/16 {
		return fmt.Errorf("fluid: filter strength eps = %g outside [0, 1/16]", p.Eps)
	}
	return nil
}

// DefaultParams returns a parameter set suitable for the test problems:
// lattice-Boltzmann-compatible sound speed c_s = 1/sqrt(3), dt = 1.
func DefaultParams() Params {
	return Params{
		Nu:        0.05,
		Cs:        1 / math.Sqrt(3),
		Dt:        1,
		Eps:       0.01,
		Rho0:      1,
		InletRho:  1,
		OutletRho: 1,
	}
}

// Mask is the cell-type mask of a box, global or per subregion, x fastest;
// a planar mask is one plane (NZ = 1). Mask3D is another name for it, and
// Mask2D embeds it.
type Mask struct {
	NX, NY, NZ int
	cells      []CellType
}

// Mask3D is the Mask, addressed (x, y, z).
type Mask3D = Mask

// NewMask3D returns an all-Interior mask; a mask of no extent panics.
func NewMask3D(nx, ny, nz int) *Mask3D {
	if nx <= 0 || ny <= 0 || nz <= 0 {
		panic(fmt.Sprintf("fluid: invalid mask size %dx%dx%d", nx, ny, nz))
	}
	return &Mask{NX: nx, NY: ny, NZ: nz, cells: make([]CellType, nx*ny*nz)}
}

func (m *Mask) inside(x, y, z int) bool {
	return x >= 0 && x < m.NX && y >= 0 && y < m.NY && z >= 0 && z < m.NZ
}

// At returns the cell type at (x, y, z). Coordinates outside the mask,
// off its plane for a planar one, are reported as Wall: the region is
// enclosed by walls (figure 1), so anything beyond the grid behaves as
// solid.
func (m *Mask) At(x, y, z int) CellType {
	if !m.inside(x, y, z) {
		return Wall
	}
	return m.cells[(z*m.NY+y)*m.NX+x]
}

// Set assigns the cell type at (x, y, z); out-of-range panics.
func (m *Mask) Set(x, y, z int, c CellType) {
	if !m.inside(x, y, z) {
		panic(fmt.Sprintf("fluid: mask index (%d,%d,%d) out of range %dx%dx%d", x, y, z, m.NX, m.NY, m.NZ))
	}
	m.cells[(z*m.NY+y)*m.NX+x] = c
}

// fill sets the box [x0,x1) x [y0,y1) x [z0,z1) to c, clipped to the mask.
func (m *Mask) fill(x0, y0, z0, x1, y1, z1 int, c CellType) {
	for z := max(z0, 0); z < min(z1, m.NZ); z++ {
		for y := max(y0, 0); y < min(y1, m.NY); y++ {
			for x := max(x0, 0); x < min(x1, m.NX); x++ {
				m.cells[(z*m.NY+y)*m.NX+x] = c
			}
		}
	}
}

// Classify returns the cell types of an nx-by-ny-by-nz box, indexed
// (z*ny+y)*nx+x, calling at once per node: what the solvers and the
// filter plan read instead of the closure.
func Classify(nx, ny, nz int, at func(x, y, z int) CellType) []CellType {
	cells := make([]CellType, 0, nx*ny*nz)
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				cells = append(cells, at(x, y, z))
			}
		}
	}
	return cells
}

// Mask2D is a planar Mask addressed (x, y).
type Mask2D struct{ Mask }

// NewMask2D returns an all-Interior mask.
func NewMask2D(nx, ny int) *Mask2D { return &Mask2D{*NewMask3D(nx, ny, 1)} }

// At returns the cell type at (x, y); outside the mask is Wall.
func (m *Mask2D) At(x, y int) CellType { return m.Mask.At(x, y, 0) }

// Set assigns the cell type at (x, y); out-of-range panics.
func (m *Mask2D) Set(x, y int, c CellType) { m.Mask.Set(x, y, 0, c) }

// FillRect sets the rectangle [x0,x1) x [y0,y1) to cell type c, clipped to
// the mask.
func (m *Mask2D) FillRect(x0, y0, x1, y1 int, c CellType) { m.fill(x0, y0, 0, x1, y1, 1, c) }

// Border sets the outermost layer of the mask to cell type c, the paper's
// dark-gray enclosing walls.
func (m *Mask2D) Border(c CellType) {
	m.FillRect(0, 0, m.NX, 1, c)
	m.FillRect(0, m.NY-1, m.NX, m.NY, c)
	m.FillRect(0, 0, 1, m.NY, c)
	m.FillRect(m.NX-1, 0, m.NX, m.NY, c)
}

// Solid reports whether (x, y) is a wall; used by decomp.DeactivateWalls.
func (m *Mask2D) Solid(x, y int) bool { return m.At(x, y) == Wall }

// ChannelMask2D returns the Hagen-Poiseuille geometry of section 7: a
// rectangular channel with solid walls along y = 0 and y = NY-1 and
// periodic flow in x driven by a body force.
func ChannelMask2D(nx, ny int) *Mask2D {
	m := NewMask2D(nx, ny)
	m.channel()
	return m
}

// ChannelMask3D returns a 3D duct with walls on the y boundaries only
// (flow between parallel plates, periodic in x and z), the 3D analogue of
// the section-7 test problem with a known parabolic profile.
func ChannelMask3D(nx, ny, nz int) *Mask3D {
	m := NewMask3D(nx, ny, nz)
	m.channel()
	return m
}

// channel is the one channel builder: walls on the planes y = 0 and
// y = NY-1, so ChannelMask2D is one plane of ChannelMask3D.
func (m *Mask) channel() {
	m.fill(0, 0, 0, m.NX, 1, m.NZ, Wall)
	m.fill(0, m.NY-1, 0, m.NX, m.NY, m.NZ, Wall)
}

// PoiseuilleProfile returns the steady Hagen-Poiseuille velocity profile
// between parallel no-slip plates at y = y0 and y = y1, driven by body
// acceleration g in x: u(y) = g/(2 nu) (y - y0)(y1 - y).
func PoiseuilleProfile(y, y0, y1, g, nu float64) float64 {
	return g / (2 * nu) * (y - y0) * (y1 - y0 - (y - y0))
}

// PoiseuilleMax returns the centreline velocity of the profile.
func PoiseuilleMax(y0, y1, g, nu float64) float64 {
	h := (y1 - y0) / 2
	return g / (2 * nu) * h * h
}

// AcousticPulse2D returns the density perturbation of a Gaussian acoustic
// pulse of amplitude a and width w centred at (cx, cy), used by the
// acoustics experiment to show the wave propagation that forces the
// small time steps of equation 4.
func AcousticPulse2D(x, y, cx, cy, a, w float64) float64 {
	r2 := (x-cx)*(x-cx) + (y-cy)*(y-cy)
	return a * math.Exp(-r2/(2*w*w))
}
