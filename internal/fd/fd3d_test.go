package fd

import (
	"math"
	"testing"

	"repro/internal/decomp"
	"repro/internal/fluid"
)

func mask3From(m *fluid.Mask3D) func(x, y, z int) fluid.CellType {
	return func(x, y, z int) fluid.CellType { return m.At(x, y, z) }
}

func allFluid3(x, y, z int) fluid.CellType { return fluid.Interior }

// TestPoiseuille3D: plane Poiseuille between plates; node-centred walls
// make the discrete steady state the exact parabola.
func TestPoiseuille3D(t *testing.T) {
	nx, ny, nz := 4, 15, 4
	nu, g := 0.1, 2e-5
	p := fluid.DefaultParams()
	p.Nu = nu
	p.Eps = 0.005
	p.ForceX = g
	s, err := NewSolver3D(nx, ny, nz, p, mask3From(fluid.ChannelMask3D(nx, ny, nz)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		s.StepSerial(true, false, true)
	}
	umax := fluid.PoiseuilleMax(0, float64(ny-1), g, nu)
	worst := 0.0
	for y := 1; y < ny-1; y++ {
		want := fluid.PoiseuilleProfile(float64(y), 0, float64(ny-1), g, nu)
		got := s.Vx.At(nx/2, y, nz/2)
		if rel := math.Abs(got-want) / umax; rel > worst {
			worst = rel
		}
	}
	if worst > 1e-6 {
		t.Errorf("3D FD Poiseuille relative error %.3g, want < 1e-6", worst)
	}
}

// TestMass3D: flux-form continuity conserves mass in the periodic duct.
func TestMass3D(t *testing.T) {
	nx, ny, nz := 8, 10, 8
	p := fluid.DefaultParams()
	p.Nu = 0.1
	p.ForceX = 1e-5
	s, err := NewSolver3D(nx, ny, nz, p, mask3From(fluid.ChannelMask3D(nx, ny, nz)))
	if err != nil {
		t.Fatal(err)
	}
	m0 := s.Rho.SumInterior()
	for i := 0; i < 150; i++ {
		s.StepSerial(true, false, true)
	}
	if rel := math.Abs(s.Rho.SumInterior()-m0) / m0; rel > 1e-9 {
		t.Errorf("3D mass drifted by %.3g", rel)
	}
}

// TestShearWaveDecay3D measures viscous decay in a periodic box.
func TestShearWaveDecay3D(t *testing.T) {
	n := 16
	nu := 0.1
	p := fluid.DefaultParams()
	p.Nu = nu
	p.Eps = 0
	s, err := NewSolver3D(n, n, n, p, allFluid3)
	if err != nil {
		t.Fatal(err)
	}
	amp := 1e-3
	k := 2 * math.Pi / float64(n)
	for z := -1; z <= n; z++ {
		for y := -1; y <= n; y++ {
			for x := -1; x <= n; x++ {
				s.Vx.Set(x, y, z, amp*math.Sin(k*float64(z)))
			}
		}
	}
	steps := 100
	for i := 0; i < steps; i++ {
		s.StepSerial(true, true, true)
	}
	got := s.Vx.At(0, 0, n/4)
	want := amp * math.Exp(-nu*k*k*float64(steps))
	// The discrete Laplacian underestimates k^2 by k^2/12: ~2% at n=16.
	if rel := math.Abs(got-want) / want; rel > 0.05 {
		t.Errorf("3D shear decay: got %.6g want %.6g (rel %.3g)", got, want, rel)
	}
}

// TestPhaseContract3D checks the phase structure and message sizes.
func TestPhaseContract3D(t *testing.T) {
	s, err := NewSolver3D(6, 7, 8, fluid.DefaultParams(), allFluid3)
	if err != nil {
		t.Fatal(err)
	}
	if s.Phases() != 3 {
		t.Fatalf("Phases = %d", s.Phases())
	}
	if !s.Exchanges(0) || !s.Exchanges(1) || s.Exchanges(2) {
		t.Error("exchange pattern wrong")
	}
	// Velocity message: 3 fields x face area; density: 1 field.
	if got := len(s.Pack(0, decomp.East, nil)); got != 3*7*8 {
		t.Errorf("velocity message = %d values, want %d", got, 3*7*8)
	}
	if got := len(s.Pack(1, decomp.Up, nil)); got != 6*7 {
		t.Errorf("density message = %d values, want %d", got, 6*7)
	}
	if got := len(s.Pack(0, decomp.North, nil)); got != 3*6*8 {
		t.Errorf("velocity message = %d values, want %d", got, 3*6*8)
	}
}
