package lbm

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

// TestPoiseuille3D drives plane-Poiseuille flow between plates (walls on
// the y boundaries, periodic in x and z) and compares the profile.
func TestPoiseuille3D(t *testing.T) {
	nx, ny, nz := 4, 15, 4
	nu, g := 0.1, 2e-5
	p := fluid.DefaultParams()
	p.Nu = nu
	p.Eps = 0
	p.ForceX = g
	s, err := NewSolver3D(nx, ny, nz, p, mask3From(fluid.ChannelMask3D(nx, ny, nz)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4000; i++ {
		s.StepSerial(true, false, true)
	}
	y0, y1 := 0.5, float64(ny)-1.5
	umax := fluid.PoiseuilleMax(y0, y1, g, nu)
	worst := 0.0
	for y := 1; y < ny-1; y++ {
		want := fluid.PoiseuilleProfile(float64(y), y0, y1, g, nu)
		got := s.Vx.At(nx/2, y, nz/2)
		if rel := math.Abs(got-want) / umax; rel > worst {
			worst = rel
		}
	}
	if worst > 0.03 {
		t.Errorf("3D LB Poiseuille relative error %.4g, want < 3%%", worst)
	}
	// The flow must be uniform along the periodic axes.
	if d := math.Abs(s.Vx.At(0, ny/2, 0) - s.Vx.At(nx-1, ny/2, nz-1)); d > 1e-12 {
		t.Errorf("flow not uniform along periodic axes: %.3g", d)
	}
}

// TestMass3D checks exact mass conservation in the closed 3D channel.
func TestMass3D(t *testing.T) {
	nx, ny, nz := 6, 8, 6
	p := fluid.DefaultParams()
	p.Nu = 0.05
	p.Eps = 0
	p.ForceX = 1e-5
	s, err := NewSolver3D(nx, ny, nz, p, mask3From(fluid.ChannelMask3D(nx, ny, nz)))
	if err != nil {
		t.Fatal(err)
	}
	mass := func() float64 {
		total := 0.0
		for i := 0; i < Q3; i++ {
			total += s.F[i].SumInterior()
		}
		return total
	}
	m0 := mass()
	for i := 0; i < 200; i++ {
		s.StepSerial(true, false, true)
	}
	if rel := math.Abs(mass()-m0) / m0; rel > 1e-12 {
		t.Errorf("3D mass drifted by %.3g", rel)
	}
}

// TestShearWaveDecay3D measures the D3Q15 viscosity.
func TestShearWaveDecay3D(t *testing.T) {
	n := 16
	nu := 0.05
	p := fluid.DefaultParams()
	p.Nu = nu
	p.Eps = 0
	s, err := NewSolver3D(n, n, n, p, allFluid3)
	if err != nil {
		t.Fatal(err)
	}
	amp := 1e-4
	k := 2 * math.Pi / float64(n)
	for z := -1; z <= n; z++ {
		for y := -1; y <= n; y++ {
			for x := -1; x <= n; x++ {
				s.Vx.Set(x, y, z, amp*math.Sin(k*float64(y)))
			}
		}
	}
	s.InitEquilibrium()
	steps := 200
	for i := 0; i < steps; i++ {
		s.StepSerial(true, true, true)
	}
	got := s.Vx.At(0, n/4, 0)
	want := amp * math.Exp(-nu*k*k*float64(steps))
	// BGK decay matches nu k^2 to leading order with an O(k^4) dispersion
	// correction: ~3% at this wavenumber (k = 2 pi / 16).
	if rel := math.Abs(got-want) / want; rel > 0.06 {
		t.Errorf("3D shear decay: got %.6g want %.6g (rel %.3g)", got, want, rel)
	}
}

// TestStationary3D: uniform fluid at rest stays exactly at rest.
func TestStationary3D(t *testing.T) {
	s, err := NewSolver3D(6, 6, 6, fluid.DefaultParams(), allFluid3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		s.StepSerial(true, true, true)
	}
	if v := s.Vx.MaxAbsInterior() + s.Vy.MaxAbsInterior() + s.Vz.MaxAbsInterior(); v > 1e-14 {
		t.Errorf("spurious 3D velocity %.3g", v)
	}
}

// TestSweepRegions checks the extended-strip geometry of the x/y/z sweeps.
func TestSweepRegions(t *testing.T) {
	s, err := NewSolver3D(5, 6, 7, fluid.DefaultParams(), allFluid3)
	if err != nil {
		t.Fatal(err)
	}
	// x sweep: bare faces.
	r := s.sweepRegion(decomp.East, true)
	if r.NX != 1 || r.NY != 6 || r.NZ != 7 || r.X0 != 4 {
		t.Errorf("east sweep region %+v", r)
	}
	// y sweep: extended over x ghosts.
	r = s.sweepRegion(decomp.North, true)
	if r.NX != 7 || r.X0 != -1 || r.NY != 1 || r.Y0 != 5 {
		t.Errorf("north sweep region %+v", r)
	}
	// z sweep: extended over x and y ghosts.
	r = s.sweepRegion(decomp.Up, false)
	if r.NX != 7 || r.NY != 8 || r.NZ != 1 || r.Z0 != 7 || r.Y0 != -1 {
		t.Errorf("up sweep region %+v", r)
	}
	// A message is 5 populations x strip nodes, the strip extended over
	// the ghost rows of the axes swept before it.
	want := []int{5 * 6 * 7, 5 * 6 * 7, 5 * 7 * 7, 5 * 7 * 7, 5 * 7 * 8, 5 * 7 * 8}
	for i, d := range decomp.Faces() {
		if got := len(s.Pack(0, d, nil)); got != want[i] {
			t.Errorf("dir %v: packed %d values, want %d", d, got, want[i])
		}
	}
}

// TestPhaseContract3D checks the sweep phase structure.
func TestPhaseContract3D(t *testing.T) {
	s, err := NewSolver3D(5, 5, 5, fluid.DefaultParams(), allFluid3)
	if err != nil {
		t.Fatal(err)
	}
	if s.Phases() != 4 {
		t.Fatalf("Phases = %d, want 4", s.Phases())
	}
	wantDirs := [][]decomp.Dir{
		{decomp.West, decomp.East},
		{decomp.South, decomp.North},
		{decomp.Down, decomp.Up},
		nil,
	}
	for ph := 0; ph < 4; ph++ {
		dirs := s.ExchangeDirs(ph)
		if len(dirs) != len(wantDirs[ph]) {
			t.Errorf("phase %d dirs = %v", ph, dirs)
			continue
		}
		for i := range dirs {
			if dirs[i] != wantDirs[ph][i] {
				t.Errorf("phase %d dirs = %v, want %v", ph, dirs, wantDirs[ph])
			}
		}
	}
}
