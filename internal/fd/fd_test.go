package fd

import (
	"math"
	"slices"
	"testing"

	"repro/internal/decomp"
	"repro/internal/fluid"
)

// maskFrom adapts a global mask to the solver's local mask signature for a
// serial (whole-domain) solver.
func maskFrom(m *fluid.Mask2D) func(x, y int) fluid.CellType {
	return func(x, y int) fluid.CellType { return m.At(x, y) }
}

func channelParams(nu, g float64) fluid.Params {
	p := fluid.DefaultParams()
	p.Nu = nu
	p.Eps = 0.005
	p.ForceX = g
	return p
}

// TestPoiseuilleSteadyState drives a periodic channel to steady state and
// compares against the exact Hagen-Poiseuille profile. With node-centred
// walls the discrete steady state is the exact parabola (second differences
// of a quadratic are exact), so the tolerance is tight.
func TestPoiseuilleSteadyState(t *testing.T) {
	nx, ny := 16, 21
	nu, g := 0.1, 1e-5
	s, err := NewSolver2D(nx, ny, channelParams(nu, g), maskFrom(fluid.ChannelMask2D(nx, ny)))
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 8000; step++ {
		s.StepSerial(true, false)
	}
	maxErr := 0.0
	for y := 1; y < ny-1; y++ {
		want := fluid.PoiseuilleProfile(float64(y), 0, float64(ny-1), g, nu)
		got := s.Vx.At(nx/2, y)
		if e := math.Abs(got - want); e > maxErr {
			maxErr = e
		}
	}
	umax := fluid.PoiseuilleMax(0, float64(ny-1), g, nu)
	if maxErr/umax > 1e-6 {
		t.Errorf("Poiseuille relative error %.3g, want < 1e-6 (umax %.3g)", maxErr/umax, umax)
	}
	// The transverse velocity must stay at numerical zero.
	if vy := s.Vy.MaxAbsInterior(); vy > 1e-12 {
		t.Errorf("transverse velocity %.3g, want ~0", vy)
	}
}

// TestMassConservation checks that the flux-form continuity update
// conserves total mass exactly in a closed periodic channel.
func TestMassConservation(t *testing.T) {
	nx, ny := 20, 15
	s, err := NewSolver2D(nx, ny, channelParams(0.1, 1e-5), maskFrom(fluid.ChannelMask2D(nx, ny)))
	if err != nil {
		t.Fatal(err)
	}
	m0 := s.Rho.SumInterior()
	for step := 0; step < 200; step++ {
		s.StepSerial(true, false)
	}
	m1 := s.Rho.SumInterior()
	if rel := math.Abs(m1-m0) / m0; rel > 1e-9 {
		t.Errorf("mass drifted by %.3g relative", rel)
	}
}

// TestShearWaveDecay checks the viscous decay rate of a sinusoidal shear
// wave against exp(-nu k^2 t) in a fully periodic box.
func TestShearWaveDecay(t *testing.T) {
	n := 32
	nu := 0.1
	p := fluid.DefaultParams()
	p.Nu = nu
	p.Eps = 0 // pure viscosity: measure nu alone
	s, err := NewSolver2D(n, n, p, func(x, y int) fluid.CellType { return fluid.Interior })
	if err != nil {
		t.Fatal(err)
	}
	amp := 1e-3
	k := 2 * math.Pi / float64(n)
	for y := -1; y <= n; y++ {
		for x := -1; x <= n; x++ {
			s.Vx.Set(x, y, amp*math.Sin(k*float64(y)))
		}
	}
	steps := 200
	for i := 0; i < steps; i++ {
		s.StepSerial(true, true)
	}
	// Fit the surviving amplitude at the quarter-wave node.
	got := s.Vx.At(0, n/4) // sin(k y) = 1 at y = n/4
	want := amp * math.Exp(-nu*k*k*float64(steps))
	if rel := math.Abs(got-want) / want; rel > 0.02 {
		t.Errorf("shear wave decay: got %.6g want %.6g (rel %.3g)", got, want, rel)
	}
}

// TestAcousticPulseSpeed launches a small density pulse and checks the
// wavefront travels at the speed of sound, the phenomenon that forces
// dx ~ c_s dt (equation 4).
func TestAcousticPulseSpeed(t *testing.T) {
	n := 80
	p := fluid.DefaultParams()
	p.Nu = 0.05
	p.Eps = 0.005
	s, err := NewSolver2D(n, n, p, func(x, y int) fluid.CellType { return fluid.Interior })
	if err != nil {
		t.Fatal(err)
	}
	c := float64(n) / 2
	for y := -1; y <= n; y++ {
		for x := -1; x <= n; x++ {
			s.Rho.Set(x, y, p.Rho0+fluid.AcousticPulse2D(float64(x), float64(y), c, c, 1e-3, 3))
		}
	}
	steps := 40
	for i := 0; i < steps; i++ {
		s.StepSerial(true, true)
	}
	// Find the density maximum along the +x ray from the centre.
	bestR, bestV := 0, -math.MaxFloat64
	for r := 1; r < n/2-2; r++ {
		v := s.Rho.At(n/2+r, n/2) - p.Rho0
		if v > bestV {
			bestV, bestR = v, r
		}
	}
	want := p.Cs * float64(steps)
	if math.Abs(float64(bestR)-want) > 3 {
		t.Errorf("wavefront at r = %d, want ~%.1f (cs*t)", bestR, want)
	}
}

// TestWallsStopFlow verifies the no-slip condition: with a force pushing
// against a solid block, velocity at and inside the block stays zero.
func TestWallsStopFlow(t *testing.T) {
	nx, ny := 24, 16
	m := fluid.ChannelMask2D(nx, ny)
	m.FillRect(10, 1, 14, 15, fluid.Wall) // block across the channel
	s, err := NewSolver2D(nx, ny, channelParams(0.1, 1e-5), maskFrom(m))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		s.StepSerial(true, false)
	}
	for y := 0; y < ny; y++ {
		for x := 10; x < 14; x++ {
			if s.Vx.At(x, y) != 0 || s.Vy.At(x, y) != 0 {
				t.Fatalf("velocity nonzero inside wall at (%d,%d)", x, y)
			}
		}
	}
	if v := max(s.Vx.MaxAbsInterior(), s.Vy.MaxAbsInterior()); v > 0.1 {
		t.Errorf("flow runaway: max velocity %.3g", v)
	}
}

// TestInletOutletThroughflow drives flow with an inlet on the left and an
// outlet on the right and checks a rightward stream develops.
func TestInletOutletThroughflow(t *testing.T) {
	nx, ny := 30, 12
	m := fluid.ChannelMask2D(nx, ny)
	for y := 1; y < ny-1; y++ {
		m.Set(0, y, fluid.Inlet)
		m.Set(nx-1, y, fluid.Outlet)
	}
	p := fluid.DefaultParams()
	p.Nu = 0.1
	p.Eps = 0.005
	p.InletVx = 0.05
	s, err := NewSolver2D(nx, ny, p, maskFrom(m))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 600; i++ {
		s.StepSerial(false, false)
	}
	mid := s.Vx.At(nx/2, ny/2)
	if mid < 0.01 {
		t.Errorf("midstream velocity %.4g, want rightward flow > 0.01", mid)
	}
	if v := max(s.Vx.MaxAbsInterior(), s.Vy.MaxAbsInterior()); v > 0.5 {
		t.Errorf("unstable: max velocity %.3g", v)
	}
}

// Vorticity computes the curl dVy/dx - dVx/dy at interior node (x, y).
func (s *Solver2D) Vorticity(x, y int) float64 {
	return 0.5*(s.Vy.At(x+1, y)-s.Vy.At(x-1, y)) - 0.5*(s.Vx.At(x, y+1)-s.Vx.At(x, y-1))
}

// TestVorticityOfShear checks the curl computation on a linear shear
// Vx = y, whose vorticity is exactly -1.
func TestVorticityOfShear(t *testing.T) {
	n := 10
	p := fluid.DefaultParams()
	s, err := NewSolver2D(n, n, p, func(x, y int) fluid.CellType { return fluid.Interior })
	if err != nil {
		t.Fatal(err)
	}
	for y := -1; y <= n; y++ {
		for x := -1; x <= n; x++ {
			s.Vx.Set(x, y, float64(y))
		}
	}
	if got := s.Vorticity(5, 5); math.Abs(got-(-1)) > 1e-14 {
		t.Errorf("vorticity = %v, want -1", got)
	}
}

// TestSolverRejectsBadInput covers constructor validation.
func TestSolverRejectsBadInput(t *testing.T) {
	p := fluid.DefaultParams()
	if _, err := NewSolver2D(8, 8, p, nil); err == nil {
		t.Error("nil mask accepted")
	}
	p.Nu = -1
	if _, err := NewSolver2D(8, 8, p, maskFrom(fluid.NewMask2D(8, 8))); err == nil {
		t.Error("negative viscosity accepted")
	}
}

// TestPhaseContract checks the phase/exchange structure the distributed
// driver relies on: 3 phases, exchanges after velocity and density.
func TestPhaseContract(t *testing.T) {
	s, err := NewSolver2D(8, 8, fluid.DefaultParams(), maskFrom(fluid.NewMask2D(8, 8)))
	if err != nil {
		t.Fatal(err)
	}
	if s.Phases() != 3 {
		t.Errorf("Phases = %d, want 3", s.Phases())
	}
	want := []bool{true, true, false}
	for ph, w := range want {
		if s.Exchanges(ph) != w {
			t.Errorf("Exchanges(%d) = %v, want %v", ph, s.Exchanges(ph), w)
		}
		// The driver asks ExchangeDirs only: the stencil's directions after
		// an exchanging phase, none otherwise.
		var dirs []decomp.Dir
		if w {
			dirs = decomp.Dirs(decomp.Star)
		}
		if got := s.ExchangeDirs(ph); !slices.Equal(got, dirs) {
			t.Errorf("ExchangeDirs(%d) = %v, want %v", ph, got, dirs)
		}
	}
	// Message lengths: phase 0 carries 2 fields, phase 1 carries 1.
	len0 := len(s.Pack(0, decomp.East, nil))
	len1 := len(s.Pack(1, decomp.East, nil))
	if len0 != 2*8 || len1 != 8 {
		t.Errorf("message lengths = %d, %d; want 16, 8", len0, len1)
	}
}

// copyState writes one solver's StateFields into another's: what a dump and
// its restore carry, which the driver moves through the same accessor.
func copyState(dst, src interface {
	StateFields() ([]string, [][]float64)
}) {
	_, from := src.StateFields()
	_, to := dst.StateFields()
	for i := range from {
		copy(to[i], from[i])
	}
}

// TestDumpRestoreRoundTrip: FD state save/restore through the StateFields
// is bit-exact.
func TestDumpRestoreRoundTrip(t *testing.T) {
	nx, ny := 14, 11
	p := channelParams(0.1, 1e-5)
	a, err := NewSolver2D(nx, ny, p, maskFrom(fluid.ChannelMask2D(nx, ny)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		a.StepSerial(true, false)
	}
	b, err := NewSolver2D(nx, ny, p, maskFrom(fluid.ChannelMask2D(nx, ny)))
	if err != nil {
		t.Fatal(err)
	}
	copyState(b, a)
	for i := 0; i < 10; i++ {
		a.StepSerial(true, false)
		b.StepSerial(true, false)
	}
	if !a.Rho.InteriorEqual(b.Rho, 0) || !a.Vx.InteriorEqual(b.Vx, 0) || !a.Vy.InteriorEqual(b.Vy, 0) {
		t.Fatal("FD state diverged after restore")
	}
	if a.MethodName() != "fd2d" {
		t.Errorf("MethodName = %q", a.MethodName())
	}
}

// TestDumpRestore3D: the 3D FD state round-trips too.
func TestDumpRestore3D(t *testing.T) {
	p := fluid.DefaultParams()
	p.Nu = 0.1
	p.ForceX = 1e-5
	a, err := NewSolver3D(6, 7, 6, p, mask3From(fluid.ChannelMask3D(6, 7, 6)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 15; i++ {
		a.StepSerial(true, false, true)
	}
	b, err := NewSolver3D(6, 7, 6, p, mask3From(fluid.ChannelMask3D(6, 7, 6)))
	if err != nil {
		t.Fatal(err)
	}
	copyState(b, a)
	a.StepSerial(true, false, true)
	b.StepSerial(true, false, true)
	if !a.Rho.InteriorEqual(b.Rho, 0) || !a.Vz.InteriorEqual(b.Vz, 0) {
		t.Fatal("3D FD state diverged after restore")
	}
	if a.MethodName() != "fd3d" || b.MethodName() != "fd3d" {
		t.Error("3D MethodName wrong")
	}
}

// TestDumpSchemaMatchesSolvers: DumpSchema2D/3D name exactly the solvers'
// StateFields, in order.
func TestDumpSchemaMatchesSolvers(t *testing.T) {
	p := fluid.DefaultParams()
	s2, err := NewSolver2D(6, 5, p, maskFrom(fluid.NewMask2D(6, 5)))
	if err != nil {
		t.Fatal(err)
	}
	s3, err := NewSolver3D(6, 5, 4, p, allFluid3)
	if err != nil {
		t.Fatal(err)
	}
	names2, arrays2 := s2.StateFields()
	names3, arrays3 := s3.StateFields()
	for _, c := range []struct {
		schema func() (string, []string)
		method string
		names  []string
		arrays [][]float64
		n      int
	}{
		{DumpSchema2D, s2.MethodName(), names2, arrays2, len(s2.Rho.Data())},
		{DumpSchema3D, s3.MethodName(), names3, arrays3, len(s3.Rho.Data())},
	} {
		method, names := c.schema()
		if method != c.method || !slices.Equal(names, c.names) || len(c.arrays) != len(names) {
			t.Errorf("schema (%q, %v), solver states (%q, %v, %d arrays)", method, names, c.method, c.names, len(c.arrays))
		}
		for k, a := range c.arrays {
			if len(a) != c.n {
				t.Errorf("%s state array %q has %d values, want %d", method, names[k], len(a), c.n)
			}
		}
	}
}
