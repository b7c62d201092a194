package lbm

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/decomp"
	"repro/internal/fluid"
)

func maskFrom(m *fluid.Mask2D) func(x, y int) fluid.CellType {
	return func(x, y int) fluid.CellType { return m.At(x, y) }
}

func allFluid(x, y int) fluid.CellType { return fluid.Interior }

func TestLatticeInvariants(t *testing.T) {
	// Weights sum to one; velocity moments vanish; second moment gives
	// c_s^2 = 1/3 on both lattices.
	sw, sx, sy := 0.0, 0.0, 0.0
	xx, yy, xy := 0.0, 0.0, 0.0
	for i := 0; i < Q2; i++ {
		sw += w2[i]
		sx += w2[i] * float64(cx2[i])
		sy += w2[i] * float64(cy2[i])
		xx += w2[i] * float64(cx2[i]*cx2[i])
		yy += w2[i] * float64(cy2[i]*cy2[i])
		xy += w2[i] * float64(cx2[i]*cy2[i])
	}
	if math.Abs(sw-1) > 1e-15 || math.Abs(sx) > 1e-15 || math.Abs(sy) > 1e-15 {
		t.Errorf("D2Q9 low moments wrong: %v %v %v", sw, sx, sy)
	}
	if math.Abs(xx-1.0/3) > 1e-15 || math.Abs(yy-1.0/3) > 1e-15 || math.Abs(xy) > 1e-15 {
		t.Errorf("D2Q9 second moments wrong: %v %v %v", xx, yy, xy)
	}
	sw = 0
	var m3 [3]float64
	var mm [3][3]float64
	for i := 0; i < Q3; i++ {
		sw += w3[i]
		c := [3]int{cx3[i], cy3[i], cz3[i]}
		for a := 0; a < 3; a++ {
			m3[a] += w3[i] * float64(c[a])
			for b := 0; b < 3; b++ {
				mm[a][b] += w3[i] * float64(c[a]*c[b])
			}
		}
	}
	if math.Abs(sw-1) > 1e-15 {
		t.Errorf("D3Q15 weights sum %v", sw)
	}
	for a := 0; a < 3; a++ {
		if math.Abs(m3[a]) > 1e-15 {
			t.Errorf("D3Q15 first moment[%d] = %v", a, m3[a])
		}
		for b := 0; b < 3; b++ {
			want := 0.0
			if a == b {
				want = 1.0 / 3
			}
			if math.Abs(mm[a][b]-want) > 1e-15 {
				t.Errorf("D3Q15 second moment[%d][%d] = %v, want %v", a, b, mm[a][b], want)
			}
		}
	}
}

func TestOppositesAndOutgoing(t *testing.T) {
	for i := 0; i < Q2; i++ {
		j := opp2[i]
		if cx2[j] != -cx2[i] || cy2[j] != -cy2[i] {
			t.Errorf("opp2[%d] = %d is not the reverse vector", i, j)
		}
	}
	for i := 0; i < Q3; i++ {
		j := opp3[i]
		if cx3[j] != -cx3[i] || cy3[j] != -cy3[i] || cz3[j] != -cz3[i] {
			t.Errorf("opp3[%d] = %d is not the reverse vector", i, j)
		}
	}
	// Each moving population appears in exactly one side set per axis it
	// moves along, and the side sets have 3 members.
	for _, d := range []decomp.Dir{decomp.East, decomp.West, decomp.North, decomp.South} {
		if len(outgoing2[d]) != 3 {
			t.Errorf("side %v carries %d populations, want 3", d, len(outgoing2[d]))
		}
		dx, dy, _ := d.Delta()
		for _, i := range outgoing2[d] {
			if cx2[i]*dx+cy2[i]*dy <= 0 {
				t.Errorf("population %d does not cross side %v", i, d)
			}
		}
	}
	// 3D: five populations cross each face (the paper's 5 variables/node).
	for _, d := range decomp.Faces() {
		if got := len(crossing3(d)); got != 5 {
			t.Errorf("face %v carries %d populations, want 5", d, got)
		}
	}
}

func TestEquilibriumMoments(t *testing.T) {
	rho, vx, vy := 1.05, 0.08, -0.03
	var srho, sx, sy float64
	for i := 0; i < Q2; i++ {
		f := feq2(i, rho, vx, vy)
		srho += f
		sx += f * float64(cx2[i])
		sy += f * float64(cy2[i])
	}
	if math.Abs(srho-rho) > 1e-14 {
		t.Errorf("equilibrium density %v, want %v", srho, rho)
	}
	if math.Abs(sx-rho*vx) > 1e-14 || math.Abs(sy-rho*vy) > 1e-14 {
		t.Errorf("equilibrium momentum (%v,%v), want (%v,%v)", sx, sy, rho*vx, rho*vy)
	}
	var s3, s3x, s3y, s3z float64
	vz := 0.05
	for i := 0; i < Q3; i++ {
		f := feq3(i, rho, vx, vy, vz)
		s3 += f
		s3x += f * float64(cx3[i])
		s3y += f * float64(cy3[i])
		s3z += f * float64(cz3[i])
	}
	if math.Abs(s3-rho) > 1e-14 || math.Abs(s3x-rho*vx) > 1e-14 ||
		math.Abs(s3y-rho*vy) > 1e-14 || math.Abs(s3z-rho*vz) > 1e-14 {
		t.Error("D3Q15 equilibrium moments wrong")
	}
}

func TestTauNuRoundTrip(t *testing.T) {
	for _, nu := range []float64{0.01, 0.05, 1.0 / 6} {
		if got := (TauFromNu(nu) - 0.5) / 3; math.Abs(got-nu) > 1e-15 {
			t.Errorf("nu from TauFromNu(%v) = %v", nu, got)
		}
	}
}

func channelParams(nu, g float64) fluid.Params {
	p := fluid.DefaultParams()
	p.Nu = nu
	p.Eps = 0.005
	p.ForceX = g
	return p
}

// TestPoiseuilleProfile drives a periodic LB channel to steady state. With
// full-way bounce-back the physical walls sit half a node outside the last
// fluid nodes, so the profile is compared against plates at y = 0.5 and
// y = ny - 1.5.
func TestPoiseuilleProfile(t *testing.T) {
	nx, ny := 8, 21
	nu, g := 0.1, 1e-5
	s, err := NewSolver2D(nx, ny, channelParams(nu, g), maskFrom(fluid.ChannelMask2D(nx, ny)))
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 6000; step++ {
		s.StepSerial(true, false)
	}
	y0, y1 := 0.5, float64(ny)-1.5
	umax := fluid.PoiseuilleMax(y0, y1, g, nu)
	maxRel := 0.0
	for y := 1; y < ny-1; y++ {
		want := fluid.PoiseuilleProfile(float64(y), y0, y1, g, nu)
		got := s.Vx.At(nx/2, y)
		if rel := math.Abs(got-want) / umax; rel > maxRel {
			maxRel = rel
		}
	}
	if maxRel > 0.02 {
		t.Errorf("LB Poiseuille relative error %.4g, want < 2%%", maxRel)
	}
}

// TestPoiseuilleConvergence checks that the wall error of the LB method
// shrinks roughly quadratically with resolution (the paper: both methods
// converge quadratically to the exact Hagen-Poiseuille solution).
func TestPoiseuilleConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("resolution sweep is slow")
	}
	nu := 0.1
	errAt := func(ny int) float64 {
		// Scale the force so the centreline velocity is resolution-
		// independent (fixed Mach), and run to steady state.
		h := float64(ny) - 2
		g := 0.01 * 2 * nu / (h * h / 4)
		s, err := NewSolver2D(4, ny, channelParams(nu, g), maskFrom(fluid.ChannelMask2D(4, ny)))
		if err != nil {
			t.Fatal(err)
		}
		steps := int(6 * h * h / nu)
		for i := 0; i < steps; i++ {
			s.StepSerial(true, false)
		}
		y0, y1 := 0.5, float64(ny)-1.5
		umax := fluid.PoiseuilleMax(y0, y1, g, nu)
		worst := 0.0
		for y := 1; y < ny-1; y++ {
			want := fluid.PoiseuilleProfile(float64(y), y0, y1, g, nu)
			if rel := math.Abs(s.Vx.At(2, y)-want) / umax; rel > worst {
				worst = rel
			}
		}
		return worst
	}
	coarse, fine := errAt(11), errAt(21)
	// Doubling the resolution should cut the error by ~4; accept > 2.5 to
	// absorb the compressibility floor.
	if coarse/fine < 2.5 {
		t.Errorf("convergence ratio %.2f (coarse %.3g, fine %.3g), want > 2.5",
			coarse/fine, coarse, fine)
	}
}

// TestMassConservation: bounce-back walls, periodic wrap and body forcing
// all conserve mass exactly (the forcing term's zeroth moment vanishes).
func TestMassConservation(t *testing.T) {
	nx, ny := 16, 12
	p := channelParams(0.05, 1e-5)
	p.Eps = 0 // the filter acts on rho and is not conservative
	s, err := NewSolver2D(nx, ny, p, maskFrom(fluid.ChannelMask2D(nx, ny)))
	if err != nil {
		t.Fatal(err)
	}
	mass := func() float64 {
		total := 0.0
		for i := 0; i < Q2; i++ {
			total += s.F[i].SumInterior()
		}
		return total
	}
	m0 := mass()
	for i := 0; i < 300; i++ {
		s.StepSerial(true, false)
	}
	if rel := math.Abs(mass()-m0) / m0; rel > 1e-12 {
		t.Errorf("population mass drifted by %.3g", rel)
	}
}

// TestShearWaveDecay measures the viscosity of a decaying shear wave,
// nu_eff = -ln(Vx/amp) / (k^2 steps), with the filter off and on. Filter
// off it is the BGK viscosity nu = (tau-1/2)/3; the filter adds a shift
// linear in eps. A change that keeps every conservation law can still move
// a transport coefficient (Cha et al.), so each nu_eff/nu is pinned to
// four decimals.
func TestShearWaveDecay(t *testing.T) {
	const n, nu, amp, steps = 32, 0.05, 1e-4, 400
	k := 2 * math.Pi / float64(n)
	ratio := map[float64]float64{}
	for _, c := range []struct{ eps, want float64 }{{0, 1.00673}, {0.01, 1.01585}, {0.02, 1.02498}} {
		p := fluid.DefaultParams()
		p.Nu = nu
		p.Eps = c.eps
		s, err := NewSolver2D(n, n, p, allFluid)
		if err != nil {
			t.Fatal(err)
		}
		for y := -1; y <= n; y++ {
			for x := -1; x <= n; x++ {
				s.Vx.Set(x, y, amp*math.Sin(k*float64(y)))
			}
		}
		s.InitEquilibrium()
		for i := 0; i < steps; i++ {
			s.StepSerial(true, true)
		}
		got := s.Vx.At(0, n/4)
		nuEff := -math.Log(got/amp) / (k * k * steps)
		ratio[c.eps] = nuEff / nu
		t.Logf("eps %v: nu_eff %.6g, nu_eff/nu %.5f", c.eps, nuEff, ratio[c.eps])
		if math.Abs(ratio[c.eps]-c.want) > 5e-5 {
			t.Errorf("eps %v: nu_eff/nu %.5f, want %.5f", c.eps, ratio[c.eps], c.want)
		}
		if want := amp * math.Exp(-nu*k*k*steps); c.eps == 0 && math.Abs(got-want)/want > 0.02 {
			t.Errorf("LB shear decay: got %.6g want %.6g", got, want)
		}
	}
	if d1, d2 := ratio[0.01]-ratio[0], ratio[0.02]-ratio[0]; math.Abs(d2/(2*d1)-1) > 0.05 {
		t.Errorf("filter's viscosity shift not linear in eps: %.5f at 0.01, %.5f at 0.02", d1, d2)
	}
}

// TestStationaryEquilibrium: a uniform fluid at rest stays exactly at rest.
func TestStationaryEquilibrium(t *testing.T) {
	s, err := NewSolver2D(10, 10, fluid.DefaultParams(), allFluid)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		s.StepSerial(true, true)
	}
	if v := s.Vx.MaxAbsInterior() + s.Vy.MaxAbsInterior(); v > 1e-14 {
		t.Errorf("spurious velocity %.3g in uniform fluid", v)
	}
	for y := 0; y < 10; y++ {
		for x := 0; x < 10; x++ {
			if math.Abs(s.Rho.At(x, y)-1) > 1e-14 {
				t.Fatalf("density drifted at (%d,%d): %v", x, y, s.Rho.At(x, y))
			}
		}
	}
}

// TestTrimRegions verifies the diagonal-population side trimming that keeps
// exactly one writer per receiving node (corner values travel on corner
// paths, never on side paths).
func TestTrimRegions(t *testing.T) {
	s, err := NewSolver2D(8, 6, fluid.DefaultParams(), allFluid)
	if err != nil {
		t.Fatal(err)
	}
	// East side, population 5 (c = (1,1)): the y=0 entry is corner-owned.
	r := s.sendRegion(5, decomp.East)
	if r.Y0 != 1 || r.NY != 5 {
		t.Errorf("East pop5 region %v, want Y0=1 NY=5", r)
	}
	// East side, population 8 (c = (1,-1)): the top entry is trimmed.
	r = s.sendRegion(8, decomp.East)
	if r.Y0 != 0 || r.NY != 5 {
		t.Errorf("East pop8 region %v, want Y0=0 NY=5", r)
	}
	// Axis population 1 is untrimmed.
	r = s.sendRegion(1, decomp.East)
	if r.Y0 != 0 || r.NY != 6 {
		t.Errorf("East pop1 region %v, want full side", r)
	}
	// Corner regions stay 1x1.
	r = s.sendRegion(5, decomp.NorthEast)
	if r.Len() != 1 {
		t.Errorf("corner region %v, want single node", r)
	}
	// Sender and receiver regions have matching sizes.
	for _, d := range decomp.Dirs(decomp.Full) {
		for _, i := range outgoing2[d] {
			send := s.sendRegion(i, d)
			recv := s.recvRegion(i, d.Opposite())
			if send.Len() != recv.Len() {
				t.Errorf("dir %v pop %d: send %v recv %v", d, i, send, recv)
			}
		}
	}
}

// TestMsgLenMatchesPack checks the packed sizes against section 6: three
// populations per side node less the two the corners carry (3L-2 for a side
// of length L), one value per corner.
func TestMsgLenMatchesPack(t *testing.T) {
	s, err := NewSolver2D(9, 7, fluid.DefaultParams(), allFluid)
	if err != nil {
		t.Fatal(err)
	}
	want := map[decomp.Dir]int{
		decomp.West: 3*7 - 2, decomp.East: 3*7 - 2, decomp.South: 3*9 - 2, decomp.North: 3*9 - 2,
		decomp.SouthWest: 1, decomp.SouthEast: 1, decomp.NorthWest: 1, decomp.NorthEast: 1,
	}
	for _, d := range decomp.Dirs(decomp.Full) {
		if got := len(s.Pack(0, d, nil)); got != want[d] {
			t.Errorf("dir %v: packed %d values, want %d", d, got, want[d])
		}
	}
}

// TestExchangeDirs2D: what the driver asks of the 2D solver — the full
// stencil's directions after the relax+shift phase, none after the
// macroscopics phase.
func TestExchangeDirs2D(t *testing.T) {
	s, err := NewSolver2D(9, 7, fluid.DefaultParams(), allFluid)
	if err != nil {
		t.Fatal(err)
	}
	for ph := 0; ph < s.Phases(); ph++ {
		var want []decomp.Dir
		if s.Exchanges(ph) {
			want = decomp.Dirs(decomp.Full)
		}
		if got := s.ExchangeDirs(ph); !slices.Equal(got, want) {
			t.Errorf("ExchangeDirs(%d) = %v, want %v", ph, got, want)
		}
	}
}

// TestEquilibriumMomentsProperty: the D2Q9 equilibrium reproduces density
// and momentum for arbitrary (subsonic) states — the invariant that makes
// BGK relaxation conserve mass and momentum.
func TestEquilibriumMomentsProperty(t *testing.T) {
	f := func(r8, vx8, vy8 int8) bool {
		rho := 1 + float64(r8)/1000 // near unity
		vx := float64(vx8) / 1000   // |v| << c_s
		vy := float64(vy8) / 1000
		var srho, sx, sy float64
		for i := 0; i < Q2; i++ {
			fi := feq2(i, rho, vx, vy)
			srho += fi
			sx += fi * float64(cx2[i])
			sy += fi * float64(cy2[i])
		}
		return math.Abs(srho-rho) < 1e-13 &&
			math.Abs(sx-rho*vx) < 1e-13 && math.Abs(sy-rho*vy) < 1e-13
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestRelaxConservesProperty: one relax+stream step at a random subsonic
// state, wrapped periodically, conserves total mass and momentum (no
// forcing), on both lattices: relaxation conserves them node by node and
// streaming only moves populations.
func TestRelaxConservesProperty(t *testing.T) {
	f := func(seed int8) bool {
		p := fluid.DefaultParams()
		p.Nu = 0.08
		p.Eps = 0
		s, err := NewSolver2D(4, 4, p, allFluid)
		if err != nil {
			return false
		}
		// Perturb populations deterministically from the seed.
		for i := 0; i < Q2; i++ {
			for y := 0; y < 4; y++ {
				for x := 0; x < 4; x++ {
					d := float64((int(seed)+i*7+x*3+y*5)%11) / 5000
					s.F[i].Set(x, y, s.F[i].At(x, y)+d)
				}
			}
		}
		s.Compute(1) // sync fluid variables with the perturbed F
		var m0, px0, py0 float64
		for i := 0; i < Q2; i++ {
			m0 += s.F[i].SumInterior()
			for y := 0; y < 4; y++ {
				for x := 0; x < 4; x++ {
					px0 += s.F[i].At(x, y) * float64(cx2[i])
					py0 += s.F[i].At(x, y) * float64(cy2[i])
				}
			}
		}
		s.Compute(0)
		s.selfExchange(true, true)
		var m1, px1, py1 float64
		for i := 0; i < Q2; i++ {
			m1 += s.F[i].SumInterior()
			for y := 0; y < 4; y++ {
				for x := 0; x < 4; x++ {
					px1 += s.F[i].At(x, y) * float64(cx2[i])
					py1 += s.F[i].At(x, y) * float64(cy2[i])
				}
			}
		}
		return math.Abs(m1-m0) < 1e-12 && math.Abs(px1-px0) < 1e-12 && math.Abs(py1-py0) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}

	// D3Q15: relax, the three ghost-fill sweeps and the pull stream in a
	// periodic 4x4x4 box.
	const n = 4
	moments3 := func(s *Solver3D) (m [4]float64) {
		for i := 0; i < Q3; i++ {
			for z := 0; z < n; z++ {
				for y := 0; y < n; y++ {
					for x := 0; x < n; x++ {
						f := s.F[i].At(x, y, z)
						m[0] += f
						m[1] += f * float64(cx3[i])
						m[2] += f * float64(cy3[i])
						m[3] += f * float64(cz3[i])
					}
				}
			}
		}
		return m
	}
	f3 := func(seed int8) bool {
		p := fluid.DefaultParams()
		p.Nu = 0.08
		p.Eps = 0
		s, err := NewSolver3D(n, n, n, p, allFluid3)
		if err != nil {
			return false
		}
		// Perturb populations deterministically from the seed, then set the
		// fluid variables to the perturbed moments, as the previous step's
		// stream would have.
		for z := 0; z < n; z++ {
			for y := 0; y < n; y++ {
				for x := 0; x < n; x++ {
					rho, mx, my, mz := 0.0, 0.0, 0.0, 0.0
					for i := 0; i < Q3; i++ {
						d := float64((int(seed)+i*7+x*3+y*5+z*11)%13) / 5000
						f := s.F[i].At(x, y, z) + d
						s.F[i].Set(x, y, z, f)
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
		m0 := moments3(s)
		s.StepSerial(true, true, true)
		m1 := moments3(s)
		for k := range m0 {
			if math.Abs(m1[k]-m0[k]) >= 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f3, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestInletOutletThroughflow: a jet enters from the left inlet and leaves
// through the right outlet; a rightward stream develops and stays stable
// (the flue-pipe boundary conditions in isolation).
func TestInletOutletThroughflow(t *testing.T) {
	nx, ny := 30, 12
	m := fluid.ChannelMask2D(nx, ny)
	for y := 1; y < ny-1; y++ {
		m.Set(0, y, fluid.Inlet)
		m.Set(nx-1, y, fluid.Outlet)
	}
	p := fluid.DefaultParams()
	p.Nu = 0.05
	p.Eps = 0.005
	p.InletVx = 0.05
	s, err := NewSolver2D(nx, ny, p, maskFrom(m))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 800; i++ {
		s.StepSerial(false, false)
	}
	if mid := s.Vx.At(nx/2, ny/2); mid < 0.01 {
		t.Errorf("midstream velocity %.4g, want rightward flow > 0.01", mid)
	}
	if v := s.Vx.MaxAbsInterior(); v > 0.5 {
		t.Errorf("unstable: max velocity %.3g", v)
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

// TestDumpRestoreRoundTrip: the StateFields carry the 2D and 3D solvers
// bit-for-bit, including ghost storage, mid-simulation.
func TestDumpRestoreRoundTrip(t *testing.T) {
	nx, ny := 12, 10
	p := channelParams(0.08, 1e-5)
	a, err := NewSolver2D(nx, ny, p, maskFrom(fluid.ChannelMask2D(nx, ny)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 37; i++ {
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
	for i := 0; i < Q2; i++ {
		if !a.F[i].InteriorEqual(b.F[i], 0) {
			t.Fatalf("population %d diverged after restore", i)
		}
	}

	// 3D, restored after an odd and after an even step count: a step swaps
	// F with nF, which no dump holds.
	m3 := jetMask3D(9, 7, 6)
	mask3 := mask3From(m3)
	p3 := testParams()
	for _, at := range []int{13, 14} {
		a, err := NewSolver3D(9, 7, 6, p3, mask3)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < at; i++ {
			a.StepSerial(false, false, true)
		}
		b, err := NewGeometry3D(9, 7, 6, p3, mask3)
		if err != nil {
			t.Fatal(err)
		}
		copyState(b, a)
		for i := 0; i < 10; i++ {
			a.StepSerial(false, false, true)
			b.StepSerial(false, false, true)
		}
		name := fmt.Sprintf("3D restored after %d steps: ", at)
		for i := 0; i < Q3; i++ {
			compareBits(t, name+fmt.Sprintf("F[%d]", i), a.F[i].Data(), b.F[i].Data())
		}
		compareBits(t, name+"Rho", a.Rho.Data(), b.Rho.Data())
		compareBits(t, name+"Vx", a.Vx.Data(), b.Vx.Data())
		compareBits(t, name+"Vy", a.Vy.Data(), b.Vy.Data())
		compareBits(t, name+"Vz", a.Vz.Data(), b.Vz.Data())
	}
}

// TestDumpSchemaMatchesSolvers: DumpSchema2D/3D name exactly the solvers'
// StateFields, in order, and a geometry-only solver restored from a dump equals one
// that was built at rest first.
func TestDumpSchemaMatchesSolvers(t *testing.T) {
	p := channelParams(0.08, 1e-5)
	s2, err := NewSolver2D(6, 5, p, allFluid)
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

	g3, err := NewGeometry3D(6, 5, 4, p, allFluid3)
	if err != nil {
		t.Fatal(err)
	}
	copyState(g3, s3)
	for i := 0; i < Q3; i++ {
		if !slices.Equal(g3.F[i].Data(), s3.F[i].Data()) || !slices.Equal(g3.nF[i].Data(), s3.nF[i].Data()) {
			t.Fatalf("population %d of the restored geometry differs from the solver's", i)
		}
	}
}
