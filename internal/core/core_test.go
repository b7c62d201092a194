package core

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/decomp"
	"repro/internal/fluid"
	"repro/internal/msg"
	"repro/internal/registry"
)

// channelConfig builds a periodic-channel test problem with a gentle body
// force and a density ripple, so every field evolves nontrivially.
func channelConfig(t *testing.T, method string, jx, jy, gx, gy int) *Config2D {
	t.Helper()
	st := decomp.Star
	if method == MethodLB {
		st = decomp.Full
	}
	d, err := decomp.New2D(jx, jy, gx, gy, st)
	if err != nil {
		t.Fatal(err)
	}
	d.PeriodicX = true
	p := fluid.DefaultParams()
	p.Nu = 0.1
	p.Eps = 0.01
	p.ForceX = 1e-5
	return &Config2D{
		Method: method,
		Par:    p,
		Mask:   fluid.ChannelMask2D(gx, gy),
		D:      d,
		InitRho: func(x, y int) float64 {
			return 1 + 0.001*math.Sin(2*math.Pi*float64(x)/float64(gx))
		},
	}
}

func resultsEqual(a, b *Result2D, tol float64) (bool, int, int, float64) {
	if a.NX != b.NX || a.NY != b.NY {
		return false, -1, -1, 0
	}
	for y := 0; y < a.NY; y++ {
		for x := 0; x < a.NX; x++ {
			i := y*a.NX + x
			for _, pair := range [][2][]float64{{a.Rho, b.Rho}, {a.Vx, b.Vx}, {a.Vy, b.Vy}} {
				if d := math.Abs(pair[0][i] - pair[1][i]); !(d <= tol) { // a NaN differs too
					return false, x, y, d
				}
			}
		}
	}
	return true, 0, 0, 0
}

// TestParallelMatchesSequentialLB: the goroutine-parallel run over the
// channel transport is bitwise identical to the sequential phase-lockstep
// execution of the same decomposition (lattice Boltzmann, filter on).
func TestParallelMatchesSequentialLB(t *testing.T) {
	cfg := channelConfig(t, MethodLB, 3, 2, 36, 24)
	const steps = 25
	seq, _, err := RunSequential2D(cfg, steps)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := channelConfig(t, MethodLB, 3, 2, 36, 24)
	par, err := RunParallel2D(cfg2, steps, HubFactory())
	if err != nil {
		t.Fatal(err)
	}
	if ok, x, y, d := resultsEqual(seq, par, 0); !ok {
		t.Errorf("parallel differs from sequential at (%d,%d) by %g", x, y, d)
	}
}

// TestParallelMatchesSequentialFD: same check for finite differences,
// whose cycle has two exchanges per step.
func TestParallelMatchesSequentialFD(t *testing.T) {
	cfg := channelConfig(t, MethodFD, 2, 3, 30, 27)
	const steps = 25
	seq, _, err := RunSequential2D(cfg, steps)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := channelConfig(t, MethodFD, 2, 3, 30, 27)
	par, err := RunParallel2D(cfg2, steps, HubFactory())
	if err != nil {
		t.Fatal(err)
	}
	if ok, x, y, d := resultsEqual(seq, par, 0); !ok {
		t.Errorf("parallel differs from sequential at (%d,%d) by %g", x, y, d)
	}
}

// TestDecompositionInvariance: with the filter disabled the numerics have
// no seam dependence, so a 1x1 "serial" run and a 4x2 decomposed run agree
// bitwise (the paper's parallel program as a straightforward extension of
// the serial program).
func TestDecompositionInvariance(t *testing.T) {
	for _, method := range []string{MethodFD, MethodLB} {
		serialCfg := channelConfig(t, method, 1, 1, 32, 16)
		serialCfg.Par.Eps = 0
		parCfg := channelConfig(t, method, 4, 2, 32, 16)
		parCfg.Par.Eps = 0
		const steps = 20
		a, _, err := RunSequential2D(serialCfg, steps)
		if err != nil {
			t.Fatal(err)
		}
		b, err := RunParallel2D(parCfg, steps, HubFactory())
		if err != nil {
			t.Fatal(err)
		}
		if ok, x, y, d := resultsEqual(a, b, 0); !ok {
			t.Errorf("%s: decomposition changed the solution at (%d,%d) by %g", method, x, y, d)
		}
	}
}

// TestFilterSeamEffectIsSmall: with the filter on, the seam skip zones make
// decomposed runs differ from the 1x1 run, but only at the level of the
// filter correction itself.
func TestFilterSeamEffectIsSmall(t *testing.T) {
	serialCfg := channelConfig(t, MethodLB, 1, 1, 32, 16)
	parCfg := channelConfig(t, MethodLB, 4, 2, 32, 16)
	const steps = 50
	a, _, err := RunSequential2D(serialCfg, steps)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunParallel2D(parCfg, steps, HubFactory())
	if err != nil {
		t.Fatal(err)
	}
	// The runs must differ (the seam skip zones are real)...
	if ok, _, _, _ := resultsEqual(a, b, 0); ok {
		t.Error("filtered runs identical across decompositions; seam zones inert?")
	}
	// ...but only within the size of the perturbation being filtered
	// (the initial ripple has amplitude 1e-3).
	if ok, x, y, d := resultsEqual(a, b, 1e-3); !ok {
		t.Errorf("seam effect too large at (%d,%d): %g", x, y, d)
	}
}

// tcpFactory opens TCP transports that publish in a fresh registry.
func tcpFactory(t *testing.T) TransportFactory {
	t.Helper()
	reg, err := registry.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return func(rank, epoch int) (msg.Transport, error) {
		return msg.NewTCP(rank, epoch, reg)
	}
}

// TestTCPMatchesHub: the TCP transport on loopback produces the same
// solution as the in-process channel transport, on a 2x2 lattice
// Boltzmann run (sides and corners) and on a periodic finite-difference
// ring of three, where every phase's batch goes to two peers.
func TestTCPMatchesHub(t *testing.T) {
	for _, c := range []struct {
		method                string
		jx, jy, gx, gy, steps int
	}{
		{MethodLB, 2, 2, 24, 16, 10},
		{MethodFD, 3, 1, 36, 12, 15},
	} {
		t.Run(fmt.Sprintf("%s_%dx%d", c.method, c.jx, c.jy), func(t *testing.T) {
			a, err := RunParallel2D(channelConfig(t, c.method, c.jx, c.jy, c.gx, c.gy), c.steps, HubFactory())
			if err != nil {
				t.Fatal(err)
			}
			b, err := RunParallel2D(channelConfig(t, c.method, c.jx, c.jy, c.gx, c.gy), c.steps, tcpFactory(t))
			if err != nil {
				t.Fatal(err)
			}
			if ok, x, y, d := resultsEqual(a, b, 0); !ok {
				t.Errorf("TCP differs from hub at (%d,%d) by %g", x, y, d)
			}
		})
	}
}

// periodicConfig3D is a filtered 12x8x6 channel cut jx x jy x jz, periodic
// in X and Z as asked. With one box along a periodic axis every rank is its
// own neighbour across it and sends itself a message each exchange.
func periodicConfig3D(t *testing.T, method string, jx, jy, jz int, px, pz bool) *Config3D {
	t.Helper()
	d, err := decomp.New3D(jx, jy, jz, 12, 8, 6)
	if err != nil {
		t.Fatal(err)
	}
	d.PeriodicX, d.PeriodicZ = px, pz
	p := fluid.DefaultParams()
	p.Nu, p.Eps, p.ForceX = 0.1, 0.005, 1e-5
	return &Config3D{
		Method: method, Par: p, Mask: fluid.ChannelMask3D(12, 8, 6), D: d,
		InitRho: func(x, y, z int) float64 { return 1 + 0.001*math.Sin(2*math.Pi*float64(x+z)/12) },
	}
}

// TestTCPCarriesSelfMessages: over TCP a rank that is its own neighbour
// receives its own messages, and the run ends in the hub's bits. An LB3D
// 2x2x1 job is periodic in Z and an FD3D 1x2x1 job periodic in X.
func TestTCPCarriesSelfMessages(t *testing.T) {
	for _, c := range []struct {
		method     string
		jx, jy, jz int
		px, pz     bool
	}{
		{MethodLB, 2, 2, 1, false, true},
		{MethodFD, 1, 2, 1, true, false},
	} {
		t.Run(fmt.Sprintf("%s3D_%dx%dx%d", c.method, c.jx, c.jy, c.jz), func(t *testing.T) {
			const steps = 8
			hub, err := RunParallel3D(periodicConfig3D(t, c.method, c.jx, c.jy, c.jz, c.px, c.pz), steps, HubFactory())
			if err != nil {
				t.Fatal(err)
			}
			tcp, err := RunParallel3D(periodicConfig3D(t, c.method, c.jx, c.jy, c.jz, c.px, c.pz), steps, tcpFactory(t))
			if err != nil {
				t.Fatal(err)
			}
			if i := sameBits([][]float64{hub.Rho, hub.Vx, hub.Vy, hub.Vz}, [][]float64{tcp.Rho, tcp.Vx, tcp.Vy, tcp.Vz}); i >= 0 {
				t.Errorf("TCP differs from the hub at index %d", i)
			}
		})
	}
}

// TestPoiseuilleThroughDriver: physics through the full distributed stack.
func TestPoiseuilleThroughDriver(t *testing.T) {
	d, _ := decomp.New2D(2, 2, 16, 21, decomp.Full)
	d.PeriodicX = true
	p := fluid.DefaultParams()
	p.Nu = 0.1
	p.Eps = 0.005
	p.ForceX = 1e-5
	cfg := &Config2D{Method: MethodLB, Par: p, Mask: fluid.ChannelMask2D(16, 21), D: d}
	res, err := RunParallel2D(cfg, 6000, HubFactory())
	if err != nil {
		t.Fatal(err)
	}
	y0, y1 := 0.5, float64(21)-1.5
	umax := fluid.PoiseuilleMax(y0, y1, p.ForceX, p.Nu)
	worst := 0.0
	for y := 1; y < 20; y++ {
		want := fluid.PoiseuilleProfile(float64(y), y0, y1, p.ForceX, p.Nu)
		got := res.At(res.Vx, 8, y)
		if rel := math.Abs(got-want) / umax; rel > worst {
			worst = rel
		}
	}
	if worst > 0.02 {
		t.Errorf("distributed Poiseuille error %.4g, want < 2%%", worst)
	}
}

// TestInactiveSubregions: a geometry whose left half is wall deactivates
// subregions (figure 2: only 15 of 24 subregions employed) and still runs.
func TestInactiveSubregions(t *testing.T) {
	gx, gy := 32, 16
	mask := fluid.ChannelMask2D(gx, gy)
	mask.FillRect(0, 0, 8, gy, fluid.Wall) // left quarter is solid
	d, _ := decomp.New2D(4, 2, gx, gy, decomp.Full)
	d.PeriodicX = false
	if n := d.DeactivateWalls(mask.Solid); n != 2 {
		t.Fatalf("deactivated %d subregions, want 2", n)
	}
	p := fluid.DefaultParams()
	p.Nu = 0.1
	p.Eps = 0
	p.ForceX = 1e-5
	cfg := &Config2D{Method: MethodLB, Par: p, Mask: mask, D: d}
	seq, _, err := RunSequential2D(cfg, 15)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunParallel2D(cfg, 15, HubFactory())
	if err != nil {
		t.Fatal(err)
	}
	if par.ActiveRegions != 6 {
		t.Errorf("active regions = %d, want 6", par.ActiveRegions)
	}
	if ok, x, y, d := resultsEqual(seq, par, 0); !ok {
		t.Errorf("inactive-region runs differ at (%d,%d) by %g", x, y, d)
	}
}

// TestDecomposeSubmitRoundTrip: the decomposition program's dumps fully
// reconstruct the computation (restart-from-checkpoint correctness).
func TestDecomposeSubmitRoundTrip(t *testing.T) {
	cfg := channelConfig(t, MethodLB, 2, 2, 24, 16)
	const firstLeg, secondLeg = 12, 13

	// Reference: straight run of firstLeg+secondLeg steps.
	ref, _, err := RunSequential2D(cfg, firstLeg+secondLeg)
	if err != nil {
		t.Fatal(err)
	}

	// Run firstLeg steps, dump every rank, rebuild from dumps, continue.
	cfgB := channelConfig(t, MethodLB, 2, 2, 24, 16)
	_, progs, err := RunSequential2D(cfgB, firstLeg)
	if err != nil {
		t.Fatal(err)
	}
	progs2 := make([]*Program2D, len(progs))
	for i, p := range progs {
		st := p.DumpState(firstLeg, 0)
		np, err := cfgB.NewProgram(st.Rank)
		if err != nil {
			t.Fatal(err)
		}
		if err := np.RestoreState(st); err != nil {
			t.Fatal(err)
		}
		progs2[i] = np
	}
	if err := stepSequential(progs2, secondLeg); err != nil {
		t.Fatal(err)
	}
	got := Gather2D(cfgB, progs2, firstLeg+secondLeg)
	if ok, x, y, d := resultsEqual(ref, got, 0); !ok {
		t.Errorf("restart differs from straight run at (%d,%d) by %g", x, y, d)
	}
}

// TestParallel3DMatchesSequential: the 3D sweep exchange is exact under
// real concurrency for both methods.
func TestParallel3DMatchesSequential(t *testing.T) {
	for _, method := range []string{MethodFD, MethodLB} {
		d, err := decomp.New3D(2, 2, 2, 12, 12, 12)
		if err != nil {
			t.Fatal(err)
		}
		d.PeriodicX = true
		d.PeriodicZ = true
		p := fluid.DefaultParams()
		p.Nu = 0.1
		p.Eps = 0.005
		p.ForceX = 1e-5
		cfg := &Config3D{
			Method: method, Par: p,
			Mask: fluid.ChannelMask3D(12, 12, 12), D: d,
			InitRho: func(x, y, z int) float64 {
				return 1 + 0.001*math.Sin(2*math.Pi*float64(x)/12)
			},
		}
		const steps = 12
		seq, _, err := RunSequential3D(cfg, steps)
		if err != nil {
			t.Fatal(err)
		}
		par, err := RunParallel3D(cfg, steps, HubFactory())
		if err != nil {
			t.Fatal(err)
		}
		for i := range seq.Rho {
			if seq.Rho[i] != par.Rho[i] || seq.Vx[i] != par.Vx[i] ||
				seq.Vy[i] != par.Vy[i] || seq.Vz[i] != par.Vz[i] {
				t.Errorf("%s: 3D parallel differs from sequential at %d", method, i)
				break
			}
		}
	}
}

// TestConfigValidation covers config error paths.
func TestConfigValidation(t *testing.T) {
	d, _ := decomp.New2D(2, 2, 16, 16, decomp.Star)
	good := &Config2D{Method: MethodFD, Par: fluid.DefaultParams(), Mask: fluid.NewMask2D(16, 16), D: d}
	if err := good.Validate(); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
	bad := *good
	bad.Method = "spectral"
	if err := bad.Validate(); err == nil {
		t.Error("unknown method accepted")
	}
	bad = *good
	bad.Mask = fluid.NewMask2D(8, 8)
	if err := bad.Validate(); err == nil {
		t.Error("mismatched mask accepted")
	}
	bad = *good
	bad.Par.Nu = -1
	if err := bad.Validate(); err == nil {
		t.Error("bad params accepted")
	}
}

// TestLBOnStarDecompositionIsRefused: on a star decomposition a lattice
// Boltzmann Program has no diagonal neighbours, its corner populations are
// never exchanged and the run is silently wrong (a 2x2 periodic 16x16 run
// differed from the full-stencil one in every node after 20 steps). The
// stencil is a value the method determines, so Validate refuses the
// mismatch naming both, and nothing runs; finite differences are correct on
// either stencil and give the same bits on both.
func TestLBOnStarDecompositionIsRefused(t *testing.T) {
	config := func(method string, st decomp.Stencil) *Config2D {
		d, err := decomp.New2D(2, 2, 16, 16, st)
		if err != nil {
			t.Fatal(err)
		}
		d.PeriodicX, d.PeriodicY = true, true
		return &Config2D{Method: method, Par: fluid.DefaultParams(), Mask: fluid.NewMask2D(16, 16), D: d,
			InitRho: func(x, y int) float64 { return 1 + 0.01*math.Sin(float64(x+2*y)) }}
	}
	err := config(MethodLB, decomp.Star).Validate()
	if err == nil {
		t.Fatal("lattice Boltzmann on a star decomposition accepted")
	}
	for _, word := range []string{`"lb"`, "star", "full"} {
		if !strings.Contains(err.Error(), word) {
			t.Errorf("error %q does not name %s", err, word)
		}
	}
	if _, _, err := RunSequential2D(config(MethodLB, decomp.Star), 1); err == nil {
		t.Error("lattice Boltzmann on a star decomposition ran")
	}
	if err := config(MethodLB, decomp.Full).Validate(); err != nil {
		t.Errorf("lattice Boltzmann on a full decomposition refused: %v", err)
	}
	star, _, err := RunSequential2D(config(MethodFD, decomp.Star), 20)
	if err != nil {
		t.Fatal(err)
	}
	full, _, err := RunSequential2D(config(MethodFD, decomp.Full), 20)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(star.Rho, full.Rho) || !slices.Equal(star.Vx, full.Vx) || !slices.Equal(star.Vy, full.Vy) {
		t.Error("finite differences differ between a star and a full decomposition")
	}
}
