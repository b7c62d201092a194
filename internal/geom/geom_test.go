package geom

import (
	"math"
	"testing"

	"repro/internal/decomp"
	"repro/internal/fluid"
)

func TestFluePipeTopology(t *testing.T) {
	m := FluePipe(200, 125)
	// Enclosed by walls except inlet/outlet slots.
	inlets, outlets := 0, 0
	for y := 0; y < 125; y++ {
		switch m.At(0, y) {
		case fluid.Inlet:
			inlets++
		case fluid.Wall:
		default:
			t.Fatalf("left border at y=%d is %v", y, m.At(0, y))
		}
		switch m.At(199, y) {
		case fluid.Outlet:
			outlets++
		case fluid.Wall:
		default:
			t.Fatalf("right border at y=%d is %v", y, m.At(199, y))
		}
	}
	if inlets == 0 {
		t.Error("no inlet slot")
	}
	if outlets == 0 {
		t.Error("no outlet slot")
	}
	// Top and bottom borders are solid.
	for x := 0; x < 200; x++ {
		if m.At(x, 0) != fluid.Wall || m.At(x, 124) != fluid.Wall {
			t.Fatalf("border open at x=%d", x)
		}
	}
	// The sharp edge exists: wall cells strictly inside the domain near
	// the jet axis.
	jetY := 68 // frac(125, 0.55)
	foundEdge := false
	for x := 60; x < 120 && !foundEdge; x++ {
		if m.At(x, jetY-2) == fluid.Wall {
			foundEdge = true
		}
	}
	if !foundEdge {
		t.Error("no sharp edge in front of the jet")
	}
	// There is open fluid between inlet and edge (the jet's path).
	if m.At(30, jetY) != fluid.Interior {
		t.Error("jet path blocked")
	}
	// The resonant pipe: a wall duct along the bottom with fluid inside.
	pipeTop := 37 // frac(125, 0.30)
	if m.At(100, pipeTop) != fluid.Wall {
		t.Error("pipe top wall missing")
	}
	if m.At(100, pipeTop/2) != fluid.Interior {
		t.Error("pipe interior blocked")
	}
}

func TestFluePipeChannelHasInactiveSubregions(t *testing.T) {
	// The figure-2 property: a (6 x 4) decomposition of the channel
	// geometry leaves some subregions entirely solid.
	m := FluePipeChannel(240, 160)
	d, err := decomp.New2D(6, 4, 240, 160, decomp.Full)
	if err != nil {
		t.Fatal(err)
	}
	n := d.DeactivateWalls(m.Solid)
	if n == 0 {
		t.Error("no all-wall subregions; figure-2 geometry should have some")
	}
	if d.P() == 0 || d.P() >= 24 {
		t.Errorf("active subregions = %d, want within (0, 24)", d.P())
	}
	// Outlet is on the top border.
	found := false
	for x := 0; x < 240; x++ {
		if m.At(x, 159) == fluid.Outlet {
			found = true
			break
		}
	}
	if !found {
		t.Error("figure-2 outlet should be on the top wall")
	}
}

func TestFluePipeRunsStably(t *testing.T) {
	// Short LB run on the flue pipe: the jet enters, nothing blows up,
	// and vorticity appears near the sharp edge.
	nx, ny := 120, 75
	m := FluePipe(nx, ny)
	p := fluid.DefaultParams()
	p.Nu = 0.02
	p.Eps = 0.01
	p.InletVx = 0.08
	p.InletRho = 1.0
	p.OutletRho = 1.0
	s := newLBSolver(t, nx, ny, p, m)
	for i := 0; i < 400; i++ {
		s.StepSerial(false, false)
	}
	if v := s.Vx.MaxAbsInterior(); v > 0.5 || v < 0.01 {
		t.Errorf("jet velocity out of range: %v", v)
	}
	maxVort := 0.0
	for y := 2; y < ny-2; y++ {
		for x := 2; x < nx-2; x++ {
			if m.At(x, y) != fluid.Interior {
				continue
			}
			// The curl dVy/dx - dVx/dy by centered differences.
			w := 0.5*(s.Vy.At(x+1, y)-s.Vy.At(x-1, y)) - 0.5*(s.Vx.At(x, y+1)-s.Vx.At(x, y-1))
			if w > maxVort {
				maxVort = w
			}
		}
	}
	if maxVort < 1e-4 {
		t.Errorf("no vorticity generated by the jet: %v", maxVort)
	}
}

// TestJetOscillation reproduces the paper's headline phenomenon (section
// 2): "when a jet of air impinges a sharp obstacle in the vicinity of a
// resonant cavity, the jet begins to oscillate strongly, and it produces
// audible musical tones." At a probe just above the labium the transverse
// velocity must develop a sustained oscillation: repeated sign reversals
// at a significant fraction of the jet speed, not a decaying transient.
func TestJetOscillation(t *testing.T) {
	if testing.Short() {
		t.Skip("long flue-pipe run")
	}
	nx, ny := 160, 100
	m := FluePipe(nx, ny)
	p := fluid.DefaultParams()
	p.Nu = 0.008 // fast jet, high Reynolds: the regime the filter exists for
	p.Eps = 0.015
	p.InletVx = 0.12
	p.InletRho, p.OutletRho = 1, 1
	s := newLBSolver(t, nx, ny, p, m)
	px, py := 52, 57 // just above the labium apex
	if m.At(px, py) != fluid.Interior {
		t.Fatalf("probe sits on %v", m.At(px, py))
	}
	var probe []float64
	const steps = 6000
	for i := 0; i < steps; i++ {
		s.StepSerial(false, false)
		if i%10 == 0 {
			probe = append(probe, s.Vy.At(px, py))
		}
	}
	// Analyse the second half: onset transients discarded.
	half := probe[len(probe)/2:]
	crossings, prev := 0, 0.0
	amp := 0.0
	for _, v := range half {
		if (v > 0 && prev < 0) || (v < 0 && prev > 0) {
			crossings++
		}
		if v != 0 {
			prev = v
		}
		if a := math.Abs(v); a > amp {
			amp = a
		}
	}
	if crossings < 3 {
		t.Errorf("jet did not oscillate: %d sign reversals in the last %d steps", crossings, steps/2)
	}
	if amp < 0.2*p.InletVx {
		t.Errorf("oscillation amplitude %.4f too weak relative to the jet (%.3f)", amp, p.InletVx)
	}
	if v := s.Vx.MaxAbsInterior(); v > 0.5 {
		t.Errorf("simulation unstable: max velocity %.3f", v)
	}
}
