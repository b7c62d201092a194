package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/decomp"
	"repro/internal/fluid"
)

// TestFilterStrengthPerCut pins the effective viscosity of a periodic
// shear wave, nu_eff/nu from the amplitude's decay as in
// lbm.TestShearWaveDecay, for each method, filter strength eps and uniform
// cut of a 32x32 grid. Without the filter every cut gives the same
// number. With it the number falls as the cut gets finer: the filter
// skips every node within 2 of a subregion's side, so a finer cut filters
// fewer nodes (ROADMAP 23). These are the values before that is fixed.
func TestFilterStrengthPerCut(t *testing.T) {
	const n, nu, amp, steps = 32, 0.05, 1e-4, 400
	k := 2 * math.Pi / n
	want := map[string][3]float64{ // nu_eff/nu at cuts 1x1, 2x2, 4x4
		"lb/eps=0":    {1.00673, 1.00673, 1.00673},
		"lb/eps=0.02": {1.02498, 1.02325, 1.01156},
		"fd/eps=0":    {0.99775, 0.99775, 0.99775},
		"fd/eps=0.02": {1.00951, 1.00838, 1.00072},
	}
	for _, method := range []string{MethodLB, MethodFD} {
		for _, eps := range []float64{0, 0.02} {
			name := fmt.Sprintf("%s/eps=%g", method, eps)
			var got [3]float64
			for i, j := range []int{1, 2, 4} {
				d, err := decomp.New2D(j, j, n, n, decomp.Full)
				if err != nil {
					t.Fatal(err)
				}
				d.PeriodicX, d.PeriodicY = true, true
				p := fluid.DefaultParams()
				p.Nu, p.Eps = nu, eps
				cfg := &Config2D{
					Method: method, Par: p, Mask: fluid.NewMask2D(n, n), D: d,
					InitVx: func(x, y int) float64 { return amp * math.Sin(k*float64(y)) },
				}
				res, _, err := RunSequential2D(cfg, steps)
				if err != nil {
					t.Fatal(err)
				}
				got[i] = -math.Log(res.Vx[n/4*n]/amp) / (k * k * steps) / nu
			}
			t.Logf("%-12s nu_eff/nu at 1x1 %.5f, 2x2 %.5f, 4x4 %.5f", name, got[0], got[1], got[2])
			if eps == 0 && (math.Abs(got[1]-got[0]) > 5e-6 || math.Abs(got[2]-got[0]) > 5e-6) {
				t.Errorf("%s: the cuts disagree without the filter", name)
			}
			for i, cut := range []string{"1x1", "2x2", "4x4"} {
				if math.Abs(got[i]-want[name][i]) > 1e-5 {
					t.Errorf("%s at %s: nu_eff/nu %.5f, want %.5f", name, cut, got[i], want[name][i])
				}
			}
		}
	}
}

// TestFilterKeepsShearLayerBounded pins what the filter is for (section
// 6): a periodic 64x64 double shear layer at high Reynolds number
// (layers at y = 16 and 48, U = 0.08, thickness 2, a 5% sine kick in
// vy) goes unbounded without the filter and stays bounded with it, at
// 1x1, for both methods. At 4x4 the filtered run diverges too: its
// seams lie on both shear layers, and the filter skips every node within
// 2 of a subregion's side, so the cut removes the filter where the run
// needs it. That row is the "before" of ROADMAP 23(b), which filters the
// seams and must turn it into bounded and bit-equal to 1x1. A run is
// bounded when every speed is finite and below 0.5, over six times U;
// a diverged one reads 1e3 or more, or NaN.
func TestFilterKeepsShearLayerBounded(t *testing.T) {
	const n, u, delta = 64, 0.08, 2.0
	cases := []struct {
		method  string
		nu      float64
		steps   int
		eps     float64
		cut     int
		bounded bool
	}{
		{MethodLB, 0.0002, 1000, 0, 1, false},
		{MethodLB, 0.0002, 1000, 0.02, 1, true},
		{MethodLB, 0.0002, 1000, 0.02, 4, false}, // bounded once 23(b) lands
		{MethodFD, 0.01, 1600, 0, 1, false},
		{MethodFD, 0.01, 1600, 0.02, 1, true},
		{MethodFD, 0.01, 1600, 0.02, 4, false}, // bounded once 23(b) lands
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%s/eps=%g/%dx%d", c.method, c.eps, c.cut, c.cut), func(t *testing.T) {
			t.Parallel()
			d, err := decomp.New2D(c.cut, c.cut, n, n, decomp.Full)
			if err != nil {
				t.Fatal(err)
			}
			d.PeriodicX, d.PeriodicY = true, true
			p := fluid.DefaultParams()
			p.Nu, p.Eps = c.nu, c.eps
			cfg := &Config2D{
				Method: c.method, Par: p, Mask: fluid.NewMask2D(n, n), D: d,
				InitVx: func(x, y int) float64 {
					if y <= n/2 {
						return u * math.Tanh((float64(y)-n/4)/delta)
					}
					return u * math.Tanh((3*n/4-float64(y))/delta)
				},
				InitVy: func(x, y int) float64 { return 0.05 * u * math.Sin(2*math.Pi*float64(x)/n) },
			}
			res, _, err := RunSequential2D(cfg, c.steps)
			if err != nil {
				t.Fatal(err)
			}
			peak := 0.0
			for i := range res.Vx {
				peak = max(peak, math.Hypot(res.Vx[i], res.Vy[i])) // NaN wins
			}
			t.Logf("peak speed %.3g after %d steps", peak, c.steps)
			if bounded := peak < 0.5; bounded != c.bounded {
				t.Errorf("peak speed %.3g after %d steps: bounded %v, want %v", peak, c.steps, bounded, c.bounded)
			}
		})
	}
}
