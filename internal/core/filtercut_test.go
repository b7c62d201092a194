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
