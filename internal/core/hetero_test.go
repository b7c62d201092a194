package core

import (
	"reflect"
	"testing"

	"repro/internal/decomp"
)

// weightedChannelConfig rebuilds channelConfig over an explicit
// decomposition, so the same problem can run uniform and weighted.
func weightedChannelConfig(t *testing.T, method string, d *decomp.Decomp) *Config2D {
	t.Helper()
	cfg := channelConfig(t, method, d.JX, d.JY, d.GX, d.GY)
	d.PeriodicX = true
	cfg.D = d
	return cfg
}

// weighted2D builds a speed-weighted decomposition the way production does:
// the weighted shape, then the shaped constructor.
func weighted2D(jx, jy, gx, gy int, st decomp.Stencil, speed []float64) (*decomp.Decomp, error) {
	sh, err := decomp.WeightedShape(jx, jy, 0, gx, gy, 0, speed)
	if err != nil {
		return nil, err
	}
	return decomp.NewShaped(sh, st)
}

// TestWeightedEqualSpeedsBitIdenticalDumps is the degenerate-case
// guarantee at the dump level: decomposing a problem with the
// speed-weighted splitter under equal speeds produces rank dump states
// bit-identical to the uniform decomposition's — shapes, ranks, fields
// and all — so homogeneous pools are untouched by the weighting layer.
func TestWeightedEqualSpeedsBitIdenticalDumps(t *testing.T) {
	for _, method := range []string{MethodLB, MethodFD} {
		st := decomp.Star
		if method == MethodLB {
			st = decomp.Full
		}
		speed := make([]float64, 3*2)
		for i := range speed {
			speed[i] = 39132
		}
		wd, err := weighted2D(3, 2, 35, 17, st, speed) // remainders on both axes
		if err != nil {
			t.Fatal(err)
		}
		ud, err := decomp.New2D(3, 2, 35, 17, st)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Decompose2D(weightedChannelConfig(t, method, ud))
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decompose2D(weightedChannelConfig(t, method, wd))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: equal-speed weighted dumps differ from uniform", method)
		}
	}
}

// TestWeightedParallelMatchesSequential: a genuinely non-uniform
// weighted decomposition (2:1:1 speeds) runs the parallel program
// bit-identically to the sequential reference on the same spans — the
// paper's central reproducibility claim holds for weighted subregions.
func TestWeightedParallelMatchesSequential(t *testing.T) {
	const steps = 25
	mk := func() *Config2D {
		d, err := weighted2D(3, 1, 36, 12, decomp.Full, []float64{2, 1, 1})
		if err != nil {
			t.Fatal(err)
		}
		return weightedChannelConfig(t, MethodLB, d)
	}
	// The spans must actually be non-uniform for this to test anything.
	if nx := mk().D.Sub(0, 0, 0).NX; nx == 12 {
		t.Fatal("weighted spans degenerated to uniform; bad test setup")
	}
	ref, _, err := RunSequential2D(mk(), steps)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunParallel2D(mk(), steps, HubFactory())
	if err != nil {
		t.Fatal(err)
	}
	if ok, x, y, d := resultsEqual(ref, got, 0); !ok {
		t.Fatalf("weighted parallel differs from sequential at (%d,%d) by %g", x, y, d)
	}
}
