package farm

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/fluid"
	"repro/internal/syncfile"
)

// TestSchedulerWorkersBitIdentical: a job whose config asks for three
// worker slabs per rank, run through the whole scheduler lifecycle,
// produces a solution bitwise identical to the sequential reference at
// the default budget.
func TestSchedulerWorkersBitIdentical(t *testing.T) {
	const steps = 30
	mkCfg := func(workers int) *core.Config2D {
		d, err := decomp.New2D(2, 2, 24, 16, decomp.Full)
		if err != nil {
			t.Fatal(err)
		}
		d.PeriodicX = true
		par := fluid.DefaultParams()
		par.Nu = 0.1
		par.Eps = 0.01
		par.ForceX = 1e-5
		return &core.Config2D{
			Method:  core.MethodLB,
			Par:     par,
			Mask:    fluid.ChannelMask2D(24, 16),
			D:       d,
			Workers: workers,
		}
	}
	ref, _, err := core.RunSequential2D(mkCfg(0), steps)
	if err != nil {
		t.Fatal(err)
	}

	sf, err := syncfile.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	job, progs, err := core.NewJob2D(mkCfg(3), core.HubFactory(), sf, steps)
	if err != nil {
		t.Fatal(err)
	}

	pool := idlePool()
	s := newFarm(pool, FIFO, 1)
	if _, err := s.Submit(JobSpec{
		ID: "sim", Method: "lb2d", JX: 2, JY: 2, Side: 24, Steps: steps,
	}, &CoreWorkload{Job: job}); err != nil {
		t.Fatal(err)
	}
	s.Drain()
	if _, err := s.loop(context.Background()); err != nil {
		t.Fatal(err)
	}

	got := progs.Gather(steps)
	if ref.NX != got.NX || ref.NY != got.NY {
		t.Fatalf("result shape %dx%d, want %dx%d", got.NX, got.NY, ref.NX, ref.NY)
	}
	for i := range ref.Rho {
		for _, pair := range [][2][]float64{{ref.Rho, got.Rho}, {ref.Vx, got.Vx}, {ref.Vy, got.Vy}} {
			if d := math.Abs(pair[0][i] - pair[1][i]); d != 0 {
				t.Fatalf("scheduler-run solution differs at index %d by %g", i, d)
			}
		}
	}
}
