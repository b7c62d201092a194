package core

import (
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/decomp"
	"repro/internal/syncfile"
)

// TestRebuildRunsNoInitialCondition: the initial condition is evaluated
// while NewJob builds the ranks and never again — three migrations, a
// snapshot, a suspend/resume, a grow and a shrink rebuild every rank several
// times without calling one Init closure — and the disturbed run ends in
// the undisturbed run's bits.
func TestRebuildRunsNoInitialCondition(t *testing.T) {
	// The operations land within the first few dozen steps; nothing depends
	// on it (every operation is also valid on a finished job).
	const steps = 120
	for _, method := range []string{MethodLB, MethodFD} {
		t.Run(method+"2D", func(t *testing.T) {
			var calls atomic.Int64
			initial := func(c *Config2D) {
				c.InitRho = func(x, y int) float64 {
					calls.Add(1)
					return 1 + 0.001*math.Sin(2*math.Pi*float64(x)/24)
				}
				c.InitVx = func(x, y int) float64 { calls.Add(1); return 1e-4 * float64(y%3) }
				c.InitVy = func(x, y int) float64 { calls.Add(1); return 0 }
			}
			refCfg := resizeCfg2D(t, method, 2, 2)
			initial(refCfg)
			ref, _, err := RunSequential2D(refCfg, steps)
			if err != nil {
				t.Fatal(err)
			}

			cfg := resizeCfg2D(t, method, 2, 2)
			initial(cfg)
			job, progs := startJob2D(t, cfg, steps)
			built := calls.Load()
			if built == 0 {
				t.Fatal("NewJob2D evaluated no initial condition")
			}
			for _, rank := range []int{0, 3, 1} {
				if err := job.MigrateRanks([]int{rank}, nil); err != nil {
					t.Fatalf("migrate rank %d: %v", rank, err)
				}
			}
			if _, err := job.Snapshot(); err != nil {
				t.Fatalf("snapshot: %v", err)
			}
			states, err := job.Suspend()
			if err != nil {
				t.Fatalf("suspend: %v", err)
			}
			t.Logf("suspended at step %d of %d", states[0].Step, steps)
			if err := job.Resume(states); err != nil {
				t.Fatalf("resume: %v", err)
			}
			if err := job.Resize(decomp.UniformShape(3, 2, 0, 24, 16, 0)); err != nil {
				t.Fatalf("grow: %v", err)
			}
			if err := job.Resize(decomp.UniformShape(2, 1, 0, 24, 16, 0)); err != nil {
				t.Fatalf("shrink: %v", err)
			}
			if err := job.WaitDone(); err != nil {
				t.Fatal(err)
			}
			job.Shutdown()
			if n := calls.Load(); n != built {
				t.Errorf("initial condition evaluated %d more times after NewJob2D returned", n-built)
			}
			if ok, x, y, d := resultsEqual(ref, progs.Gather(steps), 0); !ok {
				t.Errorf("disturbed run differs from the undisturbed one at (%d,%d) by %g", x, y, d)
			}
		})

		t.Run(method+"3D", func(t *testing.T) {
			var calls atomic.Int64
			initial := func(c *Config3D) {
				c.InitRho = func(x, y, z int) float64 {
					calls.Add(1)
					return 1 + 0.001*math.Sin(2*math.Pi*float64(x+z)/12)
				}
				c.InitVx = func(x, y, z int) float64 { calls.Add(1); return 1e-4 * float64(y%3) }
				c.InitVy = func(x, y, z int) float64 { calls.Add(1); return 0 }
				c.InitVz = func(x, y, z int) float64 { calls.Add(1); return 1e-4 * float64(x%2) }
			}
			refCfg := resizeCfg3D(t, method, 2, 1, 1)
			initial(refCfg)
			ref, _, err := RunSequential3D(refCfg, steps)
			if err != nil {
				t.Fatal(err)
			}

			cfg := resizeCfg3D(t, method, 2, 1, 1)
			initial(cfg)
			sf, err := syncfile.New(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			job, progs, err := NewJob3D(cfg, HubFactory(), sf, steps)
			if err != nil {
				t.Fatal(err)
			}
			built := calls.Load()
			if built == 0 {
				t.Fatal("NewJob3D evaluated no initial condition")
			}
			job.Start()
			for _, rank := range []int{1, 0, 1} {
				if err := job.MigrateRanks([]int{rank}, nil); err != nil {
					t.Fatalf("migrate rank %d: %v", rank, err)
				}
			}
			if _, err := job.Snapshot(); err != nil {
				t.Fatalf("snapshot: %v", err)
			}
			states, err := job.Suspend()
			if err != nil {
				t.Fatalf("suspend: %v", err)
			}
			t.Logf("suspended at step %d of %d", states[0].Step, steps)
			if err := job.Resume(states); err != nil {
				t.Fatalf("resume: %v", err)
			}
			if err := job.Resize(decomp.UniformShape3D(2, 2, 1, 12, 10, 8)); err != nil {
				t.Fatalf("grow: %v", err)
			}
			if err := job.Resize(decomp.UniformShape3D(1, 1, 2, 12, 10, 8)); err != nil {
				t.Fatalf("shrink: %v", err)
			}
			if err := job.WaitDone(); err != nil {
				t.Fatal(err)
			}
			job.Shutdown()
			if n := calls.Load(); n != built {
				t.Errorf("initial condition evaluated %d more times after NewJob3D returned", n-built)
			}
			got := progs.Gather(steps)
			for i := range ref.Rho {
				for _, pair := range [][2][]float64{{ref.Rho, got.Rho}, {ref.Vx, got.Vx}, {ref.Vy, got.Vy}, {ref.Vz, got.Vz}} {
					if math.Float64bits(pair[0][i]) != math.Float64bits(pair[1][i]) {
						t.Fatalf("disturbed 3D run differs from the undisturbed one at index %d", i)
					}
				}
			}
		})
	}
}
