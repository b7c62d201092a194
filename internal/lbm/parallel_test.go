package lbm

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/fluid"
)

// jetMask2D builds a mask exercising every boundary branch of the relax
// kernel: channel walls, an inlet column, an outlet column, and an
// interior obstacle so several rows lose the all-open fast path.
func jetMask2D(nx, ny int) *fluid.Mask2D {
	m := fluid.ChannelMask2D(nx, ny)
	m.FillRect(0, 1, 1, ny-1, fluid.Inlet)
	m.FillRect(nx-1, 1, nx, ny-1, fluid.Outlet)
	m.FillRect(nx/3, ny/3, nx/3+3, ny/3+4, fluid.Wall)
	return m
}

func jetMask3D(nx, ny, nz int) *fluid.Mask3D {
	m := fluid.ChannelMask3D(nx, ny, nz)
	for z := 1; z < nz-1; z++ {
		for y := 1; y < ny-1; y++ {
			m.Set(0, y, z, fluid.Inlet)
			m.Set(nx-1, y, z, fluid.Outlet)
		}
	}
	for z := nz / 3; z < nz/3+2; z++ {
		for y := ny / 3; y < ny/3+3; y++ {
			m.Set(nx/2, y, z, fluid.Wall)
		}
	}
	return m
}

func testParams() fluid.Params {
	par := fluid.DefaultParams()
	par.Nu = 0.05
	par.Eps = 0.01
	par.ForceX = 1e-5
	par.InletVx = 0.04
	return par
}

// workerCounts are the budgets every parallel-identity test sweeps:
// serial, even split, a count that does not divide the row count, and
// whatever the machine would default to.
func workerCounts() []int {
	return []int{1, 2, 7, runtime.GOMAXPROCS(0)}
}

// cutAlways sets the worker count and replaces the solver's parallel-for
// with one that has no minimum slab size, as it was before pool.Slabs: the
// lattices in these tests are far below the minimum, and the seams between
// slabs are what the tests are about.
func (s *Solver2D) cutAlways(w int) {
	s.SetWorkers(w)
	s.runFn = func(n int, fn func(lo, hi int)) { s.par.Run(w, n, fn) }
}

func (s *Solver3D) cutAlways(w int) {
	s.Workers = w
	s.runFn = func(n int, fn func(lo, hi int)) { s.par.Run(w, n, fn) }
}

// TestParallelIdentity2D requires the worker-slab step to be bit-identical
// to the serial step at every worker count — same populations, same
// macroscopic fields, after enough steps for boundary effects to cross
// slab seams.
func TestParallelIdentity2D(t *testing.T) {
	const nx, ny, steps = 36, 29, 40
	m := jetMask2D(nx, ny)
	mask := func(x, y int) fluid.CellType { return m.At(x, y) }

	ref, err := NewSolver2D(nx, ny, testParams(), mask)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < steps; n++ {
		ref.StepSerial(false, false)
	}

	for _, w := range workerCounts() {
		t.Run(fmt.Sprintf("w%d", w), func(t *testing.T) {
			s, err := NewSolver2D(nx, ny, testParams(), mask)
			if err != nil {
				t.Fatal(err)
			}
			s.cutAlways(w)
			for n := 0; n < steps; n++ {
				s.StepSerial(false, false)
			}
			for i := 0; i < Q2; i++ {
				compareBits(t, fmt.Sprintf("F[%d]", i), ref.F[i].Data(), s.F[i].Data())
			}
			compareBits(t, "Rho", ref.Rho.Data(), s.Rho.Data())
			compareBits(t, "Vx", ref.Vx.Data(), s.Vx.Data())
			compareBits(t, "Vy", ref.Vy.Data(), s.Vy.Data())
		})
	}
}

func TestParallelIdentity3D(t *testing.T) {
	const nx, ny, nz, steps = 14, 11, 13, 25
	m := jetMask3D(nx, ny, nz)
	mask := func(x, y, z int) fluid.CellType { return m.At(x, y, z) }

	ref, err := NewSolver3D(nx, ny, nz, testParams(), mask)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < steps; n++ {
		ref.StepSerial(false, false, true)
	}

	for _, w := range workerCounts() {
		t.Run(fmt.Sprintf("w%d", w), func(t *testing.T) {
			s, err := NewSolver3D(nx, ny, nz, testParams(), mask)
			if err != nil {
				t.Fatal(err)
			}
			s.cutAlways(w)
			for n := 0; n < steps; n++ {
				s.StepSerial(false, false, true)
			}
			for i := 0; i < Q3; i++ {
				compareBits(t, fmt.Sprintf("F[%d]", i), ref.F[i].Data(), s.F[i].Data())
			}
			compareBits(t, "Rho", ref.Rho.Data(), s.Rho.Data())
			compareBits(t, "Vx", ref.Vx.Data(), s.Vx.Data())
			compareBits(t, "Vy", ref.Vy.Data(), s.Vy.Data())
			compareBits(t, "Vz", ref.Vz.Data(), s.Vz.Data())
		})
	}
}

// compareBits fails on the first element where the two slices are not
// the same float64 bits (== would accept -0 vs +0 and miss NaN drift).
func compareBits(t *testing.T, name string, want, got []float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: length %d vs %d", name, len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] || (want[i] == 0 && got[i] == 0 && signbit(want[i]) != signbit(got[i])) {
			t.Fatalf("%s[%d]: serial %v, parallel %v", name, i, want[i], got[i])
		}
	}
}

func signbit(f float64) bool { return f < 0 || (f == 0 && 1/f < 0) }

// TestStepZeroAlloc pins the steady-state allocation budget of the hot
// step at zero, on the serial and the parallel path, under every periodic
// pattern, so each side, edge and corner of the in-place exchange runs.
// The filter plans, shift state and exchange buffers are all
// preallocated; a regression here shows up as GC pressure at scale.
func TestStepZeroAlloc(t *testing.T) {
	m2 := jetMask2D(24, 19)
	s2, err := NewSolver2D(24, 19, testParams(), func(x, y int) fluid.CellType { return m2.At(x, y) })
	if err != nil {
		t.Fatal(err)
	}
	m3 := jetMask3D(10, 9, 8)
	s3, err := NewSolver3D(10, 9, 8, testParams(), func(x, y, z int) fluid.CellType { return m3.At(x, y, z) })
	if err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		name string
		step func()
	}{
		{"2D/x", func() { s2.StepSerial(true, false) }},
		{"2D/y", func() { s2.StepSerial(false, true) }},
		{"2D/xy", func() { s2.StepSerial(true, true) }},
		{"3D/x", func() { s3.StepSerial(true, false, false) }},
		{"3D/y", func() { s3.StepSerial(false, true, false) }},
		{"3D/z", func() { s3.StepSerial(false, false, true) }},
		{"3D/xyz", func() { s3.StepSerial(true, true, true) }},
	}
	for _, path := range []string{"serial", "w2"} {
		if path == "w2" {
			// The parallel path allocates nothing on the submitting
			// goroutine either (tasks are sent by value to the warm
			// shared pool).
			s2.cutAlways(2)
			s3.cutAlways(2)
		}
		for _, c := range steps {
			c.step() // warm up once outside the measurement
			if allocs := testing.AllocsPerRun(10, c.step); allocs != 0 {
				t.Errorf("%s/%s: %v allocs per step, want 0", path, c.name, allocs)
			}
		}
	}
}

// TestTinyLatticeStaysSerial: below pool.Slabs' minimum a solver runs a
// sweep as one slab on the caller whatever its worker budget; above it the
// budget is honoured.
func TestTinyLatticeStaysSerial(t *testing.T) {
	slabs := func(run func(n int, fn func(lo, hi int)), n int) int {
		var count atomic.Int32
		run(n, func(lo, hi int) { count.Add(1) })
		return int(count.Load())
	}
	for _, c := range []struct{ nx, ny, want int }{{24, 19, 1}, {512, 64, 4}} {
		s, err := NewSolver2D(c.nx, c.ny, testParams(), allFluid)
		if err != nil {
			t.Fatal(err)
		}
		s.SetWorkers(4)
		if got := slabs(s.runFn, c.ny); got != c.want {
			t.Errorf("%dx%d with 4 workers: %d slabs, want %d", c.nx, c.ny, got, c.want)
		}
	}
	for _, c := range []struct{ nx, ny, nz, want int }{{10, 9, 8, 1}, {64, 64, 8, 4}} {
		s, err := NewSolver3D(c.nx, c.ny, c.nz, testParams(), allFluid3)
		if err != nil {
			t.Fatal(err)
		}
		s.SetWorkers(4)
		if got := slabs(s.runFn, c.nz); got != c.want {
			t.Errorf("%dx%dx%d with 4 workers: %d slabs, want %d", c.nx, c.ny, c.nz, got, c.want)
		}
	}
}

// TestWindowPerSlab: under pool.Slabs' cuts and under cutAlways at every
// worker count, each phase-1 slab claims a window no other slab holds.
// Claims are numbered, so that is one claim per slab, all of them within
// the windows SetWorkers sized.
func TestWindowPerSlab(t *testing.T) {
	for _, c := range []struct {
		nx, ny int
		cut    bool
	}{{9, 6, true}, {5, 1, true}, {512, 64, false}, {24, 19, false}} {
		for w := 0; w <= min(c.ny+2, 9); w++ {
			s, err := NewSolver2D(c.nx, c.ny, testParams(), allFluid)
			if err != nil {
				t.Fatal(err)
			}
			if c.cut {
				s.cutAlways(w)
			} else {
				s.SetWorkers(w)
			}
			var slabs atomic.Int32
			run := s.runFn
			s.runFn = func(n int, fn func(lo, hi int)) {
				run(n, func(lo, hi int) { slabs.Add(1); fn(lo, hi) })
			}
			s.Compute(1)
			if got, want := s.claimed.Load(), slabs.Load(); got != want || int(got) > len(s.windows) {
				t.Errorf("%dx%d w%d cut %v: %d claims for %d slabs, %d windows", c.nx, c.ny, w, c.cut, got, want, len(s.windows))
			}
		}
	}
}
