package pool

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestRunCoversRangeOnce checks every index is visited exactly once for
// a spread of worker counts, including counts above n and above
// GOMAXPROCS.
func TestRunCoversRangeOnce(t *testing.T) {
	var r Runner
	for _, workers := range []int{0, 1, 2, 3, 7, 16, runtime.GOMAXPROCS(0) + 3} {
		for _, n := range []int{1, 2, 5, 64, 1000} {
			counts := make([]int32, n)
			r.Run(workers, n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&counts[i], 1)
				}
			})
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, c)
				}
			}
		}
	}
}

// TestRunSlabsAreOrderedAndDisjoint checks the deterministic slab
// geometry: contiguous, increasing, covering [0, n) — and, with the count
// taken from Slabs, never more slabs than the budget nor a slab under
// minSlabCells cells unless it is the only one.
func TestRunSlabsAreOrderedAndDisjoint(t *testing.T) {
	var r Runner
	type slab struct{ lo, hi int }
	slabsOf := func(workers, n int) []slab {
		var got []slab
		lock := make(chan struct{}, 1)
		r.Run(workers, n, func(lo, hi int) {
			lock <- struct{}{}
			got = append(got, slab{lo, hi})
			<-lock
		})
		if len(got) == 0 {
			t.Fatalf("workers=%d n=%d: no slabs ran", workers, n)
		}
		covered := make([]bool, n)
		for _, s := range got {
			if s.lo >= s.hi {
				t.Fatalf("empty slab [%d,%d)", s.lo, s.hi)
			}
			for i := s.lo; i < s.hi; i++ {
				if covered[i] {
					t.Fatalf("index %d covered twice", i)
				}
				covered[i] = true
			}
		}
		for i, c := range covered {
			if !c {
				t.Fatalf("index %d not covered", i)
			}
		}
		return got
	}
	slabsOf(4, 103)

	for _, c := range []struct{ workers, units, cellsPerUnit, want int }{
		{2, 16, 32, 0},         // a 32x16 lattice: one slab
		{2, 16, 512, 2},        // 8192 cells: two slabs of exactly the minimum
		{2, 16, 511, 1},        // just under: two slabs would hold 4088 cells
		{7, 3, 3000, 1},        // a slab is whole units: 2 units, so one slab of 3
		{7, 128, 128 * 128, 7}, // a large lattice keeps its budget
		{7, 5, 4096, 5},        // and never gets more slabs than units
		{0, 1024, 2048, 0},     // no budget, no slabs
	} {
		got := Slabs(c.workers, c.units, c.cellsPerUnit)
		if got != c.want {
			t.Errorf("Slabs(%d, %d, %d) = %d, want %d", c.workers, c.units, c.cellsPerUnit, got, c.want)
		}
		ran := slabsOf(got, c.units)
		if len(ran) > max(got, 1) {
			t.Errorf("Slabs(%d, %d, %d): %d slabs ran for a count of %d", c.workers, c.units, c.cellsPerUnit, len(ran), got)
		}
		for _, s := range ran {
			if cells := (s.hi - s.lo) * c.cellsPerUnit; len(ran) > 1 && cells < minSlabCells {
				t.Errorf("Slabs(%d, %d, %d): slab [%d,%d) holds %d cells, minimum %d",
					c.workers, c.units, c.cellsPerUnit, s.lo, s.hi, cells, minSlabCells)
			}
		}
	}
}

// TestRunZeroAlloc pins the steady-state contract: a Run with a
// pre-built closure allocates nothing.
func TestRunZeroAlloc(t *testing.T) {
	var r Runner
	sink := make([]float64, 4096)
	fn := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sink[i]++
		}
	}
	r.Run(4, len(sink), fn) // warm the pool
	allocs := testing.AllocsPerRun(50, func() {
		r.Run(4, len(sink), fn)
	})
	if allocs > 0 {
		t.Errorf("Run allocates %.1f objects per call, want 0", allocs)
	}
}
