// Package pool provides the shared intra-rank worker pool behind the
// solvers' parallel collide-stream kernels.
//
// The paper's parallelism is inter-rank: one subregion per workstation,
// communicating through halo messages. Within one rank the per-cycle
// Relax/Shift/Calculate/Filter updates are per-cell independent (Skordos,
// Phys. Rev. E 48:4823, section 6), so a rank's subregion can additionally
// be cut into contiguous slabs — rows in 2D, z-planes in 3D — updated
// concurrently with disjoint write ranges. Because every node's arithmetic
// is unchanged and no cross-node reductions exist in the kernels, the
// result is bit-identical to the serial sweep at any worker count.
//
// One process-wide pool of GOMAXPROCS goroutines serves every solver in
// the process: co-scheduled ranks (the farm runs many jobs as goroutines)
// share the same physical cores, so per-rank pools would oversubscribe.
// Each solver owns a lightweight Runner that carries the per-call
// bookkeeping; Run submissions that find the pool saturated execute on
// the calling goroutine, so progress never depends on a free worker.
//
// The steady-state path allocates nothing: tasks travel by value on a
// buffered channel, the Runner's WaitGroup is reused across calls, and
// callers pre-build their range closures once at construction.
package pool

import (
	"runtime"
	"sync"
)

// task is one contiguous slab of a Runner's current parallel-for.
type task struct {
	r      *Runner
	lo, hi int
}

var (
	startOnce sync.Once
	tasks     chan task
)

// start lazily launches the shared workers. The pool is sized and the
// queue bounded by GOMAXPROCS at first use; a saturated queue pushes
// work back onto callers rather than growing.
func start() {
	startOnce.Do(func() {
		n := runtime.GOMAXPROCS(0)
		tasks = make(chan task, 4*n)
		for i := 0; i < n; i++ {
			go func() {
				for t := range tasks {
					t.r.fn(t.lo, t.hi)
					t.r.wg.Done()
				}
			}()
		}
	})
}

// Runner is one caller's handle on the shared pool. A Runner must not be
// used from two goroutines at once (a solver steps on a single goroutine,
// so each solver owns one). The zero value is ready to use.
type Runner struct {
	wg sync.WaitGroup
	fn func(lo, hi int)
}

// Run partitions [0, n) into at most `workers` contiguous slabs and
// invokes fn on each, returning when all slabs are done. workers <= 1 (or
// a trivially small n) calls fn(0, n) on the caller — the serial path.
// fn must only write state disjoint between slabs; under that contract
// the result is independent of the worker count and of which goroutine
// runs which slab.
func (r *Runner) Run(workers, n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	start()
	r.fn = fn
	// Slab i is [i*n/w, (i+1)*n/w): deterministic, contiguous, disjoint.
	// The last slab runs on the caller so a saturated pool still makes
	// progress; earlier slabs fall back to the caller when the queue is
	// full.
	lo := 0
	for i := 1; i < workers; i++ {
		hi := i * n / workers
		if hi <= lo {
			continue
		}
		r.wg.Add(1)
		select {
		case tasks <- task{r: r, lo: lo, hi: hi}:
		default:
			fn(lo, hi)
			r.wg.Done()
		}
		lo = hi
	}
	fn(lo, n)
	r.wg.Wait()
	r.fn = nil
}

// minSlabCells is the least work worth a hand-off to another goroutine: a
// slab of a few thousand cells runs for tens of microseconds, against a
// few for the fork/join, so below it a lattice is faster on the caller.
const minSlabCells = 4096

// Slabs returns the slab count for Run over `units` rows or planes of
// cellsPerUnit (> 0) cells each: the budget `workers`, lowered until no
// slab Run cuts holds fewer than minSlabCells cells. A lattice too small
// for two such slabs gets 0 or 1 and runs on the caller.
func Slabs(workers, units, cellsPerUnit int) int {
	unitsPerSlab := (minSlabCells + cellsPerUnit - 1) / cellsPerUnit
	return min(workers, units/unitsPerSlab)
}
