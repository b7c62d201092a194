package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// nominalSeconds is the measured window the step, op and job counts in the
// workload tables are sized for on the reference 2-core box. --seconds
// scales the counts linearly, so a given (seed, seconds) pair is always
// the same amount of work — and the same result hash — on every commit.
const nominalSeconds = 10

// options are the command-line settings one workload run needs.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	quick    bool   // smoke-test scale: tiny lattices, a handful of steps
	outDir   string // span files and scratch directories
}

// run is the state of one workload run: the metrics and details it
// reports and its operation tally.
type run struct {
	opt       options
	metrics   map[string]float64
	detail    map[string]any
	attempted int
	failed    int
	failures  []string
	tmpRoot   string // this run's scratch space, removed by cleanup
}

func newRun(opt options) *run {
	return &run{opt: opt, metrics: map[string]float64{}, detail: map[string]any{}}
}

// scaled sizes a nominal count for the requested run length.
func (r *run) scaled(nominal int) int {
	return max(1, int(math.Round(float64(nominal)*r.opt.seconds/nominalSeconds)))
}

// set records a metric value.
func (r *run) set(name string, v float64) { r.metrics[name] = v }

// setSetup reports the set-up time: the median over its repeats, in
// reference seconds; the wall-clock samples go to the details.
func (r *run) setSetup(wallS, refS []float64) {
	r.set("setup_s", median(refS))
	r.detail["setup_wall_s"] = map[string]any{"median": median(wallS), "samples": len(wallS)}
}

// ops adds n attempted operations (steps, control operations, jobs).
func (r *run) ops(n int) { r.attempted += n }

// check counts one correctness check as an operation and records a
// failure when it does not hold.
func (r *run) check(ok bool, format string, args ...any) bool {
	r.attempted++
	if !ok {
		r.failed++
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
	return ok
}

// checkSame is the bit-for-bit comparison every identity check goes
// through: two result hashes must be equal.
func (r *run) checkSame(a, b, what string) bool {
	return r.check(a == b, "%s: result hashes differ (%.12s, %.12s)", what, a, b)
}

// scratch returns a fresh directory under the run's output directory; the
// benchmark never writes outside its checkout.
func (r *run) scratch(name string) (string, error) {
	if r.tmpRoot == "" {
		base := filepath.Join(r.opt.outDir, "tmp")
		if err := os.MkdirAll(base, 0o755); err != nil {
			return "", err
		}
		root, err := os.MkdirTemp(base, "run-")
		if err != nil {
			return "", err
		}
		r.tmpRoot = root
	}
	return os.MkdirTemp(r.tmpRoot, name+"-")
}

// cleanup removes the run's scratch space.
func (r *run) cleanup() {
	if r.tmpRoot != "" {
		os.RemoveAll(r.tmpRoot)
		r.tmpRoot = ""
	}
}

// release drops the previous sub-run's lattice before the next is built,
// so peak memory is one sub-run's working set, not their sum.
func release() {
	runtime.GC()
	debug.FreeOSMemory()
}

// timed runs fn after a forced collection and returns its wall time.
func timed(fn func()) time.Duration {
	runtime.GC()
	t0 := time.Now()
	fn()
	return time.Since(t0)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }
