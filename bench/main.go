// Command bench is the repository's benchmark: five workloads, each a
// fixed amount of seeded work driven through the system's public functions
// and timed from outside, with the outputs checked in the same run.
//
//	go run -C bench repro/bench --workload lb2d_mem --seed 1 --seconds 6 --trace 0
//
// An untraced run (--trace 0) reports the end-to-end metrics; a traced run
// (--trace 1) repeats the workload under timing decorators and direct
// probes and reports the per-layer metrics, writing its spans to
// out/<workload>.trace.json. The last line of standard output is one JSON
// object {correct, attempted, failed, metrics}; the lines before it carry
// the environment and the run's details (sample counts, quartiles, result
// hashes). The exit code is non-zero when a correctness check fails.
//
// -repeat N runs every workload (or the one named) N times in child
// processes and prints median, quartiles and spread per end-to-end metric.
// See README.md for the metric glossary and the workload rationale.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

// defaultSeconds is BENCHMARK.json's run_seconds: the measured window the
// driver asks for, and the length the pinned hashes were taken at.
const defaultSeconds = 6

//go:embed golden.json
var goldenJSON []byte

// golden pins result hashes per workload for one (seed, seconds, arch).
type golden struct {
	Seed    int64             `json:"seed"`
	Seconds float64           `json:"seconds"`
	GOARCH  string            `json:"goarch"`
	SHA256  map[string]string `json:"result_sha256"`
}

// dispatch runs the named workload.
func (r *run) dispatch() error {
	switch r.opt.workload {
	case "lb2d_mem", "fd3d_mem", "fd2d_halo_tcp":
		return r.solverWorkload()
	case "lb3d_disturb":
		return r.disturb()
	case "farm_sweep":
		return r.sweep()
	}
	return fmt.Errorf("bench: unknown workload %q", r.opt.workload)
}

// execute runs one workload and returns its contract line together with
// the run, whose details and failures the caller prints.
func execute(opt options) (result, *run, error) {
	r := newRun(opt)
	defer r.cleanup()
	if err := r.dispatch(); err != nil {
		return result{}, r, err
	}
	r.set("peak_rss_mb", peakRSSMB())
	r.checkGolden()
	return r.result(), r, nil
}

// checkGolden compares the result hash with the pinned one when this run
// is the pinned configuration; on other seeds, lengths or architectures
// the consistency checks are all there is.
func (r *run) checkGolden() {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		r.check(false, "golden.json: %v", err)
		return
	}
	pinned := !r.opt.quick && r.opt.seed == g.Seed && r.opt.seconds == g.Seconds && runtime.GOARCH == g.GOARCH
	r.detail["golden_checked"] = pinned
	if !pinned {
		return
	}
	want, ok := g.SHA256[r.opt.workload]
	if !ok {
		return
	}
	r.check(r.detail["result_sha256"] == want, "result_sha256 %v differs from the pinned %s", r.detail["result_sha256"], want)
}

func main() {
	var opt options
	var trace, repeat int
	var vary, printJSON bool
	flag.StringVar(&opt.workload, "workload", "", "workload to run: lb2d_mem, fd3d_mem, fd2d_halo_tcp, lb3d_disturb or farm_sweep")
	flag.Int64Var(&opt.seed, "seed", 1, "seed the workload's inputs are made from")
	flag.Float64Var(&opt.seconds, "seconds", defaultSeconds, "measured window to size the work for")
	flag.IntVar(&trace, "trace", 0, "1 repeats the workload under tracing and reports the per-layer metrics")
	flag.BoolVar(&opt.quick, "quick", false, "smoke-test scale: tiny lattices and a handful of steps")
	flag.StringVar(&opt.outDir, "out", "out", "directory for span files and scratch space")
	flag.IntVar(&repeat, "repeat", 0, "run each workload this many times and report the spread of every end-to-end metric")
	flag.BoolVar(&vary, "vary", false, "with -repeat: give every run its own seed (seed, seed+1, ...) instead of the same one")
	flag.BoolVar(&printJSON, "benchmark-json", false, "print the BENCHMARK.json this program's metric tables imply, and exit")
	flag.Parse()
	opt.trace = trace != 0

	if printJSON {
		data, err := benchmarkJSON(defaultSeconds)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		os.Stdout.Write(data)
		return
	}
	if opt.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive")
		os.Exit(2)
	}
	if repeat > 0 {
		os.Exit(repeatRuns(opt, repeat, vary))
	}

	res, r, err := execute(opt)
	enc := json.NewEncoder(os.Stdout)
	enc.Encode(map[string]any{"environment": readEnvironment(), "workload": opt.workload, "seed": opt.seed,
		"seconds": opt.seconds, "trace": opt.trace, "quick": opt.quick})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	enc.Encode(map[string]any{"detail": r.detail})
	for _, f := range r.failures {
		fmt.Fprintln(os.Stderr, "bench: FAILED:", f)
	}
	enc.Encode(res)
	if !res.Correct {
		os.Exit(1)
	}
}
