package main

import (
	"bytes"
	"math"
	"os"
	"testing"
)

// layerRows are the per-layer metrics each workload must actually measure
// (report a non-zero value for) at smoke scale; the rest it reports as 0.
var layerRows = map[string][]string{
	"lb2d_mem": {"lbm.phase0_ns_per_cell", "lbm.phase1_ns_per_cell", "filter.apply_ns_per_cell",
		"grid.state_bytes_per_cell", "grid.copy_gb_per_s", "pool.run_us_per_call", "pool.slab_speedup",
		"halo.pack_ns_per_value", "halo.unpack_ns_per_value", "halo.msgs_per_step", "halo.bytes_per_step",
		"msg.send_us_p50", "msg.recv_wait_us_p50", "msg.rtt_us_hub", "msg.rtt_us_tcp",
		"core.compute_frac", "core.f_measured", "model.f_predicted", "core.parallel_efficiency",
		"core.step_ms_tail", "core.step_tail_pct", "mcells_per_s", "step_ms_p50", "serial_mcells_per_s", "workers_mcells_per_s"},
	"fd3d_mem": {"fd.phase0_ns_per_cell", "fd.phase1_ns_per_cell", "fd.phase2_ns_per_cell", "filter.apply_ns_per_cell",
		"halo.bytes_per_step", "core.compute_frac", "mcells_per_s", "serial_mcells_per_s", "workers_mcells_per_s"},
	"fd2d_halo_tcp": {"fd.phase0_ns_per_cell", "msg.send_us_p50", "msg.rtt_us_tcp", "core.wait_frac", "core.send_frac",
		"core.allocs_per_step", "core.alloc_bytes_per_step", "mcells_per_s", "step_ms_p50"},
	"lb3d_disturb": {"lbm.phase0_ns_per_cell", "lbm.phase3_ns_per_cell", "core.suspend_ms_p50", "core.resume_ms_p50",
		"core.migrate_ms_p50", "core.resize_grow_ms_p50", "core.resize_shrink_ms_p50", "core.dumpstate_ms_p50",
		"core.restorestate_ms_p50", "syncfile.round_ms_p50", "dump.encode_mb_per_s", "dump.decode_mb_per_s",
		"dump.bytes_per_rank", "ckpt.save_ms_p50", "ckpt.load_ms_p50", "core.disturb_overhead_frac",
		"mcells_per_s", "migrate_ms_p50", "snapshot_ms_p50", "resize_ms_p50", "ckpt_mb_per_s"},
	"farm_sweep": {"workload.generate_jobs_per_s", "sched.events_per_s", "sched.events_per_job", "sched.migrations",
		"sched.preemptions", "sched.reclaims", "farm.submit_us_p50", "perf.price_us_p50", "perf.prices_per_s",
		"cluster.reserve_us_p50", "workload.trace_file_ms_p50", "sched_jobs_per_s", "verify_jobs_per_s"},
}

// TestSmoke runs all five workloads at -quick scale, untraced and traced,
// and checks the shape of what they report: every declared metric present,
// finite and correctly united, no failed operation.
func TestSmoke(t *testing.T) {
	for _, w := range workloadRows {
		for _, traced := range []bool{false, true} {
			opt := options{workload: w.Name, seed: 3, seconds: defaultSeconds, trace: traced, quick: true, outDir: t.TempDir()}
			res, r, err := execute(opt)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d: %v", w.Name, traced, res.Correct, res.Attempted, res.Failed, r.failures)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics reported, %d declared", w.Name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.Name, traced, d.Name)
				case v.Unit != d.Unit:
					t.Errorf("%s: metric %s has unit %q, declared %q", w.Name, d.Name, v.Unit, d.Unit)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s: metric %s = %v", w.Name, d.Name, v.Value)
				case !traced && v.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.Name, d.Name, v.Value)
				}
			}
			if traced {
				for _, name := range layerRows[w.Name] {
					if res.Metrics[name].Value == 0 {
						t.Errorf("%s: per-layer metric %s was not measured", w.Name, name)
					}
				}
				if _, err := os.Stat(r.detail["span_file"].(string)); err != nil {
					t.Errorf("%s: span file: %v", w.Name, err)
				}
			}
			if sha, _ := r.detail["result_sha256"].(string); len(sha) != 64 {
				t.Errorf("%s: result_sha256 = %q", w.Name, sha)
			}
		}
	}
}

// TestFlippedBitFails flips one bit of a gathered result and expects the
// identity check — the one every bit-for-bit comparison goes through — to
// count a failed operation and the run to report itself incorrect.
func TestFlippedBitFails(t *testing.T) {
	prob, err := newProblem(quickSolverSpecs["lb2d_mem"].lat, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	good, err := prob.sequential(2)
	if err != nil {
		t.Fatal(err)
	}
	bad := make(fields, len(good))
	for i := range good {
		bad[i] = append([]float64(nil), good[i]...)
	}
	mid := len(bad[1]) / 2
	bad[1][mid] = math.Float64frombits(math.Float64bits(bad[1][mid]) ^ 1)

	r := newRun(options{workload: "lb2d_mem", quick: true})
	if !r.checkSame(good.sha(), good.sha(), "identical fields") {
		t.Fatal("identical fields compared unequal")
	}
	if r.checkSame(good.sha(), bad.sha(), "one flipped bit") {
		t.Fatal("a flipped bit went unnoticed")
	}
	if res := r.result(); res.Correct || res.Failed == 0 {
		t.Fatalf("run with a failed check reports correct=%v failed=%d", res.Correct, res.Failed)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the metric tables.
func TestBenchmarkJSON(t *testing.T) {
	have, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory:", err)
	}
	want, err := benchmarkJSON(defaultSeconds)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(have, want) {
		t.Errorf("BENCHMARK.json differs from the program's tables; regenerate it with\n\tgo run -C bench repro/bench -benchmark-json > BENCHMARK.json")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}
