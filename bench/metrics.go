package main

import (
	"encoding/json"
	"fmt"
	"math"
)

// metricDef declares one reported metric. BENCHMARK.json at the repository
// root mirrors these tables; the smoke test keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: tolerated worsening, as a share of the parent's median
}

const (
	higher = "higher"
	lower  = "lower"
)

// endToEnd are the numbers a user of the system sees; an untraced run of
// any workload reports every one of them. The two rates are taken in
// reference seconds (rs, see calib.go); what work is counted on each
// workload is in workloadRows. Wall-clock readings of the same quantities
// are per-layer metrics.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "work_per_rs", Unit: "1/rs", Better: higher, Bound: 0.25},
	{Name: "base_work_per_rs", Unit: "1/rs", Better: higher, Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: lower, Bound: 0.20},
}

// workloadRow says what the two workload-relative end-to-end rates count
// on one workload, and why the workload exists.
type workloadRow struct {
	Name, Why  string
	Work, Base string
}

var workloadRows = []workloadRow{
	{
		Name: "lb2d_mem",
		Why:  "LB D2Q9 2048x1024, 2 ranks over the hub, filter on: ~370 MB streams from memory, so kernels are the step and transport is noise",
		Work: "1e6 site-updates of the 2-rank driver run (wall clock: mcells_per_s)",
		Base: "1e6 site-updates of one solver with one worker, StepSerial (wall clock: serial_mcells_per_s)",
	},
	{
		Name: "fd3d_mem",
		Why:  "FD 3D 256x128x128 cut along X: the other method and dimension, memory-bound, with strided 128x128 halo faces",
		Work: "as lb2d_mem", Base: "as lb2d_mem",
	},
	{
		Name: "fd2d_halo_tcp",
		Why:  "FD 2D 32x16 over TCP loopback: compute is a small part of a step, so framing, await, allocation and halo pack dominate and kernels barely show",
		Work: "as lb2d_mem", Base: "as lb2d_mem",
	},
	{
		Name: "lb3d_disturb",
		Why:  "LB D3Q15 48x24x24 run undisturbed, then under rounds of migrate, snapshot, suspend+save/load+resume, grow and shrink: the control plane does the work and the bits must not change",
		Work: "control-plane operations on the job: a round is migrate, snapshot, suspend, load, resume, grow, shrink; the save's fsync is left out (wall clock: migrate_/snapshot_/resize_ms_p50, ckpt_mb_per_s)",
		Base: "1e6 site-updates of the same lattice stepped by hand, 2 ranks over the hub",
	},
	{
		Name: "farm_sweep",
		Why:  "cells of a seeded job stream with two priorities and reclaim storms, recorded then verified in virtual time: no solver runs, scheduler, cluster and trace code do all the work",
		Work: "jobs retired by workload.Record (wall clock: sched_jobs_per_s)",
		Base: "jobs re-run and compared by Trace.Verify (wall clock: verify_jobs_per_s)",
	},
}

// perLayer are the traced run's metrics. A workload that does not cross a
// layer reports 0 for that layer's rows.
var perLayer = []metricDef{
	// Kernels: self time of Program.Compute(phase) over the rank's cells.
	{Name: "lbm.phase0_ns_per_cell", Unit: "ns", Better: lower},
	{Name: "lbm.phase1_ns_per_cell", Unit: "ns", Better: lower},
	{Name: "lbm.phase2_ns_per_cell", Unit: "ns", Better: lower},
	{Name: "lbm.phase3_ns_per_cell", Unit: "ns", Better: lower},
	{Name: "fd.phase0_ns_per_cell", Unit: "ns", Better: lower},
	{Name: "fd.phase1_ns_per_cell", Unit: "ns", Better: lower},
	{Name: "fd.phase2_ns_per_cell", Unit: "ns", Better: lower},
	{Name: "filter.apply_ns_per_cell", Unit: "ns", Better: lower},
	{Name: "grid.state_bytes_per_cell", Unit: "B", Better: lower},
	{Name: "grid.copy_gb_per_s", Unit: "GB/s", Better: higher},
	{Name: "pool.run_us_per_call", Unit: "us", Better: lower},
	{Name: "pool.slab_speedup", Unit: "x", Better: higher},
	// Halo exchange and transport.
	{Name: "halo.pack_ns_per_value", Unit: "ns", Better: lower},
	{Name: "halo.unpack_ns_per_value", Unit: "ns", Better: lower},
	{Name: "halo.msgs_per_step", Unit: "count", Better: lower},
	{Name: "halo.bytes_per_step", Unit: "B", Better: lower},
	{Name: "msg.send_us_p50", Unit: "us", Better: lower},
	{Name: "msg.recv_wait_us_p50", Unit: "us", Better: lower},
	{Name: "msg.rtt_us_hub", Unit: "us", Better: lower},
	{Name: "msg.rtt_us_tcp", Unit: "us", Better: lower},
	// The driver: rank 0's step time split, and what it implies.
	{Name: "core.compute_frac", Unit: "frac", Better: higher},
	{Name: "core.pack_frac", Unit: "frac", Better: lower},
	{Name: "core.send_frac", Unit: "frac", Better: lower},
	{Name: "core.wait_frac", Unit: "frac", Better: lower},
	{Name: "core.unpack_frac", Unit: "frac", Better: lower},
	{Name: "core.other_frac", Unit: "frac", Better: lower},
	{Name: "core.f_measured", Unit: "frac", Better: higher},
	{Name: "model.f_predicted", Unit: "frac", Better: higher},
	{Name: "core.parallel_efficiency", Unit: "frac", Better: higher},
	{Name: "core.early_msgs_frac", Unit: "frac", Better: lower},
	{Name: "core.step_skew_max", Unit: "steps", Better: lower},
	{Name: "core.allocs_per_step", Unit: "count", Better: lower},
	{Name: "core.alloc_bytes_per_step", Unit: "B", Better: lower},
	{Name: "core.step_ms_tail", Unit: "ms", Better: lower},
	{Name: "core.step_tail_pct", Unit: "%", Better: higher},
	// Control plane, timed singly on a running job.
	{Name: "core.suspend_ms_p50", Unit: "ms", Better: lower},
	{Name: "core.resume_ms_p50", Unit: "ms", Better: lower},
	{Name: "core.migrate_ms_p50", Unit: "ms", Better: lower},
	{Name: "core.resize_grow_ms_p50", Unit: "ms", Better: lower},
	{Name: "core.resize_shrink_ms_p50", Unit: "ms", Better: lower},
	{Name: "core.dumpstate_ms_p50", Unit: "ms", Better: lower},
	{Name: "core.restorestate_ms_p50", Unit: "ms", Better: lower},
	{Name: "syncfile.round_ms_p50", Unit: "ms", Better: lower},
	{Name: "dump.encode_mb_per_s", Unit: "MB/s", Better: higher},
	{Name: "dump.decode_mb_per_s", Unit: "MB/s", Better: higher},
	{Name: "dump.bytes_per_rank", Unit: "B", Better: lower},
	{Name: "ckpt.save_ms_p50", Unit: "ms", Better: lower},
	{Name: "ckpt.load_ms_p50", Unit: "ms", Better: lower},
	{Name: "core.disturb_overhead_frac", Unit: "frac", Better: lower},
	// Farm: generation, event rate, decision census (exact per seed).
	{Name: "workload.generate_jobs_per_s", Unit: "1/s", Better: higher},
	{Name: "workload.trace_file_ms_p50", Unit: "ms", Better: lower},
	{Name: "sched.events_per_s", Unit: "1/s", Better: higher},
	{Name: "sched.events_per_job", Unit: "count", Better: lower},
	{Name: "sched.migrations", Unit: "count", Better: lower},
	{Name: "sched.preemptions", Unit: "count", Better: lower},
	{Name: "sched.backfills", Unit: "count", Better: higher},
	{Name: "sched.reclaims", Unit: "count", Better: lower},
	{Name: "farm.submit_us_p50", Unit: "us", Better: lower},
	{Name: "farm.dropped_events", Unit: "count", Better: lower},
	{Name: "perf.price_us_p50", Unit: "us", Better: lower},
	{Name: "perf.prices_per_s", Unit: "1/s", Better: higher},
	{Name: "cluster.reserve_us_p50", Unit: "us", Better: lower},
	// The end-to-end readings under the names the roadmap uses, on the
	// workloads that define them.
	{Name: "mcells_per_s", Unit: "1e6/s", Better: higher},
	{Name: "step_ms_p50", Unit: "ms", Better: lower},
	{Name: "serial_mcells_per_s", Unit: "1e6/s", Better: higher},
	{Name: "workers_mcells_per_s", Unit: "1e6/s", Better: higher},
	{Name: "migrate_ms_p50", Unit: "ms", Better: lower},
	{Name: "snapshot_ms_p50", Unit: "ms", Better: lower},
	{Name: "resize_ms_p50", Unit: "ms", Better: lower},
	{Name: "ckpt_mb_per_s", Unit: "MB/s", Better: higher},
	{Name: "sched_jobs_per_s", Unit: "1/s", Better: higher},
	{Name: "verify_jobs_per_s", Unit: "1/s", Better: higher},
	{Name: "trace_overhead_frac", Unit: "frac", Better: lower},
}

// metricValue is one reported value.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last output line, as the benchmark contract fixes it.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result assembles the contract line: every end-to-end metric for an
// untraced run, every per-layer metric for a traced one. A missing or
// non-finite end-to-end value is itself a failed operation.
func (r *run) result() result {
	defs := endToEnd
	if r.opt.trace {
		defs = perLayer
	}
	out := result{Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := r.metrics[d.Name]
		if !r.opt.trace {
			r.check(ok && v > 0 && !math.IsInf(v, 0), "metric %s = %v is missing, zero or not finite", d.Name, v)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.check(false, "metric %s = %v is not finite", d.Name, v)
			v = 0
		}
		out.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for name := range r.metrics {
		if _, ok := out.Metrics[name]; !ok && !isDeclared(name) {
			r.check(false, "metric %s is reported but not declared", name)
		}
	}
	out.Attempted, out.Failed = r.attempted, r.failed
	out.Correct = r.failed == 0
	return out
}

func isDeclared(name string) bool {
	for _, tbl := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range tbl {
			if d.Name == name {
				return true
			}
		}
	}
	return false
}

// benchmarkJSON is the BENCHMARK.json document the tables above imply.
func benchmarkJSON(runSeconds int) ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	doc := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloadRows {
		if len(w.Why) > 200 {
			return nil, fmt.Errorf("bench: why of %s has %d characters", w.Name, len(w.Why))
		}
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	return append(data, '\n'), err
}
