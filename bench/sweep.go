package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"path/filepath"
	"slices"
	"time"

	"repro/farm"
	"repro/farm/workload"
)

// sweepSpec is the farm_sweep workload: three cohorts over the lb2d, lb3d
// and fd2d shapes, two priorities, and a reclaim storm every five virtual
// minutes, on the quiet paper pool. jobs bounds the total job count; the
// arrival gaps are sized so the 25-host pool stays loaded without the
// queue growing without bound.
func sweepSpec(jobs int) *workload.Spec {
	per := jobs / 3
	horizon := 10000 * time.Hour
	return &workload.Spec{
		Name:    "bench-sweep",
		Horizon: horizon,
		Cohorts: []workload.Cohort{
			{
				Name: "cfd", Weight: 2,
				Arrivals: workload.Arrivals{Process: workload.Poisson, MeanGap: 270 * time.Second},
				Jobs: workload.JobDist{
					Shapes: []workload.ShapeChoice{
						{Method: "lb2d", JX: 4, JY: 2, Weight: 3},
						{Method: "lb2d", JX: 3, JY: 2, Weight: 1},
					},
					SideMin: 20, SideMax: 40,
					Steps: workload.StepsDist{Median: 3000, Sigma: 0.4},
				},
				Priorities: []workload.IntChoice{{Value: 1, Weight: 3}, {Value: 5, Weight: 1}},
				MaxJobs:    per,
			},
			{
				Name: "duct", Weight: 1,
				Arrivals: workload.Arrivals{Process: workload.Gamma, MeanGap: 270 * time.Second, Shape: 2, Start: time.Minute},
				Jobs: workload.JobDist{
					Shapes:  []workload.ShapeChoice{{Method: "lb3d", JX: 2, JY: 2, JZ: 2}},
					SideMin: 12, SideMax: 20,
					Steps: workload.StepsDist{Median: 1500, Sigma: 0.5},
				},
				Priorities: []workload.IntChoice{{Value: 1, Weight: 1}, {Value: 5, Weight: 1}},
				MaxJobs:    per,
			},
			{
				Name: "cal", Weight: 1,
				Arrivals: workload.Arrivals{Process: workload.Weibull, MeanGap: 270 * time.Second, Shape: 0.8, Start: 2 * time.Minute},
				Jobs: workload.JobDist{
					Shapes:  []workload.ShapeChoice{{Method: "fd2d", JX: 3, JY: 3}, {Method: "fd2d", JX: 2, JY: 2}},
					SideMin: 30, SideMax: 60,
					Steps: workload.StepsDist{Median: 4000, Sigma: 0.3},
				},
				Priorities: []workload.IntChoice{{Value: 1, Weight: 1}},
				MaxJobs:    jobs - 2*per,
			},
		},
		Scenario: &workload.Scenario{
			Every: time.Minute,
			Events: []workload.Event{
				{Kind: workload.ReclaimStorm, At: 5 * time.Minute, Until: horizon,
					Every: 5 * time.Minute, Hosts: 2, Dwell: 2 * time.Minute},
			},
		},
	}
}

var sweepConfig = workload.RunConfig{Policy: farm.Priority, Backfill: farm.BackfillEASY}

// The sweep is a row of cells, as cmd/experiments -exp=sweep fans them:
// each cell is the spec at its own seed, recorded, passed through a trace
// file and verified. A cell is the unit one rate sample is taken over.
const (
	sweepCellJobs      = 2000
	sweepQuickCellJobs = 150
	sweepCells         = 40 // at nominalSeconds
	sweepQuickCells    = 2
)

// cellSeed derives cell i's seed from the workload seed.
func cellSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

func (r *run) sweep() error {
	cells, perCell := r.scaled(sweepCells), sweepCellJobs
	if r.opt.quick {
		cells, perCell = sweepQuickCells, sweepQuickCellJobs
	}
	spec := sweepSpec(perCell)
	r.detail["cells"] = cells
	r.detail["jobs_per_cell"] = perCell

	var ctl *rankTrace
	var tr *tracer
	if r.opt.trace {
		tr = newTracer(1, "farm")
		ctl = tr.ranks[0]
		ctl.opLayer, ctl.opNames = "farm", sweepOpNames
		tr.enable(true)
	}
	span := func(kind int, fn func()) {
		if ctl != nil {
			ctl.begin(kOp, kind)
			defer ctl.end()
		}
		fn()
	}
	dir, err := r.scratch("trace")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "sweep.trace.json")

	var setupWallS, setupRefS, recordRS, verifyRS, recordS, verifyS, fileMs, genS []float64
	var events int
	var sums farm.Summary
	var lastJobs []farm.JobSpec
	var lastTrace *workload.Trace
	stream := sha256.New()
	meter := newRefMeter()
	for i := 0; i < cells; i++ {
		if ctl != nil {
			ctl.step = i
		}
		cfg := sweepConfig
		cfg.Seed = cellSeed(r.opt.seed, i)

		// Set-up: the cell's job stream generated and a farm built over a
		// fresh pool.
		var jobs []farm.JobSpec
		var err error
		setupWall, setupRef := meter.measureFresh(func() {
			span(sweepGenerate, func() {
				t := time.Now()
				jobs, err = workload.Generate(spec, cfg.Seed)
				genS = append(genS, time.Since(t).Seconds())
			})
			if err == nil {
				_, err = farm.New(quietPool(), farm.WithPolicy(cfg.Policy), farm.WithBackfill(cfg.Backfill), farm.WithSeed(cfg.Seed))
			}
		})
		if err != nil {
			return err
		}
		setupWallS, setupRefS = append(setupWallS, setupWall), append(setupRefS, setupRef)
		n := float64(len(jobs))

		// Record: run the cell to completion in virtual time, keep the stream.
		var trace *workload.Trace
		var sum farm.Summary
		wall, ref := meter.measureFresh(func() {
			span(sweepRecord, func() { trace, sum, err = workload.Record(spec, cfg) })
		})
		if err != nil {
			return err
		}
		r.ops(len(jobs))
		r.check(len(sum.Jobs) == len(jobs), "cell %d: %d of %d jobs finished", i, len(sum.Jobs), len(jobs))
		recordRS, recordS = append(recordRS, n/ref), append(recordS, wall)

		// The trace goes through a file, as a recorded run does before
		// anyone verifies it; Verify then runs on what came back from disk.
		var loaded *workload.Trace
		d := timed(func() {
			span(sweepFile, func() {
				if err = trace.WriteFile(path); err == nil {
					loaded, err = workload.ReadTrace(path)
				}
			})
		})
		if err != nil {
			return err
		}
		r.ops(1)
		fileMs = append(fileMs, ms(d))

		wall, ref = meter.measureFresh(func() {
			span(sweepVerify, func() { err = loaded.Verify() })
		})
		r.ops(len(jobs))
		r.check(err == nil, "cell %d: Verify: %v", i, err)
		verifyRS, verifyS = append(verifyRS, n/ref), append(verifyS, wall)

		for _, ev := range trace.Events {
			stream.Write([]byte(ev))
			stream.Write([]byte{'\n'})
		}
		events += len(trace.Events)
		sums.Migrations += sum.Migrations
		sums.Preemptions += sum.Preemptions
		sums.Backfills += sum.Backfills
		sums.Reclaims += sum.Reclaims
		lastJobs, lastTrace = jobs, trace
	}
	total := float64(cells * perCell)
	sumOf := func(v []float64) float64 {
		s := 0.0
		for _, x := range v {
			s += x
		}
		return s
	}
	r.detail["result_sha256"] = hex.EncodeToString(stream.Sum(nil))
	r.detail["events"] = events
	r.detail["samples"] = map[string]int{"cells": cells}
	r.setSetup(setupWallS, setupRefS)
	r.set("work_per_rs", median(recordRS))
	r.set("base_work_per_rs", median(verifyRS))
	r.set("sched_jobs_per_s", total/sumOf(recordS))
	r.set("verify_jobs_per_s", total/sumOf(verifyS))
	if !r.opt.trace {
		return nil
	}

	r.set("workload.trace_file_ms_p50", median(fileMs))
	r.set("workload.generate_jobs_per_s", float64(perCell)/median(genS))
	r.set("sched.events_per_s", float64(events)/sumOf(recordS))
	r.set("sched.events_per_job", float64(events)/total)
	r.set("sched.migrations", float64(sums.Migrations))
	r.set("sched.preemptions", float64(sums.Preemptions))
	r.set("sched.backfills", float64(sums.Backfills))
	r.set("sched.reclaims", float64(sums.Reclaims))

	// The last cell again, driven by hand through the public farm calls
	// with every Submit timed and the event stream counted: the traced
	// twin of Record. Then every job of it priced through the perf engine.
	cfg := sweepConfig
	cfg.Seed = cellSeed(r.opt.seed, cells-1)
	_, directRS := meter.measureFresh(func() {
		span(sweepDirect, func() { err = r.sweepDirect(spec, cfg, lastJobs, lastTrace) })
	})
	if err != nil {
		return err
	}
	r.set("trace_overhead_frac", 1-float64(perCell)/directRS/recordRS[cells-1])
	span(sweepPrice, func() { err = r.probePerf(lastJobs) })
	if err != nil {
		return err
	}
	if err := r.probeReserve(2000); err != nil {
		return err
	}
	out, err := tr.write(r.opt.outDir, r.opt.workload)
	if err != nil {
		return err
	}
	r.detail["span_file"] = out
	return nil
}

// Farm operation names, indexing the tracer's kOp spans.
const (
	sweepRecord = iota
	sweepFile
	sweepVerify
	sweepGenerate
	sweepDirect
	sweepPrice
)

var sweepOpNames = []string{"workload.Record", "Trace.WriteFile+ReadTrace", "Trace.Verify", "workload.Generate", "farm.Submit+Run", "farm.PerfTimer"}

func quietPool() *farm.Cluster {
	c := farm.NewPaperCluster()
	c.Advance(30 * time.Minute)
	return c
}

// sweepDirect repeats the recorded run through farm.New / Submit /
// Subscribe / Run, timing each Submit and counting delivered and dropped
// events. Its stream must equal the recorded one; the caller sets its rate
// against Record's, which is the cost of watching.
func (r *run) sweepDirect(spec *workload.Spec, cfg workload.RunConfig, jobs []farm.JobSpec, trace *workload.Trace) error {
	every, fn, err := spec.Scenario.Compile()
	if err != nil {
		return err
	}
	f, err := farm.New(quietPool(), farm.WithPolicy(cfg.Policy), farm.WithBackfill(cfg.Backfill),
		farm.WithSeed(cfg.Seed), farm.WithScenario(every, fn))
	if err != nil {
		return err
	}
	sub := f.SubscribeBuffered(1 << 14)
	var lines []string
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ev := range sub.Events() {
			lines = append(lines, ev.String())
		}
	}()
	submitUs := make([]float64, 0, len(jobs))
	for _, js := range jobs {
		t := time.Now()
		if _, err := f.Submit(js, nil); err != nil {
			sub.Close()
			<-done
			return err
		}
		submitUs = append(submitUs, us(time.Since(t)))
	}
	f.Drain()
	_, err = f.Run(context.Background())
	if err != nil {
		sub.Close()
	}
	<-done
	if err != nil {
		return err
	}
	r.ops(len(jobs))
	r.set("farm.submit_us_p50", median(submitUs))
	r.set("farm.dropped_events", float64(sub.Dropped()))
	r.check(sub.Dropped() > 0 || slices.Equal(lines, trace.Events), "hand-driven farm run and Record produced different event streams")
	return nil
}
