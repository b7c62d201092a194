package workload_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/farm"
	"repro/farm/workload"
)

// scalingSpec is bench/'s farm_sweep stream at a chosen length: three
// cohorts (lb2d, lb3d, fd2d), two priorities and a reclaim storm every
// five virtual minutes, arrivals paced so the 25-host pool stays loaded
// and the queue stays short. With the queue bounded, Record's cost per
// job should not depend on how many jobs the stream holds.
func scalingSpec(jobs int) *workload.Spec {
	per := jobs / 3
	horizon := 10000 * time.Hour
	gap := 270 * time.Second
	return &workload.Spec{
		Name:    "record-scaling",
		Horizon: horizon,
		Cohorts: []workload.Cohort{
			{
				Name: "cfd", Weight: 2,
				Arrivals: workload.Arrivals{Process: workload.Poisson, MeanGap: gap},
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
				Arrivals: workload.Arrivals{Process: workload.Gamma, MeanGap: gap, Shape: 2, Start: time.Minute},
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
				Arrivals: workload.Arrivals{Process: workload.Weibull, MeanGap: gap, Shape: 0.8, Start: 2 * time.Minute},
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

// BenchmarkRecordScaling records the same seeded stream at three lengths
// and reports jobs retired per wall second. The rows are read against
// each other: a scheduler whose round costs its placements holds the
// rate as the stream grows; one that rescans every not-yet-arrived job
// each iteration loses it with the square of the length. Ungated — CI
// runs it once and writes the three rates to the step summary.
func BenchmarkRecordScaling(b *testing.B) {
	cfg := workload.RunConfig{Policy: farm.Priority, Backfill: farm.BackfillEASY, Seed: 1}
	for _, jobs := range []int{2000, 8000, 14000} {
		spec := scalingSpec(jobs)
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, sum, err := workload.Record(spec, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if len(sum.Jobs) != jobs {
					b.Fatalf("%d of %d jobs finished", len(sum.Jobs), jobs)
				}
			}
			b.ReportMetric(float64(jobs)*float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
		})
	}
}

// TestRunAllocationsPerJob pins what the farm loop allocates per job on
// the scaling stream: mixed-model placements, preemptions and a reclaim
// storm every five virtual minutes, with no subscriber. A placement
// builds its tier order in the cluster's scratch and prices the uniform
// split without building it, so what is left is each job's own records
// (its state, its reservation and host list, its events' host names and
// its weighted shape). The loop allocated 66-69 objects a job while the
// tier order and the remainder order were reflection sorts and each
// pricing of the uniform split built its spans, and 20.2 and 19.9 while
// each admission gathered its jobs in a list of its own. It reads 19.2
// and 18.9 now, and the budget is the higher reading plus 3.
func TestRunAllocationsPerJob(t *testing.T) {
	const budget = 22.2
	spec := scalingSpec(2000)
	every, hook, err := spec.Scenario.Compile()
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1000, 1001} {
		jobs, err := workload.Generate(spec, seed)
		if err != nil {
			t.Fatal(err)
		}
		pool := farm.NewPaperCluster()
		pool.Advance(30 * time.Minute)
		f, err := farm.New(pool, farm.WithPolicy(farm.Priority), farm.WithBackfill(farm.BackfillEASY),
			farm.WithSeed(seed), farm.WithScenario(every, hook))
		if err != nil {
			t.Fatal(err)
		}
		for _, sp := range jobs {
			if _, err := f.Submit(sp, nil); err != nil {
				t.Fatal(err)
			}
		}
		f.Drain()
		var sum farm.Summary
		mallocs := countMallocs(func() { sum, err = f.Run(context.Background()) })
		if err != nil {
			t.Fatal(err)
		}
		if len(sum.Jobs) != len(jobs) || sum.Preemptions == 0 || sum.Migrations == 0 || sum.Weighted == 0 {
			t.Fatalf("seed %d: %d of %d jobs done, %d preemptions, %d migrations, %d weighted: the stream no longer exercises the placement path",
				seed, len(sum.Jobs), len(jobs), sum.Preemptions, sum.Migrations, sum.Weighted)
		}
		perJob := float64(mallocs) / float64(len(jobs))
		t.Logf("seed %d: %.1f allocations a job", seed, perJob)
		if perJob > budget {
			t.Errorf("seed %d: Run allocated %.1f objects a job, budget %.1f", seed, perJob, budget)
		}
	}
}

// TestRecordAllocationsPerJob pins what a recorded job costs the
// allocator end to end: the stream generated, the farm loop, the
// subscriber and one trace line per event. Each event's String appends
// its fields into a stack buffer and allocates only the line; with
// fmt.Sprintf boxing every argument (and JobMigrated formatting each
// rank first) a job cost 57.8 and 57.9 objects at these seeds.
func TestRecordAllocationsPerJob(t *testing.T) {
	const budget = 30
	spec := scalingSpec(2000)
	for _, seed := range []int64{1000, 1001} {
		cfg := workload.RunConfig{Policy: farm.Priority, Backfill: farm.BackfillEASY, Seed: seed}
		var tr *workload.Trace
		var err error
		mallocs := countMallocs(func() { tr, _, err = workload.Record(spec, cfg) })
		if err != nil {
			t.Fatal(err)
		}
		perJob := float64(mallocs) / float64(len(tr.Jobs))
		t.Logf("seed %d: %.1f allocations a recorded job (%d events)", seed, perJob, len(tr.Events))
		if perJob > budget {
			t.Errorf("seed %d: Record allocated %.1f objects a job, budget %d", seed, perJob, budget)
		}
	}
}

// countMallocs returns the heap objects allocated while fn runs.
func countMallocs(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}
