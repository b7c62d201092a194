package main

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/farm"
	"repro/farm/workload"
)

// sweepSeeds is the number of seeds per (spec, policy, backfill) cell,
// numbered 1..sweepSeeds.
const sweepSeeds = 2

// sweepSpecs are the built-in scenario family: a quiet baseline, the
// section-5.1 reclaim regime, and a bursty diurnal pool with churn and
// an owner-return wave. All three are bounded (MaxJobs per cohort) so a
// sweep cell runs in well under a second.
func sweepSpecs() []*workload.Spec {
	return []*workload.Spec{
		{
			Name:    "steady",
			Horizon: 40 * time.Minute,
			Cohorts: []workload.Cohort{
				{
					Name: "cfd", Weight: 2,
					Arrivals: workload.Arrivals{Process: workload.Poisson, MeanGap: 5 * time.Minute},
					Jobs: workload.JobDist{
						Shapes: []workload.ShapeChoice{
							{Method: "lb2d", JX: 4, JY: 2, Weight: 3},
							{Method: "lb2d", JX: 5, JY: 4, Weight: 1},
						},
						SideMin: 20, SideMax: 40,
						Steps: workload.StepsDist{Median: 6000, Sigma: 0.4},
					},
					Priorities: []workload.IntChoice{{Value: 1, Weight: 1}},
					MaxJobs:    6,
				},
				{
					Name: "cal",
					Arrivals: workload.Arrivals{Process: workload.Gamma, MeanGap: 8 * time.Minute,
						Shape: 2, Start: 2 * time.Minute},
					Jobs: workload.JobDist{
						Shapes:  []workload.ShapeChoice{{Method: "fd2d", JX: 3, JY: 3}},
						SideMin: 40, SideMax: 64,
						Steps: workload.StepsDist{Median: 8000, Sigma: 0.3},
					},
					MaxJobs: 4,
				},
			},
		},
		{
			Name:    "storm",
			Horizon: 40 * time.Minute,
			Cohorts: []workload.Cohort{
				{
					Name: "cfd", Weight: 2,
					Arrivals: workload.Arrivals{Process: workload.Poisson, MeanGap: 3 * time.Minute},
					Jobs: workload.JobDist{
						Shapes: []workload.ShapeChoice{
							{Method: "lb2d", JX: 4, JY: 3, Weight: 2},
							{Method: "lb3d", JX: 2, JY: 2, JZ: 2, Weight: 1},
						},
						SideMin: 16, SideMax: 32,
						Steps: workload.StepsDist{Median: 5000, Sigma: 0.5},
					},
					Priorities: []workload.IntChoice{{Value: 1, Weight: 3}, {Value: 5, Weight: 1}},
					MaxJobs:    7,
				},
			},
			Scenario: &workload.Scenario{
				Every: time.Minute,
				Events: []workload.Event{
					{Kind: workload.ReclaimStorm, At: 8 * time.Minute, Until: 23 * time.Minute,
						Every: 5 * time.Minute, Hosts: 2, Dwell: 4 * time.Minute},
				},
			},
		},
		{
			Name:    "diurnal-churn",
			Horizon: time.Hour,
			Cohorts: []workload.Cohort{
				{
					Name: "night", Weight: 1,
					Arrivals: workload.Arrivals{Process: workload.Weibull, MeanGap: 6 * time.Minute,
						Shape: 0.7, Diurnal: []float64{2, 1, 0.5, 1}, Day: time.Hour},
					Jobs: workload.JobDist{
						Shapes: []workload.ShapeChoice{
							{Method: "fd2d", JX: 4, JY: 3, Weight: 1},
							{Method: "lb2d", JX: 3, JY: 3, Weight: 1},
						},
						SideMin: 20, SideMax: 30,
						Steps: workload.StepsDist{Median: 4000, Sigma: 0.6},
					},
					MaxJobs: 8,
				},
			},
			Scenario: &workload.Scenario{
				Every: time.Minute,
				Events: []workload.Event{
					{Kind: workload.HostChurn, At: 5 * time.Minute, Until: 50 * time.Minute,
						Every: 15 * time.Minute, Hosts: 3},
					{Kind: workload.OwnerReturn, At: 30 * time.Minute, Hosts: 4, Dwell: 10 * time.Minute},
				},
			},
		},
	}
}

// sweepRow is one cell of the sweep table: the knobs plus the run's
// pinned-schema metrics summary.
type sweepRow struct {
	Spec     string       `json:"spec"`
	Seed     int64        `json:"seed"`
	Policy   string       `json:"policy"`
	Backfill string       `json:"backfill"`
	Jobs     int          `json:"jobs"`
	Summary  farm.Summary `json:"summary"`
}

// sweepTable is the JSON envelope of a sweep run.
type sweepTable struct {
	Format  string     `json:"format"`
	Version int        `json:"version"`
	Timer   string     `json:"timer"`
	Rows    []sweepRow `json:"rows"`
}

// sweep fans the built-in scenario specs across seeds and scheduling
// knobs: each cell generates the workload at its seed, records the full
// event trace, re-runs it in verify mode (failing if the replay is not
// byte-identical — the determinism regression pin), and reports the
// run's metrics. The table prints as text and as JSON.
func sweep(w io.Writer) error {
	knobs := []struct {
		policy   farm.Policy
		backfill farm.BackfillMode
	}{
		{farm.FIFO, farm.BackfillEASY},
		{farm.FIFO, farm.BackfillAggressive},
		{farm.Priority, farm.BackfillEASY},
		{farm.WeightedFair, farm.BackfillEASY},
	}
	table := sweepTable{Format: "farm-sweep-summary", Version: 1, Timer: workload.TimerPerfEthernet}
	for _, spec := range sweepSpecs() {
		header(w, fmt.Sprintf("Sweep %q: %d knob sets x %d seeds (trace-verified)", spec.Name, len(knobs), sweepSeeds))
		fmt.Fprintf(w, "%-10s %-12s %5s %5s %12s %12s %8s %9s %7s %6s\n",
			"policy", "backfill", "seed", "jobs", "makespan", "mean wait", "util", "preempts", "bfills", "migr")
		for _, k := range knobs {
			for seed := int64(1); seed <= sweepSeeds; seed++ {
				cfg := workload.RunConfig{
					Seed: seed, Policy: k.policy, Backfill: k.backfill, Timer: workload.TimerPerfEthernet,
				}
				tr, sum, err := workload.Record(spec, cfg)
				if err != nil {
					return fmt.Errorf("%s/%s/%s seed %d: %w", spec.Name, k.policy, k.backfill, seed, err)
				}
				if err := tr.Verify(); err != nil {
					return fmt.Errorf("%s/%s/%s seed %d: %w", spec.Name, k.policy, k.backfill, seed, err)
				}
				table.Rows = append(table.Rows, sweepRow{
					Spec: spec.Name, Seed: seed,
					Policy: k.policy.String(), Backfill: k.backfill.String(),
					Jobs: len(tr.Jobs), Summary: sum,
				})
				fmt.Fprintf(w, "%-10s %-12s %5d %5d %12s %12s %8.3f %9d %7d %6d\n",
					k.policy, k.backfill, seed, len(tr.Jobs),
					sum.Makespan.Round(time.Second), sum.MeanWait.Round(time.Second),
					sum.Utilization, sum.Preemptions, sum.Backfills, sum.Migrations)
			}
		}
	}
	data, err := json.MarshalIndent(table, "", "  ")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nJSON summary table (%d rows):\n%s\n", len(table.Rows), data)
	return nil
}
