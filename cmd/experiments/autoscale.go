package main

import (
	"errors"
	"fmt"
	"io"
	"time"

	"repro/farm"
	"repro/farm/workload"
)

// autoscaleSeed is the workload seed of both autoscale regimes.
const autoscaleSeed = 11

// autoscaleSpec is the diurnal-churn regime the autoscaler is built
// for: a sparse night-time stream of mid-size jobs on the mostly idle
// pool — plenty of supply for growth — followed by a morning wave of
// returning owners that shrinks the pool while arrivals pick up, so
// grown jobs must hand ranks back for queued demand.
func autoscaleSpec() *workload.Spec {
	return &workload.Spec{
		Name:    "autoscale-diurnal",
		Horizon: 50 * time.Minute,
		Cohorts: []workload.Cohort{
			{
				Name: "night",
				Arrivals: workload.Arrivals{Process: workload.Weibull, MeanGap: 6 * time.Minute,
					Shape: 0.8, Diurnal: []float64{0.6, 1, 2, 2}, Day: time.Hour},
				Jobs: workload.JobDist{
					Shapes: []workload.ShapeChoice{
						{Method: "lb2d", JX: 3, JY: 2, Weight: 2},
						{Method: "lb2d", JX: 2, JY: 2, Weight: 1},
					},
					SideMin: 20, SideMax: 30,
					Steps: workload.StepsDist{Median: 6000, Sigma: 0.4},
				},
				MaxJobs: 5,
			},
			{
				// The morning cohort: wide jobs arriving as the owners
				// return, so grown night jobs must hand ranks back.
				Name: "morning",
				Arrivals: workload.Arrivals{Process: workload.Poisson, MeanGap: 8 * time.Minute,
					Start: 18 * time.Minute},
				Jobs: workload.JobDist{
					Shapes:  []workload.ShapeChoice{{Method: "lb2d", JX: 4, JY: 3}},
					SideMin: 20, SideMax: 24,
					Steps: workload.StepsDist{Median: 4000, Sigma: 0.3},
				},
				MaxJobs: 2,
			},
		},
		Scenario: &workload.Scenario{
			Every: time.Minute,
			Events: []workload.Event{
				{Kind: workload.HostChurn, At: 5 * time.Minute, Until: 20 * time.Minute,
					Every: 5 * time.Minute, Hosts: 2},
				{Kind: workload.OwnerReturn, At: 20 * time.Minute, Hosts: 10, Dwell: 15 * time.Minute},
			},
		},
	}
}

// autoscaleCollapseSpec is the shrink-heavy regime: the diurnal pool
// under a demand collapse. An early surge of narrow, long-running jobs
// meets the mostly idle 25-host pool, so the autoscaler grows them
// toward MaxFactor — then the surge dries up (MaxJobs caps it), a
// large owner wave reclaims most of the pool, and the only arrivals
// left are a late trickle of wide jobs that the collapsed pool cannot
// seat while grown jobs squat on lent ranks. The control loop's only
// correct move is Resize shrink — the path the diurnal regime rarely
// exercises end-to-end.
func autoscaleCollapseSpec() *workload.Spec {
	return &workload.Spec{
		Name:    "autoscale-collapse",
		Horizon: 50 * time.Minute,
		Cohorts: []workload.Cohort{
			{
				Name: "surge",
				Arrivals: workload.Arrivals{Process: workload.Poisson,
					MeanGap: 90 * time.Second},
				Jobs: workload.JobDist{
					Shapes: []workload.ShapeChoice{
						{Method: "lb2d", JX: 2, JY: 1, Weight: 2},
						{Method: "lb2d", JX: 2, JY: 2, Weight: 1},
					},
					SideMin: 20, SideMax: 26,
					Steps: workload.StepsDist{Median: 250000, Sigma: 0.3},
				},
				MaxJobs: 4,
			},
			{
				// The residual demand after the collapse: wide jobs the
				// reclaimed pool cannot seat without clawing ranks back.
				Name: "late",
				Arrivals: workload.Arrivals{Process: workload.Poisson,
					MeanGap: 4 * time.Minute, Start: 16 * time.Minute},
				Jobs: workload.JobDist{
					Shapes:  []workload.ShapeChoice{{Method: "lb2d", JX: 4, JY: 3}},
					SideMin: 20, SideMax: 24,
					Steps: workload.StepsDist{Median: 4000, Sigma: 0.3},
				},
				MaxJobs: 2,
			},
		},
		Scenario: &workload.Scenario{
			Every: time.Minute,
			Events: []workload.Event{
				{Kind: workload.OwnerReturn, At: 15 * time.Minute, Hosts: 6,
					Dwell: 30 * time.Minute},
			},
		},
	}
}

// autoscalePlan is the control loop under test: tick twice a virtual
// minute, lend idle hosts in chunks of four, grow a job to at most
// three times its submitted width, confirm each decision over two
// ticks, and leave a resized job alone for two minutes.
func autoscalePlan() *workload.AutoscalePlan {
	return &workload.AutoscalePlan{
		Every: 30 * time.Second,
		Spare: 2, Chunk: 4, MaxFactor: 3,
		Confirm: 2, Cooldown: 2 * time.Minute,
	}
}

// autoscaleExp runs the diurnal-churn workload twice at the same seed —
// static ranks vs the supply/demand autoscaler — trace-verifies the
// autoscaled run (the v1.1 determinism pin), and fails unless the
// autoscaler's makespan is no worse than static's and its makespan or
// mean utilization is strictly better: the regression gate. A second,
// shrink-heavy regime must hand ranks back.
func autoscaleExp(w io.Writer) error {
	header(w, "Malleable farm: supply/demand autoscaler vs static ranks (diurnal churn)")
	spec := autoscaleSpec()
	static := workload.RunConfig{Seed: autoscaleSeed, Policy: farm.FIFO, Backfill: farm.BackfillEASY}
	scaled := static
	scaled.Autoscale = autoscalePlan()

	trS, sumS, err := workload.Record(spec, static)
	if err != nil {
		return fmt.Errorf("static baseline: %w", err)
	}
	trA, sumA, err := workload.Record(spec, scaled)
	if err != nil {
		return fmt.Errorf("autoscaled run: %w", err)
	}
	if trA.Minor != workload.TraceMinor {
		return fmt.Errorf("autoscaled trace written at v%d.%d, want v%d.%d",
			trA.Version, trA.Minor, workload.TraceVersion, workload.TraceMinor)
	}
	// Both runs must replay byte-identically: the static one pins the
	// v1 path, the autoscaled one pins v1.1 with the engine re-compiled
	// from the recorded plan.
	if err := trS.Verify(); err != nil {
		return fmt.Errorf("static trace: %w", err)
	}
	if err := trA.Verify(); err != nil {
		return fmt.Errorf("autoscaled trace: %w", err)
	}

	fmt.Fprintf(w, "%d jobs at seed %d, FIFO + EASY, compute timer\n\n", len(trS.Jobs), autoscaleSeed)
	fmt.Fprintf(w, "%-12s %12s %12s %8s %8s %6s %6s\n",
		"ranks", "makespan", "mean wait", "util", "resizes", "+rk", "-rk")
	row := func(label string, s farm.Summary) {
		fmt.Fprintf(w, "%-12s %12s %12s %8.3f %8d %6d %6d\n",
			label, s.Makespan.Round(time.Second), s.MeanWait.Round(time.Second),
			s.Utilization, s.Resizes, s.GrowRanks, s.ShrinkRanks)
	}
	row("static", sumS)
	row("autoscaled", sumA)

	if sumA.Resizes == 0 {
		return errors.New("the control loop never resized; the scenario exercises nothing")
	}
	dMake := sumS.Makespan - sumA.Makespan
	dUtil := sumA.Utilization - sumS.Utilization
	fmt.Fprintf(w, "\nmakespan %+v, utilization %+.3f vs static\n", -dMake, dUtil)
	// A resize that slows its job raises utilization, so utilization
	// counts only at a makespan no worse than static's.
	if dMake < 0 || (dMake == 0 && dUtil <= 0) {
		return fmt.Errorf("REGRESSION — autoscaled makespan %v against static %v, utilization %+.3f: "+
			"want the makespan no worse and one of the two strictly better",
			sumA.Makespan.Round(time.Second), sumS.Makespan.Round(time.Second), dUtil)
	}
	fmt.Fprintln(w, "gate passed: autoscaler improves on static ranks")

	// Shrink-heavy regime: demand collapse. The diurnal scenario above
	// proves growth; unit tests prove Resize shrink in isolation; this
	// run proves the control loop chooses shrink end-to-end when supply
	// is withdrawn under grown jobs and the residual wide demand cannot
	// be seated without clawing lent ranks back.
	header(w, "Malleable farm: demand collapse (shrink-heavy regime)")
	cSpec := autoscaleCollapseSpec()
	trC, sumC, err := workload.Record(cSpec, scaled)
	if err != nil {
		return fmt.Errorf("collapse run: %w", err)
	}
	if err := trC.Verify(); err != nil {
		return fmt.Errorf("collapse trace: %w", err)
	}
	fmt.Fprintf(w, "%d jobs at seed %d, FIFO + EASY, compute timer\n\n", len(trC.Jobs), autoscaleSeed)
	fmt.Fprintf(w, "%-12s %12s %12s %8s %8s %6s %6s\n",
		"ranks", "makespan", "mean wait", "util", "resizes", "+rk", "-rk")
	row("autoscaled", sumC)
	if sumC.GrowRanks == 0 {
		return errors.New("collapse regime never grew; there is nothing to hand back")
	}
	if sumC.ShrinkRanks == 0 {
		return errors.New("collapse regime never shrank; the owner-return wave forced no Resize shrink")
	}
	fmt.Fprintf(w, "\ngate passed: demand collapse forced shrink (%d ranks handed back over %d resizes)\n",
		sumC.ShrinkRanks, sumC.Resizes)
	return nil
}
