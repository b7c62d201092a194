package main

import (
	"fmt"
	"io"
	"time"

	"repro/farm"
	"repro/internal/cluster"
	"repro/internal/perf"
)

// quietPaperPool returns the paper's 25-host pool with half an hour of
// idle time elapsed, so the load averages have decayed and every user
// counts as idle — the common starting condition of the farm, reclaim,
// crash and hetero scenes, kept in one place so their pools cannot
// drift apart.
func quietPaperPool() *cluster.Cluster {
	c := cluster.NewPaperCluster()
	c.Advance(30 * time.Minute)
	return c
}

// farmMix is the reproducible workload of the farm experiment: eight jobs
// built from the repository's setups — 2D LB ducts (the figure-1 flue
// pipe of cmd/fluidsim and the figure-5 scaling duct), 3D boxes
// (core.ExampleRunParallel3D), 2D FD acoustics (the acoustics entry) —
// with mixed sizes, tenants and priorities arriving over the first
// simulated hour.
func farmMix() []farm.JobSpec {
	return []farm.JobSpec{
		{ID: "duct-wide", User: "cfd", Method: "lb2d", JX: 5, JY: 4, Side: 40,
			Steps: 8000, Priority: 1, Weight: 2},
		{ID: "duct-quad", User: "cfd", Method: "lb2d", JX: 2, JY: 2, Side: 40,
			Steps: 12000, Priority: 1, Weight: 2},
		{ID: "probe-serial", User: "cal", Method: "fd2d", JX: 1, JY: 1, Side: 64,
			Steps: 12000, Priority: 0, Weight: 1},
		{ID: "box3d", User: "cfd", Method: "lb3d", JX: 2, JY: 2, JZ: 2, Side: 16,
			Steps: 3000, Priority: 1, Weight: 2, Submit: 4 * time.Minute},
		{ID: "acoustics", User: "ac", Method: "fd2d", JX: 3, JY: 3, Side: 30,
			Steps: 8000, Priority: 3, Weight: 1, Submit: 6 * time.Minute},
		{ID: "urgent-duct", User: "ops", Method: "lb2d", JX: 4, JY: 4, Side: 20,
			Steps: 4000, Priority: 9, Weight: 4, Submit: 8 * time.Minute},
		{ID: "grand-duct", User: "cfd", Method: "lb2d", JX: 6, JY: 4, Side: 40,
			Steps: 2000, Priority: 5, Weight: 2, Submit: 12 * time.Minute},
		{ID: "tail-probe", User: "cal", Method: "fd2d", JX: 1, JY: 1, Side: 40,
			Steps: 8000, Priority: 0, Weight: 1, Submit: 15 * time.Minute},
	}
}

// farmExp compares the three queueing policies on the fixed workload
// mix, replayed deterministically in virtual time on the paper's
// 25-host pool with the perf engine pricing each job's steps (compute +
// halo exchange on the modelled Ethernet).
func farmExp(w io.Writer) error {
	header(w, "Simulation farm: FIFO vs priority vs weighted-fair (seed 1)")
	fmt.Fprintf(w, "%d jobs on the 25-host pool; step times from the perf engine\n\n", len(farmMix()))
	fmt.Fprintf(w, "%-10s %12s %12s %12s %12s %9s %9s\n",
		"policy", "makespan", "mean wait", "max wait", "util", "preempts", "bfills")
	var prioSum fmt.Stringer
	for _, pol := range []farm.Policy{farm.FIFO, farm.Priority, farm.WeightedFair} {
		sum, err := farm.Replay(quietPaperPool(), pol, 1, farm.PerfTimer(perf.Ethernet), farmMix())
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-10s %12s %12s %12s %12.3f %9d %9d\n",
			pol, sum.Makespan.Round(time.Second), sum.MeanWait.Round(time.Second),
			sum.MaxWait.Round(time.Second), sum.Utilization, sum.Preemptions, sum.Backfills)
		if pol == farm.Priority {
			prioSum = sum
		}
	}
	fmt.Fprintln(w, "\nper-job detail under the priority policy:")
	fmt.Fprint(w, prioSum)
	fmt.Fprintln(w, "\npreemption suspends a job through the section-5.1 migration dump")
	fmt.Fprintln(w, "and resumes it later — the preempted simulation's results stay")
	fmt.Fprintln(w, "bit-identical (farm TestFarmPreemptsRealCoreJob).")
	return nil
}
