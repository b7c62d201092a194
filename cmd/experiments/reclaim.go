package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/farm"
	"repro/internal/cluster"
)

// stormMix is the reclaim-storm workload: a 20-rank head job arrives two
// minutes in behind a steady stream of 8-rank jobs — the EASY-versus-
// aggressive starvation scenario — while users keep taking workstations
// back from under the running jobs. The head stays narrower than the
// pool minus the reclaimed hosts, so its projected start remains
// computable and the EASY reservation can bite.
func stormMix() []farm.JobSpec {
	specs := []farm.JobSpec{
		{ID: "head-wide", Method: "lb2d", JX: 5, JY: 4, Side: 40, Steps: 6000,
			Submit: 2 * time.Minute},
	}
	for k := 0; k < 8; k++ {
		specs = append(specs, farm.JobSpec{
			ID:     fmt.Sprintf("small-%d", k),
			Method: "lb2d", JX: 4, JY: 2, Side: 40, Steps: 15000,
			Submit: time.Duration(k) * 5 * time.Minute,
		})
	}
	return specs
}

// reclaimStorm runs the online farm through a scripted storm of users
// returning to reserved workstations: every ten virtual minutes a user
// sits down at a busy host (and leaves half an hour later). The farm
// reacts within the same scheduling round — the displaced rank migrates
// through the section-5.1 dump/rebuild path and the job is repriced on
// its patched placement — instead of squatting beside the user. The same
// trace replays under EASY and aggressive backfill, exposing the
// head-of-line starvation EASY closes.
func reclaimStorm(w io.Writer) error {
	header(w, "Reclaim storm: users take hosts back mid-run (seed 1, FIFO)")
	fmt.Fprintf(w, "%d jobs; a user reclaims one reserved host every 10 virtual minutes\n", len(stormMix()))
	fmt.Fprintf(w, "and leaves 30 minutes later; displaced ranks migrate the same round\n\n")
	fmt.Fprintf(w, "%-12s %12s %12s %12s %9s %9s %9s %9s %9s\n",
		"backfill", "makespan", "mean wait", "head wait", "util", "bfills", "reclaims", "migr", "repriced")
	for _, mode := range []farm.BackfillMode{farm.BackfillEASY, farm.BackfillAggressive} {
		reclaimAt := make(map[*cluster.Host]time.Duration)
		f, err := farm.New(quietPaperPool(),
			farm.WithSeed(1),
			farm.WithBackfill(mode),
			farm.WithScenario(time.Minute, func(t time.Duration, c *cluster.Cluster) {
				for h, at := range reclaimAt {
					if at >= 0 && t-at >= 30*time.Minute {
						c.UserGone(h)
						reclaimAt[h] = -1 // gone; don't release twice
					}
				}
				if t%(10*time.Minute) != 0 {
					return
				}
				for _, h := range c.Hosts { // deterministic scan order
					if h.Assigned() >= 0 && !h.Reclaimed() {
						c.Reclaim(h)
						reclaimAt[h] = t
						return
					}
				}
			}))
		if err != nil {
			return err
		}
		var head *farm.Job
		for _, sp := range stormMix() {
			j, err := f.Submit(sp, nil)
			if err != nil {
				return err
			}
			if sp.ID == "head-wide" {
				head = j
			}
		}
		f.Drain()
		sum, err := f.Run(context.Background())
		if err != nil {
			return err
		}
		headRec, ok := head.Metrics()
		if !ok {
			return fmt.Errorf("head-wide has no metrics after the run (status %v)", head.Status())
		}
		fmt.Fprintf(w, "%-12s %12s %12s %12s %9.3f %9d %9d %9d %9d\n",
			mode, sum.Makespan.Round(time.Second), sum.MeanWait.Round(time.Second),
			headRec.Wait().Round(time.Second), sum.Utilization,
			sum.Backfills, sum.Reclaims, sum.Migrations, sum.Repricings)
	}
	fmt.Fprintln(w, "\nEASY backfill holds the wide head's projected start (computed from the")
	fmt.Fprintln(w, "running jobs' virtual finish times) and only backfills jobs that finish")
	fmt.Fprintln(w, "before it; aggressive backfill lets the small-job stream starve the head.")
	fmt.Fprintln(w, "Either way every reclaimed host is vacated in the round the user returns.")
	return nil
}
