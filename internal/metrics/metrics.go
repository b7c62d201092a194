// Package metrics is the reporting layer of the simulation farm: per-job
// records of when a job was submitted, first started, preempted and
// completed, and the aggregate figures a scheduling policy is judged by —
// mean and maximum queue wait, makespan, pool utilization, preemption and
// backfill counts. All times are virtual (the cluster's clock), relative
// to the farm's start, which is what makes trace replays deterministic.
package metrics

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"time"
)

// Job is the lifecycle record of one completed job.
type Job struct {
	ID       string
	Ranks    int
	Priority int

	// Submit, FirstStart and Done are farm-relative virtual times.
	Submit, FirstStart, Done time.Duration
	// Served is the total virtual time the job held its hosts.
	Served time.Duration

	Preemptions int
	Backfilled  bool

	// Migrations counts ranks moved off reclaimed hosts mid-run, and
	// Repricings counts the step-time re-estimates those moves caused.
	Migrations int
	Repricings int

	// Resizes counts the job's completed mid-run re-decompositions;
	// GrowRanks and ShrinkRanks total the ranks they added and removed.
	// Ranks above is the job's final rank count after them.
	Resizes     int
	GrowRanks   int
	ShrinkRanks int

	// Weighted reports whether the job ran a speed-weighted decomposition
	// (spans sized by host speed) rather than the uniform split.
	Weighted bool
	// Imbalance is the job's load-imbalance ratio at its last pricing:
	// the slowest rank's compute time over the perfectly balanced ideal.
	// 1.0 is perfect balance; a uniform split on a mixed-model pool sits
	// strictly above it. Zero for jobs that never ran.
	Imbalance float64
}

// Wait is the queue wait: submission to first placement.
func (j Job) Wait() time.Duration { return j.FirstStart - j.Submit }

// Summary aggregates a finished farm run.
type Summary struct {
	Jobs []Job

	// Makespan spans the first submission to the last completion.
	Makespan time.Duration
	// MeanWait and MaxWait aggregate the per-job queue waits.
	MeanWait, MaxWait time.Duration
	// Utilization is busy host-time over hosts x makespan.
	Utilization float64

	Preemptions int
	Backfills   int

	// Migrations and Repricings aggregate the per-job mid-run
	// host-reclaim responses; Reclaims counts the user-return events the
	// farm observed (set by the scheduler, not derivable from jobs).
	Migrations int
	Repricings int
	Reclaims   int

	// Resizes, GrowRanks and ShrinkRanks aggregate the per-job malleable
	// re-decompositions (the autoscaler's actuations).
	Resizes     int
	GrowRanks   int
	ShrinkRanks int

	// MeanImbalance and MaxImbalance aggregate the per-job load-imbalance
	// ratios over the jobs that ran (1.0 is perfect balance); Weighted
	// counts the jobs placed with a speed-weighted decomposition.
	MeanImbalance float64
	MaxImbalance  float64
	Weighted      int

	// EASYDegraded counts the scheduling rounds whose EASY shadow was
	// incomputable, so backfill explicitly fell back to aggressive mode
	// (set by the scheduler, not derivable from jobs).
	EASYDegraded int
}

// Summarize computes the aggregate figures for a set of completed jobs on
// a pool of the given size. Jobs are reported sorted by (Submit, ID).
func Summarize(jobs []Job, hosts int) Summary {
	s := Summary{Jobs: append([]Job(nil), jobs...)}
	slices.SortStableFunc(s.Jobs, func(a, b Job) int {
		return cmp.Or(cmp.Compare(a.Submit, b.Submit), strings.Compare(a.ID, b.ID))
	})
	if len(s.Jobs) == 0 {
		return s
	}
	minSubmit, maxDone := s.Jobs[0].Submit, time.Duration(0)
	var totalWait time.Duration
	busyHostSec := 0.0
	imbSum, imbJobs := 0.0, 0
	for _, j := range s.Jobs {
		if j.Submit < minSubmit {
			minSubmit = j.Submit
		}
		if j.Done > maxDone {
			maxDone = j.Done
		}
		w := j.Wait()
		totalWait += w
		if w > s.MaxWait {
			s.MaxWait = w
		}
		busyHostSec += j.Served.Seconds() * float64(j.Ranks)
		s.Preemptions += j.Preemptions
		if j.Backfilled {
			s.Backfills++
		}
		s.Migrations += j.Migrations
		s.Repricings += j.Repricings
		s.Resizes += j.Resizes
		s.GrowRanks += j.GrowRanks
		s.ShrinkRanks += j.ShrinkRanks
		if j.Weighted {
			s.Weighted++
		}
		if j.Imbalance > 0 {
			imbSum += j.Imbalance
			imbJobs++
			if j.Imbalance > s.MaxImbalance {
				s.MaxImbalance = j.Imbalance
			}
		}
	}
	s.Makespan = maxDone - minSubmit
	s.MeanWait = totalWait / time.Duration(len(s.Jobs))
	if imbJobs > 0 {
		s.MeanImbalance = imbSum / float64(imbJobs)
	}
	if hosts > 0 && s.Makespan > 0 {
		s.Utilization = busyHostSec / (float64(hosts) * s.Makespan.Seconds())
	}
	return s
}

// String renders the summary as a fixed-width table, one job per line
// plus the aggregate footer.
func (s Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %5s %4s %12s %12s %12s %8s %5s %5s %5s %7s\n",
		"job", "ranks", "prio", "submit", "wait", "done", "preempt", "bfill", "migr", "wtd", "imbal")
	for _, j := range s.Jobs {
		bf, wt := "", ""
		if j.Backfilled {
			bf = "yes"
		}
		if j.Weighted {
			wt = "yes"
		}
		fmt.Fprintf(&b, "%-12s %5d %4d %12s %12s %12s %8d %5s %5d %5s %7.3f\n",
			j.ID, j.Ranks, j.Priority,
			fmtDur(j.Submit), fmtDur(j.Wait()), fmtDur(j.Done), j.Preemptions, bf, j.Migrations,
			wt, j.Imbalance)
	}
	fmt.Fprintf(&b, "makespan %s  mean wait %s  max wait %s  utilization %.3f  preemptions %d  backfills %d\n",
		fmtDur(s.Makespan), fmtDur(s.MeanWait), fmtDur(s.MaxWait),
		s.Utilization, s.Preemptions, s.Backfills)
	fmt.Fprintf(&b, "reclaims %d  migrations %d  repricings %d  resizes %d (+%d/-%d ranks)  weighted %d  imbalance mean %.3f max %.3f  easy-degraded %d\n",
		s.Reclaims, s.Migrations, s.Repricings,
		s.Resizes, s.GrowRanks, s.ShrinkRanks,
		s.Weighted, s.MeanImbalance, s.MaxImbalance, s.EASYDegraded)
	return b.String()
}

// fmtDur prints a duration rounded to the scale a farm operator reads.
func fmtDur(d time.Duration) string {
	return d.Round(100 * time.Millisecond).String()
}
