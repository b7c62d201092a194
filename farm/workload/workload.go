// Package workload is the farm's scenario engine: seeded synthetic
// workload generation plus a versioned trace format for recording farm
// runs and verifying them byte for byte.
//
// The paper's evaluation — and this repository's first experiments —
// rest on a handful of hand-built job lists. This package turns those
// four hand-coded experiments into an unbounded family of reproducible
// scenarios:
//
//   - Generators. A Spec describes multi-client cohorts declaratively:
//     each cohort has a seeded arrival process (Poisson, Gamma or
//     Weibull inter-arrivals, optionally modulated by a diurnal rate
//     curve) and per-cohort job-size, shape, priority and runtime
//     distributions. Generate(spec, seed) expands it into a concrete
//     job list, and because every draw comes from the farm's
//     serializable SplitMix64 RNG, a (spec, seed) pair is
//     bit-reproducible: the same pair always yields byte-identical job
//     lists, and different seeds yield different orderings — the
//     randomized-but-seeded regime that guards policy comparisons
//     against the worst-case bias fixed deterministic sweeps exhibit.
//
//   - Scenarios. Cluster-side user activity — reclaim storms, host
//     churn, owner-return waves — is expressed declaratively as a
//     Scenario and compiled (Compile) onto the farm.WithScenario hook
//     as a pure function of the virtual time and the observable
//     cluster state, so the identical script can be re-attached to a
//     farm restored from a checkpoint.
//
//   - Traces. Record captures a run's structured event stream (the
//     farm.SubscribeBuffered surface) together with everything needed to
//     reproduce it into a versioned, self-describing Trace file.
//     Verify re-runs the recorded configuration and asserts the event
//     stream is byte-identical, the regression pin CI runs
//     (`go run ./cmd/experiments -exp=sweep`).
//
// All times are the farm's virtual times; nothing here depends on wall
// clocks, so generation and verification are deterministic everywhere.
package workload

import (
	"fmt"
	"time"

	"repro/farm"
)

// Spec is one declarative workload: a set of client cohorts generating
// jobs over a horizon, plus an optional cluster-side scenario script.
type Spec struct {
	// Name labels the spec in sweep tables and traces.
	Name string
	// Horizon bounds generation: arrivals past it are not produced.
	Horizon time.Duration
	// Cohorts are the client populations submitting jobs.
	Cohorts []Cohort
	// Scenario, when non-nil, scripts user activity against the pool
	// (compiled onto farm.WithScenario by Compile).
	Scenario *Scenario
}

// Cohort is one client population: an arrival process plus the
// distributions its jobs are drawn from. Each cohort draws from its own
// RNG substream (derived from the seed and the cohort name), so editing
// one cohort never shifts another's draws.
type Cohort struct {
	// Name is the tenant (JobSpec.User) and the job-ID prefix; it must
	// be unique within the spec.
	Name string
	// Weight is the cohort's WeightedFair share (<= 0 means 1).
	Weight float64
	// Arrivals is the cohort's arrival process.
	Arrivals Arrivals
	// Jobs draws each job's method, decomposition, size and runtime.
	Jobs JobDist
	// Priorities is the weighted choice of JobSpec.Priority values; an
	// empty list means priority 0.
	Priorities []IntChoice
	// MaxJobs caps the cohort's job count; 0 means horizon-bounded only.
	MaxJobs int
}

// Arrival process names.
const (
	// Poisson draws exponential inter-arrivals (a memoryless stream).
	Poisson = "poisson"
	// Gamma draws Gamma(shape, ·) inter-arrivals: shape > 1 is more
	// regular than Poisson, shape < 1 burstier.
	Gamma = "gamma"
	// Weibull draws Weibull(shape, ·) inter-arrivals: shape < 1 yields
	// heavy-tailed gaps (long quiet stretches between bursts).
	Weibull = "weibull"
)

// Arrivals describes a cohort's arrival process. Inter-arrival draws
// are normalized to mean 1 and scaled by MeanGap, so the process choice
// changes the variability of the stream, not its average rate.
type Arrivals struct {
	// Process is one of Poisson, Gamma, Weibull.
	Process string
	// MeanGap is the mean inter-arrival time (at diurnal rate 1).
	MeanGap time.Duration
	// Shape is the Gamma/Weibull shape parameter (ignored for Poisson;
	// <= 0 defaults to 1, which makes either process Poisson).
	Shape float64
	// Start offsets the cohort's first gap from the farm's start.
	Start time.Duration
	// Diurnal, when non-empty, is a relative rate curve spread evenly
	// over one Day: an arrival landing in bucket i has its mean gap
	// divided by Diurnal[i]. Values must be positive; a flat curve
	// {1, 1, ...} is the default behavior.
	Diurnal []float64
	// Day is the diurnal curve's period (default 24h). Compressed days
	// (e.g. 2h) let short virtual-time experiments see a full cycle.
	Day time.Duration
}

// rate returns the diurnal rate multiplier at virtual time t.
func (a Arrivals) rate(t time.Duration) float64 {
	if len(a.Diurnal) == 0 {
		return 1
	}
	day := a.Day
	if day <= 0 {
		day = 24 * time.Hour
	}
	phase := t % day
	i := int(int64(phase) * int64(len(a.Diurnal)) / int64(day))
	if i >= len(a.Diurnal) { // t == multiple of day rounds exactly
		i = len(a.Diurnal) - 1
	}
	return a.Diurnal[i]
}

// ShapeChoice is one weighted (method, decomposition) candidate of a
// cohort's job distribution.
type ShapeChoice struct {
	// Method is lb2d, fd2d, lb3d or fd3d; JX, JY, JZ the decomposition
	// (JZ = 0 for 2D), as in farm.JobSpec.
	Method     string
	JX, JY, JZ int
	// Weight is the candidate's relative probability (<= 0 means 1).
	Weight float64
}

// probe returns a minimal job spec of the choice's method and lattice,
// so its rank count and validity are the farm's.
func (sc ShapeChoice) probe() farm.JobSpec {
	return farm.JobSpec{ID: "probe", Method: sc.Method,
		JX: sc.JX, JY: sc.JY, JZ: sc.JZ, Side: 4, Steps: 1}
}

// IntChoice is one weighted integer candidate (priorities).
type IntChoice struct {
	Value  int
	Weight float64
}

// StepsDist draws a job's integration-step count: log-normal around
// Median with spread Sigma, clamped to [Min, Max]. Sigma 0 makes every
// job exactly Median steps.
type StepsDist struct {
	Median int
	Sigma  float64
	// Min and Max clamp the draw; zero values default to Median/4 and
	// 4*Median respectively.
	Min, Max int
}

// JobDist draws the per-job fields of one cohort.
type JobDist struct {
	// Shapes is the weighted choice of (method, decomposition)
	// candidates; at least one is required.
	Shapes []ShapeChoice
	// SideMin and SideMax bound the uniform subregion-side draw
	// (inclusive). SideMax 0 means SideMin exactly.
	SideMin, SideMax int
	// Steps draws the integration-step count.
	Steps StepsDist
}

// Validate checks the spec; every failure wraps farm.ErrInvalidSpec so
// callers branch with errors.Is, mirroring JobSpec validation.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("workload: %w: spec needs a name", farm.ErrInvalidSpec)
	}
	if s.Horizon <= 0 {
		return fmt.Errorf("workload: %w: spec %s: horizon %v", farm.ErrInvalidSpec, s.Name, s.Horizon)
	}
	if len(s.Cohorts) == 0 {
		return fmt.Errorf("workload: %w: spec %s has no cohorts", farm.ErrInvalidSpec, s.Name)
	}
	seen := make(map[string]bool, len(s.Cohorts))
	for i := range s.Cohorts {
		c := &s.Cohorts[i]
		if c.Name == "" {
			return fmt.Errorf("workload: %w: spec %s: cohort %d needs a name", farm.ErrInvalidSpec, s.Name, i)
		}
		if seen[c.Name] {
			return fmt.Errorf("workload: %w: spec %s: duplicate cohort %q", farm.ErrInvalidSpec, s.Name, c.Name)
		}
		seen[c.Name] = true
		if err := c.validate(); err != nil {
			return fmt.Errorf("workload: %w: spec %s: cohort %s: %w", farm.ErrInvalidSpec, s.Name, c.Name, err)
		}
	}
	if s.Scenario != nil {
		if err := s.Scenario.Validate(); err != nil {
			return fmt.Errorf("workload: spec %s: %w", s.Name, err)
		}
	}
	return nil
}

// validate checks one cohort (wrapped with context by Spec.Validate).
func (c *Cohort) validate() error {
	switch c.Arrivals.Process {
	case Poisson, Gamma, Weibull:
	default:
		return fmt.Errorf("unknown arrival process %q (poisson, gamma, weibull)", c.Arrivals.Process)
	}
	if c.Arrivals.MeanGap <= 0 {
		return fmt.Errorf("mean inter-arrival %v", c.Arrivals.MeanGap)
	}
	if c.Arrivals.Start < 0 {
		return fmt.Errorf("negative arrival start %v", c.Arrivals.Start)
	}
	for i, r := range c.Arrivals.Diurnal {
		if r <= 0 {
			return fmt.Errorf("diurnal rate %g in bucket %d", r, i)
		}
	}
	if c.Arrivals.Day < 0 {
		return fmt.Errorf("negative diurnal day %v", c.Arrivals.Day)
	}
	if len(c.Jobs.Shapes) == 0 {
		return fmt.Errorf("no shape candidates")
	}
	for _, sc := range c.Jobs.Shapes {
		if err := sc.probe().Validate(); err != nil {
			return fmt.Errorf("shape %s %dx%dx%d: %w", sc.Method, sc.JX, sc.JY, sc.JZ, err)
		}
	}
	if c.Jobs.SideMin < 1 {
		return fmt.Errorf("subregion side %d", c.Jobs.SideMin)
	}
	if c.Jobs.SideMax != 0 && c.Jobs.SideMax < c.Jobs.SideMin {
		return fmt.Errorf("side range [%d, %d]", c.Jobs.SideMin, c.Jobs.SideMax)
	}
	if c.Jobs.Steps.Median < 1 {
		return fmt.Errorf("median steps %d", c.Jobs.Steps.Median)
	}
	if c.Jobs.Steps.Sigma < 0 {
		return fmt.Errorf("steps sigma %g", c.Jobs.Steps.Sigma)
	}
	if c.MaxJobs < 0 {
		return fmt.Errorf("max jobs %d", c.MaxJobs)
	}
	return nil
}
