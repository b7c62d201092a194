package workload

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/farm"
)

// Generate expands a spec into a concrete job list: each cohort's
// arrival process runs over the horizon and each arrival draws its
// method, decomposition, size, runtime and priority from the cohort's
// distributions. The result is sorted by (Submit, ID) and every spec is
// validated.
//
// Generation is bit-reproducible: every draw comes from a SplitMix64
// substream derived from (seed, cohort name), so the same (spec, seed)
// pair always yields a byte-identical job list, editing one cohort
// never shifts another cohort's draws, and different seeds yield
// different orderings.
func Generate(spec *Spec, seed int64) ([]farm.JobSpec, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	root := farm.NewRNG(seed)
	var jobs []farm.JobSpec
	for i := range spec.Cohorts {
		c := &spec.Cohorts[i]
		rng := root.Derive(c.Name)
		t := c.Arrivals.Start
		for n := 0; c.MaxJobs == 0 || n < c.MaxJobs; n++ {
			// The gap is scaled by the diurnal rate at the draw time: a
			// bucket with rate 2 halves the mean gap, doubling the rate.
			gap := interArrival(rng, c.Arrivals) * float64(c.Arrivals.MeanGap) / c.Arrivals.rate(t)
			t += time.Duration(gap)
			if t > spec.Horizon {
				break
			}
			sc := shapeDraw(rng, c.Jobs.Shapes)
			var num [20]byte // the ID is "%s-%04d" of the cohort and n, built with one allocation
			digits := strconv.AppendInt(num[:0], int64(n), 10)
			js := farm.JobSpec{
				ID:       c.Name + "-" + "000"[min(len(digits), 4)-1:] + string(digits),
				Method:   sc.Method,
				JX:       sc.JX,
				JY:       sc.JY,
				JZ:       sc.JZ,
				Side:     sideDraw(rng, c.Jobs),
				Steps:    stepsDraw(rng, c.Jobs.Steps),
				Priority: priorityDraw(rng, c.Priorities),
				User:     c.Name,
				Weight:   c.Weight,
				Submit:   t,
			}
			if err := js.Validate(); err != nil {
				return nil, fmt.Errorf("workload: spec %s: generated job %s: %w", spec.Name, js.ID, err)
			}
			jobs = append(jobs, js)
		}
	}
	slices.SortStableFunc(jobs, func(a, b farm.JobSpec) int {
		return cmp.Or(cmp.Compare(a.Submit, b.Submit), strings.Compare(a.ID, b.ID))
	})
	return jobs, nil
}
