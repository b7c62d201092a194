package main

import (
	"math"
	"slices"
)

// sorted returns an ascending copy.
func sorted(v []float64) []float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return s
}

// quantile interpolates the q-quantile of an ascending slice.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(v []float64) float64 { return quantile(sorted(v), 0.5) }

// quartiles reproduces Python's statistics.quantiles(v, n=4) (the default
// "exclusive" method), which is what the acceptance check applies to the
// ten values of each end-to-end metric.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sorted(v)
	m := len(s)
	if m < 2 {
		if m == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		j := clamp(i*(m+1)/4, 1, m-1)
		delta := i*(m+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// tail returns the highest of the usual percentiles that still has at
// least ten samples beyond it, and its value; with fewer than twenty
// samples that is the median itself.
func tail(v []float64) (pct, value float64) {
	s := sorted(v)
	pct = 50
	for _, p := range []float64{90, 99, 99.9, 99.99} {
		if float64(len(s))*(1-p/100) >= 10 {
			pct = p
		}
	}
	return pct, quantile(s, pct/100)
}
