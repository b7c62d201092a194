package analysis

import "testing"

func TestMatch(t *testing.T) {
	cases := []struct {
		patterns []string
		path     string
		want     bool
	}{
		{[]string{"repro/farm"}, "repro/farm", true},
		{[]string{"repro/farm"}, "repro/farm/workload", false},
		{[]string{"repro/farm/..."}, "repro/farm", true},
		{[]string{"repro/farm/..."}, "repro/farm/workload", true},
		{[]string{"repro/farm/..."}, "repro/farmhouse", false},
		{[]string{"repro/internal/..."}, "repro/internal/metrics", true},
		{nil, "repro/farm", false},
	}
	for _, c := range cases {
		if got := Match(c.patterns, c.path); got != c.want {
			t.Errorf("Match(%v, %q) = %v, want %v", c.patterns, c.path, got, c.want)
		}
	}
}

func TestDefaultScopes(t *testing.T) {
	cfg := Default()
	for _, path := range []string{
		"repro/internal/metrics",
		"repro/internal/cluster", "repro/internal/core",
		"repro/internal/lbm", "repro/internal/fd", "repro/internal/decomp",
		"repro/farm", "repro/farm/workload", "repro/farm/autoscale",
	} {
		if !Match(cfg.Deterministic, path) {
			t.Errorf("deterministic scope misses %s", path)
		}
	}
	// The worker slabs are the sanctioned concurrency runtime (their
	// reduction order is fixed by slab index), so entropy stays out.
	if Match(cfg.Deterministic, "repro/internal/pool") {
		t.Error("deterministic scope should not cover repro/internal/pool")
	}
	if cfg.InScope("math/rand") || cfg.InScope("fmt") {
		t.Error("std packages must be out of scope entirely")
	}
}
