package analysis

import "strings"

// Config scopes each analyzer to the packages whose invariants it
// enforces. Scopes are lists of import-path patterns: an exact path,
// or a prefix pattern ending in "/..." matching the package and
// everything below it. This repository's scopes are Default, the one
// copy TestTreeIsClean checks the module against; fixture tests build
// their own Config values.
type Config struct {
	// Deterministic packages form the simulation path whose results
	// must replay bit-identically: entropy (clocks, RNG state outside
	// farm.RNG, go statements) and maporder (any range over a map)
	// apply here.
	Deterministic []string
	// ErrorSurface packages are the supported public API: errwrap
	// enforces %w wrapping and errors.Is-comparable sentinels here.
	ErrorSurface []string
	// LockScope packages have their sync.Mutex/RWMutex acquisitions
	// summarized; lockorder flags a lock taken while another is held,
	// directly or through a call anywhere across the scope.
	LockScope []string
}

// Default returns the scopes for this repository.
func Default() *Config {
	return &Config{
		// The cluster's randomized reservation scan consumes the
		// farm's stream, so it is on the simulation path too.
		Deterministic: []string{
			"repro/internal/metrics",
			"repro/internal/cluster",
			"repro/internal/core",
			"repro/internal/lbm",
			"repro/internal/fd",
			"repro/internal/decomp",
			"repro/farm",
			"repro/farm/workload",
			"repro/farm/autoscale",
		},
		ErrorSurface: []string{
			"repro/farm",
			"repro/farm/workload",
			"repro/farm/autoscale",
		},
		LockScope: []string{
			"repro/internal/pool",
			"repro/internal/msg",
			"repro/internal/metrics",
			"repro/farm",
			"repro/farm/workload",
			"repro/farm/autoscale",
		},
	}
}

// Match reports whether the import path matches any pattern in the
// scope list.
func Match(patterns []string, path string) bool {
	for _, p := range patterns {
		if rest, ok := strings.CutSuffix(p, "/..."); ok {
			if path == rest || strings.HasPrefix(path, rest+"/") {
				return true
			}
			continue
		}
		if path == p {
			return true
		}
	}
	return false
}

// InScope reports whether any analyzer scope covers the import path;
// TestTreeIsClean parses and type-checks only those packages, and
// reads the rest (all of std among them) from export data.
func (c *Config) InScope(path string) bool {
	return Match(c.Deterministic, path) ||
		Match(c.ErrorSurface, path) ||
		Match(c.LockScope, path)
}
