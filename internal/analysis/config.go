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
	// farm.RNG, go statements) and maporder (map-iteration order) apply
	// here.
	Deterministic []string
	// ErrorSurface packages are the supported public API: errwrap
	// enforces %w wrapping and errors.Is-comparable sentinels here.
	ErrorSurface []string

	// AllocPath packages carry per-function allocation summaries in
	// their facts; allocsteady walks the call graph they form.
	AllocPath []string
	// AllocRoots are the function keys (pkg.Name for functions,
	// pkg.Recv.Name for methods, pointer markers stripped) anchoring
	// the zero-alloc steady state: every function reachable from a
	// root must not allocate. These are the collide-stream,
	// halo-exchange and step-driver kernels bench/ measures per layer.
	AllocRoots []string
	// LockScope packages have their sync.Mutex/RWMutex acquisition
	// orders summarized; lockorder flags a pair of locks taken in
	// opposite orders anywhere across the scope.
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
		// Everything the steady-state kernels touch: the solvers, the
		// halo copies, the worker step driver, and the small leaf
		// packages (grids, filter plans, the shared pool) the hot loops
		// call into.
		AllocPath: []string{
			"repro/internal/lbm",
			"repro/internal/fd",
			"repro/internal/halo",
			"repro/internal/core",
			"repro/internal/grid",
			"repro/internal/filter",
			"repro/internal/fluid",
			"repro/internal/pool",
		},
		AllocRoots: []string{
			"repro/internal/lbm.Solver2D.Compute",
			"repro/internal/lbm.Solver2D.Pack",
			"repro/internal/lbm.Solver2D.Unpack",
			"repro/internal/lbm.Solver2D.StepSerial",
			"repro/internal/lbm.Solver3D.Compute",
			"repro/internal/lbm.Solver3D.Pack",
			"repro/internal/lbm.Solver3D.Unpack",
			"repro/internal/lbm.Solver3D.StepSerial",
			"repro/internal/fd.Solver2D.Compute",
			"repro/internal/fd.Solver2D.Pack",
			"repro/internal/fd.Solver2D.Unpack",
			"repro/internal/fd.Solver2D.StepSerial",
			"repro/internal/fd.Solver3D.Compute",
			"repro/internal/fd.Solver3D.Pack",
			"repro/internal/fd.Solver3D.Unpack",
			"repro/internal/fd.Solver3D.StepSerial",
			"repro/internal/core.Worker.RunStep",
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
		Match(c.AllocPath, path) ||
		Match(c.LockScope, path)
}
