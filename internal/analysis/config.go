package analysis

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Config scopes each analyzer to the packages whose invariants it
// enforces. Scopes are lists of import-path patterns: an exact path,
// or a prefix pattern ending in "/..." matching the package and
// everything below it.
//
// The driver resolves the config in priority order: the DETLINT_CONFIG
// environment variable, a detlint.json found next to go.mod (walking
// up from the analyzed package's directory), then Default. The repo
// commits a detlint.json so the CI gate and a local `go vet -vettool`
// run agree on scope without flags.
type Config struct {
	// Deterministic packages form the simulation path whose results
	// must replay bit-identically: nodeterm (ambient entropy) and
	// maporder (map-iteration order) apply here.
	Deterministic []string `json:"deterministic"`
	// ErrorSurface packages are the supported public API: errwrap
	// enforces %w wrapping and errors.Is-comparable sentinels here.
	ErrorSurface []string `json:"error_surface"`
	// RNGScope packages must route randomness through the serializable
	// sched.SplitMix/Derive substream API: strayrng applies here.
	RNGScope []string `json:"rng_scope"`
	// GoroutineScope packages sit on the step/decision path where
	// goroutine scheduling order could leak into results: goentropy
	// flags every `go` statement here. The sanctioned concurrency
	// runtimes (internal/pool worker slabs, internal/core worker
	// ranks) are simply left out of the scope.
	GoroutineScope []string `json:"goroutine_scope"`

	// AllocPath packages carry per-function allocation summaries in
	// their facts; allocsteady walks the call graph they form.
	AllocPath []string `json:"alloc_path"`
	// AllocRoots are the function keys (pkg.Name for functions,
	// pkg.Recv.Name for methods, pointer markers stripped) anchoring
	// the zero-alloc steady state: every function reachable from a
	// root must not allocate. These are the collide-stream,
	// halo-exchange and step-driver kernels bench/ measures per layer.
	AllocRoots []string `json:"alloc_roots"`
	// LockScope packages have their sync.Mutex/RWMutex acquisition
	// orders summarized; lockorder flags a pair of locks taken in
	// opposite orders anywhere across the scope.
	LockScope []string `json:"lock_scope"`
}

// Default returns the scopes for this repository.
func Default() *Config {
	deterministic := []string{
		"repro/internal/sched/...",
		"repro/internal/core",
		"repro/internal/lbm",
		"repro/internal/fd",
		"repro/internal/decomp",
		"repro/farm",
		"repro/farm/workload",
		"repro/farm/autoscale",
	}
	return &Config{
		Deterministic: deterministic,
		ErrorSurface: []string{
			"repro/farm",
			"repro/farm/workload",
			"repro/farm/autoscale",
		},
		// The cluster's randomized reservation scan consumes the
		// scheduler's stream, so construction there is in scope too.
		RNGScope: append([]string{"repro/internal/cluster"}, deterministic...),
		GoroutineScope: []string{
			"repro/internal/sched/...",
			"repro/internal/lbm",
			"repro/internal/fd",
			"repro/internal/decomp",
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
			"repro/internal/sched/...",
			"repro/farm",
			"repro/farm/workload",
			"repro/farm/autoscale",
		},
	}
}

// Load reads a config file.
func Load(path string) (*Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	cfg := new(Config)
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(cfg); err != nil {
		return nil, fmt.Errorf("detlint config %s: %w", path, err)
	}
	return cfg, nil
}

// LoadFor resolves the config for a package rooted at dir:
// DETLINT_CONFIG, then detlint.json beside the enclosing go.mod, then
// Default. Resolution errors are returned rather than masked — a
// half-read config silently shrinking scope would be its own
// determinism bug.
func LoadFor(dir string) (*Config, error) {
	if path := os.Getenv("DETLINT_CONFIG"); path != "" {
		return Load(path)
	}
	for d := dir; ; {
		if fi, err := os.Stat(filepath.Join(d, "go.mod")); err == nil && !fi.IsDir() {
			cfgPath := filepath.Join(d, "detlint.json")
			if _, err := os.Stat(cfgPath); err == nil {
				return Load(cfgPath)
			}
			break
		}
		parent := filepath.Dir(d)
		if parent == d {
			break
		}
		d = parent
	}
	return Default(), nil
}

// Match reports whether the import path matches any pattern in the
// scope list.
func Match(patterns []string, path string) bool {
	// cmd/go vets a package's test-augmented variant under an import
	// path like "repro/farm [repro/farm.test]"; scope-match the base.
	if i := strings.Index(path, " ["); i >= 0 {
		path = path[:i]
	}
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
// the unitchecker skips type-checking packages no analyzer cares
// about (all of std, and every dependency outside this module).
func (c *Config) InScope(path string) bool {
	return Match(c.Deterministic, path) ||
		Match(c.ErrorSurface, path) ||
		Match(c.RNGScope, path) ||
		Match(c.GoroutineScope, path) ||
		Match(c.AllocPath, path) ||
		Match(c.LockScope, path)
}
