// Detlint statically enforces the farm's determinism and API
// invariants. It is a vet tool: build it once and run the suite over
// the module with
//
//	go build -o bin/detlint ./cmd/detlint
//	go vet -vettool=$PWD/bin/detlint ./...
//
// or invoke it directly (`go run ./cmd/detlint ./...`) and it re-execs
// itself under go vet. Scopes come from detlint.json at the module
// root (see internal/analysis.Config); findings are suppressed, with a
// mandatory reason, by `//detlint:allow <analyzer> -- <reason>`.
// `-diff` prints suggested fixes as a unified diff (dry run); `-fix`
// applies them to the tree.
//
// The suite:
//
//	nodeterm       no ambient entropy (wall clock, global RNG) in
//	               deterministic packages
//	maporder       no iteration-order-sensitive map ranges feeding
//	               traces, events or accumulators
//	errwrap        public farm errors wrap with %w and stay
//	               errors.Is-checkable
//	strayrng       all RNG state flows through sched.SplitMix/Derive
//	goentropy      no stray go statements on the step/decision path
//	allocsteady    nothing reachable from the collide-stream /
//	               halo-exchange / step-driver kernels allocates
//	lockorder      mutexes are acquired in one global order across
//	               the pool/msg/sched/farm layers
//
// The last two compose across packages: each package's analysis
// exports a facts summary through the vet .vetx protocol, so a kernel
// calling into a helper package still sees that helper's allocations
// and lock orders.
package main

import (
	"repro/internal/analysis/passes/allocsteady"
	"repro/internal/analysis/passes/errwrap"
	"repro/internal/analysis/passes/goentropy"
	"repro/internal/analysis/passes/lockorder"
	"repro/internal/analysis/passes/maporder"
	"repro/internal/analysis/passes/nodeterm"
	"repro/internal/analysis/passes/strayrng"
	"repro/internal/analysis/unitchecker"
)

func main() {
	unitchecker.Main(
		nodeterm.Analyzer,
		maporder.Analyzer,
		errwrap.Analyzer,
		strayrng.Analyzer,
		goentropy.Analyzer,
		allocsteady.Analyzer,
		lockorder.Analyzer,
	)
}
