// Detlint statically enforces the farm's determinism and API
// invariants. It is a vet tool that reports and changes nothing: build
// it once and run the suite over the module with
//
//	go build -o bin/detlint ./cmd/detlint
//	go vet -vettool=$PWD/bin/detlint ./...
//
// or invoke it directly (`go run ./cmd/detlint ./...`) and it re-execs
// itself under go vet. It takes no options: the package scopes are
// internal/analysis.Default(), and a finding is suppressed, with a
// mandatory reason, by `//detlint:allow <analyzer> -- <reason>`.
//
// The suite:
//
//	entropy        no wall clock, RNG state outside sched.SplitMix/Derive
//	               or go statement in deterministic packages
//	maporder       no iteration-order-sensitive map ranges feeding
//	               traces, events or accumulators
//	errwrap        public farm errors wrap with %w and stay
//	               errors.Is-checkable
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
	"repro/internal/analysis/passes/entropy"
	"repro/internal/analysis/passes/errwrap"
	"repro/internal/analysis/passes/lockorder"
	"repro/internal/analysis/passes/maporder"
	"repro/internal/analysis/unitchecker"
)

func main() {
	unitchecker.Main(
		entropy.Analyzer,
		maporder.Analyzer,
		errwrap.Analyzer,
		allocsteady.Analyzer,
		lockorder.Analyzer,
	)
}
