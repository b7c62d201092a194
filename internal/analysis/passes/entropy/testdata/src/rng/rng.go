// Package rng is entropy golden input (the old strayrng question):
// generators not built over RNG in a deterministic-scope package.
package rng

import "math/rand"

// RNG stands in for farm.RNG (matched by type name).
type RNG struct{ s uint64 }

func (r *RNG) Int63() int64 { return 0 }
func (r *RNG) Seed(int64)   {}

func (r *RNG) Derive(label string) *RNG { return &RNG{} }

// sanctioned borrows rand.Rand's distribution helpers over the
// serializable source.
func sanctioned(src *RNG) *rand.Rand {
	return rand.New(src)
}

func sanctionedDerived(root *RNG) *rand.Rand {
	return rand.New(root.Derive("cohort"))
}

func strays() {
	_ = rand.New(rand.NewSource(1)) // want `rand.New over a non-RNG source` `rand.NewSource creates a source the checkpoint manifest cannot serialize`
	rand.Seed(42)                   // want `rand.Seed reseeds the process-global generator`
	_ = new(rand.Rand)              // want `new\(rand.Rand\) holds RNG state outside the checkpoint`
	_ = &rand.Rand{}                // want `rand.Rand literal holds RNG state outside the checkpoint`
}

func allowedStray() {
	//detlint:allow entropy -- golden test: throwaway generator feeds no persisted state
	_ = rand.New(rand.NewSource(7))
}
