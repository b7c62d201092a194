// Package rng is entropy golden input (the old strayrng question):
// generators not built over SplitMix in a deterministic-scope package.
package rng

import "math/rand"

// SplitMix stands in for sched.SplitMix (matched by type name).
type SplitMix struct{ s uint64 }

func (r *SplitMix) Int63() int64 { return 0 }
func (r *SplitMix) Seed(int64)   {}

func (r *SplitMix) Derive(label string) *SplitMix { return &SplitMix{} }

// sanctioned borrows rand.Rand's distribution helpers over the
// serializable source.
func sanctioned(src *SplitMix) *rand.Rand {
	return rand.New(src)
}

func sanctionedDerived(root *SplitMix) *rand.Rand {
	return rand.New(root.Derive("cohort"))
}

func strays() {
	_ = rand.New(rand.NewSource(1)) // want `rand.New over a non-SplitMix source` `rand.NewSource creates a source the checkpoint manifest cannot serialize`
	rand.Seed(42)                   // want `rand.Seed reseeds the process-global generator`
	_ = new(rand.Rand)              // want `new\(rand.Rand\) holds RNG state outside the checkpoint`
	_ = &rand.Rand{}                // want `rand.Rand literal holds RNG state outside the checkpoint`
}

func allowedStray() {
	//detlint:allow entropy -- golden test: throwaway generator feeds no persisted state
	_ = rand.New(rand.NewSource(7))
}
