package farm

// RNG is the farm's serializable random source: SplitMix64 (Steele,
// Lea & Flood's mix of a Weyl sequence), a full-period 64-bit generator
// whose entire state is one word. The farm uses it for the reservation
// scan's random permutations, and the workload generators
// (farm/workload) use it to draw seeded arrival processes and job
// distributions, because both need the same two properties math/rand's
// default source lacks:
//
//   - The state is serializable. A checkpoint must persist the
//     generator mid-run: State/SetState let the farm's checkpoint write
//     the word into the manifest and Restore resume the exact
//     permutation stream, which is part of what makes a
//     killed-and-restored farm finish bit-identically to an
//     uninterrupted one.
//
//   - Streams are cheaply derivable. Derive splits off an independent
//     deterministic substream per label, so a workload spec's cohorts
//     each draw from their own stream — editing one cohort never
//     shifts another's draws — while the whole generation stays a pure
//     function of (spec, seed).
type RNG struct {
	s uint64
}

// NewRNG returns a generator seeded with the given word.
func NewRNG(seed int64) *RNG {
	return &RNG{s: uint64(seed)}
}

// Uint64 advances the Weyl sequence and mixes it (rand.Source64).
func (r *RNG) Uint64() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Int63 narrows Uint64 (rand.Source).
func (r *RNG) Int63() int64 {
	return int64(r.Uint64() >> 1)
}

// Seed resets the state (rand.Source).
func (r *RNG) Seed(seed int64) {
	r.s = uint64(seed)
}

// Float64 returns a uniform draw in [0, 1) with 53 bits of precision.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform draw in [0, n); n must be positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("farm: RNG.Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Derive returns an independent generator for the label, deterministic
// in (current state word, label) without advancing the parent. The
// label is folded in FNV-1a style and the result mixed once more, so
// distinct labels land in unrelated regions of the state space.
func (r *RNG) Derive(label string) *RNG {
	h := r.s ^ 0xcbf29ce484222325
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 0x100000001b3
	}
	d := &RNG{s: h}
	d.s = d.Uint64() // decorrelate from the raw hash
	return d
}

// State returns the generator's complete state for a checkpoint manifest.
func (r *RNG) State() uint64 { return r.s }

// SetState resumes the generator from a checkpointed state.
func (r *RNG) SetState(s uint64) { r.s = s }
