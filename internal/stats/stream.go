package stats

import (
	"math"
	"math/rand/v2"
)

// Stream is a deterministic random-number stream. Every stochastic
// component of the system (each link's rate sampler, each publisher's
// arrival process, each workload generator) owns its own Stream derived
// from a master seed and a component label, so that
//
//   - runs with the same master seed are bit-reproducible, and
//   - changing one strategy or component does not perturb the random
//     draws of any other (paired comparisons across strategies).
//
// A Stream is one object: its generator and the Rand drawing from it are
// embedded, the Rand's source pointing at the embedded PCG. It must
// therefore not be copied; use it through the pointer its constructor
// returns.
type Stream struct {
	pcg rand.PCG
	rng rand.Rand
}

// NewStream returns a stream seeded directly by seed.
func NewStream(seed uint64) *Stream {
	s := new(Stream)
	s.pcg.Seed(seed, splitMix64(seed+0x9e3779b97f4a7c15))
	s.rng = *rand.New(&s.pcg)
	return s
}

// Derive returns an independent sub-stream identified by label. The same
// (seed, label) pair always yields the same stream.
func Derive(seed uint64, label string) *Stream {
	h := splitMix64(seed)
	for _, b := range []byte(label) {
		h = splitMix64(h ^ uint64(b))
	}
	return NewStream(h)
}

// DeriveN returns an independent sub-stream identified by label and index,
// for families of components ("link-3", publisher 2, ...).
func DeriveN(seed uint64, label string, n int) *Stream {
	h := splitMix64(seed)
	for _, b := range []byte(label) {
		h = splitMix64(h ^ uint64(b))
	}
	h = splitMix64(h ^ uint64(n)*0xbf58476d1ce4e5b9)
	return NewStream(h)
}

// splitMix64 is the SplitMix64 finalizer, used to whiten derived seeds.
func splitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Float64 returns a uniform variate in [0, 1).
func (s *Stream) Float64() float64 { return s.rng.Float64() }

// Uniform returns a uniform variate in [lo, hi).
func (s *Stream) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.rng.Float64()
}

// NormFloat64 returns a standard normal variate.
func (s *Stream) NormFloat64() float64 { return s.rng.NormFloat64() }

// Exponential returns an exponential variate with the given mean. A mean
// of +Inf returns +Inf (a source that never fires).
func (s *Stream) Exponential(mean float64) float64 {
	if math.IsInf(mean, 1) {
		return math.Inf(1)
	}
	return mean * s.rng.ExpFloat64()
}

// IntN returns a uniform int in [0, n). n must be > 0.
func (s *Stream) IntN(n int) int { return s.rng.IntN(n) }

// Perm returns a pseudo-random permutation of [0, n).
func (s *Stream) Perm(n int) []int { return s.rng.Perm(n) }
