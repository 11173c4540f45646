// Package rng provides seeded, independent pseudo-random streams for the
// simulator. Every stochastic component of the model (disk rotational
// latency, workload generation, query arrival, attribute correlation noise)
// draws from its own stream so that changing one component's consumption
// pattern does not perturb the others — the classic "common random numbers"
// discipline used in discrete-event simulation studies such as the one this
// repository reproduces.
//
// All streams derive deterministically from a single experiment seed, so a
// run is fully reproducible from (seed, configuration).
package rng

import (
	"fmt"
	"math/rand"
)

// Source is a named, seeded random stream. It is a thin wrapper around
// math/rand.Rand with helpers for the distributions the simulator needs.
// A Source is not safe for concurrent use; the simulation kernel runs one
// process at a time, which is the only consumer.
type Source struct {
	name string
	rnd  *rand.Rand
}

// Factory derives independent named streams from one root seed.
type Factory struct {
	root int64
	next int64
}

// NewFactory returns a stream factory rooted at seed.
func NewFactory(seed int64) *Factory {
	return &Factory{root: seed}
}

// Stream returns a new independent stream. Streams are derived from the root
// seed and a per-factory counter mixed through SplitMix64, so distinct calls
// never share state and the derivation is stable across runs.
func (f *Factory) Stream(name string) *Source {
	f.next++
	seed := splitmix64(uint64(f.root) ^ splitmix64(uint64(f.next)))
	return &Source{
		name: name,
		rnd:  rand.New(rand.NewSource(int64(seed))),
	}
}

// splitmix64 is the standard SplitMix64 finalizer, used only to decorrelate
// derived seeds; the streams themselves use math/rand's generator.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// NewSource returns a standalone stream seeded directly. Prefer Factory for
// experiment code; this exists for tests and tools.
func NewSource(name string, seed int64) *Source {
	return &Source{name: name, rnd: rand.New(rand.NewSource(seed))}
}

// Name reports the stream's name (used in traces and error messages).
func (s *Source) Name() string { return s.name }

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 { return s.rnd.Float64() }

// Uniform returns a uniform value in [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	if hi < lo {
		panic(fmt.Sprintf("rng %s: Uniform bounds inverted: [%g, %g)", s.name, lo, hi))
	}
	return lo + (hi-lo)*s.rnd.Float64()
}

// Intn returns a uniform integer in [0, n). n must be positive.
func (s *Source) Intn(n int) int { return s.rnd.Intn(n) }

// IntRange returns a uniform integer in [lo, hi] inclusive.
func (s *Source) IntRange(lo, hi int) int {
	if hi < lo {
		panic(fmt.Sprintf("rng %s: IntRange bounds inverted: [%d, %d]", s.name, lo, hi))
	}
	return lo + s.rnd.Intn(hi-lo+1)
}

// Exponential returns an exponentially distributed value with the given mean.
func (s *Source) Exponential(mean float64) float64 {
	return s.rnd.ExpFloat64() * mean
}

// Perm returns a random permutation of [0, n).
func (s *Source) Perm(n int) []int { return s.rnd.Perm(n) }

// Shuffle permutes the n elements addressed by swap in place.
func (s *Source) Shuffle(n int, swap func(i, j int)) { s.rnd.Shuffle(n, swap) }

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool { return s.rnd.Float64() < p }
