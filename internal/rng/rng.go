// Package rng centralises every source of randomness in the repository.
// All generators are seeded and splittable by name, so a whole
// experiment — workload arrivals, corpus generation, jitter in the cost
// model — is reproducible from a single root seed, and adding a new
// consumer of randomness does not perturb the streams used by existing
// ones.
package rng

import (
	"hash/fnv"
	"math"
	"math/rand"
)

// Source is a deterministic random stream. It wraps math/rand with a
// few distributions the simulator needs. Source is not safe for
// concurrent use; split one stream per goroutine instead.
type Source struct {
	r *rand.Rand
}

// New returns a Source seeded with seed.
func New(seed int64) *Source {
	return &Source{r: rand.New(rand.NewSource(seed))}
}

// Split derives an independent child stream identified by name. Two
// Sources with the same seed and the same split-name sequence produce
// identical values; streams with different names are statistically
// independent.
func (s *Source) Split(name string) *Source {
	h := fnv.New64a()
	// Hash the name together with a draw from the parent so that
	// repeated splits with the same name yield distinct streams.
	h.Write([]byte(name))
	var buf [8]byte
	v := s.r.Uint64()
	for i := range buf {
		buf[i] = byte(v >> (8 * i))
	}
	h.Write(buf[:])
	return New(int64(h.Sum64()))
}

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 { return s.r.Float64() }

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int { return s.r.Intn(n) }

// Perm returns a random permutation of [0, n).
func (s *Source) Perm(n int) []int { return s.r.Perm(n) }

// Norm returns a normally distributed value with the given mean and
// standard deviation.
func (s *Source) Norm(mean, stddev float64) float64 {
	return mean + stddev*s.r.NormFloat64()
}

// Exp returns an exponentially distributed value with the given mean
// (i.e. rate 1/mean). Used for Poisson inter-arrival times.
func (s *Source) Exp(mean float64) float64 {
	return s.r.ExpFloat64() * mean
}

// Zipf returns a generator over [0, n) with exponent skew > 1 being
// more concentrated. It is used for the Dockerfile-corpus image
// popularity distribution (paper Fig. 2a: a few base images dominate).
func (s *Source) Zipf(skew float64, n uint64) *Zipf {
	if skew <= 1 {
		skew = 1.0001
	}
	return &Zipf{z: rand.NewZipf(s.r, skew, 1, n-1)}
}

// Zipf draws Zipf-distributed ranks.
type Zipf struct {
	z *rand.Zipf
}

// Next returns the next rank (0 is the most popular).
func (z *Zipf) Next() uint64 { return z.z.Uint64() }

// Bernoulli returns true with probability p.
func (s *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.r.Float64() < p
}

// Poisson returns a Poisson-distributed count with the given mean,
// using Knuth's method for small means and a normal approximation for
// large ones (mean > 64) where Knuth's product underflows.
func (s *Source) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 64 {
		v := s.Norm(mean, math.Sqrt(mean))
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= s.r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}
