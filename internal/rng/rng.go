// Package rng provides deterministic, seedable random streams for the
// Wi-Vi simulator: uniform, Gaussian and complex Gaussian draws and
// shuffles.
//
// A Stream is math/rand's generator: rand.New over a source whose
// register, lags and outputs are math/rand's (rand.NewSource), so every
// draw equals math/rand's for the same seed. Only how the register is
// reached differs (see source): seeding keeps only the reduced seed,
// the first 273 outputs are computed from it by jumping ahead in
// math/rand's seeding chain, and the 4.9 KB register is allocated and
// filled only when output 273 (counting from 0) needs it. Most streams
// a scene derives draw fewer values than that and never hold one.
//
// Every stochastic component of the simulator draws from a Stream derived
// from an experiment seed plus a string label, so that (a) whole
// experiments are reproducible bit-for-bit and (b) changing one component's
// draw count does not perturb the randomness seen by other components.
package rng

import (
	"hash/fnv"
	"math"
	"math/rand"
)

// Stream is a deterministic random source with distribution helpers.
// It holds its source, so a new Stream is two heap objects, itself and
// its rand.Rand, until its source allocates a register.
type Stream struct {
	r   *rand.Rand
	src source
}

// New returns a Stream seeded with the given seed.
func New(seed int64) *Stream {
	s := new(Stream)
	s.src.Seed(seed)
	s.r = rand.New(&s.src)
	return s
}

// Derive returns an independent sub-stream identified by label. It
// consumes one draw of the parent, so the sub-stream is reproducible for
// a fixed sequence of calls on the parent: two Derive calls with the
// same label on one parent return different sub-streams.
func (s *Stream) Derive(label string) *Stream {
	h := fnv.New64a()
	_, _ = h.Write([]byte(label))
	// Mix the label hash with fresh parent entropy so that two Derive
	// calls with different labels are independent, while the mapping stays
	// reproducible for a fixed call sequence.
	return New(int64(h.Sum64()) ^ s.r.Int63())
}

// DeriveSeed returns an independent sub-stream for (seed, label) without
// consuming entropy from any parent; useful when callers only have the
// experiment seed.
func DeriveSeed(seed int64, label string) *Stream {
	h := fnv.New64a()
	_, _ = h.Write([]byte(label))
	return New(seed ^ int64(h.Sum64()))
}

// Float64 returns a uniform sample in [0, 1).
func (s *Stream) Float64() float64 { return s.r.Float64() }

// Uniform returns a uniform sample in [lo, hi).
func (s *Stream) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.r.Float64()
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Stream) Intn(n int) int { return s.r.Intn(n) }

// Norm returns a standard normal sample.
func (s *Stream) Norm() float64 { return s.r.NormFloat64() }

// Gaussian returns a normal sample with the given mean and standard
// deviation.
func (s *Stream) Gaussian(mean, std float64) float64 {
	return mean + std*s.r.NormFloat64()
}

// ComplexGaussian returns a circularly-symmetric complex Gaussian sample
// with total variance sigma2 (sigma2/2 per real dimension). This is the
// standard model for receiver thermal noise.
func (s *Stream) ComplexGaussian(sigma2 float64) complex128 {
	std := math.Sqrt(sigma2 / 2)
	return complex(std*s.r.NormFloat64(), std*s.r.NormFloat64())
}

// ComplexGaussianVec fills a slice of n samples of CN(0, sigma2).
func (s *Stream) ComplexGaussianVec(n int, sigma2 float64) []complex128 {
	out := make([]complex128, n)
	std := math.Sqrt(sigma2 / 2)
	for i := range out {
		out[i] = complex(std*s.r.NormFloat64(), std*s.r.NormFloat64())
	}
	return out
}

// UnitPhasor returns e^{i theta} with theta uniform in [0, 2 pi).
func (s *Stream) UnitPhasor() complex128 {
	th := s.Uniform(0, 2*math.Pi)
	return complex(math.Cos(th), math.Sin(th))
}

// Shuffle permutes the n elements addressed by swap uniformly at random.
func (s *Stream) Shuffle(n int, swap func(i, j int)) { s.r.Shuffle(n, swap) }
