package rng

import "math/rand"

// source is math/rand's additive lagged Fibonacci generator (Mitchell
// and Reeds, the generator behind rand.NewSource), step for step: the
// same 607-word register, the same lags and the same Int63 and Uint64,
// transcribed from math/rand/rng.go. Only seeding differs in how it
// computes the register, not in what it computes.
//
// math/rand seeds by walking the Park-Miller Lehmer chain
// x ← 48271·x mod (2³¹−1) through 1,841 serial steps from the reduced
// seed x₀, and sets word i to (x₂₁₊₃ᵢ<<40 ^ x₂₂₊₃ᵢ<<20 ^ x₂₃₊₃ᵢ) ^ cooked[i].
// The chain jumps ahead, xₙ = x₀·48271ⁿ mod (2³¹−1), so Seed forms every
// x as one independent multiply by a power from lehmerPow, and the words
// need no chain at all.
type source struct {
	tap  int
	feed int
	vec  [rngLen]int64
}

var _ rand.Source64 = (*source)(nil)

const (
	rngLen  = 607
	rngTap  = 273
	rngMask = 1<<63 - 1
	// lehmerM is the Lehmer modulus 2³¹−1, a Mersenne prime, and
	// lehmerA its multiplier.
	lehmerM = 1<<31 - 1
	lehmerA = 48271
	// lehmerSkip is the first chain step a register word uses: math/rand
	// discards x₁…x₂₀.
	lehmerSkip = 21
	// zeroSeed stands in for a seed ≡ 0 (mod 2³¹−1), which would pin
	// the chain at 0.
	zeroSeed = 89482311
)

var (
	// lehmerPow[n] is 48271^(lehmerSkip+n) mod (2³¹−1), the multiplier
	// that takes x₀ to the chain's step lehmerSkip+n.
	lehmerPow [3 * rngLen]uint64
	// cooked is math/rand's seeding constants (its rngCooked), recovered
	// from math/rand's own output by recoverCooked.
	cooked [rngLen]int64
)

func init() {
	x := uint64(1)
	for range lehmerSkip {
		x = mulMod(x, lehmerA)
	}
	for n := range lehmerPow {
		lehmerPow[n] = x
		x = mulMod(x, lehmerA)
	}
	cooked = recoverCooked(1)
}

// newSource returns a source seeded with seed.
func newSource(seed int64) *source {
	s := new(source)
	s.Seed(seed)
	return s
}

// mulMod returns a·b mod (2³¹−1) for a, b < 2³¹ whose product is not a
// multiple of 2³¹−1. 2³¹ ≡ 1, so the product's high bits fold onto its
// low 31 bits; the fold is at most 2·(2³¹−1), and a product prime to the
// modulus never reaches either multiple of it.
func mulMod(a, b uint64) uint64 {
	p := a * b
	p = p&lehmerM + p>>31
	if p >= lehmerM {
		p -= lehmerM
	}
	return p
}

// Seed sets the register to math/rand's for seed. As in math/rand, the
// seed reduces mod 2³¹−1, and a seed ≡ 0 seeds as 89482311.
func (s *source) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = zeroSeed
	}
	x0 := uint64(seed)
	for i := range s.vec {
		// Bits shifted past 63 drop, as in math/rand's int64 shifts.
		p := lehmerPow[3*i : 3*i+3 : 3*i+3]
		u := mulMod(x0, p[0])<<40 ^ mulMod(x0, p[1])<<20 ^ mulMod(x0, p[2])
		s.vec[i] = int64(u) ^ cooked[i]
	}
}

// Int63 returns a non-negative pseudo-random 63-bit integer as an int64.
func (s *source) Int63() int64 {
	return int64(s.Uint64() & rngMask)
}

// Uint64 returns a pseudo-random 64-bit integer as a uint64.
func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}

	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}

	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// recoverCooked returns math/rand's seeding constants, read back from
// the first 607 outputs oₖ of rand.NewSource(ref), so that no table of
// them is copied here. Output k adds the register word at feed position
// f(k) = (333−k) mod 607 to the word at tap position 606−k, and then
// stores the sum at f(k). From output 273 on, the tap word is output
// k−273, stored 273 calls earlier; before that it is still the seeded
// word at 606−k = f(k+334), which the first loop has already read back.
// Each seeded word XOR its Lehmer part for ref is its constant.
func recoverCooked(ref int64) [rngLen]int64 {
	src := rand.NewSource(ref).(rand.Source64)
	var o, v [rngLen]int64
	for k := range o {
		o[k] = int64(src.Uint64())
	}
	feed := func(k int) int { return (rngLen - rngTap - 1 - k + rngLen) % rngLen }
	for k := rngTap; k < rngLen; k++ {
		v[feed(k)] = o[k] - o[k-rngTap]
	}
	for k := 0; k < rngTap; k++ {
		v[feed(k)] = o[k] - v[rngLen-1-k]
	}
	// Seed XORs each word's Lehmer part with cooked, so XORing cooked
	// back out leaves the Lehmer part, whatever cooked holds yet.
	var lehmer source
	lehmer.Seed(ref)
	for i := range v {
		v[i] ^= lehmer.vec[i] ^ cooked[i]
	}
	return v
}
