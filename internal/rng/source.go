package rng

import "math/rand"

// source is math/rand's additive lagged Fibonacci generator (Mitchell
// and Reeds, the generator behind rand.NewSource), output for output:
// the same 607-word register, the same lags and the same Int63 and
// Uint64, transcribed from math/rand/rng.go. Only how it reaches the
// register differs, not what the register holds.
//
// math/rand seeds by walking the Park-Miller Lehmer chain
// x ← 48271·x mod (2³¹−1) through 1,841 serial steps from the reduced
// seed x₀, and sets word i to (x₂₁₊₃ᵢ<<40 ^ x₂₂₊₃ᵢ<<20 ^ x₂₃₊₃ᵢ) ^ cooked[i].
// The chain jumps ahead, xₙ = x₀·48271ⁿ mod (2³¹−1), so word computes
// any seeded word alone, as three multiplies by powers from lehmerPow.
//
// So Seed keeps only x₀, and the register is allocated only when an
// output needs it. Output k (counting from 0) adds the word at feed
// position 333−k to the word at tap position 606−k and stores the sum at
// the feed position. For k < 273 neither word has been written yet, so
// unfilled returns the sum of two seeded words, six mulMods, and nothing
// is allocated. Output 273 is the first whose tap word is an earlier
// output (output 0's), so it allocates the register and fills it to the
// state that outputs 0 to 272 left; from then on each output is
// math/rand's step behind one nil test. A stream that draws at most 273
// values never holds a register.
type source struct {
	x0 uint64 // the reduced seed
	n  int    // the outputs drawn while reg is nil
	// reg is the register, nil until output 273 needs it.
	reg *register
}

// register is math/rand's generator state: its words and the two
// positions that every step writes. They share one allocation, as in
// math/rand, so that a step writes only to this 5 KB object, which
// shares no cache line with another. Positions kept in the Stream's
// small object would be written per draw on cache lines that the heap
// shares with neighbouring objects: built that way, the benchmark's
// track_batch workload read 4.5% fewer frames per second (10
// alternating pairs on a 2-vCPU Xeon VM).
type register struct {
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

// Seed resets the source to math/rand's state for seed and drops its
// register. As in math/rand, the seed reduces mod 2³¹−1, and a seed ≡ 0
// seeds as 89482311.
func (s *source) Seed(seed int64) {
	s.n = 0
	s.reg = nil
	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = zeroSeed
	}
	s.x0 = uint64(seed)
}

// lehmerWord returns the Lehmer part of register word i for the reduced
// seed x0: x₂₁₊₃ᵢ<<40 ^ x₂₂₊₃ᵢ<<20 ^ x₂₃₊₃ᵢ, each x one multiply of x0 by
// its power of 48271. Bits shifted past 63 drop, as in math/rand's
// int64 shifts.
func lehmerWord(x0 uint64, i int) int64 {
	p := lehmerPow[3*i : 3*i+3 : 3*i+3]
	return int64(mulMod(x0, p[0])<<40 ^ mulMod(x0, p[1])<<20 ^ mulMod(x0, p[2]))
}

// word returns register word i as math/rand seeds it.
func (s *source) word(i int) int64 { return lehmerWord(s.x0, i) ^ cooked[i] }

// fill allocates the register and sets it to the state that outputs 0
// to 272 left: the seeded words, with output k stored at its feed
// position 333−k, and the positions math/rand's step reaches after 273
// outputs. Output k's tap position is its feed position plus 273,
// which no earlier output wrote.
func (s *source) fill() {
	r := &register{tap: rngLen - rngTap, feed: rngLen - 2*rngTap}
	for i := range r.vec {
		r.vec[i] = s.word(i)
	}
	for i := rngLen - rngTap; i < rngLen; i++ {
		r.vec[i-rngTap] += r.vec[i]
	}
	s.reg = r
}

// Int63 returns a non-negative pseudo-random 63-bit integer as an int64.
// It tests the register itself, rather than calling Uint64, so that
// the step inlines here: rand.Rand calls Int63 for all but Uint64.
func (s *source) Int63() int64 {
	if s.reg == nil {
		return int64(s.unfilled() & rngMask)
	}
	return int64(s.reg.step() & rngMask)
}

// Uint64 returns a pseudo-random 64-bit integer as a uint64.
func (s *source) Uint64() uint64 {
	if s.reg == nil {
		return s.unfilled()
	}
	return s.reg.step()
}

// step is math/rand's Uint64.
func (r *register) step() uint64 {
	r.tap--
	if r.tap < 0 {
		r.tap += rngLen
	}

	r.feed--
	if r.feed < 0 {
		r.feed += rngLen
	}

	x := r.vec[r.feed] + r.vec[r.tap]
	r.vec[r.feed] = x
	return uint64(x)
}

// unfilled returns the next output while the register is not
// allocated. Output k < 273 sums the seeded words at its feed position
// 333−k and its tap position 606−k; output 273 fills the register and
// steps.
func (s *source) unfilled() uint64 {
	if k := s.n; k < rngTap {
		s.n++
		return uint64(s.word(rngLen-rngTap-1-k) + s.word(rngLen-1-k))
	}
	s.fill()
	return s.reg.step()
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
	var seeded source
	seeded.Seed(ref)
	for i := range v {
		v[i] ^= lehmerWord(seeded.x0, i)
	}
	return v
}
