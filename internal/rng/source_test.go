package rng

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// referenceDraws is how many draws each reference comparison takes per
// seed: more than three times the 607-word register, so every word is
// drawn, written back and drawn again three times over.
const referenceDraws = 2000

// referenceSeeds returns the seeds the reference tests compare on: the
// edges of math/rand's seed reduction (0 and the multiples of 2³¹−1,
// which seed as 89482311, the sign flips and the int64 extremes), then
// 1,000 seeds spread over all of int64.
func referenceSeeds() []int64 {
	seeds := []int64{0, 1, -1, zeroSeed, lehmerM, -lehmerM, 2 * lehmerM, math.MinInt64, math.MaxInt64}
	r := rand.New(rand.NewSource(2029))
	for range 1000 {
		seeds = append(seeds, int64(r.Uint64()))
	}
	return seeds
}

// TestSourceMatchesMathRand holds the source's Uint64 and Int63 outputs
// equal to rand.NewSource's, both from a new source and after Seed
// re-seeds one that has drawn 0, 1, 272, 273, 274 or 400 values: before,
// at and after the output that allocates its register.
func TestSourceMatchesMathRand(t *testing.T) {
	drawn := []int{0, 1, rngTap - 1, rngTap, rngTap + 1, 400}
	reseeded := make([]source, len(drawn))
	for _, seed := range referenceSeeds() {
		var got source
		got.Seed(seed)
		want := rand.NewSource(seed).(rand.Source64)
		for j, n := range drawn {
			reseeded[j].Seed(7)
			for range n {
				reseeded[j].Uint64()
			}
			reseeded[j].Seed(seed)
		}
		for i := range referenceDraws {
			w := want.Uint64()
			if g := got.Uint64(); g != w {
				t.Fatalf("seed %d: Uint64 draw %d = %#x, math/rand %#x", seed, i, g, w)
			}
			for j := range reseeded {
				if g := reseeded[j].Int63(); g != int64(w&rngMask) {
					t.Fatalf("seed %d after Seed on %d draws: Int63 draw %d = %#x, math/rand %#x",
						seed, drawn[j], i, g, w&rngMask)
				}
			}
		}
	}
}

// TestRegisterAllocatedOnDemand holds a stream to its Stream and
// rand.Rand until a draw needs the register: OutputsBeforeRegister (273)
// draws allocate nothing more, and the next allocates the register
// alone.
func TestRegisterAllocatedOnDemand(t *testing.T) {
	allocs := func(draws int) float64 {
		return testing.AllocsPerRun(100, func() {
			s := New(2029)
			for range draws {
				s.r.Int63()
			}
		})
	}
	if got := allocs(0); got != 2 {
		t.Errorf("New allocates %v objects, want 2: the Stream and its rand.Rand", got)
	}
	if got := allocs(OutputsBeforeRegister); got != 2 {
		t.Errorf("New and %d draws allocate %v objects, want 2: no register", OutputsBeforeRegister, got)
	}
	if got := allocs(OutputsBeforeRegister + 1); got != 3 {
		t.Errorf("New and %d draws allocate %v objects, want 3: the register", OutputsBeforeRegister+1, got)
	}
}

// TestDrawsAcrossRegisterFill holds draws that straddle outputs 272 to
// 274, where the register is allocated, equal to math/rand's, with
// Derive calls interleaved: a parent that has drawn 268 to 275 values
// alternates Derive and Float64, and each sub-stream takes rotating
// draw kinds past its own 274th output.
func TestDrawsAcrossRegisterFill(t *testing.T) {
	for _, seed := range referenceSeeds()[:40] {
		for pre := rngTap - 5; pre <= rngTap+2; pre++ {
			got, want := New(seed), rand.New(rand.NewSource(seed))
			name := fmt.Sprintf("seed %d after %d draws", seed, pre)
			for i := range pre {
				if g, w := got.r.Int63(), want.Int63(); g != w {
					t.Fatalf("%s: Int63 draw %d = %#x, math/rand %#x", name, i, g, w)
				}
			}
			for i := range 4 {
				label := fmt.Sprintf("sub-%d", i)
				compareDraws(t, name+" "+label, got.Derive(label), deriveReference(want, label), 2*rngTap)
				if g, w := got.Float64(), want.Float64(); g != w {
					t.Fatalf("%s: Float64 after %s = %v, math/rand %v", name, label, g, w)
				}
			}
		}
	}
}

// TestRecoverCookedAnyReference holds the recovered seeding constants
// independent of the reference seed they were read back from.
func TestRecoverCookedAnyReference(t *testing.T) {
	for _, ref := range []int64{0, -7, 2029, math.MaxInt64} {
		if got := recoverCooked(ref); got != cooked {
			i := 0
			for got[i] == cooked[i] {
				i++
			}
			t.Errorf("reference seed %d: constant %d = %d, from seed 1 %d", ref, i, got[i], cooked[i])
		}
	}
}

// deriveReference is Derive on math/rand: a source seeded with the
// label's FNV-1a hash XOR one Int63 of the parent.
func deriveReference(parent *rand.Rand, label string) *rand.Rand {
	h := fnv.New64a()
	_, _ = h.Write([]byte(label))
	return rand.New(rand.NewSource(int64(h.Sum64()) ^ parent.Int63()))
}

// TestStreamMatchesMathRand holds every Stream draw equal to the same
// draw on rand.New(rand.NewSource(seed)), the Stream's construction
// before its source jumped ahead. The draw kinds rotate, so each one
// starts at many register positions; chained Derive calls then compare
// the sub-streams' draws.
func TestStreamMatchesMathRand(t *testing.T) {
	for _, seed := range referenceSeeds() {
		got, want := New(seed), rand.New(rand.NewSource(seed))
		name := fmt.Sprintf("seed %d", seed)
		compareDraws(t, name, got, want, referenceDraws)
		gotSub := got.Derive("walker-0").Derive("sway")
		wantSub := deriveReference(deriveReference(want, "walker-0"), "sway")
		compareDraws(t, name+" walker-0/sway", gotSub, wantSub, 100)
	}
}

// compareDraws takes n draws of rotating kinds from got and want, the
// stream called name, and fails at the first that differs.
func compareDraws(t *testing.T, name string, got *Stream, want *rand.Rand, n int) {
	t.Helper()
	for i := range n {
		var g, w any
		switch i % 8 {
		case 0:
			g, w = got.Float64(), want.Float64()
		case 1:
			g, w = got.Uniform(-2, 3), -2+5*want.Float64()
		case 2:
			g, w = got.Intn(1+i), want.Intn(1+i)
		case 3:
			g, w = got.Norm(), want.NormFloat64()
		case 4:
			g, w = got.Gaussian(5, 2), 5+2*want.NormFloat64()
		case 5:
			std := math.Sqrt(0.5 / 2)
			re := std * want.NormFloat64()
			im := std * want.NormFloat64()
			g, w = got.ComplexGaussian(0.5), complex(re, im)
		case 6:
			a, b := make([]int, 1+i%50), make([]int, 1+i%50)
			for j := range a {
				a[j], b[j] = j, j
			}
			got.Shuffle(len(a), func(i, j int) { a[i], a[j] = a[j], a[i] })
			want.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
			if !slices.Equal(a, b) {
				t.Fatalf("%s: Shuffle draw %d = %v, math/rand %v", name, i, a, b)
			}
			continue
		case 7:
			g, w = got.Intn(math.MaxInt32+1+i), want.Intn(math.MaxInt32+1+i)
		}
		if g != w {
			t.Fatalf("%s: draw %d = %v, math/rand %v", name, i, g, w)
		}
	}
}

// BenchmarkNew times seeding one stream: rng.New, which jumps ahead in
// math/rand's seeding chain, against math/rand's own walk of it.
func BenchmarkNew(b *testing.B) {
	b.Run("rng", func(b *testing.B) {
		b.ReportAllocs()
		seed := int64(0)
		for b.Loop() {
			seed++
			New(seed)
		}
	})
	b.Run("math-rand", func(b *testing.B) {
		b.ReportAllocs()
		seed := int64(0)
		for b.Loop() {
			seed++
			rand.New(rand.NewSource(seed))
		}
	})
}
