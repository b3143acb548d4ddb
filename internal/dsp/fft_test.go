package dsp

import (
	"fmt"
	"math"
	"math/cmplx"
	"sync"
	"testing"
	"testing/quick"

	"wivi/internal/rng"
)

func approxEqualC(a, b complex128, tol float64) bool {
	return cmplx.Abs(a-b) <= tol
}

func TestFFTImpulse(t *testing.T) {
	x := make([]complex128, 8)
	x[0] = 1
	f := FFT(x)
	for i, v := range f {
		if !approxEqualC(v, 1, 1e-12) {
			t.Fatalf("bin %d = %v, want 1", i, v)
		}
	}
}

func TestFFTSingleTone(t *testing.T) {
	const n = 64
	const bin = 5
	x := make([]complex128, n)
	for i := range x {
		x[i] = cmplx.Rect(1, 2*math.Pi*bin*float64(i)/n)
	}
	f := FFT(x)
	for i, v := range f {
		want := complex128(0)
		if i == bin {
			want = n
		}
		if !approxEqualC(v, want, 1e-9) {
			t.Fatalf("bin %d = %v, want %v", i, v, want)
		}
	}
}

func TestFFTLinearity(t *testing.T) {
	r := rng.New(3)
	n := 32
	a := make([]complex128, n)
	b := make([]complex128, n)
	sum := make([]complex128, n)
	for i := 0; i < n; i++ {
		a[i] = complex(r.Norm(), r.Norm())
		b[i] = complex(r.Norm(), r.Norm())
		sum[i] = a[i] + 2*b[i]
	}
	fa, fb, fsum := FFT(a), FFT(b), FFT(sum)
	for i := 0; i < n; i++ {
		if !approxEqualC(fsum[i], fa[i]+2*fb[i], 1e-9) {
			t.Fatalf("linearity violated at bin %d", i)
		}
	}
}

// TestFFTRoundTripProperty: the transform inverts, conj(FFT(conj(FFT(x))))/N
// == x, for arbitrary lengths, including non-powers of two (Bluestein
// path).
func TestFFTRoundTripProperty(t *testing.T) {
	seed := int64(0)
	f := func() bool {
		r := rng.New(seed)
		seed++
		n := 1 + r.Intn(200)
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(r.Norm(), r.Norm())
		}
		y := FFT(x)
		for i := range y {
			y[i] = cmplx.Conj(y[i])
		}
		y = FFT(y)
		for i := range y {
			y[i] = cmplx.Conj(y[i]) / complex(float64(n), 0)
		}
		for i := range x {
			if !approxEqualC(x[i], y[i], 1e-8) {
				t.Logf("n=%d mismatch at %d: %v vs %v", n, i, x[i], y[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestFFTParseval: energy is preserved (up to the 1/N convention).
func TestFFTParseval(t *testing.T) {
	r := rng.New(11)
	for _, n := range []int{16, 17, 100, 128} {
		x := make([]complex128, n)
		var ex float64
		for i := range x {
			x[i] = complex(r.Norm(), r.Norm())
			ex += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
		}
		f := FFT(x)
		var ef float64
		for _, v := range f {
			ef += real(v)*real(v) + imag(v)*imag(v)
		}
		if math.Abs(ef/float64(n)-ex) > 1e-8*ex {
			t.Fatalf("Parseval violated for n=%d: %v vs %v", n, ef/float64(n), ex)
		}
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1023: 1024, 1024: 1024, 1025: 2048}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestPowerSpectrumTone(t *testing.T) {
	const n = 32
	x := make([]complex128, n)
	for i := range x {
		x[i] = cmplx.Rect(2, 2*math.Pi*3*float64(i)/n)
	}
	p := PowerSpectrum(x)
	if got := Argmax(p); got != 3 {
		t.Fatalf("PowerSpectrum peak at %d, want 3", got)
	}
	if math.Abs(p[3]-float64(n*n)*4) > 1e-6 {
		t.Fatalf("peak power %v, want %v", p[3], float64(n*n)*4)
	}
}

// --- Reference kernels -------------------------------------------------
//
// The FFT kernels as the golden fixtures were generated with, with their
// own bit-reversal helpers. The production kernels must stay bit-identical
// to these: any divergence would silently move every golden fixture and
// every figure computed from a transform.

func fftRef(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	copy(out, x)
	fftInPlaceRef(out)
	return out
}

func fftInPlaceRef(x []complex128) {
	n := len(x)
	if n <= 1 {
		return
	}
	if n&(n-1) == 0 {
		radix2Ref(x, false)
	} else {
		bluesteinRef(x)
	}
}

func radix2Ref(x []complex128, inverse bool) {
	n := len(x)
	shift := 64 - uint(bitsTrailingZeros(n))
	for i := 0; i < n; i++ {
		j := int(bitsReverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := sign * 2 * math.Pi / float64(size)
		wStep := cmplx.Rect(1, step)
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
				w *= wStep
			}
		}
	}
}

func bluesteinRef(x []complex128) {
	n := len(x)
	chirp := make([]complex128, n)
	for k := 0; k < n; k++ {
		kk := (int64(k) * int64(k)) % (2 * int64(n))
		chirp[k] = cmplx.Rect(1, -1.0*math.Pi*float64(kk)/float64(n))
	}
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	a := make([]complex128, m)
	b := make([]complex128, m)
	for k := 0; k < n; k++ {
		a[k] = x[k] * chirp[k]
		b[k] = cmplx.Conj(chirp[k])
	}
	for k := 1; k < n; k++ {
		b[m-k] = cmplx.Conj(chirp[k])
	}
	radix2Ref(a, false)
	radix2Ref(b, false)
	for i := range a {
		a[i] *= b[i]
	}
	radix2Ref(a, true)
	invM := complex(1/float64(m), 0)
	for k := 0; k < n; k++ {
		x[k] = a[k] * invM * chirp[k]
	}
}

func bitsTrailingZeros(n int) int {
	c := 0
	for n&1 == 0 {
		n >>= 1
		c++
	}
	return c
}

func bitsReverse64(v uint64) uint64 {
	var out uint64
	for i := 0; i < 64; i++ {
		out = out<<1 | (v>>uint(i))&1
	}
	return out
}

// TestFFTPlannedBitIdenticalToReference: for power-of-two and Bluestein
// sizes alike, the production kernel reproduces the
// reference bit for bit, so a kernel rewrite changes no downstream
// output.
func TestFFTPlannedBitIdenticalToReference(t *testing.T) {
	r := rng.New(5)
	for _, n := range []int{1, 2, 3, 4, 7, 16, 64, 100, 128, 331, 1000} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(r.Norm(), r.Norm())
		}
		// Run each transform twice: a repeated call must match too.
		for pass := 0; pass < 2; pass++ {
			fwd, wantFwd := FFT(x), fftRef(x)
			for i := 0; i < n; i++ {
				if fwd[i] != wantFwd[i] {
					t.Fatalf("n=%d pass=%d: FFT bin %d = %v, reference %v", n, pass, i, fwd[i], wantFwd[i])
				}
			}
		}
	}
}

// TestFFTIntoMatchesFFT: the buffered form is the same kernel; in-place
// (dst == x) and out-of-place agree bit for bit with FFT.
func TestFFTIntoMatchesFFT(t *testing.T) {
	r := rng.New(6)
	for _, n := range []int{8, 60, 64} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(r.Norm(), r.Norm())
		}
		want := FFT(x)
		dst := make([]complex128, n)
		if got := FFTInto(dst, x); &got[0] != &dst[0] {
			t.Fatal("FFTInto did not return dst")
		}
		inPlace := append([]complex128(nil), x...)
		FFTInto(inPlace, inPlace)
		for i := range want {
			if dst[i] != want[i] || inPlace[i] != want[i] {
				t.Fatalf("n=%d bin %d: FFTInto %v / in-place %v, want %v", n, i, dst[i], inPlace[i], want[i])
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("length-mismatched FFTInto did not panic")
		}
	}()
	FFTInto(make([]complex128, 3), make([]complex128, 4))
}

// TestFFTIntoNoAllocs: a power-of-two transform computes its twiddles on
// the fly, so the buffered transform allocates nothing.
func TestFFTIntoNoAllocs(t *testing.T) {
	const n = 64
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(float64(i), 1)
	}
	dst := make([]complex128, n)
	if avg := testing.AllocsPerRun(100, func() { FFTInto(dst, x) }); avg != 0 {
		t.Errorf("n=%d: FFTInto allocates %.1f per op, want 0", n, avg)
	}
}

// TestFFTConcurrent runs one size from many goroutines (run under
// -race): concurrent transforms share no state, on the radix-2 and the
// Bluestein path alike.
func TestFFTConcurrent(t *testing.T) {
	for _, n := range []int{64, 100} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(float64(i%7), float64(i%5))
		}
		want := fftRef(x)
		var wg sync.WaitGroup
		errs := make(chan error, 16)
		for g := 0; g < 16; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				dst := make([]complex128, n)
				for it := 0; it < 50; it++ {
					FFTInto(dst, x)
					for i := range want {
						if dst[i] != want[i] {
							select {
							case errs <- fmt.Errorf("n=%d bin %d: %v, want %v", n, i, dst[i], want[i]):
							default:
							}
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
}

// TestPowerSpectrumInto: the buffered form matches PowerSpectrum and
// allows scratch to alias x.
func TestPowerSpectrumInto(t *testing.T) {
	r := rng.New(8)
	n := 48
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(r.Norm(), r.Norm())
	}
	want := PowerSpectrum(x)
	dst := make([]float64, n)
	scratch := make([]complex128, n)
	PowerSpectrumInto(dst, x, scratch)
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("bin %d: %v, want %v", i, dst[i], want[i])
		}
	}
	// Aliased scratch: x is consumed, result unchanged.
	own := append([]complex128(nil), x...)
	PowerSpectrumInto(dst, own, own)
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("aliased bin %d: %v, want %v", i, dst[i], want[i])
		}
	}
}

func BenchmarkFFT1024(b *testing.B) {
	r := rng.New(1)
	x := make([]complex128, 1024)
	for i := range x {
		x[i] = complex(r.Norm(), r.Norm())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FFT(x)
	}
}

func BenchmarkFFTBluestein1000(b *testing.B) {
	r := rng.New(1)
	x := make([]complex128, 1000)
	for i := range x {
		x[i] = complex(r.Norm(), r.Norm())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FFT(x)
	}
}
