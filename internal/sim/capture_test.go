package sim

import (
	"fmt"
	"math"
	"math/cmplx"
	"testing"

	"wivi/internal/geom"
	"wivi/internal/nulling"
	"wivi/internal/rf"
	"wivi/internal/rng"
)

// directMovingChannel is the reference for the moving-channel kernel:
// every body part's three scatter paths (direct and both side-wall
// images) summed subcarrier by subcarrier, each with its own e^{-j2πL/λ}
// and its λ-scaled amplitude, and with the antenna patterns converted
// from dB by math.Pow. It is the per-antenna direct sum the kernel's
// shared geometry and phasor recursion replace.
func directMovingChannel(d *Device, txa rf.Antenna, t float64) []complex128 {
	out := make([]complex128, len(d.lambdas))
	gain := func(a rf.Antenna, p geom.Point) float64 {
		return math.Pow(10, a.PowerGainDBToward(p)/20)
	}
	addPath := func(pos geom.Point, rcs, extra float64) {
		d1 := math.Max(txa.Pos.Dist(pos), rf.MinRange)
		d2 := math.Max(d.Rx.Pos.Dist(pos), rf.MinRange)
		amp0 := gain(txa, pos) * gain(d.Rx, pos) * math.Sqrt(rcs/(4*math.Pi)) *
			d.lambda0 / (4 * math.Pi * d1 * d2) * extra
		for k, lambda := range d.lambdas {
			out[k] += cmplx.Rect(amp0*lambda/d.lambda0, -2*math.Pi*(d1+d2)/lambda)
		}
	}
	wallAmp := d.scene.TwoWayWallAmp()
	east, west := d.scene.Room.Max.X, d.scene.Room.Min.X
	for _, h := range d.humans {
		for _, part := range h.Parts {
			pos := part.Traj.At(t)
			addPath(pos, part.RCS, wallAmp)
			addPath(geom.Point{X: 2*east - pos.X, Y: pos.Y}, part.RCS, wallAmp*sideWallReflectivity)
			addPath(geom.Point{X: 2*west - pos.X, Y: pos.Y}, part.RCS, wallAmp*sideWallReflectivity)
		}
	}
	return out
}

// TestMovingChannelsMatchDirectSum checks the moving-channel kernel
// against the direct per-subcarrier sum over 1,000 samples, for both
// transmit antennas, on 3 seeds with 3 walkers and one with 5: 60
// scatter points, more than any scene the benchmark builds, so the path
// table is sized from the scene's part count rather than a fixed
// budget. Each scene's table is built once and reused for every sample,
// as a read does. The kernel's phasor recursion, exp-form antenna
// gains, folded pattern coefficients, reciprocal wavelength, λk/λ0
// applied after the sums and Sqrt distances (the reference uses Hypot)
// reorder the rounding, so the bound is relative: 1e-10 of the sample's
// largest channel magnitude.
func TestMovingChannelsMatchDirectSum(t *testing.T) {
	const (
		samples = 1000
		bound   = 1e-10
	)
	worst := 0.0
	for _, c := range []struct {
		seed    int64
		walkers int
	}{{3, 3}, {41, 3}, {977, 3}, {5, 5}} {
		sc := NewScene(SceneConfig{Seed: c.seed})
		for i := 0; i < c.walkers; i++ {
			if _, err := sc.AddWalker(samples * DefaultCalibration().SampleT); err != nil {
				t.Fatal(err)
			}
		}
		d, err := NewDevice(sc, DefaultCalibration(), DeviceConfig{Seed: c.seed})
		if err != nil {
			t.Fatal(err)
		}
		paths := d.scatterPaths(nil)
		if want := 3 * 4 * c.walkers; len(paths) != want {
			t.Fatalf("seed %d: %d walkers give %d scatter paths, want %d", c.seed, c.walkers, len(paths), want)
		}
		h1 := make([]complex128, d.NumSubcarriers())
		h2 := make([]complex128, d.NumSubcarriers())
		for i := 0; i < samples; i++ {
			ts := float64(i) * d.Cal.SampleT
			d.movingChannelsInto(h1, h2, ts, paths)
			for ant, got := range [][]complex128{h1, h2} {
				want := directMovingChannel(d, d.txAntenna(ant+1), ts)
				scale := 0.0
				for _, w := range want {
					scale = math.Max(scale, cmplx.Abs(w))
				}
				for k := range want {
					rel := cmplx.Abs(got[k]-want[k]) / scale
					worst = math.Max(worst, rel)
					if rel > bound {
						t.Fatalf("seed %d (%d walkers) sample %d antenna %d subcarrier %d: %v, direct sum %v (%.2g of the largest channel)",
							c.seed, c.walkers, i, ant+1, k, got[k], want[k], rel)
					}
				}
			}
		}
	}
	t.Logf("worst deviation %.2g of the sample's largest channel magnitude", worst)
}

// TestPhasor checks the kernel's phasor against math.Sincos of the same
// phase reduced to half a turn, on 1,000,000 seeded phases within 10⁴
// turns of zero and 100,000 up to the documented bound of 2^48 turns:
// each component within 2ε. At every quarter turn within 256 turns of
// zero, and within 64 quarter turns of ±2^48, both components are
// exact. Sine is odd and cosine even, bit for bit, at all of those
// phases, and a NaN or infinite phase gives NaN.
func TestPhasor(t *testing.T) {
	const (
		bound = 1 << 48
		eps   = 0x1p-52
	)
	r := rng.New(25)
	var phases []float64
	for i := 0; i < 1000000; i++ {
		phases = append(phases, r.Uniform(-1e4, 1e4))
	}
	for i := 0; i < 100000; i++ {
		phases = append(phases, r.Uniform(-bound, bound))
	}
	quarter := func(k int64) float64 { return float64(k) / 4 }
	var quarters []float64
	for k := int64(-1024); k <= 1024; k++ {
		quarters = append(quarters, quarter(k))
	}
	for k := int64(4*bound - 64); k <= 4*bound; k++ {
		quarters = append(quarters, quarter(k), quarter(-k))
	}
	worst := 0.0
	for _, ph := range phases {
		got := phasor(ph)
		s, c := math.Sincos(2 * math.Pi * (ph - math.RoundToEven(ph)))
		dev := math.Max(math.Abs(imag(got)-s), math.Abs(real(got)-c)) / eps
		worst = math.Max(worst, dev)
		if dev > 2 {
			t.Fatalf("phasor(%v) = %v, Sincos gives %v (%.2fε off)", ph, got, complex(c, s), dev)
		}
	}
	t.Logf("worst deviation from Sincos %.2fε", worst)
	for _, ph := range quarters {
		want := [4]complex128{1, 1i, -1, -1i}[int64(4*ph)&3]
		if got := phasor(ph); got != want {
			t.Errorf("phasor(%v) = %v, want %v", ph, got, want)
		}
	}
	for _, ph := range append(phases, quarters...) {
		pos, neg := phasor(ph), phasor(-ph)
		if math.Float64bits(imag(neg)) != math.Float64bits(-imag(pos)) ||
			math.Float64bits(real(neg)) != math.Float64bits(real(pos)) {
			t.Fatalf("phasor(%v) = %v and phasor(%v) = %v: not conjugate bit for bit", ph, pos, -ph, neg)
		}
	}
	for _, ph := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got := phasor(ph); !math.IsNaN(real(got)) || !math.IsNaN(imag(got)) {
			t.Errorf("phasor(%v) = %v, want NaN in both components", ph, got)
		}
	}
}

// TestCaptureFanOutIdentity checks that neither the synthesis fan-out
// width nor the chunking changes a sample. For reads of 1 to 1,250
// samples, on either side of the two-block threshold, a one-shot
// Capture, chunked Reads, a StreamCapture and a CaptureRaw on a fresh
// device of each width must equal, bit for bit, the same call on a fresh
// width-1 device; and the width-1 chunked Reads and StreamCapture must
// equal the width-1 one-shot Capture.
func TestCaptureFanOutIdentity(t *testing.T) {
	const (
		seed   = 23
		startT = 0.4
	)
	sc := NewScene(SceneConfig{Seed: seed})
	for i := 0; i < 2; i++ {
		if _, err := sc.AddWalker(startT + 5); err != nil {
			t.Fatal(err)
		}
	}
	device := func(workers int) *Device {
		d, err := NewDevice(sc, DefaultCalibration(), DeviceConfig{Seed: seed, SynthWorkers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	res, err := nulling.Run(device(1), nulling.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	forms := []struct {
		name    string
		capture func(d *Device, n int) ([][]complex128, error)
	}{
		{"Capture", func(d *Device, n int) ([][]complex128, error) {
			return d.Capture(res.P, d.Cal.BoostDB, startT, n)
		}},
		{"Read", func(d *Device, n int) ([][]complex128, error) {
			s, err := d.StartCapture(res.P, d.Cal.BoostDB, startT, n)
			if err != nil {
				return nil, err
			}
			out := make([][]complex128, d.NumSubcarriers())
			for c := 0; s.Remaining() > 0; c++ {
				// Chunks on both sides of the two-block threshold.
				chunk, err := s.Read(min([]int{1, 31, 32, 100}[c%4], s.Remaining()))
				if err != nil {
					return nil, err
				}
				for k := range out {
					out[k] = append(out[k], chunk[k]...)
				}
			}
			return out, nil
		}},
		{"StreamCapture", func(d *Device, n int) ([][]complex128, error) {
			out := make([][]complex128, d.NumSubcarriers())
			err := d.StreamCapture(res.P, d.Cal.BoostDB, startT, n, 40, func(chunk [][]complex128) error {
				for k := range out {
					out[k] = append(out[k], chunk[k]...)
				}
				return nil
			})
			return out, err
		}},
		{"CaptureRaw", func(d *Device, n int) ([][]complex128, error) {
			return d.CaptureRaw(startT, n)
		}},
	}
	// same fails the test unless got equals want bit for bit.
	same := func(what string, got, want [][]complex128) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d subcarriers, want %d", what, len(got), len(want))
		}
		for k := range want {
			if len(got[k]) != len(want[k]) {
				t.Fatalf("%s: subcarrier %d has %d samples, want %d", what, k, len(got[k]), len(want[k]))
			}
			for i := range want[k] {
				if math.Float64bits(real(got[k][i])) != math.Float64bits(real(want[k][i])) ||
					math.Float64bits(imag(got[k][i])) != math.Float64bits(imag(want[k][i])) {
					t.Fatalf("%s: subcarrier %d sample %d is %v, want %v", what, k, i, got[k][i], want[k][i])
				}
			}
		}
	}
	for _, n := range []int{1, 25, 31, 32, 100, 1250} {
		var oneShot [][]complex128
		for _, f := range forms {
			want, err := f.capture(device(1), n)
			if err != nil {
				t.Fatal(err)
			}
			switch f.name {
			case "Capture":
				oneShot = want
			case "Read", "StreamCapture":
				same(fmt.Sprintf("%s of %d samples at width 1 vs one-shot Capture", f.name, n), want, oneShot)
			}
			for _, w := range []int{2, 3, 8} {
				got, err := f.capture(device(w), n)
				if err != nil {
					t.Fatal(err)
				}
				same(fmt.Sprintf("%s of %d samples, width %d vs width 1", f.name, n, w), got, want)
			}
		}
	}
}

// BenchmarkCapture times tracking-capture synthesis: 1,250 nulled
// samples (4 s) on 16 subcarriers with 1, 2 and 3 walkers, reported per
// sample. Each walker count runs at the default synthesis width (one
// worker per CPU: the wall time a capture takes) and at workers=1 (the
// kernel's single-core cost).
func BenchmarkCapture(b *testing.B) {
	const n = 1250
	for walkers := 1; walkers <= 3; walkers++ {
		for _, workers := range []int{0, 1} {
			name := fmt.Sprintf("walkers=%d", walkers)
			if workers == 1 {
				name += "/workers=1"
			}
			b.Run(name, func(b *testing.B) {
				sc := NewScene(SceneConfig{Seed: 5})
				for i := 0; i < walkers; i++ {
					if _, err := sc.AddWalker(n * DefaultCalibration().SampleT); err != nil {
						b.Fatal(err)
					}
				}
				d, err := NewDevice(sc, DefaultCalibration(), DeviceConfig{Seed: 5, SynthWorkers: workers})
				if err != nil {
					b.Fatal(err)
				}
				res, err := nulling.Run(d, nulling.DefaultConfig())
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := d.Capture(res.P, d.Cal.BoostDB, 0, n); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*n), "us/sample")
			})
		}
	}
}
