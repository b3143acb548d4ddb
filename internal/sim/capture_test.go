package sim

import (
	"fmt"
	"math"
	"math/cmplx"
	"testing"

	"wivi/internal/geom"
	"wivi/internal/nulling"
	"wivi/internal/rf"
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
			p := rf.Path{Length: d1 + d2, Amp: amp0 * lambda / d.lambda0}
			out[k] += p.Channel(lambda)
		}
	}
	wallAmp := d.scene.TwoWayWallAmp()
	east, west := d.scene.Room.Max.X, d.scene.Room.Min.X
	for _, h := range d.scene.Humans {
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
// against the direct per-subcarrier sum on 3 seeds x 3 walkers x 1,000
// samples, for both transmit antennas. The kernel's phasor recursion
// and exp-form antenna gains reorder the rounding, so the bound is
// relative: 1e-10 of the sample's largest channel magnitude.
func TestMovingChannelsMatchDirectSum(t *testing.T) {
	const (
		samples = 1000
		bound   = 1e-10
	)
	worst := 0.0
	for _, seed := range []int64{3, 41, 977} {
		sc := NewScene(SceneConfig{Seed: seed})
		for i := 0; i < 3; i++ {
			if _, err := sc.AddWalker(samples * DefaultCalibration().SampleT); err != nil {
				t.Fatal(err)
			}
		}
		d, err := NewDevice(sc, DefaultCalibration(), DeviceConfig{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		h1 := make([]complex128, d.NumSubcarriers())
		h2 := make([]complex128, d.NumSubcarriers())
		for i := 0; i < samples; i++ {
			ts := float64(i) * d.Cal.SampleT
			d.movingChannelsInto(h1, h2, ts)
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
						t.Fatalf("seed %d sample %d antenna %d subcarrier %d: %v, direct sum %v (%.2g of the largest channel)",
							seed, i, ant+1, k, got[k], want[k], rel)
					}
				}
			}
		}
	}
	t.Logf("worst deviation %.2g of the sample's largest channel magnitude", worst)
}

// BenchmarkCapture times tracking-capture synthesis: 1,250 nulled
// samples (4 s) on 16 subcarriers with 1, 2 and 3 walkers, reported per
// sample.
func BenchmarkCapture(b *testing.B) {
	const n = 1250
	for walkers := 1; walkers <= 3; walkers++ {
		b.Run(fmt.Sprintf("walkers=%d", walkers), func(b *testing.B) {
			sc := NewScene(SceneConfig{Seed: 5})
			for i := 0; i < walkers; i++ {
				if _, err := sc.AddWalker(n * DefaultCalibration().SampleT); err != nil {
					b.Fatal(err)
				}
			}
			d, err := NewDevice(sc, DefaultCalibration(), DeviceConfig{Seed: 5})
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
