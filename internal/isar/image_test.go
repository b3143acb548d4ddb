package isar

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"
)

// addVec element-wise adds b into a (lengths must match).
func addVec(a, b []complex128) {
	for i := range a {
		a[i] += b[i]
	}
}

func TestComputeImageShape(t *testing.T) {
	cfg := testConfig()
	p, _ := NewProcessor(cfg)
	n := cfg.Window + 3*cfg.Hop
	h := synthTarget(n, cfg, 0.6, 1, complex(2, 1), 1e-4, 7)
	img, err := p.ComputeImage(h)
	if err != nil {
		t.Fatal(err)
	}
	wantFrames := (n-cfg.Window)/cfg.Hop + 1
	if img.NumFrames() != wantFrames {
		t.Fatalf("frames = %d, want %d", img.NumFrames(), wantFrames)
	}
	if len(img.ThetaDeg) != len(p.Thetas()) {
		t.Fatal("theta grid mismatch")
	}
	for f := 0; f < img.NumFrames(); f++ {
		if len(img.Power[f]) != len(img.ThetaDeg) {
			t.Fatalf("frame %d spectrum length mismatch", f)
		}
		for _, v := range img.Power[f] {
			if v < 1-1e-9 || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("frame %d has invalid pseudospectrum value %v", f, v)
			}
		}
		if img.SignalDim[f] < 1 {
			t.Fatalf("frame %d signal dim %d", f, img.SignalDim[f])
		}
	}
	// Times increase by Hop * SampleT.
	for f := 1; f < img.NumFrames(); f++ {
		dt := img.Times[f] - img.Times[f-1]
		if math.Abs(dt-float64(cfg.Hop)*cfg.SampleT) > 1e-9 {
			t.Fatalf("frame spacing %v", dt)
		}
	}
}

func TestComputeImageTooShort(t *testing.T) {
	cfg := testConfig()
	p, _ := NewProcessor(cfg)
	if _, err := p.ComputeImage(make([]complex128, cfg.Window-1)); err == nil {
		t.Fatal("short input accepted")
	}
}

func TestDCAppearsAtZeroAngle(t *testing.T) {
	// A pure static residual (DC) must produce the zero line of
	// Fig. 5-2(b).
	cfg := testConfig()
	p, _ := NewProcessor(cfg)
	h := synthTarget(cfg.Window+cfg.Hop, cfg, 0, 0, complex(1, 0.5), 1e-6, 8)
	img, err := p.ComputeImage(h)
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; f < img.NumFrames(); f++ {
		spec := img.Power[f]
		best := 0
		for i, v := range spec {
			if v > spec[best] {
				best = i
			}
		}
		if th := img.ThetaDeg[best]; math.Abs(th) > 3 {
			t.Fatalf("DC peak at %v deg, want 0", th)
		}
	}
}

func TestMovingTargetPlusDC(t *testing.T) {
	// One moving human + DC: the image must show both the zero line and
	// the target line (Fig. 5-2).
	cfg := testConfig()
	p, _ := NewProcessor(cfg)
	n := cfg.Window + 2*cfg.Hop
	h := synthTarget(n, cfg, 0.5, 1, 0, 1e-5, 9)
	dc := synthTarget(n, cfg, 0, 0, complex(1.5, -0.5), 0, 10)
	addVec(h, dc)
	img, err := p.ComputeImage(h)
	if err != nil {
		t.Fatal(err)
	}
	f := 0
	angles := img.DominantAngles(f, 2, 5)
	if len(angles) == 0 {
		t.Fatal("no non-DC angles found")
	}
	found := false
	for _, a := range angles {
		if math.Abs(a-30) < 6 {
			found = true
		}
	}
	if !found {
		t.Fatalf("target at +30 deg not found; got %v", angles)
	}
	if img.SignalDim[f] < 2 {
		t.Fatalf("signal dim %d, want >= 2 (DC + target)", img.SignalDim[f])
	}
}

func TestTwoTargetsResolved(t *testing.T) {
	// Two humans at well-separated angles (Fig. 5-3): smoothed MUSIC must
	// resolve both despite their correlated waveforms.
	cfg := testConfig()
	cfg.Window = 96
	cfg.Subarray = 32
	p, err := NewProcessor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := cfg.Window + cfg.Hop
	h := synthTarget(n, cfg, 0.85, 1, 0, 1e-5, 11)  // ~ +58 deg
	h2 := synthTarget(n, cfg, -0.45, 0.8, 0, 0, 12) // ~ -27 deg
	addVec(h, h2)
	img, err := p.ComputeImage(h)
	if err != nil {
		t.Fatal(err)
	}
	angles := img.DominantAngles(0, 3, 5)
	var gotPos, gotNeg bool
	for _, a := range angles {
		if a > 40 && a < 80 {
			gotPos = true
		}
		if a < -15 && a > -45 {
			gotNeg = true
		}
	}
	if !gotPos || !gotNeg {
		t.Fatalf("two targets not resolved: angles %v", angles)
	}
}

func TestSmoothingDecorrelatesCoherentSources(t *testing.T) {
	// Ablation A3: with two perfectly coherent sources, plain MUSIC
	// (subarray = window, single snapshot) fails while spatial smoothing
	// succeeds. Compare the spectra's ability to show two distinct peaks.
	cfg := testConfig()
	cfg.Window = 96
	cfg.Subarray = 32
	p, _ := NewProcessor(cfg)
	n := cfg.Window
	h := synthTarget(n, cfg, 0.8, 1, 0, 1e-6, 13)
	h2 := synthTarget(n, cfg, -0.5, 1, 0, 0, 14)
	addVec(h, h2)

	// The smoothed spectrum must resolve both angles.
	fr, err := p.ProcessFrame(h, FrameSpec{})
	if err != nil {
		t.Fatal(err)
	}
	angles := p.AssembleImage([]Frame{fr}).DominantAngles(0, 3, 5)
	var pos, neg bool
	for _, a := range angles {
		if a > 30 {
			pos = true
		}
		if a < -15 {
			neg = true
		}
	}
	if !pos || !neg {
		t.Fatalf("smoothed MUSIC failed on coherent sources: %v", angles)
	}
}

func TestPowerDBNonNegative(t *testing.T) {
	cfg := testConfig()
	p, _ := NewProcessor(cfg)
	h := synthTarget(cfg.Window, cfg, 0.4, 1, 0, 1e-4, 15)
	img, err := p.ComputeImage(h)
	if err != nil {
		t.Fatal(err)
	}
	db := img.PowerDB(0)
	for _, v := range db {
		if v < 0 {
			t.Fatalf("PowerDB produced negative value %v", v)
		}
	}
}

func TestMotionPowerSeparatesMovingFromStatic(t *testing.T) {
	cfg := testConfig()
	p, _ := NewProcessor(cfg)
	n := cfg.Window + cfg.Hop
	static := synthTarget(n, cfg, 0, 0, complex(3, 1), 1e-8, 16)
	moving := synthTarget(n, cfg, 0.7, 0.5, complex(3, 1), 1e-8, 17)
	imStatic, err := p.ComputeImage(static)
	if err != nil {
		t.Fatal(err)
	}
	imMoving, err := p.ComputeImage(moving)
	if err != nil {
		t.Fatal(err)
	}
	if imMoving.MotionPower[0] < 100*imStatic.MotionPower[0] {
		t.Fatalf("motion power ratio too small: %v vs %v",
			imMoving.MotionPower[0], imStatic.MotionPower[0])
	}
}

func TestImageDeterminism(t *testing.T) {
	cfg := testConfig()
	p, _ := NewProcessor(cfg)
	h := synthTarget(cfg.Window+2*cfg.Hop, cfg, 0.5, 1, complex(1, 0), 1e-4, 18)
	im1, err := p.ComputeImage(h)
	if err != nil {
		t.Fatal(err)
	}
	im2, err := p.ComputeImage(h)
	if err != nil {
		t.Fatal(err)
	}
	for f := range im1.Power {
		for i := range im1.Power[f] {
			if im1.Power[f][i] != im2.Power[f][i] {
				t.Fatal("image computation not deterministic")
			}
		}
	}
}

// BenchmarkComputeImage times a batch image through the frame scheduler
// as the benchmark's workloads drive it, on a seeded, nulled 2-walker sim
// capture: one frame (serve_short's 0.32 s tracks) and the whole 4 s
// capture, 47 frames (track_batch's tracks), each inline (workers=1) and
// fanned out over GOMAXPROCS. Run with -count >= 10 and compare medians.
func BenchmarkComputeImage(b *testing.B) {
	h, cfg := simChannel(b)
	p, err := NewProcessor(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{cfg.Window, len(h)} {
		for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
			name := fmt.Sprintf("frames=%d/workers=%d", (n-cfg.Window)/cfg.Hop+1, workers)
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					if _, err := p.ComputeImageCtx(context.Background(), h[:n], workers); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
