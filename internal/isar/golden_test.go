package isar

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"math"
	"math/cmplx"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden ISAR fixture")

// goldenConfig is a reduced deterministic configuration: small enough
// that the fixture stays reviewable, big enough to exercise smoothing,
// eigendecomposition and the MUSIC spectrum.
func goldenConfig() Config {
	cfg := DefaultConfig()
	cfg.Window = 64
	cfg.Subarray = 24
	cfg.Hop = 16
	cfg.ThetaStepDeg = 2
	cfg.MaxSources = 4
	return cfg
}

// goldenChannel synthesizes a fully deterministic scene: a DC residual
// plus two movers at +30 and -45 degrees with a slow amplitude ripple.
// No RNG is involved, so the channel — and therefore the image — is
// reproducible bit-for-bit on every run.
func goldenChannel(cfg Config, n int) []complex128 {
	phase := func(thetaDeg float64) float64 {
		return 2 * math.Pi * cfg.Delta() * math.Sin(thetaDeg*math.Pi/180) / cfg.Lambda
	}
	p1, p2 := phase(30), phase(-45)
	h := make([]complex128, n)
	for i := 0; i < n; i++ {
		fi := float64(i)
		ripple := 1 + 0.1*math.Sin(2*math.Pi*fi/97)
		h[i] = complex(2.0, 0) + // static residual (the DC line)
			complex(ripple, 0)*cmplx.Rect(1, p1*fi) +
			complex(0.6, 0)*cmplx.Rect(1, p2*fi)
	}
	return h
}

// goldenImage is the serialized fixture shape.
type goldenImage struct {
	ThetaDeg    []float64   `json:"theta_deg"`
	Times       []float64   `json:"times"`
	Power       [][]float64 `json:"power"`
	Bartlett    [][]float64 `json:"bartlett"`
	MotionPower []float64   `json:"motion_power"`
	SignalDim   []int       `json:"signal_dim"`
}

const goldenPath = "testdata/golden_image.json"

// TestGoldenImage locks the physics of the ISAR chain: the angle-time
// image of a deterministic two-mover scene must match the checked-in
// fixture within a tight relative tolerance, so pipeline refactors
// cannot silently change the output. Regenerate with
// `go test ./internal/isar -run TestGoldenImage -update` after an
// intentional physics change.
func TestGoldenImage(t *testing.T) {
	cfg := goldenConfig()
	p, err := NewProcessor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	img, err := p.ComputeImage(goldenChannel(cfg, 256))
	if err != nil {
		t.Fatal(err)
	}
	got := goldenImage{
		ThetaDeg:    img.ThetaDeg,
		Times:       img.Times,
		Power:       img.Power,
		Bartlett:    img.Bartlett,
		MotionPower: img.MotionPower,
		SignalDim:   img.SignalDim,
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d frames)", goldenPath, img.NumFrames())
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing fixture (run with -update to create): %v", err)
	}
	var want goldenImage
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.SignalDim, want.SignalDim) {
		t.Errorf("SignalDim = %v, want %v", got.SignalDim, want.SignalDim)
	}
	compareVec(t, "ThetaDeg", got.ThetaDeg, want.ThetaDeg)
	compareVec(t, "Times", got.Times, want.Times)
	compareVec(t, "MotionPower", got.MotionPower, want.MotionPower)
	compareMat(t, "Power", got.Power, want.Power)
	compareMat(t, "Bartlett", got.Bartlett, want.Bartlett)
}

// relTol absorbs cross-platform floating-point differences in the
// iterative eigensolver; a physics change moves values by orders of
// magnitude more than this.
const relTol = 1e-6

func compareVec(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s length %d, want %d", name, len(got), len(want))
	}
	for i := range got {
		if diff := math.Abs(got[i] - want[i]); diff > relTol*math.Max(1, math.Abs(want[i])) {
			t.Fatalf("%s[%d] = %v, want %v (diff %g)", name, i, got[i], want[i], diff)
		}
	}
}

func compareMat(t *testing.T, name string, got, want [][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s frames %d, want %d", name, len(got), len(want))
	}
	for f := range got {
		if len(got[f]) != len(want[f]) {
			t.Fatalf("%s frame %d length %d, want %d", name, f, len(got[f]), len(want[f]))
		}
		for i := range got[f] {
			if diff := math.Abs(got[f][i] - want[f][i]); diff > relTol*math.Max(1, math.Abs(want[f][i])) {
				t.Fatalf("%s[%d][%d] = %v, want %v (diff %g)", name, f, i, got[f][i], want[f][i], diff)
			}
		}
	}
}

// TestComputeImageCtxIdentical asserts the fan-out path is byte-identical
// to the sequential chain for several worker counts — the determinism
// guarantee the concurrent engine builds on.
func TestComputeImageCtxIdentical(t *testing.T) {
	cfg := goldenConfig()
	p, err := NewProcessor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := goldenChannel(cfg, 512)
	want, err := p.ComputeImage(h)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8, 64} {
		got, err := p.ComputeImageCtx(context.Background(), h, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: image differs from sequential", workers)
		}
	}
}

func TestComputeImageCtxCanceled(t *testing.T) {
	cfg := goldenConfig()
	p, err := NewProcessor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		if _, err := p.ComputeImageCtx(ctx, goldenChannel(cfg, 256), workers); err != context.Canceled {
			t.Fatalf("workers=%d: got %v, want context.Canceled", workers, err)
		}
	}
}

// cancelAfter is a context whose Err reports context.Canceled from its
// (n+1)th call on: a cancellation that lands at a fixed claim partway
// through an image.
type cancelAfter struct {
	context.Context
	mu       sync.Mutex
	calls, n int
}

func (c *cancelAfter) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls++
	if c.calls > c.n {
		return context.Canceled
	}
	return nil
}

// TestComputeImageCtxCanceledMidway: a batch image is one Append, so the
// check at each claim is what stops it partway. With Err failing from
// its 4th call on, at most 3 of the capture's 29 frames may be claimed
// or emitted, and the image fails with context.Canceled.
func TestComputeImageCtxCanceledMidway(t *testing.T) {
	cfg := goldenConfig()
	p, err := NewProcessor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := goldenChannel(cfg, 512)
	for _, workers := range []int{1, 4} {
		emitted := 0
		s := p.NewStreamer(StreamConfig{Workers: workers}, func(Frame) { emitted++ })
		ctx := &cancelAfter{Context: context.Background(), n: 3}
		if err := s.Append(ctx, h); !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: Append = %v, want context.Canceled", workers, err)
		}
		if err := s.Close(); !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: Close = %v, want context.Canceled", workers, err)
		}
		if s.next > 3 || emitted > 3 {
			t.Fatalf("workers=%d: %d frames claimed and %d emitted, want at most 3", workers, s.next, emitted)
		}
		ctx = &cancelAfter{Context: context.Background(), n: 3}
		if _, err := p.ComputeImageCtx(ctx, h, workers); !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: ComputeImageCtx = %v, want context.Canceled", workers, err)
		}
	}
}

func TestFrameSpecs(t *testing.T) {
	cfg := goldenConfig()
	p, err := NewProcessor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if specs := p.FrameSpecs(cfg.Window - 1); len(specs) != 0 {
		t.Fatalf("short capture produced %d frames", len(specs))
	}
	specs := p.FrameSpecs(256)
	wantFrames := (256-cfg.Window)/cfg.Hop + 1
	if len(specs) != wantFrames {
		t.Fatalf("%d frames, want %d", len(specs), wantFrames)
	}
	for i, s := range specs {
		if s.Index != i || s.Start != i*cfg.Hop {
			t.Fatalf("spec %d = %+v", i, s)
		}
	}
	// Out-of-range specs are rejected.
	h := goldenChannel(cfg, 256)
	if _, err := p.ProcessFrame(h, FrameSpec{Index: 0, Start: 256 - cfg.Window + 1}); err == nil {
		t.Fatal("out-of-range frame accepted")
	}
	if _, err := p.ProcessFrame(h, FrameSpec{Index: 0, Start: -1}); err == nil {
		t.Fatal("negative start accepted")
	}
}
