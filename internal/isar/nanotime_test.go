package isar

import (
	"context"
	"testing"
	"time"
)

// TestScriptedKernelClockExactStageAccounting pins the kernelNow seam: with
// a scripted clock that advances exactly 1ms per reading, the stage timers
// become pure call counters, so the kernelStats nanosecond totals are
// exactly derivable from the frame count. Every stage timer brackets its
// stage with two readings and no stage nests inside another, so on a
// serial (workers=1) MUSIC run over N frames:
//
//	CovNs  = N  ms  (one covariance bracket per frame)
//	EigNs  = N  ms  (one bracket around eigenvalues + leading vectors)
//	SpecNs = 2N ms  (Bartlett bracket + MUSIC bracket per frame)
//
// Any drift — a timer reading added, dropped, or nested — changes these
// exact equalities.
func TestScriptedKernelClockExactStageAccounting(t *testing.T) {
	old := kernelNow
	defer func() { kernelNow = old }()
	base := time.Unix(0, 0)
	ticks := 0
	kernelNow = func() time.Time {
		ticks++
		return base.Add(time.Duration(ticks) * time.Millisecond)
	}

	cfg := goldenConfig()
	p, err := NewProcessor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := goldenChannel(cfg, cfg.Window+80*cfg.Hop)
	specs := p.FrameSpecs(len(h))

	ResetKernelStats()
	if _, err := p.computeFrames(context.Background(), h, specs, true, 1); err != nil {
		t.Fatal(err)
	}
	st := ReadKernelStats()

	n := int64(len(specs))
	ms := time.Millisecond.Nanoseconds()
	if st.Frames != n {
		t.Fatalf("Frames = %d, want %d", st.Frames, n)
	}
	if st.CovNs != n*ms {
		t.Errorf("CovNs = %d, want exactly %d (N frames x 1ms)", st.CovNs, n*ms)
	}
	if st.EigNs != n*ms {
		t.Errorf("EigNs = %d, want exactly %d (N frames x 1ms)", st.EigNs, n*ms)
	}
	if st.SpecNs != 2*n*ms {
		t.Errorf("SpecNs = %d, want exactly %d (2N brackets x 1ms)", st.SpecNs, 2*n*ms)
	}
}

// TestKernelStatsAccounting: on the real clock, one batch run counts
// every frame of the image once and advances every stage timer — the
// numbers wivi-bench surfaces as stage_{cov,eig,spectrum}_us.
func TestKernelStatsAccounting(t *testing.T) {
	cfg := goldenConfig()
	p, err := NewProcessor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := goldenChannel(cfg, cfg.Window+48*cfg.Hop)
	before := ReadKernelStats()
	img, err := p.ComputeImage(h)
	if err != nil {
		t.Fatal(err)
	}
	after := ReadKernelStats()
	if frames := after.Frames - before.Frames; frames != int64(len(img.Times)) {
		t.Fatalf("stats counted %d frames, image has %d", frames, len(img.Times))
	}
	if after.CovNs <= before.CovNs || after.EigNs <= before.EigNs || after.SpecNs <= before.SpecNs {
		t.Fatalf("per-stage timers did not advance: %+v -> %+v", before, after)
	}
}
