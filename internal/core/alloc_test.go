package core

import (
	"context"
	"testing"
	"time"

	"wivi/internal/sim"
)

// TestPacedStreamSteadyStateAllocs is the allocation regression gate on
// the paced stream path — the always-on monitoring shape. A full paced
// tracked stream (fake clock, so it runs at CPU speed while exercising
// the real pacing code) is measured with testing.AllocsPerRun and gated
// per emitted frame. The bound covers the irreducible per-frame output
// (the Frame's Power and Bartlett slices) plus the per-stream fixed cost
// (streamer, channels, trace buffers) amortized over the frames; before
// the incremental kernel the same run measured ~340 allocs per frame in
// the kernel alone.
func TestPacedStreamSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting run")
	}
	sc := sim.NewScene(sim.SceneConfig{Seed: 11})
	if _, err := sc.AddWalker(4); err != nil {
		t.Fatal(err)
	}
	fe, err := sim.NewDevice(sc, sim.DefaultCalibration(), sim.DeviceConfig{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(fe)
	cfg.Pace = NewFakeClock(time.Unix(1000, 0), true)
	dev, err := New(fe, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dev.Null(); err != nil {
		t.Fatal(err) // null once so runs measure tracking, not calibration
	}

	const duration = 2.0
	frames := 0
	run := func() {
		st, err := dev.ObserveStream(context.Background(), TrackRequest{Duration: duration})
		if err != nil {
			t.Fatal(err)
		}
		for {
			if _, ok := st.Next(); !ok {
				break
			}
			frames++
		}
		if _, _, err := st.Result(); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the processor's scratch pools
	frames = 0
	const runs = 3
	avg := testing.AllocsPerRun(runs, run)
	perFrame := avg / (float64(frames) / (runs + 1)) // AllocsPerRun adds a warmup run
	t.Logf("paced stream: %.0f allocs/run, %.1f allocs/frame", avg, perFrame)
	// Measured ~7 allocs/frame after the incremental kernel (the Frame's
	// two output slices plus amortized stream fixed cost); the
	// pre-incremental chain measured ~340 in the kernel alone. Gate with
	// headroom for scheduler/GC noise.
	if perFrame > 40 {
		t.Fatalf("paced stream allocates %.1f per frame, want <= 40", perFrame)
	}
}
