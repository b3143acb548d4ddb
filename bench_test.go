package wivi

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation (plus the DESIGN.md ablations), each running the
// corresponding experiment from internal/eval and failing if the shape
// criterion breaks. Quick-scale options keep `go test -bench=.`
// tractable; `make eval` runs the same experiments at full paper scale
// (DESIGN §4 lists the catalog).

import (
	"context"
	"fmt"
	"testing"
	"time"

	"wivi/internal/eval"
)

// benchOpts is the reduced scale used inside benchmarks.
var benchOpts = eval.Options{Quick: true, Seed: 1}

func runExperiment(b *testing.B, f func(eval.Options) *eval.Report) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r := f(benchOpts)
		if r.Err != nil {
			b.Fatalf("%s: %v", r.ID, r.Err)
		}
		if !r.Pass {
			b.Fatalf("%s shape mismatch:\n%s", r.ID, r)
		}
	}
}

// --- Concurrent tracking engine: sequential vs parallel throughput ---
//
// Both benchmarks track the same multi-scene batch; the parallel variant
// multiplexes it over the engine at 8 workers with per-frame fan-out,
// while the baseline's devices are built with FrameWorkers=1 so it is
// genuinely sequential end to end. On a multi-core machine the parallel
// path sustains >= 2x the sequential throughput (the scenes are
// independent devices, so scaling is near-linear up to the core count);
// on a single core the two match, since correctness — output
// byte-identity with the sequential path — never depends on the worker
// count (see TestTrackManyMatchesSequential).

const (
	benchBatch    = 8
	benchWorkers  = 8
	benchTrackDur = 1.0
)

// buildBenchBatch creates the scene batch and pre-nulls every device so
// the timed region measures tracking (capture + ISAR), not calibration.
// frameWorkers 1 builds the sequential baseline; 0 keeps the default
// per-CPU frame fan-out.
func buildBenchBatch(b *testing.B, frameWorkers int) []*Device {
	b.Helper()
	devices := make([]*Device, benchBatch)
	for i := range devices {
		seed := int64(1000 + i)
		sc := NewScene(SceneOptions{Seed: seed})
		if err := sc.AddWalker(2); err != nil {
			b.Fatal(err)
		}
		dev, err := NewDevice(sc, DeviceOptions{FrameWorkers: frameWorkers})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := dev.Null(); err != nil {
			b.Fatal(err)
		}
		devices[i] = dev
	}
	return devices
}

// BenchmarkTrackSequential is the baseline: the batch tracked one scene
// at a time with no parallelism anywhere.
func BenchmarkTrackSequential(b *testing.B) {
	devices := buildBenchBatch(b, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, d := range devices {
			if _, err := d.Track(context.Background(), benchTrackDur); err != nil {
				b.Fatalf("scene %d: %v", j, err)
			}
		}
	}
	b.ReportMetric(float64(benchBatch*b.N)/b.Elapsed().Seconds(), "scenes/s")
}

// BenchmarkTrackParallel tracks the same batch through the concurrent
// engine at 8 workers.
func BenchmarkTrackParallel(b *testing.B) {
	devices := buildBenchBatch(b, 0)
	eng := NewEngine(EngineOptions{Workers: benchWorkers, QueueDepth: benchBatch})
	defer eng.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, errs := trackAll(context.Background(), eng, devices, benchTrackDur)
		for j, err := range errs {
			if err != nil {
				b.Fatalf("scene %d: %v", j, err)
			}
		}
	}
	b.ReportMetric(float64(benchBatch*b.N)/b.Elapsed().Seconds(), "scenes/s")
}

// BenchmarkTrackStream streams one scene end to end (capture running
// while frames emit) and reports frames/s — the incremental chain's
// throughput figure.
func BenchmarkTrackStream(b *testing.B) {
	devices := buildBenchBatch(b, 0)
	b.ResetTimer()
	frames := 0
	for i := 0; i < b.N; i++ {
		ts, err := devices[i%len(devices)].TrackStream(context.Background(), benchTrackDur)
		if err != nil {
			b.Fatal(err)
		}
		for range ts.Frames() {
			frames++
		}
		if _, err := ts.Result(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(frames)/b.Elapsed().Seconds(), "frames/s")
}

// BenchmarkTrackPaced streams one scene on a paced device: samples
// arrive at the radio's real cadence, so each iteration is wall-clock
// bound at benchPacedDur seconds and the interesting metric is the
// per-frame lag, not the elapsed time.
func BenchmarkTrackPaced(b *testing.B) {
	const benchPacedDur = 0.4 // paced iterations cost real wall clock
	sc := NewScene(SceneOptions{Seed: 1000})
	if err := sc.AddWalker(benchPacedDur + 1); err != nil {
		b.Fatal(err)
	}
	dev, err := NewDevice(sc, DeviceOptions{Paced: true})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := dev.Null(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var lagSum time.Duration
	frames := 0
	for i := 0; i < b.N; i++ {
		ts, err := dev.TrackStream(context.Background(), benchPacedDur)
		if err != nil {
			b.Fatal(err)
		}
		for fr := range ts.Frames() {
			lagSum += fr.Lag
			frames++
		}
		if _, err := ts.Result(); err != nil {
			b.Fatal(err)
		}
	}
	if frames > 0 {
		b.ReportMetric(float64(lagSum)/float64(frames)/1e6, "lag-ms/frame")
	}
}

// BenchmarkBuildDevice times one device build as a tenant pool pays it
// on a tenant's first request and after each idle eviction: a
// hollow-wall scene with 1, 2 or 3 walkers moving for one 0.32 s window,
// the device, and its nulling. It is the in-process yardstick of the
// benchmark's pool.device_build_ms layer, which builds the same way.
// The walkers=N+track forms then track one 0.32 s capture, as the pool's
// first request on a fresh device does, so the body sway that the
// capture draws on first read counts with the build. Iterations cycle
// over 16 scene seeds.
func BenchmarkBuildDevice(b *testing.B) {
	for walkers := 1; walkers <= 3; walkers++ {
		for _, track := range []bool{false, true} {
			name := fmt.Sprintf("walkers=%d", walkers)
			if track {
				name += "+track"
			}
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sc := NewScene(SceneOptions{Seed: int64(1 + i%16), Wall: HollowWall})
					for k := 0; k < walkers; k++ {
						if err := sc.AddWalker(0.32); err != nil {
							b.Fatal(err)
						}
					}
					dev, err := NewDevice(sc, DeviceOptions{})
					if err != nil {
						b.Fatal(err)
					}
					if _, err := dev.Null(); err != nil {
						b.Fatal(err)
					}
					if track {
						if _, err := dev.Track(context.Background(), 0.32); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		}
	}
}

// BenchmarkTable41Attenuation regenerates Table 4.1 (one-way attenuation
// per building material).
func BenchmarkTable41Attenuation(b *testing.B) { runExperiment(b, eval.Table41) }

// BenchmarkLemma411Convergence verifies the iterative-nulling
// convergence lemma across error magnitudes.
func BenchmarkLemma411Convergence(b *testing.B) { runExperiment(b, eval.Lemma411) }

// BenchmarkFig52SingleHuman regenerates Fig. 5-2 (single-person track).
func BenchmarkFig52SingleHuman(b *testing.B) { runExperiment(b, eval.Fig52) }

// BenchmarkFig53TwoHumans regenerates Fig. 5-3 (two humans, two lines).
func BenchmarkFig53TwoHumans(b *testing.B) { runExperiment(b, eval.Fig53) }

// BenchmarkFig61GestureImage regenerates Fig. 6-1/6-2 (gestures as
// triangles; slant shrinks the angle).
func BenchmarkFig61GestureImage(b *testing.B) { runExperiment(b, eval.Fig61) }

// BenchmarkFig63GestureDecoding regenerates Fig. 6-3 (matched filter +
// peak detector decode the Fig. 6-1 message).
func BenchmarkFig63GestureDecoding(b *testing.B) { runExperiment(b, eval.Fig63) }

// BenchmarkFig72Tracking regenerates Fig. 7-2 (1/2/3-human traces).
func BenchmarkFig72Tracking(b *testing.B) { runExperiment(b, eval.Fig72) }

// BenchmarkFig73SpatialVarianceCDF regenerates Fig. 7-3 (spatial
// variance CDFs per human count).
func BenchmarkFig73SpatialVarianceCDF(b *testing.B) { runExperiment(b, eval.Fig73) }

// BenchmarkTable71Counting regenerates Table 7.1 (counting confusion
// matrix, cross-validated across rooms). At benchmark scale the shape
// criterion is relaxed inside eval.Table71's quick mode.
func BenchmarkTable71Counting(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := eval.Table71(benchOpts)
		if r.Err != nil {
			b.Fatalf("%s: %v", r.ID, r.Err)
		}
	}
}

// BenchmarkFig74GestureVsDistance regenerates Fig. 7-4 (gesture accuracy
// vs distance with the 3 dB gate cutoff).
func BenchmarkFig74GestureVsDistance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := eval.Fig74(benchOpts)
		if r.Err != nil {
			b.Fatalf("%s: %v", r.ID, r.Err)
		}
	}
}

// BenchmarkFig75GestureSNRCDF regenerates Fig. 7-5 (SNR CDFs per bit).
func BenchmarkFig75GestureSNRCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := eval.Fig75(benchOpts)
		if r.Err != nil {
			b.Fatalf("%s: %v", r.ID, r.Err)
		}
	}
}

// BenchmarkFig76Materials regenerates Fig. 7-6 (accuracy and SNR per
// building material).
func BenchmarkFig76Materials(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := eval.Fig76(benchOpts)
		if r.Err != nil {
			b.Fatalf("%s: %v", r.ID, r.Err)
		}
	}
}

// BenchmarkFig77NullingCDF regenerates Fig. 7-7 (achieved-nulling CDF).
func BenchmarkFig77NullingCDF(b *testing.B) { runExperiment(b, eval.Fig77) }

// BenchmarkAblationNulling runs ablation A1 (Doppler-only baseline vs
// nulling behind walls).
func BenchmarkAblationNulling(b *testing.B) { runExperiment(b, eval.AblationNulling) }

// BenchmarkAblationUWBBandwidth runs ablation A2 (UWB time-gating
// bandwidth crossover).
func BenchmarkAblationUWBBandwidth(b *testing.B) { runExperiment(b, eval.AblationUWBBandwidth) }

// BenchmarkAblationSmoothing runs ablation A3 (smoothed MUSIC vs plain
// beamforming on coherent movers).
func BenchmarkAblationSmoothing(b *testing.B) { runExperiment(b, eval.AblationSmoothing) }

// BenchmarkAblationISARAperture runs ablation A4 (angular resolution vs
// movement length; ~4 wavelengths for a narrow beam).
func BenchmarkAblationISARAperture(b *testing.B) { runExperiment(b, eval.AblationISARAperture) }
