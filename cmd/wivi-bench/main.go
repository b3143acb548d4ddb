// Command wivi-bench regenerates every table and figure of the paper's
// evaluation (§7) plus the DESIGN.md ablations, printing each experiment's
// paper claim, the measured rows/series, and a shape verdict. Its output
// is the source for EXPERIMENTS.md.
//
//	wivi-bench                      # full paper-scale run (minutes)
//	wivi-bench -quick               # reduced trial counts (tens of seconds)
//	wivi-bench -run F7.4            # a single experiment by ID
//	wivi-bench -workers 8           # experiments fan out over 8 workers
//	wivi-bench -batch 32 -workers 8 # engine throughput mode (see below)
//	wivi-bench -stream -batch 4     # streaming latency mode (see below)
//	wivi-bench -mixed -batch 2      # mixed-workload mode (see below)
//	wivi-bench -paced -batch 4      # real-time paced mode (see below)
//	wivi-bench -serve -batch 4      # HTTP load-generator mode (see below)
//	wivi-bench -stream -json        # machine-readable report on stdout
//
// Throughput mode (-batch N) exercises the concurrent tracking engine
// instead of the evaluation suite: it builds N independent one-walker
// scenes, tracks them sequentially and then through an explicit
// wivi.NewEngine of -workers workers, verifies the two result sets
// render identically, and reports scenes/second plus the parallel
// speedup.
//
// Streaming mode (-stream, with -batch N scenes) exercises the
// incremental tracking chain: each scene is tracked once through batch
// Track and once through TrackStream, the streamed result is verified
// byte-identical to batch, and the mode reports time-to-first-frame
// (which must be a small fraction of the full capture), inter-frame
// latency, frame-lag percentiles, and throughput.
//
// Mixed mode (-mixed, with -batch N requests per kind) exercises the
// Engine service API under heterogeneous traffic: N track, N gesture
// and N streaming requests run concurrently against one explicit
// wivi.NewEngine pool, reporting per-mode throughput, queue wait and
// latency plus the engine's Stats() counters, with the batch/stream
// identity check and exact gesture decode retained under mixing.
//
// Paced mode (-paced, with -batch N streams) restores the constraint the
// paper's hardware imposes: N concurrent streams on paced devices whose
// samples arrive at the radio's SampleT cadence. It reports the
// real-time factor (unpaced compute margin), time-to-first-frame and
// per-frame lag percentiles, enforces the wall-clock SLOs (real-time
// factor >= 1.0, p95 frame lag < one analysis window), keeps the
// batch/stream identity check, and exercises typed deadline rejection.
//
// Serve mode (-serve, with -batch N) is the wivi-serve load generator:
// it drives the HTTP tier — an external daemon named by -addr, or an
// in-process server it starts itself — with N batch plus N streaming
// requests at -workers client concurrency, re-proves the wire-identity
// invariant by streaming one deterministic capture twice and comparing
// spectra bitwise, and reports requests/s, requests/s within the SLO
// (one capture duration of wall clock) and wire latency percentiles.
//
// With -tenants N (N >= 2), serve mode instead drives an in-process
// multi-tenant pool (internal/pool behind internal/serve): tenant t0
// gets a deliberately tiny budget and paced devices, is saturated with
// concurrent streams and probed until it returns typed 429
// "tenant_saturated" rejections, while every other tenant's -batch
// requests run concurrently and must keep meeting the SLO — the
// noisy-neighbor fault-injection suite. The report carries per-tenant
// requests_at_slo_per_s and a tenant_isolation verdict.
//
// Every engine mode accepts -json: the mode's figures are emitted as a
// single JSON object on stdout (schema "wivi-bench/2", see report.go)
// while the narration moves to stderr, so runs are machine-comparable
// and CI accumulates them as BENCH_*.json artifacts.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"strings"
	"time"

	"wivi"
	"wivi/internal/eval"
	"wivi/internal/isar"
)

//
//wivi:wallclock benchmark harness measures real elapsed wall time by design
func main() {
	log.SetFlags(0)
	log.SetPrefix("wivi-bench: ")

	var (
		quick    = flag.Bool("quick", false, "reduced trial counts")
		run      = flag.String("run", "", "run only the experiment with this ID (e.g. F7.4)")
		seed     = flag.Int64("seed", 1, "base seed")
		workers  = flag.Int("workers", 0, "worker pool size for experiments and -batch mode (0 = one per CPU)")
		batch    = flag.Int("batch", 0, "engine throughput mode: track this many scenes instead of running experiments")
		trackDur = flag.Float64("trackdur", 4, "per-scene capture duration in seconds for -batch mode")
		stream   = flag.Bool("stream", false, "streaming latency mode over -batch scenes (default 4): time-to-first-frame, frame lag, batch-identity check")
		mixed    = flag.Bool("mixed", false, "mixed-workload mode: -batch (default 2) track + gesture + stream requests each against one explicit engine")
		paced    = flag.Bool("paced", false, "real-time paced mode: -batch (default 2) concurrent paced streams with wall-clock SLO enforcement")
		serveOn  = flag.Bool("serve", false, "load-generator mode: drive a wivi-serve daemon over HTTP with -batch (default 4) batch + -batch stream requests, reporting requests-per-second-at-SLO")
		addr     = flag.String("addr", "", "wivi-serve base URL for -serve mode (e.g. http://127.0.0.1:8080; empty starts an in-process server)")
		tenants  = flag.Int("tenants", 0, "serve mode: drive an in-process multi-tenant pool with this many tenants (>= 2), saturating tenant t0 to typed 429s while measuring the others' per-tenant SLO attainment")
		jsonOut  = flag.Bool("json", false, "emit a machine-readable JSON report on stdout (narration moves to stderr)")
	)
	flag.Parse()
	if *workers < 1 {
		*workers = runtime.GOMAXPROCS(0)
	}

	// Under -json, stdout carries exactly one JSON object.
	var out io.Writer = os.Stdout
	if *jsonOut {
		out = os.Stderr
	}
	finish := func(rep *benchReport, err error) {
		if err != nil {
			log.Fatal(err)
		}
		if *jsonOut {
			if err := emitJSON(rep); err != nil {
				log.Fatal(err)
			}
		}
	}

	exclusive := 0
	for _, on := range []bool{*mixed, *stream, *paced, *serveOn} {
		if on {
			exclusive++
		}
	}
	if exclusive > 1 {
		log.Fatal("-stream, -mixed, -paced and -serve are mutually exclusive modes")
	}
	if exclusive > 0 && (*run != "" || *quick) {
		log.Fatal("-stream/-mixed/-paced/-serve are engine modes and are incompatible with -run/-quick")
	}
	if *addr != "" && !*serveOn {
		log.Fatal("-addr only applies to -serve mode")
	}
	if *tenants != 0 && !*serveOn {
		log.Fatal("-tenants only applies to -serve mode")
	}
	if *tenants != 0 && *addr != "" {
		log.Fatal("-tenants drives an in-process pool and is incompatible with -addr")
	}

	if *serveOn {
		if *batch < 1 {
			*batch = 4
		}
		if *tenants != 0 {
			finish(runServeTenantsMode(out, *batch, *workers, *seed, *trackDur, *tenants))
			return
		}
		finish(runServeMode(out, *batch, *workers, *seed, *trackDur, *addr))
		return
	}

	if *paced {
		if *batch < 1 {
			*batch = 2
		}
		finish(runPacedMode(out, *batch, *workers, *seed, *trackDur))
		return
	}

	if *mixed {
		if *batch < 1 {
			*batch = 2
		}
		finish(runMixedMode(out, *batch, *workers, *seed, *trackDur))
		return
	}

	if *stream {
		if *batch < 1 {
			*batch = 4
		}
		finish(runStreamMode(out, *batch, *seed, *trackDur))
		return
	}

	if *batch > 0 {
		if *run != "" || *quick {
			log.Fatal("-batch runs the engine throughput mode and is incompatible with -run/-quick")
		}
		finish(runBatchMode(out, *batch, *workers, *seed, *trackDur))
		return
	}

	opts := eval.Options{Quick: *quick, Seed: *seed}
	start := time.Now()
	var selected []eval.Experiment
	for _, e := range eval.Experiments() {
		if *run != "" && !strings.EqualFold(e.ID, *run) {
			continue
		}
		selected = append(selected, e)
	}
	failures := 0
	runExperiments(selected, opts, *workers, func(r *eval.Report) {
		fmt.Fprintln(out, r)
		if !r.Pass {
			failures++
		}
	})
	scale := "full"
	if *quick {
		scale = "quick"
	}
	elapsed := time.Since(start)
	fmt.Fprintf(out, "ran %d experiments (%s scale, seed %d, %d workers) in %.1fs; %d shape mismatches\n",
		len(selected), scale, *seed, *workers, elapsed.Seconds(), failures)
	if *jsonOut {
		rep := newBenchReport("eval", *workers, 0, 0)
		rep.Experiments = len(selected)
		rep.Failures = failures
		rep.ElapsedS = elapsed.Seconds()
		rep.Identity = failures == 0
		if err := emitJSON(rep); err != nil {
			log.Fatal(err)
		}
	}
	if failures > 0 {
		os.Exit(1)
	}
}

// runExperiments executes the experiments over a bounded worker pool
// (each experiment builds its own scenes, so they are independent) and
// streams the reports to emit in experiment order regardless of
// scheduling: report i is emitted as soon as experiments 0..i are done,
// so a long full-scale run still shows incremental progress.
func runExperiments(exps []eval.Experiment, opts eval.Options, workers int, emit func(*eval.Report)) {
	if workers < 1 {
		workers = 1
	}
	if workers > len(exps) {
		workers = len(exps)
	}
	if workers <= 1 {
		for _, e := range exps {
			emit(e.Run(opts))
		}
		return
	}
	reports := make([]*eval.Report, len(exps))
	done := make([]chan struct{}, len(exps))
	for i := range done {
		done[i] = make(chan struct{})
	}
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		go func() {
			for i := range idx {
				reports[i] = exps[i].Run(opts)
				close(done[i])
			}
		}()
	}
	go func() {
		for i := range exps {
			idx <- i
		}
		close(idx)
	}()
	for i := range exps {
		<-done[i]
		emit(reports[i])
	}
}

// runStreamMode measures the streaming chain's latency profile against
// the batch baseline on identical scenes: time-to-first-frame (the
// batch path's first frame arrives only after the whole capture),
// inter-frame latency, per-frame lag percentiles, frame throughput
// (absolute and per core — the capacity figure that bounds concurrent
// paced streams per node), whole-chain allocations per frame (with an
// enforced gate guarding the frame kernel's pooling), and the
// byte-identity check.
// streamAllocsPerFrameGate bounds whole-chain heap allocations per
// streamed frame (ROADMAP item 2's "~zero per frame" bar, with margin
// for per-scene setup amortized over short captures). Measured ~11
// with the pooled frame kernel; the chain before pooled scratch measured
// ~140, so the gate must sit well below that to catch a full
// regression. CI enforces the same bound on the emitted report via jq.
const streamAllocsPerFrameGate = 64

//
//wivi:wallclock benchmark harness measures real elapsed wall time by design
func runStreamMode(out io.Writer, batch int, seed int64, trackDur float64) (*benchReport, error) {
	fmt.Fprintf(out, "streaming latency: %d scenes x %.1fs capture\n", batch, trackDur)
	rep := newBenchReport("stream", 1, batch, trackDur)
	buildDevice := func(i int) (*wivi.Device, error) {
		sc := wivi.NewScene(wivi.SceneOptions{Seed: seed + int64(i)})
		if err := sc.AddWalker(trackDur + 1); err != nil {
			return nil, err
		}
		return wivi.NewDevice(sc, wivi.DeviceOptions{})
	}

	var (
		ttffSum, interSum, interMax, batchSum, streamSum float64
		interN, totalFrames                              int
		totalMallocs                                     uint64
		lags                                             []time.Duration
		kernel                                           isar.KernelStats
	)
	addKernelDelta := func(before, after isar.KernelStats) {
		kernel.Frames += after.Frames - before.Frames
		kernel.CovNs += after.CovNs - before.CovNs
		kernel.EigNs += after.EigNs - before.EigNs
		kernel.SpecNs += after.SpecNs - before.SpecNs
	}
	for i := 0; i < batch; i++ {
		// Batch baseline on a fresh identical scene (nulling included, so
		// both paths pay the same auto-null cost).
		dev, err := buildDevice(i)
		if err != nil {
			return nil, err
		}
		batchStart := time.Now()
		want, err := dev.Track(context.Background(), trackDur)
		if err != nil {
			return nil, fmt.Errorf("batch scene %d: %w", i, err)
		}
		batchElapsed := time.Since(batchStart).Seconds()

		sdev, err := buildDevice(i)
		if err != nil {
			return nil, err
		}
		// Whole-chain allocation accounting: the Mallocs delta across the
		// streamed run counts every heap object the capture, combine,
		// frame kernel and frame assembly allocate. Nothing else
		// runs concurrently in this mode, so the delta is the chain's.
		var msBefore runtime.MemStats
		runtime.ReadMemStats(&msBefore)
		// Frame-kernel counters (per-stage wall time) for the
		// streamed chain only: the batch baseline above already finished,
		// and nothing else runs concurrently in this mode, so the delta
		// across the streamed run is exactly this scene's.
		ksBefore := isar.ReadKernelStats()
		streamStart := time.Now()
		ts, err := sdev.TrackStream(context.Background(), trackDur)
		if err != nil {
			return nil, fmt.Errorf("stream scene %d: %w", i, err)
		}
		rep.WindowMs = ms(ts.WindowDuration())
		var ttff float64
		last := streamStart
		frames := 0
		for fr := range ts.Frames() {
			now := time.Now()
			if frames == 0 {
				ttff = now.Sub(streamStart).Seconds()
			} else {
				gap := now.Sub(last).Seconds()
				interSum += gap
				if gap > interMax {
					interMax = gap
				}
				interN++
			}
			lags = append(lags, fr.Lag)
			last = now
			frames++
		}
		got, err := ts.Result()
		if err != nil {
			return nil, fmt.Errorf("stream scene %d: %w", i, err)
		}
		streamElapsed := time.Since(streamStart).Seconds()
		var msAfter runtime.MemStats
		runtime.ReadMemStats(&msAfter)
		totalMallocs += msAfter.Mallocs - msBefore.Mallocs
		addKernelDelta(ksBefore, isar.ReadKernelStats())

		// The streamed image must be byte-identical to batch Track.
		if !got.Equal(want) {
			return nil, fmt.Errorf("scene %d: streamed result differs from batch Track", i)
		}
		if frames != want.NumFrames() {
			return nil, fmt.Errorf("scene %d: streamed %d frames, batch has %d", i, frames, want.NumFrames())
		}
		ttffSum += ttff
		batchSum += batchElapsed
		streamSum += streamElapsed
		totalFrames += frames
		fmt.Fprintf(out, "  scene %d: %3d frames, first frame %6.1fms (%4.1f%% of stream), stream %6.1fms, batch-to-first-output %6.1fms\n",
			i, frames, ttff*1e3, 100*ttff/streamElapsed, streamElapsed*1e3, batchElapsed*1e3)
	}
	n := float64(batch)
	fmt.Fprintf(out, "  time-to-first-frame: %.1fms mean (batch path: %.1fms — the whole capture)\n",
		ttffSum/n*1e3, batchSum/n*1e3)
	if interN > 0 {
		fmt.Fprintf(out, "  inter-frame latency: %.2fms mean, %.2fms max over %d gaps\n",
			interSum/float64(interN)*1e3, interMax*1e3, interN)
	}
	rep.Identity = true
	rep.ElapsedS = streamSum
	rep.ScenesPerSec = n / streamSum
	rep.TTFFMs = ttffSum / n * 1e3
	rep.FrameLagP50Ms = percentileMs(lags, 50)
	rep.FrameLagP95Ms = percentileMs(lags, 95)
	rep.FrameLagP99Ms = percentileMs(lags, 99)
	rep.FramesPerSec = float64(totalFrames) / streamSum
	rep.FramesPerSecPerCore = rep.FramesPerSec / float64(rep.GOMAXPROCS)
	rep.AllocsPerFrame = float64(totalMallocs) / float64(totalFrames)
	if kernel.Frames > 0 {
		kf := float64(kernel.Frames)
		rep.StageCovUs = float64(kernel.CovNs) / kf / 1e3
		rep.StageEigUs = float64(kernel.EigNs) / kf / 1e3
		rep.StageSpectrumUs = float64(kernel.SpecNs) / kf / 1e3
		fmt.Fprintf(out, "  stages: cov %.0fus  eig %.0fus  spectrum %.0fus per frame\n",
			rep.StageCovUs, rep.StageEigUs, rep.StageSpectrumUs)
	}
	fmt.Fprintf(out, "  frame lag: p50 %.2fms  p95 %.2fms  p99 %.2fms over %d frames\n",
		rep.FrameLagP50Ms, rep.FrameLagP95Ms, rep.FrameLagP99Ms, len(lags))
	fmt.Fprintf(out, "  throughput: %.2f scenes/s streamed (%.2f batch); outputs identical across %d scenes\n",
		n/streamSum, n/batchSum, batch)
	fmt.Fprintf(out, "  frames: %.1f frames/s (%.2f per core over %d), %.1f allocs/frame whole-chain (gate %d)\n",
		rep.FramesPerSec, rep.FramesPerSecPerCore, rep.GOMAXPROCS, rep.AllocsPerFrame, streamAllocsPerFrameGate)
	if mean := ttffSum / n; mean > 0.5*streamSum/n {
		return nil, fmt.Errorf("time-to-first-frame %.1fms is not small relative to the %.1fms capture — streaming latency regressed",
			mean*1e3, streamSum/n*1e3)
	}
	// Allocation gate on the whole streamed chain. The steady-state
	// kernel allocates ~7 objects per frame (the Frame's two output
	// slices plus amortized per-stream fixed cost — see
	// TestPacedStreamSteadyStateAllocs); whole-chain accounting here
	// also amortizes per-scene setup (device trace, result assembly,
	// first-scene pool warm-up) and measures ~11. The unpooled
	// chain measured ~140 per frame, so the gate has margin on both
	// sides.
	if rep.AllocsPerFrame > streamAllocsPerFrameGate {
		return nil, fmt.Errorf("streamed chain allocates %.1f objects/frame, gate is %d — the frame kernel's pooling regressed",
			rep.AllocsPerFrame, streamAllocsPerFrameGate)
	}
	return rep, nil
}

// runBatchMode measures the concurrent engine's scene throughput against
// the sequential baseline on identical scene sets.
//
//wivi:wallclock benchmark harness measures real elapsed wall time by design
func runBatchMode(out io.Writer, batch, workers int, seed int64, trackDur float64) (*benchReport, error) {
	rep := newBenchReport("batch", workers, batch, trackDur)
	// frameWorkers 1 builds the truly sequential baseline (no per-frame
	// fan-out either); 0 keeps the default per-CPU fan-out. The knob
	// never changes the output image, so the identity check below still
	// compares like with like.
	buildDevices := func(frameWorkers int) ([]*wivi.Device, error) {
		devices := make([]*wivi.Device, batch)
		for i := range devices {
			sc := wivi.NewScene(wivi.SceneOptions{Seed: seed + int64(i)})
			if err := sc.AddWalker(trackDur + 1); err != nil {
				return nil, err
			}
			dev, err := wivi.NewDevice(sc, wivi.DeviceOptions{FrameWorkers: frameWorkers})
			if err != nil {
				return nil, err
			}
			devices[i] = dev
		}
		return devices, nil
	}

	fmt.Fprintf(out, "engine throughput: %d scenes x %.1fs capture, %d workers\n", batch, trackDur, workers)

	seqDevices, err := buildDevices(1)
	if err != nil {
		return nil, err
	}
	seqStart := time.Now()
	seqResults := make([]*wivi.TrackingResult, batch)
	for i, d := range seqDevices {
		res, err := d.Track(context.Background(), trackDur)
		if err != nil {
			return nil, fmt.Errorf("sequential scene %d: %w", i, err)
		}
		seqResults[i] = res
	}
	seqElapsed := time.Since(seqStart)

	parDevices, err := buildDevices(0)
	if err != nil {
		return nil, err
	}
	parStart := time.Now()
	parResults, err := trackOnEngine(parDevices, workers, trackDur)
	if err != nil {
		return nil, err
	}
	parElapsed := time.Since(parStart)

	// The engine must not change the physics: identical scenes produce
	// bit-identical images whichever path computed them.
	for i := range seqResults {
		if !seqResults[i].Equal(parResults[i]) {
			return nil, fmt.Errorf("scene %d: parallel result differs from sequential", i)
		}
	}

	seqRate := float64(batch) / seqElapsed.Seconds()
	parRate := float64(batch) / parElapsed.Seconds()
	rep.Identity = true
	rep.ElapsedS = parElapsed.Seconds()
	rep.ScenesPerSec = parRate
	rep.SpeedupX = seqElapsed.Seconds() / parElapsed.Seconds()
	fmt.Fprintf(out, "  sequential: %8.2fs  (%.2f scenes/s)\n", seqElapsed.Seconds(), seqRate)
	fmt.Fprintf(out, "  parallel:   %8.2fs  (%.2f scenes/s)\n", parElapsed.Seconds(), parRate)
	fmt.Fprintf(out, "  speedup:    %.2fx; outputs identical across %d scenes\n", rep.SpeedupX, batch)
	return rep, nil
}

// trackOnEngine submits one batch track per device to a private engine
// of the given worker count, with queue room for the whole batch, and
// joins the results in device order.
func trackOnEngine(devices []*wivi.Device, workers int, trackDur float64) ([]*wivi.TrackingResult, error) {
	eng := wivi.NewEngine(wivi.EngineOptions{Workers: workers, QueueDepth: len(devices)})
	defer eng.Close()
	ctx := context.Background()
	handles := make([]*wivi.Handle, len(devices))
	for i, d := range devices {
		h, err := eng.Submit(ctx, wivi.Request{Device: d, Duration: trackDur})
		if err != nil {
			return nil, fmt.Errorf("parallel scene %d: %w", i, err)
		}
		handles[i] = h
	}
	out := make([]*wivi.TrackingResult, len(devices))
	for i, h := range handles {
		res, err := h.Wait(ctx)
		if err != nil {
			return nil, fmt.Errorf("parallel scene %d: %w", i, err)
		}
		out[i] = res.Tracking
	}
	return out, nil
}
