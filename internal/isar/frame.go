package isar

// Stage decomposition of the ISAR chain. The angle-time image is built
// from analysis frames that are mutually independent: frame f reads only
// its own window h[start : start+Window] and the processor's immutable
// steering tables, and the frame kernel keeps no state from one frame to
// the next. That independence is what the concurrent engine
// (internal/pipeline) exploits — frames fan out over a bounded pool of
// goroutines and fan back in by index, so the assembled image is
// byte-identical to the sequential chain regardless of worker count,
// scheduling, or whether the frames were computed in a batch or streamed.
//
// The stages are:
//
//	FrameSpecs    — slice the channel stream into overlapping windows
//	processFrame  — one window -> one Frame (covariance, eig, spectra)
//	AssembleImage — frames in index order -> Image
//
// ProcessFrame is processFrame with a fresh workspace. Neither mutates
// the processor or the input slice, so any number of goroutines may run
// frames concurrently on the same Processor.

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"wivi/internal/cmath"
)

// frameTokens caps the process-wide number of *extra* frame workers so
// nested parallelism (a scene-level engine fanning out captures, each
// capture fanning out frames) cannot oversubscribe the machine: every
// capture always progresses on its calling goroutine, and borrows
// additional workers only while global CPU budget remains. The worker
// count never affects the output — frames fan in by index — so the cap
// is purely a scheduling concern.
var frameTokens = make(chan struct{}, runtime.GOMAXPROCS(0))

// FrameSpec identifies one analysis frame of a capture: its position in
// the image and the first sample of its window.
type FrameSpec struct {
	// Index is the frame's position in the assembled image.
	Index int
	// Start is the offset of the window's first sample in the capture.
	Start int
}

// FrameSpecs slices a capture of n samples into the analysis frames the
// configured window and hop produce. An empty slice means the capture is
// shorter than one window.
func (p *Processor) FrameSpecs(n int) []FrameSpec {
	w := p.cfg.Window
	var specs []FrameSpec
	for start := 0; start+w <= n; start += p.cfg.Hop {
		specs = append(specs, FrameSpec{Index: len(specs), Start: start})
	}
	return specs
}

// Frame is the fully processed output of one analysis window — one
// column of the angle-time image plus its per-frame metadata.
type Frame struct {
	// Spec echoes the frame's identity.
	Spec FrameSpec
	// Time is the window's center time in seconds.
	Time float64
	// Power is the angular pseudospectrum (normalized to min = 1).
	Power []float64
	// Bartlett is the power-bearing Bartlett spectrum.
	Bartlett []float64
	// MotionPower is the mean-removed channel power of the window.
	MotionPower float64
	// SignalDim is the estimated signal-subspace dimension (>= 1).
	SignalDim int
}

// ProcessFrame runs the frame kernel over one window of the capture h
// with a freshly allocated workspace: the allocating form of the kernel
// the batch and stream chains run with pooled workspaces, so it returns
// the identical Frame. It is safe for concurrent use: h is only read,
// and the processor's steering tables are immutable after NewProcessor.
func (p *Processor) ProcessFrame(h []complex128, spec FrameSpec, music bool) (Frame, error) {
	w := p.cfg.Window
	if spec.Start < 0 || spec.Start+w > len(h) {
		return Frame{}, fmt.Errorf("isar: frame window [%d, %d) outside capture of %d samples",
			spec.Start, spec.Start+w, len(h))
	}
	return p.processFrame(h[spec.Start:spec.Start+w], spec, music, p.newFrameScratch())
}

// frameScratch bundles every reusable buffer of the frame kernel: the
// window copy, the covariance, the Bartlett diagonal sums, the
// eigensolver workspace and the median sort scratch. One scratch serves
// one goroutine at a time; Processor pools them, so a steady-state frame
// allocates only its emitted Power and Bartlett slices.
type frameScratch struct {
	// win receives the window copy the Streamer hands to a worker, so the
	// producer's sample buffer can be trimmed while the frame is in
	// flight.
	win    []complex128
	cov    cmath.Matrix
	diag   cmath.Vector
	eig    *cmath.EigWorkspace
	medBuf []float64
}

func (p *Processor) newFrameScratch() *frameScratch {
	n, w := p.cfg.Subarray, p.cfg.Window
	buf := make([]complex128, w+n+n*n)
	return &frameScratch{
		win:    buf[:w:w],
		diag:   buf[w : w+n : w+n],
		cov:    cmath.Matrix{Rows: n, Cols: n, Data: buf[w+n:]},
		eig:    cmath.NewEigWorkspace(n),
		medBuf: make([]float64, n),
	}
}

func (p *Processor) getScratch() *frameScratch   { return p.scratch.Get().(*frameScratch) }
func (p *Processor) putScratch(sc *frameScratch) { p.scratch.Put(sc) }

// processFrame is the frame kernel: one window of exactly Window samples
// to one Frame. It computes the smoothed covariance (Hankel recursion),
// the Bartlett spectrum, and either the smoothed-MUSIC pseudospectrum
// (music = true, Eq. 5.3: every eigenvalue, then eigenvectors for only
// the estimated signal subspace) or the plain Eq. 5.1 beamformer, plus
// the motion-power metadata. Every temporary comes from sc, and the
// result depends only on the window and spec, never on what sc held
// before; the only allocations are the emitted Frame's Power and Bartlett
// slices.
//
//wivi:hotpath
func (p *Processor) processFrame(window []complex128, spec FrameSpec, music bool, sc *frameScratch) (Frame, error) {
	fr := Frame{
		Spec:        spec,
		Time:        (float64(spec.Start) + float64(p.cfg.Window)/2) * p.cfg.SampleT,
		MotionPower: motionPower(window),
		SignalDim:   1,
		Power:       make([]float64, len(p.thetasDeg)), //wivi:alloc emitted Frame owns its Power/Bartlett slices
		Bartlett:    make([]float64, len(p.thetasDeg)), //wivi:alloc emitted Frame owns its Power/Bartlett slices
	}
	kernelStats.frames.Add(1)
	start := kernelNow()
	p.smoothedCorrelationInto(window, &sc.cov)
	kernelStats.covNs.Add(kernelNow().Sub(start).Nanoseconds())
	start = kernelNow()
	p.bartlettSpectrumInto(&sc.cov, fr.Bartlett, sc.diag)
	kernelStats.specNs.Add(kernelNow().Sub(start).Nanoseconds())
	if !music {
		start = kernelNow()
		err := p.beamformSpectrumInto(window, fr.Power)
		kernelStats.specNs.Add(kernelNow().Sub(start).Nanoseconds())
		if err != nil {
			return Frame{}, err
		}
		return fr, nil
	}
	start = kernelNow()
	vals, err := sc.eig.Eigenvalues(&sc.cov)
	if err != nil {
		return Frame{}, fmt.Errorf("isar: frame at sample %d: %w", spec.Start, err)
	}
	fr.SignalDim = p.estimateSignalDim(vals, sc.medBuf)
	signal := sc.eig.LeadingEigenvectors(fr.SignalDim)
	kernelStats.eigNs.Add(kernelNow().Sub(start).Nanoseconds())
	start = kernelNow()
	p.musicSpectrumComplementInto(signal, fr.Power)
	kernelStats.specNs.Add(kernelNow().Sub(start).Nanoseconds())
	return fr, nil
}

// AssembleImage folds processed frames (already in index order) into an
// Image — the final stage of both the batch chain and the Streamer, so a
// streamed capture assembles into the identical Image.
func (p *Processor) AssembleImage(frames []Frame) *Image {
	img := &Image{
		ThetaDeg:    p.thetasDeg,
		Times:       make([]float64, len(frames)),
		Power:       make([][]float64, len(frames)),
		Bartlett:    make([][]float64, len(frames)),
		MotionPower: make([]float64, len(frames)),
		SignalDim:   make([]int, len(frames)),
	}
	for i, fr := range frames {
		img.Times[i] = fr.Time
		img.Power[i] = fr.Power
		img.Bartlett[i] = fr.Bartlett
		img.MotionPower[i] = fr.MotionPower
		img.SignalDim[i] = fr.SignalDim
	}
	return img
}

// computeFrames runs the frame kernel over every spec, fanning out over
// up to `workers` goroutines. Frames are independent (see the top of
// this file), so workers take specs from a shared cursor and each result
// lands in its spec's index slot: the frame order — and therefore the
// assembled image — is deterministic for any worker count. The first
// error (or a context cancellation) stops the remaining work.
func (p *Processor) computeFrames(ctx context.Context, h []complex128, specs []FrameSpec, music bool, workers int) ([]Frame, error) {
	frames := make([]Frame, len(specs))
	if len(specs) == 0 {
		return frames, nil
	}
	win := p.cfg.Window
	runSpec := func(i int, sc *frameScratch) error {
		spec := specs[i]
		if spec.Start < 0 || spec.Start+win > len(h) {
			return fmt.Errorf("isar: frame window [%d, %d) outside capture of %d samples",
				spec.Start, spec.Start+win, len(h))
		}
		fr, err := p.processFrame(h[spec.Start:spec.Start+win], spec, music, sc)
		if err != nil {
			return err
		}
		frames[spec.Index] = fr
		return nil
	}

	if workers > len(specs) {
		workers = len(specs)
	}
	if workers <= 1 {
		sc := p.getScratch()
		defer p.putScratch(sc)
		for i := range specs {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if err := runSpec(i, sc); err != nil {
				return nil, err
			}
		}
		return frames, nil
	}

	// Fan-out: workers pull spec indices from a shared cursor; fan-in is
	// positional, so scheduling never reorders frames. The calling
	// goroutine always works; extra workers spawn only up to the global
	// frameTokens budget. Each worker checks out one scratch for its
	// whole run.
	var (
		wg       sync.WaitGroup
		next     int
		nextMu   sync.Mutex
		firstErr error
		errOnce  sync.Once
	)
	stop, cancel := context.WithCancel(ctx)
	defer cancel()
	fail := func(err error) {
		errOnce.Do(func() { firstErr = err })
		cancel()
	}
	take := func() int {
		nextMu.Lock()
		defer nextMu.Unlock()
		i := next
		next++
		return i
	}
	work := func() {
		sc := p.getScratch()
		defer p.putScratch(sc)
		for {
			if stop.Err() != nil {
				return
			}
			i := take()
			if i >= len(specs) {
				return
			}
			if err := runSpec(i, sc); err != nil {
				fail(err)
				return
			}
		}
	}
	for w := 1; w < workers; w++ {
		select {
		case frameTokens <- struct{}{}:
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-frameTokens }()
				work()
			}()
		default:
			// Machine already saturated by other captures; run narrower.
		}
	}
	work()
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return frames, nil
}
