package main

import (
	"fmt"
	"runtime"
	"time"

	"wivi"
	"wivi/internal/benchreport"
	"wivi/internal/pipeline"
)

func newBenchReport(mode string, workers, scenes int, trackDur float64) *benchreport.Report {
	return &benchreport.Report{
		Schema:         benchreport.Schema,
		Mode:           mode,
		Workers:        workers,
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		Scenes:         scenes,
		TrackDurationS: trackDur,
	}
}

func snapshotEngine(st wivi.EngineStats) *benchreport.EngineFigures {
	return &benchreport.EngineFigures{
		Completed:      st.Completed,
		Failed:         st.Failed,
		Frames:         st.Frames,
		FramesPerSec:   st.FramesPerSecond,
		QueueWaitP50Ms: ms(st.QueueWait.P50),
		QueueWaitP95Ms: ms(st.QueueWait.P95),
		QueueWaitP99Ms: ms(st.QueueWait.P99),
		FrameLagP50Ms:  ms(st.FrameLag.P50),
		FrameLagP95Ms:  ms(st.FrameLag.P95),
		FrameLagP99Ms:  ms(st.FrameLag.P99),
		EndToEndP50Ms:  ms(st.EndToEnd.P50),
		EndToEndP95Ms:  ms(st.EndToEnd.P95),
		EndToEndP99Ms:  ms(st.EndToEnd.P99),
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentileMs returns the nearest-rank p-th percentile of samples, in
// milliseconds; zero for an empty set. It delegates to the engine's own
// estimator so the bench and Engine.Stats() report identical math.
func percentileMs(samples []time.Duration, p int) float64 {
	return ms(pipeline.Percentile(samples, p))
}

// sample is one timed request of the mixed, serve or tenants mode.
type sample struct {
	kind    string // its per_mode key: track, gesture, stream or batch
	latency time.Duration
	queue   time.Duration   // engine queue wait, where reported
	lags    []time.Duration // a stream's per-frame lag
	err     error
}

// perMode folds samples run over span into per-kind figures. A failed
// request fails the run.
func perMode(samples []sample, span time.Duration) (map[string]benchreport.ModeFigures, error) {
	figs := map[string]benchreport.ModeFigures{}
	for _, s := range samples {
		if s.err != nil {
			return nil, fmt.Errorf("%s request failed: %w", s.kind, s.err)
		}
		m := figs[s.kind]
		m.Requests++
		m.QueueWaitMeanMs += ms(s.queue)
		m.LatencyMeanMs += ms(s.latency)
		figs[s.kind] = m
	}
	for kind, m := range figs {
		m.RequestsPerSec = float64(m.Requests) / span.Seconds()
		m.QueueWaitMeanMs /= float64(m.Requests)
		m.LatencyMeanMs /= float64(m.Requests)
		figs[kind] = m
	}
	return figs, nil
}

// wireFigures aggregate one set of wire requests.
type wireFigures struct {
	perSec, atSLOPerSec, okFraction float64
	p50Ms, p95Ms, p99Ms, lagP95Ms   float64
}

// aggregate folds samples run over span into throughput, throughput at
// SLO, SLO fraction and latency percentiles; atSLO says which requests
// met the SLO. A failed request fails the run.
func aggregate(samples []sample, span time.Duration, atSLO func(sample) bool) (wireFigures, error) {
	var lats, lags []time.Duration
	ok := 0
	for _, s := range samples {
		if s.err != nil {
			return wireFigures{}, fmt.Errorf("%s request failed: %w", s.kind, s.err)
		}
		lats = append(lats, s.latency)
		lags = append(lags, s.lags...)
		if atSLO(s) {
			ok++
		}
	}
	return wireFigures{
		perSec:      float64(len(samples)) / span.Seconds(),
		atSLOPerSec: float64(ok) / span.Seconds(),
		okFraction:  float64(ok) / float64(len(samples)),
		p50Ms:       percentileMs(lats, 50),
		p95Ms:       percentileMs(lats, 95),
		p99Ms:       percentileMs(lats, 99),
		lagP95Ms:    percentileMs(lags, 95),
	}, nil
}

// setRequests records a run's whole-run request figures.
func setRequests(r *benchreport.Report, f wireFigures) {
	r.RequestsPerSec = f.perSec
	r.RequestsAtSLOPerSec = f.atSLOPerSec
	r.SLOOkFraction = f.okFraction
	r.RequestP50Ms = f.p50Ms
	r.RequestP95Ms = f.p95Ms
	r.RequestP99Ms = f.p99Ms
}
