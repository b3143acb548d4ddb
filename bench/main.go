// Command bench is the Wi-Vi end-to-end benchmark. One run measures one
// workload against the wivi module in the parent directory and prints,
// as the last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// with every end-to-end metric (-trace 0) or every per-layer metric
// (-trace 1), each as {"value": v, "unit": u}. The line before it is a
// JSON report with the host facts, sample counts, tail percentiles,
// unscaled figures and errors by code. Build and run it from the
// repository root with
//
//	bash bench/run.sh --workload track_batch --seed 1 --seconds 20 --trace 0
//
// or from this directory with go run . -workload track_batch. A run
// exits non-zero when any output check fails. -compare A... -- B...
// compares two sets of saved outputs metric by metric. README.md has
// the metric dictionary and the rationale of each workload.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"

	"wivi/internal/core"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "seed of the generated scenes, arrivals and mix")
	seconds := fs.Int("seconds", 20, "measured seconds, split into equal parts")
	trace := fs.Int("trace", 0, "1 runs the traced variant and reports the per-layer metrics")
	compare := fs.Bool("compare", false, "compare saved outputs: -compare A... -- B...")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return runCompare(fs.Args(), stdout, stderr)
	}
	// Each of the parts must hold at least one analysis window.
	if *seconds < 3 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: -seconds must be at least 3 and -trace 0 or 1")
		return 2
	}
	rep, res, err := run(context.Background(), *workload, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if !res.Correct {
		fmt.Fprintln(stderr, "bench: output checks failed:", strings.Join(rep.FailedChecks, "; "))
		return 1
	}
	return 0
}

// result is the last line of a run's output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is the line before it: what a reader needs to trust the result.
type report struct {
	Workload string          `json:"workload"`
	Seed     int64           `json:"seed"`
	Seconds  int             `json:"seconds"`
	Trace    bool            `json:"trace"`
	Host     hostFacts       `json:"host"`
	Counts   map[string]int  `json:"counts"`
	Tails    map[string]tail `json:"tails"`
	TTFFMs   float64         `json:"ttff_p50_ms,omitempty"`
	// Parts holds each part's raw figures and host-speed probes, and
	// Unscaled the end-to-end figures before scaling to nominal speed.
	Parts        []map[string]float64 `json:"parts"`
	Unscaled     map[string]float64   `json:"unscaled"`
	Errors       map[string]int       `json:"errors"`
	FailedChecks []string             `json:"failed_checks,omitempty"`
	// Untraced holds a traced run's end-to-end figures of its untraced
	// parts.
	Untraced map[string]float64 `json:"untraced,omitempty"`
}

// tail is a latency tail at the highest percentile with at least ten
// samples beyond it.
type tail struct {
	P  float64 `json:"p"`
	Ms float64 `json:"ms"`
	N  int     `json:"n"`
}

// run measures one workload: untraced parts for the end-to-end metrics,
// or — traced — alternating untraced and traced parts plus the chain
// trace for the per-layer metrics. An error means the run could not be
// carried out; failed output checks are reported in the result instead.
func run(ctx context.Context, name string, seed int64, seconds int, traced bool) (*report, *result, error) {
	clk := core.RealClock()
	w, err := newWorkload(name, float64(seconds))
	if err != nil {
		return nil, nil, err
	}
	rep := &report{Workload: name, Seed: seed, Seconds: seconds, Trace: traced, Host: host(),
		Counts: map[string]int{}, Tails: map[string]tail{}, Errors: map[string]int{}}
	res := &result{}
	fail := func(check string) { rep.FailedChecks = append(rep.FailedChecks, check) }
	tally := func(ps []*part) {
		for _, p := range ps {
			for _, s := range p.samples {
				res.Attempted++
				if s.code != "" {
					res.Failed++
					rep.Errors[s.code]++
					if s.code == "check" {
						fail(s.err.Error())
					}
				}
			}
		}
	}

	var values map[string]float64
	defs := e2eDefs
	if !traced {
		ps, err := runParts(ctx, w, seed, clk, func(int) *tierTrace { return nil })
		if err != nil {
			return nil, nil, err
		}
		tally(ps)
		describe(rep, ps)
		values, rep.Unscaled = e2e(w, ps, true), e2e(w, ps, false)
	} else {
		// Untraced and traced parts alternate, so that
		// trace.overhead_frac compares parts measured side by side.
		tr := newTierTrace(clk)
		ps, err := runParts(ctx, w, seed, clk, func(n int) *tierTrace {
			if n%2 == 1 {
				return tr
			}
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
		var un, tp []*part
		for n, p := range ps {
			if n%2 == 1 {
				tp = append(tp, p)
			} else {
				un = append(un, p)
			}
		}
		tally(ps)
		describe(rep, tp)
		rep.Unscaled = e2e(w, tp, false)
		values = loadLayers(tp, tr)
		// The serve tier's request figures come from the workload's own
		// HTTP traffic and its per-frame figures from its own streams.
		// A workload without them replays its chain requests, each once
		// as a batch and once streamed, one at a time through the served
		// stack.
		reqParts, reqTrace, frameTrace := tp, tr, tr
		if !w.http || tr.frames == 0 {
			rw := servedReplay(w)
			rtr := newTierTrace(clk)
			e, err := setup(ctx, rw, seed, clk, rtr)
			if err != nil {
				return nil, nil, fmt.Errorf("served replay: %w", err)
			}
			rp := []*part{measure(ctx, rw, seed, 0, e, clk, rtr)}
			e.close()
			tally(rp)
			frameTrace = rtr
			if !w.http {
				reqParts, reqTrace = rp, rtr
			}
		}
		serveVals, err := serveLayers(ctx, reqParts, reqTrace, frameTrace)
		if err != nil {
			return nil, nil, err
		}
		chainVals, err := runChain(ctx, w, seed, clk)
		if err != nil {
			fail("chain trace: " + err.Error())
		}
		for _, m := range []map[string]float64{serveVals, chainVals} {
			for k, v := range m {
				values[k] = v
			}
		}
		rep.Untraced = e2e(w, un, true)
		values["trace.overhead_frac"] = e2eDef(w.primary).worsening(rep.Untraced[w.primary], e2e(w, tp, true)[w.primary])
		defs = layerDefs
	}
	if err := identityPair(ctx, w, seed); err != nil {
		fail("batch vs stream pair: " + err.Error())
	}
	var missing []string
	res.Metrics, missing = withUnits(defs, values)
	for _, name := range missing {
		fail("metric " + name + " was not measured")
	}
	for name, m := range res.Metrics {
		if !finite(m.Value) {
			fail("metric " + name + " is not a number")
			delete(res.Metrics, name)
		}
	}
	// JSON has no NaN: figures a failed run could not compute are left
	// out of the report.
	for _, m := range append(rep.Parts, rep.Unscaled, rep.Untraced) {
		for k, v := range m {
			if !finite(v) {
				delete(m, k)
			}
		}
	}
	if !finite(rep.TTFFMs) {
		rep.TTFFMs = 0
	}
	sort.Strings(rep.FailedChecks)
	res.Correct = len(rep.FailedChecks) == 0
	return rep, res, nil
}

// describe records the parts' sample counts, latency tails, median time
// to first frame (from due to the first frame of a stream) and raw
// per-part figures.
func describe(rep *report, ps []*part) {
	var lat, lags, ttff []float64
	for _, p := range ps {
		for _, s := range good(p.samples) {
			lat = append(lat, ms(s.latency()))
			lags = append(lags, s.lagsMs...)
			if s.req.kind == kindStream {
				ttff = append(ttff, ms(s.ttff()))
			}
			rep.Counts[s.req.kind.String()]++
		}
	}
	rep.Counts["frame_lags"] = len(lags)
	rep.TTFFMs = percentile(ttff, 50)
	for _, p := range ps {
		rep.Parts = append(rep.Parts, p.rates())
	}
	for name, v := range map[string][]float64{"request_ms": lat, "frame_lag_ms": lags} {
		if p, ok := tailLevel(len(v)); ok {
			rep.Tails[name] = tail{P: p, Ms: percentile(v, p), N: len(v)}
		}
	}
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// servedReplay is the workload's chain mix — each request once as a
// batch and once as a stream — sent one at a time through the served
// stack.
func servedReplay(w *workload) *workload {
	r := *w
	r.http, r.clients, r.untilDeadline, r.arrivals = true, 1, false, nil
	var reqs []request
	for _, c := range w.chain {
		reqs = append(reqs, c, request{kind: kindStream, device: c.device, dur: c.dur})
	}
	r.next = func(i int) (request, bool) {
		if i >= len(reqs) {
			return request{}, false
		}
		return reqs[i], true
	}
	return &r
}
