// Command wivi-bench regenerates the paper's evaluation (§7), drives the
// tracking engine and the HTTP tier under load, and gates every run on
// the real-time SLOs. -mode selects one row of the mode table:
//
//	eval     (the default) every table and figure of §7 plus the
//	         DESIGN.md ablations, each printed with its paper claim,
//	         measured rows and a shape verdict; -quick cuts the trial
//	         counts and -run picks one experiment by ID (e.g. F7.4). The
//	         narration is the source for EXPERIMENTS.md.
//	batch    -batch one-walker scenes tracked sequentially, then through
//	         one engine of -workers workers: scenes/s and the parallel
//	         speedup, with the two result sets checked identical.
//	stream   each of -batch scenes tracked by batch Track and by
//	         TrackStream: time-to-first-frame, inter-frame gaps, frame-lag
//	         percentiles, frames/s per core, whole-chain allocations per
//	         frame and per-stage kernel time, with the streamed result
//	         checked byte-identical to batch.
//	mixed    -batch track, -batch gesture and -batch stream requests at
//	         once against one engine: per-kind throughput, queue wait and
//	         latency plus the engine's Stats(), with identity and exact
//	         gesture decoding checked under mixing.
//	paced    -batch concurrent streams on paced devices, whose samples
//	         arrive at the radio's cadence: the real-time factor (unpaced
//	         compute margin), time-to-first-frame and frame-lag
//	         percentiles, the identity check, and a typed deadline
//	         rejection.
//	serve    the wivi-serve load generator: -batch batch plus -batch
//	         stream requests over HTTP at -workers client concurrency,
//	         against the daemon at -addr or an in-process one-tenant
//	         server, after streaming two replica devices to prove wire
//	         identity: requests/s, requests/s within the SLO (one capture
//	         duration of wall clock) and wire latency percentiles.
//	tenants  the noisy-neighbour suite: an in-process pool of tenants t0
//	         and t1. t0 gets a tiny budget and paced devices and is
//	         saturated until it answers typed 429 "tenant_saturated",
//	         while t1's -batch requests must keep meeting their SLO.
//	         Per-tenant figures and a tenant_isolation verdict; the
//	         report's mode is "serve".
//
// Every run writes its "wivi-bench/2" report (internal/benchreport) to
// stdout and its narration to stderr, then checks the report against
// benchreport.Gate. The report goes out first, so a run that misses an
// SLO still leaves its figures; the miss makes the exit status non-zero.
//
//	wivi-bench -quick -run F5.2                     # one experiment
//	wivi-bench -mode stream -batch 4 -trackdur 2    # streaming latency
//	wivi-bench -mode serve -addr http://127.0.0.1:8080
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"maps"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"wivi/internal/benchreport"
	"wivi/internal/eval"
)

// benchMode is one row of the mode table: the -batch a run uses when
// none is given, and the run itself, which narrates to out.
type benchMode struct {
	batch int
	run   func(out io.Writer, c config) (*benchreport.Report, error)
}

var modes = map[string]benchMode{
	"eval":    {0, runEval},
	"batch":   {4, runBatch},
	"stream":  {4, runStream},
	"mixed":   {2, runMixed},
	"paced":   {2, runPaced},
	"serve":   {4, runServe},
	"tenants": {4, runTenants},
}

// config is one validated command line.
type config struct {
	mode     string
	batch    int
	trackDur float64
	seed     int64
	workers  int
	addr     string
	quick    bool
	run      string
}

// parseArgs parses and validates the command line: every flag must
// apply to the selected mode.
func parseArgs(args []string) (config, error) {
	var c config
	fs := flag.NewFlagSet("wivi-bench", flag.ContinueOnError)
	fs.StringVar(&c.mode, "mode", "eval", "what to run: "+strings.Join(slices.Sorted(maps.Keys(modes)), ", "))
	fs.IntVar(&c.batch, "batch", 0, "engine modes: scenes, requests or streams per run (0 = the mode's default)")
	fs.Float64Var(&c.trackDur, "trackdur", 4, "engine modes: per-scene capture duration in seconds")
	fs.Int64Var(&c.seed, "seed", 1, "base seed")
	fs.IntVar(&c.workers, "workers", 0, "worker pool size, or client concurrency in serve mode (0 = one per CPU)")
	fs.StringVar(&c.addr, "addr", "", "serve mode: wivi-serve base URL, e.g. http://127.0.0.1:8080 (empty starts an in-process server)")
	fs.BoolVar(&c.quick, "quick", false, "eval mode: reduced trial counts")
	fs.StringVar(&c.run, "run", "", "eval mode: run only the experiment with this ID (e.g. F7.4)")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	if fs.NArg() > 0 {
		return c, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	m, ok := modes[c.mode]
	if !ok {
		return c, fmt.Errorf("unknown -mode %q", c.mode)
	}
	applies := map[string]bool{
		"quick":    c.mode == "eval",
		"run":      c.mode == "eval",
		"batch":    c.mode != "eval",
		"trackdur": c.mode != "eval",
		"addr":     c.mode == "serve",
	}
	var err error
	fs.Visit(func(f *flag.Flag) {
		if a, ok := applies[f.Name]; ok && !a && err == nil {
			err = fmt.Errorf("-%s does not apply to -mode %s", f.Name, c.mode)
		}
	})
	if err != nil {
		return c, err
	}
	if c.batch < 1 {
		c.batch = m.batch
	}
	if c.workers < 1 {
		c.workers = runtime.GOMAXPROCS(0)
	}
	return c, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("wivi-bench: ")
	c, err := parseArgs(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		log.Fatal(err)
	}
	rep, err := modes[c.mode].run(os.Stderr, c)
	if err != nil {
		log.Fatal(err)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		log.Fatalf("encoding bench report: %v", err)
	}
	if err := benchreport.Gate(rep); err != nil {
		log.Fatal(err)
	}
}

// runEval runs the selected experiments; gate fails the run on any
// shape mismatch.
//
//wivi:wallclock benchmark harness measures real elapsed wall time by design
func runEval(out io.Writer, c config) (*benchreport.Report, error) {
	start := time.Now()
	var selected []eval.Experiment
	for _, e := range eval.Experiments() {
		if c.run == "" || strings.EqualFold(e.ID, c.run) {
			selected = append(selected, e)
		}
	}
	rep := newBenchReport("eval", c.workers, 0, 0)
	runExperiments(selected, eval.Options{Quick: c.quick, Seed: c.seed}, c.workers, func(r *eval.Report) {
		fmt.Fprintln(out, r)
		if !r.Pass {
			rep.Failures++
		}
	})
	scale := "full"
	if c.quick {
		scale = "quick"
	}
	elapsed := time.Since(start)
	fmt.Fprintf(out, "ran %d experiments (%s scale, seed %d, %d workers) in %.1fs; %d shape mismatches\n",
		len(selected), scale, c.seed, c.workers, elapsed.Seconds(), rep.Failures)
	rep.Experiments = len(selected)
	rep.ElapsedS = elapsed.Seconds()
	rep.Identity = rep.Failures == 0
	return rep, nil
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
