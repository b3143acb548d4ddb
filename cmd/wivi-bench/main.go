// Command wivi-bench regenerates the paper's evaluation (§7): every
// table and figure plus the DESIGN.md ablations (the catalog is DESIGN
// §4), each printed with its paper claim, measured rows and a shape
// verdict. -quick cuts the trial counts, -run picks one experiment by
// ID (e.g. F7.4, in any case), -seed sets the base seed and -workers
// how many experiments run at once. The narration goes to stdout and is
// deterministic per seed apart from its final elapsed time; the exit
// status is 1 when any experiment misses its paper shape.
//
//	wivi-bench                    # all 17 at full scale (make eval)
//	wivi-bench -quick -run F5.2   # one experiment at quick scale
//
// The system's performance is measured by the benchmark in bench/.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"strings"
	"time"

	"wivi/internal/eval"
)

// config is one validated command line.
type config struct {
	quick   bool
	seed    int64
	workers int
	exps    []eval.Experiment // what -run selects, in catalog order
}

// parseArgs parses and validates the command line. An unknown -run ID
// is an error that names the valid ones.
func parseArgs(args []string) (config, error) {
	var c config
	var run string
	fs := flag.NewFlagSet("wivi-bench", flag.ContinueOnError)
	fs.BoolVar(&c.quick, "quick", false, "reduced trial counts")
	fs.StringVar(&run, "run", "", "run only the experiment with this ID (e.g. F7.4)")
	fs.Int64Var(&c.seed, "seed", 1, "base seed")
	fs.IntVar(&c.workers, "workers", 0, "experiments run at once (0 = one per CPU)")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	if fs.NArg() > 0 {
		return c, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	var ids []string
	for _, e := range eval.Experiments() {
		ids = append(ids, e.ID)
		if run == "" || strings.EqualFold(e.ID, run) {
			c.exps = append(c.exps, e)
		}
	}
	if len(c.exps) == 0 {
		return c, fmt.Errorf("unknown -run %q; the experiment IDs are %s", run, strings.Join(ids, ", "))
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
	if n := runEval(os.Stdout, c); n > 0 {
		log.Fatalf("%d of %d experiments missed their paper shape", n, len(c.exps))
	}
}

// runEval runs the selected experiments, narrating each report to out,
// and returns the number of shape mismatches.
//
//wivi:wallclock the narration reports the run's real elapsed wall time
func runEval(out io.Writer, c config) int {
	start := time.Now()
	failures := 0
	runExperiments(c.exps, eval.Options{Quick: c.quick, Seed: c.seed}, c.workers, func(r *eval.Report) {
		fmt.Fprintln(out, r)
		if !r.Pass {
			failures++
		}
	})
	scale := "full"
	if c.quick {
		scale = "quick"
	}
	fmt.Fprintf(out, "ran %d experiments (%s scale, seed %d, %d workers) in %.1fs; %d shape mismatches\n",
		len(c.exps), scale, c.seed, c.workers, time.Since(start).Seconds(), failures)
	return failures
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
