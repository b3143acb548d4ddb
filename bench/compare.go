package main

// -compare A... -- B...: judge set B of saved runs against set A, per
// workload and metric, by the rules the benchmark's bounds are meant
// for. Each file holds the standard output of one or more runs (a
// report line followed by its result line). For every metric it prints
// each set's median and quartiles and a verdict:
//
//	ok          B's median is no worse than A's by more than the bound
//	regression  it is worse by more than the bound
//	unresolved  a set's spread (quartile distance over median) exceeds
//	            the bound, so the runs cannot tell
//	better      the spread exceeds the bound but every run of B beats
//	            every run of A
//
// Per-layer metrics have no bound and are listed without a verdict.
// The exit status is 1 when any metric regressed.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// runSet maps workload → metric → the values of its runs.
type runSet map[string]map[string][]float64

func runCompare(args []string, stdout, stderr io.Writer) int {
	split := -1
	for i, a := range args {
		if a == "--" {
			split = i
		}
	}
	if split < 1 || split == len(args)-1 {
		fmt.Fprintln(stderr, "bench: usage: -compare A-files... -- B-files...")
		return 2
	}
	a, err := loadRuns(args[:split])
	if err == nil {
		var b runSet
		if b, err = loadRuns(args[split+1:]); err == nil {
			return compareSets(a, b, stdout)
		}
	}
	fmt.Fprintln(stderr, "bench:", err)
	return 2
}

// loadRuns reads saved run outputs into a runSet.
func loadRuns(files []string) (runSet, error) {
	set := runSet{}
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
		workload := ""
		for sc.Scan() {
			var line struct {
				Workload string                 `json:"workload"`
				Metrics  map[string]metricValue `json:"metrics"`
			}
			if json.Unmarshal(sc.Bytes(), &line) != nil {
				continue
			}
			switch {
			case line.Workload != "":
				workload = line.Workload
			case line.Metrics != nil && workload != "":
				if set[workload] == nil {
					set[workload] = map[string][]float64{}
				}
				for name, m := range line.Metrics {
					set[workload][name] = append(set[workload][name], m.Value)
				}
				workload = ""
			}
		}
		err = sc.Err()
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("reading %s: %w", path, err)
		}
	}
	if len(set) == 0 {
		return nil, fmt.Errorf("no runs found in %v", files)
	}
	return set, nil
}

// summary is a set's median and quartiles of one metric.
type summary struct {
	median, q1, q3 float64
	n              int
}

func summarize(v []float64) summary {
	s := summary{median: median(v), n: len(v)}
	s.q1, s.q3 = s.median, s.median
	if len(v) >= 2 {
		s.q1, s.q3 = quartiles(v)
	}
	return s
}

func (s summary) spread() float64 { return (s.q3 - s.q1) / s.median }

// verdict judges B against A for a metric with a bound.
func verdict(d metricDef, a, b []float64) string {
	sa, sb := summarize(a), summarize(b)
	if sa.spread() > d.bound || sb.spread() > d.bound {
		if allBetter(d, a, b) {
			return "better"
		}
		return "unresolved"
	}
	if d.worsening(sa.median, sb.median) > d.bound {
		return "regression"
	}
	return "ok"
}

// allBetter reports whether every value of b beats every value of a.
func allBetter(d metricDef, a, b []float64) bool {
	for _, x := range a {
		for _, y := range b {
			if d.worsening(x, y) >= 0 {
				return false
			}
		}
	}
	return true
}

func compareSets(a, b runSet, out io.Writer) int {
	var workloads []string
	for w := range a {
		if _, ok := b[w]; ok {
			workloads = append(workloads, w)
		}
	}
	sort.Strings(workloads)
	status := 0
	fmt.Fprintf(out, "%-13s %-34s %-30s %-30s %8s %6s  %s\n", "workload", "metric",
		"A median [q1, q3] (n)", "B median [q1, q3] (n)", "change", "bound", "verdict")
	for _, w := range workloads {
		for _, defs := range [][]metricDef{e2eDefs, layerDefs} {
			for _, d := range defs {
				av, bv := a[w][d.name], b[w][d.name]
				if len(av) == 0 || len(bv) == 0 {
					continue
				}
				sa, sb := summarize(av), summarize(bv)
				v, bound := "-", "-"
				if d.bound > 0 {
					v, bound = verdict(d, av, bv), fmt.Sprintf("%.2f", d.bound)
					if v == "regression" {
						status = 1
					}
				}
				fmt.Fprintf(out, "%-13s %-34s %-30s %-30s %+7.1f%% %6s  %s\n", w, d.name,
					fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", sa.median, sa.q1, sa.q3, sa.n),
					fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", sb.median, sb.q1, sb.q3, sb.n),
					100*d.worsening(sa.median, sb.median), bound, v)
			}
		}
	}
	return status
}
