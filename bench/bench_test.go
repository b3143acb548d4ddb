package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) *benchSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var spec benchSpec
	if err := dec.Decode(&spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return &spec
}

// BENCHMARK.json declares exactly the workloads and metrics the
// benchmark defines.
func TestSpecMatchesBenchmark(t *testing.T) {
	spec := readSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		wl, err := newWorkload(w.Name, float64(spec.RunSeconds))
		if err != nil {
			t.Fatal(err)
		}
		e2eDef(wl.primary) // panics unless the primary metric is declared
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("declared workloads %v, benchmark has %v", names, workloadNames)
	}
	if len(spec.EndToEnd) != len(e2eDefs) {
		t.Fatalf("%d end-to-end metrics declared, benchmark has %d", len(spec.EndToEnd), len(e2eDefs))
	}
	for i, m := range spec.EndToEnd {
		d := e2eDefs[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("declared %+v, benchmark has %+v", m, d)
		}
	}
	if len(spec.PerLayer) != len(layerDefs) {
		t.Fatalf("%d per-layer metrics declared, benchmark has %d", len(spec.PerLayer), len(layerDefs))
	}
	for i, m := range spec.PerLayer {
		d := layerDefs[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("declared %+v, benchmark has %+v", m, d)
		}
	}
}

// Every workload runs briefly, untraced and traced, passes its output
// checks, and reports exactly the declared metrics with their units.
func TestEveryWorkloadReportsDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := readSpec(t)
	declared := map[int]map[string]string{0: {}, 1: {}}
	for _, m := range spec.EndToEnd {
		declared[0][m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		declared[1][m.Name] = m.Unit
	}
	for _, w := range spec.Workloads {
		for trace := 0; trace <= 1; trace++ {
			t.Run(w.Name+"/trace="+strconv.Itoa(trace), func(t *testing.T) {
				var out, errOut bytes.Buffer
				args := []string{"--workload", w.Name, "--seed", "3", "--seconds", "3", "--trace", strconv.Itoa(trace)}
				if code := realMain(args, &out, &errOut); code != 0 {
					t.Fatalf("exit %d: %s", code, errOut.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
				dec.DisallowUnknownFields()
				var res result
				if err := dec.Decode(&res); err != nil {
					t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				for name, m := range res.Metrics {
					unit, ok := declared[trace][name]
					switch {
					case !ok:
						t.Errorf("undeclared metric %s", name)
					case m.Unit != unit:
						t.Errorf("%s in %s, declared in %s", name, m.Unit, unit)
					case trace == 0 && !(m.Value > 0):
						t.Errorf("end-to-end metric %s = %v, want a positive number", name, m.Value)
					}
				}
				for name := range declared[trace] {
					if _, ok := res.Metrics[name]; !ok {
						t.Errorf("declared metric %s missing", name)
					}
				}
			})
		}
	}
}
