package wivi_test

// Fixture tests for the gate every wivi-bench run applies to its own
// report (internal/benchreport.Gate): each run of a known-good and a
// known-bad merged wivi-bench/2 report from testdata/benchgate/, the
// shape `make bench-json` writes, goes through the gate. A gate edit
// that silently stops rejecting bad reports, or starts rejecting good
// ones, fails here.

import (
	"encoding/json"
	"maps"
	"os"
	"strings"
	"testing"

	"wivi/internal/benchreport"
)

// benchGates are the gates the fixtures exercise, one per gated mode.
var benchGates = []string{"paced-slo", "stream-alloc", "serve-slo", "tenant-isolation"}

// benchGateRuns loads the runs of a merged report from testdata/benchgate/.
func benchGateRuns(t *testing.T, name string) []*benchreport.Report {
	t.Helper()
	data, err := os.ReadFile("testdata/benchgate/" + name)
	if err != nil {
		t.Fatal(err)
	}
	var merged struct {
		Runs []*benchreport.Report `json:"runs"`
	}
	if err := json.Unmarshal(data, &merged); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if len(merged.Runs) == 0 {
		t.Fatalf("%s carries no runs", name)
	}
	return merged.Runs
}

// benchGateName is the gate a fixture run exercises.
func benchGateName(r *benchreport.Report) string {
	if r.Tenants != nil {
		return "tenant-isolation"
	}
	return map[string]string{"paced": "paced-slo", "stream": "stream-alloc", "serve": "serve-slo", "eval": "eval"}[r.Mode]
}

func TestBenchGateAcceptsGoodReport(t *testing.T) {
	ran := map[string]bool{}
	for _, r := range benchGateRuns(t, "good.json") {
		if err := benchreport.Gate(r); err != nil {
			t.Errorf("gate rejected the known-good %s run: %v", benchGateName(r), err)
		}
		ran[benchGateName(r)] = true
	}
	// Every versioned gate must have actually run.
	for _, gate := range benchGates {
		if !ran[gate] {
			t.Errorf("no run of the good report exercises gate %q", gate)
		}
	}
}

func TestBenchGateRejectsBadReport(t *testing.T) {
	failed := map[string]bool{}
	for _, r := range benchGateRuns(t, "bad.json") {
		gate := benchGateName(r)
		err := benchreport.Gate(r)
		if err == nil || !strings.Contains(err.Error(), "gate "+gate+":") {
			t.Errorf("bad %s run: gate error %v, want one naming %s", r.Mode, err, gate)
			continue
		}
		failed[gate] = true
	}
	// The bad fixture violates every perf gate; each must be named.
	for _, gate := range benchGates {
		if !failed[gate] {
			t.Errorf("gate %q did not fail on the bad report", gate)
		}
	}
}

// TestBenchGateConditions breaks one condition of a good run at a time,
// so dropping or loosening any single condition fails here: the ones
// the deleted jq harness held, the ones it never held (stream
// time-to-first-frame, the paced span, eval shape mismatches), and a
// serve report from a one-device daemon, whose only fault is unproven
// wire identity.
func TestBenchGateConditions(t *testing.T) {
	good := map[string]benchreport.Report{"eval": {Mode: "eval", Experiments: 17}}
	for _, r := range benchGateRuns(t, "good.json") {
		key := r.Mode
		if r.Tenants != nil {
			key = "tenants"
		}
		good[key] = *r
	}
	type report = benchreport.Report
	for _, tc := range []struct {
		name, run, gate string
		mutate          func(*report)
	}{
		{"real-time factor under 1", "paced", "paced-slo", func(r *report) { r.RealTimeFactor = 0.99 }},
		{"p95 lag of a full window", "paced", "paced-slo", func(r *report) { r.FrameLagP95Ms = r.WindowMs }},
		{"paced run shorter than its capture", "paced", "paced-slo", func(r *report) { r.ElapsedS = 0.9 * r.TrackDurationS }},
		{"no allocations counted", "stream", "stream-alloc", func(r *report) { r.AllocsPerFrame = 0 }},
		{"allocations over the bar", "stream", "stream-alloc", func(r *report) { r.AllocsPerFrame = benchreport.StreamAllocsPerFrameGate + 1 }},
		{"no frames per core", "stream", "stream-alloc", func(r *report) { r.FramesPerSecPerCore = 0 }},
		{"late first frame", "stream", "stream-alloc", func(r *report) { r.TTFFMs = 0.6 * r.ElapsedS * 1e3 / float64(r.Scenes) }},
		{"no requests", "serve", "serve-slo", func(r *report) { r.RequestsPerSec = 0 }},
		{"no requests at SLO", "serve", "serve-slo", func(r *report) { r.RequestsAtSLOPerSec = 0 }},
		{"no SLO fraction", "serve", "serve-slo", func(r *report) { r.SLOOkFraction = 0 }},
		{"one-device serve", "serve", "serve-slo", func(r *report) { r.Identity = false }},
		{"tenants identity", "tenants", "serve-slo", func(r *report) { r.Identity = false }},
		{"isolation lost", "tenants", "tenant-isolation", func(r *report) { r.TenantIsolation = false }},
		{"a tenant without requests at SLO", "tenants", "tenant-isolation", func(r *report) {
			r.Tenants = maps.Clone(r.Tenants)
			t0 := r.Tenants["t0"]
			t0.RequestsAtSLOPerSec = 0
			r.Tenants["t0"] = t0
		}},
		{"eval shape mismatch", "eval", "eval", func(r *report) { r.Failures = 1 }},
	} {
		r := good[tc.run]
		if err := benchreport.Gate(&r); err != nil {
			t.Fatalf("%s: the unbroken %s report fails: %v", tc.name, tc.run, err)
		}
		tc.mutate(&r)
		if err := benchreport.Gate(&r); err == nil || !strings.Contains(err.Error(), "gate "+tc.gate+":") {
			t.Errorf("%s: gate error %v, want one naming %s", tc.name, err, tc.gate)
		}
	}
}
