package wivi_test

// Fixture tests for the shared CI bench-gate harness
// (scripts/bench-gate.sh + scripts/bench-gate.jq): the same invocation
// CI and `make bench-json` run is fed a known-good and a known-bad
// merged wivi-bench/2 report from testdata/benchgate/. A harness edit
// that silently stops rejecting bad reports — or starts rejecting good
// ones — fails here, so the gate set cannot rot invisibly the way the
// inlined jq asserts it replaced could. The harness needs a POSIX sh
// and jq; hosts without them skip (CI always has both).

import (
	"os/exec"
	"strings"
	"testing"
)

func runBenchGate(t *testing.T, fixture string) (string, error) {
	t.Helper()
	for _, tool := range []string{"sh", "jq"} {
		if _, err := exec.LookPath(tool); err != nil {
			t.Skipf("bench-gate harness needs %s: %v", tool, err)
		}
	}
	cmd := exec.Command("sh", "scripts/bench-gate.sh", fixture)
	out, err := cmd.CombinedOutput()
	return string(out), err
}

func TestBenchGateAcceptsGoodReport(t *testing.T) {
	out, err := runBenchGate(t, "testdata/benchgate/good.json")
	if err != nil {
		t.Fatalf("bench-gate rejected the known-good report: %v\n%s", err, out)
	}
	if strings.Contains(out, "FAIL") {
		t.Fatalf("bench-gate printed a FAIL on the known-good report:\n%s", out)
	}
	// Every versioned gate must have actually run.
	for _, gate := range []string{"schema", "paced-slo", "stream-alloc",
		"serve-slo", "tenant-isolation"} {
		if !strings.Contains(out, "ok   "+gate) {
			t.Errorf("gate %q did not report ok on the good report:\n%s", gate, out)
		}
	}
}

func TestBenchGateRejectsBadReport(t *testing.T) {
	out, err := runBenchGate(t, "testdata/benchgate/bad.json")
	if err == nil {
		t.Fatalf("bench-gate accepted the known-bad report:\n%s", out)
	}
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("bench-gate exit on bad report = %v, want exit status 1\n%s", err, out)
	}
	// The bad fixture violates every perf gate; each must be named.
	for _, gate := range []string{"paced-slo", "stream-alloc",
		"serve-slo", "tenant-isolation"} {
		if !strings.Contains(out, "FAIL "+gate) {
			t.Errorf("gate %q did not FAIL on the bad report:\n%s", gate, out)
		}
	}
	if !strings.Contains(out, "ok   schema") {
		t.Errorf("schema gate should still pass on the bad report:\n%s", out)
	}
}

func TestBenchGateUsageErrors(t *testing.T) {
	out, err := runBenchGate(t, "testdata/benchgate/absent.json")
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Fatalf("bench-gate on a missing report = %v, want exit status 2\n%s", err, out)
	}
}
