package main

import (
	"strings"
	"testing"

	"wivi/internal/eval"
)

// TestParseArgs serves every invocation the Makefile, CI and the docs
// make, selects one experiment by its ID in any case, and rejects an
// unknown ID (naming the valid ones), a flag the command does not have
// and stray arguments.
func TestParseArgs(t *testing.T) {
	all := len(eval.Experiments())
	for _, tc := range []struct {
		args string
		exps int
	}{
		{"", all},
		{"-quick -run F5.2", 1},
		{"-quick -run f5.2", 1},
		{"-quick -workers 4", all},
		{"-seed 7 -workers 1", all},
	} {
		c, err := parseArgs(strings.Fields(tc.args))
		if err != nil {
			t.Errorf("%q: %v", tc.args, err)
			continue
		}
		if len(c.exps) != tc.exps || c.workers < 1 {
			t.Errorf("%q: %d experiments, %d workers; want %d experiments and workers >= 1",
				tc.args, len(c.exps), c.workers, tc.exps)
		}
		if tc.exps == 1 && c.exps[0].ID != "F5.2" {
			t.Errorf("%q selected %s, want F5.2", tc.args, c.exps[0].ID)
		}
	}
	if _, err := parseArgs([]string{"-run", "NOPE"}); err == nil || !strings.Contains(err.Error(), "F7.4") {
		t.Errorf("-run NOPE: %v, want an error naming the experiment IDs", err)
	}
	for _, args := range []string{
		"-mode eval",
		"-batch 8",
		"-quick extra",
		"-json",
	} {
		if _, err := parseArgs(strings.Fields(args)); err == nil {
			t.Errorf("%q accepted", args)
		}
	}
}
