package main

import (
	"strings"
	"testing"
)

// TestParseArgs serves every invocation the Makefile, CI and the docs
// make, applies each mode's default -batch, and rejects a flag outside
// the mode it applies to.
func TestParseArgs(t *testing.T) {
	for _, tc := range []struct {
		args  string
		mode  string
		batch int
	}{
		{"", "eval", 0},
		{"-quick -run F5.2", "eval", 0},
		{"-quick -workers 4", "eval", 0},
		{"-mode batch -batch 8 -workers 8 -trackdur 2", "batch", 8},
		{"-mode stream -batch 4 -trackdur 2", "stream", 4},
		{"-mode mixed -trackdur 2", "mixed", 2},
		{"-mode paced -batch 2 -trackdur 2", "paced", 2},
		{"-mode serve -addr http://127.0.0.1:8080 -batch 2 -trackdur 1", "serve", 2},
		{"-mode serve", "serve", 4},
		{"-mode tenants -batch 2 -trackdur 1", "tenants", 2},
	} {
		c, err := parseArgs(strings.Fields(tc.args))
		if err != nil {
			t.Errorf("%q: %v", tc.args, err)
			continue
		}
		if c.mode != tc.mode || c.batch != tc.batch || c.workers < 1 {
			t.Errorf("%q: mode %q batch %d workers %d, want mode %q batch %d and workers >= 1",
				tc.args, c.mode, c.batch, c.workers, tc.mode, tc.batch)
		}
	}
	for _, args := range []string{
		"-mode nope",
		"-mode stream -quick",
		"-mode batch -run F5.2",
		"-mode tenants -addr http://127.0.0.1:8080",
		"-addr http://127.0.0.1:8080",
		"-batch 8",
		"-mode paced extra",
		"-json",
	} {
		if _, err := parseArgs(strings.Fields(args)); err == nil {
			t.Errorf("%q accepted", args)
		}
	}
}
