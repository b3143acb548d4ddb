package main

import (
	"math"
	"testing"
	"time"
)

// onePart is a part of 2 s with one 100 ms request of 10 frames, a
// 50 ms set-up and 40 ms of CPU, probed at twice the nominal speed
// before it and at the nominal speed after it.
func onePart() *part {
	t0 := time.Unix(100, 0)
	s := sample{due: t0, sent: t0, outcome: outcome{end: t0.Add(100 * time.Millisecond), frames: 10}}
	return &part{
		setup:   50 * time.Millisecond,
		samples: []sample{s},
		start:   t0,
		end:     t0.Add(2 * time.Second),
		cpu:     40 * time.Millisecond,
		mallocs: 70,
		before:  2 * nominalSpeed,
		after:   nominalSpeed,
	}
}

// Scaling to the nominal host speed applies to what the CPU's speed
// sets, not to what a schedule sets, and to nothing on paced radios.
func TestScalingFollowsWhatSetsThePace(t *testing.T) {
	const run, setup = 1.5, 2.0 // the part's mean probe, and the one before the set-up
	closed := &workload{devices: []deviceSpec{{}}, next: func(int) (request, bool) { return request{}, false }}
	open := &workload{devices: []deviceSpec{{}}, arrivals: func(int64, int) []request { return nil }}
	paced := &workload{devices: []deviceSpec{{paced: true}}, arrivals: func(int64, int) []request { return nil }}
	for _, c := range []struct {
		name string
		w    *workload
		want map[string]float64
	}{
		{"closed", closed, map[string]float64{"frames_per_s": 5 / run, "requests_per_s": 0.5 / run,
			"cpu_ms_per_frame": 4 * run, "request_p50_ms": 100 * run, "setup_s": 0.05 * setup}},
		{"open", open, map[string]float64{"frames_per_s": 5, "requests_per_s": 0.5,
			"cpu_ms_per_frame": 4 * run, "request_p50_ms": 100 * run, "setup_s": 0.05 * setup}},
		{"paced", paced, map[string]float64{"frames_per_s": 5, "requests_per_s": 0.5,
			"cpu_ms_per_frame": 4, "request_p50_ms": 100, "setup_s": 0.05}},
	} {
		scaled := e2e(c.w, []*part{onePart()}, true)
		unscaled := e2e(c.w, []*part{onePart()}, false)
		for name, want := range c.want {
			if got := scaled[name]; math.Abs(got-want) > 1e-9*want {
				t.Errorf("%s: scaled %s = %v, want %v", c.name, name, got, want)
			}
		}
		if scaled["allocs_per_frame"] != 7 || unscaled["allocs_per_frame"] != 7 {
			t.Errorf("%s: allocs per frame %v scaled, %v unscaled; want 7 either way",
				c.name, scaled["allocs_per_frame"], unscaled["allocs_per_frame"])
		}
		if unscaled["frames_per_s"] != 5 || unscaled["request_p50_ms"] != 100 || unscaled["setup_s"] != 0.05 {
			t.Errorf("%s: unscaled figures %v", c.name, unscaled)
		}
	}
}
