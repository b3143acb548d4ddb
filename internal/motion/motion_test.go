package motion

import (
	"math"
	"testing"

	"wivi/internal/geom"
	"wivi/internal/rng"
)

func TestStatic(t *testing.T) {
	s := Static{P: geom.Point{X: 1, Y: 2}}
	if s.At(0) != s.At(100) {
		t.Fatal("static trajectory moved")
	}
	if s.Duration() != 0 {
		t.Fatal("static duration != 0")
	}
}

func TestWaypointValidation(t *testing.T) {
	if _, err := NewWaypoint(nil, nil); err == nil {
		t.Fatal("empty waypoint accepted")
	}
	if _, err := NewWaypoint([]float64{0, 0}, []geom.Point{{}, {}}); err == nil {
		t.Fatal("non-increasing times accepted")
	}
	if _, err := NewWaypoint([]float64{0}, []geom.Point{{}, {}}); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestWaypointInterpolation(t *testing.T) {
	w, err := NewWaypoint(
		[]float64{0, 2},
		[]geom.Point{{X: 0, Y: 0}, {X: 4, Y: 0}},
	)
	if err != nil {
		t.Fatal(err)
	}
	mid := w.At(1)
	if math.Abs(mid.X-2) > 1e-12 || mid.Y != 0 {
		t.Fatalf("At(1) = %v", mid)
	}
	// Clamping.
	if w.At(-5) != (geom.Point{X: 0, Y: 0}) {
		t.Fatal("pre-start not clamped")
	}
	if w.At(99) != (geom.Point{X: 4, Y: 0}) {
		t.Fatal("post-end not clamped")
	}
	if w.Duration() != 2 {
		t.Fatalf("Duration = %v", w.Duration())
	}
}

func TestWaypointVelocity(t *testing.T) {
	w, _ := NewWaypoint(
		[]float64{0, 2, 3},
		[]geom.Point{{X: 0, Y: 0}, {X: 4, Y: 0}, {X: 4, Y: 0}},
	)
	v := w.Velocity(1)
	if math.Abs(v.X-2) > 1e-12 || v.Y != 0 {
		t.Fatalf("Velocity = %v, want (2,0)", v)
	}
	// Pause segment has zero velocity.
	if pv := w.Velocity(2.5); pv.Len() != 0 {
		t.Fatalf("pause velocity = %v", pv)
	}
	if ov := w.Velocity(50); ov.Len() != 0 {
		t.Fatal("out-of-range velocity nonzero")
	}
}

func TestPathThroughConstantSpeed(t *testing.T) {
	w, err := PathThrough(2, geom.Point{X: 0, Y: 0}, geom.Point{X: 4, Y: 0}, geom.Point{X: 4, Y: 4})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w.Duration()-4) > 1e-12 {
		t.Fatalf("duration = %v, want 4 (8 m at 2 m/s)", w.Duration())
	}
	if _, err := PathThrough(0, geom.Point{}); err == nil {
		t.Fatal("zero speed accepted")
	}
	if _, err := PathThrough(1); err == nil {
		t.Fatal("no points accepted")
	}
}

func TestRandomWalkStaysInRoom(t *testing.T) {
	room := geom.NewRect(geom.Point{X: 0, Y: 1}, geom.Point{X: 7, Y: 5})
	s := rng.New(42)
	w, err := NewRandomWalk(s, RandomWalkConfig{Room: room, Duration: 30})
	if err != nil {
		t.Fatal(err)
	}
	if w.Duration() < 30 {
		t.Fatalf("walk too short: %v s", w.Duration())
	}
	for tt := 0.0; tt <= w.Duration(); tt += 0.1 {
		p := w.At(tt)
		if !room.Contains(p) {
			t.Fatalf("walker escaped room at t=%v: %v", tt, p)
		}
	}
}

func TestRandomWalkDeterminism(t *testing.T) {
	room := geom.NewRect(geom.Point{X: 0, Y: 0}, geom.Point{X: 5, Y: 5})
	w1, _ := NewRandomWalk(rng.New(7), RandomWalkConfig{Room: room, Duration: 10})
	w2, _ := NewRandomWalk(rng.New(7), RandomWalkConfig{Room: room, Duration: 10})
	for tt := 0.0; tt < 10; tt += 0.5 {
		if w1.At(tt) != w2.At(tt) {
			t.Fatal("same seed produced different walks")
		}
	}
}

// TestRandomWalkTightArea: an area whose diagonal is under the shortest
// hop is refused, and an area that holds such a hop only from near its
// corners gives up after maxSkippedHops skips in a row, where both used
// to skip hops forever.
func TestRandomWalkTightArea(t *testing.T) {
	room := func(side float64) geom.Rect {
		return geom.NewRect(geom.Point{X: 0, Y: 0}, geom.Point{X: side, Y: side})
	}
	if _, err := NewRandomWalk(rng.New(1), RandomWalkConfig{Room: room(1.2), Duration: 2}); err == nil {
		t.Fatal("a 0.2 m walkable area accepted")
	}
	// A 0.3 m square holds a 0.3 m hop only between points near opposite
	// corners, so a walk from its center can never leave.
	failed := 0
	for seed := range int64(20) {
		if _, err := NewRandomWalk(rng.New(seed), RandomWalkConfig{Room: room(1.3), Duration: 2}); err != nil {
			failed++
		}
	}
	t.Logf("%d of 20 walks in a 0.3 m walkable square gave up", failed)
	if failed == 0 {
		t.Fatal("no walk in a 0.3 m walkable square gave up")
	}
}

func TestRandomWalkRejectsZeroDuration(t *testing.T) {
	if _, err := NewRandomWalk(rng.New(1), RandomWalkConfig{Room: geom.NewRect(geom.Point{}, geom.Point{X: 5, Y: 5})}); err == nil {
		t.Fatal("zero duration accepted")
	}
}

func TestBitSteps(t *testing.T) {
	s0 := Bit0.Steps()
	if s0[0] != StepForward || s0[1] != StepBackward {
		t.Fatalf("Bit0 steps = %v", s0)
	}
	s1 := Bit1.Steps()
	if s1[0] != StepBackward || s1[1] != StepForward {
		t.Fatalf("Bit1 steps = %v", s1)
	}
	if StepForward.String() != "forward" || StepBackward.String() != "backward" {
		t.Fatal("step direction strings wrong")
	}
}

func TestGestureTrajectoryBit0MovesTowardDevice(t *testing.T) {
	base := geom.Point{X: 0, Y: 4}
	// Device at origin: "toward device" is -y.
	dir := geom.Vec{X: 0, Y: -1}
	p := DefaultGestureParams()
	w, err := NewGestureTrajectory(base, dir, []Bit{Bit0}, p, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// During the first step the subject must approach the device.
	d0 := w.At(0.5).Dist(geom.Point{})
	d1 := w.At(0.5 + p.StepDur).Dist(geom.Point{})
	if d1 >= d0 {
		t.Fatalf("bit 0 first step did not approach device: %v -> %v", d0, d1)
	}
	// Composability: the subject ends (nearly) where they started, modulo
	// the backward-shrink asymmetry.
	end := w.At(w.Duration())
	if end.Dist(base) > p.StepLen*(1-p.BackwardShrink)+1e-9 {
		t.Fatalf("gesture not composable: ended %v from base", end.Dist(base))
	}
}

func TestGestureTrajectoryBit1MovesAwayFirst(t *testing.T) {
	base := geom.Point{X: 0, Y: 4}
	dir := geom.Vec{X: 0, Y: -1}
	p := DefaultGestureParams()
	w, err := NewGestureTrajectory(base, dir, []Bit{Bit1}, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	d0 := base.Dist(geom.Point{})
	d1 := w.At(p.StepDur).Dist(geom.Point{})
	if d1 <= d0 {
		t.Fatalf("bit 1 first step did not retreat: %v -> %v", d0, d1)
	}
}

func TestGestureTrajectoryRejectsZeroDir(t *testing.T) {
	if _, err := NewGestureTrajectory(geom.Point{}, geom.Vec{}, []Bit{Bit0}, DefaultGestureParams(), 0); err == nil {
		t.Fatal("zero direction accepted")
	}
}

func TestMessageDurationMatchesPaperScale(t *testing.T) {
	// The paper: 4-gesture message took on average 8.8 s; per-gesture
	// average 2.2 s (std 0.4). Our defaults must land in that regime.
	p := DefaultGestureParams()
	if g := p.GestureDuration(); g < 1.5 || g > 3.0 {
		t.Fatalf("gesture duration %v s out of paper range", g)
	}
	d := MessageDuration(4, p, 1.0)
	if d < 7 || d > 16 {
		t.Fatalf("4-bit message duration %v s, want ~9-13 s", d)
	}
}

func TestRandomizeGestureParamsRanges(t *testing.T) {
	s := rng.New(3)
	for i := 0; i < 50; i++ {
		p := RandomizeGestureParams(s)
		if p.StepLen < 0.6 || p.StepLen > 0.9 {
			t.Fatalf("StepLen %v out of range", p.StepLen)
		}
		if p.BackwardShrink < 0.7 || p.BackwardShrink > 0.9 {
			t.Fatalf("BackwardShrink %v out of range", p.BackwardShrink)
		}
	}
}

func TestJitterStaysNearBase(t *testing.T) {
	base := Static{P: geom.Point{X: 2, Y: 3}}
	j := NewJitter(base, DefaultJitter(), 10, rng.New(5))
	var maxDev float64
	for tt := 0.0; tt < 10; tt += 0.05 {
		d := j.At(tt).Dist(base.P)
		if d > maxDev {
			maxDev = d
		}
	}
	if maxDev == 0 {
		t.Fatal("jitter produced no motion")
	}
	if maxDev > 0.5 {
		t.Fatalf("jitter deviation %v m too large for torso sway", maxDev)
	}
}

func TestJitterDeterministic(t *testing.T) {
	base := Static{P: geom.Point{}}
	j1 := NewJitter(base, DefaultJitter(), 5, rng.New(9))
	j2 := NewJitter(base, DefaultJitter(), 5, rng.New(9))
	for tt := 0.0; tt < 5; tt += 0.3 {
		if j1.At(tt) != j2.At(tt) {
			t.Fatal("jitter not deterministic")
		}
	}
	// Same t twice must give the same answer (purity).
	if j1.At(1.234) != j1.At(1.234) {
		t.Fatal("jitter At not pure")
	}
}

func TestOffsetTrajectory(t *testing.T) {
	base := Static{P: geom.Point{X: 1, Y: 1}}
	o := Offset{Base: base, D: geom.Vec{X: 0.3, Y: -0.2}}
	p := o.At(0)
	if math.Abs(p.X-1.3) > 1e-12 || math.Abs(p.Y-0.8) > 1e-12 {
		t.Fatalf("Offset.At = %v", p)
	}
	if o.Duration() != base.Duration() {
		t.Fatal("Offset duration mismatch")
	}
}
