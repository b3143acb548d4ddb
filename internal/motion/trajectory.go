// Package motion models how humans (and robots) move inside the imaged
// room: piecewise-linear waypoint trajectories, seeded random walks,
// gesture steps (forward/backward), and the body micro-motion that makes
// real tracking traces fuzzy (§7.3 of the paper).
//
// A Trajectory maps time (seconds) to a position in the scene plane. All
// generators are deterministic given an rng.Stream.
package motion

import (
	"fmt"
	"math"
	"sort"

	"wivi/internal/geom"
	"wivi/internal/rng"
)

// Trajectory yields a position for every time t >= 0.
type Trajectory interface {
	// At returns the position at time t (seconds). Implementations must be
	// pure: the same t always yields the same point.
	At(t float64) geom.Point
	// Duration returns the time span covered by the trajectory; At clamps
	// beyond it.
	Duration() float64
}

// Static is a trajectory that never moves.
type Static struct{ P geom.Point }

// At implements Trajectory.
func (s Static) At(float64) geom.Point { return s.P }

// Duration implements Trajectory.
func (s Static) Duration() float64 { return 0 }

// Waypoint is a piecewise-linear trajectory through timestamped points.
type Waypoint struct {
	times  []float64
	points []geom.Point
}

// NewWaypoint builds a trajectory from parallel slices of times and
// points. Times must be strictly increasing and non-empty; it returns an
// error otherwise.
func NewWaypoint(times []float64, points []geom.Point) (*Waypoint, error) {
	if len(times) == 0 || len(times) != len(points) {
		return nil, fmt.Errorf("motion: waypoint needs equal non-empty times/points, got %d/%d",
			len(times), len(points))
	}
	for i := 1; i < len(times); i++ {
		if times[i] <= times[i-1] {
			return nil, fmt.Errorf("motion: waypoint times not increasing at %d (%v <= %v)",
				i, times[i], times[i-1])
		}
	}
	w := &Waypoint{times: append([]float64(nil), times...), points: append([]geom.Point(nil), points...)}
	return w, nil
}

// PathThrough builds a constant-speed trajectory through the given points
// starting at t = 0. speed must be positive; at least one point is
// required.
func PathThrough(speed float64, points ...geom.Point) (*Waypoint, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("motion: PathThrough needs at least one point")
	}
	if speed <= 0 {
		return nil, fmt.Errorf("motion: PathThrough speed must be positive, got %v", speed)
	}
	times := make([]float64, len(points))
	for i := 1; i < len(points); i++ {
		d := points[i].Dist(points[i-1])
		dt := d / speed
		if dt <= 0 {
			dt = 1e-3 // coincident waypoints: hold briefly
		}
		times[i] = times[i-1] + dt
	}
	return NewWaypoint(times, points)
}

// At implements Trajectory with linear interpolation and clamping.
func (w *Waypoint) At(t float64) geom.Point {
	if t <= w.times[0] {
		return w.points[0]
	}
	last := len(w.times) - 1
	if t >= w.times[last] {
		return w.points[last]
	}
	// Binary search for the segment containing t.
	i := sort.SearchFloat64s(w.times, t)
	// times[i-1] < t <= times[i]
	t0, t1 := w.times[i-1], w.times[i]
	frac := (t - t0) / (t1 - t0)
	p0, p1 := w.points[i-1], w.points[i]
	return geom.Point{
		X: p0.X + frac*(p1.X-p0.X),
		Y: p0.Y + frac*(p1.Y-p0.Y),
	}
}

// Duration implements Trajectory.
func (w *Waypoint) Duration() float64 { return w.times[len(w.times)-1] }

// Velocity returns the instantaneous velocity vector at time t using the
// segment slope (zero outside the time span and at pauses).
func (w *Waypoint) Velocity(t float64) geom.Vec {
	if t <= w.times[0] || t >= w.times[len(w.times)-1] {
		return geom.Vec{}
	}
	i := sort.SearchFloat64s(w.times, t)
	dt := w.times[i] - w.times[i-1]
	d := w.points[i].Sub(w.points[i-1])
	return d.Scale(1 / dt)
}

// RandomWalkConfig parameterizes NewRandomWalk.
type RandomWalkConfig struct {
	// Room bounds the walk; waypoints stay within Room shrunk by
	// walkMargin.
	Room geom.Rect
	// Duration is the total walk time in seconds.
	Duration float64
}

// The random walk's gait.
const (
	// walkMargin keeps walkers away from the walls (meters).
	walkMargin = 0.5
	// meanSpeed is the average walking speed (m/s). The paper assumes
	// comfortable indoor walking, v = 1 m/s (§5.1).
	meanSpeed = 1.0
	// speedJitter is the std-dev of per-leg speed variation (m/s).
	speedJitter = 0.15
	// pauseProb is the probability of pausing at each waypoint.
	pauseProb = 0.2
	// pauseMax is the maximum pause duration in seconds.
	pauseMax = 1.5
	// minHop is the shortest hop taken (meters); a shorter draw is
	// skipped and drawn again.
	minHop = 0.3
	// maxSkippedHops is how many hops in a row may be skipped before the
	// walk gives up: in an area too tight for hops of minHop, skipping
	// would never end. In the 6 × 3 m walkable area of the default room a
	// hop is skipped with probability under 0.02.
	maxSkippedHops = 1000
)

// NewRandomWalk generates a "move at will" trajectory inside a room
// (§7.2: subjects enter the room, close the door, and move at will).
// It returns an error when the room, shrunk by the wall margin, cannot
// hold a hop of minHop, or when maxSkippedHops hops in a row fall short.
func NewRandomWalk(s *rng.Stream, cfg RandomWalkConfig) (*Waypoint, error) {
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("motion: random walk needs positive duration")
	}
	area := cfg.Room.Shrink(walkMargin)
	if w, h := area.Width(), area.Height(); math.Hypot(w, h) < minHop {
		return nil, fmt.Errorf("motion: random walk area %.2f x %.2f m cannot hold a %.1f m hop", w, h, minHop)
	}
	randPoint := func() geom.Point {
		return geom.Point{
			X: s.Uniform(area.Min.X, area.Max.X),
			Y: s.Uniform(area.Min.Y, area.Max.Y),
		}
	}
	start := randPoint()
	times := []float64{0}
	points := []geom.Point{start}
	t := 0.0
	cur := start
	skipped := 0
	for t < cfg.Duration {
		next := randPoint()
		d := next.Dist(cur)
		if d < minHop {
			skipped++
			if skipped == maxSkippedHops {
				return nil, fmt.Errorf("motion: random walk skipped %d hops in a row shorter than %.1f m", skipped, minHop)
			}
			continue
		}
		skipped = 0
		speed := math.Max(0.3, s.Gaussian(meanSpeed, speedJitter))
		t += d / speed
		times = append(times, t)
		points = append(points, next)
		cur = next
		if s.Float64() < pauseProb {
			pause := s.Uniform(0.2, pauseMax)
			t += pause
			times = append(times, t)
			points = append(points, cur)
		}
	}
	return NewWaypoint(times, points)
}
