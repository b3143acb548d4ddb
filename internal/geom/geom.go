// Package geom provides the 2-D geometry used by the Wi-Vi propagation
// simulator: points, vectors, line segments, and rooms.
//
// The scene is modeled in the horizontal plane. The Wi-Vi device sits
// outside a room and faces the wall; humans move inside the room. The +y
// axis points from the device into the room ("through the wall"); x runs
// along the wall.
package geom

import (
	"fmt"
	"math"
)

// Point is a location in the 2-D scene plane, in meters.
type Point struct {
	X, Y float64
}

// Vec is a displacement in meters.
type Vec struct {
	X, Y float64
}

// Add returns p displaced by v.
func (p Point) Add(v Vec) Point { return Point{p.X + v.X, p.Y + v.Y} }

// Sub returns the vector from q to p.
func (p Point) Sub(q Point) Vec { return Vec{p.X - q.X, p.Y - q.Y} }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Hypot(dx, dy)
}

// String renders the point for diagnostics.
func (p Point) String() string { return fmt.Sprintf("(%.2f, %.2f)", p.X, p.Y) }

// Len returns the Euclidean length of v.
func (v Vec) Len() float64 { return math.Hypot(v.X, v.Y) }

// Scale returns v scaled by a.
func (v Vec) Scale(a float64) Vec { return Vec{v.X * a, v.Y * a} }

// Add returns v + w.
func (v Vec) Add(w Vec) Vec { return Vec{v.X + w.X, v.Y + w.Y} }

// Dot returns the dot product v . w.
func (v Vec) Dot(w Vec) float64 { return v.X*w.X + v.Y*w.Y }

// Cross returns the z-component of the 3-D cross product v x w.
func (v Vec) Cross(w Vec) float64 { return v.X*w.Y - v.Y*w.X }

// Unit returns v normalized to unit length; the zero vector is returned
// unchanged.
func (v Vec) Unit() Vec {
	l := v.Len()
	if l == 0 {
		return v
	}
	return Vec{v.X / l, v.Y / l}
}

// Rotate returns v rotated by theta radians counter-clockwise.
func (v Vec) Rotate(theta float64) Vec {
	c, s := math.Cos(theta), math.Sin(theta)
	return Vec{v.X*c - v.Y*s, v.X*s + v.Y*c}
}

// Segment is a line segment between two points.
type Segment struct {
	A, B Point
}

// Len returns the segment length.
func (s Segment) Len() float64 { return s.A.Dist(s.B) }

// Midpoint returns the segment midpoint.
func (s Segment) Midpoint() Point {
	return Point{(s.A.X + s.B.X) / 2, (s.A.Y + s.B.Y) / 2}
}

// Intersects reports whether segments s and t properly intersect or touch.
func (s Segment) Intersects(t Segment) bool {
	d1 := t.B.Sub(t.A).Cross(s.A.Sub(t.A))
	d2 := t.B.Sub(t.A).Cross(s.B.Sub(t.A))
	d3 := s.B.Sub(s.A).Cross(t.A.Sub(s.A))
	d4 := s.B.Sub(s.A).Cross(t.B.Sub(s.A))
	if ((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) &&
		((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0)) {
		return true
	}
	onSeg := func(p, a, b Point) bool {
		return math.Min(a.X, b.X)-1e-12 <= p.X && p.X <= math.Max(a.X, b.X)+1e-12 &&
			math.Min(a.Y, b.Y)-1e-12 <= p.Y && p.Y <= math.Max(a.Y, b.Y)+1e-12
	}
	switch {
	case d1 == 0 && onSeg(s.A, t.A, t.B):
		return true
	case d2 == 0 && onSeg(s.B, t.A, t.B):
		return true
	case d3 == 0 && onSeg(t.A, s.A, s.B):
		return true
	case d4 == 0 && onSeg(t.B, s.A, s.B):
		return true
	}
	return false
}

// Rect is an axis-aligned rectangle (e.g. a room footprint).
type Rect struct {
	Min, Max Point
}

// NewRect returns the rectangle spanning the two corner points in any order.
func NewRect(a, b Point) Rect {
	return Rect{
		Min: Point{math.Min(a.X, b.X), math.Min(a.Y, b.Y)},
		Max: Point{math.Max(a.X, b.X), math.Max(a.Y, b.Y)},
	}
}

// Contains reports whether p lies inside or on the rectangle boundary.
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// Clamp returns p moved to the nearest point inside the rectangle.
func (r Rect) Clamp(p Point) Point {
	return Point{
		X: math.Max(r.Min.X, math.Min(r.Max.X, p.X)),
		Y: math.Max(r.Min.Y, math.Min(r.Max.Y, p.Y)),
	}
}

// Width returns the x extent.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the y extent.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Center returns the rectangle center.
func (r Rect) Center() Point {
	return Point{(r.Min.X + r.Max.X) / 2, (r.Min.Y + r.Max.Y) / 2}
}

// Shrink returns the rectangle inset by d on every side. If the inset would
// invert the rectangle, the degenerate center rectangle is returned.
func (r Rect) Shrink(d float64) Rect {
	out := Rect{
		Min: Point{r.Min.X + d, r.Min.Y + d},
		Max: Point{r.Max.X - d, r.Max.Y - d},
	}
	if out.Min.X > out.Max.X {
		c := (r.Min.X + r.Max.X) / 2
		out.Min.X, out.Max.X = c, c
	}
	if out.Min.Y > out.Max.Y {
		c := (r.Min.Y + r.Max.Y) / 2
		out.Min.Y, out.Max.Y = c, c
	}
	return out
}

// Deg2Rad converts degrees to radians.
func Deg2Rad(d float64) float64 { return d * math.Pi / 180 }

// Rad2Deg converts radians to degrees.
func Rad2Deg(r float64) float64 { return r * 180 / math.Pi }
