package geom

import (
	"math"
	"testing"
	"testing/quick"

	"wivi/internal/rng"
)

func TestPointOps(t *testing.T) {
	p := Point{1, 2}
	q := Point{4, 6}
	if d := p.Dist(q); math.Abs(d-5) > 1e-12 {
		t.Fatalf("Dist = %v", d)
	}
	v := q.Sub(p)
	if v.X != 3 || v.Y != 4 {
		t.Fatalf("Sub = %v", v)
	}
	if got := p.Add(v); got != q {
		t.Fatalf("Add = %v", got)
	}
}

func TestVecOps(t *testing.T) {
	v := Vec{3, 4}
	if l := v.Len(); math.Abs(l-5) > 1e-12 {
		t.Fatalf("Len = %v", l)
	}
	u := v.Unit()
	if math.Abs(u.Len()-1) > 1e-12 {
		t.Fatalf("Unit len = %v", u.Len())
	}
	if z := (Vec{}).Unit(); z.X != 0 || z.Y != 0 {
		t.Fatal("zero Unit changed")
	}
	if d := v.Dot(Vec{1, 0}); d != 3 {
		t.Fatalf("Dot = %v", d)
	}
	if c := (Vec{1, 0}).Cross(Vec{0, 1}); c != 1 {
		t.Fatalf("Cross = %v", c)
	}
}

func TestVecRotate(t *testing.T) {
	v := Vec{1, 0}
	r := v.Rotate(math.Pi / 2)
	if math.Abs(r.X) > 1e-12 || math.Abs(r.Y-1) > 1e-12 {
		t.Fatalf("Rotate = %v", r)
	}
}

// TestRotatePreservesLength is a property test.
func TestRotatePreservesLength(t *testing.T) {
	seed := int64(0)
	f := func() bool {
		r := rng.New(seed)
		seed++
		v := Vec{r.Norm() * 10, r.Norm() * 10}
		th := r.Float64() * 2 * math.Pi
		return math.Abs(v.Rotate(th).Len()-v.Len()) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRect(t *testing.T) {
	r := NewRect(Point{5, 5}, Point{1, 2})
	if r.Min.X != 1 || r.Min.Y != 2 || r.Max.X != 5 || r.Max.Y != 5 {
		t.Fatalf("NewRect normalization failed: %+v", r)
	}
	if !r.Contains(Point{3, 3}) || r.Contains(Point{0, 0}) {
		t.Fatal("Contains wrong")
	}
	c := r.Clamp(Point{10, 0})
	if c.X != 5 || c.Y != 2 {
		t.Fatalf("Clamp = %v", c)
	}
	if r.Width() != 4 || r.Height() != 3 {
		t.Fatalf("Width/Height = %v/%v", r.Width(), r.Height())
	}
	if ctr := r.Center(); ctr.X != 3 || ctr.Y != 3.5 {
		t.Fatalf("Center = %v", ctr)
	}
}

func TestRectShrink(t *testing.T) {
	r := NewRect(Point{0, 0}, Point{4, 4})
	s := r.Shrink(1)
	if s.Min.X != 1 || s.Max.X != 3 {
		t.Fatalf("Shrink = %+v", s)
	}
	// Over-shrink degenerates to center, never inverts.
	d := r.Shrink(10)
	if d.Min.X > d.Max.X || d.Min.Y > d.Max.Y {
		t.Fatalf("Shrink inverted: %+v", d)
	}
}

func TestDegRadConversions(t *testing.T) {
	if math.Abs(Deg2Rad(180)-math.Pi) > 1e-12 {
		t.Fatal("Deg2Rad")
	}
	if math.Abs(Rad2Deg(math.Pi/2)-90) > 1e-12 {
		t.Fatal("Rad2Deg")
	}
}
