package motion

import (
	"math"
	"slices"
	"sync"
	"testing"

	"wivi/internal/geom"
	"wivi/internal/rng"
)

// eagerJitter is the Jitter as it was before its grid was drawn as
// read: NewJitter drew every point up front, in grid order, and At only
// interpolated. The lazy Jitter must equal it bit for bit.
type eagerJitter struct {
	base   Trajectory
	dt     float64
	dx, dy []float64
}

func newEagerJitter(base Trajectory, cfg JitterConfig, padding float64, s *rng.Stream) *eagerJitter {
	if cfg.SampleDT <= 0 {
		cfg.SampleDT = 0.02
	}
	if cfg.CorrTime <= 0 {
		cfg.CorrTime = 0.5
	}
	n := int((base.Duration()+padding)/cfg.SampleDT) + 2
	j := &eagerJitter{base: base, dt: cfg.SampleDT, dx: make([]float64, n), dy: make([]float64, n)}
	alpha := cfg.SampleDT / cfg.CorrTime
	if alpha > 1 {
		alpha = 1
	}
	sigma := cfg.AmpMeters * math.Sqrt(2*alpha)
	var x, y float64
	for i := range n {
		x += -alpha*x + sigma*s.Norm()
		y += -alpha*y + sigma*s.Norm()
		j.dx[i], j.dy[i] = x, y
	}
	return j
}

func (j *eagerJitter) At(t float64) geom.Point {
	p := j.base.At(t)
	if t < 0 {
		t = 0
	}
	idx := t / j.dt
	i := int(idx)
	if i >= len(j.dx)-1 {
		i = len(j.dx) - 2
	}
	frac := idx - float64(i)
	if frac < 0 {
		frac = 0
	} else if frac > 1 {
		frac = 1
	}
	return geom.Point{
		X: p.X + j.dx[i]*(1-frac) + j.dx[i+1]*frac,
		Y: p.Y + j.dy[i]*(1-frac) + j.dy[i+1]*frac,
	}
}

// jitterCase is one Jitter configuration the lazy tests compare.
type jitterCase struct {
	name    string
	base    Trajectory
	cfg     JitterConfig
	padding float64
	seed    int64
}

func jitterCases(t *testing.T) []jitterCase {
	walk, err := PathThrough(1, geom.Point{X: -1, Y: 2}, geom.Point{X: 1.5, Y: 2.5}, geom.Point{X: 0, Y: 1})
	if err != nil {
		t.Fatal(err)
	}
	short, err := PathThrough(1, geom.Point{X: 0, Y: 1}, geom.Point{X: 0.3, Y: 1})
	if err != nil {
		t.Fatal(err)
	}
	part := JitterConfig{AmpMeters: 0.032, CorrTime: 0.45, SampleDT: 0.02}
	return []jitterCase{
		{"torso", walk, DefaultJitter(), 2, 1},
		{"limb", walk, LimbJitter(), 2, 2},
		{"part", Offset{Base: short, D: geom.Vec{X: 0.2, Y: 0.06}}, part, 2, 3},
		{"no-padding", short, DefaultJitter(), 0, 4},
		{"static-defaults", Static{P: geom.Point{X: 1, Y: 2}}, JitterConfig{AmpMeters: 0.004}, 0.5, 5},
	}
}

// jitterTimes returns read times covering every grid point, a point
// between each pair, times before 0 and times past the grid's end.
func jitterTimes(c jitterCase) []float64 {
	dt := c.cfg.SampleDT
	if dt <= 0 {
		dt = 0.02
	}
	end := c.base.Duration() + c.padding
	n := int(end/dt) + 2
	ts := []float64{-1, -dt / 3, math.Copysign(0, -1), end + dt, end + 7, 1e6}
	for i := range n {
		ts = append(ts, float64(i)*dt, (float64(i)+0.37)*dt)
	}
	return ts
}

// TestJitterMatchesEagerGrid holds the lazily drawn Jitter equal, bit
// for bit, to the eager reference at every grid point, between points,
// before 0 and past the end, read in ascending, descending and shuffled
// order, each order on a new Jitter.
func TestJitterMatchesEagerGrid(t *testing.T) {
	for _, c := range jitterCases(t) {
		ref := newEagerJitter(c.base, c.cfg, c.padding, rng.New(c.seed))
		asc := jitterTimes(c)
		slices.Sort(asc)
		desc := slices.Clone(asc)
		slices.Reverse(desc)
		shuffled := slices.Clone(asc)
		rng.New(c.seed).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		for _, order := range []struct {
			name string
			ts   []float64
		}{{"ascending", asc}, {"descending", desc}, {"shuffled", shuffled}} {
			j := NewJitter(c.base, c.cfg, c.padding, rng.New(c.seed))
			for _, tt := range order.ts {
				if got, want := j.At(tt), ref.At(tt); got != want {
					t.Fatalf("%s, %s: At(%v) = %v, eager %v", c.name, order.name, tt, got, want)
				}
			}
			if j.s != nil {
				t.Errorf("%s, %s: stream kept after the last point was drawn", c.name, order.name)
			}
		}
	}
}

// TestJitterConcurrentReads holds four goroutines reading one Jitter at
// once, each in its own shuffled order, to the eager reference. Run it
// under -race: the grid past the drawn count is written while other
// goroutines read below it.
func TestJitterConcurrentReads(t *testing.T) {
	const readers = 4
	for _, c := range jitterCases(t) {
		ref := newEagerJitter(c.base, c.cfg, c.padding, rng.New(c.seed))
		j := NewJitter(c.base, c.cfg, c.padding, rng.New(c.seed))
		orders := make([][]float64, readers)
		got := make([][]geom.Point, readers)
		for r := range orders {
			orders[r] = jitterTimes(c)
			rng.New(int64(r)).Shuffle(len(orders[r]), func(i, k int) { orders[r][i], orders[r][k] = orders[r][k], orders[r][i] })
			got[r] = make([]geom.Point, len(orders[r]))
		}
		var wg sync.WaitGroup
		for r := range readers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i, tt := range orders[r] {
					got[r][i] = j.At(tt)
				}
			}()
		}
		wg.Wait()
		for r := range readers {
			for i, tt := range orders[r] {
				if want := ref.At(tt); got[r][i] != want {
					t.Fatalf("%s, reader %d: At(%v) = %v, eager %v", c.name, r, tt, got[r][i], want)
				}
			}
		}
	}
}

// TestJitterDrawsAsRead holds NewJitter to drawing nothing from its
// stream, and a read to drawing only the points it interpolates between.
func TestJitterDrawsAsRead(t *testing.T) {
	base := Static{P: geom.Point{X: 1, Y: 2}}
	s := rng.New(11)
	j := NewJitter(base, DefaultJitter(), 2, s)
	if got, want := s.Float64(), rng.New(11).Float64(); got != want {
		t.Fatalf("NewJitter drew from its stream: next draw %v, want %v", got, want)
	}
	j = NewJitter(base, DefaultJitter(), 2, rng.New(11))
	for _, c := range []struct {
		t     float64
		drawn int64
	}{{-1, 2}, {0, 2}, {0.05, 4}, {0.02, 4}, {0.31, 17}} {
		j.At(c.t)
		if got := j.drawn.Load(); got != c.drawn {
			t.Errorf("after At(%v): %d points drawn, want %d", c.t, got, c.drawn)
		}
	}
	if j.s == nil {
		t.Error("stream dropped before the last point was drawn")
	}
	j.At(1e6)
	if n := int64(len(j.dx)); j.drawn.Load() != n || j.s != nil {
		t.Errorf("after a read past the end: %d of %d points drawn, stream kept %v", j.drawn.Load(), n, j.s != nil)
	}
}
