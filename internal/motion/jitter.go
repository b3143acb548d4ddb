package motion

import (
	"math"
	"sync"
	"sync/atomic"

	"wivi/internal/geom"
	"wivi/internal/rng"
)

// Jitter wraps a base trajectory with body micro-motion: the torso sways
// and limbs move in a loosely coupled way, which is why tracking lines in
// the paper's figures are fuzzy (§7.3: "a human can move his body parts
// differently as he moves"). The jitter is an Ornstein-Uhlenbeck process
// sampled on a fixed grid, point i being the i-th pair of Norm draws of
// its stream.
//
// The grid is drawn as read: At draws every point up to the last one it
// needs, in grid order, the first time it reads past what is drawn. So
// each point is the same whichever goroutine, or whichever order of
// reads, reaches it first, and At stays a pure function of t, safe for
// concurrent use. A read within what is drawn costs one atomic load.
// The points past the last read, the padding included, are drawn only
// once a read needs more than rng.OutputsBeforeRegister/2 points. The
// stream then holds its register, so the whole grid is drawn and the
// stream, register and all, is dropped.
type Jitter struct {
	base         Trajectory
	dt           float64
	alpha, sigma float64
	dx, dy       []float64
	// drawn counts the grid points drawn so far. At loads it
	// atomically; draw stores it once the points below it are written.
	drawn atomic.Int64
	// mu serializes draw, which alone writes the fields below and the
	// grid past drawn.
	mu sync.Mutex
	// x and y are the OU state at the last drawn point.
	x, y float64
	// s is the sway's stream, nil once the last point is drawn.
	s *rng.Stream
}

// JitterConfig parameterizes body micro-motion.
type JitterConfig struct {
	// AmpMeters is the RMS sway amplitude (typical 0.02-0.06 m).
	AmpMeters float64
	// CorrTime is the correlation time of the sway in seconds.
	CorrTime float64
	// SampleDT is the internal sampling resolution. Default 0.02 s.
	SampleDT float64
}

// DefaultJitter returns torso-scale micro-motion.
func DefaultJitter() JitterConfig {
	return JitterConfig{AmpMeters: 0.03, CorrTime: 0.5, SampleDT: 0.02}
}

// LimbJitter returns the larger, faster micro-motion of a swinging limb.
func LimbJitter() JitterConfig {
	return JitterConfig{AmpMeters: 0.12, CorrTime: 0.25, SampleDT: 0.02}
}

// NewJitter wraps base with micro-motion over its whole duration
// (plus padding seconds beyond it), drawn from s. It sizes the grid
// and draws nothing: At draws each point on first read.
func NewJitter(base Trajectory, cfg JitterConfig, padding float64, s *rng.Stream) *Jitter {
	if cfg.SampleDT <= 0 {
		cfg.SampleDT = 0.02
	}
	if cfg.CorrTime <= 0 {
		cfg.CorrTime = 0.5
	}
	dur := base.Duration() + padding
	n := int(dur/cfg.SampleDT) + 2
	// Ornstein-Uhlenbeck: x' = -x/tau + sqrt(2/tau)*amp*noise
	alpha := cfg.SampleDT / cfg.CorrTime
	if alpha > 1 {
		alpha = 1
	}
	return &Jitter{
		base:  base,
		dt:    cfg.SampleDT,
		alpha: alpha,
		sigma: cfg.AmpMeters * math.Sqrt(2*alpha),
		dx:    make([]float64, n),
		dy:    make([]float64, n),
		s:     s,
	}
}

// At implements Trajectory: base position plus interpolated sway.
func (j *Jitter) At(t float64) geom.Point {
	p := j.base.At(t)
	if t < 0 {
		t = 0
	}
	idx := t / j.dt
	i := int(idx)
	if i >= len(j.dx)-1 {
		i = len(j.dx) - 2
	}
	if int(j.drawn.Load()) < i+2 {
		j.draw(i + 2)
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

// draw draws the grid points below n that no read has drawn yet, in
// grid order, and publishes the new count.
func (j *Jitter) draw(n int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	i := int(j.drawn.Load())
	if i >= n {
		return // another read drew them first
	}
	// A point takes two Norm draws, each at least one source output, so
	// past OutputsBeforeRegister/2 points the stream holds its register.
	if 2*n > rng.OutputsBeforeRegister {
		n = len(j.dx)
	}
	for ; i < n; i++ {
		j.x += -j.alpha*j.x + j.sigma*j.s.Norm()
		j.y += -j.alpha*j.y + j.sigma*j.s.Norm()
		j.dx[i] = j.x
		j.dy[i] = j.y
	}
	j.drawn.Store(int64(n))
	if n == len(j.dx) {
		j.s = nil
	}
}

// Duration implements Trajectory.
func (j *Jitter) Duration() float64 { return j.base.Duration() }

// Offset shifts a base trajectory by a constant displacement; used to
// model limbs hanging off the torso trajectory.
type Offset struct {
	Base Trajectory
	D    geom.Vec
}

// At implements Trajectory.
func (o Offset) At(t float64) geom.Point { return o.Base.At(t).Add(o.D) }

// Duration implements Trajectory.
func (o Offset) Duration() float64 { return o.Base.Duration() }
