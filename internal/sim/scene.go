package sim

import (
	"fmt"

	"wivi/internal/geom"
	"wivi/internal/motion"
	"wivi/internal/rf"
	"wivi/internal/rng"
)

// Scene coordinates: the wall lies along the x axis at y = WallY (0); the
// imaged room occupies y > 0 behind it; the Wi-Vi device sits in the
// corridor at y < 0 facing +y.

// Scatterer is a static point reflector (furniture, boards, the radio
// case, the floor bounce, ...).
type Scatterer struct {
	// Pos is the scatterer location.
	Pos geom.Point
	// RCS is the radar cross-section in m^2.
	RCS float64
	// BehindWall marks scatterers inside the room (their reflections
	// traverse the wall twice); clutter on the device side does not.
	BehindWall bool
}

// BodyPart is one scattering center of a human: a trajectory and a radar
// cross-section.
type BodyPart struct {
	// Traj is the part's trajectory.
	Traj motion.Trajectory
	// RCS is the part's radar cross-section in m^2.
	RCS float64
}

// Human is one moving subject, modeled as several scattering centers
// (torso, shoulder, hip, limb) that follow the body but each carry small
// independent micro-motion. This articulation is what makes real traces
// fuzzy (§7.3) — and it matters beyond realism: MIMO nulling suppresses
// any *rigid* scatterer whose two-antenna channel ratio happens to match
// the static flash ratio (the paper's "invisible trajectory" loci, §5.1
// fn. 5). Because a real body's parts move semi-independently, that
// degenerate alignment never persists, so humans are never co-nulled.
type Human struct {
	// Torso is the body-center reference trajectory (used as the
	// subject's ground-truth position).
	Torso motion.Trajectory
	// Parts are the scattering centers (including the torso's own).
	Parts []BodyPart
	// RCS is the total radar cross-section in m^2 (split across Parts).
	RCS float64
	// Name labels the subject in reports.
	Name string
}

// newArticulatedHuman splits rcs across torso/shoulder/hip parts hanging
// off the base trajectory, each with independent micro-motion of the
// given amplitude; extent is the body radius in meters.
func newArticulatedHuman(base motion.Trajectory, rcs, extent, partJitterAmp float64, s *rng.Stream, name string) *Human {
	jc := func(amp float64) motion.JitterConfig {
		return motion.JitterConfig{AmpMeters: amp, CorrTime: 0.45, SampleDT: 0.02}
	}
	part := func(dx, dy, frac, amp float64, label string) BodyPart {
		off := motion.Offset{Base: base, D: geom.Vec{X: dx, Y: dy}}
		return BodyPart{
			Traj: motion.NewJitter(off, jc(amp), 2, s.Derive(label)),
			RCS:  frac * rcs,
		}
	}
	return &Human{
		Torso: base,
		RCS:   rcs,
		Name:  name,
		Parts: []BodyPart{
			part(0, 0, 0.5, partJitterAmp, "part-torso"),
			part(+extent, +0.06, 0.25, 1.6*partJitterAmp, "part-shoulder"),
			part(-0.8*extent, -0.07, 0.25, 1.4*partJitterAmp, "part-hip"),
		},
	}
}

// Scene is a complete through-wall experiment setup.
type Scene struct {
	// Wall is the obstruction material; rf.FreeSpace removes the wall.
	Wall rf.Material
	// WallY is the wall plane's y coordinate.
	WallY float64
	// Room is the imaged room footprint (behind the wall).
	Room geom.Rect
	// Clutter holds the static scatterers.
	Clutter []Scatterer
	// Humans holds the moving subjects.
	Humans []*Human
	// Seed identifies the scene's random draw (for reports).
	Seed int64
}

// HasWall reports whether an obstruction separates the device from the
// room.
func (s *Scene) HasWall() bool { return s.Wall.Name != rf.FreeSpace.Name }

// SceneConfig parameterizes NewScene.
type SceneConfig struct {
	// Seed drives all random scene generation.
	Seed int64
	// Wall is the obstruction material. Default: 6" hollow wall.
	Wall rf.Material
	// RoomWidth and RoomDepth give the room footprint in meters.
	// Defaults: the paper's first conference room, 7 x 4 m (§7.2).
	RoomWidth, RoomDepth float64
	// ClutterCount is the number of static furniture scatterers inside
	// the room. Default 6 (tables, chairs, boards, §7.2).
	ClutterCount int
	// FrontClutterCount is the number of static scatterers on the device
	// side (the table the radio sits on, the floor, the case; §4.1).
	FrontClutterCount int
}

func (c *SceneConfig) applyDefaults() {
	if c.Wall.Name == "" {
		c.Wall = rf.HollowWall
	}
	if c.RoomWidth == 0 {
		c.RoomWidth = 7
	}
	if c.RoomDepth == 0 {
		c.RoomDepth = 4
	}
	if c.ClutterCount == 0 {
		c.ClutterCount = 6
	}
	if c.FrontClutterCount == 0 {
		c.FrontClutterCount = 3
	}
}

// NewScene builds a furnished room behind a wall, with no humans yet.
func NewScene(cfg SceneConfig) *Scene {
	cfg.applyDefaults()
	s := rng.DeriveSeed(cfg.Seed, "scene")
	sc := &Scene{
		Wall:  cfg.Wall,
		WallY: 0,
		Room:  geom.NewRect(geom.Point{X: -cfg.RoomWidth / 2, Y: 0.1}, geom.Point{X: cfg.RoomWidth / 2, Y: 0.1 + cfg.RoomDepth}),
		Seed:  cfg.Seed,
	}
	inner := sc.Room.Shrink(0.3)
	for i := 0; i < cfg.ClutterCount; i++ {
		sc.Clutter = append(sc.Clutter, Scatterer{
			Pos: geom.Point{
				X: s.Uniform(inner.Min.X, inner.Max.X),
				Y: s.Uniform(inner.Min.Y, inner.Max.Y),
			},
			RCS:        s.Uniform(0.05, 0.5),
			BehindWall: true,
		})
	}
	for i := 0; i < cfg.FrontClutterCount; i++ {
		sc.Clutter = append(sc.Clutter, Scatterer{
			Pos: geom.Point{
				X: s.Uniform(-1.5, 1.5),
				Y: s.Uniform(-2.0, -0.2),
			},
			RCS:        s.Uniform(0.02, 0.2),
			BehindWall: false,
		})
	}
	return sc
}

// AddWalker adds a human who "moves at will" in the room for the given
// duration (§7.2-7.3). The walk, sway and limb motion are derived from
// the scene seed and the human's index.
func (sc *Scene) AddWalker(duration float64) (*Human, error) {
	idx := len(sc.Humans)
	s := rng.DeriveSeed(sc.Seed, fmt.Sprintf("walker-%d", idx))
	walk, err := motion.NewRandomWalk(s.Derive("walk"), motion.RandomWalkConfig{
		Room:     sc.Room,
		Duration: duration,
	})
	if err != nil {
		return nil, fmt.Errorf("sim: walker %d: %w", idx, err)
	}
	torso := motion.NewJitter(walk, motion.DefaultJitter(), 2, s.Derive("sway"))
	h := newArticulatedHuman(torso, s.Uniform(0.8, 1.2), s.Uniform(0.15, 0.25), 0.02,
		s.Derive("parts"), fmt.Sprintf("walker-%d", idx))
	// Walkers additionally swing a limb: larger, faster micro-motion on a
	// longer lever (§7.3: waving while moving makes lines fuzzier).
	limbBase := motion.Offset{Base: torso, D: geom.Vec{X: s.Uniform(-0.25, 0.25), Y: s.Uniform(-0.25, 0.25)}}
	limb := motion.NewJitter(limbBase, motion.LimbJitter(), 2, s.Derive("limb"))
	h.Parts = append(h.Parts, BodyPart{Traj: limb, RCS: s.Uniform(0.1, 0.2)})
	sc.Humans = append(sc.Humans, h)
	return h, nil
}

// AddGestureSubject adds a human standing at the given distance behind
// the wall (centered in x, with a small random offset) who transmits the
// bits by stepping toward/away from the device. slantDeg tilts the
// stepping direction away from the device line (Fig. 6-2(c)). The
// subject's step parameters come from params.
func (sc *Scene) AddGestureSubject(distance float64, bits []motion.Bit, params motion.GestureParams, slantDeg float64, leadIn float64) (*Human, error) {
	idx := len(sc.Humans)
	s := rng.DeriveSeed(sc.Seed, fmt.Sprintf("gesture-%d", idx))
	base := geom.Point{X: s.Uniform(-0.25, 0.25), Y: sc.WallY + distance}
	// "Toward the device": -y, optionally slanted.
	dir := geom.Vec{X: 0, Y: -1}.Rotate(slantDeg * 3.14159265358979 / 180)
	traj, err := motion.NewGestureTrajectory(base, dir, bits, params, leadIn)
	if err != nil {
		return nil, fmt.Errorf("sim: gesture subject: %w", err)
	}
	// A subject deliberately standing still between steps sways only a
	// few millimeters; larger sway would put a distance-independent floor
	// under the gesture SNR and flatten the Fig. 7-4/7-5 curves. The body
	// parts keep small independent micro-motion (breathing, balance)
	// which prevents the co-nulling degeneracy (see Human).
	torso := motion.NewJitter(traj, motion.JitterConfig{AmpMeters: 0.004, CorrTime: 0.6, SampleDT: 0.02}, 2, s.Derive("sway"))
	h := newArticulatedHuman(torso, s.Uniform(0.8, 1.2), s.Uniform(0.15, 0.25), 0.0025,
		s.Derive("parts"), fmt.Sprintf("gesture-%d", idx))
	sc.Humans = append(sc.Humans, h)
	return h, nil
}

// TwoWayWallAmp returns the amplitude factor applied to reflections from
// behind the wall (two traversals), 1 in free space.
func (sc *Scene) TwoWayWallAmp() float64 {
	if !sc.HasWall() {
		return 1
	}
	return rf.TwoWayTransmission(sc.Wall)
}
