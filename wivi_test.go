package wivi

import (
	"context"
	"strings"
	"testing"
)

func TestMaterialTable(t *testing.T) {
	cases := map[Material]float64{
		FreeSpace:          0,
		TintedGlass:        3,
		SolidWoodDoor:      6,
		HollowWall:         9,
		Concrete18:         18,
		ReinforcedConcrete: 40,
	}
	for m, want := range cases {
		if got := m.OneWayAttenuationDB(); got != want {
			t.Errorf("%s attenuation = %v, want %v", m, got, want)
		}
		if m.String() == "" {
			t.Errorf("material %d has no name", m)
		}
	}
}

func TestSceneBuilders(t *testing.T) {
	s := NewScene(SceneOptions{Seed: 1})
	if s.NumSubjects() != 0 {
		t.Fatal("fresh scene has subjects")
	}
	if err := s.AddWalker(5); err != nil {
		t.Fatal(err)
	}
	if s.NumSubjects() != 1 {
		t.Fatal("walker not added")
	}
	dur, err := s.AddGestureSender(GestureMessage{Bits: []Bit{Bit0}, Distance: 4})
	if err != nil {
		t.Fatal(err)
	}
	if dur < 3 {
		t.Fatalf("message duration %v too short", dur)
	}
	if _, err := s.AddGestureSender(GestureMessage{Distance: 4}); err == nil {
		t.Fatal("empty message accepted")
	}
	if _, err := s.AddGestureSender(GestureMessage{Bits: []Bit{Bit0}}); err == nil {
		t.Fatal("zero distance accepted")
	}
}

func TestNewDeviceValidation(t *testing.T) {
	if _, err := NewDevice(nil, DeviceOptions{}); err == nil {
		t.Fatal("nil scene accepted")
	}
}

func TestNullSummary(t *testing.T) {
	s := NewScene(SceneOptions{Seed: 7})
	d, err := NewDevice(s, DeviceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := d.Null()
	if err != nil {
		t.Fatal(err)
	}
	// Single-scene nulling draws from the Fig. 7-7 distribution (median
	// ~40 dB, wide tails; this seed is a shallow noise-limited draw).
	// Broken nulling shows up as ~0 dB, far below the bound.
	if sum.AchievedDB < 12 || sum.AchievedDB > 70 {
		t.Fatalf("achieved nulling %v dB outside plausible range", sum.AchievedDB)
	}
}

func TestTrackWalkerEndToEnd(t *testing.T) {
	s := NewScene(SceneOptions{Seed: 11})
	if err := s.AddWalker(6); err != nil {
		t.Fatal(err)
	}
	d, err := NewDevice(s, DeviceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Track(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumFrames() < 20 {
		t.Fatalf("frames = %d", res.NumFrames())
	}
	if res.FrameTime(1) <= res.FrameTime(0) {
		t.Fatal("frame times not increasing")
	}
	// Some frame should show a non-DC line for a moving human.
	found := false
	for f := 0; f < res.NumFrames(); f++ {
		if len(res.AnglesAt(f, 2)) > 0 {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no angle lines for a moving walker")
	}
	if res.SpatialVariance() <= 0 {
		t.Fatal("zero spatial variance with a walker present")
	}
	hm := res.Heatmap(40, 10)
	if !strings.Contains(hm, "|") || len(strings.Split(hm, "\n")) < 10 {
		t.Fatalf("heatmap malformed:\n%s", hm)
	}
}

func TestGestureMessageEndToEnd(t *testing.T) {
	s := NewScene(SceneOptions{Seed: 21, RoomWidth: 11, RoomDepth: 8})
	dur, err := s.AddGestureSender(GestureMessage{
		Bits:     []Bit{Bit0, Bit1},
		Distance: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDevice(s, DeviceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	msg, err := d.DecodeMessage(context.Background(), dur)
	if err != nil {
		t.Fatal(err)
	}
	if msg.String() != "01" {
		t.Fatalf("decoded %q (erasures %d, steps %d), want \"01\"",
			msg.String(), msg.Erasures, msg.Steps)
	}
	if len(msg.SNRsDB) != 2 || msg.SNRsDB[0] < 3 {
		t.Fatalf("SNRs = %v", msg.SNRsDB)
	}
}

func TestCounterTrainAndClassify(t *testing.T) {
	c, err := TrainCounter(map[int][]float64{
		0: {0, 1},
		1: {50, 60},
		2: {80, 90},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := NewScene(SceneOptions{Seed: 31})
	if err := s.AddWalker(5); err != nil {
		t.Fatal(err)
	}
	d, err := NewDevice(s, DeviceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Track(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Count(res); got < 0 || got > 2 {
		t.Fatalf("count = %d", got)
	}
	if _, err := TrainCounter(nil); err == nil {
		t.Fatal("empty training accepted")
	}
}
