package wivi_test

import (
	"context"
	"errors"
	"fmt"
	"log"
	"time"

	"wivi"
)

// ExampleMaterial_OneWayAttenuationDB prints the Table 4.1 attenuations.
func ExampleMaterial_OneWayAttenuationDB() {
	for _, m := range []wivi.Material{
		wivi.TintedGlass, wivi.SolidWoodDoor, wivi.HollowWall,
		wivi.Concrete18, wivi.ReinforcedConcrete,
	} {
		fmt.Printf("%s: %.0f dB\n", m, m.OneWayAttenuationDB())
	}
	// Output:
	// Tinted Glass: 3 dB
	// 1.75" Solid Wood Door: 6 dB
	// 6" Hollow Wall: 9 dB
	// Concrete Wall 18": 18 dB
	// Reinforced Concrete: 40 dB
}

// Example_tracking shows the minimal track-through-a-wall workflow.
// (No golden output: the heatmap depends on the calibration.)
func Example_tracking() {
	scene := wivi.NewScene(wivi.SceneOptions{Seed: 42})
	if err := scene.AddWalker(6); err != nil {
		log.Fatal(err)
	}
	dev, err := wivi.NewDevice(scene, wivi.DeviceOptions{})
	if err != nil {
		log.Fatal(err)
	}
	res, err := dev.Track(context.Background(), 4)
	if err != nil {
		log.Fatal(err)
	}
	_ = res.Heatmap(72, 21)
	fmt.Println(res.NumFrames() > 0)
	// Output: true
}

// Example_streamingTracking shows the incremental tracking workflow:
// frames arrive while the capture is still running (the first after
// ~0.32 s of samples instead of after the whole capture), and the
// assembled result is byte-identical to batch Track.
func Example_streamingTracking() {
	scene := wivi.NewScene(wivi.SceneOptions{Seed: 42})
	if err := scene.AddWalker(6); err != nil {
		log.Fatal(err)
	}
	dev, err := wivi.NewDevice(scene, wivi.DeviceOptions{})
	if err != nil {
		log.Fatal(err)
	}
	stream, err := dev.TrackStream(context.Background(), 4)
	if err != nil {
		log.Fatal(err)
	}
	frames := 0
	for frame := range stream.Frames() {
		// Each frame is one column of the Fig. 5-2 angle-time image;
		// render it live with wivi.RenderSpectrumLine, or inspect
		// frame.Time and frame.Power directly.
		_ = frame
		frames++
	}
	if err := stream.Err(); err != nil {
		log.Fatal(err)
	}
	res, err := stream.Result() // identical to dev.Track(ctx, 4)'s result
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(frames == res.NumFrames() && frames == stream.TotalFrames())
	// Output: true
}

// ExampleNewEngine shows the Engine service API: one explicitly owned
// worker pool serving a mixed workload, with the processing mode as
// per-request data (no device state is mutated to select it — a track
// and a gesture request may even target the same device concurrently).
func ExampleNewEngine() {
	eng := wivi.NewEngine(wivi.EngineOptions{Workers: 2})
	defer eng.Close()
	ctx := context.Background()

	trackScene := wivi.NewScene(wivi.SceneOptions{Seed: 42})
	if err := trackScene.AddWalker(6); err != nil {
		log.Fatal(err)
	}
	walker, err := wivi.NewDevice(trackScene, wivi.DeviceOptions{})
	if err != nil {
		log.Fatal(err)
	}
	msgScene := wivi.NewScene(wivi.SceneOptions{Seed: 21, RoomWidth: 11, RoomDepth: 8})
	msgDur, err := msgScene.AddGestureSender(wivi.GestureMessage{
		Bits:     []wivi.Bit{wivi.Bit0, wivi.Bit1},
		Distance: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	sender, err := wivi.NewDevice(msgScene, wivi.DeviceOptions{})
	if err != nil {
		log.Fatal(err)
	}

	// Both requests are in flight together on one pool; each carries its
	// own mode.
	th, err := eng.Submit(ctx, wivi.Request{Device: walker, Duration: 4})
	if err != nil {
		log.Fatal(err)
	}
	gh, err := eng.Submit(ctx, wivi.Request{Device: sender, Duration: msgDur, Mode: wivi.Gesture})
	if err != nil {
		log.Fatal(err)
	}
	track, err := th.Wait(ctx)
	if err != nil {
		log.Fatal(err)
	}
	gest, err := gh.Wait(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("tracked:", track.Tracking.NumFrames() > 0)
	fmt.Println("message:", gest.Message)
	// Output:
	// tracked: true
	// message: 01
}

// ExampleRequest shows a streaming request through an explicit engine:
// Stream selects incremental frame emission, and Wait still joins the
// assembled end state (identical to the batch path).
func ExampleRequest() {
	eng := wivi.NewEngine(wivi.EngineOptions{Workers: 2})
	defer eng.Close()
	ctx := context.Background()

	scene := wivi.NewScene(wivi.SceneOptions{Seed: 42})
	if err := scene.AddWalker(6); err != nil {
		log.Fatal(err)
	}
	dev, err := wivi.NewDevice(scene, wivi.DeviceOptions{})
	if err != nil {
		log.Fatal(err)
	}
	h, err := eng.Submit(ctx, wivi.Request{Device: dev, Duration: 4, Stream: true})
	if err != nil {
		log.Fatal(err)
	}
	stream, err := h.Stream(ctx)
	if err != nil {
		log.Fatal(err)
	}
	frames := 0
	for range stream.Frames() {
		frames++ // image columns arrive while the capture runs
	}
	res, err := h.Wait(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(frames == res.Tracking.NumFrames())
	// Output: true
}

// Example_pacedTracking shows the real-time paced API: a paced device
// delivers samples at the radio's cadence (a 0.4 s capture takes 0.4 s
// of wall clock), streamed frames carry honest wall-clock Lag values,
// and a Deadline tighter than the capture's pacing floor is rejected
// with the typed ErrDeadlineInfeasible before consuming any capacity.
func Example_pacedTracking() {
	scene := wivi.NewScene(wivi.SceneOptions{Seed: 42})
	if err := scene.AddWalker(2); err != nil {
		log.Fatal(err)
	}
	dev, err := wivi.NewDevice(scene, wivi.DeviceOptions{Paced: true})
	if err != nil {
		log.Fatal(err)
	}

	eng := wivi.NewEngine(wivi.EngineOptions{Workers: 2})
	defer eng.Close()
	ctx := context.Background()

	// A 0.4 s paced capture can never finish in 0.1 s: typed rejection.
	_, err = eng.Submit(ctx, wivi.Request{
		Device: dev, Duration: 0.4, Stream: true, Deadline: 100 * time.Millisecond,
	})
	fmt.Println("infeasible deadline rejected:", errors.Is(err, wivi.ErrDeadlineInfeasible))

	h, err := eng.Submit(ctx, wivi.Request{Device: dev, Duration: 0.4, Stream: true})
	if err != nil {
		log.Fatal(err)
	}
	stream, err := h.Stream(ctx)
	if err != nil {
		log.Fatal(err)
	}
	frames := 0
	for fr := range stream.Frames() {
		// Under pacing, fr.Lag is real wall-clock latency behind the
		// radio; keeping its p95 under one stream.WindowDuration() is the
		// chain's SLO (wivi-bench -mode paced gates on it).
		_ = fr.Lag
		frames++
	}
	if _, err := h.Wait(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Println("all frames streamed in real time:", frames == stream.TotalFrames())
	// Output:
	// infeasible deadline rejected: true
	// all frames streamed in real time: true
}

// Example_gestureMessage shows the through-wall messaging workflow.
func Example_gestureMessage() {
	scene := wivi.NewScene(wivi.SceneOptions{Seed: 21, RoomWidth: 11, RoomDepth: 8})
	duration, err := scene.AddGestureSender(wivi.GestureMessage{
		Bits:     []wivi.Bit{wivi.Bit0, wivi.Bit1},
		Distance: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	dev, err := wivi.NewDevice(scene, wivi.DeviceOptions{})
	if err != nil {
		log.Fatal(err)
	}
	msg, err := dev.DecodeMessage(context.Background(), duration)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(msg)
	// Output: 01
}
