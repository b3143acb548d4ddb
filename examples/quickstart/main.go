// Quickstart: track one person moving behind a 6" hollow wall and print
// the angle-time image — the minimal Wi-Vi workflow (null the flash,
// capture, run smoothed-MUSIC ISAR).
package main

import (
	"context"
	"fmt"
	"log"

	"wivi"
)

func main() {
	// A furnished 7x4 m conference room behind a hollow wall (the
	// paper's primary setup, §7.2), with one person moving at will.
	scene := wivi.NewScene(wivi.SceneOptions{Seed: 42})
	if err := scene.AddWalker(10); err != nil {
		log.Fatal(err)
	}

	// The device sits 1 m in front of the wall.
	dev, err := wivi.NewDevice(scene, wivi.DeviceOptions{})
	if err != nil {
		log.Fatal(err)
	}

	// Stage 1+2+3: eliminate the wall's flash with MIMO nulling (§4).
	null, err := dev.Null()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("flash nulled by %.1f dB in %d iterations\n\n", null.AchievedDB, null.Iterations)

	// Capture 8 seconds and beamform in time with the human's own motion
	// as the antenna array (§5).
	res, err := dev.Track(context.Background(), 8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Heatmap(72, 21))
	fmt.Println("\n+90° = moving toward the device, -90° = away; 0° is the static DC line.")

	// Where is the person heading right now?
	last := res.NumFrames() - 1
	if angles := res.AnglesAt(last, 1); len(angles) > 0 {
		dir := "toward the device"
		if angles[0] < 0 {
			dir = "away from the device"
		}
		fmt.Printf("\nat t=%.1fs the person is at %+.0f° — moving %s\n",
			res.FrameTime(last), angles[0], dir)
	}
}
