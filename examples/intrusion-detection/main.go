// Intrusion detection: train the spatial-variance counter on labeled
// captures (empty room vs occupied), then monitor a room through its
// wall and report how many people are moving inside — the paper's
// privacy-enhanced monitoring / personal-security use case (§1) and the
// mechanism of Table 7.1.
package main

import (
	"context"
	"fmt"
	"log"

	"wivi"
)

const (
	trainTrials  = 3
	trialSeconds = 6
)

func main() {
	// --- Training: capture labeled trials in a known room. ---
	fmt.Println("training the counter on labeled captures (0-2 occupants)...")
	samples := map[int][]float64{}
	for occupants := 0; occupants <= 2; occupants++ {
		for trial := 0; trial < trainTrials; trial++ {
			v, err := captureVariance(int64(100*occupants+trial), occupants, 7, 4)
			if err != nil {
				log.Fatal(err)
			}
			samples[occupants] = append(samples[occupants], v)
		}
		fmt.Printf("  %d occupant(s): variances %v\n", occupants, rounded(samples[occupants]))
	}
	counter, err := wivi.TrainCounter(samples)
	if err != nil {
		log.Fatal(err)
	}

	// --- Monitoring: unseen scenes (different furniture layouts and
	// subjects), unknown occupancy. The thresholds transfer across scenes
	// of the same footprint; see DESIGN §5, "Table 7.1 room transfer",
	// for why they do not transfer across room *sizes* in this
	// simulator. ---
	fmt.Println("\nmonitoring unseen rooms through the wall...")
	for _, truth := range []int{0, 1, 2} {
		scene := wivi.NewScene(wivi.SceneOptions{
			Seed:      int64(9000 + truth),
			RoomWidth: 7,
			RoomDepth: 4,
		})
		for i := 0; i < truth; i++ {
			if err := scene.AddWalker(trialSeconds + 2); err != nil {
				log.Fatal(err)
			}
		}
		dev, err := wivi.NewDevice(scene, wivi.DeviceOptions{})
		if err != nil {
			log.Fatal(err)
		}
		res, err := dev.Track(context.Background(), trialSeconds)
		if err != nil {
			log.Fatal(err)
		}
		got := counter.Count(res)
		verdict := "correct"
		if got != truth {
			verdict = fmt.Sprintf("off by %+d", got-truth)
		}
		fmt.Printf("  room with %d occupant(s): detected %d (%s, variance %.0f)\n",
			truth, got, verdict, res.SpatialVariance())
	}
}

// captureVariance runs one labeled training capture and returns its
// spatial variance.
func captureVariance(seed int64, occupants int, w, d float64) (float64, error) {
	scene := wivi.NewScene(wivi.SceneOptions{Seed: seed, RoomWidth: w, RoomDepth: d})
	for i := 0; i < occupants; i++ {
		if err := scene.AddWalker(trialSeconds + 2); err != nil {
			return 0, err
		}
	}
	dev, err := wivi.NewDevice(scene, wivi.DeviceOptions{})
	if err != nil {
		return 0, err
	}
	res, err := dev.Track(context.Background(), trialSeconds)
	if err != nil {
		return 0, err
	}
	return res.SpatialVariance(), nil
}

func rounded(xs []float64) []int {
	out := make([]int, len(xs))
	for i, v := range xs {
		out[i] = int(v + 0.5)
	}
	return out
}
