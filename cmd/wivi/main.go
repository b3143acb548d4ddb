// Command wivi runs a Wi-Vi through-wall scenario and prints the result:
// an angle-time heatmap in tracking mode, a decoded bit string in gesture
// mode, or a spatial-variance reading in counting mode.
//
// Examples:
//
//	wivi -mode track -humans 2 -duration 8
//	wivi -mode track -live -duration 8      # frames render as they arrive
//	wivi -mode track -live -paced -duration 8  # real radio cadence: the
//	                                           # heatmap accrues in real time
//	wivi -mode gesture -bits 0110 -distance 5
//	wivi -mode count -humans 3
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"wivi"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("wivi: ")

	var (
		mode     = flag.String("mode", "track", "track | gesture | count")
		seed     = flag.Int64("seed", 1, "experiment seed")
		duration = flag.Float64("duration", 8, "capture duration in seconds (track/count)")
		humans   = flag.Int("humans", 1, "number of walkers (track/count)")
		wallName = flag.String("wall", "hollow", "free | glass | wood | hollow | concrete")
		distance = flag.Float64("distance", 4, "gesture subject distance behind the wall (m)")
		bitsStr  = flag.String("bits", "01", "gesture message bits, e.g. 0110")
		width    = flag.Int("width", 72, "heatmap width")
		height   = flag.Int("height", 21, "heatmap height")
		live     = flag.Bool("live", false, "track mode: stream the capture, rendering each frame as it arrives")
		paced    = flag.Bool("paced", false, "deliver samples at the radio's real cadence: a d-second capture takes d seconds of wall clock")
	)
	flag.Parse()

	wall, err := parseWall(*wallName)
	if err != nil {
		log.Fatal(err)
	}
	scene := wivi.NewScene(wivi.SceneOptions{
		Seed:      *seed,
		Wall:      wall,
		RoomWidth: 11,
		RoomDepth: 8,
	})

	switch *mode {
	case "track", "count":
		for i := 0; i < *humans; i++ {
			if err := scene.AddWalker(*duration + 2); err != nil {
				log.Fatal(err)
			}
		}
		dev, err := wivi.NewDevice(scene, wivi.DeviceOptions{Paced: *paced})
		if err != nil {
			log.Fatal(err)
		}
		null, err := dev.Null()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("nulling: %.1f dB of static-path suppression (%d iterations)\n",
			null.AchievedDB, null.Iterations)
		if *live && *mode == "track" {
			if err := liveTrack(dev, *duration, *width); err != nil {
				log.Fatal(err)
			}
			return
		}
		res, err := dev.Track(context.Background(), *duration)
		if err != nil {
			log.Fatal(err)
		}
		if *mode == "count" {
			fmt.Printf("spatial variance: %.1f (%d walkers in the scene)\n",
				res.SpatialVariance(), *humans)
			return
		}
		fmt.Printf("tracked %d frames through %s:\n\n", res.NumFrames(), wall)
		fmt.Println(res.Heatmap(*width, *height))
		fmt.Println("\n(+90° = moving toward the device, -90° = moving away; the 0° line is the static DC)")

	case "gesture":
		bits, err := parseBits(*bitsStr)
		if err != nil {
			log.Fatal(err)
		}
		dur, err := scene.AddGestureSender(wivi.GestureMessage{
			Bits:     bits,
			Distance: *distance,
		})
		if err != nil {
			log.Fatal(err)
		}
		dev, err := wivi.NewDevice(scene, wivi.DeviceOptions{})
		if err != nil {
			log.Fatal(err)
		}
		msg, err := dev.DecodeMessage(context.Background(), dur)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("sent     %q at %.1f m behind %s\n", *bitsStr, *distance, wall)
		fmt.Printf("decoded  %q (steps %d, erasures %d)\n", msg.String(), msg.Steps, msg.Erasures)
		for i, snr := range msg.SNRsDB {
			fmt.Printf("  bit %d: SNR %.1f dB\n", i, snr)
		}
		if msg.String() != *bitsStr {
			os.Exit(1)
		}

	default:
		log.Fatalf("unknown mode %q", *mode)
	}
}

// liveTrack streams the capture and renders the angle-time image as it
// accrues, one frame per line — the Fig. 5-2 image built column by
// column, transposed so time flows down the terminal. The assembled
// result is identical to batch Track.
func liveTrack(dev *wivi.Device, duration float64, width int) error {
	ts, err := dev.TrackStream(context.Background(), duration)
	if err != nil {
		return err
	}
	fmt.Printf("streaming %d frames (time flows down; -90° left, +90° right = toward the device):\n\n", ts.TotalFrames())
	fmt.Println(wivi.RenderFrameHeader(width))
	var lagSum time.Duration
	frames := 0
	for fr := range ts.Frames() {
		fmt.Println(wivi.RenderFrameLine(fr, width))
		lagSum += fr.Lag
		frames++
	}
	if err := ts.Err(); err != nil {
		return err
	}
	res, err := ts.Result()
	if err != nil {
		return err
	}
	meanLagMs := 0.0
	if frames > 0 {
		meanLagMs = float64(lagSum) / float64(frames) / 1e6
	}
	fmt.Printf("\nstreamed %d frames; spatial variance %.1f; mean frame lag %.1fms\n",
		res.NumFrames(), res.SpatialVariance(), meanLagMs)
	return nil
}

func parseWall(name string) (wivi.Material, error) {
	switch name {
	case "free":
		return wivi.FreeSpace, nil
	case "glass":
		return wivi.TintedGlass, nil
	case "wood":
		return wivi.SolidWoodDoor, nil
	case "hollow":
		return wivi.HollowWall, nil
	case "concrete":
		return wivi.Concrete8, nil
	}
	return 0, fmt.Errorf("unknown wall %q (free|glass|wood|hollow|concrete)", name)
}

func parseBits(s string) ([]wivi.Bit, error) {
	var bits []wivi.Bit
	for _, c := range s {
		switch c {
		case '0':
			bits = append(bits, wivi.Bit0)
		case '1':
			bits = append(bits, wivi.Bit1)
		default:
			return nil, fmt.Errorf("bit string %q must contain only 0 and 1", s)
		}
	}
	if len(bits) == 0 {
		return nil, fmt.Errorf("empty bit string")
	}
	return bits, nil
}
