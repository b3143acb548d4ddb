// Material survey: measure how gesture decoding degrades across building
// materials — the §7.6 study. A subject stands 3 m behind each
// obstruction and sends a '0' gesture; the survey reports decode success
// and SNR per material (Fig. 7-6).
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"wivi"
)

func main() {
	materials := []wivi.Material{
		wivi.FreeSpace,
		wivi.TintedGlass,
		wivi.SolidWoodDoor,
		wivi.HollowWall,
		wivi.Concrete8,
	}
	const trials = 3

	fmt.Printf("%-24s %12s %10s %10s\n", "obstruction", "one-way dB", "decoded", "avg SNR")
	for mi, mat := range materials {
		decoded := 0
		var snrSum float64
		var snrN int
		for trial := 0; trial < trials; trial++ {
			scene := wivi.NewScene(wivi.SceneOptions{
				Seed:      int64(1000*mi + trial),
				Wall:      mat,
				RoomWidth: 11,
				RoomDepth: 8,
			})
			dur, err := scene.AddGestureSender(wivi.GestureMessage{
				Bits:     []wivi.Bit{wivi.Bit0},
				Distance: 3,
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
			if msg.String() == "0" {
				decoded++
				snrSum += msg.SNRsDB[0]
				snrN++
			}
		}
		snr := "-"
		if snrN > 0 {
			snr = fmt.Sprintf("%.1f dB", snrSum/float64(snrN))
		}
		bar := strings.Repeat("#", decoded*8/trials)
		fmt.Printf("%-24s %12.0f %7d/%d %10s  %s\n",
			mat, mat.OneWayAttenuationDB(), decoded, trials, snr, bar)
	}
	fmt.Println("\ndenser material -> weaker reflections -> lower SNR (Fig. 7-6)")
}
