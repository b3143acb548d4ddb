// Gesture messaging: a person behind a closed wall sends a message to
// the Wi-Vi receiver without carrying any device (§6). A '0' bit is a
// step forward then back; a '1' bit is a step back then forward. The
// paper's motivating scenario: law-enforcement team members signaling
// through a wall after their radios are confiscated (§1.1).
package main

import (
	"context"
	"fmt"
	"log"

	"wivi"
)

func main() {
	// The 4-bit distress code the team agreed on.
	message := []wivi.Bit{wivi.Bit1, wivi.Bit0, wivi.Bit1, wivi.Bit1}

	scene := wivi.NewScene(wivi.SceneOptions{
		Seed:      7,
		Wall:      wivi.HollowWall,
		RoomWidth: 11,
		RoomDepth: 8, // the paper's larger conference room
	})
	duration, err := scene.AddGestureSender(wivi.GestureMessage{
		Bits:     message,
		Distance: 4,  // meters behind the wall
		SlantDeg: 20, // the sender only roughly knows where the device is (Fig. 6-2c)
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sender: 4-bit message, ~%.0f s of gestures, 4 m behind the wall\n", duration)

	dev, err := wivi.NewDevice(scene, wivi.DeviceOptions{})
	if err != nil {
		log.Fatal(err)
	}
	decoded, err := dev.DecodeMessage(context.Background(), duration)
	if err != nil {
		log.Fatal(err)
	}

	want := ""
	for _, b := range message {
		want += fmt.Sprintf("%d", b)
	}
	fmt.Printf("sent:    %s\n", want)
	fmt.Printf("decoded: %s\n", decoded)
	for i, snr := range decoded.SNRsDB {
		fmt.Printf("  bit %d arrived with %.1f dB SNR\n", i, snr)
	}
	if decoded.Erasures > 0 {
		fmt.Printf("  %d gesture(s) fell below the 3 dB gate and were erased (never flipped)\n",
			decoded.Erasures)
	}
	if decoded.String() == want {
		fmt.Println("message received correctly through the wall")
	} else {
		fmt.Println("message degraded — move closer to the wall and resend")
	}
}
