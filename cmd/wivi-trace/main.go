// Command wivi-trace records, inspects and replays Wi-Vi channel traces,
// mirroring the prototype's offline workflow (§7.1: real-time nulling on
// the radio, offline smoothed-MUSIC processing over recorded traces).
//
//	wivi-trace record -o walk.wivi -humans 2 -duration 8
//	wivi-trace info walk.wivi
//	wivi-trace replay walk.wivi
//	wivi-trace replay -live walk.wivi   # through the streaming chain
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"wivi/internal/core"
	"wivi/internal/eval"
	"wivi/internal/isar"
	"wivi/internal/ofdm"
	"wivi/internal/sim"
	"wivi/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("wivi-trace: ")
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "record":
		record(os.Args[2:])
	case "info":
		requireFileArg(os.Args[2:])
		info(os.Args[2])
	case "replay":
		fs := flag.NewFlagSet("replay", flag.ExitOnError)
		live := fs.Bool("live", false, "replay through the streaming chain, one frame per line")
		_ = fs.Parse(os.Args[2:])
		requireFileArg(fs.Args())
		if *live {
			replayLive(fs.Arg(0))
		} else {
			replay(fs.Arg(0))
		}
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: wivi-trace record|info|replay ...")
	os.Exit(2)
}

func requireFileArg(args []string) {
	if len(args) < 1 {
		usage()
	}
}

func record(args []string) {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	out := fs.String("o", "capture.wivi", "output file")
	humans := fs.Int("humans", 1, "number of walkers")
	duration := fs.Float64("duration", 8, "capture seconds")
	seed := fs.Int64("seed", 1, "seed")
	_ = fs.Parse(args)

	sc := sim.NewScene(sim.SceneConfig{Seed: *seed})
	for i := 0; i < *humans; i++ {
		if _, err := sc.AddWalker(*duration + 2); err != nil {
			log.Fatal(err)
		}
	}
	fe, err := sim.NewDevice(sc, sim.DefaultCalibration(), sim.DeviceConfig{Seed: *seed})
	if err != nil {
		log.Fatal(err)
	}
	dev, err := core.New(fe, core.DefaultConfig(fe))
	if err != nil {
		log.Fatal(err)
	}
	tr, err := dev.CaptureTrace(0, *duration)
	if err != nil {
		log.Fatal(err)
	}
	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	rec := &trace.Record{SampleT: tr.SampleT, Lambda: tr.Lambda, PerSub: tr.PerSub}
	if err := trace.Write(f, rec); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recorded %d subcarriers x %d samples (%.1fs) to %s (nulling %.1f dB)\n",
		len(rec.PerSub), rec.Samples(), rec.Duration(), *out,
		dev.NullingResult().AchievedNullingDB())
}

func info(path string) {
	rec := readTrace(path)
	fmt.Printf("file:        %s\n", path)
	fmt.Printf("subcarriers: %d\n", len(rec.PerSub))
	fmt.Printf("samples:     %d (%.2f s at %.1f ms)\n",
		rec.Samples(), rec.Duration(), rec.SampleT*1000)
	fmt.Printf("wavelength:  %.4f m (%.2f GHz)\n", rec.Lambda, 299792458/rec.Lambda/1e9)
}

func replay(path string) {
	rec := readTrace(path)
	combined, err := ofdm.AverageSubcarriers(rec.PerSub)
	if err != nil {
		log.Fatal(err)
	}
	cfg := isar.DefaultConfig()
	cfg.Lambda = rec.Lambda
	cfg.SampleT = rec.SampleT
	proc, err := isar.NewProcessor(cfg)
	if err != nil {
		log.Fatal(err)
	}
	img, err := proc.ComputeImage(combined)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replayed %d frames from %s:\n\n", img.NumFrames(), path)
	for _, line := range eval.RenderHeatmap(img, 72, 21) {
		fmt.Println(line)
	}
}

// replayLive replays a recorded trace through the same incremental
// chain a live streamed capture runs — chunked samples through the
// per-sample averaging combiner, frames scheduled as windows close —
// rendering each frame as it emits. The recording stands in for the radio via core.EmitChunks,
// the batch-compatibility side of the streaming front-end contract.
func replayLive(path string) {
	rec := readTrace(path)
	cfg := isar.DefaultConfig()
	cfg.Lambda = rec.Lambda
	cfg.SampleT = rec.SampleT
	proc, err := isar.NewProcessor(cfg)
	if err != nil {
		log.Fatal(err)
	}
	const width = 72
	fmt.Println(eval.LiveAxisHeader(width))
	frames := 0
	streamer := proc.NewStreamer(isar.StreamConfig{}, func(fr isar.Frame) {
		fmt.Println(eval.LiveFrameLine(fr.Time, fr.Power, width))
		frames++
	})
	err = core.EmitChunks(rec.PerSub, cfg.Hop, func(sub [][]complex128) error {
		combined, err := ofdm.AverageSubcarriers(sub)
		if err != nil {
			return err
		}
		return streamer.Append(context.Background(), combined)
	})
	if cerr := streamer.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nstreamed %d frames from %s\n", frames, path)
}

func readTrace(path string) *trace.Record {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	rec, err := trace.Read(f)
	if err != nil {
		log.Fatal(err)
	}
	return rec
}
