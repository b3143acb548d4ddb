// Serve-client: the wivi-serve service tier end to end in one process —
// stand up the HTTP handler that cmd/wivi-serve daemonizes, then drive
// it with serve.Client: a batch track, a live NDJSON stream, and a
// stats scrape (DESIGN.md §12).
//
// Against a real daemon the same traffic is plain HTTP:
//
//	wivi-serve -devices 2 &
//	curl -s localhost:8080/v1/track -d '{"device":"dev0","duration_s":2}'
//	curl -sN localhost:8080/v1/track -d '{"device":"dev0","duration_s":2,"stream":true}'
//	curl -s localhost:8080/metrics
package main

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"

	"wivi"
	"wivi/internal/pool"
	"wivi/internal/serve"
)

func main() {
	// A single-tenant server is a pool with only the default tenant. Its
	// registry: one walker scene behind the wall, seen by an unpaced
	// device and by a paced replica for the load-shedding demo below
	// (deadline admission bites when capture runs at the radio's real
	// cadence).
	router := pool.NewRouter(pool.Options{
		Devices: func(string) (map[string]*wivi.Device, error) {
			scene := wivi.NewScene(wivi.SceneOptions{Seed: 42})
			if err := scene.AddWalker(10); err != nil {
				return nil, err
			}
			dev, err := wivi.NewDevice(scene, wivi.DeviceOptions{})
			if err != nil {
				return nil, err
			}
			paced, err := wivi.NewDevice(scene, wivi.DeviceOptions{Paced: true})
			if err != nil {
				return nil, err
			}
			return map[string]*wivi.Device{"dev0": dev, "paced0": paced}, nil
		},
	})
	defer router.Close()

	// The same handler cmd/wivi-serve mounts, on a loopback test server.
	srv, err := serve.New(serve.Config{Pool: router, MaxDurationS: 8})
	if err != nil {
		log.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	fmt.Printf("wivi-serve handler listening on %s\n\n", ts.URL)

	ctx := context.Background()
	client := &serve.Client{BaseURL: ts.URL, HTTPClient: ts.Client()}

	// Batch: POST /v1/track, one JSON response when tracking completes.
	res, err := client.Track(ctx, serve.TrackRequest{Device: "dev0", DurationS: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("batch: %d frames (queued %.2f ms)\n", res.NumFrames, res.QueueWaitMs)

	// Stream: the same request with "stream":true delivers NDJSON frame
	// events as the heatmap accrues, then a terminal result event.
	cs, err := client.TrackStream(ctx, serve.TrackRequest{Device: "dev0", DurationS: 2, Stream: true})
	if err != nil {
		log.Fatal(err)
	}
	defer cs.Close()
	for {
		fr, ok := cs.Next()
		if !ok {
			break
		}
		fmt.Printf("stream: frame %d at t=%.2f s (%d angle bins, lag %.1f ms)\n",
			fr.Index, fr.TimeS, len(fr.Power), fr.LagMs)
	}
	if err := cs.Err(); err != nil {
		log.Fatal(err)
	}

	// Observability: /v1/stats as JSON here; /metrics serves the same
	// figures in Prometheus text format for a scraper.
	st, err := client.Stats(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nstats: tenant %s, %d completed, %d frames, p95 end-to-end %v\n",
		st.Pool.DefaultTenant, st.Engine.Completed, st.Engine.Frames, st.Engine.EndToEnd.P95)

	// A deadline the engine provably cannot meet — a paced 2 s capture
	// can never finish in 1 ms — is shed at admission with HTTP 503 and
	// a typed error body: load shedding over the wire.
	_, err = client.Track(ctx, serve.TrackRequest{Device: "paced0", DurationS: 2, DeadlineMs: 1})
	apiErr, ok := err.(*serve.APIError)
	if !ok || apiErr.Status != http.StatusServiceUnavailable {
		log.Fatalf("expected a 503 for the infeasible deadline, got %v", err)
	}
	fmt.Printf("infeasible deadline shed: %d %s\n", apiErr.Status, apiErr.Code)
}
