// Command wivi-serve exposes the Wi-Vi tracking engine over HTTP: the
// network tier that turns the in-process pipeline into a deployable
// service (DESIGN.md §12), fronted by a multi-tenant engine pool
// (DESIGN.md §13).
//
//	wivi-serve                         # one device, default tenant, :8080
//	wivi-serve -addr 127.0.0.1:0 \
//	           -addr-file /tmp/addr    # random port, written for scripts
//	wivi-serve -devices 4 -workers 8   # four scenes, eight workers/tenant
//	wivi-serve -tenants acme,globex    # per-tenant engines + device fleets
//	wivi-serve -paced                  # samples at the radio's cadence
//
// Endpoints (see internal/serve):
//
//	POST /v1/track    {"device":"dev0","duration_s":2}           → JSON
//	POST /v1/track    {...,"tenant":"acme","stream":true}        → NDJSON
//	GET  /v1/devices, /v1/stats (?tenant=), /metrics, /healthz
//
// Every tenant owns its own engine (budgeted by -workers/-queue/
// -maxstreams) and its own fleet of -devices identically-seeded replica
// devices, built lazily on the tenant's first request and evicted after
// -idle-evict of inactivity. A tenant at its budget gets HTTP 429
// "tenant_saturated"; other tenants are untouched. Requests that name
// no tenant route to the built-in "default" tenant, so single-tenant
// clients need no changes.
//
// SIGTERM/SIGINT triggers graceful drain: /healthz flips to 503, new
// /v1/track requests are refused with code "draining", in-flight
// streams run to their final frame (bounded by -grace), then the HTTP
// listener and every tenant engine shut down and the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"wivi"
	"wivi/internal/pool"
	"wivi/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address (host:port; port 0 picks a free one)")
	addrFile := flag.String("addr-file", "", "write the bound address to this file once listening")
	devices := flag.Int("devices", 1, "simulated devices per tenant (dev0..devN-1)")
	workers := flag.Int("workers", 0, "per-tenant engine worker pool size (0 = one per CPU)")
	queue := flag.Int("queue", 0, "per-tenant submit queue depth (0 = 2*workers)")
	maxStreams := flag.Int("maxstreams", 0, "per-tenant concurrent stream cap (0 = workers-1)")
	tenants := flag.String("tenants", "", "comma-separated tenant names to provision beyond the default tenant")
	idleEvict := flag.Duration("idle-evict", 0, "evict a tenant's engine+devices after this idle time (0 = never)")
	seed := flag.Int64("seed", 1, "scene seed; every tenant's devices are identically-seeded replicas")
	maxDur := flag.Float64("maxdur", serve.DefaultMaxDurationS, "per-request capture cap in seconds")
	paced := flag.Bool("paced", false, "pace devices at the radio's sample cadence")
	reqTimeout := flag.Duration("reqtimeout", 0, "per-request handler timeout (0 = none)")
	grace := flag.Duration("grace", 30*time.Second, "drain grace period on SIGTERM")
	flag.Parse()

	log.SetFlags(0)
	log.SetPrefix("wivi-serve: ")
	if *devices < 1 {
		log.Fatalf("-devices must be at least 1, got %d", *devices)
	}
	if !(*maxDur > 0) {
		log.Fatalf("-maxdur must be positive, got %g", *maxDur)
	}
	var tenantNames []string
	for _, name := range strings.Split(*tenants, ",") {
		if name = strings.TrimSpace(name); name != "" {
			tenantNames = append(tenantNames, name)
		}
	}

	// Per-tenant device fleets: every tenant gets its own -devices
	// walker-scene replicas, all identically seeded. Identical seeds are
	// a feature, not laziness: a fresh same-seed device captures
	// bit-identical data, so a client (`make smoke-serve`, with curl) can
	// verify wire determinism per tenant by streaming two of that
	// tenant's replicas and comparing their frames byte for byte — the
	// externally checkable form of the batch/stream identity invariant. The factory runs on a
	// tenant's first request (and again after an idle eviction), so
	// provisioned-but-quiet tenants cost nothing.
	walkDur := *maxDur + 1
	deviceFactory := func(tenant string) (map[string]*wivi.Device, error) {
		registry := make(map[string]*wivi.Device, *devices)
		for i := 0; i < *devices; i++ {
			sc := wivi.NewScene(wivi.SceneOptions{Seed: *seed})
			if err := sc.AddWalker(walkDur); err != nil {
				return nil, fmt.Errorf("building scene %d: %w", i, err)
			}
			dev, err := wivi.NewDevice(sc, wivi.DeviceOptions{Paced: *paced})
			if err != nil {
				return nil, fmt.Errorf("building device %d: %w", i, err)
			}
			registry[fmt.Sprintf("dev%d", i)] = dev
		}
		return registry, nil
	}

	sweep := *idleEvict / 4
	if *idleEvict > 0 && sweep < time.Second {
		sweep = time.Second
	}
	router := pool.NewRouter(pool.Options{
		Budget: pool.Budget{
			Workers:    *workers,
			QueueDepth: *queue,
			MaxStreams: *maxStreams,
		},
		Tenants:     tenantNames,
		Devices:     deviceFactory,
		IdleTimeout: *idleEvict,
		SweepEvery:  sweep,
	})

	srv, err := serve.New(serve.Config{
		Pool:           router,
		MaxDurationS:   *maxDur,
		RequestTimeout: *reqTimeout,
	})
	if err != nil {
		log.Fatalf("building server: %v", err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("listening on %s: %v", *addr, err)
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			log.Fatalf("writing -addr-file: %v", err)
		}
	}
	log.Printf("listening on %s (%d tenants, %d devices/tenant, paced=%v)",
		bound, len(router.Tenants()), *devices, *paced)

	hs := &http.Server{Handler: srv, ReadHeaderTimeout: 10 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	select {
	case err := <-errc:
		log.Fatalf("serving: %v", err)
	case <-ctx.Done():
	}
	stop()

	log.Printf("draining (grace %v)", *grace)
	dctx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		log.Printf("drain incomplete: %v", err)
	}
	if err := hs.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("shutdown: %v", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("serve loop: %v", err)
	}
	_ = router.Close()
	log.Printf("drained, exiting")
}
