# Tier-1 gate, mirrored by .github/workflows/ci.yml.
.PHONY: check fmt vet staticcheck lint build examples test fuzz smoke-serve smoke-pool eval bench

# Pinned staticcheck release, mirrored by CI. Bump deliberately: a new
# release can add checks and turn a green tree red.
STATICCHECK_VERSION = 2025.1.1

check: fmt vet staticcheck lint build examples test fuzz smoke-serve smoke-pool eval

# gofmt gate: fail (and list the offenders) if any file needs formatting.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt: these files need formatting:"; echo "$$out"; exit 1; fi

# The benchmark is its own module, which ./... does not reach: vetting
# it here makes a deletion that breaks bench/'s imports fail the check.
vet:
	go vet ./...
	cd bench && go vet ./...

# staticcheck gate. Uses an installed binary when present, else fetches
# the pinned release via `go run`. Offline hosts without the tool skip
# with a notice — CI always runs it pinned, so the gate still holds.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	elif go run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) -version >/dev/null 2>&1; then \
		go run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...; \
	else \
		echo "staticcheck $(STATICCHECK_VERSION) not installed and not fetchable (offline?); skipped — CI runs it pinned"; \
	fi

# Repo invariant analyzers (internal/lint: clockguard, rngguard,
# hotpathalloc, intoform — see DESIGN.md §11). Dependency-free, so it
# runs identically on offline hosts and in CI; exits nonzero on any
# unannotated violation.
lint:
	go run ./cmd/wivi-lint ./...

build:
	go build ./...

# Examples are plain main packages; building them explicitly makes API
# drift in documentation code fail CI even if ./... pruning changes.
examples:
	go build ./examples/...

test:
	go test -race ./...

# Short native-fuzzing passes over the two wire decoders: /v1/track body
# decoding and validation (FuzzTrackRequest stubs the pool, so no capture
# runs) and the client's NDJSON stream decoder (FuzzClientStream). -fuzz
# takes one target per run, hence the anchored patterns. CI runs this
# target.
fuzz:
	go test -run '^$$' -fuzz '^FuzzTrackRequest$$' -fuzztime 10s ./internal/serve
	go test -run '^$$' -fuzz '^FuzzClientStream$$' -fuzztime 10s ./internal/serve

# Service smoke (CI runs this target): start the wivi-serve daemon on a
# random port with two identically seeded replica devices, stream each
# replica's first capture with curl and require the two frame sequences
# (lag, the wall-clock field, dropped) to be byte-identical, run one
# batch track, scrape /metrics and /healthz, then SIGTERM and require a
# clean graceful-drain exit. Identity holds only for a device's first
# capture, so the streams come first. The trap stops the daemon if a
# step fails.
smoke-serve:
	@set -e; tmp=$$(mktemp -d); pid=; trap '[ -z "$$pid" ] || kill $$pid 2>/dev/null; rm -rf "$$tmp"' EXIT; \
	go build -o $$tmp/wivi-serve ./cmd/wivi-serve; \
	$$tmp/wivi-serve -addr 127.0.0.1:0 -addr-file $$tmp/addr -devices 2 -maxdur 3 & pid=$$!; \
	for i in $$(seq 1 100); do [ -s $$tmp/addr ] && break; sleep 0.1; done; \
	[ -s $$tmp/addr ] || { echo "wivi-serve never wrote its address"; exit 1; }; \
	addr=$$(cat $$tmp/addr); \
	for dev in dev0 dev1; do \
		curl -fsSN http://$$addr/v1/track -d "{\"device\":\"$$dev\",\"duration_s\":1,\"stream\":true}" > $$tmp/$$dev.ndjson; \
		jq -c 'select(.type=="frame") | .frame | del(.lag_ms)' $$tmp/$$dev.ndjson > $$tmp/$$dev.frames; \
	done; \
	[ -s $$tmp/dev0.frames ] || { echo "dev0 streamed no frames"; exit 1; }; \
	cmp $$tmp/dev0.frames $$tmp/dev1.frames || { echo "replica streams differ"; exit 1; }; \
	curl -fsS http://$$addr/v1/track -d '{"device":"dev0","duration_s":1}' | grep -q '"num_frames":'; \
	curl -fsS http://$$addr/metrics | grep -q '^wivi_engine_completed_total'; \
	curl -fsS http://$$addr/healthz >/dev/null; \
	kill -TERM $$pid; wait $$pid; pid=; \
	echo "smoke-serve: $$(wc -l < $$tmp/dev0.frames) frames identical across replicas; daemon served and drained cleanly"

# Pool smoke (CI runs this target): a multi-tenant wivi-serve daemon —
# tenant-routed /v1/track, per-tenant /v1/stats, tenant-labeled
# /metrics series — with a clean graceful-drain exit. The noisy-neighbor
# isolation bar is TestNoisyNeighborIsolation in internal/serve.
smoke-pool:
	@set -e; tmp=$$(mktemp -d); pid=; trap '[ -z "$$pid" ] || kill $$pid 2>/dev/null; rm -rf "$$tmp"' EXIT; \
	go build -o $$tmp/wivi-serve ./cmd/wivi-serve; \
	$$tmp/wivi-serve -addr 127.0.0.1:0 -addr-file $$tmp/addr -devices 2 -tenants acme,globex -maxdur 3 & pid=$$!; \
	for i in $$(seq 1 100); do [ -s $$tmp/addr ] && break; sleep 0.1; done; \
	[ -s $$tmp/addr ] || { echo "wivi-serve never wrote its address"; exit 1; }; \
	addr=$$(cat $$tmp/addr); \
	curl -fsS -X POST -H 'X-Wivi-Tenant: acme' -d '{"device":"dev0","duration_s":1}' http://$$addr/v1/track > $$tmp/track.json; \
	grep -q '"tenant":"acme"' $$tmp/track.json; \
	curl -fsS "http://$$addr/v1/stats?tenant=acme" > $$tmp/stats.json; \
	grep -q '"tenant":"acme"' $$tmp/stats.json; \
	curl -fsS http://$$addr/metrics > $$tmp/metrics; \
	grep -q '^wivi_engine_completed_total{tenant="acme"} 1' $$tmp/metrics; \
	grep -q '^wivi_pool_active_engines' $$tmp/metrics; \
	kill -TERM $$pid; wait $$pid; pid=; \
	echo "smoke-pool: multi-tenant daemon routed, measured and drained cleanly"

# The full-scale §7 evaluation (wivi-bench): all 17 experiments at
# paper scale, where `go test` runs them only at quick scale. The run
# exits non-zero on any shape mismatch against the paper's figures.
# CI's check job runs this target.
eval:
	go run ./cmd/wivi-bench

# Engine benchmarks: sequential vs parallel batch tracking, streamed
# frames/s, the paced chain's per-frame lag (wall-clock bound), and —
# with -benchmem — allocs/op (BenchmarkProcessFrame times the frame
# kernel, whose pooled workspace keeps it at the two emitted spectra;
# BenchmarkComputeImage times a batch image through the frame scheduler
# for one frame and for a 4 s capture of 47, inline and fanned out;
# BenchmarkHermitianEig runs cold Jacobi and the frame kernel's
# tridiagonal eigensolver side by side on the same sim covariances, and
# BenchmarkEigStages times that solver's reduction, eigenvalues and
# k = 5 vectors apart;
# BenchmarkFFT1024 and BenchmarkFFTBluestein1000 time one transform per
# call on the radix-2 and Bluestein paths, which compute their twiddles
# per call;
# BenchmarkCapture times capture synthesis per sample for 1-3 walkers,
# fanned out over the CPUs and, as workers=1, on one core).
bench:
	go test -run '^$$' -bench 'BenchmarkTrack(Sequential|Parallel|Stream|Paced)' -benchtime 5x -benchmem .
	go test -run '^$$' -bench 'Benchmark(ProcessFrame|ComputeImage)' -benchtime 20x -benchmem ./internal/isar
	go test -run '^$$' -bench 'BenchmarkCapture' -benchtime 20x -benchmem ./internal/sim
	go test -run '^$$' -bench 'Benchmark(HermitianEig|EigStages)' -benchmem ./internal/cmath
	go test -run '^$$' -bench 'BenchmarkFFT' -benchmem ./internal/dsp
