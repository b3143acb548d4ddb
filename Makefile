# Tier-1 gate, mirrored by .github/workflows/ci.yml.
.PHONY: check fmt vet staticcheck lint build examples test fuzz smoke smoke-serve smoke-pool bench bench-json

# Pinned staticcheck release, mirrored by CI. Bump deliberately: a new
# release can add checks and turn a green tree red.
STATICCHECK_VERSION = 2025.1.1

check: fmt vet staticcheck lint build examples test fuzz smoke smoke-serve smoke-pool

# gofmt gate: fail (and list the offenders) if any file needs formatting.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt: these files need formatting:"; echo "$$out"; exit 1; fi

vet:
	go vet ./...

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

# Engine smokes (CI runs this target): stream 4 scenes, byte-identical
# to batch Track, with the first frame well before the capture ends;
# concurrent track + gesture + stream requests on one explicit engine,
# identity checks retained; concurrent real-time paced streams, typed
# deadline rejection. Each run gates its own report
# (internal/benchreport/gate.go) and exits non-zero on a miss.
# (The public-API guard — TestPublicAPISurface vs testdata/api.txt —
# runs inside `make test`.)
smoke:
	go run ./cmd/wivi-bench -mode stream -batch 4 -trackdur 2
	go run ./cmd/wivi-bench -mode mixed -batch 2 -trackdur 2
	go run ./cmd/wivi-bench -mode paced -batch 2 -trackdur 2

# Service smoke: start the wivi-serve daemon on a random port (two
# identically-seeded replica devices so wire identity is checkable),
# drive it with wivi-bench's serve mode, scrape /metrics and /healthz,
# then SIGTERM and require a clean graceful-drain exit.
smoke-serve:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	go build -o $$tmp/wivi-serve ./cmd/wivi-serve; \
	go build -o $$tmp/wivi-bench ./cmd/wivi-bench; \
	$$tmp/wivi-serve -addr 127.0.0.1:0 -addr-file $$tmp/addr -devices 2 -maxdur 3 & pid=$$!; \
	for i in $$(seq 1 100); do [ -s $$tmp/addr ] && break; sleep 0.1; done; \
	[ -s $$tmp/addr ] || { echo "wivi-serve never wrote its address"; kill $$pid; exit 1; }; \
	addr=$$(cat $$tmp/addr); \
	$$tmp/wivi-bench -mode serve -addr http://$$addr -batch 2 -trackdur 1 > $$tmp/serve.json; \
	grep -q '"requests_per_s"' $$tmp/serve.json; \
	grep -q '"identity": true' $$tmp/serve.json; \
	curl -fsS http://$$addr/metrics | grep -q '^wivi_engine_completed_total'; \
	curl -fsS http://$$addr/healthz >/dev/null; \
	kill -TERM $$pid; wait $$pid; \
	echo "smoke-serve: daemon served, measured and drained cleanly"

# Pool smoke (mirrored by CI): first the noisy-neighbor fault-injection
# suite in-process (wivi-bench's tenants mode saturates tenant t0 to
# typed 429s while tenant t1's streams must hold their frame-lag SLO),
# then a multi-tenant wivi-serve daemon — tenant-routed /v1/track,
# per-tenant /v1/stats, tenant-labeled /metrics series — with a clean
# graceful-drain exit.
smoke-pool:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	go build -o $$tmp/wivi-serve ./cmd/wivi-serve; \
	go build -o $$tmp/wivi-bench ./cmd/wivi-bench; \
	$$tmp/wivi-bench -mode tenants -batch 2 -trackdur 1 > $$tmp/pool.json; \
	grep -q '"tenant_isolation": true' $$tmp/pool.json; \
	$$tmp/wivi-serve -addr 127.0.0.1:0 -addr-file $$tmp/addr -devices 2 -tenants acme,globex -maxdur 3 & pid=$$!; \
	for i in $$(seq 1 100); do [ -s $$tmp/addr ] && break; sleep 0.1; done; \
	[ -s $$tmp/addr ] || { echo "wivi-serve never wrote its address"; kill $$pid; exit 1; }; \
	addr=$$(cat $$tmp/addr); \
	curl -fsS -X POST -H 'X-Wivi-Tenant: acme' -d '{"device":"dev0","duration_s":1}' http://$$addr/v1/track > $$tmp/track.json; \
	grep -q '"tenant":"acme"' $$tmp/track.json; \
	curl -fsS "http://$$addr/v1/stats?tenant=acme" > $$tmp/stats.json; \
	grep -q '"tenant":"acme"' $$tmp/stats.json; \
	curl -fsS http://$$addr/metrics > $$tmp/metrics; \
	grep -q '^wivi_engine_completed_total{tenant="acme"} 1' $$tmp/metrics; \
	grep -q '^wivi_pool_active_engines' $$tmp/metrics; \
	kill -TERM $$pid; wait $$pid; \
	echo "smoke-pool: multi-tenant daemon isolated, measured and drained cleanly"

# Engine benchmarks: sequential vs parallel batch tracking, streamed
# frames/s, the paced chain's per-frame lag (wall-clock bound), and —
# with -benchmem — allocs/op (BenchmarkProcessFrame times the frame
# kernel, whose pooled workspace keeps it at the two emitted spectra;
# BenchmarkHermitianEig runs cold Jacobi and the frame kernel's
# tridiagonal eigensolver side by side on the same sim covariances;
# BenchmarkFFT compares the planned and plan-per-call transforms).
bench:
	go test -run '^$$' -bench 'BenchmarkTrack(Sequential|Parallel|Stream|Paced)' -benchtime 5x -benchmem .
	go test -run '^$$' -bench 'BenchmarkProcessFrame' -benchtime 20x -benchmem ./internal/isar
	go test -run '^$$' -bench 'BenchmarkHermitianEig' -benchmem ./internal/cmath
	go test -run '^$$' -bench 'BenchmarkFFT' -benchmem ./internal/dsp

# Machine-readable bench trajectory: six wivi-bench runs, one per
# engine mode plus the tenants suite, each writing its "wivi-bench/2"
# report (internal/benchreport: report.go, gate.go) and gating it. The runs
# all go ahead even when one misses a gate, so $(BENCH_OUT) always
# holds every figure; the recipe then fails if any run did. CI's bench
# job runs this target with BENCH_OUT set to the per-PR artifact name
# and uploads the file.
BENCH_OUT = BENCH_local.json
bench-json:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	go build -o $$tmp/wivi-bench ./cmd/wivi-bench; \
	status=0; \
	$$tmp/wivi-bench -mode batch -batch 4 -trackdur 2 > $$tmp/batch.json || status=1; \
	$$tmp/wivi-bench -mode stream -batch 4 -trackdur 4 > $$tmp/stream.json || status=1; \
	$$tmp/wivi-bench -mode mixed -batch 2 -trackdur 2 > $$tmp/mixed.json || status=1; \
	$$tmp/wivi-bench -mode paced -batch 2 -trackdur 2 > $$tmp/paced.json || status=1; \
	$$tmp/wivi-bench -mode serve -batch 4 -trackdur 2 > $$tmp/serve.json || status=1; \
	$$tmp/wivi-bench -mode tenants -batch 4 -trackdur 2 > $$tmp/tenants.json || status=1; \
	jq -s '{schema: "wivi-bench/2", runs: .}' $$tmp/batch.json $$tmp/stream.json $$tmp/mixed.json \
		$$tmp/paced.json $$tmp/serve.json $$tmp/tenants.json > $(BENCH_OUT); \
	echo "wrote $(BENCH_OUT)"; \
	exit $$status
