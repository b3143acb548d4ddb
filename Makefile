# Tier-1 gate, mirrored by .github/workflows/ci.yml.
.PHONY: check fmt vet staticcheck lint build examples test smoke smoke-serve smoke-pool bench bench-json

# Pinned staticcheck release, mirrored by CI. Bump deliberately: a new
# release can add checks and turn a green tree red.
STATICCHECK_VERSION = 2025.1.1

check: fmt vet staticcheck lint build examples test smoke smoke-serve smoke-pool

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

# Streaming smoke: stream 4 scenes, verify byte-identity with batch
# Track and that the first frame lands well before the capture ends.
# Mixed smoke: concurrent track + gesture + stream requests against one
# explicit engine, per-mode throughput/queue wait, identity checks.
# Paced smoke: concurrent real-time paced streams; enforces the
# wall-clock SLOs (real-time factor >= 1.0, p95 frame lag < one
# analysis window) and typed deadline rejection.
# (The public-API guard — TestPublicAPISurface vs testdata/api.txt —
# runs inside `make test`.)
smoke:
	go run ./cmd/wivi-bench -stream -batch 4 -trackdur 2
	go run ./cmd/wivi-bench -mixed -batch 2 -trackdur 2
	go run ./cmd/wivi-bench -paced -batch 2 -trackdur 2

# Service smoke: start the wivi-serve daemon on a random port (two
# identically-seeded replica devices so wire identity is checkable),
# drive it with the wivi-bench -serve load generator, scrape /metrics
# and /healthz, then SIGTERM and require a clean graceful-drain exit.
smoke-serve:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	go build -o $$tmp/wivi-serve ./cmd/wivi-serve; \
	go build -o $$tmp/wivi-bench ./cmd/wivi-bench; \
	$$tmp/wivi-serve -addr 127.0.0.1:0 -addr-file $$tmp/addr -devices 2 -maxdur 3 & pid=$$!; \
	for i in $$(seq 1 100); do [ -s $$tmp/addr ] && break; sleep 0.1; done; \
	[ -s $$tmp/addr ] || { echo "wivi-serve never wrote its address"; kill $$pid; exit 1; }; \
	addr=$$(cat $$tmp/addr); \
	$$tmp/wivi-bench -serve -addr http://$$addr -batch 2 -trackdur 1 -json > $$tmp/serve.json; \
	grep -q '"requests_per_s"' $$tmp/serve.json; \
	grep -q '"identity": true' $$tmp/serve.json; \
	curl -fsS http://$$addr/metrics | grep -q '^wivi_engine_completed_total'; \
	curl -fsS http://$$addr/healthz >/dev/null; \
	kill -TERM $$pid; wait $$pid; \
	echo "smoke-serve: daemon served, measured and drained cleanly"

# Pool smoke (mirrored by CI): first the noisy-neighbor fault-injection
# suite in-process (wivi-bench -serve -tenants saturates tenant t0 to
# typed 429s while tenant t1's streams must hold their frame-lag SLO),
# then a multi-tenant wivi-serve daemon — tenant-routed /v1/track,
# per-tenant /v1/stats, tenant-labeled /metrics series — with a clean
# graceful-drain exit.
smoke-pool:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	go build -o $$tmp/wivi-serve ./cmd/wivi-serve; \
	go build -o $$tmp/wivi-bench ./cmd/wivi-bench; \
	$$tmp/wivi-bench -serve -tenants 2 -batch 2 -trackdur 1 -json > $$tmp/pool.json; \
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

# Machine-readable bench trajectory: every engine mode with -json
# (schema "wivi-bench/2", see cmd/wivi-bench/report.go), merged into
# one $(BENCH_OUT) and asserted by the shared scripts/bench-gate.sh
# harness — the exact invocation CI's bench job runs, so a gate that
# passes here passes there. CI overrides BENCH_OUT with the per-PR
# artifact name and uploads the file. The second serve run drives the
# multi-tenant pool's noisy-neighbor suite for the per-tenant SLO and
# tenant_isolation gates.
BENCH_OUT = BENCH_local.json
bench-json:
	go run ./cmd/wivi-bench -batch 4 -trackdur 2 -json  > bench-batch.json
	go run ./cmd/wivi-bench -stream -batch 4 -trackdur 4 -json > bench-stream.json
	go run ./cmd/wivi-bench -mixed -batch 2 -trackdur 2 -json  > bench-mixed.json
	go run ./cmd/wivi-bench -paced -batch 2 -trackdur 2 -json  > bench-paced.json
	go run ./cmd/wivi-bench -serve -batch 4 -trackdur 2 -json  > bench-serve.json
	go run ./cmd/wivi-bench -serve -tenants 2 -batch 4 -trackdur 2 -json > bench-serve-tenants.json
	jq -s '{schema: "wivi-bench/2", runs: .}' \
		bench-batch.json bench-stream.json \
		bench-mixed.json bench-paced.json bench-serve.json \
		bench-serve-tenants.json > $(BENCH_OUT)
	rm -f bench-batch.json bench-stream.json bench-mixed.json bench-paced.json bench-serve.json bench-serve-tenants.json
	@echo "wrote $(BENCH_OUT)"
	scripts/bench-gate.sh $(BENCH_OUT)
