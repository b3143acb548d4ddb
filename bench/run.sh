#!/usr/bin/env bash
# Builds the Wi-Vi benchmark from this checkout's source and runs it:
#
#   bash bench/run.sh --workload track_batch --seed 1 --seconds 20 --trace 0
#
# Every build product and Go cache lives under .bench_build/ at the root
# of the checkout, so a run reads and writes nothing outside it. The
# benchmark module replaces the wivi module with the checkout root, so
# the build fails (and no result is printed) when the repository source
# is missing.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config" "$out/cache"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= GOENV=off

rev=unknown
if [ -e "$root/.git" ]; then
	rev="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
fi

(cd "$root/bench" && go build -buildvcs=false -ldflags "-X main.revision=$rev" -o "$out/wivi-benchmark" .)
exec "$out/wivi-benchmark" "$@"
