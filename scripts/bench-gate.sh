#!/bin/sh
# bench-gate/2 — assert every perf gate over a merged wivi-bench/2
# report. The single harness shared by CI (.github/workflows/ci.yml,
# bench job) and `make bench-json`, so the gates cannot drift between
# the two: both run exactly
#
#	scripts/bench-gate.sh BENCH_file.json
#
# The gate logic lives in scripts/bench-gate.jq (one "ok"/"FAIL" line
# per gate); this wrapper names the failures and exits nonzero on any.
# TestBenchGateHarness feeds it known-good and known-bad fixtures from
# testdata/benchgate/ so a harness edit that silently stops failing bad
# reports is itself a test failure.
set -eu

file="${1-}"
if [ -z "$file" ]; then
	echo "usage: $0 <merged-bench.json>" >&2
	exit 2
fi
if [ ! -f "$file" ]; then
	echo "bench-gate: no such report: $file" >&2
	exit 2
fi
dir="$(dirname "$0")"

if ! out="$(jq -r -f "$dir/bench-gate.jq" "$file")"; then
	echo "bench-gate: jq evaluation failed on $file" >&2
	exit 2
fi

echo "$out" | sed 's/^/bench-gate: /'
case "$out" in
*FAIL*)
	echo "bench-gate: FAILED for $file" >&2
	exit 1
	;;
esac
echo "bench-gate: all gates passed for $file"
