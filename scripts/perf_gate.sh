#!/usr/bin/env sh
# Timing-free perf gate — the CI contract is in README.md, "Performance
# & CI". Specific to this file: the perf harness's quick matrices run at
# --jobs 1 and --jobs 2, and scripts/perf_schema.py requires both
# documents to parse and every `deterministic` block to be identical.
# Any drift means behaviour changed: throughput and scaling points count
# simulated events (each shard count is compared only with itself),
# cloud/stream/icn points count messages, sheds, WAL bytes, windows and
# virtual-time latencies, and the stream and icn matrices assert replay
# equality and consumer convergence per point before writing it.
set -eu

cd "$(dirname "$0")/.."
out="${TMPDIR:-/tmp}/iiot-perf-gate.$$"
mkdir -p "$out"
trap 'rm -rf "$out"' EXIT

cargo build -p iiot-bench --release --offline --bin perf
bin=target/release/perf

"$bin" --quick --jobs 1 --json "$out/perf-j1.json" > /dev/null 2> /dev/null
"$bin" --quick --jobs 2 --json "$out/perf-j2.json" > /dev/null 2> /dev/null
python3 scripts/perf_schema.py same "$out/perf-j1.json" "$out/perf-j2.json"

echo "perf gate OK: deterministic blocks byte-stable across worker counts"
