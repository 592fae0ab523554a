#!/usr/bin/env sh
# Perf gate — the CI contract is in README.md, "Performance & CI".
# Specific to this file: BENCH_perf.json holds deterministic counts only
# (events, air visits, queue pushes and queue spills per workload and
# size), so the document regenerated from this tree must be the
# committed one, byte for byte. The binary checks its own bounds
# (exp_perf::check) before it writes.
set -eu

cd "$(dirname "$0")/.."
out="${TMPDIR:-/tmp}/iiot-perf-gate.$$"
mkdir -p "$out"
trap 'rm -rf "$out"' EXIT

cargo build -p iiot-bench --release --offline --bin perf
target/release/perf --json "$out/perf.json" > /dev/null

if ! cmp "$out/perf.json" BENCH_perf.json; then
    diff -u BENCH_perf.json "$out/perf.json" >&2 || true
    echo "perf gate FAILED: this tree no longer writes the committed BENCH_perf.json." >&2
    echo "If the counts moved on purpose, regenerate it and commit it with the change:" >&2
    echo "    cargo run -p iiot-bench --release --offline --bin perf -- --json" >&2
    exit 1
fi

echo "perf gate OK: regenerated BENCH_perf.json is byte-identical to the committed one"
