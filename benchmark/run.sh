#!/usr/bin/env bash
# Builds the benchmark (offline, release) and runs it.
#
#   benchmark/run.sh                     every workload, both passes, seed 1
#   benchmark/run.sh --workload plant    one workload
#   benchmark/run.sh --seed 7            another seed
#   benchmark/run.sh --quick             small sizes, under 20 s, for smoke use
#   benchmark/run.sh --repeat-check      two full sets, compared against the bounds
#
# The driver's form (one pass, one JSON result line last on stdout):
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --quiet --release --offline --manifest-path benchmark/Cargo.toml --bin iiot-benchmark >&2
run=("$CARGO_TARGET_DIR/release/iiot-benchmark")
# Address-space randomisation lands the heap differently on cache sets and
# pages in every process; over twelve runs it widened field_sharded's
# setup_s from 3.3-4.1 ms to 3.4-5.8 ms. Switch it off where allowed.
if setarch "$(uname -m)" -R true 2>/dev/null; then
    run=(setarch "$(uname -m)" -R "${run[@]}")
fi
exec "${run[@]}" "$@"
