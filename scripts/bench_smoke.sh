#!/usr/bin/env sh
# Tier-2 determinism smoke — the CI contract is in README.md,
# "Performance & CI". Specific to this file: which experiments are
# diffed at --jobs 1/2, and why each is on the list.
set -eu

cd "$(dirname "$0")/.."
out="${TMPDIR:-/tmp}/iiot-bench-smoke.$$"
mkdir -p "$out"
trap 'rm -rf "$out"' EXIT

# One way to host a MAC: only `Stack` (and the MACs' own unit tests)
# call a MAC's callbacks; a node type that forwards them by hand is an
# eighth host, and its lines are printed here.
if grep -rn '\.on_timer(\|\.on_frame(\|\.on_tx_done(' crates src tests examples --include='*.rs' |
    grep -v '^crates/mac/src/\(stack\|csma\|lpl\|rimac\|tdma\)\.rs:'; then
    echo "MAC callbacks called outside iiot_mac::Stack" >&2
    exit 1
fi

# One experiment shape: trials go to `RunConfig::table`, which makes
# the one runner call a table needs; only the harness itself and E2/E3/
# E6's pivots (exp_scale) call the runner by hand. A new hand-built
# table tail is printed here.
if grep -rn '\.runner\.run(' crates src tests examples --include='*.rs' |
    grep -v '^crates/bench/src/\(lib\|runner\|exp_scale\)\.rs:'; then
    echo "Runner::run called outside RunConfig::table and exp_scale's pivots" >&2
    exit 1
fi

# One kernel: `ShardConfig` and `SimBuilder::sharding` are inert shims
# kept only for the frozen benchmark/ package. Outside their own
# definition no first-party code may name them, so retiring them later
# is a change to one file.
if grep -rn 'ShardConfig\|\.sharding(' crates src tests examples --include='*.rs' |
    grep -v '^crates/sim/src/\(sim\|lib\)\.rs:'; then
    echo "ShardConfig or .sharding( named outside crates/sim/src/{sim,lib}.rs" >&2
    exit 1
fi

# One world per thread: a simulated world, its gateway and its cloud
# tier never cross a thread, so they share state through Rc/RefCell,
# not locks or channels. Only the trial runner's worker fan-out and the
# global trace sink synchronise; the vendored crossbeam, parking_lot,
# bytes and serde are empty placeholders no source may name.
if grep -rn '\<crossbeam\>\|\<parking_lot\>\|\<bytes::\|\<serde\>' crates src tests examples --include='*.rs'; then
    echo "crossbeam, parking_lot, bytes or serde named in first-party source" >&2
    exit 1
fi
if grep -rn 'std::sync\|\<sync::' crates src tests examples --include='*.rs' |
    grep -v '^crates/\(sim/src/obs\|bench/src/runner\)\.rs:'; then
    echo "std::sync used outside crates/sim/src/obs.rs and crates/bench/src/runner.rs" >&2
    exit 1
fi

# One calendar: time-ordered merges run on `iiot_sim::queue::Calendar`,
# whose overflow heap is the only binary heap in first-party source.
if grep -rn 'BinaryHeap' crates src tests examples --include='*.rs' |
    grep -v '^crates/sim/src/queue\.rs:'; then
    echo "BinaryHeap named outside crates/sim/src/queue.rs" >&2
    exit 1
fi

cargo build -p iiot-bench --release --offline --bins
bin=target/release/experiments

# An unknown experiment id is a usage error, not an empty run.
if "$bin" e99 > /dev/null 2>&1; then
    echo "experiments e99 exited 0" >&2
    exit 1
fi

# One row per experiment: name | flags | the trace_report section its
# trace must produce. Tables, JSON dumps and JSONL traces must be
# byte-identical at --jobs 1 and --jobs 2, and identical dumps must
# summarize identically. `--quick` shrinks the matrices (full-scale E14
# traces run to gigabytes) while driving the same code paths.
#
#   e5   the plain trial fan-out: per-trial seeds, table assembly
#   e13  the static-tree collection path (StaticCollection over TDMA):
#        its packet spans exist only through the shared data plane
#   e14  world stepping interleaved with oracle sampling (mid-campaign
#        flash inspection, rollout polling) inside trials
#   e15  duty-cycled radios polled with per-round jitter from each
#        node's RNG, energy and cache counters read back through
#        trial-level asserts: RNG-order and float-summation hazards
#   e16  runner fan-out over a multi-shard, multi-tenant pipeline:
#        per-tenant stats and shed events merged across drain shards
#        inside each worker's trial
#   e17  many lockstep sims per trial (one per fleet network) with
#        fleet-level events recorded outside any single one
#   e18  an in-memory event log appended, replayed through a fresh
#        pipeline and recovered from adversarially truncated images
while IFS='|' read -r exp flags section; do
    for j in 1 2; do
        # shellcheck disable=SC2086
        "$bin" "$exp" $flags --jobs "$j" --json "$out/$exp-j$j.json" \
            --trace "$out/$exp-j$j.jsonl" > "$out/$exp-j$j.txt" 2> /dev/null
        target/release/trace_report "$out/$exp-j$j.jsonl" > "$out/$exp-report-j$j.txt"
    done
    diff -u "$out/$exp-j1.txt" "$out/$exp-j2.txt"
    diff -u "$out/$exp-j1.json" "$out/$exp-j2.json"
    cmp "$out/$exp-j1.jsonl" "$out/$exp-j2.jsonl"
    diff -u "$out/$exp-report-j1.txt" "$out/$exp-report-j2.txt"
    grep -q "== $section ==" "$out/$exp-report-j1.txt"
done <<'EOF'
e5||drop causes
e13||packet spans
e14|--quick|dissemination campaign
e15|--quick|icn
e16|--quick|cloud tier
e17|--quick|fleet
e18|--quick|stream
EOF

# E13's section alone proves little: the MAC's own queue samples open
# it even when no packet span was recorded. The static tree's queue
# being in it is what shows the shared data plane is instrumented.
grep -q "queue 'static'" "$out/e13-report-j1.txt"

# trace_report folds its input line by line; a dump piped in must
# summarize exactly like the same dump opened by path.
target/release/trace_report - < "$out/e14-j1.jsonl" | diff -u "$out/e14-report-j1.txt" -

# The dump must be machine-readable JSON of the expected shape.
python3 - "$out/e5-j1.json" <<'EOF'
import json, sys
tables = json.load(open(sys.argv[1]))
assert isinstance(tables, list) and tables, "no tables in dump"
for t in tables:
    assert set(t) == {"title", "headers", "rows"}, t.keys()
    for row in t["rows"]:
        assert len(row) == len(t["headers"]), (t["title"], row)
EOF

# Replay-equals-live, checked over the raw trace: within the
# "e18/replay" trial, the live pipeline records under world 0 and the
# replayed pipeline under world 1, and their event streams must match
# line for line.
python3 - "$out/e18-j1.jsonl" <<'EOF'
import json, sys
worlds = {}
with open(sys.argv[1]) as fh:
    lines = iter(fh)
    for line in lines:
        hdr = json.loads(line)
        block = [next(lines) for _ in range(hdr["events"])]
        if hdr["label"] == "e18/replay":
            worlds.setdefault(hdr["world"], []).extend(block)
assert set(worlds) == {0, 1}, f"replay trial worlds: {sorted(worlds)}"
assert worlds[0], "live pipeline recorded no events"
assert worlds[0] == worlds[1], "replayed event stream diverged from live"
print(f"replay-equals-live: {len(worlds[0])} events byte-identical")
EOF

echo "bench smoke OK: e5 + e13 + e14 + e15 + e16 + e17 + e18 (replay==live) byte-identical at --jobs 1/2"
