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

# One link layer under four MACs: the frame format, delivery and send
# completion are written once, in the link core (crates/mac/src/header.rs).
# A MAC that encodes or decodes a frame, or reports a delivery or a
# completion itself, is a second copy, and its lines are printed here.
if awk 'FNR == 1 { body = 1 } /^mod tests/ { body = 0 }
    body && /encode[(]|decode[(]|MacEvent::(Delivered|SendDone) [{]/ { print FILENAME ":" FNR ":" $0; found = 1 }
    END { exit !found }' crates/mac/src/csma.rs crates/mac/src/lpl.rs crates/mac/src/rimac.rs crates/mac/src/tdma.rs; then
    echo "frame coding, Delivered or SendDone written in a MAC outside the link core" >&2
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

# One value, one constant: a protocol parameter that no two callers set
# differently is a `pub const` beside its protocol, not a config field.
# The config types that held nothing else stay gone.
if grep -rn 'CsmaConfig\|TdmaConfig\|RimacConfig\|EndpointConfig\|ReliabilityConfig' crates src tests examples --include='*.rs'; then
    echo "CsmaConfig, TdmaConfig, RimacConfig, EndpointConfig or ReliabilityConfig named in first-party source" >&2
    exit 1
fi
# The same for the energy, security-cost, revenue and clock-walk models,
# the drift tolerance and the aggregation sensor; and the switches no
# caller turned stay gone with the code behind them: the always-passing
# fleet health gate, admission overrides, sliding windows, the builder's
# radius and crash-policy setters, and the scorecard that re-labelled
# the collection report.
if grep -rn 'EnergyModel\|CostModel\|RevenueModel\|HealthGate\|NetworkHealth\|DriftDetector\|SensorFn\|walk_ppm\|admission_overrides\|set_limit(\|WindowSpec::sliding\|\.radius(\|\.state_loss(\|Scorecard' crates src tests examples --include='*.rs'; then
    echo "a single-valued model, an unused switch or the scorecard is back in first-party source" >&2
    exit 1
fi

# One Fig. 1 loop: a `Deployment` with a gateway attached carries its
# readings through the gateway, the rules, the cloud log and the twins,
# and its cloud commands back down, on the simulation's clock. The
# hand-cycled scan loop it replaced stays gone; only the gateway itself
# and that deployment build a cloud uplink, and only the cloud crate,
# that deployment and the fleet harness (a partitioned gateway twin the
# deployment does not model) build a downlink router.
if grep -rn 'LayeredSystem\|SensingActuation\|Historian\|with_gateway(\|border_adapter(' crates src tests examples --include='*.rs'; then
    echo "LayeredSystem, SensingActuation, Historian, with_gateway( or border_adapter( named in first-party source" >&2
    exit 1
fi
if grep -rn 'CloudUplink::new(' crates src tests examples --include='*.rs' |
    grep -v '^crates/gateway/src/\|^crates/core/src/deployment\.rs:'; then
    echo "CloudUplink::new( outside crates/gateway/src and crates/core/src/deployment.rs" >&2
    exit 1
fi
if grep -rn 'CommandRouter::new(' crates src tests examples --include='*.rs' |
    grep -v '^crates/cloud/src/\|^crates/core/src/deployment\.rs:\|^crates/fleet/src/harness\.rs:'; then
    echo "CommandRouter::new( outside crates/cloud/src, crates/core/src/deployment.rs and crates/fleet/src/harness.rs" >&2
    exit 1
fi

# One write authority: a rule's firing is a cloud command on the
# deployment's downlink, which the gateway's next poll applies. Outside
# the gateway crate no non-test code (a `tests/` file, or a file from its
# first `#[cfg(test)]` on) writes through `write_direct`, and the second
# record rules once kept beside the commands stays gone.
if find crates src examples -name '*.rs' ! -path '*/tests/*' ! -path 'crates/gateway/*' |
    xargs awk 'FNR == 1 { body = 1 } /#\[cfg\(test\)\]/ { body = 0 }
        body && /write_direct[(]/ { print FILENAME ":" FNR ":" $0; found = 1 }
        END { exit !found }'; then
    echo "write_direct( called in non-test code outside crates/gateway/" >&2
    exit 1
fi
if grep -rn '\<Actuation\>\|\.actuations\>' crates src tests examples --include='*.rs'; then
    echo "Actuation or .actuations named in first-party source" >&2
    exit 1
fi

# `offer` owns its drain: it runs the drain ticks due before each
# arrival, so a caller outside the cloud crate never calls `drain_until`.
if grep -rn '\.drain_until(' crates src tests examples --include='*.rs' |
    grep -v '^crates/cloud/'; then
    echo ".drain_until( called outside crates/cloud/" >&2
    exit 1
fi

# One telemetry path: every per-node counter belongs to an event kind
# (`=> "name"`, or `"value" => "name"` under a `match field`, in the
# `event_kinds!` table of crates/sim/src/obs.rs) and is written only by
# emitting that kind, so `count_node` stays gone and `inc_node(`, the
# kernel's own column bump, is called only inside crates/sim/src; the
# global counter map and its readers stay gone too.
if grep -rn 'count_node' crates src tests examples benchmark --include='*.rs'; then
    echo "count_node named in first-party source" >&2
    exit 1
fi
if grep -rn 'inc_node(' crates src tests examples benchmark --include='*.rs' |
    grep -v '^crates/sim/src/'; then
    echo "inc_node( called outside crates/sim/src" >&2
    exit 1
fi
if grep -rn 'ctx\.count(\|Stats::inc\>\|\.counters()\|stats()\.get(' crates src tests examples --include='*.rs'; then
    echo "ctx.count(, Stats::inc, .counters() or stats().get( named in first-party source" >&2
    exit 1
fi

# No write-only telemetry: every counter the table declares is read
# somewhere outside obs.rs (an experiment, a test, benchmark/).
owned=$(awk '/^#\[cfg\(test\)\]/ { exit } /^ *\/\// { next }
    { while (match($0, /=> "[a-z_]+"/)) { print substr($0, RSTART + 4, RLENGTH - 5); $0 = substr($0, RSTART + RLENGTH) } }' \
    crates/sim/src/obs.rs)
if [ -z "$owned" ]; then
    echo "no owned counters found in crates/sim/src/obs.rs" >&2
    exit 1
fi
unread=$(for counter in $owned; do
    grep -rqF "\"$counter\"" crates src tests examples benchmark --include='*.rs' \
        --exclude-dir=target --exclude=obs.rs || echo "$counter"
done)
if [ -n "$unread" ]; then
    echo "$unread"
    echo "counters declared in the event_kinds! table but read nowhere" >&2
    exit 1
fi

# Every module earns its keep: the secure-join handshake, the key store,
# both failure detectors, the MTTF tracker, the CRDTs no experiment
# used, the gateway's write-only replicated cache, the fleet's second
# staged-rollout controller and the per-network plan it copied, the
# store-wide drift list no code read, and the named series kept beside
# the per-node counters stay gone.
if grep -rn '\<\(Coordinator\|Joiner\|KeyStore\|PhiAccrualDetector\|FixedTimeoutDetector\|LifeTracker\|PnCounter\|MvRegister\|TwoPSet\|GSet\|crdt_cache\|FleetCampaign\|CampaignAction\|CampaignPhase\|NetworkReport\|RolloutPlan\|Stats::record\|Ctx::record\)\>\|\.drifted(' crates src tests examples --include='*.rs'; then
    echo "a deleted security, dependability, CRDT, gateway-cache, rollout, drift or series name is back in first-party source" >&2
    exit 1
fi
# A series writer re-added under its old name, `record(name, value)`,
# need not be named by path: no `record` method takes a string
# (rustfmt may break the parameters over lines, so the files are
# searched whole).
if grep -rlPz 'fn record\([^)]*\bstr\b' crates src tests examples --include='*.rs'; then
    echo "a record( that takes a name is back in first-party source" >&2
    exit 1
fi

# One fault vocabulary: outside the simulator's own source, a crash,
# wipe, link cut or partition is scheduled only by applying an
# `iiot_sim::FaultPlan`. The scheduled-fault methods `Sim` once had,
# its world-wide crash-loss switch and the plan's old home in
# iiot-dependability stay gone.
if grep -rn 'kill_at(\|revive_at(\|block_link_at(\|unblock_link_at(\|partition_at(\|heal_at(\|set_state_loss(\|apply_with_state_loss(\|dependability::fault\|dependability::{Fault' crates src tests examples --include='*.rs' |
    grep -v '^crates/sim/src/'; then
    echo "a fault scheduled outside iiot_sim::FaultPlan, or the plan named at its old home" >&2
    exit 1
fi

# Windows without a hash table: an open window group is the readings
# it accepted, in arrival order, sorted by key when it closes, so no
# tenant-chosen key is hashed. A hash map, hash set or hasher back in
# the store (above its tests) is printed here.
if awk '/^mod tests/ { exit } /HashMap|HashSet|RandomState/ { print FILENAME ":" FNR ":" $0; found = 1 }
    END { exit !found }' crates/stream/src/window.rs; then
    echo "HashMap, HashSet or RandomState in crates/stream/src/window.rs" >&2
    exit 1
fi
# A group closes in linear time: one stable radix pass orders it, so no
# comparison sort is called in the store (above its tests).
if awk '/^mod tests/ { exit } /sort_by|sort_unstable|[.]sort[(]/ { print FILENAME ":" FNR ":" $0; found = 1 }
    END { exit !found }' crates/stream/src/window.rs; then
    echo "sort_by, sort_by_key, sort_unstable or sort( in crates/stream/src/window.rs" >&2
    exit 1
fi

# Replay adopts the log it has just verified: `replay` enters each
# record at the pipeline's front door past the log append, so it neither
# offers through `offer` nor encodes an uplink again.
if awk '/^pub fn replay[(]/ { body = 1 }
    body && /[.]offer[(]|encode_uplink/ { print FILENAME ":" FNR ":" $0; found = 1 }
    body && /^}/ { body = 0 } END { exit !found }' crates/cloud/src/stream.rs; then
    echo "replay in crates/cloud/src/stream.rs calls .offer( or encode_uplink" >&2
    exit 1
fi

# The examples are runnable documentation whose `assert!`s no test
# executes: each must run to a zero exit.
for example in quickstart construction_site partition_drill energy_latency; do
    if ! cargo run --release --offline --example "$example" > /dev/null; then
        echo "example $example failed" >&2
        exit 1
    fi
done

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

echo "bench smoke OK: four examples ran; e5 + e13 + e14 + e15 + e16 + e17 + e18 (replay==live) byte-identical at --jobs 1/2"
