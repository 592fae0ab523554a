#!/usr/bin/env python3
"""The BENCH_perf.json schema (iiot-bench/perf/v9), checked in one place.

    perf_schema.py check FILE              schema asserts
    perf_schema.py check --committed FILE  ... plus how far the committed curves reach,
                                           that the medium's cost per event stays flat
                                           and that a frame stays one queue entry
    perf_schema.py same A B                schema on both, deterministic blocks equal

Every point is {"deterministic": ..., "timing": ...}: the first is a pure
function of (workload, seed, shard count) and is what CI compares; the
second is wall clock, recorded for the trajectory and never gated.
"""
import json
import sys

BLOCKS = ("points", "scaling", "cloud", "stream", "icn")

# block -> (deterministic keys, timing keys)
KEYS = {
    "points": (
        {"side", "mac", "nodes", "secs", "events", "air_visits", "queue_pushes"},
        {"wall_us", "events_per_sec"},
    ),
    "scaling": (
        {"side", "nodes", "shards", "secs", "events", "air_visits", "queue_pushes"},
        {"wall_us", "events_per_sec", "mode"},
    ),
    "cloud": (
        {"sessions", "tenants", "shards", "msgs", "accepted", "shed",
         "p50_us", "p99_us", "fairness_milli"},
        {"wall_us", "msgs_per_sec"},
    ),
    "stream": (
        {"sessions", "tenants", "msgs", "accepted", "shed", "log_records",
         "log_bytes", "segments", "windows", "window_obs"},
        {"wall_us", "replay_wall_us", "msgs_per_sec"},
    ),
    "icn": (
        {"consumers", "nodes", "interests", "data", "cache_hits",
         "verifies", "verify_fails", "delivered"},
        {"wall_us"},
    ),
}


def check(path, committed=False):
    """Asserts the schema; returns {block: [deterministic, ...]}."""
    doc = json.load(open(path))
    assert doc["schema"] == "iiot-bench/perf/v9", doc.get("schema")
    assert isinstance(doc["spacing_m"], (int, float))
    for block in BLOCKS:
        assert doc[block], f"{path}: no {block} points"
        det_keys, timing_keys = KEYS[block]
        for p in doc[block]:
            d, t = p["deterministic"], p["timing"]
            assert set(d) == det_keys, (block, sorted(d))
            assert set(t) == timing_keys, (block, sorted(t))
    for p in doc["points"] + doc["scaling"]:
        d = p["deterministic"]
        assert d["nodes"] == d["side"] ** 2 and d["events"] > 0, d
        assert d["air_visits"] > 0 and d["queue_pushes"] > 0, d
    for p in doc["scaling"]:
        assert p["timing"]["mode"] in {"threaded", "serial"}, p["timing"]
    shard_counts = {p["deterministic"]["shards"] for p in doc["scaling"]}
    assert {1, 2, 4} <= shard_counts, f"scaling must cover shards 1/2/4: {shard_counts}"
    for p in doc["cloud"] + doc["stream"]:
        d = p["deterministic"]
        assert d["msgs"] == d["accepted"] + d["shed"], d
        assert d["msgs"] > 0 and d["sessions"] > 0, d
    for p in doc["cloud"]:
        assert 0 < p["deterministic"]["fairness_milli"] <= 1000, p
    for p in doc["stream"]:
        d = p["deterministic"]
        assert d["log_records"] == d["msgs"], "WAL must hold every offered uplink"
        assert d["log_bytes"] > 0 and d["segments"] > 0 and d["windows"] > 0, d
    for p in doc["icn"]:
        d = p["deterministic"]
        assert d["nodes"] == d["consumers"] + 2, d
        assert d["verify_fails"] == 0, "honest workload must verify clean"
        assert d["delivered"] > 0 and d["interests"] > 0 and d["data"] > 0, d
    if committed:
        assert max(p["deterministic"]["sessions"] for p in doc["cloud"]) >= 100_000, \
            "committed cloud curve must reach 1e5 sessions"
        assert max(p["deterministic"]["consumers"] for p in doc["icn"]) >= 16, \
            "committed icn curve must reach 16 consumers"
        # The serial kernel's size scalability, as a count: the records
        # the medium examines per event must not grow with the grid. The
        # base is the 1,600-node point; at 400 nodes the workload's
        # stagger covers a third of its period, next to nobody listens
        # while a neighbour transmits, and the ratio is low for that
        # reason alone.
        serial = {p["deterministic"]["nodes"]: p["deterministic"]
                  for p in doc["scaling"] if p["deterministic"]["shards"] == 1}
        assert max(serial) >= 25_600, \
            "committed scaling curve must reach 25,600 nodes at shards = 1"
        assert 1_600 in serial, "committed scaling curve needs its 1,600-node base"
        base = serial[1_600]["air_visits"] / serial[1_600]["events"]
        for nodes, d in serial.items():
            per_event = d["air_visits"] / d["events"]
            if nodes > 1_600:
                assert per_event <= 1.25 * base, \
                    f"air_visits/event at {nodes} nodes is {per_event:.2f}, over 1.25x " \
                    f"the 1,600-node {base:.2f}: the medium's cost grows with the grid"
        # The queue's cost, as a count: the broadcaster's events are a
        # timer, a frame end and about three receptions per frame, and
        # only the first two are heap entries (0.41-0.53 per event). One
        # entry per reception would read 1.0.
        bcast = [p["deterministic"] for p in doc["points"]
                 if p["deterministic"]["mac"] == "bcast"]
        for d in bcast + list(serial.values()):
            per_event = d["queue_pushes"] / d["events"]
            assert per_event <= 0.6, \
                f"queue_pushes/event at {d['nodes']} bcast nodes is {per_event:.2f}, " \
                f"over 0.6: a frame's receptions are queued again"
    return {b: [p["deterministic"] for p in doc[b]] for b in BLOCKS}


def main(argv):
    if len(argv) == 3 and argv[0] == "same":
        a, b = check(argv[1]), check(argv[2])
        for block in BLOCKS:
            assert a[block] == b[block], \
                f"{block}: deterministic blocks differ between {argv[1]} and {argv[2]}"
        sizes = ", ".join(f"{len(a[b])} {b}" for b in BLOCKS)
        print(f"perf schema: deterministic blocks identical ({sizes})")
    elif argv and argv[0] == "check" and len(argv) == 2 + ("--committed" in argv):
        check(argv[-1], committed="--committed" in argv)
    else:
        sys.exit(__doc__)


if __name__ == "__main__":
    main(sys.argv[1:])
