//! Perf workload: kernel throughput on growing CSMA/LPL grids, plus
//! the sharded-kernel scaling curves.
//!
//! Unlike E1-E14 this harness measures the *simulator*, not the
//! simulated protocols. Two matrices come out of it:
//!
//! * the **throughput matrix** — square grids of broadcast-chatty
//!   nodes (10x10 up to 40x40) under each of [`MACS`], on the serial
//!   kernel;
//! * the **scaling curves** — the transmit-heavy broadcast workload at
//!   N ∈ {400, 1600, 6400, 25600} run at `--shards 1/2/4`, measuring
//!   how the serial kernel's per-event cost holds up as the deployment
//!   grows and what the sharded kernel (one worker thread per shard
//!   where cores exist, cooperative serial shards on a single core —
//!   see [`scaling_curves`]) makes of it.
//!
//! Each point carries two kinds of quantities with very different
//! contracts:
//!
//! * **`events`**, **`air_visits`** and **`queue_pushes`** — how many
//!   kernel events the workload dispatches, and how many transmission
//!   records the medium examines ([`Sim::air_visits`]) and event-heap
//!   entries the kernel pushes ([`Sim::queue_pushes`]) doing so. Pure
//!   functions of the workload, seed and shard count: byte-stable
//!   across worker counts and machines. This is what CI *gates* on
//!   (`scripts/perf_gate.sh` for stability, `scripts/perf_schema.py
//!   check --committed` for the visits per event staying flat as the
//!   grid grows and the pushes per event staying under their ceiling).
//! * **wall-clock / events-per-second** — recorded into
//!   `BENCH_perf.json` for trajectory tracking, never gated (CI
//!   machines are noisy; timing thresholds make flaky gates).

use crate::{RunConfig, Table};
use iiot_mac::csma::CsmaMac;
use iiot_mac::driver::MacDriver;
use iiot_mac::lpl::{LplConfig, LplMac};
use iiot_sim::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Grid spacing in meters (default unit-disk range 30 m: 4-neighbour
/// connectivity, 8 audible neighbours within interference range).
pub const SPACING_M: f64 = 20.0;

/// The workload flavours: `bcast` is a raw periodic broadcaster (no
/// MAC — the purest transmit-heavy stress of the begin-tx path),
/// `csma` and `lpl` run the real MACs.
pub const MACS: [&str; 3] = ["bcast", "csma", "lpl"];

/// Bare periodic broadcaster: transmit as often as the radio allows,
/// with no MAC machinery diluting the medium hot path.
struct Blaster {
    period: SimDuration,
}

impl Proto for Blaster {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.radio_on().expect("radio");
        let stagger =
            SimDuration::from_micros(1 + ctx.id().0 as u64 * 37 % self.period.as_micros());
        ctx.set_timer(stagger, 0);
    }
    fn timer(&mut self, ctx: &mut Ctx<'_>, _t: Timer) {
        ctx.transmit(Dst::Broadcast, 1, vec![0xEE; 24]).ok();
        ctx.set_timer(self.period, 0);
    }
}

/// Fans `f(0)..f(n-1)` out over `jobs` scoped workers and returns the
/// results in index order. `f` must be a pure function of its index;
/// collecting by slot then makes the output independent of the worker
/// count and of scheduling.
fn fan_out<T: Send>(jobs: usize, n: usize, f: impl Fn(usize) -> T + Send + Sync) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|s| {
        for _ in 0..jobs.clamp(1, n.max(1)) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let v = f(i);
                slots.lock().expect("slots")[i] = Some(v);
            });
        }
    });
    slots
        .into_inner()
        .expect("slots")
        .into_iter()
        .map(|s| s.expect("job ran"))
        .collect()
}

/// One measured point of the throughput matrix.
#[derive(Clone, Copy, Debug)]
pub struct PerfPoint {
    /// Grid side (the deployment has `side * side` nodes).
    pub side: u32,
    /// Node count (`side * side`).
    pub nodes: u32,
    /// MAC flavour: `"bcast"`, `"csma"` or `"lpl"`.
    pub mac: &'static str,
    /// Simulated seconds of the workload.
    pub secs: u64,
    /// Events dispatched (byte-stable across worker counts).
    pub events: u64,
    /// Transmission records the medium examined (equally stable).
    pub air_visits: u64,
    /// Event-heap entries the kernel pushed (equally stable).
    pub queue_pushes: u64,
    /// Wall-clock time, microseconds.
    pub wall_us: u64,
}

impl PerfPoint {
    /// Dispatched events per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        self.events as f64 / (self.wall_us as f64 / 1e6).max(1e-9)
    }
}

/// One measured point of the shard-scaling curves.
#[derive(Clone, Copy, Debug)]
pub struct ScalePoint {
    /// Grid side (the deployment has `side * side` nodes).
    pub side: u32,
    /// Node count (`side * side`).
    pub nodes: u32,
    /// Shard count the point ran at (1 = serial kernel).
    pub shards: u32,
    /// Simulated seconds of the workload.
    pub secs: u64,
    /// Events dispatched, summed across shards. A pure function of
    /// (workload, seed, shards): byte-stable across worker counts and
    /// machines *per shard count* — shard counts are distinct models,
    /// so counts are not comparable across them.
    pub events: u64,
    /// Transmission records examined, summed across the shards' media;
    /// stable and comparable exactly like `events`.
    pub air_visits: u64,
    /// Event-heap entries pushed, summed across the shards' kernels;
    /// stable and comparable exactly like `events`.
    pub queue_pushes: u64,
    /// Wall-clock time, microseconds.
    pub wall_us: u64,
    /// How the shards executed: `"threaded"` (one worker thread per
    /// shard — machines with ≥ 2 cores) or `"serial"` (all shards
    /// driven cooperatively from one thread — single-core machines,
    /// where extra threads are pure overhead). Machine-dependent like
    /// wall clock, so it lives in the `timing` block; the event count
    /// is identical either way.
    pub mode: &'static str,
}

impl ScalePoint {
    /// Aggregate dispatched events per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        self.events as f64 / (self.wall_us as f64 / 1e6).max(1e-9)
    }
}

/// Builds the transmit-heavy workload: a `side x side` grid where every
/// node broadcasts periodically (staggered by node index so the medium
/// always has traffic in the air).
fn build(side: u32, mac: &str, secs: u64, seed: u64, shard: ShardConfig) -> Sim {
    // Log-distance pathloss with a sigmoid gray zone: the realistic —
    // and computationally heaviest — link model, where every
    // overlapping record a CCA or collision check visits costs a sqrt
    // and a log10.
    let link = LinkModel::LogDistance {
        path_loss_exp: 3.5,
        ref_loss_db: 45.0,
        rssi50_dbm: -88.0,
        spread_db: 3.0,
    };
    let topo = Topology::grid(side as usize, side as usize, SPACING_M);
    let builder = SimBuilder::new().seed(seed).link(link).sharding(shard);
    match mac {
        "bcast" => {
            // 20 broadcasts per node-second, staggered at microsecond
            // granularity: the medium is never idle.
            builder
                .nodes(topo, |_| {
                    Box::new(Blaster {
                        period: SimDuration::from_millis(50),
                    })
                })
                .build()
        }
        "csma" => {
            let mut sim = builder
                .nodes(topo, |_| Box::new(MacDriver::new(CsmaMac::default())))
                .build();
            // Every node broadcasts 24 B four times per second.
            for k in 0..(side as u64 * side as u64) {
                let d = sim.proto_mut::<MacDriver<CsmaMac>>(NodeId(k as u32));
                for s in 0..secs * 4 {
                    d.push_send(
                        SimTime::from_millis(s * 250 + (k % 250)),
                        Dst::Broadcast,
                        1,
                        vec![0xAB; 24],
                    );
                }
            }
            sim
        }
        "lpl" => {
            // A short wake interval keeps the strobe trains (and the
            // full-matrix wall time) bounded while still exercising
            // the strobed-preamble path.
            let cfg = LplConfig {
                wake_interval: SimDuration::from_millis(128),
                ..LplConfig::default()
            };
            let mut sim = builder
                .nodes(topo, move |_| {
                    Box::new(MacDriver::new(LplMac::new(cfg.clone())))
                })
                .build();
            // One strobed broadcast per node every two seconds.
            for k in 0..(side as u64 * side as u64) {
                let d = sim.proto_mut::<MacDriver<LplMac>>(NodeId(k as u32));
                for s in 0..secs.div_ceil(2) {
                    d.push_send(
                        SimTime::from_millis(s * 2000 + (k % 2000)),
                        Dst::Broadcast,
                        1,
                        vec![0xCD; 24],
                    );
                }
            }
            sim
        }
        other => panic!("unknown mac flavour {other:?}"),
    }
}

/// Runs one workload; returns ([events, air visits, queue pushes], wall).
fn measure(side: u32, mac: &str, secs: u64, seed: u64, shard: ShardConfig) -> ([u64; 3], Duration) {
    let mut sim = build(side, mac, secs, seed, shard);
    let started = Instant::now();
    sim.run(SimDuration::from_secs(secs));
    let wall = started.elapsed();
    let counts = [
        sim.events_dispatched(),
        sim.air_visits(),
        sim.queue_pushes(),
    ];
    (counts, wall)
}

/// Measures the throughput matrix: `sides` x [`MACS`] on the serial
/// kernel, one run per point. Points fan out over the runner's worker
/// pool (results come back in matrix order regardless of `--jobs`).
pub fn perf_matrix(rc: &RunConfig, sides: &[u32], secs: u64) -> Vec<PerfPoint> {
    let points: Vec<(u32, &'static str)> = sides
        .iter()
        .flat_map(|&s| MACS.iter().map(move |&m| (s, m)))
        .collect();
    fan_out(rc.runner.jobs(), points.len(), |i| {
        let (side, mac) = points[i];
        let seed = 0xBE2C_0000 + i as u64;
        let ([events, air_visits, queue_pushes], wall) =
            measure(side, mac, secs, seed, ShardConfig::default());
        PerfPoint {
            side,
            nodes: side * side,
            mac,
            secs,
            events,
            air_visits,
            queue_pushes,
            wall_us: wall.as_micros() as u64,
        }
    })
}

/// Measures the shard-scaling curves: the `bcast` workload at every
/// `sides` x `shard_counts` combination. Points run sequentially —
/// each one may itself use one worker thread per shard, and sharing
/// cores between points would corrupt the timing.
///
/// On machines with ≥ 2 cores shards run threaded (one worker per
/// shard); on a single core they run serially from the calling thread,
/// because spawning threads a core cannot execute in parallel only
/// adds barrier/context-switch overhead. Counts are identical either way
/// (the sharded model is thread-count invariant); the chosen mode is
/// recorded in each point's `timing` block.
pub fn scaling_curves(sides: &[u32], secs: u64, shard_counts: &[u32]) -> Vec<ScalePoint> {
    let serial = std::thread::available_parallelism().map_or(true, |p| p.get() < 2);
    let mut out = Vec::new();
    for (i, &side) in sides.iter().enumerate() {
        for &shards in shard_counts {
            let seed = 0x5CA1_0000 + i as u64;
            let shard = if serial {
                ShardConfig::serial(shards as usize)
            } else {
                ShardConfig::threaded(shards as usize)
            };
            let ([events, air_visits, queue_pushes], wall) =
                measure(side, "bcast", secs, seed, shard);
            out.push(ScalePoint {
                side,
                nodes: side * side,
                shards,
                secs,
                events,
                air_visits,
                queue_pushes,
                wall_us: wall.as_micros() as u64,
                mode: if serial { "serial" } else { "threaded" },
            });
        }
    }
    out
}

/// A deterministic cost counter as a table cell: its count per event.
fn per_event(count: u64, events: u64) -> String {
    format!("{:.2}", count as f64 / events.max(1) as f64)
}

/// Renders the throughput matrix as a human-readable table. Timing
/// cells vary run to run; `events`, `visits/ev` and `pushes/ev` are
/// deterministic.
pub fn table(points: &[PerfPoint]) -> Table {
    let mut t = Table::new(
        "PERF: kernel throughput (20 m grid, broadcast-heavy, serial kernel)",
        &[
            "nodes",
            "mac",
            "events",
            "wall (ms)",
            "Mev/s",
            "visits/ev",
            "pushes/ev",
        ],
    );
    for p in points {
        t.row(vec![
            p.nodes.to_string(),
            p.mac.to_string(),
            p.events.to_string(),
            format!("{:.1}", p.wall_us as f64 / 1e3),
            format!("{:.2}", p.events_per_sec() / 1e6),
            per_event(p.air_visits, p.events),
            per_event(p.queue_pushes, p.events),
        ]);
    }
    t
}

/// Renders the scaling curves as a human-readable table, with each
/// point's aggregate events/s relative to its `shards = 1` baseline.
pub fn scaling_table(points: &[ScalePoint]) -> Table {
    let mut t = Table::new(
        "PERF: sharded-kernel scaling (bcast workload, conservative-lookahead shards)",
        &[
            "nodes",
            "shards",
            "mode",
            "events",
            "wall (ms)",
            "Mev/s",
            "vs 1 shard",
            "visits/ev",
            "pushes/ev",
        ],
    );
    for p in points {
        let base = points
            .iter()
            .find(|q| q.side == p.side && q.shards == 1)
            .map(|q| q.events_per_sec())
            .unwrap_or(0.0);
        let rel = if base > 0.0 {
            format!("{:.2}x", p.events_per_sec() / base)
        } else {
            "-".to_string()
        };
        t.row(vec![
            p.nodes.to_string(),
            p.shards.to_string(),
            p.mode.to_string(),
            p.events.to_string(),
            format!("{:.1}", p.wall_us as f64 / 1e3),
            format!("{:.2}", p.events_per_sec() / 1e6),
            rel,
            per_event(p.air_visits, p.events),
            per_event(p.queue_pushes, p.events),
        ]);
    }
    t
}

/// Serializes all five matrices as the `BENCH_perf.json` document.
/// The `deterministic` block of each point is byte-stable across
/// worker counts and machines (per shard count, for scaling points) —
/// CI's perf gate compares exactly that subset; `timing` is
/// informational. Cloud points come from
/// [`cloud_matrix`](crate::exp_cloud::cloud_matrix), stream points
/// from [`stream_matrix`](crate::exp_stream::stream_matrix), icn
/// points from [`icn_matrix`](crate::exp_icn::icn_matrix).
pub fn to_json(
    points: &[PerfPoint],
    scaling: &[ScalePoint],
    cloud: &[crate::exp_cloud::CloudPoint],
    stream: &[crate::exp_stream::StreamPoint],
    icn: &[crate::exp_icn::IcnPoint],
) -> String {
    let mut out = String::from("{\n  \"schema\": \"iiot-bench/perf/v9\",\n");
    out.push_str(&format!("  \"spacing_m\": {SPACING_M},\n  \"points\": [\n"));
    for (i, p) in points.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"deterministic\": {{\"side\": {}, \"mac\": \"{}\", \"nodes\": {}, \
             \"secs\": {}, \"events\": {}, \"air_visits\": {}, \"queue_pushes\": {}}}, \
             \"timing\": {{\"wall_us\": {}, \"events_per_sec\": {:.0}}}}}{}\n",
            p.side,
            p.mac,
            p.nodes,
            p.secs,
            p.events,
            p.air_visits,
            p.queue_pushes,
            p.wall_us,
            p.events_per_sec(),
            if i + 1 == points.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n  \"scaling\": [\n");
    for (i, p) in scaling.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"deterministic\": {{\"side\": {}, \"nodes\": {}, \"shards\": {}, \
             \"secs\": {}, \"events\": {}, \"air_visits\": {}, \"queue_pushes\": {}}}, \
             \"timing\": {{\"wall_us\": {}, \"events_per_sec\": {:.0}, \"mode\": \"{}\"}}}}{}\n",
            p.side,
            p.nodes,
            p.shards,
            p.secs,
            p.events,
            p.air_visits,
            p.queue_pushes,
            p.wall_us,
            p.events_per_sec(),
            p.mode,
            if i + 1 == scaling.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n  \"cloud\": [\n");
    for (i, p) in cloud.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"deterministic\": {{\"sessions\": {}, \"tenants\": {}, \"shards\": {}, \
             \"msgs\": {}, \"accepted\": {}, \"shed\": {}, \"p50_us\": {}, \"p99_us\": {}, \
             \"fairness_milli\": {}}}, \
             \"timing\": {{\"wall_us\": {}, \"msgs_per_sec\": {:.0}}}}}{}\n",
            p.sessions,
            p.tenants,
            p.shards,
            p.msgs,
            p.accepted,
            p.shed,
            p.p50_us,
            p.p99_us,
            p.fairness_milli,
            p.wall_us,
            p.msgs_per_sec(),
            if i + 1 == cloud.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n  \"stream\": [\n");
    for (i, p) in stream.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"deterministic\": {{\"sessions\": {}, \"tenants\": {}, \"msgs\": {}, \
             \"accepted\": {}, \"shed\": {}, \"log_records\": {}, \"log_bytes\": {}, \
             \"segments\": {}, \"windows\": {}, \"window_obs\": {}}}, \
             \"timing\": {{\"wall_us\": {}, \"replay_wall_us\": {}, \
             \"msgs_per_sec\": {:.0}}}}}{}\n",
            p.sessions,
            p.tenants,
            p.msgs,
            p.accepted,
            p.shed,
            p.log_records,
            p.log_bytes,
            p.segments,
            p.windows,
            p.window_obs,
            p.wall_us,
            p.replay_wall_us,
            p.msgs_per_sec(),
            if i + 1 == stream.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n  \"icn\": [\n");
    for (i, p) in icn.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"deterministic\": {{\"consumers\": {}, \"nodes\": {}, \"interests\": {}, \
             \"data\": {}, \"cache_hits\": {}, \"verifies\": {}, \"verify_fails\": {}, \
             \"delivered\": {}}}, \
             \"timing\": {{\"wall_us\": {}}}}}{}\n",
            p.consumers,
            p.nodes,
            p.interests,
            p.data,
            p.cache_hits,
            p.verifies,
            p.verify_fails,
            p.delivered,
            p.wall_us,
            if i + 1 == icn.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_counts_are_jobs_invariant() {
        let one = RunConfig {
            runner: crate::Runner::new(1),
            trials: 1,
        };
        let two = RunConfig {
            runner: crate::Runner::new(2),
            trials: 1,
        };
        let a = perf_matrix(&one, &[3, 4], 2);
        let b = perf_matrix(&two, &[3, 4], 2);
        assert_eq!(a.len(), 6);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!((x.side, x.mac, x.nodes), (y.side, y.mac, y.nodes));
            let counts = [x.events, x.air_visits, x.queue_pushes];
            assert_eq!(counts, [y.events, y.air_visits, y.queue_pushes]);
            assert!(counts.iter().all(|&c| c > 0));
        }
    }

    #[test]
    fn scaling_counts_are_stable_per_shard_count() {
        let a = scaling_curves(&[4], 1, &[1, 2]);
        let b = scaling_curves(&[4], 1, &[1, 2]);
        assert_eq!(a.len(), 2);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!((x.side, x.shards), (y.side, y.shards));
            let counts = [x.events, x.air_visits, x.queue_pushes];
            assert_eq!(counts, [y.events, y.air_visits, y.queue_pushes]);
            assert!(counts.iter().all(|&c| c > 0));
        }
    }

    #[test]
    fn json_has_schema_and_deterministic_blocks() {
        let p = PerfPoint {
            side: 10,
            nodes: 100,
            mac: "csma",
            secs: 5,
            events: 1234,
            air_visits: 617,
            queue_pushes: 494,
            wall_us: 1000,
        };
        let s = ScalePoint {
            side: 20,
            nodes: 400,
            shards: 4,
            secs: 5,
            events: 9876,
            air_visits: 4321,
            queue_pushes: 5555,
            wall_us: 2000,
            mode: "serial",
        };
        let c = crate::exp_cloud::CloudPoint {
            sessions: 100_000,
            tenants: 4,
            shards: 4,
            msgs: 400_000,
            accepted: 390_000,
            shed: 10_000,
            p50_us: 5_000,
            p99_us: 12_000,
            fairness_milli: 998,
            wall_us: 250_000,
        };
        let sp = crate::exp_stream::StreamPoint {
            sessions: 100_000,
            tenants: 4,
            msgs: 400_000,
            accepted: 380_000,
            shed: 20_000,
            log_records: 400_000,
            log_bytes: 14_400_000,
            segments: 219,
            windows: 1_200,
            window_obs: 380_000,
            wall_us: 500_000,
            replay_wall_us: 450_000,
        };
        let ip = crate::exp_icn::IcnPoint {
            consumers: 4,
            nodes: 6,
            interests: 120,
            data: 110,
            cache_hits: 80,
            verifies: 100,
            verify_fails: 0,
            delivered: 100,
            wall_us: 42_000,
        };
        let j = to_json(&[p], &[s], &[c], &[sp], &[ip]);
        assert!(j.contains("\"schema\": \"iiot-bench/perf/v9\""));
        assert!(j.contains("\"cache_hits\": 80"));
        assert!(j.contains("\"verify_fails\": 0"));
        assert!(j.contains("\"log_records\": 400000"));
        assert!(j.contains("\"replay_wall_us\": 450000"));
        assert!(j.contains("\"window_obs\": 380000"));
        assert!(j.contains("\"events\": 1234, \"air_visits\": 617, \"queue_pushes\": 494}"));
        assert!(j.contains("\"timing\": {\"wall_us\": 1000, \"events_per_sec\": 1234000}"));
        assert!(j.contains("\"shards\": 4"));
        assert!(j.contains("\"events\": 9876, \"air_visits\": 4321, \"queue_pushes\": 5555}"));
        assert!(j.contains("\"mode\": \"serial\""));
        assert!(j.contains("\"sessions\": 100000"));
        assert!(j.contains("\"fairness_milli\": 998"));
        assert!(j.contains("\"msgs_per_sec\": 1600000"));
        let t = table(&[p]);
        assert_eq!(t.rows().len(), 1);
        assert_eq!(t.rows()[0][4], "1.23");
        assert_eq!(t.rows()[0][5], "0.50");
        assert_eq!(t.rows()[0][6], "0.40");
        let st = scaling_table(&[s]);
        assert_eq!(st.rows().len(), 1);
        assert_eq!(st.rows()[0][1], "4");
        assert_eq!(st.rows()[0][2], "serial");
    }
}
