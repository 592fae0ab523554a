//! Perf workload: what the kernel does per simulated event, on growing
//! broadcast/CSMA/LPL grids and under a collection tree.
//!
//! Unlike E1-E18 this harness measures the *simulator*, not the
//! simulated protocols. Every row is one workload run once:
//!
//! * the **matrix** — square grids of broadcast-chatty nodes (10x10 up
//!   to 40x40) under each of [`MACS`];
//! * the **scaling curve** — the transmit-heavy `bcast` workload at
//!   N ∈ {400, 1600, 6400, 25600, 102400}: the paper's size claim
//!   (§IV), carried by a kernel whose cost per event stays flat. (The
//!   400- and 1,600-node `bcast` rows appear in both, under the seed of
//!   each.)
//! * the **collection rows** — the `collect` flavour at 100 and 400
//!   nodes: the benchmark's `plant` battery tier (a DODAG over LPL with
//!   its traffic and wake interval) on the same grid, so the MAC's
//!   strobe trains and the routing layer above them are priced too.
//!
//! A row carries **`events`**, **`air_visits`** and **`queue_pushes`**:
//! how many kernel events the workload dispatches, how many
//! transmission records the medium examines ([`Sim::air_visits`]) and
//! how many event-heap entries the kernel pushes
//! ([`Sim::queue_pushes`]) doing so. All three are pure functions of
//! the workload and seed, so [`to_json`]'s document is a
//! pure function of the source tree: `scripts/perf_gate.sh` regenerates
//! it and `cmp`s it with the committed `BENCH_perf.json`, and a change
//! that moves a count commits the new file in the same diff. [`check`]
//! holds the bounds a regenerated file may not cross. Wall clock is
//! printed beside the counts and never written; wall-clock claims belong
//! to `benchmark/`.

use crate::Table;
use iiot_mac::csma::CsmaMac;
use iiot_mac::driver::MacDriver;
use iiot_mac::lpl::{LplConfig, LplMac};
use iiot_routing::{DodagConfig, DodagNode, Traffic};
use iiot_sim::prelude::*;
use std::time::Instant;

/// Grid spacing in meters (default unit-disk range 30 m: 4-neighbour
/// connectivity, 8 audible neighbours within interference range).
pub const SPACING_M: f64 = 20.0;

/// The matrix's workload flavours: `bcast` is a raw periodic broadcaster
/// (no MAC — the purest transmit-heavy stress of the begin-tx path),
/// `csma` and `lpl` run the real MACs. The fourth, `collect`, has rows
/// of its own ([`collection_rows`]).
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

/// One workload, run once: a row of `BENCH_perf.json`, plus how long
/// this host took (`wall_us` is printed, never written).
#[derive(Clone, Copy, Debug)]
pub struct PerfPoint {
    /// Workload flavour: `"bcast"`, `"csma"`, `"lpl"` or `"collect"`.
    pub workload: &'static str,
    /// Node count (a square grid).
    pub nodes: u32,
    /// Simulated seconds of the workload.
    pub secs: u64,
    /// Events dispatched.
    pub events: u64,
    /// Transmission records the medium examined.
    pub air_visits: u64,
    /// Event-heap entries the kernel pushed.
    pub queue_pushes: u64,
    /// Wall-clock time, microseconds.
    pub wall_us: u64,
}

impl PerfPoint {
    /// Dispatched events per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        self.events as f64 / (self.wall_us as f64 / 1e6).max(1e-9)
    }

    /// A deterministic cost counter as its count per dispatched event.
    fn per_event(&self, count: u64) -> f64 {
        count as f64 / self.events.max(1) as f64
    }
}

/// Builds the transmit-heavy workload: a `side x side` grid where every
/// node broadcasts periodically (staggered by node index so the medium
/// always has traffic in the air).
fn build(side: u32, mac: &str, secs: u64, seed: u64) -> Sim {
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
    let builder = SimBuilder::new().seed(seed).link(link);
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
        "collect" => {
            // `plant`'s battery tier: every node but the root (mid-grid)
            // reports 10 B every 30 s from t = 60 s, up a DODAG over
            // LPL waking every 256 ms.
            let traffic = Traffic {
                period: SimDuration::from_secs(30),
                payload_len: 10,
                start_after: SimDuration::from_secs(60),
            };
            let config = DodagConfig {
                traffic: Some(traffic),
                ..DodagConfig::default()
            };
            let lpl = LplConfig {
                wake_interval: SimDuration::from_millis(256),
                ..LplConfig::default()
            };
            let root = (side * (side / 2) + side / 2) as usize;
            builder
                .nodes(topo, move |i| {
                    let mac = LplMac::new(lpl.clone());
                    Box::new(DodagNode::new(mac, config.clone(), i == root))
                })
                .build()
        }
        other => panic!("unknown mac flavour {other:?}"),
    }
}

/// Runs one workload once.
fn measure(workload: &'static str, side: u32, secs: u64, seed: u64) -> PerfPoint {
    let mut sim = build(side, workload, secs, seed);
    let started = Instant::now();
    sim.run(SimDuration::from_secs(secs));
    let wall_us = started.elapsed().as_micros() as u64;
    PerfPoint {
        workload,
        nodes: side * side,
        secs,
        events: sim.events_dispatched(),
        air_visits: sim.air_visits(),
        queue_pushes: sim.queue_pushes(),
        wall_us,
    }
}

/// Measures the matrix: `sides` x [`MACS`]. Points run one after
/// another so they do not time each other.
pub fn perf_matrix(sides: &[u32], secs: u64) -> Vec<PerfPoint> {
    sides
        .iter()
        .flat_map(|&s| MACS.iter().map(move |&m| (s, m)))
        .enumerate()
        .map(|(i, (side, mac))| measure(mac, side, secs, 0xBE2C_0000 + i as u64))
        .collect()
}

/// Measures the scaling curve: the `bcast` workload at every `sides`,
/// one after another.
pub fn scaling_curve(sides: &[u32], secs: u64) -> Vec<PerfPoint> {
    let seeds = (0x5CA1_0000..).zip(sides);
    let points = seeds.map(|(seed, &side)| measure("bcast", side, secs, seed));
    points.collect()
}

/// Measures the `collect` flavour at every `sides`, one after another;
/// `secs` must pass the traffic's 60 s start for data to flow.
pub fn collection_rows(sides: &[u32], secs: u64) -> Vec<PerfPoint> {
    let seeds = (0xC011_0000..).zip(sides);
    let points = seeds.map(|(seed, &side)| measure("collect", side, secs, seed));
    points.collect()
}

/// Renders the points as a human-readable table. `events`, `visits/ev`
/// and `pushes/ev` are deterministic; the timing cells vary run to run.
pub fn table(points: &[PerfPoint]) -> Table {
    let mut t = Table::new(
        "PERF: kernel cost per event (20 m grid, broadcast-heavy; wall clock is this host's)",
        &[
            "workload",
            "nodes",
            "events",
            "wall (ms)",
            "Mev/s",
            "visits/ev",
            "pushes/ev",
        ],
    );
    for p in points {
        t.row(vec![
            p.workload.to_string(),
            p.nodes.to_string(),
            p.events.to_string(),
            format!("{:.1}", p.wall_us as f64 / 1e3),
            format!("{:.2}", p.events_per_sec() / 1e6),
            format!("{:.2}", p.per_event(p.air_visits)),
            format!("{:.2}", p.per_event(p.queue_pushes)),
        ]);
    }
    t
}

/// Serializes the points as the `BENCH_perf.json` document: the
/// deterministic fields only, so the same source tree writes the same
/// bytes on any machine.
pub fn to_json(points: &[PerfPoint]) -> String {
    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "    {{\"workload\": \"{}\", \"nodes\": {}, \"secs\": {}, \
                 \"events\": {}, \"air_visits\": {}, \"queue_pushes\": {}}}",
                p.workload, p.nodes, p.secs, p.events, p.air_visits, p.queue_pushes
            )
        })
        .collect();
    format!(
        "{{\n  \"schema\": \"iiot-bench/perf/v11\",\n  \"rows\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    )
}

/// What a committed document must show, over the `bcast` rows: the
/// curve reaches 102,400 nodes, the medium's cost per event stays flat
/// as the grid grows, and a frame stays one queue entry.
pub fn check(points: &[PerfPoint]) -> Result<(), String> {
    let bcast: Vec<&PerfPoint> = points.iter().filter(|p| p.workload == "bcast").collect();
    if !bcast.iter().any(|p| p.nodes >= 102_400) {
        return Err("no bcast row reaches 102,400 nodes".into());
    }
    // The base is the 1,600-node point: at 400 nodes the stagger covers
    // a third of the period, next to nobody listens while a neighbour
    // transmits, and the ratio is low for that reason alone.
    let Some(base) = bcast.iter().find(|p| p.nodes == 1_600) else {
        return Err("no bcast row at the 1,600-node base".into());
    };
    let base = base.per_event(base.air_visits);
    for p in bcast {
        let visits = p.per_event(p.air_visits);
        if p.nodes > 1_600 && visits > 1.25 * base {
            return Err(format!(
                "air_visits/event at {} nodes is {visits:.2}, over 1.25x the 1,600-node \
                 {base:.2}: the medium's cost grows with the grid",
                p.nodes
            ));
        }
        // The broadcaster's events are a timer, a frame end and about
        // three receptions per frame, and only the first two are heap
        // entries (0.40-0.53 per event); one per reception reads 1.0.
        let pushes = p.per_event(p.queue_pushes);
        if pushes > 0.6 {
            return Err(format!(
                "queue_pushes/event at {} bcast nodes is {pushes:.2}, over 0.6: a frame's \
                 receptions are queued again",
                p.nodes
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_document() -> String {
        let mut points = perf_matrix(&[3, 4], 1);
        points.extend(scaling_curve(&[4], 1));
        to_json(&points)
    }

    #[test]
    fn document_repeats_and_holds_row_keys_only() {
        let doc = small_document();
        assert_eq!(doc, small_document());
        assert!(doc.contains("\"schema\": \"iiot-bench/perf/v11\""));
        assert_eq!(doc.matches("\"workload\"").count(), 7);
        // Quoted strings are the odd pieces; a key is one a colon follows.
        let pieces: Vec<&str> = doc.split('"').collect();
        let keys: std::collections::BTreeSet<&str> = pieces
            .windows(2)
            .skip(1)
            .step_by(2)
            .filter(|w| w[1].starts_with(':'))
            .map(|w| w[0])
            .collect();
        let schema = [
            "air_visits",
            "events",
            "nodes",
            "queue_pushes",
            "rows",
            "schema",
            "secs",
            "workload",
        ];
        assert_eq!(keys.into_iter().collect::<Vec<_>>(), schema);
    }

    fn counts(p: &PerfPoint) -> [u64; 3] {
        [p.events, p.air_visits, p.queue_pushes]
    }

    #[test]
    fn scaling_counts_repeat() {
        let [a, b] = [(); 2].map(|()| scaling_curve(&[4, 5], 1));
        let nodes: Vec<u32> = a.iter().map(|p| p.nodes).collect();
        assert_eq!(nodes, [16, 25]);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(counts(x), counts(y));
            assert!(counts(x).iter().all(|&c| c > 0));
        }
    }

    #[test]
    fn collection_rows_repeat() {
        let [a, b] = [(); 2].map(|()| collection_rows(&[4], 65));
        assert_eq!((a[0].workload, a[0].nodes, a[0].secs), ("collect", 16, 65));
        assert_eq!(counts(&a[0]), counts(&b[0]));
        assert!(counts(&a[0]).iter().all(|&c| c > 0));
    }

    fn row(workload: &'static str, nodes: u32, counts: [u64; 3]) -> PerfPoint {
        PerfPoint {
            workload,
            nodes,
            secs: 5,
            events: counts[0],
            air_visits: counts[1],
            queue_pushes: counts[2],
            wall_us: 1_000,
        }
    }

    /// The `bcast` curve as committed, and a row outside `check`'s
    /// scope that breaks its bounds.
    fn committed_shape() -> Vec<PerfPoint> {
        vec![
            row("bcast", 400, [156_400, 79_644, 80_800]),
            row("bcast", 1_600, [789_458, 1_662_458, 323_200]),
            row("bcast", 6_400, [3_181_832, 5_142_365, 1_292_800]),
            row("bcast", 25_600, [12_775_066, 15_692_959, 5_171_200]),
            row("bcast", 102_400, [51_195_843, 42_560_990, 20_684_800]),
            row("lpl", 6_400, [1_000_000, 3_000_000, 700_000]),
        ]
    }

    #[test]
    fn check_holds_reach_flatness_and_one_entry_per_frame() {
        let good = committed_shape();
        assert_eq!(check(&good), Ok(()));

        for (i, nodes) in [(2, 6_400), (4, 102_400)] {
            let mut grows = good.clone();
            let events = grows[i].events as f64;
            grows[i].air_visits = (1.3 * 1_662_458.0 / 789_458.0 * events) as u64;
            let err = check(&grows).unwrap_err();
            assert!(
                err.contains(&format!("air_visits/event at {nodes} nodes")),
                "{err}"
            );
        }

        let mut requeued = good.clone();
        requeued[0].queue_pushes = requeued[0].events * 7 / 10;
        let err = check(&requeued).unwrap_err();
        assert!(err.contains("queue_pushes/event at 400 bcast"), "{err}");

        let err = check(&good[..4]).unwrap_err();
        assert!(err.contains("102,400"), "{err}");
    }

    #[test]
    fn table_prints_per_event_costs() {
        let t = table(&committed_shape());
        assert_eq!(t.rows().len(), 6);
        // 156,400 events in 1 ms of wall clock.
        assert_eq!(
            t.rows()[0][2..],
            ["156400", "1.0", "156.40", "0.51", "0.52"]
        );
    }
}
