//! Time-synchronization experiments: E13 prices TDMA's standing
//! assumption that "time synchronization is assumed".
//!
//! §IV-B of the paper credits synchronous TDMA pipelines with
//! millisecond end-to-end latency at minimal duty cycle — a claim that
//! silently rides on network-wide time agreement. E13 takes the
//! assumption apart on drifting oscillators ([`ClockModel::drifting`]):
//!
//! * **drift sweep** — delivery of an 8-node TDMA collection line as
//!   oscillator tolerance grows, free-running vs FTSP-synced
//!   (`iiot-timesync` beacons in a dedicated sync slot), including the
//!   beacon duty tax the synced arm pays;
//! * **sync error vs hop distance** — FTSP's classic multi-hop result,
//!   on a standalone beacon flood with per-hop regression re-anchoring;
//! * **guard ablation** — with deliberately weakened sync (offset-only,
//!   sparse resync), the slot guard time is what absorbs the residual
//!   error; sweeping it exposes the delivery/energy trade.
//!
//! Each configuration point is one [`Trial`] on the worker pool;
//! tables are byte-identical for any `--jobs`.

use crate::runner::{Cell, Trial};
use crate::table::Table;
use crate::RunConfig;
use iiot_mac::tdma::{TdmaMac, TdmaSchedule, TdmaSync};
use iiot_routing::dodag::Traffic;
use iiot_routing::graph::line_parents;
use iiot_routing::statictree::{StaticCollection, StaticConfig};
use iiot_sim::prelude::*;
use iiot_timesync::{FtspConfig, FtspNode};

/// How the TDMA arm under test maps its oscillator onto the schedule.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum SyncMode {
    /// Free-running local clocks, no synchronization (the strawman).
    Unsynced,
    /// FTSP beacons in the sync slot; `window` is the regression window
    /// and `every` the beaconing frame stride.
    Ftsp { window: usize, every: u32 },
}

/// Metrics of one TDMA collection run under drifting clocks.
struct TdmaRun {
    delivery: f64,
    violations: f64,
    beacons: f64,
    duty: f64,
}

/// An `n`-node TDMA collection line (10 m spacing, 20 ms slots, one
/// sync slot, 8 idle slots) under `ppm` oscillators, run for `secs`.
fn tdma_line_run(
    n: usize,
    ppm: f64,
    guard: SimDuration,
    mode: SyncMode,
    seed: u64,
    secs: u64,
) -> TdmaRun {
    let parents = line_parents(n);
    let sched = TdmaSchedule::pipeline_to_root(&parents, SimDuration::from_millis(20))
        .with_sync_slots(1)
        .with_idle(8)
        .with_guard(guard);
    let mut cfg = StaticConfig::new(parents);
    cfg.traffic = Some(Traffic {
        period: SimDuration::from_secs(4),
        payload_len: 10,
        start_after: SimDuration::from_secs(30),
    });
    let mut w = SimBuilder::new()
        .seed(seed)
        .clock(ClockModel::drifting(ppm))
        .nodes(Topology::line(n, 10.0), move |_| {
            let mac = TdmaMac::new(sched.clone());
            let mac = match mode {
                SyncMode::Unsynced => mac.with_local_clock(),
                // 2 ms stride: beacon airtime is ~1.2 ms, so cascading
                // re-floods need headroom for estimate error between
                // adjacent depths or they collide in the sync slot.
                SyncMode::Ftsp { window, every } => mac.with_sync(TdmaSync {
                    ftsp: FtspConfig::default()
                        .with_reference(NodeId(0))
                        .with_window(window),
                    every,
                    stride: SimDuration::from_micros(2000),
                }),
            };
            Box::new(StaticCollection::new(mac, cfg.clone())) as Box<dyn Proto>
        })
        .build();
    let ids: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
    w.run_for(SimDuration::from_secs(secs));
    let gen = w.stats().node_total("data_origin");
    let del = w.stats().node_total("data_rx_root");
    let duty = ids.iter().map(|&id| w.energy(id).duty_cycle()).sum::<f64>() / n as f64;
    TdmaRun {
        delivery: if gen == 0.0 { 1.0 } else { del / gen },
        violations: w.stats().node_total("tdma_guard_violation"),
        beacons: w.stats().node_total("ftsp_tx"),
        duty,
    }
}

/// E13 drift sweep over an explicit ppm axis, `secs` of simulated time
/// per point: delivery collapses for free-running clocks as ppm grows;
/// the FTSP arm holds near the ppm=0 baseline for a measurable beacon
/// duty tax.
pub fn e13_drift_sweep(rc: &RunConfig, ppms: &[u32], secs: u64) -> Table {
    rc.table(
        "E13: TDMA collection under oscillator drift (8-node line, 20 ms slots, 1 ms guard), free-running vs FTSP-synced",
        &["drift (ppm)", "clock", "delivery", "guard violations", "sync beacons", "duty cycle"],
        ppms.iter().flat_map(|&ppm| {
            [
                ("unsynced", SyncMode::Unsynced),
                (
                    "ftsp",
                    SyncMode::Ftsp {
                        window: 8,
                        every: 1,
                    },
                ),
            ]
            .into_iter()
            .map(move |(name, mode)| {
                Trial::new(format!("e13/{name}/{ppm}ppm"), 0xE13, move |seed| {
                    let r =
                        tdma_line_run(8, ppm as f64, SimDuration::from_millis(1), mode, seed, secs);
                    vec![vec![
                        Cell::label(ppm.to_string()),
                        Cell::label(name),
                        Cell::pct(r.delivery),
                        Cell::int(r.violations),
                        Cell::int(r.beacons),
                        Cell::pct(r.duty),
                    ]]
                })
            })
        }),
    )
}

/// E13 sync error vs hop distance on a standalone FTSP flood (no MAC):
/// `n` nodes in a line spaced one radio hop apart, 50 ppm oscillators,
/// dynamic reference election, `secs` of simulated time.
pub fn e13_sync_error(rc: &RunConfig, n: usize, secs: u64) -> Table {
    rc.table(
        "E13: FTSP sync error vs hop distance (line, one hop per link, 50 ppm, 2 s beacons, elected reference)",
        &["hops from reference", "depth", "mean sync error (us)"],
        [Trial::new("e13/hops", 0xE13, move |seed| {
            let cfg = FtspConfig::default().with_period(SimDuration::from_secs(2));
            let mut w = SimBuilder::new()
                .seed(seed)
                .clock(ClockModel::drifting(50.0))
                .nodes(Topology::line(n, 25.0), move |_| {
                    Box::new(FtspNode::new(cfg.clone())) as Box<dyn Proto>
                })
                .build();
            let ids: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
            // Settle, then time-average |error| over the tail: a single
            // snapshot is dominated by where each node sits in its
            // beacon/regression cycle.
            let settle = secs * 4 / 5;
            w.run_for(SimDuration::from_secs(settle));
            let mut err_sum = vec![0.0f64; n];
            let mut samples = 0u32;
            for _ in settle..secs {
                w.run_for(SimDuration::from_secs(1));
                samples += 1;
                let root_local = w.local_time_of(ids[0]);
                for (i, &id) in ids.iter().enumerate().skip(1) {
                    let local = w.local_time_of(id);
                    let est = w.proto::<FtspNode>(id).clock().global(local);
                    let err = est.as_micros() as i64 - root_local.as_micros() as i64;
                    err_sum[i] += err.unsigned_abs() as f64;
                }
            }
            ids.iter()
                .enumerate()
                .skip(1)
                .map(|(hops, &id)| {
                    let depth = w.proto::<FtspNode>(id).engine().depth() as f64;
                    vec![
                        Cell::label(hops.to_string()),
                        Cell::int(depth),
                        Cell::f1(err_sum[hops] / samples.max(1) as f64),
                    ]
                })
                .collect()
        })],
    )
}

/// E13 guard ablation over an explicit guard axis (µs), with sync
/// deliberately weakened to offset-only estimation (window 1) and
/// sparse resync (every 8 frames) at 200 ppm, so a residual error of
/// up to ~1 ms accrues between beacons for the guard to absorb.
pub fn e13_guard_ablation(rc: &RunConfig, guards_us: &[u64], secs: u64) -> Table {
    rc.table(
        "E13-ablation: guard time vs delivery under weakened sync (offset-only, resync every 8 frames, 200 ppm)",
        &["guard (us)", "delivery", "guard violations", "duty cycle"],
        guards_us.iter().map(|&g| {
            Trial::new(format!("e13/guard/{g}us"), 0xE13, move |seed| {
                let r = tdma_line_run(
                    8,
                    200.0,
                    SimDuration::from_micros(g),
                    SyncMode::Ftsp {
                        window: 1,
                        every: 8,
                    },
                    seed,
                    secs,
                );
                vec![vec![
                    Cell::label(g.to_string()),
                    Cell::pct(r.delivery),
                    Cell::int(r.violations),
                    Cell::pct(r.duty),
                ]]
            })
        }),
    )
}
