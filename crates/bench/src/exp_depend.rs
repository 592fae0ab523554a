//! Dependability experiments: E4 (RNFD failure detection), E7 (CAP
//! under partitions), E8 (redundancy types), E9 (soft safety / HVAC)
//! and E11 (maintainability under churn + automated diagnosis).
//!
//! E4, E7, E8 and E11's churn sweep run on the [`Trial`] runner, so
//! `--jobs`/`--trials`/`--trace` cover them; E9 and the diagnosis case
//! stay sequential (each is a sub-second closed-form sweep).

use crate::runner::{Cell, Trial};
use crate::table::{f1, f3, pct, Table};
use crate::RunConfig;
use iiot_core::{Deployment, MacChoice};
use iiot_crdt::{GCounter, ReplicaId};
use iiot_dependability::diagnosis::{diagnose_fleet, Symptoms};
use iiot_dependability::hvac::{simulate as hvac_simulate, Thermostat, Zone};
use iiot_dependability::redundancy::{
    k_of_n_prob, parity_decode, parity_encode, parity_success_prob, retry_success_prob, vote, Vote,
};
use iiot_dependability::safety::SafetyEnvelope;
use iiot_dependability::{simulate_replicas_with, Design, PartitionWindow};
use iiot_mac::csma::CsmaMac;
use iiot_routing::dodag::DodagNode;
use iiot_routing::rnfd::{RnfdConfig, RnfdNode};
use iiot_sim::prelude::*;
use iiot_sim::{Fault, FaultPlan};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

// ---------------------------------------------------------------------
// E4
// ---------------------------------------------------------------------

fn rnfd_star(
    sentinels: usize,
    prr: f64,
    miss_threshold: u32,
    solo: bool,
    crash_at: Option<SimTime>,
    seed: u64,
) -> (bool, Option<f64>) {
    let mut topo = Topology::new();
    topo.push(Pos::new(0.0, 0.0));
    for k in 0..sentinels {
        let ang = k as f64 / sentinels as f64 * std::f64::consts::TAU;
        topo.push(Pos::new(10.0 * ang.cos(), 10.0 * ang.sin()));
    }
    let set: Vec<NodeId> = if solo {
        vec![NodeId(1)]
    } else {
        (1..=sentinels as u32).map(NodeId).collect()
    };
    let cfg = RnfdConfig {
        miss_threshold,
        sentinels: set,
    };
    let ids: Vec<NodeId> = (0..topo.len() as u32).map(NodeId).collect();
    let mut w = SimBuilder::new()
        .seed(seed)
        .link(LinkModel::LossyDisk {
            range_m: 30.0,
            interference_range_m: 45.0,
            prr,
        })
        .nodes(topo, move |_| {
            Box::new(RnfdNode::new(CsmaMac::default(), cfg.clone())) as Box<dyn Proto>
        })
        .build();
    if let Some(at) = crash_at {
        FaultPlan::new()
            .push(Fault::Crash { node: ids[0], at })
            .apply(&mut w)
            .expect("fault plan fits the sim");
    }
    w.run_for(SimDuration::from_secs(200));
    // Earliest verdict anywhere.
    let verdict = ids[1..]
        .iter()
        .filter_map(|&s| w.proto::<RnfdNode<CsmaMac>>(s).verdict_at())
        .min();
    match (crash_at, verdict) {
        (None, v) => (v.is_some(), None), // false alarm?
        (Some(at), Some(v)) if v >= at => (true, Some(v.duration_since(at).as_secs_f64())),
        (Some(_), Some(_)) => (false, None), // verdict before the crash: FP
        (Some(_), None) => (false, None),
    }
}

/// E4: border-router failure detection — solo watcher vs. RNFD-style
/// sentinel quorum on lossy links (PRR 0.7).
///
/// Paper claim (§IV-B): "by exploiting parallelism, one can improve the
/// efficiency of border router failure detection by orders of
/// magnitude". The quorum suppresses nearly all false alarms at
/// aggressive thresholds, so it detects real crashes much faster at
/// comparable reliability.
pub fn e4_rnfd(rc: &RunConfig) -> Table {
    // One trial per (detector, threshold) cell; the 8-seed loop inside
    // IS the measurement, so each trial derives its seeds from the
    // replica seed it is handed.
    rc.table(
        "E4: failure detection at PRR 0.7 (6 sentinels, heartbeat 1 s, 8 seeds per cell)",
        &[
            "detector",
            "miss threshold",
            "false alarms (of 8)",
            "detections (of 8)",
            "mean latency (s)",
        ],
        [(true, "solo"), (false, "quorum-6")]
            .into_iter()
            .flat_map(|(solo, name)| {
                [2u32, 4, 8].into_iter().map(move |m| {
                    Trial::new(format!("e4/{name}/m{m}"), 0xE4, move |seed| {
                        let mut fps = 0u32;
                        let mut detected = 0u32;
                        let mut lat_sum = 0.0;
                        for k in 1..=8u64 {
                            let s = iiot_sim::seed::derive(seed, k);
                            let (fp, _) = rnfd_star(6, 0.7, m, solo, None, s);
                            if fp {
                                fps += 1;
                            }
                            let (ok, lat) =
                                rnfd_star(6, 0.7, m, solo, Some(SimTime::from_secs(60)), s);
                            if ok {
                                if let Some(l) = lat {
                                    detected += 1;
                                    lat_sum += l;
                                }
                            }
                        }
                        let mean_lat = if detected > 0 {
                            lat_sum / detected as f64
                        } else {
                            0.0
                        };
                        vec![vec![
                            Cell::label(name),
                            Cell::label(m.to_string()),
                            Cell::int(fps as f64),
                            Cell::int(detected as f64),
                            Cell::f3(mean_lat),
                        ]]
                    })
                })
            }),
    )
}

// ---------------------------------------------------------------------
// E7
// ---------------------------------------------------------------------

/// E7: availability and convergence under partitions, AP (CRDT) vs CP
/// (majority quorum).
///
/// Paper claim (§V-C): under partitions systems "must at least
/// guarantee safety \[and\] preferably ... continue offering their
/// functionality"; CRDT-based eventual consistency is the compelling
/// approach.
pub fn e7_partition(rc: &RunConfig) -> Table {
    // One trial per (duration, design). The replica engine is
    // deterministic — the seed is unused — but the grid of 8 store
    // simulations still fans out over the worker pool.
    rc.table(
        "E7: replicated store under a 2|3 partition (5 replicas, 100 rounds)",
        &[
            "partition rounds",
            "design",
            "availability",
            "rejected",
            "max divergence",
            "converge (rounds)",
        ],
        [0u64, 20, 40, 60].into_iter().flat_map(|dur| {
            [Design::Ap, Design::Cp].into_iter().map(move |design| {
                Trial::new(format!("e7/d{dur}/{design:?}"), 0xE7, move |_seed| {
                    let windows = if dur == 0 {
                        vec![]
                    } else {
                        vec![PartitionWindow {
                            start: 20,
                            end: 20 + dur,
                            groups: vec![0, 0, 1, 1, 1],
                        }]
                    };
                    // Under --trace, stream one CrdtMerge event per
                    // anti-entropy merge (episode spans) into the dump;
                    // the engine itself ignores the seed.
                    let mut cap = iiot_sim::obs::scope_capture(0);
                    let r = simulate_replicas_with(design, 5, 100, &windows, 4, cap.as_deref_mut());
                    drop(cap);
                    vec![vec![
                        Cell::label(dur.to_string()),
                        Cell::label(format!("{design:?}")),
                        Cell::pct(r.availability()),
                        Cell::label(r.rejected.to_string()),
                        Cell::label(r.max_divergence.to_string()),
                        Cell::label(
                            r.convergence_rounds
                                .map(|c| c.to_string())
                                .unwrap_or_else(|| "never".into()),
                        ),
                    ]]
                })
            })
        }),
    )
}

/// Structural wire size of a full [`GCounter`] state: one `(replica,
/// slot)` pair per contributing replica.
fn gcounter_full_bytes(replicas: usize) -> usize {
    2 + replicas * 16
}

/// E7 ablation: full-state vs delta-state synchronization bandwidth.
pub fn e7_delta_ablation() -> Table {
    let mut t = Table::new(
        "E7-ablation: bytes per anti-entropy exchange, full-state vs delta (GCounter)",
        &["replicas", "full-state bytes", "delta bytes", "ratio"],
    );
    for replicas in [4usize, 16, 64, 256] {
        // Sanity-check the delta semantics while we are here.
        let mut c = GCounter::new();
        for r in 0..replicas as u64 {
            c.inc(ReplicaId(r), 1);
        }
        let delta = c.inc(ReplicaId(0), 1);
        assert_eq!(delta.value(), 2, "delta carries only the writer's slot");
        let full = gcounter_full_bytes(replicas);
        let d = gcounter_full_bytes(1);
        t.row(vec![
            replicas.to_string(),
            full.to_string(),
            d.to_string(),
            f1(full as f64 / d as f64),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// E8
// ---------------------------------------------------------------------

/// E8: the three redundancy types of §V-A — measured success rates
/// (Monte Carlo over the actual mechanisms) against the analytic models.
pub fn e8_redundancy(rc: &RunConfig) -> Table {
    const MC: usize = 2000;
    rc.table(
        "E8: task success under loss p (2000 trials): none vs information (4+1 parity) vs time (3 tries) vs physical (2-of-3)",
        &["loss p", "none", "parity mc", "parity model", "retry mc", "retry model", "vote mc", "vote model"],
        [0.05f64, 0.1, 0.2, 0.3, 0.5]
            .into_iter()
            .map(|p| {
                Trial::new(format!("e8/p{p}"), 0xE8, move |seed| {
                    let mut rng = SmallRng::seed_from_u64(seed);
                    let mut parity_ok = 0;
                    let mut retry_ok = 0;
                    let mut vote_ok = 0;
                    for _ in 0..MC {
                        // Information: 4 data + 1 parity shards, each lost
                        // with p.
                        let data = b"28 bytes of sensor payload!!".to_vec();
                        let shards = parity_encode(&data, 4);
                        let got: Vec<Option<Vec<u8>>> = shards
                            .into_iter()
                            .map(|s| if rng.gen::<f64>() < p { None } else { Some(s) })
                            .collect();
                        if parity_decode(&got, data.len()).as_deref() == Some(data.as_slice()) {
                            parity_ok += 1;
                        }
                        // Time: up to 3 attempts.
                        if (0..3).any(|_| rng.gen::<f64>() >= p) {
                            retry_ok += 1;
                        }
                        // Physical: 3 replicated sensors, each failed-silent
                        // with p.
                        let readings: Vec<Option<f64>> = (0..3)
                            .map(|_| {
                                if rng.gen::<f64>() < p {
                                    None
                                } else {
                                    Some(21.0 + rng.gen::<f64>() * 0.1)
                                }
                            })
                            .collect();
                        if matches!(vote(&readings, 0.5), Vote::Agreed(_)) {
                            vote_ok += 1;
                        }
                    }
                    vec![vec![
                        Cell::label(f3(p)),
                        Cell::pct(1.0 - p),
                        Cell::pct(parity_ok as f64 / MC as f64),
                        Cell::pct(parity_success_prob(4, p)),
                        Cell::pct(retry_ok as f64 / MC as f64),
                        Cell::pct(retry_success_prob(p, 3)),
                        Cell::pct(vote_ok as f64 / MC as f64),
                        Cell::pct(k_of_n_prob(3, 2, 1.0 - p)),
                    ]]
                })
            }),
    )
}

// ---------------------------------------------------------------------
// E9
// ---------------------------------------------------------------------

/// E9: the §V-B comfort/energy trade-off — sweeping the unoccupied
/// setback margin of the HVAC controller over a 5-day winter week.
pub fn e9_safety_hvac() -> Table {
    let envelope = SafetyEnvelope::new(5.0, 20.0, 24.0, 32.0);
    let mut t = Table::new(
        "E9: HVAC setback margin vs energy, occupied discomfort and provider revenue (5 days, outdoor mean 4 C)",
        &["setback (C)", "energy (kWh)", "discomfort", "hard events", "revenue"],
    );
    for setback in [0.0f64, 2.0, 4.0, 6.0, 8.0] {
        let r = hvac_simulate(
            Zone::default(),
            Thermostat::new(envelope, setback),
            5,
            SimDuration::from_secs(60),
            4.0,
        );
        t.row(vec![
            f1(setback),
            f1(r.energy_kwh),
            pct(r.discomfort_frac),
            r.hard_events.to_string(),
            format!("{:+.2}", r.revenue),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// E11
// ---------------------------------------------------------------------

/// E11: self-healing under churn — delivery and repair activity as the
/// crash rate rises — plus the automated diagnoser's verdicts on an
/// injected fault.
///
/// Paper claim (§V-D): routing self-organizes and repairs, but
/// automated diagnosis of components is the neglected piece.
pub fn e11_maintainability(rc: &RunConfig) -> Table {
    rc.table(
        "E11: 5x5 grid under crash-recovery churn (600 s, MTTR 30 s)",
        &[
            "node MTBF (s)",
            "delivery",
            "parent switches",
            "data drops",
            "orphans at end",
        ],
        [0u64, 600, 300, 150].into_iter().map(|mtbf| {
            Trial::new(format!("e11/mtbf{mtbf}"), 0xE11, move |seed| {
                let mut d = Deployment::builder(Topology::grid(5, 5, 20.0))
                    .mac(MacChoice::Csma)
                    .seed(seed)
                    .traffic(SimDuration::from_secs(20), 10, SimDuration::from_secs(40))
                    .build();
                if mtbf > 0 {
                    // The churn plan splits its own stream from the
                    // trial seed so replicas vary the fault schedule
                    // along with everything else.
                    let mut rng = SmallRng::seed_from_u64(iiot_sim::seed::derive(seed, mtbf));
                    let plan = FaultPlan::random_churn(
                        &mut rng,
                        &d.nodes[1..],
                        SimDuration::from_secs(mtbf),
                        SimDuration::from_secs(30),
                        SimTime::ZERO,
                        SimTime::from_secs(550),
                    );
                    plan.apply(&mut d.sim).expect("fault plan fits the sim");
                }
                d.run_for(SimDuration::from_secs(600));
                let r = d.report();
                let dodag = |&n| d.sim.proto::<DodagNode<CsmaMac>>(n).parent_switches();
                let switches = d.nodes.iter().map(dodag).sum::<u64>() as f64;
                let drops = d.sim.stats().node_total("data_drop_retries")
                    + d.sim.stats().node_total("data_drop_queue");
                vec![vec![
                    Cell::label(if mtbf == 0 {
                        "none".into()
                    } else {
                        mtbf.to_string()
                    }),
                    Cell::pct(r.delivery_ratio),
                    Cell::f1(switches),
                    Cell::f1(drops),
                    Cell::int(r.orphans as f64),
                ]]
            })
        }),
    )
}

/// E11-diagnosis: the automated diagnoser pinpoints an injected dead
/// node from symptoms alone.
pub fn e11_diagnosis() -> Table {
    let period = SimDuration::from_secs(10);
    let mut d = Deployment::builder(Topology::grid(4, 3, 20.0))
        .mac(MacChoice::Csma)
        .seed(0xD1A6)
        .traffic(period, 10, SimDuration::from_secs(20))
        .build();
    d.run_for(SimDuration::from_secs(60));
    let victim = d.nodes[7];
    // Deliveries before the fault are the baseline; only later ones count.
    let baseline = d.collected().len();
    d.sim.kill(victim);
    let window = SimDuration::from_secs(120);
    d.run_for(window);

    let stats = d.sim.stats();
    let root_receiving = stats.node_total("data_rx_root") > 0.0;
    // Expectation comes from the traffic *contract* over the window,
    // not from what the node happened to generate: a silent node is
    // exactly the symptom.
    let expected = (window.as_secs_f64() / period.as_secs_f64()).floor() as u32;
    let fresh = &d.collected()[baseline..];
    let symptoms: Vec<Symptoms> = d
        .nodes
        .iter()
        .skip(1)
        .map(|&n| {
            let received = fresh.iter().filter(|c| c.origin == n).count() as u32;
            let attempts = stats.get_node(n, "mac_tx_data").max(1.0);
            Symptoms {
                node: n,
                expected,
                received,
                // The operator sees the last-reported routing state:
                // from the outside, a crashed node and a partitioned
                // one are indistinguishable until someone walks over.
                has_route: d.sim.is_alive(n) && d.has_route(n),
                mac_fail_ratio: stats.get_node(n, "mac_tx_fail") / attempts,
                queue_drops: stats.get_node(n, "data_drop_queue") as u32,
                root_receiving,
                neighbors_healthy: true,
            }
        })
        .collect();
    let findings = diagnose_fleet(&symptoms);

    let mut t = Table::new(
        format!("E11-diagnosis: killed {victim}; automated findings over a 120 s window (non-healthy nodes only)"),
        &["node", "cause", "confidence"],
    );
    for f in &findings {
        t.row(vec![
            f.node.to_string(),
            format!("{:?}", f.cause),
            f3(f.confidence),
        ]);
    }
    assert!(
        findings.iter().any(|f| f.node == victim),
        "the dead node must be flagged: {findings:?}"
    );
    t
}
