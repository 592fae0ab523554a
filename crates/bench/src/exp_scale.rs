//! Scalability experiments: E2 (latency vs. hops per MAC), E3 (border-
//! router funneling vs. in-network aggregation), E5 (size scaling,
//! centralized vs. decentralized) and E6 (administrative scalability).
//!
//! The sweeps here are the harness's hot spots, so each configuration
//! point becomes one [`Trial`] fanned out over the [`RunConfig`]'s
//! worker pool. Most tables go through [`RunConfig::table`]; E2, E3 and
//! E6 pivot their trials' rows (transpose, zip, regroup), so they read
//! [`Runner::run`](crate::Runner::run)'s per-trial rows themselves —
//! still in submission order, still byte-identical for any worker count.

use crate::runner::{Cell, Trial};
use crate::table::Table;
use crate::RunConfig;
use iiot_aggregate::tree::{AggConfig, AggregationNode, Mode};
use iiot_core::{Deployment, MacChoice};
use iiot_mac::coex::{ChannelPlan, TenantId};
use iiot_mac::csma::CsmaMac;
use iiot_mac::driver::MacDriver;
use iiot_routing::dodag::{DodagNode, Traffic};
use iiot_routing::graph::{line_parents, star_parents};
use iiot_routing::statictree::{StaticCollection, StaticConfig};
use iiot_sim::prelude::*;
use iiot_sim::FaultPlan;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// E2: end-to-end collection latency by hop distance, per MAC.
///
/// Paper claim (§IV-B): with duty-cycled MACs "a packet may take
/// seconds to be transmitted over few wireless hops", while synchronous
/// coordination (TDMA) minimizes latency; always-on CSMA is the
/// baseline that buys latency with energy.
///
/// `secs` is the simulated horizon, so the golden test can run a cheap
/// sweep of the same code.
pub fn e2_latency_vs_hops(rc: &RunConfig, secs: u64) -> Table {
    let macs = [
        ("csma", MacChoice::Csma),
        ("lpl-512ms", MacChoice::Lpl(SimDuration::from_millis(512))),
        (
            "rimac-512ms",
            MacChoice::Rimac(SimDuration::from_millis(512)),
        ),
        ("tdma-20ms", MacChoice::Tdma(SimDuration::from_millis(20))),
    ];
    let buckets = [2u32, 4, 8, 12];

    // One trial per MAC, returning a single row: the per-bucket mean
    // latencies followed by the duty cycle. The table below transposes
    // those rows into per-bucket rows with one column per MAC.
    let trials: Vec<Trial> = macs
        .iter()
        .map(|&(name, mac)| {
            Trial::new(format!("e2/{name}"), 0xE2, move |seed| {
                let mut d = Deployment::builder(Topology::line(13, 20.0))
                    .mac(mac)
                    .seed(seed)
                    .traffic(SimDuration::from_secs(30), 10, SimDuration::from_secs(60))
                    .build();
                d.run_for(SimDuration::from_secs(secs));
                let mean_for = |h: u32| -> f64 {
                    let vals: Vec<f64> = (d.collected().iter())
                        .filter(|c| u32::from(c.hops) == h)
                        .map(|c| c.received_at.duration_since(c.sent_at).as_secs_f64())
                        .collect();
                    if vals.is_empty() {
                        f64::NAN
                    } else {
                        vals.iter().sum::<f64>() / vals.len() as f64
                    }
                };
                let mut row: Vec<Cell> = buckets.iter().map(|&h| Cell::f3(mean_for(h))).collect();
                row.push(Cell::pct(d.report().mean_duty_cycle));
                vec![row]
            })
        })
        .collect();
    let out = rc.runner.run(trials, rc.trials);

    let mut t = Table::new(
        "E2: mean collection latency (s) vs hop distance, per MAC",
        &["hops", "csma", "lpl-512ms", "rimac-512ms", "tdma-20ms"],
    );
    for (i, h) in buckets.iter().enumerate() {
        t.row(
            std::iter::once(h.to_string())
                .chain(out.iter().map(|rows| rows[0][i].clone()))
                .collect(),
        );
    }
    t.row(
        std::iter::once("duty".to_string())
            .chain(out.iter().map(|rows| rows[0][buckets.len()].clone()))
            .collect(),
    );
    t
}

fn run_agg(mode: Mode, epoch_ms: u32, rounds: u16, n: usize, seed: u64) -> Sim {
    let cfg = AggConfig::new(line_parents(n), mode, epoch_ms, rounds);
    let mut w = SimBuilder::new()
        .seed(seed)
        .nodes(Topology::line(n, 20.0), move |_| {
            Box::new(AggregationNode::new(CsmaMac::default(), cfg.clone())) as Box<dyn Proto>
        })
        .build();
    let horizon = 2_000 + epoch_ms as u64 * (rounds as u64 + 2);
    w.run_for(SimDuration::from_millis(horizon));
    w
}

/// E3: per-node load vs. distance from the border router, raw
/// forwarding vs. in-network aggregation.
///
/// Paper claim (§IV-B): nodes near border routers carry a heavy load;
/// in-network aggregation alleviates it.
pub fn e3_funneling(rc: &RunConfig) -> Table {
    let n = 8;
    let rounds = 8u16;

    // One trial per mode; each returns one row per non-root node with
    // that mode's message count and radio-tx time. The table zips the
    // two outcomes into per-node rows.
    let trials: Vec<Trial> = [("raw", Mode::Raw), ("agg", Mode::Aggregate)]
        .into_iter()
        .map(|(name, mode)| {
            Trial::new(format!("e3/{name}"), 0xE3, move |seed| {
                let counter = if mode == Mode::Raw {
                    "raw_tx"
                } else {
                    "agg_tx"
                };
                let w = run_agg(mode, 5_000, rounds, n, seed);
                (1..n)
                    .map(|i| {
                        let id = NodeId(i as u32);
                        vec![
                            Cell::f1(w.stats().get_node(id, counter)),
                            Cell::f3(w.energy(id).tx.as_secs_f64() * 1e3),
                        ]
                    })
                    .collect()
            })
        })
        .collect();
    let out = rc.runner.run(trials, rc.trials);

    let mut t = Table::new(
        "E3: per-node transmissions and radio-tx time over 8 epochs (line of 8), raw vs aggregate",
        &[
            "node (hops from root)",
            "raw msgs",
            "agg msgs",
            "raw tx ms",
            "agg tx ms",
        ],
    );
    for i in 1..n {
        let (raw, agg) = (&out[0][i - 1], &out[1][i - 1]);
        t.row(vec![
            format!("n{i} ({i})"),
            raw[0].clone(),
            agg[0].clone(),
            raw[1].clone(),
            agg[1].clone(),
        ]);
    }
    t
}

/// E3 ablation: aggregation epoch length vs. root-adjacent load and
/// result freshness.
pub fn e3_epoch_ablation(rc: &RunConfig) -> Table {
    rc.table(
        "E3-ablation: epoch length vs root-adjacent load (aggregate mode, line of 8, 60 s)",
        &["epoch (s)", "epochs run", "n1 msgs", "n1 tx ms"],
        [5u32, 10, 20].into_iter().map(|epoch_s| {
            Trial::new(format!("e3a/epoch{epoch_s}"), 0xE3A, move |seed| {
                let rounds = (60 / epoch_s) as u16;
                let w = run_agg(Mode::Aggregate, epoch_s * 1000, rounds, 8, seed);
                vec![vec![
                    Cell::label(epoch_s.to_string()),
                    Cell::label(rounds.to_string()),
                    Cell::f1(w.stats().get_node(NodeId(1), "agg_tx")),
                    Cell::f3(w.energy(NodeId(1)).tx.as_secs_f64() * 1e3),
                ]]
            })
        }),
    )
}

/// E5: size scalability — delivery as the deployment grows, for the
/// decentralized DODAG vs. a "direct to the sink" centralized design,
/// over `side x side` grids run for `secs` each.
///
/// Paper claim (§IV-A): systems must tolerate orders-of-magnitude
/// growth; scaling usually forces decentralized designs.
pub fn e5_size_scaling(rc: &RunConfig, sides: &[usize], secs: u64) -> Table {
    rc.table(
        "E5: delivery vs deployment size (20 m grid), decentralized DODAG vs direct-to-sink",
        &[
            "nodes",
            "dodag delivery",
            "dodag lat p95 (s)",
            "dio/node/min",
            "direct delivery",
        ],
        sides.iter().map(|&side| {
            Trial::new(format!("e5/{side}x{side}"), 0xE5, move |seed| {
                let n = side * side;
                // Decentralized: self-organizing DODAG over CSMA.
                let mut d = Deployment::builder(Topology::grid(side, side, 20.0))
                    .mac(MacChoice::Csma)
                    .seed(seed)
                    .traffic(SimDuration::from_secs(30), 10, SimDuration::from_secs(60))
                    .build();
                d.run_for(SimDuration::from_secs(secs));
                let r = d.report();
                let dio_rate = d.sim.stats().node_total("dio_tx") / n as f64 / (secs as f64 / 60.0);

                // Centralized: everyone unicasts straight to the sink.
                let mut cfg = StaticConfig::new(star_parents(n));
                cfg.traffic = Some(Traffic {
                    period: SimDuration::from_secs(30),
                    payload_len: 10,
                    start_after: SimDuration::from_secs(60),
                });
                let mut w = SimBuilder::new()
                    .seed(seed)
                    .nodes(Topology::grid(side, side, 20.0), move |_| {
                        Box::new(StaticCollection::new(CsmaMac::default(), cfg.clone()))
                            as Box<dyn Proto>
                    })
                    .build();
                w.run_for(SimDuration::from_secs(secs));
                let gen = w.stats().node_total("data_origin");
                let del = w.stats().node_total("data_rx_root");

                vec![vec![
                    Cell::label(n.to_string()),
                    Cell::pct(r.delivery_ratio),
                    Cell::f3(r.latency.p95),
                    Cell::f1(dio_rate),
                    Cell::pct(if gen == 0.0 { 1.0 } else { del / gen }),
                ]]
            })
        }),
    )
}

/// E2-ablation's base seed.
pub const E2A_SEED: u64 = 0xE2A;

/// One E2-ablation trial: the 7-node line over LPL at `wake_ms`, one
/// reading per node every 30 s after a 60 s quiet time, run for 360 s.
pub fn e2_wake_run(wake_ms: u64, seed: u64) -> Deployment {
    let mut d = Deployment::builder(Topology::line(7, 20.0))
        .mac(MacChoice::Lpl(SimDuration::from_millis(wake_ms)))
        .seed(seed)
        .traffic(SimDuration::from_secs(30), 10, SimDuration::from_secs(60))
        .build();
    d.run_for(SimDuration::from_secs(360));
    d
}

/// E2 ablation: the LPL wake interval is the §IV-B energy/latency knob.
pub fn e2_wake_ablation(rc: &RunConfig) -> Table {
    rc.table(
        "E2-ablation: LPL wake interval vs latency and duty cycle (7-node line, 300 s)",
        &["wake (ms)", "delivery", "mean latency (s)", "duty cycle"],
        [128u64, 256, 512, 1024].into_iter().map(|wake_ms| {
            Trial::new(format!("e2a/wake{wake_ms}"), E2A_SEED, move |seed| {
                let r = e2_wake_run(wake_ms, seed).report();
                vec![vec![
                    Cell::label(wake_ms.to_string()),
                    Cell::pct(r.delivery_ratio),
                    Cell::f3(r.latency.mean),
                    Cell::pct(r.mean_duty_cycle),
                ]]
            })
        }),
    )
}

/// E11 ablation: the Trickle redundancy constant `k` trades control
/// overhead against repair responsiveness (DESIGN.md §3).
pub fn e11_trickle_ablation(rc: &RunConfig) -> Table {
    use iiot_routing::dodag::DodagConfig;
    rc.table(
        "E11-ablation: trickle k vs control overhead and delivery under churn (5x5 grid, 400 s, MTBF 200 s)",
        &["k", "dio/node/min", "delivery", "parent switches"],
        [1u32, 3, 10].into_iter().map(|k| {
            Trial::new(format!("e11a/k{k}"), 0xE11A, move |seed| {
                let mut cfg = DodagConfig::default();
                cfg.trickle.k = k;
                let mut d = Deployment::builder(Topology::grid(5, 5, 20.0))
                    .mac(MacChoice::Csma)
                    .seed(seed)
                    .routing(cfg)
                    .traffic(SimDuration::from_secs(20), 10, SimDuration::from_secs(40))
                    .build();
                // The churn plan splits its own stream from the trial
                // seed so replicas vary the fault schedule too.
                let mut rng = SmallRng::seed_from_u64(iiot_sim::seed::derive(seed, k as u64));
                let plan = FaultPlan::random_churn(
                    &mut rng,
                    &d.nodes[1..],
                    SimDuration::from_secs(200),
                    SimDuration::from_secs(20),
                    SimTime::ZERO,
                    SimTime::from_secs(350),
                );
                plan.apply(&mut d.sim).expect("fault plan fits the sim");
                let secs = 400u64;
                d.run_for(SimDuration::from_secs(secs));
                let r = d.report();
                let dio_rate = d.sim.stats().node_total("dio_tx") / 25.0 / (secs as f64 / 60.0);
                let dodag = |&n| d.sim.proto::<DodagNode<CsmaMac>>(n).parent_switches();
                let switches = d.nodes.iter().map(dodag).sum::<u64>() as f64;
                vec![vec![
                    Cell::label(k.to_string()),
                    Cell::f1(dio_rate),
                    Cell::pct(r.delivery_ratio),
                    Cell::f1(switches),
                ]]
            })
        }),
    )
}

/// Shared E6 engine: `tenants` co-located clusters under a channel
/// plan; returns (intra-tenant delivered, expected).
fn run_tenants(plan: ChannelPlan, tenants: usize, seed: u64) -> (usize, usize) {
    let per_tenant = 6usize;
    let frames = 600u64;
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xC0E);
    let mut b = SimBuilder::new().seed(seed);
    let mut groups: Vec<Vec<NodeId>> = Vec::new();
    let mut next_id = 0u32;
    for _ in 0..tenants {
        let topo = Topology::clustered(1, per_tenant, 60.0, 60.0, 8.0, &mut rng);
        let batch: Vec<NodeId> = (0..topo.len())
            .map(|i| NodeId(next_id + i as u32))
            .collect();
        next_id += topo.len() as u32;
        b = b.nodes(topo, |_| Box::new(MacDriver::new(CsmaMac::default())));
        groups.push(batch);
    }
    let mut w = b.build();
    // Channel plan: re-tune every 1 s epoch (static plans are
    // constant; hopping changes channels).
    for (t, batch) in groups.iter().enumerate() {
        for &node in batch {
            for epoch in 0..40u64 {
                let ch = plan.channel_for(TenantId(t as u16), epoch);
                w.schedule_at(SimTime::from_millis(epoch * 1000 + 1), move |w2| {
                    w2.with(node, |_: &mut MacDriver<CsmaMac>, ctx| {
                        let _ = ctx.set_channel(ch);
                    });
                });
            }
        }
    }
    for batch in &groups {
        for (k, &node) in batch.iter().enumerate() {
            for s in 1..frames {
                let at = SimTime::from_millis(s * 25 + k as u64 * 7 + 10);
                w.proto_mut::<MacDriver<CsmaMac>>(node).push_send(
                    at,
                    Dst::Broadcast,
                    9,
                    vec![k as u8; 40],
                );
            }
        }
    }
    w.run_for(SimDuration::from_secs(25));
    let mut intra = 0usize;
    let mut expected = 0usize;
    for batch in &groups {
        intra += batch
            .iter()
            .map(|&n| {
                w.proto::<MacDriver<CsmaMac>>(n)
                    .delivered
                    .iter()
                    .filter(|d| batch.contains(&d.src))
                    .count()
            })
            .sum::<usize>();
        expected += batch.len() * (frames as usize - 1) * (batch.len() - 1);
    }
    (intra, expected)
}

/// E6: administrative scalability — intra-tenant delivery as the number
/// of co-located tenant networks grows, per channel plan.
///
/// Paper claim (§IV-C): co-located systems of different owners "will
/// likely compete for resources, notably wireless communication
/// channels".
pub fn e6_admin_scaling(rc: &RunConfig) -> Table {
    let plans = [
        ("shared", ChannelPlan::Shared { channel: 11 }),
        (
            "per-tenant",
            ChannelPlan::PerTenant {
                base: 11,
                num_channels: 16,
            },
        ),
        (
            "hopping",
            ChannelPlan::Hopping {
                base: 11,
                num_channels: 16,
            },
        ),
    ];
    let tenant_axis = [1usize, 2, 3, 4];

    // One trial per (tenant count, plan); the table regroups the flat
    // outcome list into one row per tenant count.
    let trials: Vec<Trial> = tenant_axis
        .iter()
        .flat_map(|&tenants| {
            plans.iter().map(move |&(name, plan)| {
                Trial::new(format!("e6/t{tenants}/{name}"), 0xE6, move |seed| {
                    let (got, want) = run_tenants(plan, tenants, seed);
                    vec![vec![Cell::pct(got as f64 / want.max(1) as f64)]]
                })
            })
        })
        .collect();
    let out = rc.runner.run(trials, rc.trials);

    let mut t = Table::new(
        "E6: intra-tenant delivery vs co-located tenants (saturating broadcast load)",
        &[
            "tenants",
            "shared channel",
            "per-tenant channels",
            "hopping (16ch)",
        ],
    );
    for (i, tenants) in tenant_axis.iter().enumerate() {
        let base = i * plans.len();
        t.row(
            std::iter::once(tenants.to_string())
                .chain((0..plans.len()).map(|p| out[base + p][0][0].clone()))
                .collect(),
        );
    }
    t
}
