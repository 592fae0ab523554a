//! Bulk-dissemination experiments: E14 prices over-the-air
//! reprogramming, the maintainability mechanism §V-D of the paper
//! leans on.
//!
//! Three questions, each one table:
//!
//! * **completion scaling** — how long a firmware image takes to reach
//!   every node and what it costs in energy, across network sizes and
//!   MAC disciplines (CSMA vs duty-cycled LPL vs pipelined TDMA over a
//!   `tree_edges` schedule);
//! * **resume vs restart** — the flash [`PageStore`](iiot_dissem::PageStore)
//!   lets a crash-recovered node resume mid-image; E14b compares it
//!   against a full reimage ([`StateLoss::Full`]) on the same fault;
//! * **staged vs flat rollout** — a poisoned build under a canary-first
//!   [`RolloutPlan`] versus
//!   enable-everyone; the blast radius is the number of nodes that
//!   downloaded (and rejected) the bad image.
//!
//! Each configuration point is one [`Trial`] on the worker pool;
//! tables are byte-identical for any `--jobs`.

use crate::runner::{Cell, Trial};
use crate::table::Table;
use crate::RunConfig;
use iiot_dependability::fault::{Fault, FaultPlan};
use iiot_dissem::image::Image;
use iiot_dissem::node::{DissemConfig, DissemNode};
use iiot_dissem::rollout::{self, RolloutPlan};
use iiot_dissem::BlockInjector;
use iiot_mac::csma::{CsmaConfig, CsmaMac};
use iiot_mac::lpl::{LplConfig, LplMac};
use iiot_mac::tdma::{TdmaConfig, TdmaMac, TdmaSchedule};
use iiot_mac::Mac;
use iiot_routing::graph::{depth_rings, grid_parents};
use iiot_routing::trickle::TrickleConfig;
use iiot_sim::prelude::*;

/// The MAC arm of a dissemination campaign.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum MacArm {
    Csma,
    Lpl,
    Tdma,
}

impl MacArm {
    fn name(self) -> &'static str {
        match self {
            MacArm::Csma => "csma",
            MacArm::Lpl => "lpl",
            MacArm::Tdma => "tdma",
        }
    }
}

fn tree_peers(parents: &[Option<NodeId>], i: usize) -> Vec<NodeId> {
    let me = NodeId(i as u32);
    let mut peers = Vec::new();
    if let Some(p) = parents[i] {
        peers.push(p);
    }
    peers.extend(
        (0..parents.len())
            .filter(|&c| parents[c] == Some(me))
            .map(|c| NodeId(c as u32)),
    );
    peers
}

/// Outcome of one dissemination campaign.
struct Campaign {
    /// Simulated time at which the slowest node finished (cap if not
    /// everyone did).
    completion_s: f64,
    /// Fraction of wireless nodes holding a verified image at the end.
    coverage: f64,
    /// Mean per-node radio energy over the campaign window, mJ.
    energy_mj: f64,
    /// Total DATA chunk transmissions.
    data_tx: f64,
}

/// Runs one image through a grid under one MAC, polling in 5 s slices
/// until every node completes or `cap_s` elapses.
fn campaign<M: Mac>(mut w: Sim, ids: &[NodeId], img: &Image, cap_s: u64) -> Campaign {
    let gw = ids[0];
    let img2 = img.clone();
    w.schedule_at(SimTime::from_secs(1), move |w| {
        w.with(gw, |n: &mut DissemNode<M>, ctx| n.install(ctx, &img2));
    });
    let mut done_at = 0u64;
    loop {
        w.run_for(SimDuration::from_secs(5));
        done_at += 5;
        let all = ids
            .iter()
            .all(|&id| w.proto::<DissemNode<M>>(id).complete_ok());
        if all || done_at >= cap_s {
            break;
        }
    }
    let complete: Vec<_> = ids
        .iter()
        .filter_map(|&id| w.proto::<DissemNode<M>>(id).complete_at())
        .collect();
    let completion_s = complete.iter().map(|t| t.as_secs_f64()).fold(0.0, f64::max);
    let coverage = complete.len() as f64 / ids.len() as f64;
    let model = *w.energy_model();
    let energy_mj = ids
        .iter()
        .map(|&id| w.energy(id).energy_mj(&model))
        .sum::<f64>()
        / ids.len() as f64;
    Campaign {
        completion_s: if coverage == 1.0 {
            completion_s
        } else {
            cap_s as f64
        },
        coverage,
        energy_mj,
        data_tx: w.stats().node_total("dissem_data_tx"),
    }
}

/// Builds the world + nodes for one arm and runs the campaign.
fn run_arm(arm: MacArm, cols: usize, rows: usize, img: &Image, seed: u64, cap_s: u64) -> Campaign {
    let topo = Topology::grid(cols, rows, 20.0);
    let ids: Vec<NodeId> = (0..topo.len() as u32).map(NodeId).collect();
    match arm {
        MacArm::Csma => {
            let w = SimBuilder::new()
                .seed(seed)
                .nodes(topo, |_| {
                    Box::new(DissemNode::new(
                        CsmaMac::new(CsmaConfig::default()),
                        DissemConfig::default(),
                    )) as Box<dyn Proto>
                })
                .build();
            campaign::<CsmaMac>(w, &ids, img, cap_s)
        }
        MacArm::Lpl => {
            // LPL broadcasts cost a full wake-interval preamble: shorten
            // the wake interval for the reprogramming window and slow the
            // control plane down to match the strobe-bound data path.
            let w = SimBuilder::new()
                .seed(seed)
                .nodes(topo, |_| {
                    Box::new(DissemNode::new(
                        LplMac::new(LplConfig {
                            wake_interval: SimDuration::from_millis(256),
                            ..LplConfig::default()
                        }),
                        DissemConfig {
                            trickle: TrickleConfig {
                                imin: SimDuration::from_secs(1),
                                doublings: 6,
                                k: 1,
                            },
                            req_backoff: SimDuration::from_millis(500),
                            ..DissemConfig::default()
                        },
                    )) as Box<dyn Proto>
                })
                .build();
            campaign::<LplMac>(w, &ids, img, cap_s)
        }
        MacArm::Tdma => {
            let parents = grid_parents(cols, rows);
            let sched = TdmaSchedule::tree_edges(&parents, SimDuration::from_millis(10));
            let frame = sched.frame_len();
            let w = SimBuilder::new()
                .seed(seed)
                .nodes(topo, move |i| {
                    Box::new(DissemNode::new(
                        TdmaMac::new(TdmaConfig::default(), sched.clone()),
                        DissemConfig {
                            trickle: TrickleConfig {
                                imin: frame * 2,
                                doublings: 6,
                                k: 1,
                            },
                            unicast_data: true,
                            adv_peers: Some(tree_peers(&parents, i)),
                            req_backoff: frame / 2,
                            ..DissemConfig::default()
                        },
                    )) as Box<dyn Proto>
                })
                .build();
            campaign::<TdmaMac>(w, &ids, img, cap_s)
        }
    }
}

/// A 960-byte image in 3 pages of 8 chunks of 40 bytes.
fn e14_image(version: u32, len: usize) -> Image {
    Image::build(
        version,
        (0..len).map(|i| (i * 13 % 256) as u8).collect(),
        40,
        8,
    )
}

/// E14a: image completion time, coverage and energy per MAC over
/// `side x side` grids, each campaign capped at `cap_s`.
pub fn e14_completion(rc: &RunConfig, sides: &[usize], cap_s: u64) -> Table {
    rc.table(
        "E14: image dissemination vs network size (960 B image, 3 pages, 20 m grid), CSMA vs LPL vs TDMA tree schedule",
        &["nodes", "mac", "completion (s)", "coverage", "energy (mJ/node)", "data tx"],
        sides
            .iter()
            .flat_map(|&side| {
                [MacArm::Csma, MacArm::Lpl, MacArm::Tdma]
                    .into_iter()
                    .map(move |arm| {
                        Trial::new(
                            format!("e14/completion/{}x{side}/{}", side, arm.name()),
                            0xE14,
                            move |seed| {
                                let img = e14_image(1, 960);
                                let c = run_arm(arm, side, side, &img, seed, cap_s);
                                vec![vec![
                                    Cell::int((side * side) as f64),
                                    Cell::label(arm.name()),
                                    Cell::f1(c.completion_s),
                                    Cell::pct(c.coverage),
                                    Cell::f1(c.energy_mj),
                                    Cell::int(c.data_tx),
                                ]]
                            },
                        )
                    })
            }),
    )
}

/// E14b: the far-corner node of a `side x side` CSMA grid crashes
/// `crash_s` into an `img_len`-byte campaign, keeping or losing its
/// flash.
pub fn e14_resume(rc: &RunConfig, side: usize, img_len: usize, crash_s: u64, cap_s: u64) -> Table {
    rc.table(
        "E14b: crash mid-download at the far corner (CSMA grid, 5 s outage) — flash resume vs full reimage",
        &["recovery", "pages kept", "victim done (s)", "network done (s)", "coverage"],
        [
            ("resume (flash kept)", StateLoss::Ram),
            ("restart (wiped)", StateLoss::Full),
        ]
        .into_iter()
        .map(|(name, loss)| {
            Trial::new(format!("e14/resume/{name}"), 0xE14, move |seed| {
                let img = e14_image(2, img_len);
                let victim = NodeId((side * side - 1) as u32);
                let down = SimDuration::from_secs(5);
                let topo = Topology::grid(side, side, 20.0);
                let ids: Vec<NodeId> = (0..topo.len() as u32).map(NodeId).collect();
                let mut w = SimBuilder::new()
                    .seed(seed)
                    .nodes(topo, |_| {
                        Box::new(DissemNode::new(
                            CsmaMac::new(CsmaConfig::default()),
                            DissemConfig::default(),
                        )) as Box<dyn Proto>
                    })
                    .build();
                let gw = ids[0];
                let img2 = img.clone();
                w.schedule_at(SimTime::from_secs(1), move |w| {
                    w.with(gw, |n: &mut DissemNode<CsmaMac>, ctx| n.install(ctx, &img2));
                });
                let mut plan = FaultPlan::new();
                plan.push(Fault::CrashRecover {
                    node: victim,
                    at: SimTime::from_secs(crash_s),
                    down_for: down,
                });
                plan.apply_with_state_loss(&mut w, loss);
                // Sample the victim's flash just before it comes back.
                w.run_until(SimTime::from_secs(crash_s) + down - SimDuration::from_millis(1));
                let kept = w.proto::<DissemNode<CsmaMac>>(victim).store().have_pages();
                let mut t = crash_s + 5;
                loop {
                    w.run_for(SimDuration::from_secs(5));
                    t += 5;
                    let all = ids
                        .iter()
                        .all(|&id| w.proto::<DissemNode<CsmaMac>>(id).complete_ok());
                    if all || t >= cap_s {
                        break;
                    }
                }
                let at = |id: NodeId| {
                    w.proto::<DissemNode<CsmaMac>>(id)
                        .complete_at()
                        .map_or(cap_s as f64, |t| t.as_secs_f64())
                };
                let network = ids.iter().map(|&id| at(id)).fold(0.0, f64::max);
                let coverage = ids
                    .iter()
                    .filter(|&&id| w.proto::<DissemNode<CsmaMac>>(id).complete_ok())
                    .count() as f64
                    / ids.len() as f64;
                vec![vec![
                    Cell::label(name),
                    Cell::int(kept as f64),
                    Cell::f1(at(victim)),
                    Cell::f1(network),
                    Cell::pct(coverage),
                ]]
            })
        }),
    )
}

/// E14c: a poisoned build rolled out staged vs flat over a `side x
/// side` CSMA grid, observed for `cap_s`.
pub fn e14_rollout(rc: &RunConfig, side: usize, cap_s: u64) -> Table {
    rc.table(
        "E14c: poisoned image blast radius — staged canary-first rollout vs flat activation (CSMA grid, CoAP-injected build)",
        &["rollout", "poisoned nodes", "% of fleet", "outcome"],
        [("staged (canary)", true), ("flat (all at once)", false)]
            .into_iter()
            .map(|(name, staged)| {
                Trial::new(format!("e14/rollout/{name}"), 0xE14, move |seed| {
                    let img = e14_image(3, 960).poisoned();
                    let topo = Topology::grid(side, side, 20.0);
                    let ids: Vec<NodeId> = (0..topo.len() as u32).map(NodeId).collect();
                    let gw = ids[0];
                    let inj_img = img.clone();
                    let mut w = SimBuilder::new()
                        .seed(seed)
                        .nodes(topo, |_| {
                            Box::new(DissemNode::new(
                                CsmaMac::new(CsmaConfig::default()),
                                DissemConfig {
                                    enabled: false,
                                    ..DissemConfig::default()
                                },
                            )) as Box<dyn Proto>
                        })
                        .nodes(
                            std::iter::once(Pos::new(-100.0, -100.0)).collect::<Topology>(),
                            move |_| Box::new(BlockInjector::new(gw, &inj_img, 64)),
                        )
                        .build();
                    // Wireless cohorts by tree depth from the gateway:
                    // disabled nodes relay nothing, so waves must grow
                    // outward for the image to reach them at all.
                    let plan = if staged {
                        RolloutPlan::new(
                            depth_rings(&grid_parents(side, side)),
                            SimDuration::from_secs(10),
                        )
                    } else {
                        RolloutPlan::flat(ids[1..].to_vec(), SimDuration::from_secs(10))
                    };
                    // The gateway itself (cohort zero of any rollout) is
                    // always enabled: it holds the trusted image.
                    rollout::drive::<CsmaMac>(&mut w, ids[0], plan, SimTime::from_secs(2));
                    w.run_for(SimDuration::from_secs(cap_s));
                    let poisoned = ids
                        .iter()
                        .filter(|&&id| w.proto::<DissemNode<CsmaMac>>(id).poisoned())
                        .count();
                    // The fleet under rollout: everyone but the (trusted)
                    // gateway.
                    let fleet = (ids.len() - 1) as f64;
                    let outcome = if poisoned as f64 / fleet < 0.5 {
                        "halted at canary"
                    } else {
                        "fleet-wide"
                    };
                    vec![vec![
                        Cell::label(name),
                        Cell::int(poisoned as f64),
                        Cell::pct(poisoned as f64 / fleet),
                        Cell::label(outcome),
                    ]]
                })
            }),
    )
}
