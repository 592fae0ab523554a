//! Named-data experiments: E15 prices content-object security plus
//! in-network caching against the per-channel 802.15.4 baseline of
//! E10 — the §V-B/§V-E trade the paper frames around multi-consumer
//! industrial workloads (and Frey et al. argue for directly).
//!
//! Four questions, each one table:
//!
//! * **security architecture vs consumer count** — the same
//!   producer/forwarder/consumer star under both security
//!   architectures at equal cryptographic strength (8-byte MIC): the
//!   channel arm protects every frame per hop and cannot serve cached
//!   copies (a channel vouches for a link, not for data), the
//!   object arm signs once at the producer, verifies at every
//!   consumer, and lets the forwarder's content store answer repeat
//!   Interests. From 4 consumers up, the object arm must cost less
//!   total energy (asserted in-trial);
//! * **cache hits vs republish cadence** — the hit ratio and the
//!   radio-duty saving the content store buys as the publish interval
//!   (and the object freshness bound with it) stretches;
//! * **poisoned publisher** — forged signatures and a stale-replay
//!   cache are both rejected at the consumer's verification step;
//!   the blast radius of the replay attacker is its own subtree
//!   (E14c's quarantine framing, applied to data instead of code);
//! * **consumers across a partition** — with the producer cut off
//!   (E11's fault machinery), cached copies keep answering for as
//!   long as their freshness budget allows; the uncacheable channel
//!   arm starves immediately.
//!
//! Each configuration point is one [`Trial`] on the worker pool;
//! tables are byte-identical for any `--jobs`.

use crate::runner::{Cell, Trial};
use crate::table::Table;
use crate::RunConfig;
use iiot_icn::{ContentObject, IcnConfig, IcnNode, Name, PollPlan, OBJECT_SEC_LEVEL};
use iiot_mac::csma::CsmaMac;
use iiot_mac::lpl::{LplConfig, LplMac};
use iiot_mac::Mac;
use iiot_security::{Key, SecLevel};
use iiot_sim::prelude::*;
use iiot_sim::{Fault, FaultPlan};

/// E15's base seed (experiment id, like `0xE14` for dissemination).
const SEED: u64 = 0xE15;

/// The content name every workload publishes under.
fn name() -> Name {
    Name::new("/plant/cell3/temp")
}

/// Sensor-reading payload carried by every published version.
const PAYLOAD: usize = 24;

/// One security architecture under test.
#[derive(Clone, Copy, Debug)]
struct Arm {
    label: &'static str,
    /// Producer signs, consumers verify.
    object_sec: bool,
    /// Every frame carries this level's aux header + MIC and pays
    /// per-hop protect/unprotect CPU.
    link_sec: Option<SecLevel>,
    /// Forwarder content-store capacity. The channel arm runs 0: a
    /// hop-protected copy carries no proof of authenticity, so a
    /// cache cannot serve it.
    store_cap: usize,
}

/// Per-channel 802.15.4 security at the same 8-byte-MIC strength as
/// the object signatures.
const CHANNEL: Arm = Arm {
    label: "channel",
    object_sec: false,
    link_sec: Some(OBJECT_SEC_LEVEL),
    store_cap: 0,
};

/// Content-object security with in-network caching.
const ICN: Arm = Arm {
    label: "icn",
    object_sec: true,
    link_sec: None,
    store_cap: 8,
};

/// The producer/forwarder/consumer star: producer at the origin, one
/// forwarding hop 20 m east, consumers in a 20 m-deep column behind
/// it — every consumer is in range of the forwarder (<= 27 m) and out
/// of range of the producer (>= 34 m), so all traffic takes the
/// two-hop path the arms are priced on.
fn star_topology(consumers: usize) -> Topology {
    let mut pos = vec![Pos::new(0.0, 0.0), Pos::new(20.0, 0.0)];
    pos.extend((0..consumers).map(|k| Pos::new(34.0, 3.0 * k as f64 - 22.5)));
    pos.into_iter().collect()
}

/// Node configuration for one star position under one arm. Consumer
/// polls are spread evenly across the period: LPL strobes carrier-
/// sense nothing, so synchronized polls would collide at the
/// forwarder.
fn star_cfg(
    arm: Arm,
    consumers: usize,
    id: u32,
    freshness: SimDuration,
    period: SimDuration,
    updates: bool,
) -> IcnConfig {
    let base = IcnConfig {
        object_sec: arm.object_sec,
        link_sec: arm.link_sec,
        freshness,
        ..IcnConfig::default()
    };
    match id {
        0 => IcnConfig {
            store_cap: 0,
            ..base
        },
        1 => IcnConfig {
            upstream: Some(NodeId(0)),
            store_cap: arm.store_cap,
            ..base
        },
        _ => IcnConfig {
            upstream: Some(NodeId(1)),
            // Consumers poll the *network*: in-network caching is the
            // forwarder's job, client-side caches would mask it.
            store_cap: 0,
            poll: Some(PollPlan {
                name: name(),
                start: SimDuration::from_millis(500)
                    + (period / consumers.max(1) as u64) * u64::from(id - 2),
                period,
                updates,
            }),
            ..base
        },
    }
}

/// What one star run observed.
struct Observed {
    /// Total radio energy over all nodes, mJ.
    radio_mj: f64,
    /// Total crypto CPU energy (signing, verifying, per-hop
    /// protect/unprotect), mJ.
    crypto_mj: f64,
    /// Security overhead put on the air, bytes (MIC/aux headers or
    /// object signatures).
    sec_bytes: f64,
    /// Poll answers accepted across all consumers.
    delivered: u64,
    /// Mean Interest-to-Data latency over those deliveries, ms.
    latency_ms: f64,
    /// Content-store hits at the forwarder.
    fwd_hits: f64,
    /// Interests the forwarder received.
    fwd_interest_rx: f64,
    /// Interests the producer answered from its repo.
    repo_serves: f64,
    /// Mean radio duty cycle across all nodes.
    duty: f64,
    /// Lowest verified version across consumers at the end.
    min_latest: u32,
}

/// Drives one star workload: `publishes` versions, `republish` apart,
/// polled by every consumer until `run_s`.
fn drive_star<M: Mac>(
    mut w: Sim,
    consumers: usize,
    publishes: u32,
    republish: SimDuration,
    run_s: u64,
) -> Observed {
    for v in 1..=publishes {
        let at = SimTime::from_secs(1) + republish * u64::from(v - 1);
        w.schedule_at(at, move |w| {
            w.with(NodeId(0), |n: &mut IcnNode<M>, ctx| {
                n.publish(ctx, name(), v, vec![v as u8; PAYLOAD]);
            });
        });
    }
    w.run(SimDuration::from_secs(run_s));
    observe::<M>(w, consumers)
}

/// Collects the [`Observed`] metrics from a finished star run.
fn observe<M: Mac>(w: Sim, consumers: usize) -> Observed {
    let ids: Vec<NodeId> = (0..(consumers + 2) as u32).map(NodeId).collect();
    let radio_mj: f64 = ids.iter().map(|&id| w.energy(id).energy_mj()).sum();
    let duty = ids.iter().map(|&id| w.energy(id).duty_cycle()).sum::<f64>() / ids.len() as f64;
    let mut delivered = 0u64;
    let mut latency_us = 0.0f64;
    let mut min_latest = u32::MAX;
    let cost = |&id: &NodeId| w.proto::<IcnNode<M>>(id).security_cost();
    let sum = |(b, e): (f64, f64), (nb, ne): (u64, f64)| (b + nb as f64, e + ne);
    let (sec_bytes, crypto_uj) = ids.iter().map(cost).fold((0.0, 0.0), sum);
    for &id in &ids[2..] {
        let node = w.proto::<IcnNode<M>>(id);
        delivered += node.deliveries().len() as u64;
        latency_us += node
            .deliveries()
            .iter()
            .map(|d| d.latency.as_micros() as f64)
            .sum::<f64>();
        min_latest = min_latest.min(node.latest_version(&name()).unwrap_or(0));
    }
    let s = w.stats();
    Observed {
        radio_mj,
        crypto_mj: crypto_uj / 1000.0,
        sec_bytes,
        delivered,
        latency_ms: latency_us / delivered.max(1) as f64 / 1000.0,
        fwd_hits: s.get_node(NodeId(1), "icn_cache_hit"),
        fwd_interest_rx: s.get_node(NodeId(1), "icn_interest_rx"),
        repo_serves: s.node_total("icn_repo_serve"),
        duty,
        min_latest,
    }
}

/// Runs one star point under LPL (duty-cycled, so radio energy tracks
/// traffic) for the energy experiments.
fn run_star_lpl(
    arm: Arm,
    consumers: usize,
    publishes: u32,
    republish: SimDuration,
    run_s: u64,
    seed: u64,
) -> Observed {
    // Hold the *aggregate* poll rate at 2 polls/s from 4 consumers up:
    // LPL strobes carrier-sense nothing (pure ALOHA), so the channel
    // capacity is fixed and a growing crowd must share it — which is
    // exactly the fan-out the content store is supposed to absorb.
    let period = SimDuration::from_millis(500 * consumers.max(4) as u64);
    let w = SimBuilder::new()
        .seed(seed)
        .nodes(star_topology(consumers), move |id| {
            let cfg = star_cfg(arm, consumers, id as u32, republish, period, false);
            // Short strobes + retries: LPL senders cannot carrier-sense,
            // so the many-consumer points live on keeping each strobe
            // train brief and recovering the rest at the next poll.
            Box::new(IcnNode::new(
                LplMac::new(LplConfig {
                    wake_interval: SimDuration::from_millis(64),
                    max_retries: 3,
                }),
                cfg,
            )) as Box<dyn Proto>
        })
        .build();
    drive_star::<LplMac>(w, consumers, publishes, republish, run_s)
}

// ---------------------------------------------------------------- E15a

/// E15a over a consumer axis, `run_s` each: both security architectures
/// on the same workload, at equal (8-byte-MIC) strength. The trial
/// runs both arms and, from 4 consumers up, asserts the paper's
/// direction — content-object security plus caching costs less total
/// (radio + crypto) energy and puts fewer security bytes on the air.
pub fn e15_arch(rc: &RunConfig, consumers_axis: &[usize], run_s: u64) -> Table {
    let republish = SimDuration::from_secs(10);
    // Stop publishing 10 s before the horizon so the last version has
    // a full republish interval of polls to reach every consumer.
    let publishes = (run_s.saturating_sub(10) / 10).max(1) as u32;
    rc.table(
        "E15a: content-object security + caching vs per-channel security (equal 8 B MIC, LPL star, 2 polls/s aggregate, 10 s republish)",
        &[
            "consumers", "arm", "radio (mJ)", "crypto (mJ)", "total (mJ)", "sec bytes",
            "delivered", "latency (ms)",
        ],
        consumers_axis
            .iter()
            .map(|&consumers| {
                Trial::new(format!("e15/arch/c{consumers}"), SEED, move |s| {
                    let ch = run_star_lpl(CHANNEL, consumers, publishes, republish, run_s, s);
                    let icn = run_star_lpl(ICN, consumers, publishes, republish, run_s, s);
                    for o in [&ch, &icn] {
                        // LPL strobes carrier-sense nothing, so at high
                        // consumer counts the last version can still be in
                        // flight when the horizon hits: every consumer must
                        // hold the final version or the one before it.
                        assert!(
                            o.min_latest + 1 >= publishes,
                            "a consumer fell behind the publish stream: \
                             slowest at v{} of v{publishes}",
                            o.min_latest,
                        );
                    }
                    assert_eq!(ch.fwd_hits, 0.0, "an uncacheable copy can never be served");
                    if consumers >= 4 {
                        assert!(
                            icn.radio_mj + icn.crypto_mj < ch.radio_mj + ch.crypto_mj,
                            "object security + caching must cost less total energy \
                             at {consumers} consumers: icn {:.1}+{:.1} vs channel {:.1}+{:.1} mJ",
                            icn.radio_mj,
                            icn.crypto_mj,
                            ch.radio_mj,
                            ch.crypto_mj,
                        );
                        assert!(
                            icn.sec_bytes < ch.sec_bytes,
                            "one signature per object must beat per-frame MICs on the air"
                        );
                    }
                    let row = |arm: &'static str, o: &Observed| {
                        vec![
                            Cell::int(consumers as f64),
                            Cell::label(arm),
                            Cell::f1(o.radio_mj),
                            Cell::f3(o.crypto_mj),
                            Cell::f1(o.radio_mj + o.crypto_mj),
                            Cell::int(o.sec_bytes),
                            Cell::int(o.delivered as f64),
                            Cell::f1(o.latency_ms),
                        ]
                    };
                    vec![row(CHANNEL.label, &ch), row(ICN.label, &icn)]
                })
            }),
    )
}

// ---------------------------------------------------------------- E15b

/// E15b over republish intervals (`consumers` polling for `run_s`):
/// what the content store
/// buys as versions live longer. Freshness tracks the republish
/// cadence, so a slower publisher lets the forwarder answer more of
/// each version's polls locally — the hit ratio climbs and the radio
/// duty (and producer load) falls relative to the cache-less arm.
pub fn e15_cache(rc: &RunConfig, republish_axis_s: &[u64], consumers: usize, run_s: u64) -> Table {
    rc.table(
        "E15b: content-store payoff vs republish cadence (LPL star, freshness = republish interval)",
        &[
            "republish (s)", "arm", "fwd hits", "hit ratio", "producer serves",
            "radio (mJ/node)", "duty",
        ],
        republish_axis_s
            .iter()
            .map(|&rs| {
                Trial::new(format!("e15/cache/r{rs}"), SEED, move |s| {
                    let republish = SimDuration::from_secs(rs);
                    let publishes = (run_s / rs).max(1) as u32;
                    let nocache = Arm {
                        label: "no cache",
                        store_cap: 0,
                        ..ICN
                    };
                    let nc = run_star_lpl(nocache, consumers, publishes, republish, run_s, s);
                    let ca = run_star_lpl(ICN, consumers, publishes, republish, run_s, s);
                    assert_eq!(nc.fwd_hits, 0.0, "no store, no hits");
                    assert!(ca.fwd_hits > 0.0, "repeat polls must hit the store");
                    assert!(
                        ca.repo_serves < nc.repo_serves,
                        "the store must shield the producer: {} vs {}",
                        ca.repo_serves,
                        nc.repo_serves
                    );
                    assert!(
                        ca.radio_mj < nc.radio_mj,
                        "served-from-cache polls must save radio energy"
                    );
                    let row = |o: &Observed, label: &'static str| {
                        vec![
                            Cell::int(rs as f64),
                            Cell::label(label),
                            Cell::int(o.fwd_hits),
                            Cell::pct(o.fwd_hits / o.fwd_interest_rx.max(1.0)),
                            Cell::int(o.repo_serves),
                            Cell::f1(o.radio_mj / (consumers + 2) as f64),
                            Cell::pct(o.duty),
                        ]
                    };
                    vec![row(&nc, "no cache"), row(&ca, "cache")]
                })
            }),
    )
}

// ---------------------------------------------------------------- E15c

/// The poisoned-publisher threat model of one E15c arm.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Poison {
    /// Control: every version honestly signed.
    None,
    /// Versions after the first are signed with the wrong key.
    ForgedKey,
    /// One forwarder pins the first object it sees and replays it
    /// against every later Interest, never consulting the producer.
    StaleReplay,
}

impl Poison {
    fn label(self) -> &'static str {
        match self {
            Poison::None => "honest",
            Poison::ForgedKey => "forged key",
            Poison::StaleReplay => "stale replay",
        }
    }
}

/// The two-branch tree of E15c: producer 0 in the middle, honest
/// forwarder 1 west, possibly-compromised forwarder 2 east, two
/// long-polling consumers behind each.
fn branch_topology() -> Topology {
    [
        Pos::new(0.0, 0.0),
        Pos::new(-20.0, 0.0),
        Pos::new(20.0, 0.0),
        Pos::new(-34.0, -6.0),
        Pos::new(-34.0, 6.0),
        Pos::new(34.0, -6.0),
        Pos::new(34.0, 6.0),
    ]
    .into_iter()
    .collect()
}

/// E15c: a poisoned publisher (or cache) against long-polling
/// consumers. Every arm publishes three versions; the trial asserts
/// no consumer ever accepts a forged object and that the stale-replay
/// attacker's blast radius stops at its own subtree.
pub fn e15_poison(rc: &RunConfig) -> Table {
    rc.table(
        "E15c: poisoned publisher vs consumer verification (two-branch tree, long-polling consumers, 3 versions)",
        &[
            "arm", "good versions", "west latest", "east latest", "forged rejects",
            "stale rejects", "blast radius",
        ],
        [Poison::None, Poison::ForgedKey, Poison::StaleReplay]
            .into_iter()
            .map(|poison| {
                Trial::new(format!("e15/poison/{}", poison.label()), SEED, move |s| {
                    let mut w = SimBuilder::new()
                        .seed(s)
                        .nodes(branch_topology(), move |id| {
                            let mut cfg = match id {
                                0 => IcnConfig::default(),
                                1 | 2 => IcnConfig {
                                    upstream: Some(NodeId(0)),
                                    ..IcnConfig::default()
                                },
                                _ => IcnConfig {
                                    upstream: Some(NodeId(if id <= 4 { 1 } else { 2 })),
                                    store_cap: 0,
                                    poll: Some(PollPlan {
                                        name: name(),
                                        start: SimDuration::from_millis(500 + 137 * id as u64),
                                        period: SimDuration::from_secs(2),
                                        updates: true,
                                    }),
                                    ..IcnConfig::default()
                                },
                            };
                            if poison == Poison::StaleReplay && id == 2 {
                                cfg.replay = true;
                            }
                            Box::new(IcnNode::new(CsmaMac::default(), cfg)) as Box<dyn Proto>
                        })
                        .build();
                    for v in 1..=3u32 {
                        let at = SimTime::from_secs(1 + 8 * u64::from(v - 1));
                        w.schedule_at(at, move |w| {
                            w.with(NodeId(0), |node: &mut IcnNode<CsmaMac>, ctx| {
                                if poison == Poison::ForgedKey && v > 1 {
                                    node.publish_object(
                                        ctx,
                                        ContentObject::signed(
                                            &Key([0x66; 16]),
                                            name(),
                                            v,
                                            SimDuration::from_secs(60),
                                            vec![v as u8; PAYLOAD],
                                        ),
                                    );
                                } else {
                                    node.publish(ctx, name(), v, vec![v as u8; PAYLOAD]);
                                }
                            });
                        });
                    }
                    w.run(SimDuration::from_secs(30));
                    let latest = |id: u32| {
                        w.proto::<IcnNode<CsmaMac>>(NodeId(id))
                            .latest_version(&name())
                            .unwrap_or(0)
                    };
                    let west = latest(3).min(latest(4));
                    let east = latest(5).min(latest(6));
                    let (mut forged, mut stale) = (0u32, 0u32);
                    for id in 3..=6 {
                        let (f, st) = w.proto::<IcnNode<CsmaMac>>(NodeId(id)).rejected();
                        forged += f;
                        stale += st;
                    }
                    // The consumer verification step is the whole defence:
                    // nothing forged may ever be *accepted*, whichever arm.
                    let good = match poison {
                        Poison::ForgedKey => 1,
                        _ => 3,
                    };
                    assert!(
                        west <= good && east <= good,
                        "no consumer may outrun the honest versions"
                    );
                    match poison {
                        Poison::None => {
                            assert_eq!((west, east), (3, 3), "honest arm converges everywhere");
                            assert_eq!((forged, stale), (0, 0));
                        }
                        Poison::ForgedKey => {
                            assert_eq!((west, east), (1, 1), "only the honest v1 is ever accepted");
                            assert!(forged > 0, "forged rejections must be counted");
                        }
                        Poison::StaleReplay => {
                            assert_eq!(west, 3, "the honest subtree is untouched");
                            assert_eq!(east, 1, "the attacker pins its subtree to the replayed v1");
                            assert!(stale > 0, "stale rejections must be counted");
                        }
                    }
                    vec![vec![
                        Cell::label(poison.label()),
                        Cell::int(good as f64),
                        Cell::int(west as f64),
                        Cell::int(east as f64),
                        Cell::int(forged as f64),
                        Cell::int(stale as f64),
                        Cell::label(if west == 3 && east == 3 {
                            "none"
                        } else {
                            "attacked subtree"
                        }),
                    ]]
                })
            }),
    )
}

// ---------------------------------------------------------------- E15d

/// E15d over an outage window `[cut_s, heal_s)` of a `run_s` run with
/// `consumers` consumers: the producer partitioned away
/// from the star (E11's fault machinery) while consumers keep
/// polling. Cached copies answer for as long as their freshness
/// budget lasts; the channel arm — uncacheable by construction —
/// starves the moment the partition lands.
pub fn e15_partition(
    rc: &RunConfig,
    consumers: usize,
    cut_s: u64,
    heal_s: u64,
    run_s: u64,
) -> Table {
    // (label, arm, freshness): the third arm shows the freshness bound
    // doing its job — a budget shorter than the outage stops stale
    // service partway through instead of serving forever.
    let arms: [(&'static str, Arm, u64); 3] = [
        ("channel (no cache)", CHANNEL, run_s),
        ("icn, fresh 60 s", ICN, 60),
        ("icn, fresh 10 s", ICN, 10),
    ];
    rc.table(
        "E15d: consumers across a producer partition (CSMA star, 2 s polls; outage between cut and heal)",
        &[
            "arm", "dlv before", "dlv in outage", "dlv after", "consumers served in outage",
            "outage poll success",
        ],
        arms
            .into_iter()
            .map(|(label, arm, fresh_s)| {
                Trial::new(format!("e15/partition/{label}"), SEED, move |s| {
                    let period = SimDuration::from_secs(2);
                    let freshness = SimDuration::from_secs(fresh_s);
                    let mut w = SimBuilder::new()
                        .seed(s)
                        .nodes(star_topology(consumers), move |id| {
                            let cfg = star_cfg(arm, consumers, id as u32, freshness, period, false);
                            Box::new(IcnNode::new(CsmaMac::default(), cfg)) as Box<dyn Proto>
                        })
                        .build();
                    w.schedule_at(SimTime::from_secs(1), move |w| {
                        w.with(NodeId(0), |n: &mut IcnNode<CsmaMac>, ctx| {
                            n.publish(ctx, name(), 1, vec![1; PAYLOAD]);
                        });
                    });
                    let mut groups = vec![0u16; consumers + 2];
                    groups[0] = 1; // the producer alone on the far side
                    let mut plan = FaultPlan::new();
                    plan.push(Fault::Partition {
                        groups,
                        at: SimTime::from_secs(cut_s),
                        heal_at: SimTime::from_secs(heal_s),
                    });
                    plan.apply(&mut w).expect("fault plan fits the sim");
                    w.run(SimDuration::from_secs(run_s));

                    let cut = SimTime::from_secs(cut_s);
                    let heal = SimTime::from_secs(heal_s);
                    let (mut before, mut during, mut after) = (0u64, 0u64, 0u64);
                    let mut served_in_outage = 0usize;
                    for id in 2..(consumers + 2) as u32 {
                        let d = w.proto::<IcnNode<CsmaMac>>(NodeId(id)).deliveries();
                        before += d.iter().filter(|x| x.at < cut).count() as u64;
                        let outage = d.iter().filter(|x| x.at >= cut && x.at < heal).count() as u64;
                        during += outage;
                        served_in_outage += usize::from(outage > 0);
                        after += d.iter().filter(|x| x.at >= heal).count() as u64;
                    }
                    assert!(
                        before > 0 && after > 0,
                        "service must run outside the outage"
                    );
                    match (arm.store_cap, fresh_s >= heal_s) {
                        (0, _) => assert_eq!(during, 0, "no cache, nothing to serve in the cut"),
                        (_, true) => assert_eq!(
                            served_in_outage, consumers,
                            "a covering freshness budget must carry every consumer"
                        ),
                        (_, false) => assert!(
                            during > 0,
                            "the cache must serve until its freshness budget runs out"
                        ),
                    }
                    vec![vec![
                        Cell::label(label),
                        Cell::int(before as f64),
                        Cell::int(during as f64),
                        Cell::int(after as f64),
                        Cell::int(served_in_outage as f64),
                        Cell::pct(
                            during as f64 / (consumers as f64 * ((heal_s - cut_s) / 2) as f64),
                        ),
                    ]]
                })
            }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Runner;

    fn rc(jobs: usize) -> RunConfig {
        RunConfig {
            runner: Runner::new(jobs),
            trials: 1,
        }
    }

    #[test]
    fn arch_table_is_jobs_invariant_and_direction_holds() {
        let a = e15_arch(&rc(1), &[1, 4], 30);
        let b = e15_arch(&rc(2), &[1, 4], 30);
        assert_eq!(a.rows(), b.rows());
        // Rows alternate channel/icn per consumer count; the 4-consumer
        // direction assert already ran inside the trial.
        assert_eq!(a.rows().len(), 4);
    }

    #[test]
    fn cache_table_shows_the_store_paying_off() {
        let t = e15_cache(&rc(2), &[8], 4, 32);
        let rows = t.rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][2], "0", "cache-less arm reports zero hits");
        assert_ne!(rows[1][2], "0", "cached arm reports its hits");
    }

    #[test]
    fn poison_table_shape() {
        let t = e15_poison(&rc(2));
        let rows = t.rows();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0][6], "none", "honest arm has no blast radius");
        for r in &rows[1..] {
            assert_eq!(r[6], "attacked subtree", "{r:?}");
        }
    }

    #[test]
    fn partition_table_shape() {
        let t = e15_partition(&rc(2), 2, 10, 20, 30);
        let rows = t.rows();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0][2], "0", "channel arm starves in the cut");
        assert_ne!(rows[1][2], "0", "covered cache serves through the cut");
    }
}
