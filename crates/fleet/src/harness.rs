//! The fleet-in-a-box harness: N simulated radio networks, one managed
//! fleet.
//!
//! [`run_fleet`] builds `networks` independent CSMA grids (each its own
//! deterministic [`Sim`] world, seeded by [`iiot_sim::seed::derive`]),
//! stitches them together with the cloud-side machinery from the rest
//! of the workspace, and runs everything in lockstep wall-of-virtual-
//! time ticks:
//!
//! * firmware flows gateway-down via `iiot-dissem`: the one staged-
//!   rollout controller, [`Rollout`], runs over network indices, and
//!   each network it activates runs the same controller over its own
//!   nodes ([`rollout::drive`]);
//! * state flows device-up as CRDT twin merges: each gateway keeps a
//!   [`TwinStore`] replica and the cloud joins them every tick the
//!   backhaul is up — a backhaul partition simply pauses the merge and
//!   the join catches up after the heal;
//! * config flows cloud-down: the drift detector scans the converged
//!   cloud store and pushes remediations through the bounded
//!   [`CommandRouter`] onto each gateway's northbound CoAP config
//!   surface (`dev/<device>/<key>`), exactly the downlink path
//!   tenant commands take.
//!
//! Everything runs single-threaded per trial and iterates BTree
//! collections, so a [`FleetOutcome`] is a pure function of
//! ([`FleetConfig`], seed) — the property `iiot-bench` E17 leans on for
//! `--jobs` byte-identity.

use crate::drift;
use iiot_cloud::{CommandRouter, TenantId, TwinStore};
use iiot_coap::resource::Response;
use iiot_coap::{CoapEndpoint, Code};
use iiot_crdt::ReplicaId;
use iiot_dissem::image::Image;
use iiot_dissem::node::{DissemConfig, DissemNode};
use iiot_dissem::rollout::{self, Rollout, Transition};
use iiot_mac::csma::CsmaMac;
use iiot_sim::obs::{Event, EventKind, Recorder, SpanId};
use iiot_sim::{
    seed, Fault, FaultPlan, NodeId, Proto, Sim, SimBuilder, SimDuration, SimTime, StateLoss,
    Topology,
};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

/// The single fleet tenant every twin and command runs under.
pub const TENANT: TenantId = TenantId(0);
/// Firmware version the campaign distributes.
pub const IMG_VERSION: u32 = 7;
/// Default device `report_interval`, seconds (the drifted-from value).
pub const DEFAULT_INTERVAL: f64 = 30.0;
/// The config key campaigns and drift tests exercise.
pub const INTERVAL_KEY: &str = "report_interval";

/// Per-network fault arm applied when the network activates.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultArm {
    /// No injected faults.
    None,
    /// The far-corner node crash-recovers during the rollout, flash
    /// kept — the resumable [`iiot_dissem::PageStore`] absorbs it.
    Crash,
    /// The far-corner node crash-recovers during the rollout, flash
    /// wiped — the node redownloads the whole image.
    Wipe,
}

impl FaultArm {
    /// Display name for tables.
    pub fn name(self) -> &'static str {
        match self {
            FaultArm::None => "none",
            FaultArm::Crash => "crash (resume)",
            FaultArm::Wipe => "wipe (reimage)",
        }
    }
}

/// A backhaul partition window: the listed networks neither merge twins
/// up nor accept downlink flushes while it is open.
#[derive(Clone, Debug)]
pub struct PartitionSpec {
    /// Partition start (inclusive).
    pub from: SimTime,
    /// Partition end (exclusive) — the heal instant.
    pub until: SimTime,
    /// Affected network indices.
    pub networks: Vec<u32>,
}

/// Canary networks of a staged rollout.
pub const CANARIES: u32 = 1;
/// Waves after the canary in a staged rollout.
pub const WAVES: u32 = 2;

/// The fleet's cohorts of network indices: staged, the first
/// [`CANARIES`] networks, then the rest in [`WAVES`] roughly equal
/// waves (the last takes the remainder); flat, every network at once.
pub fn network_cohorts(networks: u32, staged: bool) -> Vec<Vec<u32>> {
    if !staged {
        return vec![(0..networks).collect()];
    }
    let canaries = CANARIES.min(networks);
    let rest: Vec<u32> = (canaries..networks).collect();
    let per = rest.len().div_ceil(WAVES as usize).max(1);
    let mut cohorts = vec![(0..canaries).collect()];
    cohorts.extend(rest.chunks(per).map(<[u32]>::to_vec));
    cohorts
}
/// Lockstep slice between fleet-level control rounds.
pub const TICK: SimDuration = SimDuration::from_secs(5);

/// One fleet scenario; `Default` is a small healthy staged fleet.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Number of networks in the fleet.
    pub networks: u32,
    /// Grid side per network (`side * side` nodes each).
    pub side: usize,
    /// Staged (canary-first) fleet rollout; `false` = everything at
    /// once, flat within each network too.
    pub staged: bool,
    /// Distribute a poisoned build.
    pub poisoned: bool,
    /// Fault arm applied per network at activation.
    pub fault: FaultArm,
    /// Optional backhaul partition.
    pub partition: Option<PartitionSpec>,
    /// Optional desired-config change: at the given instant the control
    /// plane sets `report_interval` to the value for every device.
    pub desired_change: Option<(SimTime, f64)>,
    /// Hard stop.
    pub horizon: SimDuration,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            networks: 4,
            side: 3,
            staged: true,
            poisoned: false,
            fault: FaultArm::None,
            partition: None,
            desired_change: None,
            horizon: SimDuration::from_secs(600),
        }
    }
}

/// What one fleet run measured.
#[derive(Clone, PartialEq, Debug)]
pub struct FleetOutcome {
    /// Wireless nodes under rollout (everything except the trusted
    /// gateways, which hold the image from the start).
    pub fleet_nodes: u32,
    /// Networks the campaign activated before finishing or halting.
    pub networks_activated: u32,
    /// Nodes that downloaded and quarantined a poisoned build.
    pub nodes_poisoned: u32,
    /// When the campaign reached `Done` or `Halted`, seconds (horizon
    /// if it never did).
    pub done_at_s: f64,
    /// The campaign halted early.
    pub halted: bool,
    /// Fraction of all nodes holding a verified image at the end.
    pub coverage: f64,
    /// Devices that entered config drift.
    pub drift_detected: u32,
    /// Remediation pushes acknowledged `2.04 Changed`.
    pub remediations_ok: u32,
    /// Remediation pushes that failed.
    pub remediations_failed: u32,
    /// When the cloud first saw the whole fleet drift-free again,
    /// seconds (horizon if it never did; 0 if nothing ever drifted).
    pub drift_cleared_at_s: f64,
    /// Per network: mean lag between a device completing locally and
    /// the cloud twin reflecting it, seconds (0 if nothing completed).
    pub twin_lag_s: Vec<f64>,
    /// Twins known to the cloud store at the end.
    pub cloud_twins: usize,
    /// Total CRDT writes absorbed by the cloud store.
    pub twin_events: u64,
}

/// One network's simulation plus its slice of the management plane.
struct Network {
    sim: Sim,
    ids: Vec<NodeId>,
    /// This gateway's twin replica (merged up to the cloud).
    gw_twins: TwinStore,
    /// Northbound config surface: `dev/<gid>/report_interval` PUTs land
    /// in `device_cfg`.
    cfg_server: CoapEndpoint<u64>,
    /// What each device (global id) is actually configured to run.
    device_cfg: Rc<RefCell<BTreeMap<u32, f64>>>,
    /// Downlink queue for this network's remediation pushes.
    router: CommandRouter,
    /// Last twin-reported value per (global id, key) — write-on-change.
    last_reported: BTreeMap<(u32, &'static str), f64>,
    /// When each device (global id) completed locally.
    local_done: BTreeMap<u32, SimTime>,
}

fn emit(rec: &mut Option<Box<dyn Recorder>>, t: SimTime, node: u32, kind: EventKind) {
    if let Some(r) = rec {
        r.record(&Event {
            t,
            node: NodeId(node),
            span: SpanId::NONE,
            kind,
        });
    }
}

/// Builds one network: a `side x side` CSMA grid of disabled dissem
/// nodes, the trusted image installed at its gateway at t=1s.
fn build_network(net: u32, cfg: &FleetConfig, seed_val: u64, img: &Image) -> Network {
    let side = cfg.side;
    let per_net = (side * side) as u32;
    let topo = Topology::grid(side, side, 20.0);
    let ids: Vec<NodeId> = (0..per_net).map(NodeId).collect();
    let mut sim = SimBuilder::new()
        .seed(seed::derive(seed_val, u64::from(net)))
        .nodes(topo, |_| {
            Box::new(DissemNode::new(
                CsmaMac::default(),
                DissemConfig {
                    enabled: false,
                    ..DissemConfig::default()
                },
            )) as Box<dyn Proto>
        })
        .build();
    let gw = ids[0];
    let img2 = img.clone();
    sim.schedule_at(SimTime::from_secs(1), move |w| {
        w.with(gw, |n: &mut DissemNode<CsmaMac>, ctx| n.install(ctx, &img2));
    });

    let device_cfg: Rc<RefCell<BTreeMap<u32, f64>>> = Rc::default();
    let mut cfg_server: CoapEndpoint<u64> =
        CoapEndpoint::new(seed::derive(seed_val, 1_000 + u64::from(net)));
    for i in 0..per_net {
        let gid = net * per_net + i;
        let store = Rc::clone(&device_cfg);
        cfg_server.add_resource(
            &drift::point_path(gid, INTERVAL_KEY),
            Box::new(move |req| match req.method {
                Code::Put => match std::str::from_utf8(&req.payload)
                    .ok()
                    .and_then(|s| s.parse::<f64>().ok())
                {
                    Some(v) => {
                        store.borrow_mut().insert(gid, v);
                        Response::changed()
                    }
                    None => Response::not_found(),
                },
                _ => Response::method_not_allowed(),
            }),
        );
    }
    Network {
        sim,
        ids,
        gw_twins: TwinStore::new(),
        cfg_server,
        device_cfg,
        router: CommandRouter::new(64, seed::derive(seed_val, 2_000 + u64::from(net))),
        last_reported: BTreeMap::new(),
        local_done: BTreeMap::new(),
    }
}

/// Is `net`'s backhaul partitioned at `now`?
fn partitioned(cfg: &FleetConfig, net: u32, now: SimTime) -> bool {
    cfg.partition
        .as_ref()
        .is_some_and(|p| p.networks.contains(&net) && now >= p.from && now < p.until)
}

/// Runs one fleet scenario to completion; see the [module docs](self).
pub fn run_fleet(cfg: &FleetConfig, seed_val: u64) -> FleetOutcome {
    let mut rec = iiot_sim::obs::scope_capture(seed_val);
    let per_net = (cfg.side * cfg.side) as u32;
    let img = {
        let base = Image::build(
            IMG_VERSION,
            (0..960).map(|i| (i * 13 % 256) as u8).collect(),
            40,
            8,
        );
        if cfg.poisoned {
            base.poisoned()
        } else {
            base
        }
    };
    let mut nets: Vec<Network> = (0..cfg.networks)
        .map(|n| build_network(n, cfg, seed_val, &img))
        .collect();
    let mut campaign = Rollout::new(network_cohorts(cfg.networks, cfg.staged));
    let mut cloud = TwinStore::new();

    let mut now = SimTime::ZERO;
    let mut done_at: Option<SimTime> = None;
    let mut halted = false;
    let mut desired_applied = false;
    let mut had_drift = false;
    let mut drift_cleared_at: Option<SimTime> = None;
    let mut drifted_seen: BTreeSet<u32> = BTreeSet::new();
    let mut submitted: BTreeSet<(u32, String)> = BTreeSet::new();
    let mut remediations_ok = 0u32;
    let mut remediations_failed = 0u32;
    // Global id -> when the cloud twin first reflected completion.
    let mut cloud_seen: BTreeMap<u32, SimTime> = BTreeMap::new();
    // Blast-radius settling for poisoned builds: after a halt, in-
    // flight downloads keep landing; only stop once the poison count
    // has been stable for a while.
    let mut last_poisoned = 0u32;
    let mut poison_stable = 0u32;

    while now < SimTime::ZERO + cfg.horizon {
        // 1. Everyone advances one lockstep slice of virtual time.
        for net in nets.iter_mut() {
            net.sim.run_for(TICK);
        }
        now += TICK;
        let now_us = now.as_micros();

        // 2. Gateway replicas refresh their twins (write-on-change).
        for (n, net) in nets.iter_mut().enumerate() {
            let writer = ReplicaId(n as u64 + 1);
            for (i, &id) in net.ids.clone().iter().enumerate() {
                let gid = n as u32 * per_net + i as u32;
                let fw = if net.sim.proto::<DissemNode<CsmaMac>>(id).complete_ok() {
                    f64::from(IMG_VERSION)
                } else {
                    0.0
                };
                if net.last_reported.get(&(gid, "fw")) != Some(&fw) {
                    net.gw_twins.report(TENANT, gid, now_us, writer, "fw", fw);
                    net.last_reported.insert((gid, "fw"), fw);
                    if fw > 0.0 {
                        net.local_done.entry(gid).or_insert(now);
                    }
                }
                let interval = net
                    .device_cfg
                    .borrow()
                    .get(&gid)
                    .copied()
                    .unwrap_or(DEFAULT_INTERVAL);
                if net.last_reported.get(&(gid, INTERVAL_KEY)) != Some(&interval) {
                    net.gw_twins
                        .report(TENANT, gid, now_us, writer, INTERVAL_KEY, interval);
                    net.last_reported.insert((gid, INTERVAL_KEY), interval);
                }
            }
        }

        // 3. Backhaul up => the cloud joins each gateway replica.
        for (n, net) in nets.iter().enumerate() {
            if !partitioned(cfg, n as u32, now) {
                iiot_crdt::Crdt::merge(&mut cloud, &net.gw_twins);
            }
        }
        for (&(_, gid), twin) in cloud.iter() {
            if twin.reported.get(&"fw".to_owned()).copied() == Some(f64::from(IMG_VERSION)) {
                cloud_seen.entry(gid).or_insert(now);
            }
        }

        // 4. The control plane's desired-config change, if scheduled.
        if let Some((at, value)) = cfg.desired_change {
            if now >= at && !desired_applied {
                for gid in 0..cfg.networks * per_net {
                    cloud.desire(TENANT, gid, now_us, ReplicaId(0), INTERVAL_KEY, value);
                }
                desired_applied = true;
            }
        }

        // 5. Drift scan on the converged cloud state + remediation.
        let items = drift::scan(&cloud);
        if !items.is_empty() {
            had_drift = true;
            drift_cleared_at = None;
        } else if had_drift && drift_cleared_at.is_none() {
            drift_cleared_at = Some(now);
        }
        let mut keys_per_device: BTreeMap<u32, u32> = BTreeMap::new();
        for item in &items {
            *keys_per_device.entry(item.device).or_insert(0) += 1;
        }
        for (&device, &keys) in &keys_per_device {
            if drifted_seen.insert(device) {
                emit(
                    &mut rec,
                    now,
                    device / per_net,
                    EventKind::FleetDrift { device, keys },
                );
            }
        }
        for item in &items {
            let key = (item.device, item.key.clone());
            if !submitted.contains(&key) {
                let n = (item.device / per_net) as usize;
                if nets[n].router.submit(drift::remediation(item)) {
                    submitted.insert(key);
                }
            }
        }
        for (n, net) in nets.iter_mut().enumerate() {
            if net.router.pending() > 0 && !partitioned(cfg, n as u32, now) {
                for o in net.router.flush(&mut net.cfg_server, now) {
                    let device = drift::device_of_path(&o.point).unwrap_or(0);
                    emit(
                        &mut rec,
                        now,
                        n as u32,
                        EventKind::FleetRemediate { device, ok: o.ok },
                    );
                    if o.ok {
                        remediations_ok += 1;
                    } else {
                        remediations_failed += 1;
                        // Allow a retry on the next drift scan.
                        submitted
                            .remove(&(device, o.point.rsplit('/').next().unwrap_or("").to_owned()));
                    }
                }
            }
        }

        // 6. The campaign controller asks each activated network whether
        // it is done or poisoned; a partitioned one is neither, so its
        // silence pauses the campaign.
        let transition = campaign.step(|n| {
            let net = &nets[n as usize];
            if partitioned(cfg, n, now) {
                return (false, false);
            }
            let node = |id| net.sim.proto::<DissemNode<CsmaMac>>(id);
            (
                net.ids.iter().all(|&id| node(id).complete_ok()),
                net.ids.iter().any(|&id| node(id).poisoned()),
            )
        });
        match transition {
            Some(Transition::Activate { stage, cohort, .. }) => {
                emit(
                    &mut rec,
                    now,
                    cohort[0],
                    EventKind::FleetPhase {
                        stage,
                        networks: cohort.len() as u32,
                    },
                );
                for n in cohort {
                    let net = &mut nets[n as usize];
                    rollout::drive::<CsmaMac>(
                        &mut net.sim,
                        net.ids[0],
                        rollout::grid_cohorts(cfg.side, cfg.staged),
                        now + SimDuration::from_millis(100),
                    );
                    if cfg.fault != FaultArm::None {
                        let loss = if cfg.fault == FaultArm::Wipe {
                            StateLoss::Full
                        } else {
                            StateLoss::Ram
                        };
                        // The crash must land *after* the victim's
                        // cohort enables (a node down at its wave's
                        // activation is skipped by the controller and
                        // the campaign gate then waits on it forever)
                        // but mid-download, so the outage actually
                        // costs pages. Depth rings enable roughly every
                        // check period; the far corner sits in the last
                        // ring.
                        let rings = 2 * (cfg.side as u64 - 1);
                        let last_ring = if cfg.staged {
                            rollout::CHECK_PERIOD * (rings - 1)
                        } else {
                            SimDuration::ZERO
                        };
                        let mut plan = FaultPlan::new();
                        plan.push(Fault::CrashRecover {
                            node: *net.ids.last().expect("non-empty grid"),
                            at: now + last_ring + SimDuration::from_secs(2),
                            down_for: SimDuration::from_secs(20),
                            loss,
                        });
                        plan.apply(&mut net.sim).expect("fault plan fits the sim");
                    }
                }
            }
            Some(Transition::Halted { activated }) => {
                emit(
                    &mut rec,
                    now,
                    0,
                    EventKind::FleetPhase {
                        stage: "halted",
                        networks: activated,
                    },
                );
                halted = true;
                done_at.get_or_insert(now);
            }
            Some(Transition::Done { .. }) => {
                emit(
                    &mut rec,
                    now,
                    0,
                    EventKind::FleetPhase {
                        stage: "done",
                        networks: cfg.networks,
                    },
                );
                done_at.get_or_insert(now);
            }
            None => {}
        }

        // 7. Converged? Campaign settled, drift (if any) cleared, no
        // partition still open or pending, every completion visible in
        // the cloud. For poisoned builds nothing completes — instead
        // wait for the blast radius to stop growing, so the measured
        // count includes downloads that were in flight at the halt.
        if cfg.poisoned {
            let poisoned_now: u32 = nets
                .iter()
                .map(|net| {
                    net.ids
                        .iter()
                        .filter(|&&id| net.sim.proto::<DissemNode<CsmaMac>>(id).poisoned())
                        .count() as u32
                })
                .sum();
            if poisoned_now == last_poisoned {
                poison_stable += 1;
            } else {
                poison_stable = 0;
                last_poisoned = poisoned_now;
            }
        }
        let campaign_settled = done_at.is_some();
        let drift_settled =
            cfg.desired_change.is_none() || (desired_applied && drift_cleared_at.is_some());
        let partition_over = cfg.partition.as_ref().is_none_or(|p| now >= p.until);
        let twins_settled = if cfg.poisoned {
            last_poisoned > 0 && poison_stable >= 6
        } else {
            halted || cloud_seen.len() as u32 == cfg.networks * per_net
        };
        if campaign_settled && drift_settled && partition_over && twins_settled {
            break;
        }
    }

    let nodes_poisoned = nets
        .iter()
        .map(|net| {
            net.ids
                .iter()
                .filter(|&&id| net.sim.proto::<DissemNode<CsmaMac>>(id).poisoned())
                .count() as u32
        })
        .sum();
    let complete: u32 = nets
        .iter()
        .map(|net| {
            net.ids
                .iter()
                .filter(|&&id| net.sim.proto::<DissemNode<CsmaMac>>(id).complete_ok())
                .count() as u32
        })
        .sum();
    let twin_lag_s = nets
        .iter()
        .map(|net| {
            let lags: Vec<f64> = net
                .local_done
                .iter()
                .filter_map(|(gid, &t)| cloud_seen.get(gid).map(|&seen| (seen - t).as_secs_f64()))
                .collect();
            if lags.is_empty() {
                0.0
            } else {
                lags.iter().sum::<f64>() / lags.len() as f64
            }
        })
        .collect();
    let horizon_s = (SimTime::ZERO + cfg.horizon).as_secs_f64();
    drop(rec); // flush captured fleet events into the trace sink
    FleetOutcome {
        fleet_nodes: cfg.networks * (per_net - 1),
        networks_activated: campaign.activated().len() as u32,
        nodes_poisoned,
        done_at_s: done_at.map_or(horizon_s, |t| t.as_secs_f64()),
        halted,
        coverage: f64::from(complete) / f64::from(cfg.networks * per_net),
        drift_detected: drifted_seen.len() as u32,
        remediations_ok,
        remediations_failed,
        drift_cleared_at_s: if had_drift {
            drift_cleared_at.map_or(horizon_s, |t| t.as_secs_f64())
        } else {
            0.0
        },
        twin_lag_s,
        cloud_twins: cloud.len(),
        twin_events: cloud.total_events(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(networks: u32) -> FleetConfig {
        FleetConfig {
            networks,
            side: 2,
            horizon: SimDuration::from_secs(300),
            ..FleetConfig::default()
        }
    }

    #[test]
    fn staged_splits_canary_then_waves() {
        let cohorts = network_cohorts(8, true);
        assert_eq!(cohorts[0], vec![0], "the canary network goes first");
        assert_eq!(cohorts.len(), 1 + WAVES as usize, "canary + waves");
        let mut all: Vec<u32> = cohorts.concat();
        all.sort_unstable();
        assert_eq!(
            all,
            (0..8).collect::<Vec<_>>(),
            "every network exactly once"
        );
        assert_eq!(network_cohorts(8, false), [(0..8).collect::<Vec<_>>()]);
    }

    #[test]
    fn a_clean_staged_campaign_converges_and_twins_follow() {
        let o = run_fleet(&small(2), 0xF1EE7);
        assert!(!o.halted, "clean image must not halt");
        assert_eq!(o.networks_activated, 2);
        assert_eq!(o.coverage, 1.0, "every node reimaged");
        assert_eq!(o.nodes_poisoned, 0);
        assert_eq!(o.cloud_twins, 8, "one twin per device");
        assert!(o.done_at_s < 300.0, "converged before the horizon");
        assert!(o.twin_lag_s.iter().all(|&l| (0.0..30.0).contains(&l)));
    }

    #[test]
    fn a_poisoned_build_halts_at_the_canary_network() {
        let cfg = FleetConfig {
            poisoned: true,
            ..small(4)
        };
        let o = run_fleet(&cfg, 0xF1EE7);
        assert!(o.halted);
        assert_eq!(o.networks_activated, 1, "blast radius: the canary network");
        assert_eq!(
            o.nodes_poisoned, 2,
            "only the canary network's first depth ring (nodes 1 and 2 of a 2x2 grid)"
        );
    }

    #[test]
    fn a_flat_fleet_poisons_everything() {
        let cfg = FleetConfig {
            poisoned: true,
            staged: false,
            ..small(2)
        };
        let o = run_fleet(&cfg, 0xF1EE7);
        assert_eq!(o.networks_activated, 2, "flat: everyone activates at once");
        assert_eq!(
            o.nodes_poisoned, o.fleet_nodes,
            "every wireless node takes the bad build"
        );
    }

    #[test]
    fn desired_change_drifts_then_remediates() {
        let cfg = FleetConfig {
            desired_change: Some((SimTime::from_secs(40), 10.0)),
            ..small(2)
        };
        let o = run_fleet(&cfg, 0xF1EE7);
        assert_eq!(o.drift_detected, 8, "every device drifted");
        assert_eq!(o.remediations_ok, 8, "every push acked");
        assert_eq!(o.remediations_failed, 0);
        assert!(o.drift_cleared_at_s > 40.0 && o.drift_cleared_at_s < 300.0);
    }

    #[test]
    fn outcomes_are_a_pure_function_of_config_and_seed() {
        let cfg = FleetConfig {
            desired_change: Some((SimTime::from_secs(40), 10.0)),
            fault: FaultArm::Crash,
            ..small(2)
        };
        assert_eq!(run_fleet(&cfg, 42), run_fleet(&cfg, 42));
    }
}
