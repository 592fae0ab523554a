//! Integration: every counter belongs to an event kind and is written
//! on every emission, so the counter equals the kind's trace count, per
//! node, and it is written whether or not a recorder is installed. Five
//! planes share one world, each out of radio range of the others: TDMA
//! collection under free-running drifting clocks (guard violations), an
//! FTSP flood, DODAG collection over LPL, an ICN tree whose producer
//! publishes forged versions, and a dissemination line. The counters
//! this world cannot reach are checked the same way by the tests listed
//! in [`ELSEWHERE`].

use iiot::dissem::image::Image;
use iiot::dissem::node::{DissemConfig, DissemNode};
use iiot::icn::{ContentObject, IcnConfig, IcnNode, Name, PollPlan};
use iiot::mac::csma::CsmaMac;
use iiot::mac::lpl::LplMac;
use iiot::mac::tdma::{TdmaMac, TdmaSchedule};
use iiot::routing::dodag::{DodagConfig, DodagNode, Traffic};
use iiot::routing::graph::line_parents;
use iiot::routing::statictree::{StaticCollection, StaticConfig};
use iiot::security::Key;
use iiot::sim::obs::EventKind;
use iiot::sim::prelude::*;
use iiot_timesync::{FtspConfig, FtspNode};
use std::collections::BTreeMap;

const TDMA: u32 = 0; // ids 0..4
const FTSP: u32 = 4; // ids 4..8
const DODAG: u32 = 8; // ids 8..13
const ICN: u32 = 13; // ids 13..20
const DISSEM: u32 = 20; // ids 20..24
const NODES: u32 = 24;

/// Where the data-plane and aggregation counters are checked.
const MODEL: &str = "crates/routing/tests/data_plane_model.rs";
const TREE: &str = "iiot-aggregate tree::tests::counters_equal_their_trace_recorder_on_or_off";

/// The counters this world never bumps, each with the test that
/// reaches it and checks it against its trace, recorder on and off.
const ELSEWHERE: [(&str, &str); 13] = [
    (
        "expired_txid",
        "iiot-sim world::tests::expired_txid_drop_counts_per_node",
    ),
    ("mac_cca_fail", "crates/mac/tests/edge.rs"),
    ("data_drop_queue", MODEL),
    ("data_drop_size", MODEL),
    ("data_drop_ttl", MODEL),
    ("data_drop_malformed", MODEL),
    ("data_looped", MODEL),
    ("query_fwd", TREE),
    ("agg_tx", TREE),
    ("raw_tx", TREE),
    ("query_bad", TREE),
    ("ftsp_beacon_bad", "crates/timesync/tests/forged_beacons.rs"),
    (
        "dissem_adv_oversize",
        "crates/dissem/tests/dissemination.rs",
    ),
];

/// Counts emissions per owned counter and node, as the kernel bumps
/// the counters.
#[derive(Default)]
struct ByCounter(BTreeMap<(&'static str, NodeId), f64>);

impl Recorder for ByCounter {
    fn record(&mut self, ev: &Event) {
        if let Some(counter) = ev.kind.counter() {
            *self.0.entry((counter, ev.node)).or_default() += 1.0;
        }
    }
}

fn traffic() -> Option<Traffic> {
    Some(Traffic {
        period: SimDuration::from_secs(3),
        payload_len: 10,
        start_after: SimDuration::from_secs(5),
    })
}

fn name() -> Name {
    Name::new("/plant/cell3/temp")
}

/// Each plane on its own row, 1 km from the next.
fn topology() -> Topology {
    let row = |first: u32, last: u32, y: f64, dx: f64| {
        (first..last).map(move |i| Pos::new((i - first) as f64 * dx, y))
    };
    let icn = [(0.0, 0.0), (-20.0, 0.0), (20.0, 0.0), (-34.0, -6.0)]
        .into_iter()
        .chain([(-34.0, 6.0), (34.0, -6.0), (34.0, 6.0)])
        .map(|(x, y)| Pos::new(x, 3000.0 + y));
    row(TDMA, FTSP, 0.0, 10.0)
        .chain(row(FTSP, DODAG, 1000.0, 25.0))
        .chain(row(DODAG, ICN, 2000.0, 20.0))
        .chain(icn)
        .chain(row(DISSEM, NODES, 4000.0, 20.0))
        .collect()
}

fn icn_config(id: u32) -> IcnConfig {
    let local = id - ICN;
    let upstream = |n: u32| Some(NodeId(ICN + n));
    match local {
        0 => IcnConfig::default(),
        1 | 2 => IcnConfig {
            upstream: upstream(0),
            ..IcnConfig::default()
        },
        _ => IcnConfig {
            upstream: upstream(if local <= 4 { 1 } else { 2 }),
            store_cap: 0,
            poll: Some(PollPlan {
                name: name(),
                start: SimDuration::from_millis(500 + 137 * u64::from(local)),
                period: SimDuration::from_secs(2),
                updates: true,
            }),
            ..IcnConfig::default()
        },
    }
}

fn node(id: u32) -> Box<dyn Proto> {
    match id {
        _ if id < FTSP => {
            let parents = line_parents((FTSP - TDMA) as usize);
            let sched = TdmaSchedule::pipeline_to_root(&parents, SimDuration::from_millis(20))
                .with_idle(8)
                .with_guard(SimDuration::from_micros(200));
            let mac = TdmaMac::new(sched).with_local_clock();
            let cfg = StaticConfig {
                traffic: traffic(),
                ..StaticConfig::new(parents)
            };
            Box::new(StaticCollection::new(mac, cfg))
        }
        _ if id < DODAG => {
            let cfg = FtspConfig::default().with_period(SimDuration::from_secs(2));
            Box::new(FtspNode::new(cfg))
        }
        _ if id < ICN => {
            let cfg = DodagConfig {
                traffic: traffic(),
                ..DodagConfig::default()
            };
            Box::new(DodagNode::new(LplMac::default(), cfg, id == DODAG))
        }
        _ if id < DISSEM => Box::new(IcnNode::new(CsmaMac::default(), icn_config(id))),
        _ => Box::new(DissemNode::new(CsmaMac::default(), DissemConfig::default())),
    }
}

/// Runs the world for 40 s, with a [`ByCounter`] recorder or without
/// one.
fn run(record: bool) -> Sim {
    let mut b = SimBuilder::new()
        .seed(0xC0)
        .clock(ClockModel::drifting(500.0))
        .nodes(topology(), |i| node(i as u32));
    if record {
        b = b.recorder(Box::<ByCounter>::default());
    }
    let mut sim = b.build();
    let producer = NodeId(ICN);
    for v in 1..=3u32 {
        sim.schedule_at(SimTime::from_secs(1 + 8 * u64::from(v - 1)), move |w| {
            w.with(producer, |n: &mut IcnNode<CsmaMac>, ctx| {
                if v == 1 {
                    n.publish(ctx, name(), v, vec![v as u8; 24]);
                } else {
                    let key = Key([0x66; 16]);
                    let ttl = SimDuration::from_secs(60);
                    let obj = ContentObject::signed(&key, name(), v, ttl, vec![v as u8; 24]);
                    n.publish_object(ctx, obj);
                }
            });
        });
    }
    let bytes: Vec<u8> = (0..600).map(|i| (i * 7 % 256) as u8).collect();
    let img = Image::build(1, bytes, 30, 4);
    sim.schedule_at(SimTime::from_secs(1), move |w| {
        w.with(NodeId(DISSEM), |n: &mut DissemNode<CsmaMac>, ctx| {
            n.install(ctx, &img)
        });
    });
    sim.run(SimDuration::from_secs(40));
    sim
}

#[test]
fn a_kind_counter_equals_its_trace_and_ignores_the_recorder() {
    let traced = run(true);
    let plain = run(false);
    let rec = traced.recorder_as::<ByCounter>().expect("recorder");
    assert_eq!(EventKind::COUNTERS.len(), 32);
    for (counter, _) in ELSEWHERE {
        assert!(
            EventKind::COUNTERS.iter().any(|&(_, c)| c == counter),
            "{counter}"
        );
    }
    for &(kind, counter) in EventKind::COUNTERS {
        let reached = traced.stats().node_total(counter) > 0.0;
        let elsewhere = ELSEWHERE.iter().any(|&(c, _)| c == counter);
        assert_ne!(
            reached, elsewhere,
            "{kind} -> {counter}: reached here iff not listed"
        );
        let events = rec.0.iter().filter(|((c, _), _)| *c == counter);
        let events: Vec<(NodeId, f64)> = events.map(|(&(_, n), &v)| (n, v)).collect();
        let values = traced.stats().node_values(counter);
        assert_eq!(values, events, "{kind} -> {counter} vs its trace");
        let bits = |s: &Sim| -> Vec<(NodeId, u64)> {
            let values = s.stats().node_values(counter).into_iter();
            values.map(|(n, v)| (n, v.to_bits())).collect()
        };
        assert_eq!(bits(&traced), bits(&plain), "{counter} hangs on recording");
    }
}
