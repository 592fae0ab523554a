//! Integration: an event kind that owns a counter writes it on every
//! emission, so the counter equals the kind's trace count, and it
//! writes it whether or not a recorder is installed. Five planes share
//! one world, each out of radio range of the others: TDMA collection
//! under free-running drifting clocks (guard violations), an FTSP flood,
//! DODAG collection over LPL, an ICN tree whose producer publishes
//! forged versions, and a dissemination line.

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
use iiot::sim::obs::{CountingRecorder, EventKind};
use iiot::sim::prelude::*;
use iiot_timesync::{FtspConfig, FtspNode};

const TDMA: u32 = 0; // ids 0..4
const FTSP: u32 = 4; // ids 4..8
const DODAG: u32 = 8; // ids 8..13
const ICN: u32 = 13; // ids 13..20
const DISSEM: u32 = 20; // ids 20..24
const NODES: u32 = 24;

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

/// Runs the world for 40 s, with a counting recorder or without one.
fn run(record: bool) -> Sim {
    let mut b = SimBuilder::new()
        .seed(0xC0)
        .clock(ClockModel::drifting(500.0))
        .nodes(topology(), |i| node(i as u32));
    if record {
        b = b.recorder(Box::new(CountingRecorder::new()));
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
    let rec = traced
        .recorder_as::<CountingRecorder>()
        .expect("counting recorder");
    assert_eq!(EventKind::COUNTERS.len(), 11);
    for &(kind, counter) in EventKind::COUNTERS {
        let total = traced.stats().node_total(counter);
        assert!(
            total > 0.0,
            "{kind} never happened: the world does not test it"
        );
        assert_eq!(rec.count(kind) as f64, total, "{kind} vs {counter}");
        let bits = |s: &Sim| -> Vec<(NodeId, u64)> {
            let values = s.stats().node_values(counter).into_iter();
            values.map(|(n, v)| (n, v.to_bits())).collect()
        };
        assert_eq!(bits(&traced), bits(&plain), "{counter} hangs on recording");
    }
}
