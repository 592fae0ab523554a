//! Two services on one radio (paper §V-D: reprogram a network while it
//! keeps collecting): a DODAG and a dissemination service share one
//! LPL MAC per node through `Stack`. There is no composite node type in
//! the product; this test-local host is all it takes.

use iiot_dissem::{Dissem, DissemConfig, Image};
use iiot_mac::lpl::{LplConfig, LplMac};
use iiot_mac::{SendHandle, Service, Stack};
use iiot_routing::trickle::TrickleConfig;
use iiot_routing::{Collected, Dodag, DodagConfig, Traffic};
use iiot_sim::prelude::*;

struct Mote {
    stack: Stack<LplMac>,
    svc: (Dodag, Dissem),
}

impl Proto for Mote {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        self.stack.start(&mut self.svc, ctx);
    }
    fn timer(&mut self, ctx: &mut Ctx<'_>, timer: Timer) {
        self.stack.timer(&mut self.svc, ctx, timer);
    }
    fn frame(&mut self, ctx: &mut Ctx<'_>, frame: &Frame, info: RxInfo) {
        self.stack.frame(&mut self.svc, ctx, frame, info);
    }
    fn tx_done(&mut self, ctx: &mut Ctx<'_>, outcome: TxOutcome) {
        self.stack.tx_done(&mut self.svc, ctx, outcome);
    }
    fn crashed(&mut self) {
        self.stack.crashed(&mut self.svc);
    }
}

const NODES: u32 = 9;
const PERIOD_S: u64 = 20;
const RUN_S: u64 = 600;

/// A 3×3 grid collecting a reading per node every 20 s from t = 30 s;
/// an image lands on the root at t = 60 s. With `spurious`, every
/// service on every node is also handed, every 5 s, a `SendDone` for a
/// handle it never got from `Mac::send`.
fn rollout_while_collecting(spurious: bool) -> (Vec<Collected>, Vec<Option<SimTime>>, f64, u64) {
    let dodag = DodagConfig {
        traffic: Some(Traffic {
            period: SimDuration::from_secs(PERIOD_S),
            payload_len: 8,
            start_after: SimDuration::from_secs(30),
        }),
        ..DodagConfig::default()
    };
    // E14's LPL arm: a broadcast costs a whole wake interval, so the
    // interval is short and the control plane paced to match.
    let lpl = LplConfig {
        wake_interval: SimDuration::from_millis(256),
        ..LplConfig::default()
    };
    let dissem = DissemConfig {
        trickle: TrickleConfig {
            imin: SimDuration::from_secs(1),
            doublings: 6,
            k: 1,
        },
        req_backoff: SimDuration::from_millis(500),
        ..DissemConfig::default()
    };
    let mut w = SimBuilder::new()
        .seed(21)
        .nodes(Topology::grid(3, 3, 15.0), move |i| {
            Box::new(Mote {
                stack: Stack::new(LplMac::new(lpl.clone())),
                svc: (
                    Dodag::new(dodag.clone(), i == 0),
                    Dissem::new(dissem.clone()),
                ),
            })
        })
        .build();
    let image = Image::build(1, (0..240).map(|i| i as u8).collect(), 30, 4);
    for step in 0..RUN_S / 5 {
        if step == 12 {
            w.with(NodeId(0), |m: &mut Mote, ctx| m.svc.1.install(ctx, &image));
        }
        if spurious {
            for id in (0..NODES).map(NodeId) {
                w.with(id, |m: &mut Mote, ctx| {
                    let (mac, stray) = (m.stack.mac_mut(), SendHandle(u64::MAX - step));
                    m.svc.0.send_done(mac, ctx, stray, false);
                    m.svc.1.send_done(mac, ctx, stray, step % 2 == 0);
                });
            }
        }
        w.run_for(SimDuration::from_secs(5));
    }
    let done = (0..NODES)
        .map(|i| w.proto::<Mote>(NodeId(i)).svc.1.complete_at())
        .collect();
    let collected = w.proto::<Mote>(NodeId(0)).svc.0.collected().to_vec();
    let originated = w.stats().node_total("data_origin");
    (collected, done, originated, w.events_dispatched())
}

#[test]
fn an_image_rolls_out_while_the_dodag_keeps_collecting() {
    let (collected, done, originated, _) = rollout_while_collecting(false);
    for (i, at) in done.iter().enumerate() {
        let at = at.unwrap_or_else(|| panic!("node {i} never completed the image"));
        assert!(i == 0 || at > SimTime::from_secs(60), "node {i} at {at}");
    }
    // Eight sources, one reading per 20 s from 30 s (plus up to a
    // period of phase): at least 27 rounds fall inside the run.
    let due = (NODES as u64 - 1) * ((RUN_S - 30 - PERIOD_S) / PERIOD_S - 1);
    assert!(
        originated >= due as f64,
        "{originated} readings of {due} due"
    );
    // Stated loss bound: a fifth of the readings, rollout included
    // (every DATA broadcast holds the channel for a wake interval).
    assert!(
        collected.len() as f64 >= 0.8 * originated,
        "root collected {} of {originated}",
        collected.len()
    );
    let last = done.iter().flatten().max().copied().expect("all done");
    let during = |c: &&Collected| c.sent_at > SimTime::from_secs(60) && c.received_at < last;
    let during = collected.iter().filter(during).count();
    assert!(
        during >= 30,
        "{during} readings arrived while the image spread"
    );
}

#[test]
fn a_send_done_for_another_services_handle_changes_nothing() {
    assert!(rollout_while_collecting(true) == rollout_while_collecting(false));
}
