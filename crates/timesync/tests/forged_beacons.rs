//! Forged FTSP beacons against a live [`FtspNode`]: whatever root,
//! sequence number, depth and global time a beacon carries, the
//! receiver drops or absorbs it — it never panics, and a global time
//! outside the estimator's `i64` domain is a counted drop.

use iiot_sim::obs::RingRecorder;
use iiot_sim::prelude::*;
use iiot_timesync::{encode_beacon, Beacon, FtspConfig, FtspNode, FTSP_PORT};
use proptest::prelude::*;

/// Broadcasts a fixed script of beacons on the FTSP port, one per
/// timer, at the scripted offsets from boot.
struct Forger {
    script: Vec<(SimDuration, Beacon)>,
}

impl Proto for Forger {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.radio_on().expect("radio");
        for (k, &(at, _)) in self.script.iter().enumerate() {
            ctx.set_timer(at, k as u64);
        }
    }

    fn timer(&mut self, ctx: &mut Ctx<'_>, t: Timer) {
        let payload = encode_beacon(&self.script[t.tag as usize].1);
        let _ = ctx.transmit(Dst::Broadcast, FTSP_PORT, payload);
    }
}

/// An honest reference (node 0, 1 s beacons), a victim electing its
/// reference dynamically (node 1) and the forger (node 2), all in
/// range of each other.
fn run(script: Vec<(SimDuration, Beacon)>, secs: u64) -> Sim {
    recorded_run(script, secs, false)
}

/// [`run`], with a ring recorder if `record`.
fn recorded_run(script: Vec<(SimDuration, Beacon)>, secs: u64, record: bool) -> Sim {
    let period = SimDuration::from_secs(1);
    let mut b = SimBuilder::new()
        .seed(0xF75)
        .clock(ClockModel::drifting(50.0))
        .nodes(Topology::line(2, 10.0), move |id| {
            let cfg = FtspConfig::default().with_period(period);
            let cfg = if id == 0 {
                cfg.with_reference(NodeId(0))
            } else {
                cfg
            };
            Box::new(FtspNode::new(cfg)) as Box<dyn Proto>
        })
        .nodes(
            std::iter::once(Pos::new(20.0, 0.0)).collect::<Topology>(),
            move |_| {
                Box::new(Forger {
                    script: script.clone(),
                })
            },
        );
    if record {
        b = b.recorder(Box::new(RingRecorder::new(1 << 12)));
    }
    let mut sim = b.build();
    sim.run(SimDuration::from_secs(secs));
    sim
}

#[test]
fn out_of_domain_global_time_is_a_counted_drop_that_changes_nothing() {
    let at = SimDuration::from_millis;
    let beacon = |seq, global_us| Beacon {
        root: NodeId(0),
        seq,
        depth: 0,
        global_us,
    };
    // A well-formed root-0 beacon, then two whose global time is past
    // i64::MAX µs: the victim must end exactly where the first alone
    // leaves it.
    let good = (at(100), beacon(1000, 100_000));
    let clean = run(vec![good], 2);
    let script = vec![
        good,
        (at(300), beacon(1001, 1 << 63)),
        (at(500), beacon(1002, u64::MAX)),
    ];
    let forged = run(script.clone(), 2);
    let victim = NodeId(1);
    // Two bad beacons, each heard by the reference and the victim.
    let bad = |sim: &Sim| sim.stats().node_values("ftsp_beacon_bad");
    let two_each = vec![(NodeId(0), 2.0), (victim, 2.0)];
    assert_eq!((bad(&clean), bad(&forged)), (vec![], two_each.clone()));
    // Recorded, each is a `bad_input` event, and the count is the same.
    let recorded = recorded_run(script, 2, true);
    assert_eq!(bad(&recorded), two_each);
    let ring = recorded.recorder_as::<RingRecorder>().expect("ring");
    let events = ring
        .events()
        .filter(|e| e.kind.counter() == Some("ftsp_beacon_bad"));
    let mut nodes: Vec<NodeId> = events.map(|e| e.node).collect();
    nodes.sort();
    let two_each = vec![NodeId(0), NodeId(0), victim, victim];
    assert_eq!((nodes, ring.dropped()), (two_each, 0));
    let state = |sim: &Sim| {
        let e = sim.proto::<FtspNode>(victim).engine();
        let samples = sim.stats().node_total("ftsp_samples");
        (e.root(), e.depth(), e.clock().estimate(), samples)
    };
    assert_eq!(state(&clean), state(&forged));
    assert!(
        state(&forged).2.is_some(),
        "the well-formed beacon synced the victim"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary beacons — roots biased to the honest reference's id so
    /// they are accepted, global times to the values that overflowed
    /// the regression and the clock map — interleaved with an honest
    /// reference's flood.
    #[test]
    fn arbitrary_beacons_never_panic_the_receiver(
        forged in proptest::collection::vec(
            (
                0u64..20_000,
                prop_oneof![Just(0u32), 0u32..4, any::<u32>()],
                any::<u32>(),
                any::<u8>(),
                prop_oneof![
                    Just(1u64 << 63),
                    Just(1u64 << 62),
                    Just(u64::MAX),
                    Just(i64::MAX as u64),
                    0u64..30_000_000,
                    any::<u64>(),
                ],
            ),
            1..12,
        ),
    ) {
        let script = forged
            .into_iter()
            .map(|(at_ms, root, seq, depth, global_us)| {
                let b = Beacon { root: NodeId(root), seq, depth, global_us };
                (SimDuration::from_millis(at_ms), b)
            })
            .collect();
        let sim = run(script, 25);
        // The honest reference keeps its own timebase regardless.
        prop_assert_eq!(sim.proto::<FtspNode>(NodeId(0)).engine().root(), NodeId(0));
    }
}
