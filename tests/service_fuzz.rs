//! "Arbitrary bytes never panic" for every protocol hosted on a
//! `Stack`, in one harness: an attacker broadcasts arbitrary
//! `(upper_port, payload)` frames through a real CSMA MAC at two
//! victims (a root and a leaf) of each node type, whose own MAC also
//! reports completions for handles nobody holds. Covers dissemination
//! ADV/REQ/DATA, DIO/DIS/collection data, RNFD heartbeat/vote/verdict,
//! aggregation QUERY/PARTIAL/RAW and ICN Interest/Data. The run is a
//! debug build, so overflow and ordering asserts are live; a victim
//! that spins shows up as an unbounded event count.

use iiot::aggregate::{AggConfig, AggregationNode, Mode};
use iiot::dissem::{DissemConfig, DissemNode};
use iiot::icn::{IcnConfig, IcnNode, Name, PollPlan};
use iiot::mac::csma::CsmaMac;
use iiot::mac::driver::MacDriver;
use iiot::mac::{Mac, MacError, MacEvent, SendHandle};
use iiot::routing::{
    DodagConfig, DodagNode, RnfdConfig, RnfdNode, StaticCollection, StaticConfig, Traffic,
};
use iiot::sim::prelude::*;
use proptest::prelude::*;

/// A CSMA MAC that follows each frame it hears with a completion from
/// its script: stray handles, as the other half of a shared MAC would
/// produce, and small ones that may hit a send really in flight. It is
/// a MAC, not a host of one, and forwards by path (`Mac::on_frame`):
/// the method-call form is `Stack`'s alone, which `bench_smoke.sh` checks.
struct Stray {
    inner: CsmaMac,
    script: Vec<(u64, bool)>,
}

impl Mac for Stray {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        self.inner.start(ctx);
    }
    fn send(
        &mut self,
        ctx: &mut Ctx<'_>,
        dst: Dst,
        upper_port: u8,
        payload: Vec<u8>,
    ) -> Result<SendHandle, MacError> {
        self.inner.send(ctx, dst, upper_port, payload)
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, timer: Timer, out: &mut Vec<MacEvent>) -> bool {
        Mac::on_timer(&mut self.inner, ctx, timer, out)
    }
    fn on_frame(
        &mut self,
        ctx: &mut Ctx<'_>,
        frame: &Frame,
        info: RxInfo,
        out: &mut Vec<MacEvent>,
    ) {
        Mac::on_frame(&mut self.inner, ctx, frame, info, out);
        if let Some((handle, acked)) = self.script.pop() {
            out.push(MacEvent::SendDone {
                handle: SendHandle(handle),
                acked,
            });
        }
    }
    fn on_tx_done(&mut self, ctx: &mut Ctx<'_>, outcome: TxOutcome, out: &mut Vec<MacEvent>) {
        Mac::on_tx_done(&mut self.inner, ctx, outcome, out);
    }
    fn crashed(&mut self) {
        self.inner.crashed();
    }
    fn name(&self) -> &'static str {
        "stray"
    }
    fn radio_port(&self) -> u8 {
        self.inner.radio_port()
    }
}

/// One forged frame and the completion that follows it at the victims.
type Forged = (u8, Vec<u8>, u64, bool);

/// Payloads whose multi-byte fields hit their edge values in practice
/// (`epoch_ms = 0`, `len = 0xFFFF_FFFF`, a timestamp of zero): all
/// zeros, all ones, runs of either between random bytes, or anything.
fn payload() -> impl Strategy<Value = Vec<u8>> {
    let run = (prop_oneof![Just(0u8), Just(0xFF), any::<u8>()], 1usize..=8);
    let runs = proptest::collection::vec(run, 0..24).prop_map(|runs| {
        let bytes = runs
            .into_iter()
            .flat_map(|(b, n)| std::iter::repeat_n(b, n));
        bytes.take(127).collect()
    });
    prop_oneof![
        (0usize..=127).prop_map(|n| vec![0; n]),
        (0usize..=127).prop_map(|n| vec![0xFF; n]),
        runs,
        proptest::collection::vec(any::<u8>(), 0..=127),
    ]
}

/// Up to 31 frames, three in four aimed at `ports` (the ones the
/// victim listens on), the rest at any of the 256.
fn forged(ports: &'static [u8]) -> impl Strategy<Value = Vec<Forged>> {
    let aimed = || (0..ports.len()).prop_map(move |i| ports[i]);
    let port = prop_oneof![aimed(), aimed(), aimed(), any::<u8>()];
    let handle = prop_oneof![0u64..8, any::<u64>()];
    proptest::collection::vec((port, payload(), handle, any::<bool>()), 1..32)
}

/// Node 1 attacks; nodes 0 (the root, sink or producer) and 2 (a leaf)
/// are `victim(index, mac)`. Returns the most events any 100 ms took.
fn attack(frames: &[Forged], victim: impl Fn(usize, Stray) -> Box<dyn Proto> + 'static) -> u64 {
    let script: Vec<(u64, bool)> = frames.iter().map(|f| (f.2, f.3)).collect();
    let mut w = SimBuilder::new()
        .seed(frames.len() as u64)
        .nodes(Topology::line(3, 10.0), move |i| match i {
            1 => Box::new(MacDriver::new(CsmaMac::default())),
            _ => victim(
                i,
                Stray {
                    inner: CsmaMac::default(),
                    script: script.clone(),
                },
            ),
        })
        .build();
    let attacker = w.proto_mut::<MacDriver<CsmaMac>>(NodeId(1));
    for (k, (port, payload, ..)) in frames.iter().enumerate() {
        let at = SimTime::from_millis(1_500 + 100 * k as u64);
        attacker.push_send(at, Dst::Broadcast, *port, payload.clone());
    }
    let mut worst = 0;
    for _ in 0..60 {
        let before = w.events_dispatched();
        w.run_for(SimDuration::from_millis(100));
        worst = worst.max(w.events_dispatched() - before);
    }
    worst
}

fn parents() -> Vec<Option<NodeId>> {
    vec![None, Some(NodeId(0)), Some(NodeId(0))]
}

fn traffic() -> Option<Traffic> {
    Some(Traffic {
        period: SimDuration::from_millis(700),
        payload_len: 8,
        start_after: SimDuration::from_secs(1),
    })
}

/// The most events one 100 ms step may take. The busiest honest thing a
/// forged frame can start is a 1 ms aggregation epoch: a sample, a send
/// and a CSMA exchange per millisecond per victim.
const STEP_BOUND: u64 = 5_000;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn dodag_survives(frames in forged(&[10, 11, 12])) {
        let cfg = DodagConfig { traffic: traffic(), ..DodagConfig::default() };
        let worst = attack(&frames, move |i, mac| Box::new(DodagNode::new(mac, cfg.clone(), i == 0)));
        prop_assert!(worst < STEP_BOUND, "{worst} events in 100 ms");
    }

    #[test]
    fn static_collection_survives(frames in forged(&[12])) {
        let cfg = StaticConfig { traffic: traffic(), ..StaticConfig::new(parents()) };
        let worst = attack(&frames, move |_, mac| Box::new(StaticCollection::new(mac, cfg.clone())));
        prop_assert!(worst < STEP_BOUND, "{worst} events in 100 ms");
    }

    #[test]
    fn rnfd_survives(frames in forged(&[20, 21, 22])) {
        let cfg = RnfdConfig {
            heartbeat: SimDuration::from_millis(300),
            sentinels: vec![NodeId(2)],
            ..RnfdConfig::default()
        };
        let worst = attack(&frames, move |_, mac| Box::new(RnfdNode::new(mac, cfg.clone())));
        prop_assert!(worst < STEP_BOUND, "{worst} events in 100 ms");
    }

    #[test]
    fn aggregation_survives(frames in forged(&[30, 31, 32]), raw in any::<bool>()) {
        let mode = if raw { Mode::Raw } else { Mode::Aggregate };
        let mut cfg = AggConfig::new(parents(), mode, 500, 0);
        // Half the cases let a forged query arrive before the root's.
        cfg.dissemination_delay = SimDuration::from_secs(if raw { 1 } else { 4 });
        let worst = attack(&frames, move |_, mac| Box::new(AggregationNode::new(mac, cfg.clone())));
        prop_assert!(worst < STEP_BOUND, "{worst} events in 100 ms");
    }

    #[test]
    fn dissem_survives(frames in forged(&[40, 41, 42])) {
        let worst = attack(&frames, |_, mac| Box::new(DissemNode::new(mac, DissemConfig::default())));
        prop_assert!(worst < STEP_BOUND, "{worst} events in 100 ms");
    }

    #[test]
    fn icn_survives(frames in forged(&[50, 51]), link_sec in any::<bool>()) {
        let worst = attack(&frames, move |i, mac| {
            let cfg = IcnConfig {
                upstream: (i != 0).then_some(NodeId(0)),
                poll: (i != 0).then(|| PollPlan {
                    name: Name::new("plant/temp"),
                    start: SimDuration::from_secs(1),
                    period: SimDuration::from_millis(500),
                    updates: true,
                }),
                link_sec: link_sec.then_some(iiot::security::SecLevel::Mic64),
                ..IcnConfig::default()
            };
            Box::new(IcnNode::new(mac, cfg))
        });
        prop_assert!(worst < STEP_BOUND, "{worst} events in 100 ms");
    }

    #[test]
    fn mac_driver_survives(frames in forged(&[9])) {
        let worst = attack(&frames, |_, mac| Box::new(MacDriver::new(mac)));
        prop_assert!(worst < STEP_BOUND, "{worst} events in 100 ms");
    }
}
