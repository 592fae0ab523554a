//! Model-based test of the collection data plane under DODAG and static
//! collection: a reference model of its store-and-forward queue, retry
//! budget, hop TTL and duplicate/loop classification, checked step by
//! step against a two-node `StaticCollection` world.
//!
//! Node 0 is the root; node 1 forwards to it. Both run over a scripted
//! MAC that never touches the radio: it hands any frame fed on radio
//! port 0 up as a data delivery, settles its latest send when a frame
//! arrives on port 1 (acked when the frame's first byte is 1), logs what
//! it is asked to send, and refuses a payload over `LIMIT` bytes as too
//! large. So every step's outcome is decided by the data plane alone,
//! and the model predicts it exactly: the per-node counters, the root's
//! collected list, and every frame handed to the MAC. Each case runs
//! twice, with a recorder and without: the counters must not change,
//! and with one each counter equals its kind's events at that node.

use iiot_mac::{Mac, MacError, MacEvent, SendHandle};
use iiot_routing::dodag::{MAX_ATTEMPTS, PORT_DATA, QUEUE_CAP};
use iiot_routing::{StaticCollection, StaticConfig};
use iiot_sim::prelude::*;
use proptest::prelude::*;
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

/// The hop count past which a relay drops a datum.
const MAX_HOPS: u8 = 64;
/// Origin, seq, hops and `sent_at` ahead of the payload.
const HEADER: usize = 15;
/// The largest payload the scripted MAC accepts.
const LIMIT: usize = HEADER + 40;
/// How many sightings the duplicate filter remembers.
const SEEN: usize = 256;
const COUNTERS: [&str; 10] = [
    "data_origin",
    "data_fwd",
    "data_rx_root",
    "data_dup",
    "data_looped",
    "data_drop_queue",
    "data_drop_size",
    "data_drop_retries",
    "data_drop_ttl",
    "data_drop_malformed",
];

type Log = Rc<RefCell<Vec<Vec<u8>>>>;

/// Counts events per owned counter and node; a drop must carry the
/// dropped packet's span.
#[derive(Default)]
struct Counted(BTreeMap<(&'static str, NodeId), f64>);

impl Recorder for Counted {
    fn record(&mut self, ev: &Event) {
        if let EventKind::DataDrop { .. } = ev.kind {
            assert!(ev.span.is_packet(), "{ev:?}");
        }
        if let Some(counter) = ev.kind.counter() {
            *self.0.entry((counter, ev.node)).or_default() += 1.0;
        }
    }
}

struct Script {
    log: Log,
    last: u64,
}

impl Mac for Script {
    fn start(&mut self, _ctx: &mut Ctx<'_>) {}
    fn send(
        &mut self,
        _: &mut Ctx<'_>,
        dst: Dst,
        port: u8,
        payload: Vec<u8>,
    ) -> Result<SendHandle, MacError> {
        assert_eq!((dst, port), (Dst::Unicast(NodeId(0)), PORT_DATA));
        if payload.len() > LIMIT {
            return Err(MacError::TooLarge);
        }
        self.log.borrow_mut().push(payload);
        self.last += 1;
        Ok(SendHandle(self.last))
    }
    fn on_timer(&mut self, _: &mut Ctx<'_>, _: Timer, _: &mut Vec<MacEvent>) -> bool {
        false
    }
    fn on_frame(&mut self, _: &mut Ctx<'_>, frame: &Frame, info: RxInfo, out: &mut Vec<MacEvent>) {
        out.push(match frame.port {
            0 => MacEvent::Delivered {
                src: frame.src,
                upper_port: PORT_DATA,
                payload: frame.payload.clone(),
                info,
            },
            _ => MacEvent::SendDone {
                handle: SendHandle(self.last),
                acked: frame.payload[0] == 1,
            },
        });
    }
    fn on_tx_done(&mut self, _: &mut Ctx<'_>, _: TxOutcome, _: &mut Vec<MacEvent>) {}
    fn name(&self) -> &'static str {
        "script"
    }
    fn radio_port(&self) -> u8 {
        0
    }
}

type Node = StaticCollection<Script>;

/// A datum as it travels: origin, seq, hops, `sent_at` (µs), payload.
type Datum = (u32, u16, u8, u64, Vec<u8>);

fn encode(&(origin, seq, hops, sent_at, ref payload): &Datum) -> Vec<u8> {
    let mut out = origin.to_be_bytes().to_vec();
    out.extend(seq.to_be_bytes());
    out.push(hops);
    out.extend(sent_at.to_be_bytes());
    out.extend(payload);
    out
}

/// A data frame fed to the world: node, source, bytes.
type Fed = (u32, u32, Vec<u8>);

/// One node of the reference model.
#[derive(Default)]
struct Plane {
    queue: VecDeque<(Datum, u32)>,
    inflight: bool,
    seq: u16,
    seen: VecDeque<(u32, u16, u32)>,
    collected: Vec<(Datum, u64)>,
    counts: BTreeMap<&'static str, f64>,
    sent: Vec<Vec<u8>>,
}

impl Plane {
    fn bump(&mut self, counter: &'static str) {
        *self.counts.entry(counter).or_default() += 1.0;
    }

    fn originate(&mut self, me: u32, now: u64, len: usize, parent: bool) {
        self.seq = self.seq.wrapping_add(1);
        self.bump("data_origin");
        self.enqueue((me, self.seq, 0, now, vec![0xAB; len]), parent);
    }

    fn enqueue(&mut self, d: Datum, parent: bool) {
        if self.queue.len() >= QUEUE_CAP {
            return self.bump("data_drop_queue");
        }
        self.queue.push_back((d, 0));
        self.pump(parent);
    }

    fn pump(&mut self, parent: bool) {
        let Some((head, _)) = self.queue.front().filter(|_| parent && !self.inflight) else {
            return;
        };
        let bytes = encode(head);
        if bytes.len() > LIMIT {
            self.queue.pop_front();
            return self.bump("data_drop_size");
        }
        self.sent.push(bytes);
        self.inflight = true;
    }

    fn settle(&mut self, acked: bool, parent: bool) {
        if !std::mem::take(&mut self.inflight) {
            return;
        }
        let head = self.queue.front_mut().expect("in flight");
        head.1 += 1;
        if acked || head.1 >= MAX_ATTEMPTS {
            self.queue.pop_front();
            if !acked {
                self.bump("data_drop_retries");
            }
        }
        self.pump(parent);
    }

    fn data(&mut self, now: u64, src: u32, bytes: &[u8], root: bool) {
        let Some((o, s, hops, at, p)) = decode(bytes) else {
            return;
        };
        if at > now {
            return self.bump("data_drop_malformed");
        }
        let parent = if root { None } else { Some(0) };
        let first = self.seen.iter().find(|x| (x.0, x.1) == (o, s)).map(|x| x.2);
        let looped = first.is_some_and(|f| parent == Some(src) || f != src);
        if first.is_none() {
            if self.seen.len() >= SEEN {
                self.seen.pop_front();
            }
            self.seen.push_back((o, s, src));
        }
        if first.is_some() && (!looped || root) {
            return self.bump("data_dup");
        }
        let d = (o, s, hops.saturating_add(1), at, p);
        if root {
            self.bump("data_rx_root");
            return self.collected.push((d, now));
        }
        if looped {
            self.bump("data_looped");
        }
        if d.2 > MAX_HOPS {
            return self.bump("data_drop_ttl");
        }
        if first.is_none() {
            self.bump("data_fwd");
        }
        self.enqueue(d, true);
    }

    fn crash(&mut self) {
        self.queue.clear();
        self.inflight = false;
        self.seen.clear();
    }
}

/// One step, at node 0 (the root) or node 1.
#[derive(Clone, Debug)]
enum Op {
    /// The node originates a reading of `len` bytes.
    Originate { root: bool, len: usize },
    /// A data frame from `src`, stamped `ahead_us` in the future, or cut
    /// below the header when `short`.
    Data {
        root: bool,
        src: u32,
        datum: Datum,
        ahead_us: u64,
        short: bool,
    },
    /// The data frame fed `back` frames ago again, from the same source
    /// or another.
    Again { back: usize, other_src: bool },
    /// `n` fresh data frames from one origin, so the duplicate filter's
    /// window turns over.
    Fill { root: bool, n: usize },
    /// The MAC settles its latest send.
    Settle { root: bool, acked: bool },
    /// Time passes.
    Time { ms: u64 },
    /// The node crashes and boots again.
    Crash { root: bool },
}

fn op() -> impl Strategy<Value = Op> {
    (0..100u8, any::<u64>()).prop_map(|(kind, r)| {
        let root = r & 1 == 0;
        let pick = |bits: u32, n: u64| (r >> bits) % n;
        match kind {
            0..=14 => Op::Originate {
                root,
                len: pick(1, 48) as usize,
            },
            15..=52 => {
                const HOPS: [u8; 7] = [0, 1, 5, 62, 63, 64, 255];
                let datum = (
                    7 + pick(20, 2) as u32,
                    pick(8, 4) as u16,
                    HOPS[pick(24, 7) as usize],
                    0,
                    vec![1; pick(28, 44) as usize],
                );
                Op::Data {
                    root,
                    src: pick(50, 3) as u32 * 2,
                    datum,
                    // One in ten stamped in the future: by 1 µs, 2 µs or 1 s.
                    ahead_us: match pick(36, 30) {
                        0 => 1,
                        1 => 2,
                        2 => 1_000_000,
                        _ => 0,
                    },
                    short: pick(52, 25) == 0,
                }
            }
            53..=62 => Op::Again {
                back: if pick(1, 4) == 0 {
                    250 + pick(3, 12) as usize
                } else {
                    0
                },
                other_src: pick(8, 2) == 0,
            },
            63..=64 => Op::Fill {
                root,
                n: 200 + pick(1, 60) as usize,
            },
            65..=89 => Op::Settle {
                root,
                acked: r & 2 == 0,
            },
            90..=97 => Op::Time { ms: pick(1, 2_000) },
            _ => Op::Crash { root },
        }
    })
}

fn run(ops: &[Op], record: bool) {
    let logs: Vec<Log> = vec![Log::default(), Log::default()];
    let macs = logs.clone();
    let cfg = StaticConfig::new(vec![None, Some(NodeId(0))]);
    let mut b = SimBuilder::new().nodes(Topology::line(2, 10.0), move |i| {
        let mac = Script {
            log: macs[i].clone(),
            last: 0,
        };
        Box::new(Node::new(mac, cfg.clone()))
    });
    if record {
        b = b.recorder(Box::<Counted>::default());
    }
    let mut w = b.build();
    let mut model = [Plane::default(), Plane::default()];
    let mut fed: Vec<Fed> = Vec::new();
    let mut fill_seq = 0u16;
    for op in ops {
        let now = w.now().as_micros();
        match op.clone() {
            Op::Originate { root, len } => {
                let id = u32::from(!root);
                let ok = w.with(NodeId(id), |n: &mut Node, ctx| {
                    n.send_datum(ctx, vec![0xAB; len])
                });
                let m = &mut model[id as usize];
                assert_eq!(ok, m.queue.len() < QUEUE_CAP, "{op:?}");
                m.originate(id, now, len, !root);
            }
            Op::Data {
                root,
                src,
                mut datum,
                ahead_us,
                short,
            } => {
                datum.3 = now + ahead_us;
                let mut bytes = encode(&datum);
                if short {
                    bytes.truncate(HEADER - 1);
                }
                deliver(&mut w, &mut model, &mut fed, u32::from(!root), src, bytes);
            }
            Op::Again { back, other_src } => {
                let Some((id, src, bytes)) = fed.iter().rev().nth(back).cloned() else {
                    continue;
                };
                let src = if other_src { (src + 2) % 6 } else { src };
                deliver(&mut w, &mut model, &mut fed, id, src, bytes);
            }
            Op::Fill { root, n } => {
                for _ in 0..n {
                    fill_seq = fill_seq.wrapping_add(1);
                    let bytes = encode(&(9, fill_seq, 0, now, vec![]));
                    deliver(&mut w, &mut model, &mut fed, u32::from(!root), 2, bytes);
                }
            }
            Op::Settle { root, acked } => {
                let id = u32::from(!root);
                let frame = Frame::new(
                    NodeId(0),
                    Dst::Unicast(NodeId(id)),
                    1,
                    vec![u8::from(acked)],
                );
                feed(&mut w, id, frame);
                model[id as usize].settle(acked, !root);
            }
            Op::Time { ms } => w.run_for(SimDuration::from_millis(ms)),
            Op::Crash { root } => {
                let id = u32::from(!root);
                w.kill(NodeId(id));
                w.revive(NodeId(id));
                model[id as usize].crash();
            }
        }
        for (id, m) in model.iter().enumerate() {
            assert!(m.queue.len() <= QUEUE_CAP);
            for c in COUNTERS {
                let want = m.counts.get(c).copied().unwrap_or(0.0);
                let got = w.stats().get_node(NodeId(id as u32), c);
                assert_eq!(got, want, "{c} at {id} after {op:?}");
                if let Some(rec) = w.recorder_as::<Counted>() {
                    let traced = rec.0.get(&(c, NodeId(id as u32))).copied();
                    assert_eq!(
                        traced.unwrap_or(0.0),
                        got,
                        "{c} events at {id} after {op:?}"
                    );
                }
            }
            assert_eq!(
                *logs[id].borrow(),
                m.sent,
                "frames sent by {id} after {op:?}"
            );
        }
        let got: Vec<(Datum, u64)> = w
            .proto::<Node>(NodeId(0))
            .collected()
            .iter()
            .map(|c| {
                let d = (
                    c.origin.0,
                    c.seq,
                    c.hops,
                    c.sent_at.as_micros(),
                    c.payload.clone(),
                );
                (d, c.received_at.as_micros())
            })
            .collect();
        assert_eq!(got, model[0].collected, "collected after {op:?}");
    }
}

/// Feeds a data frame to node `id` and to its model, and files it in
/// `fed`.
fn deliver(
    w: &mut Sim,
    model: &mut [Plane; 2],
    fed: &mut Vec<Fed>,
    id: u32,
    src: u32,
    bytes: Vec<u8>,
) {
    model[id as usize].data(w.now().as_micros(), src, &bytes, id == 0);
    let frame = Frame::new(NodeId(src), Dst::Unicast(NodeId(id)), 0, bytes.clone());
    feed(w, id, frame);
    fed.push((id, src, bytes));
}

fn feed(w: &mut Sim, node: u32, frame: Frame) {
    let info = RxInfo {
        rssi_dbm: -60.0,
        channel: 0,
        started: w.now(),
    };
    w.with(NodeId(node), |n: &mut Node, ctx| {
        Proto::frame(n, ctx, &frame, info)
    });
}

fn decode(b: &[u8]) -> Option<Datum> {
    let word = |r: std::ops::Range<usize>| b[r].iter().fold(0u64, |a, &x| a << 8 | u64::from(x));
    (b.len() >= HEADER).then(|| {
        (
            word(0..4) as u32,
            word(4..6) as u16,
            b[6],
            word(7..15),
            b[HEADER..].to_vec(),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn data_plane_matches_its_model(ops in proptest::collection::vec(op(), 1..600)) {
        run(&ops, false);
        run(&ops, true);
    }
}
