//! Model-based test of the link core every MAC is written on: a
//! reference model of its send queue, sequence numbers and duplicate
//! cache, checked step by step against all four MACs driven through
//! `Proto::frame` on a `MacDriver`.
//!
//! The MAC under test is node 1 of a three-node line whose two other
//! nodes are dead, so the only frames it hears are the ones fed to it
//! here (wire format: `[kind, seq, upper_port, payload..]`, kind 0 data,
//! 1 ACK) and no ACK it waits for ever arrives on its own. What the
//! model cannot know — when channel access puts the head on the air and
//! gives up on it — it bounds instead: completions come in queue order,
//! an ACK'd completion follows a fed ACK for the head, and a failed one
//! only a step that lets time pass.

use iiot_mac::csma::CsmaMac;
use iiot_mac::driver::MacDriver;
use iiot_mac::lpl::LplMac;
use iiot_mac::rimac::RimacMac;
use iiot_mac::tdma::{TdmaMac, TdmaSchedule};
use iiot_mac::{Mac, MacError, SendHandle, QUEUE_CAP};
use iiot_sim::prelude::*;
use iiot_sim::radio::MAX_PAYLOAD;
use proptest::prelude::*;
use std::collections::{HashSet, VecDeque};

const ME: NodeId = NodeId(1);
/// The link header the core prepends: kind, seq, upper port.
const HEADER: usize = 3;
/// How many `(src, seq)` pairs the core remembers.
const DEDUP_WINDOW: usize = 32;

/// One step of a run.
#[derive(Clone, Debug)]
enum Op {
    /// `send_now` of `len` payload bytes, broadcast or to node 0.
    Send { broadcast: bool, len: usize },
    /// A data frame from `src` (0 or 2) with link sequence `seq`.
    Data { src: u32, seq: u8, unicast: bool },
    /// The last data frame again.
    Duplicate,
    /// An ACK carrying the head's sequence number (or 0 if the queue
    /// is empty).
    AckHead,
    /// An ACK carrying `seq`, mostly not the head's.
    Ack { seq: u8 },
    /// A data frame on a radio port the MAC does not own.
    WrongPort { seq: u8 },
    /// A frame shorter than the link header.
    Short { len: usize },
    /// Simulated time passes: timers fire and transmissions end.
    Time { micros: u64 },
    /// The node crashes and boots again.
    Crash,
}

/// A step, drawn by weight out of 200 (a crash is rare enough that the
/// duplicate cache fills between two) with its parameters cut from one
/// random word.
fn op() -> impl Strategy<Value = Op> {
    (0..200u8, any::<u64>()).prop_map(|(kind, r)| match kind {
        0..=39 => Op::Send {
            broadcast: r & 1 == 0,
            len: (r >> 1) as usize % (MAX_PAYLOAD - HEADER + 2),
        },
        40..=99 => Op::Data {
            src: if r & 1 == 0 { 0 } else { 2 },
            seq: (r >> 1) as u8 % 40,
            unicast: r & 0x100 == 0,
        },
        100..=114 => Op::Duplicate,
        115..=129 => Op::AckHead,
        130..=134 => Op::Ack { seq: r as u8 },
        135..=139 => Op::WrongPort { seq: r as u8 },
        140..=144 => Op::Short {
            len: r as usize % HEADER,
        },
        // Short steps land a fed ACK inside an ACK wait; long ones let
        // a duty-cycled MAC give up on a unicast.
        145..=198 => Op::Time {
            micros: 1 + (r >> 1) % if r & 1 == 0 { 3_000 } else { 1_500_000 },
        },
        _ => Op::Crash,
    })
}

/// The reference model of `Link<A, PORT>`: a FIFO of `(handle, seq,
/// broadcast)` and a FIFO-evicted set of seen `(src, seq)` pairs.
#[derive(Default)]
struct Model {
    queue: VecDeque<(SendHandle, u8, bool)>,
    next_handle: u64,
    seq: u8,
    seen: VecDeque<(u32, u8)>,
    seen_set: HashSet<(u32, u8)>,
}

impl Model {
    fn send(&mut self, broadcast: bool, len: usize) -> Result<SendHandle, MacError> {
        if len + HEADER > MAX_PAYLOAD {
            return Err(MacError::TooLarge);
        }
        if self.queue.len() >= QUEUE_CAP {
            return Err(MacError::QueueFull);
        }
        let handle = SendHandle(self.next_handle);
        self.next_handle += 1;
        self.seq = self.seq.wrapping_add(1);
        self.queue.push_back((handle, self.seq, broadcast));
        Ok(handle)
    }

    /// Whether a data frame `(src, seq)` is delivered.
    fn data(&mut self, src: u32, seq: u8) -> bool {
        if !self.seen_set.insert((src, seq)) {
            return false;
        }
        if self.seen.len() == DEDUP_WINDOW {
            let evicted = self.seen.pop_front().expect("full");
            self.seen_set.remove(&evicted);
        }
        self.seen.push_back((src, seq));
        true
    }

    /// Retires the head as the code reported it, given which ACK (if
    /// any) this step fed and whether time passed.
    fn complete(&mut self, done: (SendHandle, bool), acked_seq: Option<u8>, time: bool) {
        let (handle, seq, broadcast) = self
            .queue
            .pop_front()
            .expect("a completion with an empty queue");
        assert_eq!(done.0, handle, "completions out of queue order");
        if done.1 {
            assert!(
                broadcast || acked_seq == Some(seq),
                "{handle:?} ACK'd without its ACK"
            );
        } else {
            assert!(time && !broadcast, "{handle:?} failed outside a time step");
        }
    }

    fn crash(&mut self) {
        self.queue.clear();
        self.seen.clear();
        self.seen_set.clear();
    }
}

fn feed<M: Mac>(w: &mut Sim, src: u32, dst: Dst, port: u8, bytes: Vec<u8>) {
    let frame = Frame::new(NodeId(src), dst, port, bytes);
    let info = RxInfo {
        rssi_dbm: -60.0,
        channel: 0,
        started: w.now(),
    };
    w.with(ME, |d: &mut MacDriver<M>, ctx| {
        Proto::frame(d, ctx, &frame, info)
    });
}

fn run<M: Mac>(mac: fn() -> M, ops: &[Op]) {
    let mut w = SimBuilder::new()
        .nodes(Topology::line(3, 10.0), move |_| {
            Box::new(MacDriver::new(mac()))
        })
        .build();
    w.kill(NodeId(0));
    w.kill(NodeId(2));
    w.run_for(SimDuration::from_millis(1));
    let port = mac().radio_port();
    let other_port = port.wrapping_add(1);
    let mut model = Model::default();
    let mut last_data: Option<(u32, Dst, Vec<u8>)> = None;
    for op in ops {
        let (delivered_before, done_before) = {
            let d = w.proto::<MacDriver<M>>(ME);
            (d.delivered.len(), d.send_done.len())
        };
        let mut expect_delivery = None;
        let (mut acked_seq, mut time) = (None, false);
        match *op {
            Op::Send { broadcast, len } => {
                let dst = if broadcast {
                    Dst::Broadcast
                } else {
                    Dst::Unicast(NodeId(0))
                };
                let got = w.with(ME, |d: &mut MacDriver<M>, ctx| {
                    d.send_now(ctx, dst, 7, vec![0xA5; len])
                });
                assert_eq!(got, model.send(broadcast, len), "{op:?}");
            }
            Op::Data { src, seq, unicast } => {
                let dst = if unicast {
                    Dst::Unicast(ME)
                } else {
                    Dst::Broadcast
                };
                let frame = (src, dst, vec![0, seq, 9, seq, src as u8]);
                feed::<M>(&mut w, src, dst, port, frame.2.clone());
                expect_delivery = model.data(src, seq).then_some((src, seq));
                last_data = Some(frame);
            }
            Op::Duplicate => {
                if let Some((src, dst, bytes)) = last_data.clone() {
                    feed::<M>(&mut w, src, dst, port, bytes.clone());
                    expect_delivery = model.data(src, bytes[1]).then_some((src, bytes[1]));
                }
            }
            Op::AckHead | Op::Ack { .. } => {
                let seq = match *op {
                    Op::Ack { seq } => seq,
                    _ => model.queue.front().map_or(0, |head| head.1),
                };
                feed::<M>(&mut w, 0, Dst::Unicast(ME), port, vec![1, seq, 0]);
                acked_seq = Some(seq);
            }
            Op::WrongPort { seq } => {
                feed::<M>(&mut w, 0, Dst::Unicast(ME), other_port, vec![0, seq, 9])
            }
            Op::Short { len } => feed::<M>(&mut w, 0, Dst::Unicast(ME), port, vec![0; len]),
            Op::Time { micros } => {
                w.run_for(SimDuration::from_micros(micros));
                time = true;
            }
            Op::Crash => {
                w.kill(ME);
                w.revive(ME);
                model.crash();
            }
        }
        let d = w.proto::<MacDriver<M>>(ME);
        let delivered: Vec<(u32, u8)> = d.delivered[delivered_before..]
            .iter()
            .map(|x| {
                assert_eq!(x.upper_port, 9, "{op:?}");
                (x.src.0, x.payload[0])
            })
            .collect();
        assert_eq!(delivered, Vec::from_iter(expect_delivery), "{op:?}");
        for &done in &d.send_done[done_before..] {
            model.complete(done, acked_seq, time);
        }
        assert!(model.queue.len() <= QUEUE_CAP);
    }
}

fn tdma() -> TdmaMac {
    let parents = [None, Some(NodeId(0)), Some(NodeId(1))];
    TdmaMac::new(TdmaSchedule::pipeline_to_root(
        &parents,
        SimDuration::from_millis(10),
    ))
}

proptest! {
    #[test]
    fn csma_link_follows_the_model(ops in proptest::collection::vec(op(), 1..300)) {
        run(CsmaMac::default, &ops);
    }

    #[test]
    fn lpl_link_follows_the_model(ops in proptest::collection::vec(op(), 1..300)) {
        run(LplMac::default, &ops);
    }

    #[test]
    fn rimac_link_follows_the_model(ops in proptest::collection::vec(op(), 1..300)) {
        run(RimacMac::default, &ops);
    }

    #[test]
    fn tdma_link_follows_the_model(ops in proptest::collection::vec(op(), 1..300)) {
        run(tdma, &ops);
    }
}
