//! Receiver-initiated duty-cycled MAC in the style of RI-MAC.
//!
//! Instead of senders strobing long preambles, each *receiver* briefly
//! wakes every interval and broadcasts a probe; a sender with pending
//! traffic keeps its radio on until it hears the destination's probe and
//! answers with the data frame. This shifts the energy cost from
//! receivers (who sleep ~99% of the time) to active senders, and copes
//! better with dynamic traffic than sender-initiated LPL.

use crate::header::{decode, encode, MacHeader, MacKind, SeqCache};
use crate::{admit, mac_tag, Mac, MacError, MacEvent, SendHandle};
use iiot_sim::obs::EventKind;
use iiot_sim::{Ctx, Dst, Frame, NodeId, RxInfo, SimDuration, SimTime, Timer, TxOutcome};
use rand::Rng;
use std::collections::VecDeque;

const TAG_WAKE: u64 = mac_tag(0x30);
const TAG_DWELL_END: u64 = mac_tag(0x31);
const TAG_ANSWER: u64 = mac_tag(0x32);
const TAG_ACK_TIMEOUT: u64 = mac_tag(0x33);
const TAG_SEND_TIMEOUT: u64 = mac_tag(0x34);

/// Radio demux port claimed by RI-MAC.
pub const RADIO_PORT: u8 = 3;
/// How long a receiver listens after its probe.
pub const DWELL: SimDuration = SimDuration::from_millis(8);
/// Maximum random delay before answering a probe (collision avoidance
/// between competing senders).
pub const ANSWER_JITTER: SimDuration = SimDuration::from_millis(2);
/// How long after a data frame to wait for its ACK.
pub const ACK_TIMEOUT: SimDuration = SimDuration::from_millis(3);
/// Overall deadline for one unicast send, in wake intervals (gives the
/// destination several probe chances).
pub const SEND_TIMEOUT_INTERVALS: u32 = 3;

#[derive(Debug)]
struct Pending {
    handle: SendHandle,
    dst: Dst,
    upper_port: u8,
    payload: Vec<u8>,
    seq: u8,
    deadline: SimTime,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
enum TxKind {
    #[default]
    None,
    Probe,
    Data,
    Ack,
}

/// Receiver-initiated duty-cycled MAC (RI-MAC style).
#[derive(Debug)]
pub struct RimacMac {
    /// Interval between this node's probes (receiver wake period).
    wake_interval: SimDuration,
    queue: VecDeque<Pending>,
    /// True while this node keeps its radio on waiting for a probe.
    hunting: bool,
    /// True while in the post-probe listen window.
    dwelling: bool,
    /// Set between hearing a probe and answering it.
    answer_armed: bool,
    tx: TxKind,
    seq: u8,
    next_handle: u64,
    dedup: SeqCache,
    ack_due: Option<(NodeId, u8)>,
}

impl RimacMac {
    /// Creates an RI-MAC instance probing every `wake_interval`.
    pub fn new(wake_interval: SimDuration) -> Self {
        RimacMac {
            wake_interval,
            queue: VecDeque::new(),
            hunting: false,
            dwelling: false,
            answer_armed: false,
            tx: TxKind::None,
            seq: 0,
            next_handle: 0,
            dedup: SeqCache::new(),
            ack_due: None,
        }
    }

    fn maybe_sleep(&mut self, ctx: &mut Ctx<'_>) {
        if !self.hunting && !self.dwelling && self.tx == TxKind::None {
            ctx.emit(EventKind::MacState {
                mac: "rimac",
                state: "sleep",
            });
            let _ = ctx.radio_off();
        }
    }

    fn begin_hunt(&mut self, ctx: &mut Ctx<'_>) {
        if self.queue.is_empty() || self.hunting {
            return;
        }
        self.hunting = true;
        ctx.emit(EventKind::MacState {
            mac: "rimac",
            state: "hunt",
        });
        ctx.radio_on().expect("rimac: radio on to hunt");
        let head = self.queue.front().expect("hunt without head");
        ctx.set_timer_at(head.deadline, TAG_SEND_TIMEOUT);
    }

    fn head_wants(&self, prober: NodeId) -> bool {
        match self.queue.front() {
            Some(p) => match p.dst {
                Dst::Unicast(d) => d == prober,
                Dst::Broadcast => true,
            },
            None => false,
        }
    }

    fn transmit_head(&mut self, ctx: &mut Ctx<'_>) {
        let Some(head) = self.queue.front() else {
            return;
        };
        let mut bytes = ctx.frame_buf();
        encode(
            MacHeader {
                kind: MacKind::Data,
                seq: head.seq,
                upper_port: head.upper_port,
            },
            &head.payload,
            &mut bytes,
        );
        if ctx.transmit(head.dst, RADIO_PORT, bytes).is_ok() {
            self.tx = TxKind::Data;
            ctx.count_node("mac_tx_data", 1.0);
        }
    }

    fn complete_head(&mut self, ctx: &mut Ctx<'_>, out: &mut Vec<MacEvent>, acked: bool) {
        let head = self.queue.pop_front().expect("complete without head");
        out.push(MacEvent::SendDone {
            handle: head.handle,
            acked,
        });
        if !acked {
            ctx.count_node("mac_tx_fail", 1.0);
        }
        self.hunting = false;
        if self.queue.is_empty() {
            self.maybe_sleep(ctx);
        } else {
            self.begin_hunt(ctx);
        }
    }
}

impl Mac for RimacMac {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        let phase_us = ctx
            .rng()
            .gen_range(0..self.wake_interval.as_micros().max(1));
        ctx.set_timer(SimDuration::from_micros(phase_us), TAG_WAKE);
    }

    fn send(
        &mut self,
        ctx: &mut Ctx<'_>,
        dst: Dst,
        upper_port: u8,
        payload: Vec<u8>,
    ) -> Result<SendHandle, MacError> {
        let deadline = ctx.now() + self.wake_interval * SEND_TIMEOUT_INTERVALS as u64;
        let handle = admit(
            ctx,
            &mut self.queue,
            &mut self.next_handle,
            &mut self.seq,
            payload.len(),
            |handle, seq| Pending {
                handle,
                dst,
                upper_port,
                payload,
                seq,
                deadline,
            },
        )?;
        self.begin_hunt(ctx);
        Ok(handle)
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, timer: Timer, out: &mut Vec<MacEvent>) -> bool {
        match timer.tag {
            TAG_WAKE => {
                ctx.set_timer(self.wake_interval, TAG_WAKE);
                // Probe only when not busy with our own traffic.
                if self.tx == TxKind::None && !self.answer_armed {
                    ctx.radio_on().expect("rimac: radio on to probe");
                    let mut bytes = ctx.frame_buf();
                    encode(
                        MacHeader {
                            kind: MacKind::Probe,
                            seq: 0,
                            upper_port: 0,
                        },
                        &[],
                        &mut bytes,
                    );
                    if ctx.transmit(Dst::Broadcast, RADIO_PORT, bytes).is_ok() {
                        self.tx = TxKind::Probe;
                        ctx.emit(EventKind::MacState {
                            mac: "rimac",
                            state: "probe",
                        });
                        ctx.count_node("mac_tx_probe", 1.0);
                    } else {
                        self.maybe_sleep(ctx);
                    }
                }
                true
            }
            TAG_DWELL_END => {
                self.dwelling = false;
                self.maybe_sleep(ctx);
                true
            }
            TAG_ANSWER => {
                self.answer_armed = false;
                if self.tx == TxKind::None && !self.queue.is_empty() {
                    if ctx.cca_busy() {
                        // Another sender answered first; wait for the
                        // destination's next probe.
                        return true;
                    }
                    self.transmit_head(ctx);
                }
                true
            }
            TAG_ACK_TIMEOUT => {
                // No ACK for the answered probe; keep hunting until the
                // overall send deadline.
                true
            }
            TAG_SEND_TIMEOUT => {
                if self.hunting {
                    if let Some(head) = self.queue.front() {
                        if ctx.now() >= head.deadline {
                            let acked = matches!(head.dst, Dst::Broadcast);
                            self.complete_head(ctx, out, acked);
                        }
                    }
                }
                true
            }
            _ => false,
        }
    }

    fn on_frame(
        &mut self,
        ctx: &mut Ctx<'_>,
        frame: &Frame,
        info: RxInfo,
        out: &mut Vec<MacEvent>,
    ) {
        if frame.port != RADIO_PORT {
            return;
        }
        let Some((header, payload)) = decode(&frame.payload) else {
            return;
        };
        match header.kind {
            MacKind::Probe => {
                if self.hunting && self.head_wants(frame.src) && !self.answer_armed {
                    self.answer_armed = true;
                    let jitter_us = ctx.rng().gen_range(0..ANSWER_JITTER.as_micros().max(1));
                    ctx.set_timer(SimDuration::from_micros(jitter_us), TAG_ANSWER);
                }
            }
            MacKind::Data => {
                if frame.dst == Dst::Unicast(ctx.id()) {
                    self.ack_due = Some((frame.src, header.seq));
                    if self.tx == TxKind::None {
                        if let Some((dst, seq)) = self.ack_due.take() {
                            let mut bytes = ctx.frame_buf();
                            encode(
                                MacHeader {
                                    kind: MacKind::Ack,
                                    seq,
                                    upper_port: 0,
                                },
                                &[],
                                &mut bytes,
                            );
                            if ctx.transmit(Dst::Unicast(dst), RADIO_PORT, bytes).is_ok() {
                                self.tx = TxKind::Ack;
                            }
                        }
                    }
                }
                if !self.dedup.check_and_insert(frame.src.0, header.seq) {
                    out.push(MacEvent::Delivered {
                        src: frame.src,
                        upper_port: header.upper_port,
                        payload: payload.to_vec(),
                        info,
                    });
                }
            }
            MacKind::Ack => {
                if self.hunting {
                    let head_seq = self.queue.front().map(|p| p.seq);
                    if head_seq == Some(header.seq) {
                        self.complete_head(ctx, out, true);
                    }
                }
            }
        }
    }

    fn on_tx_done(&mut self, ctx: &mut Ctx<'_>, _outcome: TxOutcome, _out: &mut Vec<MacEvent>) {
        match self.tx {
            TxKind::Probe => {
                self.tx = TxKind::None;
                self.dwelling = true;
                ctx.emit(EventKind::MacState {
                    mac: "rimac",
                    state: "dwell",
                });
                ctx.set_timer(DWELL, TAG_DWELL_END);
            }
            TxKind::Data => {
                self.tx = TxKind::None;
                // Stay on: the ACK should arrive promptly; the overall
                // send deadline bounds the wait.
                ctx.set_timer(ACK_TIMEOUT, TAG_ACK_TIMEOUT);
            }
            TxKind::Ack => {
                self.tx = TxKind::None;
                // Extend the dwell: the sender may have more traffic.
                self.dwelling = true;
                ctx.set_timer(DWELL, TAG_DWELL_END);
            }
            TxKind::None => {}
        }
    }

    fn crashed(&mut self) {
        self.queue.clear();
        self.hunting = false;
        self.dwelling = false;
        self.answer_armed = false;
        self.tx = TxKind::None;
        self.dedup.clear();
        self.ack_due = None;
    }

    fn name(&self) -> &'static str {
        "rimac"
    }

    fn radio_port(&self) -> u8 {
        RADIO_PORT
    }
}

impl Default for RimacMac {
    fn default() -> Self {
        RimacMac::new(SimDuration::from_millis(512))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{driver_sim, MacDriver};
    use iiot_sim::prelude::*;

    type Drv = MacDriver<RimacMac>;

    fn rimac_world(n: usize, spacing: f64, seed: u64) -> (Sim, Vec<NodeId>) {
        let cfg = SimConfig::default().seed(seed);
        driver_sim(cfg, Topology::line(n, spacing), RimacMac::default)
    }

    #[test]
    fn unicast_delivered_on_receiver_probe() {
        let (mut w, ids) = rimac_world(2, 10.0, 11);
        let sent_at = SimTime::from_secs(1);
        w.proto_mut::<Drv>(ids[0])
            .push_send(sent_at, Dst::Unicast(ids[1]), 4, b"rpm=900".to_vec());
        w.run_for(SimDuration::from_secs(4));
        let d = &w.proto::<Drv>(ids[1]).delivered;
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].payload, b"rpm=900");
        let latency = d[0].at.duration_since(sent_at);
        assert!(
            latency <= SimDuration::from_millis(600),
            "latency {latency} exceeds one wake interval + margin"
        );
        assert_eq!(
            w.proto::<Drv>(ids[0]).send_done,
            vec![(SendHandle(0), true)]
        );
    }

    #[test]
    fn receivers_duty_cycle_low_senders_pay() {
        let (mut w, ids) = rimac_world(2, 10.0, 12);
        // A send that has to wait for the destination's probe keeps the
        // sender's radio on.
        w.proto_mut::<Drv>(ids[0]).push_send(
            SimTime::from_secs(10),
            Dst::Unicast(ids[1]),
            0,
            vec![1],
        );
        w.run_for(SimDuration::from_secs(60));
        let idle_dc = w.energy(ids[1]).duty_cycle();
        let sender_dc = w.energy(ids[0]).duty_cycle();
        assert!(idle_dc < 0.05, "receiver duty cycle {idle_dc} too high");
        assert!(
            sender_dc > idle_dc,
            "sender ({sender_dc}) should pay more than receiver ({idle_dc})"
        );
    }

    #[test]
    fn send_times_out_when_destination_dead() {
        let (mut w, ids) = rimac_world(2, 10.0, 13);
        w.kill(ids[1]);
        w.proto_mut::<Drv>(ids[0]).push_send(
            SimTime::from_secs(1),
            Dst::Unicast(ids[1]),
            0,
            vec![1],
        );
        w.run_for(SimDuration::from_secs(10));
        assert_eq!(
            w.proto::<Drv>(ids[0]).send_done,
            vec![(SendHandle(0), false)]
        );
    }

    #[test]
    fn broadcast_reaches_neighbours_via_their_probes() {
        let (mut w, ids) = rimac_world(3, 12.0, 14);
        w.proto_mut::<Drv>(ids[1])
            .push_send(SimTime::from_secs(1), Dst::Broadcast, 2, vec![9]);
        w.run_for(SimDuration::from_secs(6));
        let got: usize = [ids[0], ids[2]]
            .iter()
            .map(|&n| w.proto::<Drv>(n).delivered.len())
            .sum();
        assert!(got >= 1, "broadcast reached no neighbour");
        // The send completes as successful at its deadline.
        assert_eq!(
            w.proto::<Drv>(ids[1]).send_done,
            vec![(SendHandle(0), true)]
        );
    }

    #[test]
    fn two_senders_to_one_receiver_both_succeed() {
        let cfg = SimConfig::default().seed(15);
        // Star: receiver in the middle.
        let topo: Topology = [
            Pos::new(10.0, 10.0),
            Pos::new(0.0, 10.0),
            Pos::new(20.0, 10.0),
        ]
        .into_iter()
        .collect();
        let (mut w, ids) = driver_sim(cfg, topo, RimacMac::default);
        w.proto_mut::<Drv>(ids[1]).push_send(
            SimTime::from_secs(1),
            Dst::Unicast(ids[0]),
            0,
            vec![1],
        );
        w.proto_mut::<Drv>(ids[2]).push_send(
            SimTime::from_secs(1),
            Dst::Unicast(ids[0]),
            0,
            vec![2],
        );
        w.run_for(SimDuration::from_secs(8));
        let d = &w.proto::<Drv>(ids[0]).delivered;
        assert_eq!(d.len(), 2, "both senders should get through");
    }
}
