//! Receiver-initiated duty-cycled MAC in the style of RI-MAC.
//!
//! Instead of senders strobing long preambles, each *receiver* briefly
//! wakes every interval and broadcasts a probe; a sender with pending
//! traffic keeps its radio on until it hears the destination's probe and
//! answers with the data frame. This shifts the energy cost from
//! receivers (who sleep ~99% of the time) to active senders, and copes
//! better with dynamic traffic than sender-initiated LPL.

use crate::header::{Link, Rx};
use crate::{mac_tag, Mac, MacError, MacEvent, SendHandle};
use iiot_sim::obs::EventKind;
use iiot_sim::{Ctx, Dst, Frame, NodeId, RxInfo, SimDuration, SimTime, Timer, TxOutcome};
use rand::Rng;

const TAG_WAKE: u64 = mac_tag(0x30);
const TAG_DWELL_END: u64 = mac_tag(0x31);
const TAG_ANSWER: u64 = mac_tag(0x32);
const TAG_SEND_TIMEOUT: u64 = mac_tag(0x34);

/// Radio demux port claimed by RI-MAC.
pub const RADIO_PORT: u8 = 3;
/// How long a receiver listens after its probe.
pub const DWELL: SimDuration = SimDuration::from_millis(8);
/// Maximum random delay before answering a probe (collision avoidance
/// between competing senders).
pub const ANSWER_JITTER: SimDuration = SimDuration::from_millis(2);
/// Overall deadline for one unicast send, in wake intervals (gives the
/// destination several probe chances).
pub const SEND_TIMEOUT_INTERVALS: u32 = 3;

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
    /// Each frame's attempt state is its send deadline.
    link: Link<SimTime, RADIO_PORT>,
    /// True while this node keeps its radio on waiting for a probe.
    hunting: bool,
    /// True while in the post-probe listen window.
    dwelling: bool,
    /// Set between hearing a probe and answering it.
    answer_armed: bool,
    tx: TxKind,
}

impl RimacMac {
    /// Creates an RI-MAC instance probing every `wake_interval`.
    pub fn new(wake_interval: SimDuration) -> Self {
        RimacMac {
            wake_interval,
            link: Link::default(),
            hunting: false,
            dwelling: false,
            answer_armed: false,
            tx: TxKind::None,
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
        let Some(deadline) = self.link.head().map(|head| head.attempt) else {
            return;
        };
        if self.hunting {
            return;
        }
        self.hunting = true;
        ctx.emit(EventKind::MacState {
            mac: "rimac",
            state: "hunt",
        });
        ctx.radio_on().expect("rimac: radio on to hunt");
        ctx.set_timer_at(deadline, TAG_SEND_TIMEOUT);
    }

    /// Whether a probe from `prober` is the head's cue: it is the
    /// destination, or the head is a broadcast.
    fn head_wants(&self, prober: NodeId) -> bool {
        self.link
            .head()
            .is_some_and(|head| head.dst.accepts(prober))
    }

    fn complete_head(&mut self, ctx: &mut Ctx<'_>, out: &mut Vec<MacEvent>, acked: bool) {
        self.link.complete(ctx, out, acked);
        self.hunting = false;
        if self.link.is_empty() {
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
        let handle = self.link.admit(ctx, dst, upper_port, payload, deadline)?;
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
                    if self.link.transmit_probe(ctx, &[]) {
                        self.tx = TxKind::Probe;
                        ctx.emit(EventKind::MacState {
                            mac: "rimac",
                            state: "probe",
                        });
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
                // A busy channel means another sender answered first:
                // wait for the destination's next probe.
                if self.tx == TxKind::None
                    && !self.link.is_empty()
                    && !ctx.cca_busy()
                    && self.link.transmit_head(ctx)
                {
                    self.tx = TxKind::Data;
                }
                true
            }
            TAG_SEND_TIMEOUT => {
                let expired = self
                    .link
                    .head()
                    .filter(|head| self.hunting && ctx.now() >= head.attempt);
                if let Some(head) = expired {
                    let acked = head.dst == Dst::Broadcast;
                    self.complete_head(ctx, out, acked);
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
        match self.link.receive(ctx, frame, info, out) {
            Some(Rx::Probe(_))
                if self.hunting && !self.answer_armed && self.head_wants(frame.src) =>
            {
                self.answer_armed = true;
                let jitter_us = ctx.rng().gen_range(0..ANSWER_JITTER.as_micros().max(1));
                ctx.set_timer(SimDuration::from_micros(jitter_us), TAG_ANSWER);
            }
            Some(Rx::Data { unicast: true })
                if self.tx == TxKind::None && self.link.transmit_ack(ctx) =>
            {
                self.tx = TxKind::Ack;
            }
            Some(Rx::HeadAcked) if self.hunting => self.complete_head(ctx, out, true),
            _ => {}
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
                // Stay on: the ACK should arrive promptly; the send
                // deadline bounds the wait.
                self.tx = TxKind::None;
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
        self.link.crashed();
        self.hunting = false;
        self.dwelling = false;
        self.answer_armed = false;
        self.tx = TxKind::None;
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
        let cfg = SimConfig {
            seed,
            ..SimConfig::default()
        };
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
        let cfg = SimConfig {
            seed: 15,
            ..SimConfig::default()
        };
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
