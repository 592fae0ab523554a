//! Always-on CSMA/CA with link-layer acknowledgements: the classic
//! unslotted 802.15.4-style channel access. Latency baseline; energy
//! worst case (the radio never sleeps).

use crate::header::{Link, Rx};
use crate::{mac_tag, Mac, MacError, MacEvent, SendHandle};
use iiot_sim::obs::EventKind;
use iiot_sim::{Ctx, Dst, Frame, RxInfo, SimDuration, Timer, TimerId, TxOutcome};
use rand::Rng;

const TAG_BACKOFF: u64 = mac_tag(0x10);
const TAG_ACK_TIMEOUT: u64 = mac_tag(0x11);

/// Radio demux port claimed by CSMA.
pub const RADIO_PORT: u8 = 1;
/// CCA backoff attempts before a channel-access failure (IEEE 802.15.4
/// `macMaxCSMABackoffs`, range 0..=5).
pub const MAX_BACKOFFS: u32 = 5;
/// Minimum backoff exponent (IEEE 802.15.4 `macMinBE` default).
pub const MIN_BE: u32 = 3;
/// Maximum backoff exponent (IEEE 802.15.4 `macMaxBE`, range 3..=8).
pub const MAX_BE: u32 = 6;
/// One backoff unit (IEEE 802.15.4 `aUnitBackoffPeriod`: 20 symbols,
/// 320 us at 2.4 GHz).
pub const BACKOFF_UNIT: SimDuration = SimDuration::from_micros(320);
/// Retransmissions of an unacknowledged unicast frame (IEEE 802.15.4
/// `macMaxFrameRetries` default).
pub const MAX_RETRIES: u32 = 3;
/// How long to wait for an ACK after a unicast data frame.
pub const ACK_TIMEOUT: SimDuration = SimDuration::from_millis(3);

/// Per-frame attempt state: retries so far, and the current
/// transmission's backoff count and exponent.
#[derive(Debug)]
struct Attempt {
    retries: u32,
    backoffs: u32,
    be: u32,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
enum TxState {
    /// Nothing in flight.
    #[default]
    Idle,
    /// Waiting for the backoff timer before a CCA.
    Backoff,
    /// A data frame is on the air.
    SendingData,
    /// An ACK frame is on the air.
    SendingAck,
    /// Waiting for the peer's ACK.
    WaitAck,
}

impl TxState {
    fn name(self) -> &'static str {
        match self {
            TxState::Idle => "idle",
            TxState::Backoff => "backoff",
            TxState::SendingData => "send_data",
            TxState::SendingAck => "send_ack",
            TxState::WaitAck => "wait_ack",
        }
    }
}

/// Always-on CSMA/CA MAC (unslotted 802.15.4 flavour).
///
/// Its parameters are this module's IEEE 802.15.4 constants. Unicast
/// frames are acknowledged and retried; broadcast frames are
/// fire-and-forget. The radio is switched on at [`start`](Mac::start)
/// and never sleeps.
#[derive(Debug, Default)]
pub struct CsmaMac {
    link: Link<Attempt, RADIO_PORT>,
    state: TxState,
    timer: TimerId,
}

impl CsmaMac {
    fn set_state(&mut self, ctx: &mut Ctx<'_>, state: TxState) {
        if self.state != state {
            ctx.emit(EventKind::MacState {
                mac: "csma",
                state: state.name(),
            });
        }
        self.state = state;
    }

    fn start_backoff(&mut self, ctx: &mut Ctx<'_>) {
        let Some(head) = self.link.head() else {
            return;
        };
        let window = 1u64 << head.attempt.be;
        let units = ctx.rng().gen_range(0..window);
        self.timer = ctx.set_timer(BACKOFF_UNIT * units, TAG_BACKOFF);
        self.set_state(ctx, TxState::Backoff);
    }

    fn try_begin(&mut self, ctx: &mut Ctx<'_>) {
        if self.state != TxState::Idle {
            return;
        }
        // A pending ACK has priority over our own data.
        if self.link.transmit_ack(ctx) {
            self.set_state(ctx, TxState::SendingAck);
        } else {
            self.start_backoff(ctx);
        }
    }

    fn complete_head(&mut self, ctx: &mut Ctx<'_>, out: &mut Vec<MacEvent>, acked: bool) {
        self.link.complete(ctx, out, acked);
        self.set_state(ctx, TxState::Idle);
        self.try_begin(ctx);
    }

    fn fail_head(&mut self, ctx: &mut Ctx<'_>, out: &mut Vec<MacEvent>) {
        let Some(head) = self.link.head_mut() else {
            return;
        };
        let attempt = &mut head.attempt;
        attempt.retries += 1;
        if attempt.retries > MAX_RETRIES {
            self.complete_head(ctx, out, false);
        } else {
            attempt.backoffs = 0;
            attempt.be = MIN_BE;
            self.set_state(ctx, TxState::Idle);
            self.try_begin(ctx);
        }
    }
}

impl Mac for CsmaMac {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        self.state = TxState::Idle;
        ctx.radio_on().expect("csma: radio on");
    }

    fn send(
        &mut self,
        ctx: &mut Ctx<'_>,
        dst: Dst,
        upper_port: u8,
        payload: Vec<u8>,
    ) -> Result<SendHandle, MacError> {
        let first = Attempt {
            retries: 0,
            backoffs: 0,
            be: MIN_BE,
        };
        let handle = self.link.admit(ctx, dst, upper_port, payload, first)?;
        self.try_begin(ctx);
        Ok(handle)
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, timer: Timer, out: &mut Vec<MacEvent>) -> bool {
        match timer.tag {
            TAG_BACKOFF => {
                if self.state != TxState::Backoff {
                    return true; // stale
                }
                if !ctx.cca_busy() {
                    if self.link.transmit_head(ctx) {
                        self.set_state(ctx, TxState::SendingData);
                    } else {
                        // Radio busy or off: treat as a failed attempt.
                        self.fail_head(ctx, out);
                    }
                    return true;
                }
                let Some(head) = self.link.head_mut() else {
                    return true;
                };
                let attempt = &mut head.attempt;
                attempt.backoffs += 1;
                attempt.be = (attempt.be + 1).min(MAX_BE);
                if attempt.backoffs > MAX_BACKOFFS {
                    ctx.emit(EventKind::MacTx { outcome: "busy" });
                    self.set_state(ctx, TxState::Idle);
                    // Channel-access failure counts as one retry.
                    self.fail_head(ctx, out);
                } else {
                    self.start_backoff(ctx);
                }
                true
            }
            TAG_ACK_TIMEOUT => {
                if self.state == TxState::WaitAck {
                    ctx.emit(EventKind::MacTx { outcome: "timeout" });
                    self.fail_head(ctx, out);
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
            // The ACK goes out as soon as the radio is free (usually
            // immediately).
            Some(Rx::Data { unicast: true }) if self.state == TxState::Idle => self.try_begin(ctx),
            Some(Rx::HeadAcked) if self.state == TxState::WaitAck => {
                ctx.cancel_timer(self.timer);
                self.complete_head(ctx, out, true);
            }
            _ => {}
        }
    }

    fn on_tx_done(&mut self, ctx: &mut Ctx<'_>, _outcome: TxOutcome, out: &mut Vec<MacEvent>) {
        match (self.state, self.link.head().map(|head| head.dst)) {
            (TxState::SendingAck, _) => {
                self.set_state(ctx, TxState::Idle);
                self.try_begin(ctx);
            }
            (TxState::SendingData, Some(Dst::Broadcast)) => self.complete_head(ctx, out, true),
            (TxState::SendingData, Some(Dst::Unicast(_))) => {
                self.set_state(ctx, TxState::WaitAck);
                self.timer = ctx.set_timer(ACK_TIMEOUT, TAG_ACK_TIMEOUT);
            }
            _ => {}
        }
    }

    fn crashed(&mut self) {
        self.link.crashed();
        self.state = TxState::Idle;
        self.timer = TimerId::NONE;
    }

    fn name(&self) -> &'static str {
        "csma"
    }

    fn radio_port(&self) -> u8 {
        RADIO_PORT
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{driver_sim, MacDriver};
    use iiot_sim::prelude::*;

    fn csma_sim(config: SimConfig, topo: Topology) -> (Sim, Vec<NodeId>) {
        driver_sim(config, topo, CsmaMac::default)
    }

    fn two_node_world() -> (Sim, NodeId, NodeId) {
        let (w, ids) = csma_sim(SimConfig::default(), Topology::line(2, 10.0));
        (w, ids[0], ids[1])
    }

    #[test]
    fn unicast_delivered_and_acked() {
        let (mut w, a, b) = two_node_world();
        w.proto_mut::<MacDriver<CsmaMac>>(a).push_send(
            SimTime::from_millis(10),
            Dst::Unicast(b),
            7,
            b"reading".to_vec(),
        );
        w.run_for(SimDuration::from_secs(1));
        let drv_b = w.proto::<MacDriver<CsmaMac>>(b);
        assert_eq!(drv_b.delivered.len(), 1);
        assert_eq!(drv_b.delivered[0].payload, b"reading");
        assert_eq!(drv_b.delivered[0].upper_port, 7);
        let drv_a = w.proto::<MacDriver<CsmaMac>>(a);
        assert_eq!(drv_a.send_done, vec![(SendHandle(0), true)]);
    }

    #[test]
    fn broadcast_reaches_neighbours_without_ack() {
        let (mut w, ids) = csma_sim(SimConfig::default(), Topology::line(3, 12.0));
        w.proto_mut::<MacDriver<CsmaMac>>(ids[1]).push_send(
            SimTime::from_millis(5),
            Dst::Broadcast,
            3,
            vec![1, 2],
        );
        w.run_for(SimDuration::from_secs(1));
        for &n in &[ids[0], ids[2]] {
            assert_eq!(w.proto::<MacDriver<CsmaMac>>(n).delivered.len(), 1);
        }
        assert_eq!(
            w.proto::<MacDriver<CsmaMac>>(ids[1]).send_done,
            vec![(SendHandle(0), true)]
        );
    }

    #[test]
    fn unicast_to_dead_node_fails_after_retries() {
        let (mut w, a, b) = two_node_world();
        w.kill(b);
        w.proto_mut::<MacDriver<CsmaMac>>(a).push_send(
            SimTime::from_millis(10),
            Dst::Unicast(b),
            0,
            vec![0],
        );
        w.run_for(SimDuration::from_secs(2));
        let drv_a = w.proto::<MacDriver<CsmaMac>>(a);
        assert_eq!(drv_a.send_done, vec![(SendHandle(0), false)]);
        // 1 initial + 3 retries.
        assert_eq!(w.stats().get_node(a, "mac_tx_data"), 4.0);
    }

    #[test]
    fn retransmission_recovers_from_loss() {
        let mut cfg = SimConfig {
            seed: 7,
            ..SimConfig::default()
        };
        cfg.radio.link = LinkModel::LossyDisk {
            range_m: 30.0,
            interference_range_m: 45.0,
            prr: 0.6,
        };
        let (mut w, ids) = csma_sim(cfg, Topology::line(2, 10.0));
        let (a, b) = (ids[0], ids[1]);
        for i in 0..20u64 {
            w.proto_mut::<MacDriver<CsmaMac>>(a).push_send(
                SimTime::from_millis(100 * (i + 1)),
                Dst::Unicast(b),
                0,
                vec![i as u8],
            );
        }
        w.run_for(SimDuration::from_secs(5));
        let delivered = w.proto::<MacDriver<CsmaMac>>(b).delivered.len();
        let acked = w
            .proto::<MacDriver<CsmaMac>>(a)
            .send_done
            .iter()
            .filter(|(_, ok)| *ok)
            .count();
        // With 60% PRR and 3 retries, nearly everything gets through.
        assert!(delivered >= 18, "delivered {delivered}/20");
        assert!(acked >= 17, "acked {acked}/20");
        // No duplicates delivered despite retransmissions.
        let mut seen: Vec<u8> = w
            .proto::<MacDriver<CsmaMac>>(b)
            .delivered
            .iter()
            .map(|d| d.payload[0])
            .collect();
        let before = seen.len();
        seen.dedup();
        assert_eq!(seen.len(), before, "duplicate deliveries");
    }

    #[test]
    fn queue_full_backpressure() {
        let (mut w, a, b) = two_node_world();
        let t = SimTime::from_millis(10);
        for _ in 0..30 {
            w.proto_mut::<MacDriver<CsmaMac>>(a)
                .push_send(t, Dst::Unicast(b), 0, vec![0; 50]);
        }
        w.run_for(SimDuration::from_secs(5));
        let drv_a = w.proto::<MacDriver<CsmaMac>>(a);
        assert!(
            drv_a.send_errors.contains(&MacError::QueueFull),
            "expected queue-full backpressure"
        );
        // Everything accepted was eventually acked.
        assert!(drv_a.send_done.iter().all(|(_, ok)| *ok));
    }

    #[test]
    fn contention_resolved_by_backoff() {
        // Ten nodes all in range broadcast at the same instant; CSMA
        // backoff spreads them out so most frames get through.
        let (mut w, ids) = csma_sim(SimConfig::default(), Topology::grid(5, 2, 5.0));
        for (i, &id) in ids.iter().enumerate() {
            w.proto_mut::<MacDriver<CsmaMac>>(id).push_send(
                SimTime::from_millis(50),
                Dst::Broadcast,
                0,
                vec![i as u8],
            );
        }
        w.run_for(SimDuration::from_secs(2));
        // Every node should have received most of the other 9 frames.
        let total: usize = ids
            .iter()
            .map(|&id| w.proto::<MacDriver<CsmaMac>>(id).delivered.len())
            .sum();
        assert!(total >= 70, "only {total}/90 deliveries under contention");
    }

    #[test]
    fn radio_never_sleeps() {
        let (mut w, a, _b) = two_node_world();
        w.run_for(SimDuration::from_secs(10));
        let u = w.energy(a);
        assert!(u.duty_cycle() > 0.99, "csma is always-on");
    }
}
