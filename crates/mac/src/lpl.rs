//! Low-power listening with a packetized (strobed) preamble, in the
//! B-MAC/X-MAC style.
//!
//! Receivers sleep almost always and briefly sample the channel every
//! wake interval. A sender repeatedly transmits the frame ("strobes")
//! for a full wake interval so every neighbour's sample window catches a
//! copy; unicast strobes stop early when the receiver acknowledges.
//! This is the MAC behind the paper's §IV-B observation that "since the
//! devices sleep most of the time to conserve energy, a packet may take
//! seconds to be transmitted over few wireless hops".
//!
//! All timing (wake schedule, strobe deadline, gaps) counts ticks of
//! the node's local oscillator ([`Ctx::local_time`]): LPL needs no time
//! synchronization, so clock drift merely shifts the unsynchronized
//! wake phases it already tolerates by design.

use crate::header::{decode, encode, MacHeader, MacKind, SeqCache};
use crate::{admit, mac_tag, Mac, MacError, MacEvent, SendHandle};
use iiot_sim::obs::EventKind;
use iiot_sim::{Ctx, Dst, Frame, NodeId, RxInfo, SimDuration, SimTime, Timer, TxOutcome};
use rand::Rng;
use std::collections::VecDeque;

const TAG_WAKE: u64 = mac_tag(0x20);
const TAG_SAMPLE_END: u64 = mac_tag(0x21);
const TAG_GAP: u64 = mac_tag(0x22);

/// Configuration of [`LplMac`].
#[derive(Clone, Debug)]
pub struct LplConfig {
    /// Radio demux port claimed by this MAC instance.
    pub radio_port: u8,
    /// Sleep/wake period: receivers sample once per interval; senders
    /// strobe for one full interval. The energy/latency knob.
    pub wake_interval: SimDuration,
    /// Length of the periodic channel sample.
    pub sample: SimDuration,
    /// Listen gap between strobe copies (ACK opportunity).
    pub strobe_gap: SimDuration,
    /// Full strobes repeated after the first for an unacknowledged
    /// unicast: one makes up to `1 + max_retries` strobes, as CSMA and
    /// TDMA make up to `1 + max_retries` transmissions.
    pub max_retries: u32,
    /// Transmit queue capacity.
    pub queue_cap: usize,
}

impl Default for LplConfig {
    fn default() -> Self {
        LplConfig {
            radio_port: 2,
            wake_interval: SimDuration::from_millis(512),
            sample: SimDuration::from_millis(6),
            strobe_gap: SimDuration::from_millis(1),
            max_retries: 1,
            queue_cap: 16,
        }
    }
}

#[derive(Debug)]
struct Pending {
    handle: SendHandle,
    dst: Dst,
    upper_port: u8,
    payload: Vec<u8>,
    seq: u8,
    strobes: u32,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
enum TxKind {
    #[default]
    None,
    Copy,
    Ack,
}

/// Low-power-listening MAC with strobed preamble (B-MAC/X-MAC style).
///
/// The duty cycle is roughly `sample / wake_interval` plus the cost of
/// strobing; the per-hop latency is uniform in `[0, wake_interval)`.
#[derive(Debug)]
pub struct LplMac {
    config: LplConfig,
    queue: VecDeque<Pending>,
    /// Deadline of the strobe in progress, if any.
    strobe_deadline: Option<SimTime>,
    sampling: bool,
    tx: TxKind,
    seq: u8,
    next_handle: u64,
    dedup: SeqCache,
    ack_due: Option<(NodeId, u8)>,
}

impl LplMac {
    /// Creates an LPL MAC with the given configuration.
    pub fn new(config: LplConfig) -> Self {
        LplMac {
            config,
            queue: VecDeque::new(),
            strobe_deadline: None,
            sampling: false,
            tx: TxKind::None,
            seq: 0,
            next_handle: 0,
            dedup: SeqCache::new(),
            ack_due: None,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &LplConfig {
        &self.config
    }

    fn maybe_sleep(&mut self, ctx: &mut Ctx<'_>) {
        if !self.sampling && self.strobe_deadline.is_none() && self.tx == TxKind::None {
            ctx.emit(EventKind::MacState {
                mac: "lpl",
                state: "sleep",
            });
            let _ = ctx.radio_off();
        }
    }

    fn begin_strobe(&mut self, ctx: &mut Ctx<'_>) {
        if self.strobe_deadline.is_some() || self.queue.is_empty() {
            return;
        }
        ctx.radio_on().expect("lpl: radio on for strobe");
        ctx.emit(EventKind::MacState {
            mac: "lpl",
            state: "strobe",
        });
        // Strobe a little longer than one wake interval so a receiver
        // that sampled just before we started still gets a copy.
        let margin = self.config.sample * 4;
        self.strobe_deadline = Some(ctx.local_time() + self.config.wake_interval + margin);
        self.transmit_copy(ctx);
    }

    fn transmit_copy(&mut self, ctx: &mut Ctx<'_>) {
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
        if ctx
            .transmit(head.dst, self.config.radio_port, bytes)
            .is_ok()
        {
            self.tx = TxKind::Copy;
            ctx.count_node("mac_tx_data", 1.0);
        } else {
            // Radio busy (e.g. ACK in flight): retry after a gap.
            ctx.set_timer_local(self.config.strobe_gap, TAG_GAP);
        }
    }

    fn finish_strobe(&mut self, ctx: &mut Ctx<'_>, out: &mut Vec<MacEvent>, acked: bool) {
        self.strobe_deadline = None;
        let head = self.queue.front_mut().expect("strobe without head");
        let done =
            acked || matches!(head.dst, Dst::Broadcast) || head.strobes >= self.config.max_retries;
        if done {
            let ok = acked || matches!(head.dst, Dst::Broadcast);
            let head = self.queue.pop_front().expect("head");
            out.push(MacEvent::SendDone {
                handle: head.handle,
                acked: ok,
            });
            if !ok {
                ctx.count_node("mac_tx_fail", 1.0);
            }
        } else {
            head.strobes += 1;
        }
        if self.queue.is_empty() {
            self.maybe_sleep(ctx);
        } else {
            self.begin_strobe(ctx);
        }
    }

    fn send_ack_if_due(&mut self, ctx: &mut Ctx<'_>) {
        if self.tx != TxKind::None {
            return;
        }
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
            if ctx
                .transmit(Dst::Unicast(dst), self.config.radio_port, bytes)
                .is_ok()
            {
                self.tx = TxKind::Ack;
                ctx.emit(EventKind::MacState {
                    mac: "lpl",
                    state: "send_ack",
                });
            }
        }
    }
}

impl Mac for LplMac {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        // Unsynchronized wake schedules: random phase per node.
        let phase_us = ctx
            .rng()
            .gen_range(0..self.config.wake_interval.as_micros().max(1));
        ctx.set_timer_local(SimDuration::from_micros(phase_us), TAG_WAKE);
    }

    fn send(
        &mut self,
        ctx: &mut Ctx<'_>,
        dst: Dst,
        upper_port: u8,
        payload: Vec<u8>,
    ) -> Result<SendHandle, MacError> {
        let handle = admit(
            ctx,
            &mut self.queue,
            self.config.queue_cap,
            &mut self.next_handle,
            &mut self.seq,
            payload.len(),
            |handle, seq| Pending {
                handle,
                dst,
                upper_port,
                payload,
                seq,
                strobes: 0,
            },
        )?;
        self.begin_strobe(ctx);
        Ok(handle)
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, timer: Timer, out: &mut Vec<MacEvent>) -> bool {
        match timer.tag {
            TAG_WAKE => {
                ctx.set_timer_local(self.config.wake_interval, TAG_WAKE);
                if self.strobe_deadline.is_none() && self.tx == TxKind::None {
                    ctx.radio_on().expect("lpl: radio on for sample");
                    self.sampling = true;
                    ctx.emit(EventKind::MacState {
                        mac: "lpl",
                        state: "sample",
                    });
                    ctx.set_timer_local(self.config.sample, TAG_SAMPLE_END);
                }
                true
            }
            TAG_SAMPLE_END => {
                if self.sampling {
                    if ctx.cca_busy() {
                        // Traffic in the air: keep listening for it.
                        ctx.set_timer_local(self.config.sample, TAG_SAMPLE_END);
                    } else {
                        self.sampling = false;
                        self.maybe_sleep(ctx);
                    }
                }
                true
            }
            TAG_GAP => {
                if let Some(deadline) = self.strobe_deadline {
                    if ctx.local_time() >= deadline {
                        self.finish_strobe(ctx, out, false);
                    } else if self.tx == TxKind::None {
                        self.transmit_copy(ctx);
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
        if frame.port != self.config.radio_port {
            return;
        }
        let Some((header, payload)) = decode(&frame.payload) else {
            return;
        };
        match header.kind {
            MacKind::Data => {
                if frame.dst == Dst::Unicast(ctx.id()) {
                    self.ack_due = Some((frame.src, header.seq));
                    self.send_ack_if_due(ctx);
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
                if self.strobe_deadline.is_some() {
                    let head_seq = self.queue.front().map(|p| p.seq);
                    if head_seq == Some(header.seq) {
                        self.finish_strobe(ctx, out, true);
                    }
                }
            }
            MacKind::Probe => {}
        }
    }

    fn on_tx_done(&mut self, ctx: &mut Ctx<'_>, _outcome: TxOutcome, out: &mut Vec<MacEvent>) {
        match self.tx {
            TxKind::Copy => {
                self.tx = TxKind::None;
                self.send_ack_if_due(ctx);
                if self.tx == TxKind::None {
                    // Listen for an ACK during the inter-copy gap.
                    ctx.set_timer_local(self.config.strobe_gap, TAG_GAP);
                }
            }
            TxKind::Ack => {
                self.tx = TxKind::None;
                if self.strobe_deadline.is_some() {
                    ctx.set_timer_local(self.config.strobe_gap, TAG_GAP);
                } else {
                    self.maybe_sleep(ctx);
                }
            }
            TxKind::None => {
                let _ = out;
            }
        }
    }

    fn crashed(&mut self) {
        self.queue.clear();
        self.strobe_deadline = None;
        self.sampling = false;
        self.tx = TxKind::None;
        self.dedup.clear();
        self.ack_due = None;
    }

    fn name(&self) -> &'static str {
        "lpl"
    }

    fn radio_port(&self) -> u8 {
        self.config.radio_port
    }
}

impl Default for LplMac {
    fn default() -> Self {
        LplMac::new(LplConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{driver_sim, MacDriver};
    use iiot_sim::prelude::*;

    type Drv = MacDriver<LplMac>;

    fn lpl_world(n: usize, spacing: f64, seed: u64) -> (Sim, Vec<NodeId>) {
        let cfg = SimConfig::default().seed(seed);
        driver_sim(cfg, Topology::line(n, spacing), LplMac::default)
    }

    #[test]
    fn unicast_delivered_within_one_wake_interval() {
        let (mut w, ids) = lpl_world(2, 10.0, 3);
        let sent_at = SimTime::from_secs(1);
        w.proto_mut::<Drv>(ids[0])
            .push_send(sent_at, Dst::Unicast(ids[1]), 5, b"temp=21".to_vec());
        w.run_for(SimDuration::from_secs(3));
        let d = &w.proto::<Drv>(ids[1]).delivered;
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].payload, b"temp=21");
        let latency = d[0].at.duration_since(sent_at);
        assert!(
            latency <= SimDuration::from_millis(600),
            "latency {latency} exceeds wake interval + margin"
        );
        assert_eq!(
            w.proto::<Drv>(ids[0]).send_done,
            vec![(SendHandle(0), true)]
        );
    }

    #[test]
    fn ack_stops_strobe_early() {
        // Seed 5, not 4: the vendored SmallRng draws a different wake
        // phase per seed than the crates.io build did, and seed 4 now
        // lands the receiver's ACK inside the sender's next strobe copy
        // (ACK lost, full strobe). Any phase where the ACK falls in the
        // inter-copy gap exercises the intended early-stop path.
        let (mut w, ids) = lpl_world(2, 10.0, 5);
        w.proto_mut::<Drv>(ids[0]).push_send(
            SimTime::from_secs(1),
            Dst::Unicast(ids[1]),
            0,
            vec![1],
        );
        w.run_for(SimDuration::from_secs(3));
        // Copies sent should be far fewer than a full strobe
        // (512ms / ~2.1ms period = ~240 copies).
        let copies = w.stats().get_node(ids[0], "mac_tx_data");
        assert!(copies >= 1.0);
        assert!(copies < 240.0, "strobe was not cut short: {copies} copies");
    }

    #[test]
    fn broadcast_reaches_all_neighbours() {
        let (mut w, ids) = lpl_world(3, 12.0, 5);
        // Node 1 broadcasts; both 0 and 2 are in range.
        w.proto_mut::<Drv>(ids[1])
            .push_send(SimTime::from_secs(1), Dst::Broadcast, 9, vec![7]);
        w.run_for(SimDuration::from_secs(3));
        for &n in &[ids[0], ids[2]] {
            let d = &w.proto::<Drv>(n).delivered;
            assert_eq!(d.len(), 1, "node {n} deliveries: {}", d.len());
        }
    }

    #[test]
    fn duty_cycle_is_low_when_idle() {
        let (mut w, ids) = lpl_world(2, 10.0, 6);
        w.run_for(SimDuration::from_secs(60));
        for &n in &ids {
            let dc = w.energy(n).duty_cycle();
            assert!(dc < 0.03, "idle duty cycle {dc} too high");
            assert!(dc > 0.005, "idle duty cycle {dc} suspiciously low");
        }
    }

    #[test]
    fn unicast_to_dead_node_fails_after_strobes() {
        // Copies of one unanswered unicast under `max_retries` retries:
        // it fails after `1 + max_retries` whole strobes.
        let copies = |max_retries| {
            let cfg = SimConfig::default().seed(7);
            let (mut w, ids) = driver_sim(cfg, Topology::line(2, 10.0), move || {
                LplMac::new(LplConfig {
                    max_retries,
                    ..LplConfig::default()
                })
            });
            w.kill(ids[1]);
            w.proto_mut::<Drv>(ids[0]).push_send(
                SimTime::from_secs(1),
                Dst::Unicast(ids[1]),
                0,
                vec![1],
            );
            w.run_for(SimDuration::from_secs(5));
            assert_eq!(
                w.proto::<Drv>(ids[0]).send_done,
                vec![(SendHandle(0), false)]
            );
            w.stats().get_node(ids[0], "mac_tx_data")
        };
        let one_strobe = copies(0);
        assert!(one_strobe > 100.0, "{one_strobe} copies in a strobe");
        assert_eq!(LplConfig::default().max_retries, 1);
        assert_eq!(copies(1), 2.0 * one_strobe);
        assert_eq!(copies(2), 3.0 * one_strobe);
    }

    #[test]
    fn multihop_latency_accumulates_per_hop() {
        // Three hops: 0 -> 1 -> 2 -> 3, forwarded by the test at each
        // node. Latency should be roughly hops * E[U(0,W)] = 3 * W/2,
        // and definitely more than one wake interval.
        let (mut w, ids) = lpl_world(4, 10.0, 8);
        let t0 = SimTime::from_secs(1);
        w.proto_mut::<Drv>(ids[0])
            .push_send(t0, Dst::Unicast(ids[1]), 0, vec![0]);
        w.run_for(SimDuration::from_secs(2));
        assert_eq!(w.proto::<Drv>(ids[1]).delivered.len(), 1, "hop 1");
        let next = ids[2];
        w.with(ids[1], |d: &mut Drv, ctx| {
            d.send_now(ctx, Dst::Unicast(next), 0, vec![1])
                .expect("send");
        });
        w.run_for(SimDuration::from_secs(2));
        assert_eq!(w.proto::<Drv>(ids[2]).delivered.len(), 1, "hop 2");
        let next = ids[3];
        w.with(ids[2], |d: &mut Drv, ctx| {
            d.send_now(ctx, Dst::Unicast(next), 0, vec![2])
                .expect("send");
        });
        w.run_for(SimDuration::from_secs(2));
        assert_eq!(w.proto::<Drv>(ids[3]).delivered.len(), 1, "hop 3");
        // Per-hop latency = delivery time minus the time the hop's send
        // was submitted (sends 2 and 3 were submitted at the run_for
        // boundaries, i.e. t=2s and t=4s).
        let hops = [
            (ids[1], t0),
            (ids[2], SimTime::from_secs(2)),
            (ids[3], SimTime::from_secs(4)),
        ];
        let mut total = SimDuration::ZERO;
        for (node, sent) in hops {
            let lat = w.proto::<Drv>(node).delivered[0].at.duration_since(sent);
            assert!(
                lat <= SimDuration::from_millis(1200),
                "per-hop LPL latency {lat} exceeds strobe bound"
            );
            total += lat;
        }
        // Three duty-cycled hops accumulate substantial latency overall.
        assert!(
            total >= SimDuration::from_millis(60),
            "3-hop LPL latency {total} implausibly small"
        );
    }

    #[test]
    fn queued_packets_drain_in_order() {
        let (mut w, ids) = lpl_world(2, 10.0, 9);
        for i in 0..3u8 {
            w.proto_mut::<Drv>(ids[0]).push_send(
                SimTime::from_secs(1),
                Dst::Unicast(ids[1]),
                0,
                vec![i],
            );
        }
        w.run_for(SimDuration::from_secs(10));
        let payloads: Vec<u8> = w
            .proto::<Drv>(ids[1])
            .delivered
            .iter()
            .map(|d| d.payload[0])
            .collect();
        assert_eq!(payloads, vec![0, 1, 2]);
        assert_eq!(w.proto::<Drv>(ids[0]).send_done.len(), 3);
    }
}
