//! A scriptable host for any [`Mac`]: schedules sends at given times,
//! records deliveries and completions. Used by unit tests, integration
//! tests and the experiment harness.

use crate::{is_mac_tag, Mac, MacError, MacEvent, SendHandle};
use iiot_sim::{Ctx, Dst, Frame, NodeId, Proto, RxInfo, SimTime, Timer, TxOutcome};

/// One recorded delivery.
#[derive(Clone, Debug, PartialEq)]
pub struct Delivery {
    /// When the payload was delivered.
    pub at: SimTime,
    /// Link-layer source.
    pub src: NodeId,
    /// Upper-layer port.
    pub upper_port: u8,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

/// Scripted send: at `at`, submit `(dst, upper_port, payload)`.
#[derive(Clone, Debug)]
struct Scripted {
    at: SimTime,
    dst: Dst,
    upper_port: u8,
    payload: Vec<u8>,
}

/// A [`Proto`] hosting a single [`Mac`], with a send script and full
/// event recording.
///
/// # Examples
///
/// ```
/// use iiot_mac::csma::CsmaMac;
/// use iiot_mac::driver::MacDriver;
/// use iiot_sim::prelude::*;
///
/// let mut sim = SimBuilder::new()
///     .nodes(Topology::line(2, 10.0), |_| Box::new(MacDriver::new(CsmaMac::default())))
///     .build();
/// let (a, b) = (NodeId(0), NodeId(1));
/// sim.proto_mut::<MacDriver<CsmaMac>>(a)
///     .push_send(SimTime::from_millis(5), Dst::Unicast(b), 9, vec![1, 2, 3]);
/// sim.run(SimDuration::from_secs(1));
/// assert_eq!(sim.proto::<MacDriver<CsmaMac>>(b).delivered.len(), 1);
/// ```
#[derive(Debug)]
pub struct MacDriver<M: Mac> {
    mac: M,
    script: Vec<Scripted>,
    next_script: usize,
    /// Deliveries observed, in order.
    pub delivered: Vec<Delivery>,
    /// `(handle, acked)` completions, in order.
    pub send_done: Vec<(SendHandle, bool)>,
    /// Errors returned by `Mac::send` for scripted sends.
    pub send_errors: Vec<MacError>,
}

/// Scaffolding of the MAC unit tests: one driver per position of
/// `topo`, each over a fresh `mac()`; ids in position order.
#[cfg(test)]
pub(crate) fn driver_sim<M: Mac>(
    config: iiot_sim::SimConfig,
    topo: iiot_sim::Topology,
    mac: impl Fn() -> M + Send + Sync + 'static,
) -> (iiot_sim::Sim, Vec<NodeId>) {
    let ids = (0..topo.len() as u32).map(NodeId).collect();
    let sim = iiot_sim::SimBuilder::new()
        .config(config)
        .nodes(topo, move |_| Box::new(MacDriver::new(mac())))
        .build();
    (sim, ids)
}

/// Timer tag used by the driver for its script (safely below
/// [`crate::MAC_TAG_BASE`]).
const TAG_SCRIPT: u64 = 0x5C;

impl<M: Mac> MacDriver<M> {
    /// Wraps `mac` with an empty script.
    pub fn new(mac: M) -> Self {
        MacDriver {
            mac,
            script: Vec::new(),
            next_script: 0,
            delivered: Vec::new(),
            send_done: Vec::new(),
            send_errors: Vec::new(),
        }
    }

    /// Schedules a send at absolute time `at`. Must be called before the
    /// world reaches `at`; sends must be pushed in nondecreasing time
    /// order.
    pub fn push_send(&mut self, at: SimTime, dst: Dst, upper_port: u8, payload: Vec<u8>) {
        debug_assert!(
            self.script.last().is_none_or(|s| s.at <= at),
            "script must be time-ordered"
        );
        self.script.push(Scripted {
            at,
            dst,
            upper_port,
            payload,
        });
    }

    /// Submits a send immediately (for use inside
    /// [`Sim::with`](iiot_sim::Sim::with), e.g. to react to
    /// an earlier delivery from test code).
    pub fn send_now(
        &mut self,
        ctx: &mut Ctx<'_>,
        dst: Dst,
        upper_port: u8,
        payload: Vec<u8>,
    ) -> Result<SendHandle, MacError> {
        let r = self.mac.send(ctx, dst, upper_port, payload);
        if let Err(e) = &r {
            self.send_errors.push(*e);
        }
        r
    }

    /// The wrapped MAC.
    pub fn mac(&self) -> &M {
        &self.mac
    }

    /// The wrapped MAC, mutably.
    pub fn mac_mut(&mut self) -> &mut M {
        &mut self.mac
    }

    fn arm_next(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(s) = self.script.get(self.next_script) {
            let at = s.at.max(ctx.now());
            ctx.set_timer_at(at, TAG_SCRIPT);
        }
    }

    fn consume(&mut self, ctx: &mut Ctx<'_>, events: Vec<MacEvent>) {
        for ev in events {
            match ev {
                MacEvent::Delivered {
                    src,
                    upper_port,
                    payload,
                    ..
                } => self.delivered.push(Delivery {
                    at: ctx.now(),
                    src,
                    upper_port,
                    payload,
                }),
                MacEvent::SendDone { handle, acked } => {
                    self.send_done.push((handle, acked));
                }
            }
        }
    }
}

impl<M: Mac> Proto for MacDriver<M> {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        self.mac.start(ctx);
        self.arm_next(ctx);
    }

    fn timer(&mut self, ctx: &mut Ctx<'_>, timer: Timer) {
        if is_mac_tag(timer.tag) {
            let mut out = Vec::new();
            self.mac.on_timer(ctx, timer, &mut out);
            self.consume(ctx, out);
            return;
        }
        if timer.tag == TAG_SCRIPT {
            if let Some(s) = self.script.get(self.next_script).cloned() {
                self.next_script += 1;
                match self.mac.send(ctx, s.dst, s.upper_port, s.payload) {
                    Ok(_) => {}
                    Err(e) => self.send_errors.push(e),
                }
                self.arm_next(ctx);
            }
        }
    }

    fn frame(&mut self, ctx: &mut Ctx<'_>, frame: &Frame, info: RxInfo) {
        let mut out = Vec::new();
        self.mac.on_frame(ctx, frame, info, &mut out);
        self.consume(ctx, out);
    }

    fn tx_done(&mut self, ctx: &mut Ctx<'_>, outcome: TxOutcome) {
        let mut out = Vec::new();
        self.mac.on_tx_done(ctx, outcome, &mut out);
        self.consume(ctx, out);
    }

    fn crashed(&mut self) {
        self.mac.crashed();
    }
}
