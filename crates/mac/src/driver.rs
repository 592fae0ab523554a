//! A scriptable host for any [`Mac`]: schedules sends at given times,
//! records deliveries and completions. Used by unit tests, integration
//! tests and the experiment harness.

use crate::{Mac, MacError, SendHandle, Service, Stack};
use iiot_sim::{Ctx, Dst, Frame, NodeId, Proto, RxInfo, SimTime, Timer, TxOutcome};
use std::ops::Deref;

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
    stack: Stack<M>,
    script: Script,
}

/// The service a [`MacDriver`] hosts (and dereferences to): the send
/// script and everything the MAC reported.
#[derive(Debug, Default)]
pub struct Script {
    sends: Vec<Scripted>,
    next: usize,
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
    mac: impl Fn() -> M + 'static,
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
            stack: Stack::new(mac),
            script: Script::default(),
        }
    }

    /// Schedules a send at absolute time `at`. Must be called before the
    /// world reaches `at`; sends must be pushed in nondecreasing time
    /// order.
    pub fn push_send(&mut self, at: SimTime, dst: Dst, upper_port: u8, payload: Vec<u8>) {
        debug_assert!(
            self.script.sends.last().is_none_or(|s| s.at <= at),
            "script must be time-ordered"
        );
        self.script.sends.push(Scripted {
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
        let r = self.stack.mac_mut().send(ctx, dst, upper_port, payload);
        if let Err(e) = &r {
            self.script.send_errors.push(*e);
        }
        r
    }

    /// The wrapped MAC.
    pub fn mac(&self) -> &M {
        self.stack.mac()
    }

    /// The wrapped MAC, mutably.
    pub fn mac_mut(&mut self) -> &mut M {
        self.stack.mac_mut()
    }
}

impl<M: Mac> Deref for MacDriver<M> {
    type Target = Script;

    fn deref(&self) -> &Script {
        &self.script
    }
}

impl Script {
    fn arm_next(&self, ctx: &mut Ctx<'_>) {
        if let Some(s) = self.sends.get(self.next) {
            let at = s.at.max(ctx.now());
            ctx.set_timer_at(at, TAG_SCRIPT);
        }
    }
}

impl<M: Mac> Service<M> for Script {
    fn start(&mut self, _mac: &mut M, ctx: &mut Ctx<'_>) {
        self.arm_next(ctx);
    }

    fn delivered(&mut self, _: &mut M, ctx: &mut Ctx<'_>, src: NodeId, port: u8, payload: &[u8]) {
        self.delivered.push(Delivery {
            at: ctx.now(),
            src,
            upper_port: port,
            payload: payload.to_vec(),
        });
    }

    fn send_done(&mut self, _: &mut M, _: &mut Ctx<'_>, handle: SendHandle, acked: bool) {
        self.send_done.push((handle, acked));
    }

    fn timer(&mut self, mac: &mut M, ctx: &mut Ctx<'_>, timer: Timer) {
        if timer.tag == TAG_SCRIPT {
            if let Some(s) = self.sends.get(self.next).cloned() {
                self.next += 1;
                if let Err(e) = mac.send(ctx, s.dst, s.upper_port, s.payload) {
                    self.send_errors.push(e);
                }
                self.arm_next(ctx);
            }
        }
    }
}

impl<M: Mac> Proto for MacDriver<M> {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        self.stack.start(&mut self.script, ctx);
    }

    fn timer(&mut self, ctx: &mut Ctx<'_>, timer: Timer) {
        self.stack.timer(&mut self.script, ctx, timer);
    }

    fn frame(&mut self, ctx: &mut Ctx<'_>, frame: &Frame, info: RxInfo) {
        self.stack.frame(&mut self.script, ctx, frame, info);
    }

    fn tx_done(&mut self, ctx: &mut Ctx<'_>, outcome: TxOutcome) {
        self.stack.tx_done(&mut self.script, ctx, outcome);
    }

    fn crashed(&mut self) {
        self.stack.crashed(&mut self.script);
    }
}
