//! Timing shims of the traced pass: [`TimedProto`] wraps a node's
//! protocol stack and [`TimedMac`] the MAC inside it, so that
//! `TimedProto<DodagNode<TimedMac<LplMac>>>` splits a node's host time
//! into MAC (inclusive of the `Ctx` calls the MAC makes into the medium)
//! and routing (the rest of the callback). The kernel's own time is what
//! `Sim::run_for` took minus every callback.
//!
//! Each shim keeps its totals in itself, one [`CallStat`] per callback:
//! no globals, nothing shared between the worker threads of a sharded
//! run. The harness sums them over the nodes when the run ends. A shim
//! forwards every argument and return value unchanged and draws nothing
//! from the node's RNG, so a traced run dispatches exactly the events of
//! an untraced one (`tests/invisible.rs` holds that).

use crate::trace::CallStat;
use iiot_mac::{Mac, MacError, MacEvent, SendHandle};
use iiot_sim::{Ctx, Dst, Frame, NodeId, Proto, RxInfo, Timer, TxOutcome};

/// Names of the timed [`Proto`] callbacks, indexing [`TimedProto::calls`].
pub const PROTO_CALLS: [&str; 5] = ["start", "timer", "frame", "tx_done", "wire"];

/// Names of the timed [`Mac`] calls, indexing [`TimedMac::calls`].
pub const MAC_CALLS: [&str; 5] = ["start", "send", "on_timer", "on_frame", "on_tx_done"];

/// A [`Proto`] that times every callback of the `P` inside it.
pub struct TimedProto<P> {
    /// The wrapped protocol.
    pub inner: P,
    /// Per-callback totals, in [`PROTO_CALLS`] order.
    pub calls: [CallStat; 5],
}

impl<P> TimedProto<P> {
    /// Wraps `inner`.
    pub fn new(inner: P) -> Self {
        TimedProto {
            inner,
            calls: Default::default(),
        }
    }
}

impl<P: Proto> Proto for TimedProto<P> {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        let inner = &mut self.inner;
        self.calls[0].time(|| inner.start(ctx));
    }

    fn timer(&mut self, ctx: &mut Ctx<'_>, timer: Timer) {
        let inner = &mut self.inner;
        self.calls[1].time(|| inner.timer(ctx, timer));
    }

    fn frame(&mut self, ctx: &mut Ctx<'_>, frame: &Frame, info: RxInfo) {
        let inner = &mut self.inner;
        self.calls[2].time(|| inner.frame(ctx, frame, info));
    }

    fn tx_done(&mut self, ctx: &mut Ctx<'_>, outcome: TxOutcome) {
        let inner = &mut self.inner;
        self.calls[3].time(|| inner.tx_done(ctx, outcome));
    }

    fn wire(&mut self, ctx: &mut Ctx<'_>, from: NodeId, payload: &[u8]) {
        let inner = &mut self.inner;
        self.calls[4].time(|| inner.wire(ctx, from, payload));
    }

    fn crashed(&mut self) {
        self.inner.crashed();
    }

    fn wiped(&mut self) {
        self.inner.wiped();
    }
}

/// A [`Mac`] that times every call into the `M` inside it.
pub struct TimedMac<M> {
    /// The wrapped MAC.
    pub inner: M,
    /// Per-call totals, in [`MAC_CALLS`] order.
    pub calls: [CallStat; 5],
}

impl<M> TimedMac<M> {
    /// Wraps `inner`.
    pub fn new(inner: M) -> Self {
        TimedMac {
            inner,
            calls: Default::default(),
        }
    }
}

impl<M: Mac> Mac for TimedMac<M> {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        let inner = &mut self.inner;
        self.calls[0].time(|| inner.start(ctx));
    }

    fn send(
        &mut self,
        ctx: &mut Ctx<'_>,
        dst: Dst,
        upper_port: u8,
        payload: Vec<u8>,
    ) -> Result<SendHandle, MacError> {
        let inner = &mut self.inner;
        self.calls[1].time(|| inner.send(ctx, dst, upper_port, payload))
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, timer: Timer, out: &mut Vec<MacEvent>) -> bool {
        let inner = &mut self.inner;
        self.calls[2].time(|| inner.on_timer(ctx, timer, out))
    }

    fn on_frame(
        &mut self,
        ctx: &mut Ctx<'_>,
        frame: &Frame,
        info: RxInfo,
        out: &mut Vec<MacEvent>,
    ) {
        let inner = &mut self.inner;
        self.calls[3].time(|| inner.on_frame(ctx, frame, info, out));
    }

    fn on_tx_done(&mut self, ctx: &mut Ctx<'_>, outcome: TxOutcome, out: &mut Vec<MacEvent>) {
        let inner = &mut self.inner;
        self.calls[4].time(|| inner.on_tx_done(ctx, outcome, out));
    }

    fn crashed(&mut self) {
        self.inner.crashed();
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn radio_port(&self) -> u8 {
        self.inner.radio_port()
    }
}

/// Adds `calls` into `totals`, element by element.
pub fn accumulate(totals: &mut [CallStat; 5], calls: &[CallStat; 5]) {
    for (t, c) in totals.iter_mut().zip(calls) {
        t.add(*c);
    }
}

/// Sum over a per-callback array.
pub fn total(calls: &[CallStat; 5]) -> CallStat {
    let mut sum = CallStat::default();
    for c in calls {
        sum.add(*c);
    }
    sum
}
