//! The protocol interface implemented by simulated node software.

use crate::ids::{NodeId, TimerId};
use crate::radio::{Frame, RxInfo, TxOutcome};
use crate::world::Ctx;
use std::any::Any;

/// A fired timer, as delivered to [`Proto::timer`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Timer {
    /// The id returned by [`Ctx::set_timer`](crate::world::Ctx::set_timer).
    pub id: TimerId,
    /// The caller-chosen tag, used to multiplex timer purposes.
    pub tag: u64,
}

/// Upcasting support for protocol downcasts.
///
/// Blanket-implemented for every `'static` type, so [`Proto`]
/// implementations get `as_any`/`as_any_mut` for free: the supertrait
/// bound on [`Proto`] is what lets [`Sim::proto`] downcast a
/// `dyn Proto` back to its concrete type without each protocol writing
/// the two-line boilerplate by hand.
///
/// [`Sim::proto`]: crate::sim::Sim::proto
pub trait AsAny: Any {
    /// Upcast for downcasting to the concrete type.
    fn as_any(&self) -> &dyn Any;

    /// Mutable upcast for downcasting to the concrete type.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<T: Any> AsAny for T {
    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The software running on one simulated node.
///
/// A `Proto` is a state machine driven entirely by callbacks: the world
/// calls [`start`](Proto::start) once (and again after a crash-recovery),
/// then delivers timers, received frames, transmission completions and
/// backhaul ("wire") messages. All side effects go through the [`Ctx`]
/// handed to each callback.
///
/// Downcasting (so experiments can inspect final protocol state) comes
/// for free through the [`AsAny`] supertrait; implementations only
/// write the callbacks they care about.
///
/// # Examples
///
/// ```
/// use iiot_sim::node::{Proto, Timer};
/// use iiot_sim::world::Ctx;
///
/// /// Counts how many times its periodic timer fired.
/// struct Ticker {
///     period_ms: u64,
///     fired: u32,
/// }
///
/// impl Proto for Ticker {
///     fn start(&mut self, ctx: &mut Ctx<'_>) {
///         ctx.set_timer(iiot_sim::time::SimDuration::from_millis(self.period_ms), 0);
///     }
///     fn timer(&mut self, ctx: &mut Ctx<'_>, _t: Timer) {
///         self.fired += 1;
///         ctx.set_timer(iiot_sim::time::SimDuration::from_millis(self.period_ms), 0);
///     }
/// }
/// ```
pub trait Proto: AsAny {
    /// Called once when the node boots (time of node creation) and again
    /// after every crash-recovery ([`Sim::revive`](crate::sim::Sim::revive)).
    fn start(&mut self, ctx: &mut Ctx<'_>);

    /// A timer set through [`Ctx::set_timer`](crate::world::Ctx::set_timer)
    /// fired.
    fn timer(&mut self, ctx: &mut Ctx<'_>, timer: Timer) {
        let _ = (ctx, timer);
    }

    /// A frame was received by the radio (and passed address filtering).
    fn frame(&mut self, ctx: &mut Ctx<'_>, frame: &Frame, info: RxInfo) {
        let _ = (ctx, frame, info);
    }

    /// A transmission started with [`Ctx::transmit`](crate::world::Ctx::transmit)
    /// left the air.
    fn tx_done(&mut self, ctx: &mut Ctx<'_>, outcome: TxOutcome) {
        let _ = (ctx, outcome);
    }

    /// A backhaul message sent with
    /// [`Ctx::wire_send`](crate::world::Ctx::wire_send) arrived. Models
    /// the wired/IP side of border routers.
    fn wire(&mut self, ctx: &mut Ctx<'_>, from: NodeId, payload: &[u8]) {
        let _ = (ctx, from, payload);
    }

    /// The node crashed (fault injection). Volatile state should be
    /// cleared here; state the implementation considers "persisted to
    /// flash" may be kept. After a later revive, [`start`](Proto::start)
    /// runs again.
    fn crashed(&mut self) {}

    /// The node crashed *and lost its non-volatile storage* (flash
    /// corruption, full reimage). Everything must go — implementations
    /// that persist state across [`crashed`](Proto::crashed) (e.g. a
    /// dissemination page store) must discard it here too. The default
    /// delegates to `crashed`, which is correct for protocols that keep
    /// nothing in "flash". Selected per crash by the
    /// [`Fault::CrashRecover`](crate::fault::Fault::CrashRecover) that
    /// causes it.
    fn wiped(&mut self) {
        self.crashed();
    }
}

/// What a crashed node loses, carried by each
/// [`Fault::CrashRecover`](crate::fault::Fault::CrashRecover).
///
/// Real motes lose RAM on every reboot but keep external flash; a
/// repair-by-reflash or storage fault loses both. RAM loss only
/// matches how fielded crash-recovery behaves, and is what
/// [`Sim::kill`](crate::sim::Sim::kill) and a permanent
/// [`Fault::Crash`](crate::fault::Fault::Crash) do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StateLoss {
    /// RAM is lost, "flash" survives: the crash calls
    /// [`Proto::crashed`].
    Ram,
    /// RAM *and* flash are lost: the crash calls [`Proto::wiped`], so a
    /// revived node restarts truly from zero.
    Full,
}

/// A protocol that does nothing; useful as a placeholder (e.g. for nodes
/// that only relay at the MAC layer in a test).
#[derive(Debug, Default, Clone, Copy)]
pub struct Idle;

impl Proto for Idle {
    fn start(&mut self, _ctx: &mut Ctx<'_>) {}
}
