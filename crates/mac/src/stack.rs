//! The one way to host a [`Mac`] under upper-layer protocols.
//!
//! A [`Stack`] owns the MAC and the scratch buffer its callbacks push
//! [`MacEvent`]s into. A node type holds a `Stack` beside its protocol
//! state, forwards the five [`Proto`](iiot_sim::Proto) callbacks to it,
//! and implements [`Service`] on the state: the stack makes the MAC
//! call, tells MAC timers from the service's own, and hands each event
//! over in the order the MAC pushed it. A service is *lent* the MAC per
//! call instead of owning it, so several can share one radio: a pair
//! `(A, B)` of services is itself a service.
//!
//! ```
//! use iiot_mac::csma::CsmaMac;
//! use iiot_mac::{Mac, Service, Stack};
//! use iiot_sim::prelude::*;
//!
//! /// Says hello once; counts the hellos it hears.
//! struct Hello(u32);
//!
//! impl<M: Mac> Service<M> for Hello {
//!     fn start(&mut self, mac: &mut M, ctx: &mut Ctx<'_>) {
//!         mac.send(ctx, Dst::Broadcast, 9, b"hi".to_vec()).expect("empty queue");
//!     }
//!     fn delivered(&mut self, _: &mut M, _: &mut Ctx<'_>, _src: NodeId, port: u8, _: &[u8]) {
//!         self.0 += u32::from(port == 9);
//!     }
//! }
//!
//! struct Node(Stack<CsmaMac>, Hello);
//!
//! impl Proto for Node {
//!     fn start(&mut self, ctx: &mut Ctx<'_>) {
//!         self.0.start(&mut self.1, ctx);
//!     }
//!     fn timer(&mut self, ctx: &mut Ctx<'_>, timer: Timer) {
//!         self.0.timer(&mut self.1, ctx, timer);
//!     }
//!     fn frame(&mut self, ctx: &mut Ctx<'_>, frame: &Frame, info: RxInfo) {
//!         self.0.frame(&mut self.1, ctx, frame, info);
//!     }
//!     fn tx_done(&mut self, ctx: &mut Ctx<'_>, outcome: TxOutcome) {
//!         self.0.tx_done(&mut self.1, ctx, outcome);
//!     }
//!     fn crashed(&mut self) {
//!         self.0.crashed(&mut self.1);
//!     }
//! }
//!
//! let mut sim = SimBuilder::new()
//!     .nodes(Topology::line(3, 10.0), |_| {
//!         Box::new(Node(Stack::new(CsmaMac::default()), Hello(0)))
//!     })
//!     .build();
//! sim.run(SimDuration::from_secs(1));
//! assert_eq!(sim.proto::<Node>(NodeId(1)).1 .0, 2);
//! ```

use crate::{Mac, MacEvent, SendHandle};
use iiot_sim::{Ctx, Frame, NodeId, RxInfo, Timer, TxOutcome};

/// An upper-layer protocol hosted on a [`Stack`]: what is left of a
/// node once the MAC plumbing is taken out. Every method that can send
/// is lent the stack's MAC for the duration of the call.
///
/// Services compose without a port table: upper ports and timer tags
/// are allocated disjointly across the workspace, and every service
/// ignores deliveries, completions and timers that are not its own.
pub trait Service<M: Mac> {
    /// The node booted or was revived; the MAC has already started.
    fn start(&mut self, mac: &mut M, ctx: &mut Ctx<'_>) {
        let _ = (mac, ctx);
    }

    /// A payload arrived from `src` on upper-layer `port`.
    fn delivered(&mut self, mac: &mut M, ctx: &mut Ctx<'_>, src: NodeId, port: u8, payload: &[u8]);

    /// A [`Mac::send`] finished. `handle` may be another service's.
    fn send_done(&mut self, mac: &mut M, ctx: &mut Ctx<'_>, handle: SendHandle, acked: bool) {
        let _ = (mac, ctx, handle, acked);
    }

    /// A timer the MAC did not claim fired. It may be another service's.
    fn timer(&mut self, mac: &mut M, ctx: &mut Ctx<'_>, timer: Timer) {
        let _ = (mac, ctx, timer);
    }

    /// The node crashed: forget what lives in RAM.
    fn crashed(&mut self) {}
}

/// Two services on one MAC: each call goes to `A`, then to `B`.
impl<M: Mac, A: Service<M>, B: Service<M>> Service<M> for (A, B) {
    fn start(&mut self, mac: &mut M, ctx: &mut Ctx<'_>) {
        self.0.start(mac, ctx);
        self.1.start(mac, ctx);
    }

    fn delivered(&mut self, mac: &mut M, ctx: &mut Ctx<'_>, src: NodeId, port: u8, payload: &[u8]) {
        self.0.delivered(mac, ctx, src, port, payload);
        self.1.delivered(mac, ctx, src, port, payload);
    }

    fn send_done(&mut self, mac: &mut M, ctx: &mut Ctx<'_>, handle: SendHandle, acked: bool) {
        self.0.send_done(mac, ctx, handle, acked);
        self.1.send_done(mac, ctx, handle, acked);
    }

    fn timer(&mut self, mac: &mut M, ctx: &mut Ctx<'_>, timer: Timer) {
        self.0.timer(mac, ctx, timer);
        self.1.timer(mac, ctx, timer);
    }

    fn crashed(&mut self) {
        self.0.crashed();
        self.1.crashed();
    }
}

/// A MAC and the event buffer its callbacks fill; see the
/// [module docs](self). The buffer is reused, so a callback that
/// produces events allocates nothing once it has grown.
#[derive(Debug)]
pub struct Stack<M: Mac> {
    mac: M,
    events: Vec<MacEvent>,
}

impl<M: Mac> Stack<M> {
    /// Hosts `mac`.
    pub fn new(mac: M) -> Self {
        Stack {
            mac,
            events: Vec::new(),
        }
    }

    /// The hosted MAC.
    pub fn mac(&self) -> &M {
        &self.mac
    }

    /// The hosted MAC, to lend to a service outside a callback (e.g.
    /// from [`Sim::with`](iiot_sim::Sim::with)).
    pub fn mac_mut(&mut self) -> &mut M {
        &mut self.mac
    }

    /// [`Proto::start`](iiot_sim::Proto::start): the MAC, then `svc`.
    pub fn start(&mut self, svc: &mut impl Service<M>, ctx: &mut Ctx<'_>) {
        self.mac.start(ctx);
        svc.start(&mut self.mac, ctx);
    }

    /// [`Proto::timer`](iiot_sim::Proto::timer): the MAC's own timers
    /// yield events, any other goes to `svc`.
    pub fn timer(&mut self, svc: &mut impl Service<M>, ctx: &mut Ctx<'_>, timer: Timer) {
        if self.mac.on_timer(ctx, timer, &mut self.events) {
            self.drain(svc, ctx);
        } else {
            svc.timer(&mut self.mac, ctx, timer);
        }
    }

    /// [`Proto::frame`](iiot_sim::Proto::frame).
    pub fn frame(
        &mut self,
        svc: &mut impl Service<M>,
        ctx: &mut Ctx<'_>,
        frame: &Frame,
        info: RxInfo,
    ) {
        self.mac.on_frame(ctx, frame, info, &mut self.events);
        self.drain(svc, ctx);
    }

    /// [`Proto::tx_done`](iiot_sim::Proto::tx_done).
    pub fn tx_done(&mut self, svc: &mut impl Service<M>, ctx: &mut Ctx<'_>, outcome: TxOutcome) {
        self.mac.on_tx_done(ctx, outcome, &mut self.events);
        self.drain(svc, ctx);
    }

    /// [`Proto::crashed`](iiot_sim::Proto::crashed): the MAC, the
    /// buffer and `svc` all lose their RAM.
    pub fn crashed(&mut self, svc: &mut impl Service<M>) {
        self.mac.crashed();
        self.events.clear();
        svc.crashed();
    }

    /// Hands the buffered events to `svc` in push order.
    fn drain(&mut self, svc: &mut impl Service<M>, ctx: &mut Ctx<'_>) {
        for ev in self.events.drain(..) {
            match ev {
                MacEvent::Delivered {
                    src,
                    upper_port,
                    payload,
                    ..
                } => svc.delivered(&mut self.mac, ctx, src, upper_port, &payload),
                MacEvent::SendDone { handle, acked } => {
                    svc.send_done(&mut self.mac, ctx, handle, acked);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{is_mac_tag, MacError, MAC_TAG_BASE};
    use iiot_sim::prelude::*;

    /// Pushes the same three events from every callback it claims.
    #[derive(Default)]
    struct Burst {
        crashes: u32,
    }

    impl Mac for Burst {
        fn start(&mut self, _: &mut Ctx<'_>) {}
        fn send(
            &mut self,
            _: &mut Ctx<'_>,
            _: Dst,
            _: u8,
            _: Vec<u8>,
        ) -> Result<SendHandle, MacError> {
            Err(MacError::QueueFull)
        }
        fn on_timer(&mut self, _: &mut Ctx<'_>, timer: Timer, out: &mut Vec<MacEvent>) -> bool {
            if is_mac_tag(timer.tag) {
                self.burst(out);
            }
            is_mac_tag(timer.tag)
        }
        fn on_frame(&mut self, _: &mut Ctx<'_>, _: &Frame, _: RxInfo, out: &mut Vec<MacEvent>) {
            self.burst(out);
        }
        fn on_tx_done(&mut self, _: &mut Ctx<'_>, _: TxOutcome, out: &mut Vec<MacEvent>) {
            self.burst(out);
        }
        fn crashed(&mut self) {
            self.crashes += 1;
        }
        fn name(&self) -> &'static str {
            "burst"
        }
        fn radio_port(&self) -> u8 {
            0
        }
    }

    impl Burst {
        fn burst(&self, out: &mut Vec<MacEvent>) {
            out.push(delivered(1));
            out.push(MacEvent::SendDone {
                handle: SendHandle(7),
                acked: true,
            });
            out.push(delivered(2));
        }
    }

    fn info() -> RxInfo {
        RxInfo {
            rssi_dbm: -60.0,
            channel: 0,
            started: SimTime::ZERO,
        }
    }

    fn delivered(upper_port: u8) -> MacEvent {
        MacEvent::Delivered {
            src: NodeId(9),
            upper_port,
            payload: vec![upper_port; 3],
            info: info(),
        }
    }

    /// Records what it is handed, tagged so a pair's halves can share
    /// one assertion.
    #[derive(Default)]
    struct Log {
        seen: Vec<String>,
        crashes: u32,
    }

    impl Service<Burst> for Log {
        fn delivered(
            &mut self,
            _: &mut Burst,
            _: &mut Ctx<'_>,
            src: NodeId,
            port: u8,
            payload: &[u8],
        ) {
            assert_eq!((src, payload), (NodeId(9), &[port; 3][..]));
            self.seen.push(format!("rx{port}"));
        }
        fn send_done(&mut self, _: &mut Burst, _: &mut Ctx<'_>, handle: SendHandle, acked: bool) {
            assert!(acked);
            self.seen.push(format!("done{}", handle.0));
        }
        fn timer(&mut self, _: &mut Burst, _: &mut Ctx<'_>, timer: Timer) {
            self.seen.push(format!("timer{:#x}", timer.tag));
        }
        fn crashed(&mut self) {
            self.crashes += 1;
        }
    }

    struct Host(Stack<Burst>, (Log, Log));

    impl Proto for Host {
        fn start(&mut self, _: &mut Ctx<'_>) {}
    }

    fn timer(tag: u64) -> Timer {
        Timer {
            id: TimerId::NONE,
            tag,
        }
    }

    #[test]
    fn events_reach_services_in_push_order_through_one_reused_buffer() {
        let mut sim = SimBuilder::new()
            .nodes(Topology::line(1, 1.0), |_| {
                Box::new(Host(Stack::new(Burst::default()), Default::default()))
            })
            .build();
        sim.with(NodeId(0), |Host(stack, pair): &mut Host, ctx| {
            let frame = Frame::new(NodeId(9), Dst::Broadcast, 0, vec![]);
            stack.frame(pair, ctx, &frame, info());
            assert_eq!(pair.0.seen, ["rx1", "done7", "rx2"]);
            assert!(stack.events.is_empty());
            let grown = (stack.events.as_ptr(), stack.events.capacity());
            assert!(grown.1 >= 3);

            // Later callbacks fill the same allocation.
            stack.tx_done(
                pair,
                ctx,
                TxOutcome {
                    oracle_receivers: 0,
                },
            );
            stack.frame(pair, ctx, &frame, info());
            assert_eq!(pair.0.seen.len(), 9);
            assert!(stack.events.is_empty());
            assert_eq!((stack.events.as_ptr(), stack.events.capacity()), grown);

            // The MAC's timers yield its events; any other is the
            // services' own.
            pair.0.seen.clear();
            pair.1.seen.clear();
            stack.timer(pair, ctx, timer(MAC_TAG_BASE | 1));
            assert_eq!(pair.0.seen, ["rx1", "done7", "rx2"]);
            stack.timer(pair, ctx, timer(0x5C));
            assert_eq!(pair.0.seen[3..], ["timer0x5c"]);
            assert_eq!(
                pair.0.seen, pair.1.seen,
                "both halves of a pair see every call"
            );

            // A crash loses whatever was still buffered.
            stack.events.push(delivered(3));
            stack.crashed(pair);
            assert!(stack.events.is_empty());
            assert_eq!(
                (stack.mac.crashes, pair.0.crashes, pair.1.crashes),
                (1, 1, 1)
            );
            assert_eq!(pair.0.seen.len(), 4, "nothing was delivered by the crash");
        });
    }
}
