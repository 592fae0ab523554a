//! Integration: the CoAP middleware running over the simulator's
//! backhaul transport — an IP-side client talking to a border-router
//! CoAP server, with injected datagram loss exercising the confirmable
//! retransmission machinery under simulated time.

use iiot::coap::resource::Response;
use iiot::coap::{CoapEndpoint, CoapEvent, Code};
use iiot::sim::prelude::*;
use rand::Rng;

const TAG_COAP_TIMER: u64 = 0x700;

/// A sim node hosting a CoAP endpoint over the wire transport.
struct CoapWireNode {
    ep: CoapEndpoint<u64>,
    /// Per-datagram drop probability (injected loss).
    loss: f64,
    /// Events the application observed.
    events: Vec<CoapEvent>,
    /// Script: at (time, peer, path) issue a GET.
    gets: Vec<(SimTime, NodeId, &'static str)>,
    next_get: usize,
    /// Datagrams the injected backhaul loss dropped.
    dropped: u32,
}

impl CoapWireNode {
    fn new(seed: u64, loss: f64) -> Self {
        CoapWireNode {
            ep: CoapEndpoint::new(seed),
            loss,
            events: Vec::new(),
            gets: Vec::new(),
            next_get: 0,
            dropped: 0,
        }
    }

    fn flush(&mut self, ctx: &mut Ctx<'_>) {
        for attempt in self.ep.take_retransmissions() {
            ctx.emit(EventKind::CoapRetx { attempt });
        }
        for (peer, dgram) in self.ep.take_outbox() {
            // Injected backhaul loss.
            if ctx.rng().gen::<f64>() < self.loss {
                self.dropped += 1;
                continue;
            }
            ctx.wire_send(NodeId(peer as u32), dgram);
        }
        self.events.extend(self.ep.take_events());
        if let Some(at) = self.ep.next_wakeup() {
            ctx.set_timer_at(at.max(ctx.now()), TAG_COAP_TIMER);
        }
    }
}

impl Proto for CoapWireNode {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(&(at, _, _)) = self.gets.first() {
            ctx.set_timer_at(at, 0x701);
        }
        self.flush(ctx);
    }

    fn timer(&mut self, ctx: &mut Ctx<'_>, timer: Timer) {
        match timer.tag {
            TAG_COAP_TIMER => {
                self.ep.poll_timers(ctx.now());
                self.flush(ctx);
            }
            0x701 => {
                if let Some(&(_, peer, path)) = self.gets.get(self.next_get) {
                    self.next_get += 1;
                    self.ep.get(peer.0 as u64, path, ctx.now());
                    if let Some(&(at, _, _)) = self.gets.get(self.next_get) {
                        ctx.set_timer_at(at.max(ctx.now()), 0x701);
                    }
                    self.flush(ctx);
                }
            }
            _ => {}
        }
    }

    fn wire(&mut self, ctx: &mut Ctx<'_>, from: NodeId, payload: &[u8]) {
        self.ep.handle_datagram(from.0 as u64, payload, ctx.now());
        self.flush(ctx);
    }
}

fn run(loss: f64, seed: u64, gets: usize) -> (usize, usize, f64) {
    let server_id = NodeId(0);
    let client_id = NodeId(1);
    let mut w = SimBuilder::new()
        .seed(seed)
        .nodes(
            std::iter::once(Pos::new(0.0, 0.0)).collect::<Topology>(),
            move |_| {
                let mut server = CoapWireNode::new(1, loss);
                server.ep.add_resource(
                    "plant/temp",
                    Box::new(|_| Response::content(b"21.5".to_vec())),
                );
                Box::new(server)
            },
        )
        .nodes(
            std::iter::once(Pos::new(1000.0, 0.0)).collect::<Topology>(),
            move |_| {
                let mut client = CoapWireNode::new(2, loss);
                for k in 0..gets {
                    client.gets.push((
                        SimTime::from_secs(1 + 5 * k as u64),
                        server_id,
                        "plant/temp",
                    ));
                }
                Box::new(client)
            },
        )
        .build();

    w.run_for(SimDuration::from_secs(gets as u64 * 5 + 120));
    let c = w.proto::<CoapWireNode>(client_id);
    let ok = c
        .events
        .iter()
        .filter(|e| matches!(e, CoapEvent::Response { code: Code::Content, payload, .. } if payload == b"21.5"))
        .count();
    let failed = c
        .events
        .iter()
        .filter(|e| matches!(e, CoapEvent::RequestFailed { .. }))
        .count();
    let dropped = [client_id, server_id].map(|n| w.proto::<CoapWireNode>(n).dropped);
    (ok, failed, f64::from(dropped[0] + dropped[1]))
}

#[test]
fn lossless_backhaul_every_get_succeeds() {
    let (ok, failed, dropped) = run(0.0, 10, 8);
    assert_eq!(ok, 8);
    assert_eq!(failed, 0);
    assert_eq!(dropped, 0.0);
}

#[test]
fn retransmission_masks_moderate_loss() {
    // 20% datagram loss: CON retransmission (up to 4 retries with
    // exponential backoff) should recover essentially every exchange.
    let (ok, failed, dropped) = run(0.2, 11, 10);
    assert!(dropped > 0.0, "loss must actually have been injected");
    assert!(ok >= 9, "only {ok}/10 under 20% loss");
    assert_eq!(ok + failed, 10, "every exchange must terminate");
}

#[test]
fn heavy_loss_reports_failures_not_hangs() {
    // 70% loss: many exchanges will exhaust retransmissions, but every
    // one must end in either a response or a failure event.
    let (ok, failed, _) = run(0.7, 12, 10);
    assert_eq!(ok + failed, 10, "exchanges must not hang");
    assert!(failed > 0, "under 70% loss some requests should fail");
}

#[test]
fn deterministic_per_seed() {
    assert_eq!(run(0.3, 42, 6), run(0.3, 42, 6));
    assert_ne!(run(0.3, 42, 6).0, 0);
}
