//! Downlink command & control: cloud-issued writes routed through a
//! gateway's northbound CoAP surface.
//!
//! Tenants submit [`Command`]s into a bounded downlink queue (same
//! explicit-backpressure discipline as ingest: a capped queue, shed on
//! full). [`CommandRouter::flush`] then plays the queue against a
//! gateway CoAP endpoint as confirmable PUTs, shuttling datagrams both
//! ways in virtual time and classifying each response: `2.04 Changed`
//! is an acknowledged command, anything else a failure. The gateway
//! applies accepted writes to its southbound adapters on its next
//! poll — the same path a local CoAP client would take, so the cloud
//! tier adds no second write authority. A deployment's application
//! rules issue their writes as commands on this one downlink too
//! (`iiot_core::Northbound`), beside the commands a tenant submits.

use crate::tenant::TenantId;
use iiot_coap::{CoapEndpoint, CoapEvent, Code};
use iiot_sim::SimTime;
use std::collections::VecDeque;

/// The router's own peer address on the two-endpoint CoAP link.
const CLOUD_PEER: u64 = 0xC10D;
/// The gateway's peer address, from the router's point of view.
const GATEWAY_PEER: u64 = 1;

/// One downlink write: set `point` to `value` on the tenant's behalf.
#[derive(Clone, Debug, PartialEq)]
pub struct Command {
    /// The issuing tenant (for fairness accounting and tracing).
    pub tenant: TenantId,
    /// Gateway point path, e.g. `"plant/boiler/setpoint"`.
    pub point: String,
    /// The value to write.
    pub value: f64,
}

/// Outcome of one flushed command.
#[derive(Clone, Debug, PartialEq)]
pub struct CommandOutcome {
    /// The issuing tenant.
    pub tenant: TenantId,
    /// The targeted point.
    pub point: String,
    /// Whether the gateway acknowledged with `2.04 Changed`.
    pub ok: bool,
}

/// Bounded downlink queue + CoAP client; see the [module docs](self).
pub struct CommandRouter {
    queue: VecDeque<Command>,
    /// Most commands `queue` may hold; 0 still holds one, as it always
    /// has.
    cap: usize,
    client: CoapEndpoint<u64>,
}

impl CommandRouter {
    /// A router whose downlink queue holds at most `cap` pending
    /// commands; `seed` feeds the CoAP endpoint's retransmission
    /// jitter (deterministic per seed).
    pub fn new(cap: usize, seed: u64) -> Self {
        CommandRouter {
            queue: VecDeque::new(),
            cap: cap.max(1),
            client: CoapEndpoint::new(seed),
        }
    }

    /// Enqueues a command; sheds it (returning `false`) when the
    /// downlink queue is full. Never blocks.
    pub fn submit(&mut self, cmd: Command) -> bool {
        if self.queue.len() >= self.cap {
            return false;
        }
        self.queue.push_back(cmd);
        true
    }

    /// Commands currently queued for downlink.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Plays every queued command against `gateway` (its northbound
    /// CoAP server — e.g. `Gateway::coap_mut()`) at instant `now`,
    /// returning one outcome per command in submission order.
    pub fn flush(&mut self, gateway: &mut CoapEndpoint<u64>, now: SimTime) -> Vec<CommandOutcome> {
        let mut sent: Vec<(Vec<u8>, Command)> = Vec::new();
        for cmd in self.queue.drain(..) {
            let payload = format!("{}", cmd.value).into_bytes();
            let token = self.client.put(GATEWAY_PEER, &cmd.point, payload, now);
            sent.push((token, cmd));
        }
        if sent.is_empty() {
            return Vec::new();
        }
        // Shuttle datagrams until both sides go quiet (requests, then
        // responses; blockwise transfers may take several rounds). Only
        // what the gateway addresses to the router is the router's: a
        // notification to another observer stays in its outbox.
        loop {
            let out = self.client.take_outbox();
            let back = gateway.take_outbox_to(CLOUD_PEER);
            if out.is_empty() && back.is_empty() {
                break;
            }
            for (_, dgram) in out {
                gateway.handle_datagram(CLOUD_PEER, &dgram, now);
            }
            for (_, dgram) in back {
                self.client.handle_datagram(GATEWAY_PEER, &dgram, now);
            }
        }
        let events = self.client.take_events();
        sent.into_iter()
            .map(|(token, cmd)| {
                let ok = events.iter().any(|e| match e {
                    CoapEvent::Response { token: t, code, .. } => {
                        *t == token && *code == Code::Changed
                    }
                    CoapEvent::RequestFailed { .. } => false,
                });
                CommandOutcome {
                    tenant: cmd.tenant,
                    point: cmd.point,
                    ok,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iiot_coap::resource::Response;

    /// A gateway-shaped CoAP server: one writable point, one
    /// read-only point.
    fn server() -> CoapEndpoint<u64> {
        let mut s: CoapEndpoint<u64> = CoapEndpoint::new(7);
        s.add_resource(
            "plant/boiler/setpoint",
            Box::new(|req| match req.method {
                Code::Put => Response::changed(),
                _ => Response::method_not_allowed(),
            }),
        );
        s.add_resource(
            "plant/boiler/temp",
            Box::new(|_| Response::method_not_allowed()),
        );
        s
    }

    fn cmd(point: &str, value: f64) -> Command {
        Command {
            tenant: TenantId(0),
            point: point.to_owned(),
            value,
        }
    }

    #[test]
    fn writable_point_acks_readonly_point_fails() {
        let mut router = CommandRouter::new(16, 42);
        let mut gw = server();
        assert!(router.submit(cmd("plant/boiler/setpoint", 72.5)));
        assert!(router.submit(cmd("plant/boiler/temp", 1.0)));
        let out = router.flush(&mut gw, SimTime::ZERO);
        assert_eq!(out.len(), 2);
        assert!(out[0].ok, "writable point must ack");
        assert!(!out[1].ok, "read-only point must fail");
        assert_eq!(router.pending(), 0);
    }

    #[test]
    fn downlink_queue_is_bounded_and_sheds() {
        let mut router = CommandRouter::new(2, 42);
        assert!(router.submit(cmd("a", 1.0)));
        assert!(router.submit(cmd("b", 2.0)));
        assert!(!router.submit(cmd("c", 3.0)), "third command must shed");
        assert_eq!(router.pending(), 2);
    }

    #[test]
    fn flush_leaves_other_peers_datagrams_queued() {
        let mut gw = server();
        gw.add_resource(
            "plant/boiler/temp/obs",
            Box::new(|_| Response::content(b"80.5".to_vec())),
        );
        // A SCADA client observes a point; a notification to it is
        // pending in the gateway's outbox when the router flushes.
        const SCADA: u64 = 5;
        let mut scada: CoapEndpoint<u64> = CoapEndpoint::new(9);
        scada.observe(0, "plant/boiler/temp/obs", SimTime::ZERO);
        for (_, d) in scada.take_outbox() {
            gw.handle_datagram(SCADA, &d, SimTime::ZERO);
        }
        gw.take_outbox(); // registration response, delivered
        gw.notify("plant/boiler/temp/obs", SimTime::ZERO);

        let mut router = CommandRouter::new(16, 42);
        router.submit(cmd("plant/boiler/setpoint", 65.0));
        let out = router.flush(&mut gw, SimTime::ZERO);
        assert!(out[0].ok, "{out:?}");
        let left: Vec<u64> = gw.take_outbox().into_iter().map(|(p, _)| p).collect();
        assert_eq!(left, [SCADA], "the observer's notification stays queued");
    }

    #[test]
    fn flush_with_empty_queue_is_a_no_op() {
        let mut router = CommandRouter::new(4, 42);
        let mut gw = server();
        assert!(router.flush(&mut gw, SimTime::ZERO).is_empty());
    }
}
