//! The border router's northbound face: exposing the wireless
//! collection results of a [`Deployment`] as CoAP resources — the
//! sensornet-to-IP bridging role the paper assigns to border routers
//! (§IV-B) and the missing half of the Fig. 1 integration (the
//! [`Gateway`](iiot_gateway::Gateway) covers wired legacy devices; this
//! covers the low-power wireless side).

use crate::deployment::Deployment;
use iiot_coap::resource::Response;
use iiot_coap::{CoapEndpoint, Code, EndpointConfig};
use iiot_sim::{NodeId, SimTime};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Latest per-origin reading, as served northbound.
#[derive(Clone, Debug, PartialEq)]
pub struct NodeReading {
    /// Origin-local sequence number.
    pub seq: u16,
    /// Hops the reading travelled.
    pub hops: u8,
    /// When the origin generated it.
    pub sent_at: SimTime,
    /// The raw payload.
    pub payload: Vec<u8>,
}

type Cache = Arc<Mutex<BTreeMap<u32, NodeReading>>>;

/// A CoAP server publishing a deployment's collected readings at
/// `nodes/<id>/latest`, with Observe support for push updates.
///
/// Drive it by calling [`refresh`](BorderRouter::refresh) whenever the
/// deployment has run; new readings update the resources and notify
/// observers.
pub struct BorderRouter {
    ep: CoapEndpoint<u64>,
    cache: Cache,
    /// How many root-collected entries have been absorbed so far.
    absorbed: usize,
    registered: Vec<u32>,
}

impl BorderRouter {
    /// A border router with an empty northbound namespace.
    pub fn new(seed: u64) -> Self {
        BorderRouter {
            ep: CoapEndpoint::new(EndpointConfig::default(), seed),
            cache: Arc::new(Mutex::new(BTreeMap::new())),
            absorbed: 0,
            registered: Vec::new(),
        }
    }

    /// The CoAP endpoint to wire to a northbound transport.
    pub fn coap_mut(&mut self) -> &mut CoapEndpoint<u64> {
        &mut self.ep
    }

    /// The latest reading of `origin`, if any arrived.
    pub fn latest(&self, origin: NodeId) -> Option<NodeReading> {
        self.cache.lock().get(&origin.0).cloned()
    }

    fn register(&mut self, origin: u32) {
        if self.registered.contains(&origin) {
            return;
        }
        self.registered.push(origin);
        let cache = Arc::clone(&self.cache);
        self.ep.add_resource(
            &format!("nodes/{origin}/latest"),
            Box::new(move |req| {
                if req.method != Code::Get {
                    return Response::method_not_allowed();
                }
                match cache.lock().get(&origin) {
                    Some(r) => Response::content(
                        format!(
                            "seq={} hops={} at={} len={}",
                            r.seq,
                            r.hops,
                            r.sent_at,
                            r.payload.len()
                        )
                        .into_bytes(),
                    ),
                    None => Response {
                        code: Code::ServiceUnavailable,
                        payload: Vec::new(),
                    },
                }
            }),
        );
    }

    /// Absorbs readings the deployment's root collected since the last
    /// call: updates resources and notifies observers. Returns how many
    /// new readings were absorbed.
    pub fn refresh(&mut self, deployment: &Deployment, now: SimTime) -> usize {
        let total = deployment.collected_count();
        if total <= self.absorbed {
            return 0;
        }
        // Per-origin state is rebuilt from per-origin counters to stay
        // independent of the deployment's MAC-specific internals.
        let mut fresh = 0;
        let mut touched: Vec<u32> = Vec::new();
        for &origin in &deployment.nodes {
            if origin == deployment.root {
                continue;
            }
            let count = deployment.collected_from(origin);
            if count == 0 {
                continue;
            }
            let entry = deployment.latest_from(origin).expect("count > 0");
            let mut cache = self.cache.lock();
            let known = cache.get(&origin.0);
            if known.map(|k| k.seq) != Some(entry.seq) {
                cache.insert(
                    origin.0,
                    NodeReading {
                        seq: entry.seq,
                        hops: entry.hops,
                        sent_at: entry.sent_at,
                        payload: entry.payload.clone(),
                    },
                );
                drop(cache);
                self.register(origin.0);
                touched.push(origin.0);
                fresh += 1;
            }
        }
        for origin in touched {
            self.ep.notify(&format!("nodes/{origin}/latest"), now);
        }
        self.absorbed = total;
        fresh
    }
}

impl std::fmt::Debug for BorderRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BorderRouter")
            .field("resources", &self.registered.len())
            .field("absorbed", &self.absorbed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deployment::MacChoice;
    use iiot_coap::CoapEvent;
    use iiot_sim::{SimDuration, Topology};

    fn deployment() -> Deployment {
        let mut d = Deployment::builder(Topology::line(3, 20.0))
            .mac(MacChoice::Csma)
            .seed(0xB0)
            .traffic(SimDuration::from_secs(5), 6, SimDuration::from_secs(10))
            .build();
        d.run_for(SimDuration::from_secs(30));
        d
    }

    #[test]
    fn refresh_absorbs_and_serves() {
        let d = deployment();
        let mut br = BorderRouter::new(1);
        let fresh = br.refresh(&d, d.sim.now());
        assert_eq!(fresh, 2, "one latest reading per origin");
        assert!(br.latest(NodeId(2)).is_some());
        assert!(br.latest(NodeId(0)).is_none(), "the root is not a sensor");

        // Northbound read.
        let mut client: CoapEndpoint<u64> = CoapEndpoint::new(EndpointConfig::default(), 9);
        client.get(0, "nodes/2/latest", SimTime::ZERO);
        for (_, dgram) in client.take_outbox() {
            br.coap_mut().handle_datagram(1, &dgram, SimTime::ZERO);
        }
        for (_, dgram) in br.coap_mut().take_outbox() {
            client.handle_datagram(0, &dgram, SimTime::ZERO);
        }
        let ev = client.take_events();
        match &ev[0] {
            CoapEvent::Response { code, payload, .. } => {
                assert_eq!(*code, Code::Content);
                let text = String::from_utf8_lossy(payload);
                assert!(text.contains("hops=2"), "line of 3: {text}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn observers_notified_on_new_readings() {
        let mut d = deployment();
        let mut br = BorderRouter::new(2);
        br.refresh(&d, d.sim.now());

        let mut client: CoapEndpoint<u64> = CoapEndpoint::new(EndpointConfig::default(), 9);
        client.observe(0, "nodes/1/latest", SimTime::ZERO);
        for (_, dgram) in client.take_outbox() {
            br.coap_mut().handle_datagram(1, &dgram, SimTime::ZERO);
        }
        for (_, dgram) in br.coap_mut().take_outbox() {
            client.handle_datagram(0, &dgram, SimTime::ZERO);
        }
        client.take_events();

        // More readings arrive over the air.
        d.run_for(SimDuration::from_secs(20));
        let fresh = br.refresh(&d, d.sim.now());
        assert!(fresh >= 1);
        for (_, dgram) in br.coap_mut().take_outbox() {
            client.handle_datagram(0, &dgram, SimTime::ZERO);
        }
        let ev = client.take_events();
        assert!(
            ev.iter().any(|e| matches!(
                e,
                CoapEvent::Response {
                    observe: Some(_),
                    ..
                }
            )),
            "observer must be pushed the update: {ev:?}"
        );
    }

    #[test]
    fn idempotent_refresh() {
        let d = deployment();
        let mut br = BorderRouter::new(3);
        assert!(br.refresh(&d, d.sim.now()) > 0);
        assert_eq!(br.refresh(&d, d.sim.now()), 0, "nothing new");
    }
}
