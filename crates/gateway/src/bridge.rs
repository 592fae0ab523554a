//! The border gateway: polls heterogeneous southbound adapters,
//! normalizes everything onto the bus and a replicated cache, and
//! exposes the unified namespace northbound over CoAP — the middleware
//! integration §III-B argues for.

use crate::bus::{Bus, Receiver};
use crate::model::{Adapter, DeviceInfo, Measurement, WriteError};
use iiot_coap::resource::Response;
use iiot_coap::{CoapEndpoint, Code, EndpointConfig};
use iiot_crdt::{Crdt, LwwMap, ReplicaId};
use iiot_sim::SimTime;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Shared last-value cache, readable from CoAP resource handlers.
type CacheHandle = Rc<RefCell<BTreeMap<String, Measurement>>>;
/// Writes accepted northbound, pending application to adapters.
type WriteQueue = Rc<RefCell<Vec<(String, f64)>>>;

/// The gateway; see the [module docs](self).
pub struct Gateway {
    replica: ReplicaId,
    adapters: Vec<Box<dyn Adapter>>,
    bus: Bus,
    /// CRDT cache: point -> value, mergeable with a redundant gateway.
    crdt_cache: LwwMap<String, f64>,
    /// Rich cache for northbound reads.
    cache: CacheHandle,
    writes: WriteQueue,
    coap: CoapEndpoint<u64>,
    registered_points: Vec<String>,
    measurements_processed: u64,
}

impl Gateway {
    /// A gateway identified as CRDT replica `replica` (each redundant
    /// gateway instance needs a distinct id).
    pub fn new(replica: ReplicaId) -> Self {
        Gateway {
            replica,
            adapters: Vec::new(),
            bus: Bus::new(),
            crdt_cache: LwwMap::new(),
            cache: CacheHandle::default(),
            writes: WriteQueue::default(),
            coap: CoapEndpoint::new(EndpointConfig::default(), replica.0),
            registered_points: Vec::new(),
            measurements_processed: 0,
        }
    }

    /// Onboards a southbound device.
    pub fn add_adapter(&mut self, adapter: Box<dyn Adapter>) {
        // Register northbound resources for the device's points.
        for p in adapter.points() {
            self.register_point(&p.point, p.writable);
        }
        self.adapters.push(adapter);
    }

    fn register_point(&mut self, point: &str, writable: bool) {
        if self.registered_points.iter().any(|p| p == point) {
            return;
        }
        self.registered_points.push(point.to_owned());
        let cache = Rc::clone(&self.cache);
        let writes = Rc::clone(&self.writes);
        let point_owned = point.to_owned();
        self.coap.add_resource(
            point,
            Box::new(move |req| match req.method {
                Code::Get => match cache.borrow().get(&point_owned) {
                    Some(m) => Response::content(
                        format!("{:.3} {:?} {:?}", m.value, m.unit, m.quality).into_bytes(),
                    ),
                    None => Response {
                        code: Code::ServiceUnavailable,
                        payload: b"no reading yet".to_vec(),
                    },
                },
                Code::Put if writable => {
                    let text = String::from_utf8_lossy(&req.payload);
                    match text.trim().parse::<f64>() {
                        Ok(v) => {
                            writes.borrow_mut().push((point_owned.clone(), v));
                            Response::changed()
                        }
                        Err(_) => Response {
                            code: Code::BadRequest,
                            payload: b"expected a number".to_vec(),
                        },
                    }
                }
                _ => Response::method_not_allowed(),
            }),
        );
    }

    /// The pub/sub bus (subscribe before polling).
    pub fn bus(&self) -> &Bus {
        &self.bus
    }

    /// The northbound CoAP endpoint (wire it to a transport).
    pub fn coap_mut(&mut self) -> &mut CoapEndpoint<u64> {
        &mut self.coap
    }

    /// Device inventory across all protocols.
    pub fn inventory(&self) -> Vec<DeviceInfo> {
        self.adapters
            .iter()
            .map(|a| DeviceInfo {
                device: a.device().to_owned(),
                protocol: a.protocol(),
                points: a.points(),
            })
            .collect()
    }

    /// Last normalized value of `point`, if any.
    pub fn last(&self, point: &str) -> Option<Measurement> {
        self.cache.borrow().get(point).cloned()
    }

    /// Total measurements normalized so far.
    pub fn measurements_processed(&self) -> u64 {
        self.measurements_processed
    }

    /// Applies a write immediately through the adapters — the
    /// in-process path used by the application-logic layer (northbound
    /// CoAP writes are queued until the next poll instead).
    ///
    /// # Errors
    ///
    /// See [`WriteError`].
    pub fn write_direct(&mut self, point: &str, value: f64) -> Result<(), WriteError> {
        let mut last = WriteError::NoSuchPoint;
        for a in &mut self.adapters {
            match a.write(point, value) {
                Ok(()) => return Ok(()),
                Err(WriteError::NoSuchPoint) => {}
                Err(e) => last = e,
            }
        }
        Err(last)
    }

    /// The mergeable cache, for gateway redundancy.
    pub fn crdt_cache(&self) -> &LwwMap<String, f64> {
        &self.crdt_cache
    }

    /// Merges a redundant peer gateway's cache into ours (values with
    /// newer timestamps win per point).
    pub fn merge_peer_cache(&mut self, peer: &LwwMap<String, f64>) {
        self.crdt_cache.merge(peer);
    }

    /// One gateway cycle at `now_us`: apply pending northbound writes,
    /// poll every adapter, normalize, publish, cache, and notify CoAP
    /// observers. Returns the number of measurements processed.
    pub fn poll_all(&mut self, now_us: u64) -> usize {
        // Apply accepted actuation writes.
        let pending: Vec<(String, f64)> = self.writes.take();
        for (point, value) in pending {
            let mut result = Err(WriteError::NoSuchPoint);
            for a in &mut self.adapters {
                match a.write(&point, value) {
                    Ok(()) => {
                        result = Ok(());
                        break;
                    }
                    Err(e) => result = Err(e),
                }
            }
            if result.is_err() {
                // Surface failed writes as bus traffic for diagnostics.
                self.bus.publish(&Measurement {
                    point: format!("gateway/write-failed/{point}"),
                    value,
                    unit: crate::model::Unit::Raw,
                    quality: crate::model::Quality::Bad,
                    timestamp_us: now_us,
                    device: "gateway".into(),
                });
            }
        }

        // Poll southbound.
        let mut count = 0;
        let mut updated_points = Vec::new();
        for a in &mut self.adapters {
            for m in a.poll(now_us) {
                self.bus.publish(&m);
                if m.value.is_finite() {
                    self.crdt_cache
                        .insert(m.timestamp_us, self.replica, m.point.clone(), m.value);
                }
                updated_points.push(m.point.clone());
                self.cache.borrow_mut().insert(m.point.clone(), m);
                count += 1;
            }
        }
        // Notify CoAP observers of fresh values.
        for p in updated_points {
            self.coap.notify(&p, SimTime::from_micros(now_us));
        }
        self.measurements_processed += count as u64;
        count
    }
}

/// One normalized measurement on its way to the cloud tier, stamped
/// with the owning tenant. Protocol-neutral on purpose: the cloud
/// crate turns records into its own ingest messages without this crate
/// depending on it (the dependency points cloud → gateway, matching
/// the tiered architecture).
#[derive(Clone, Debug, PartialEq)]
pub struct UplinkRecord {
    /// The tenant account this gateway reports under.
    pub tenant: u16,
    /// Unified point path (e.g. `"plant/boiler/temp"`).
    pub point: String,
    /// Normalized value.
    pub value: f64,
    /// Measurement timestamp, µs.
    pub timestamp_us: u64,
    /// Southbound device name the value came from.
    pub device: String,
}

/// The northbound cloud bridge: subscribes to a gateway's bus and
/// batches everything the gateway normalizes into tenant-stamped
/// [`UplinkRecord`]s for the cloud tier's ingest pipeline.
///
/// ```
/// use iiot_crdt::ReplicaId;
/// use iiot_gateway::bridge::{CloudUplink, Gateway};
///
/// let gw = Gateway::new(ReplicaId(1));
/// let uplink = CloudUplink::new(&gw, 3, "plant/");
/// // ... add adapters, poll ...
/// assert!(uplink.drain().is_empty());
/// ```
#[derive(Debug)]
pub struct CloudUplink {
    tenant: u16,
    rx: Receiver,
    forwarded: std::cell::Cell<u64>,
}

impl CloudUplink {
    /// Bridges `gateway`'s bus traffic under `prefix` to tenant
    /// account `tenant`. Subscribe before polling — bus fan-out only
    /// reaches subscribers that exist when a measurement is published.
    pub fn new(gateway: &Gateway, tenant: u16, prefix: &str) -> Self {
        CloudUplink {
            tenant,
            rx: gateway.bus().subscribe(prefix),
            forwarded: std::cell::Cell::new(0),
        }
    }

    /// Drains every measurement published since the last drain into
    /// uplink records, in publication order.
    pub fn drain(&self) -> Vec<UplinkRecord> {
        let records: Vec<UplinkRecord> = self
            .rx
            .try_iter()
            .map(|m| UplinkRecord {
                tenant: self.tenant,
                point: m.point,
                value: m.value,
                timestamp_us: m.timestamp_us,
                device: m.device,
            })
            .collect();
        self.forwarded
            .set(self.forwarded.get() + records.len() as u64);
        records
    }

    /// Total records drained northbound so far.
    pub fn forwarded(&self) -> u64 {
        self.forwarded.get()
    }

    /// The tenant this bridge reports under.
    pub fn tenant(&self) -> u16 {
        self.tenant
    }
}

impl std::fmt::Debug for Gateway {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gateway")
            .field("replica", &self.replica)
            .field("adapters", &self.adapters.len())
            .field("points", &self.registered_points.len())
            .field("processed", &self.measurements_processed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gatt::{uuid, CharMap, GattAdapter, GattDevice};
    use crate::modbus::{ModbusAdapter, ModbusDevice, RegisterMap};
    use crate::model::Unit;
    use crate::tlv::{TlvAdapter, TlvSensor};
    use iiot_coap::CoapEvent;
    use iiot_security::{Key, SecLevel};

    fn full_gateway() -> Gateway {
        let mut gw = Gateway::new(ReplicaId(1));

        let mut plc = ModbusDevice::new(1, 8);
        plc.set_register(0, 805); // 80.5 C
        gw.add_adapter(Box::new(ModbusAdapter::new(
            "plc-1",
            plc,
            vec![
                RegisterMap {
                    addr: 0,
                    point: "plant/boiler/temp".into(),
                    unit: Unit::Celsius,
                    scale: 0.1,
                    offset: 0.0,
                    writable: false,
                },
                RegisterMap {
                    addr: 1,
                    point: "plant/boiler/setpoint".into(),
                    unit: Unit::Celsius,
                    scale: 0.1,
                    offset: 0.0,
                    writable: true,
                },
            ],
        )));

        let mut tag = GattDevice::new();
        tag.add_characteristic(0x10, uuid::TEMPERATURE, vec![0, 0]);
        tag.set_temperature(0x10, 21.25);
        gw.add_adapter(Box::new(GattAdapter::new(
            "tag-1",
            tag,
            vec![CharMap {
                handle: 0x10,
                point: "plant/office/temp".into(),
            }],
        )));

        let mut mote = TlvSensor::new(5).secure(Key(*b"plant-ntwrk-key!"), SecLevel::EncMic32);
        mote.set_readings(18.5, 40.0, 2900);
        gw.add_adapter(Box::new(TlvAdapter::new("mote-1", mote, "plant/yard")));
        gw
    }

    #[test]
    fn three_protocols_one_namespace() {
        let mut gw = full_gateway();
        let n = gw.poll_all(1_000_000);
        assert_eq!(n, 2 + 1 + 3, "all protocols normalized");
        assert!((gw.last("plant/boiler/temp").expect("modbus").value - 80.5).abs() < 1e-9);
        assert!((gw.last("plant/office/temp").expect("gatt").value - 21.25).abs() < 1e-9);
        assert!((gw.last("plant/yard/temp").expect("tlv").value - 18.5).abs() < 1e-9);
        let inv = gw.inventory();
        assert_eq!(inv.len(), 3);
        let protos: Vec<&str> = inv.iter().map(|d| d.protocol).collect();
        assert_eq!(protos, vec!["modbus-rtu", "ble-gatt", "154-tlv"]);
    }

    #[test]
    fn bus_fanout_on_poll() {
        let mut gw = full_gateway();
        let rx = gw.bus().subscribe("plant/");
        gw.poll_all(0);
        assert_eq!(rx.try_iter().count(), 6);
    }

    #[test]
    fn coap_northbound_read() {
        let mut gw = full_gateway();
        gw.poll_all(42);
        let mut client: CoapEndpoint<u64> = CoapEndpoint::new(EndpointConfig::default(), 99);
        let token = client.get(0, "plant/boiler/temp", SimTime::ZERO);
        // Shuttle one round trip.
        for (_, dgram) in client.take_outbox() {
            gw.coap_mut().handle_datagram(1, &dgram, SimTime::ZERO);
        }
        for (_, dgram) in gw.coap_mut().take_outbox() {
            client.handle_datagram(0, &dgram, SimTime::ZERO);
        }
        let ev = client.take_events();
        match &ev[0] {
            CoapEvent::Response {
                token: t,
                code,
                payload,
                ..
            } => {
                assert_eq!(t, &token);
                assert_eq!(*code, Code::Content);
                let text = String::from_utf8_lossy(payload);
                assert!(text.starts_with("80.500"), "payload: {text}");
                assert!(text.contains("Celsius"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn coap_read_before_first_poll_is_5_03() {
        let mut gw = full_gateway();
        let mut client: CoapEndpoint<u64> = CoapEndpoint::new(EndpointConfig::default(), 99);
        client.get(0, "plant/boiler/temp", SimTime::ZERO);
        for (_, dgram) in client.take_outbox() {
            gw.coap_mut().handle_datagram(1, &dgram, SimTime::ZERO);
        }
        for (_, dgram) in gw.coap_mut().take_outbox() {
            client.handle_datagram(0, &dgram, SimTime::ZERO);
        }
        let ev = client.take_events();
        assert!(matches!(
            &ev[0],
            CoapEvent::Response {
                code: Code::ServiceUnavailable,
                ..
            }
        ));
    }

    #[test]
    fn coap_northbound_actuation() {
        let mut gw = full_gateway();
        gw.poll_all(0);
        let mut client: CoapEndpoint<u64> = CoapEndpoint::new(EndpointConfig::default(), 99);
        client.put(0, "plant/boiler/setpoint", b"75.5".to_vec(), SimTime::ZERO);
        for (_, dgram) in client.take_outbox() {
            gw.coap_mut().handle_datagram(1, &dgram, SimTime::ZERO);
        }
        for (_, dgram) in gw.coap_mut().take_outbox() {
            client.handle_datagram(0, &dgram, SimTime::ZERO);
        }
        let ev = client.take_events();
        assert!(matches!(
            &ev[0],
            CoapEvent::Response {
                code: Code::Changed,
                ..
            }
        ));
        // The write lands on the device at the next cycle.
        gw.poll_all(1);
        assert!((gw.last("plant/boiler/setpoint").expect("written").value - 75.5).abs() < 1e-9);
    }

    #[test]
    fn read_only_point_rejects_put() {
        let mut gw = full_gateway();
        gw.poll_all(0);
        let mut client: CoapEndpoint<u64> = CoapEndpoint::new(EndpointConfig::default(), 99);
        client.put(0, "plant/boiler/temp", b"1".to_vec(), SimTime::ZERO);
        for (_, dgram) in client.take_outbox() {
            gw.coap_mut().handle_datagram(1, &dgram, SimTime::ZERO);
        }
        for (_, dgram) in gw.coap_mut().take_outbox() {
            client.handle_datagram(0, &dgram, SimTime::ZERO);
        }
        let ev = client.take_events();
        assert!(matches!(
            &ev[0],
            CoapEvent::Response {
                code: Code::MethodNotAllowed,
                ..
            }
        ));
    }

    #[test]
    fn redundant_gateways_merge_caches() {
        let mut a = full_gateway();
        a.poll_all(100);
        // A second gateway saw a newer boiler reading.
        let mut b = Gateway::new(ReplicaId(2));
        let mut plc = ModbusDevice::new(1, 8);
        plc.set_register(0, 900);
        b.add_adapter(Box::new(ModbusAdapter::new(
            "plc-1",
            plc,
            vec![RegisterMap {
                addr: 0,
                point: "plant/boiler/temp".into(),
                unit: Unit::Celsius,
                scale: 0.1,
                offset: 0.0,
                writable: false,
            }],
        )));
        b.poll_all(200);
        a.merge_peer_cache(b.crdt_cache());
        assert_eq!(
            a.crdt_cache().get(&"plant/boiler/temp".to_string()),
            Some(&90.0)
        );
        // Points only A had survive the merge.
        assert!(a
            .crdt_cache()
            .get(&"plant/office/temp".to_string())
            .is_some());
    }

    #[test]
    fn observe_pushes_updates_northbound() {
        let mut gw = full_gateway();
        gw.poll_all(0);
        let mut client: CoapEndpoint<u64> = CoapEndpoint::new(EndpointConfig::default(), 99);
        client.observe(0, "plant/boiler/temp", SimTime::ZERO);
        for (_, dgram) in client.take_outbox() {
            gw.coap_mut().handle_datagram(1, &dgram, SimTime::ZERO);
        }
        for (_, dgram) in gw.coap_mut().take_outbox() {
            client.handle_datagram(0, &dgram, SimTime::ZERO);
        }
        client.take_events(); // registration response
                              // Plant changes; next poll notifies.
                              // (Reach into the modbus adapter's device via a fresh poll with
                              // a changed register is not directly possible here, but the
                              // notify fires on every poll regardless.)
        gw.poll_all(1_000);
        for (_, dgram) in gw.coap_mut().take_outbox() {
            client.handle_datagram(0, &dgram, SimTime::ZERO);
        }
        let ev = client.take_events();
        assert_eq!(ev.len(), 1, "one notification per poll: {ev:?}");
        assert!(matches!(
            &ev[0],
            CoapEvent::Response {
                observe: Some(_),
                ..
            }
        ));
    }

    #[test]
    fn cloud_uplink_drains_tenant_stamped_records() {
        let mut gw = full_gateway();
        let uplink = CloudUplink::new(&gw, 7, "plant/");
        gw.poll_all(42);
        let records = uplink.drain();
        assert_eq!(records.len(), 6, "all six points bridge northbound");
        assert!(records.iter().all(|r| r.tenant == 7));
        assert!(records.iter().all(|r| r.point.starts_with("plant/")));
        let temp = records
            .iter()
            .find(|r| r.point == "plant/boiler/temp")
            .expect("boiler temp bridged");
        assert!((temp.value - 80.5).abs() < 1e-9);
        assert_eq!(temp.timestamp_us, 42);
        assert_eq!(uplink.forwarded(), 6);
        assert!(uplink.drain().is_empty(), "drain is destructive");
    }

    #[test]
    fn cloud_uplink_prefix_filters_the_namespace() {
        let mut gw = full_gateway();
        let uplink = CloudUplink::new(&gw, 7, "plant/boiler/");
        gw.poll_all(0);
        let records = uplink.drain();
        assert_eq!(records.len(), 2, "only the boiler subtree bridges");
        assert!(records.iter().all(|r| r.point.starts_with("plant/boiler/")));
    }
}
