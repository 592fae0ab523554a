//! Integration: Fig. 1 assembled from real parts as one deployment —
//! a duty-cycled sensornet whose border router joins a gateway with two
//! southbound protocols (one of them secured), a rule engine, and the
//! cloud's write-ahead log and twins — plus the northbound CoAP surface
//! observing the same points the rules act on. Every tier runs on the
//! simulation's clock.

use iiot::cloud::{decode_uplink, CommandOutcome};
use iiot::coap::{CoapEndpoint, CoapEvent, Code};
use iiot::crdt::ReplicaId;
use iiot::gateway::modbus::{ModbusAdapter, ModbusDevice, RegisterMap};
use iiot::gateway::tlv::{TlvAdapter, TlvSensor};
use iiot::gateway::{Gateway, Unit};
use iiot::routing::Collected;
use iiot::security::{Key, SecLevel};
use iiot::sim::{SimDuration, SimTime, Topology};
use iiot::{Deployment, MacChoice, Northbound, Rule, POLL};
use std::collections::BTreeMap;

fn plant_gateway() -> Gateway {
    let mut gw = Gateway::new(ReplicaId(1));
    let mut plc = ModbusDevice::new(1, 8);
    plc.set_register(0, 700); // boiler at 70.0 C
    plc.set_register(1, 100); // valve 100 %
    gw.add_adapter(Box::new(ModbusAdapter::new(
        "plc-1",
        plc,
        vec![
            RegisterMap {
                addr: 0,
                point: "boiler/temp".into(),
                unit: Unit::Celsius,
                scale: 0.1,
                offset: 0.0,
                writable: false,
            },
            RegisterMap {
                addr: 1,
                point: "boiler/valve".into(),
                unit: Unit::Percent,
                scale: 1.0,
                offset: 0.0,
                writable: true,
            },
        ],
    )));
    let mote = TlvSensor::new(9).secure(Key(*b"plant-ntwrk-key!"), SecLevel::EncMic32);
    gw.add_adapter(Box::new(TlvAdapter::new("mote-9", mote, "yard")));
    gw
}

fn purge_rule(threshold: f64) -> Rule {
    Rule {
        input: "boiler/temp".into(),
        above: true,
        threshold,
        output: "boiler/valve".into(),
        command: 0.0,
    }
}

/// A four-node LPL line with `plant_gateway()` and `rules` attached.
fn plant(rules: Vec<Rule>) -> Deployment {
    let mut field = Deployment::builder(Topology::line(4, 20.0))
        .mac(MacChoice::Lpl(SimDuration::from_millis(256)))
        .seed(0x3A)
        .traffic(SimDuration::from_secs(5), 8, SimDuration::from_secs(15))
        .build();
    field.attach_gateway(plant_gateway(), "cell", rules);
    field
}

fn north(d: &Deployment) -> &Northbound {
    d.north.as_ref().expect("gateway attached")
}

/// The latest value the twin of `point` holds.
fn twin_value(north: &Northbound, point: &str) -> Option<f64> {
    let twin = north.twin(point)?;
    twin.reported.get(&"value".to_owned()).copied()
}

/// `(device, t µs, value)` of every record in the cloud's log.
fn logged(north: &Northbound) -> Vec<(u32, u64, f64)> {
    let wal = north.cloud().wal().expect("write-ahead log");
    wal.iter_from(0)
        .filter_map(|(_, r)| decode_uplink(r))
        .map(|m| (m.device, m.t.as_micros(), m.value))
        .collect()
}

#[test]
fn quiescent_rule_never_actuates() {
    let mut d = plant(vec![purge_rule(90.0)]); // boiler is at 70 C: never fires
    d.run_for(SimDuration::from_secs(4));
    let north = north(&d);
    assert!(north.commands.is_empty());
    assert_eq!(twin_value(north, "boiler/temp"), Some(70.0));
    assert_eq!(twin_value(north, "boiler/valve"), Some(100.0));
    // The secured TLV mote's readings also flow through all tiers, once
    // per grid poll: at 0, 1, 2, 3 and 4 s.
    assert_eq!(twin_value(north, "yard/temp"), Some(20.0));
    let yard = north.device("yard/temp").expect("provisioned");
    let times: Vec<u64> = logged(north)
        .into_iter()
        .filter(|r| r.0 == yard)
        .map(|r| r.1)
        .collect();
    assert_eq!(times, [0, 1, 2, 3, 4].map(|s| s * 1_000_000));
}

#[test]
fn rule_actuation_lands_on_the_plc() {
    let mut d = plant(vec![purge_rule(60.0)]); // 70 C violates it immediately
                                               // The poll at 0 s publishes 70 C, and the cloud's rule queues its
                                               // command on the downlink.
    d.run_for(SimDuration::ZERO);
    assert!(north(&d).commands.is_empty());
    assert_eq!(
        north(&d).gateway().last("boiler/valve").map(|m| m.value),
        Some(100.0)
    );
    // The next grid instant acks it over CoAP just before its poll,
    // which applies it through the Modbus adapter and then observes the
    // physically closed valve. The 1 s firing waits for the 2 s flush.
    d.run_for(POLL);
    let north = north(&d);
    let acked: Vec<(&str, bool)> = north
        .commands
        .iter()
        .map(|c| (c.point.as_str(), c.ok))
        .collect();
    assert_eq!(acked, [("boiler/valve", true)]);
    let valve = north.gateway().last("boiler/valve").expect("polled");
    assert_eq!((valve.value, valve.timestamp_us), (0.0, 1_000_000));
    assert_eq!(twin_value(north, "boiler/valve"), Some(0.0));
}

#[test]
fn northbound_observer_sees_rule_driven_actuation() {
    let mut d = plant(vec![purge_rule(60.0)]);
    // The first grid poll, at 0 s, publishes the open valve (an
    // observe registration needs a reading: before it the resource
    // answers 5.03) and fires the rule.
    d.run_for(SimDuration::ZERO);
    let gw = d.north.as_mut().expect("attached").gateway_mut();
    gw.coap_mut().take_outbox();

    // An external SCADA client observes the valve over CoAP.
    let mut scada: CoapEndpoint<u64> = CoapEndpoint::new(77);
    scada.observe(0, "boiler/valve", SimTime::ZERO);
    for (_, dg) in scada.take_outbox() {
        gw.coap_mut().handle_datagram(1, &dg, SimTime::ZERO);
    }
    for (_, dg) in gw.coap_mut().take_outbox() {
        scada.handle_datagram(0, &dg, SimTime::ZERO);
    }
    scada.take_events(); // registration response

    // The poll at 1 s observes the actuated valve and notifies.
    d.run_for(POLL);
    let gw = d.north.as_mut().expect("attached").gateway_mut();
    for (_, dg) in gw.coap_mut().take_outbox() {
        scada.handle_datagram(0, &dg, SimTime::ZERO);
    }
    let events = scada.take_events();
    assert!(!events.is_empty(), "observer notified");
    match events.last().expect("some") {
        CoapEvent::Response {
            code,
            payload,
            observe,
            ..
        } => {
            assert_eq!(*code, Code::Content);
            assert!(observe.is_some());
            let text = String::from_utf8_lossy(payload);
            assert!(
                text.starts_with("0.000"),
                "SCADA sees the closed valve: {text}"
            );
        }
        other => panic!("unexpected event {other:?}"),
    }
    // The cloud's log kept the full story: open, then closed.
    let north = north(&d);
    let valve = north.device("boiler/valve").expect("provisioned");
    let values: Vec<f64> = logged(north)
        .into_iter()
        .filter(|r| r.0 == valve)
        .map(|r| r.2)
        .collect();
    assert_eq!(values, [100.0, 0.0]);
}

/// The cloud's log does the historian's job: every radio reading is in
/// it once, in arrival order, offered at the instant it arrived.
#[test]
fn radio_readings_flow_to_historian_and_uplink_exactly_once() {
    let mut field = plant(vec![purge_rule(90.0)]);
    field.run_for(SimDuration::from_secs(60));

    let collected = field.collected();
    assert!(collected.len() >= 20, "{} readings", collected.len());
    let north = north(&field);
    let nodes: BTreeMap<u32, u32> = (1..4u32)
        .map(|n| (north.device(&format!("cell/n{n}")).expect("reported"), n))
        .collect();
    let radio: Vec<(u32, u64, f64)> = logged(north)
        .into_iter()
        .filter_map(|(dev, t, v)| nodes.get(&dev).map(|&n| (n, t, v)))
        .collect();
    let expected: Vec<(u32, u64, f64)> = collected
        .iter()
        .map(|c| (c.origin.0, c.received_at.as_micros(), f64::from(c.seq)))
        .collect();
    assert_eq!(radio, expected, "each reading logged once, at arrival");

    // Sample to cloud is the radio path's own latency, unquantised.
    let latency: Vec<SimDuration> = collected.iter().map(Collected::latency).collect();
    assert_eq!(north.sample_to_cloud, &latency[..]);
    assert!(
        latency.iter().any(|l| l.as_micros() % 1_000_000 != 0),
        "no tick quantisation"
    );
    // The wired points kept flowing beside the radio, polled on the
    // grid only: 0 s through 60 s.
    let temp = north.device("boiler/temp").expect("provisioned");
    let polls = logged(north).iter().filter(|r| r.0 == temp).count();
    assert_eq!(polls, 61);
}

/// How the run is cut into `run_for` calls changes nothing above the
/// root.
#[test]
fn slicing_the_run_changes_nothing_above_the_root() {
    fn sliced(slices: &[u64]) -> (Vec<u8>, Vec<CommandOutcome>, iiot::cloud::TwinStore) {
        let mut d = plant(vec![purge_rule(60.0)]);
        for &s in slices {
            d.run_for(SimDuration::from_secs(s));
        }
        assert_eq!(d.sim.now(), SimTime::from_secs(60));
        let north = north(&d);
        let wal = north.cloud().wal().expect("write-ahead log");
        (
            wal.as_bytes().to_vec(),
            north.commands.to_vec(),
            north.twins.clone(),
        )
    }
    let whole = sliced(&[60]);
    assert!(!whole.0.is_empty() && !whole.1.is_empty() && !whole.2.is_empty());
    assert!(whole == sliced(&[1; 60]), "sixty 1 s slices");
    assert!(whole == sliced(&[7, 7, 7, 7, 7, 7, 7, 7, 4]), "7 s slices");
}
