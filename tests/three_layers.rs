//! Integration: Fig. 1 assembled from real parts — gateway (two
//! southbound protocols, one of them secured, plus a duty-cycled
//! sensornet through its border router), rule engine, historian, cloud
//! uplink — plus the northbound CoAP surface observing the same points
//! the rules act on.

use iiot::coap::{CoapEndpoint, CoapEvent, Code};
use iiot::crdt::ReplicaId;
use iiot::gateway::modbus::{ModbusAdapter, ModbusDevice, RegisterMap};
use iiot::gateway::tlv::{TlvAdapter, TlvSensor};
use iiot::gateway::{CloudUplink, Gateway, Unit};
use iiot::security::{Key, SecLevel};
use iiot::sim::{SimDuration, SimTime, Topology};
use iiot::{Deployment, Historian, LayeredSystem, MacChoice, Rule};

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
        name: "purge".into(),
        input: "boiler/temp".into(),
        above: true,
        threshold,
        output: "boiler/valve".into(),
        command: 0.0,
    }
}

#[test]
fn quiescent_rule_never_actuates() {
    let mut sys = LayeredSystem::new(
        plant_gateway(),
        vec![purge_rule(90.0)], // boiler is at 70 C: never fires
        Historian::new(100),
    );
    for c in 0..5u64 {
        sys.cycle(c * 1_000_000);
    }
    assert!(sys.actuations().is_empty());
    assert_eq!(sys.historian.latest("boiler/temp"), Some(70.0));
    assert_eq!(sys.historian.latest("boiler/valve"), Some(100.0));
    // The secured TLV mote's readings also flow through all layers.
    assert_eq!(sys.historian.latest("yard/temp"), Some(20.0));
    assert_eq!(sys.historian.samples("yard/temp").len(), 5);
}

#[test]
fn rule_actuation_lands_on_the_plc() {
    let mut sys = LayeredSystem::new(
        plant_gateway(),
        vec![purge_rule(60.0)], // 70 C violates it immediately
        Historian::new(100),
    );
    sys.cycle(1_000_000);
    assert_eq!(sys.actuations().len(), 1, "rule fired once");
    assert_eq!(sys.actuations()[0].point, "boiler/valve");
    // The write went through the Modbus adapter; the next acquisition
    // observes the physically closed valve.
    sys.cycle(2_000_000);
    assert_eq!(sys.sensing.last("boiler/valve").map(|m| m.value), Some(0.0));
    assert_eq!(sys.historian.latest("boiler/valve"), Some(0.0));
}

#[test]
fn northbound_observer_sees_rule_driven_actuation() {
    let mut sys = LayeredSystem::new(plant_gateway(), vec![purge_rule(60.0)], Historian::new(100));

    // Prime the cache: observe-registration GETs need a reading
    // (before the first poll the resource answers 5.03).
    sys.cycle(500_000);
    sys.sensing.coap_mut().take_outbox();

    // An external SCADA client observes the valve over CoAP.
    let mut scada: CoapEndpoint<u64> = CoapEndpoint::new(77);
    scada.observe(0, "boiler/valve", SimTime::ZERO);
    for (_, d) in scada.take_outbox() {
        sys.sensing.coap_mut().handle_datagram(1, &d, SimTime::ZERO);
    }
    for (_, d) in sys.sensing.coap_mut().take_outbox() {
        scada.handle_datagram(0, &d, SimTime::ZERO);
    }
    scada.take_events(); // registration response

    // Cycle 1 polls (valve 100) and fires the rule; cycle 2 observes
    // the actuated valve and notifies the observer.
    sys.cycle(1_000_000);
    sys.cycle(2_000_000);
    for (_, d) in sys.sensing.coap_mut().take_outbox() {
        scada.handle_datagram(0, &d, SimTime::ZERO);
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

    // The historian kept the full story.
    assert!(sys.historian.samples("boiler/valve").len() >= 2);
    assert_eq!(sys.historian.latest("boiler/valve"), Some(0.0));
}

#[test]
fn radio_readings_flow_to_historian_and_uplink_exactly_once() {
    let mut field = Deployment::builder(Topology::line(4, 20.0))
        .mac(MacChoice::Lpl(SimDuration::from_millis(256)))
        .seed(0x3A)
        .traffic(SimDuration::from_secs(5), 8, SimDuration::from_secs(15))
        .build();
    let mut gw = plant_gateway();
    gw.add_adapter(Box::new(field.border_adapter("cell")));
    let uplink = CloudUplink::new(&gw, 1, "cell/");
    let mut sys = LayeredSystem::new(gw, vec![purge_rule(90.0)], Historian::new(10_000));

    // Every tier stepped on the sim's clock, one second at a time.
    let mut uplinked = Vec::new();
    for _ in 0..60 {
        field.run_for(SimDuration::from_secs(1));
        sys.cycle(field.sim.now().as_micros());
        uplinked.extend(
            uplink
                .drain()
                .into_iter()
                .map(|r| (r.point, r.timestamp_us)),
        );
    }

    let collected = field.collected();
    assert!(collected.len() >= 20, "{} readings", collected.len());
    let expected: Vec<(String, u64)> = collected
        .iter()
        .map(|c| (format!("cell/n{}", c.origin.0), c.sent_at.as_micros()))
        .collect();
    assert_eq!(
        uplinked, expected,
        "each reading uplinked once, in arrival order"
    );
    for n in 1..4u32 {
        let mine: Vec<(u64, f64)> = collected
            .iter()
            .filter(|c| c.origin.0 == n)
            .map(|c| (c.sent_at.as_micros(), f64::from(c.seq)))
            .collect();
        assert!(!mine.is_empty(), "node {n} reported");
        assert_eq!(
            sys.historian.samples(&format!("cell/n{n}")),
            mine,
            "node {n}"
        );
    }
    // The wired points kept flowing beside the radio.
    assert_eq!(sys.historian.samples("boiler/temp").len(), 60);
}
