//! Quickstart: the paper's Fig. 1 end to end in ~100 lines.
//!
//! A simulated low-power wireless deployment collects readings toward a
//! border router; a gateway normalizes three legacy protocols and that
//! border router into one namespace; the application-logic layer runs a
//! safety rule; the historian retains the series; and a scorecard
//! summarizes the three axes (interoperability, scalability,
//! dependability).
//!
//! Run with: `cargo run --example quickstart`

use iiot::crdt::ReplicaId;
use iiot::gateway::gatt::{uuid, CharMap, GattAdapter, GattDevice};
use iiot::gateway::modbus::{ModbusAdapter, ModbusDevice, RegisterMap};
use iiot::gateway::tlv::{TlvAdapter, TlvSensor};
use iiot::gateway::{Gateway, Unit};
use iiot::security::{Key, SecLevel};
use iiot::sim::{SimDuration, Topology};
use iiot::{Deployment, Historian, LayeredSystem, MacChoice, Rule, Scorecard};

fn main() {
    // ------------------------------------------------------------------
    // Sensing and actuation layer, wireless part: a 12-node grid of
    // duty-cycled nodes self-organizes into a DODAG and reports
    // readings to the border router (node 0), whose northbound face is
    // a gateway adapter: one point per node, `plant/cell/n<id>`.
    // ------------------------------------------------------------------
    let mut deployment = Deployment::builder(Topology::grid(4, 3, 20.0))
        .mac(MacChoice::Csma)
        .seed(42)
        .traffic(SimDuration::from_secs(10), 8, SimDuration::from_secs(20))
        .build();
    println!(
        "formed deployment: {} nodes, MAC = {}",
        deployment.nodes.len(),
        deployment.mac().name()
    );
    let border = deployment.border_adapter("plant/cell");
    deployment.run_for(SimDuration::from_secs(120));
    let report = deployment.report();
    println!(
        "wireless collection: {}/{} readings delivered ({:.1}%), mean latency {:.3}s",
        report.delivered,
        report.generated,
        report.delivery_ratio * 100.0,
        report.latency.mean
    );

    // ------------------------------------------------------------------
    // Sensing and actuation layer, legacy part: one gateway integrates
    // a Modbus PLC, a BLE tag and a secured 802.15.4 mote (§III) beside
    // the border router.
    // ------------------------------------------------------------------
    let mut gw = Gateway::new(ReplicaId(1));
    gw.add_adapter(Box::new(border));

    let mut plc = ModbusDevice::new(1, 8);
    plc.set_register(0, 923); // 92.3 C: the boiler is running hot
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
                point: "plant/boiler/valve".into(),
                unit: Unit::Percent,
                scale: 1.0,
                offset: 0.0,
                writable: true,
            },
        ],
    )));

    let mut tag = GattDevice::new();
    tag.add_characteristic(0x10, uuid::TEMPERATURE, vec![0, 0]);
    tag.set_temperature(0x10, 21.4);
    gw.add_adapter(Box::new(GattAdapter::new(
        "ble-tag-1",
        tag,
        vec![CharMap {
            handle: 0x10,
            point: "plant/office/temp".into(),
        }],
    )));

    let mote = TlvSensor::new(7).secure(Key(*b"plant-ntwrk-key!"), SecLevel::EncMic64);
    gw.add_adapter(Box::new(TlvAdapter::new("mote-7", mote, "plant/yard")));

    // ------------------------------------------------------------------
    // Application logic + data storage layers (Fig. 1): an overheat
    // rule closes the valve; the historian retains everything. Each
    // cycle runs on the deployment's clock, 10 s apart.
    // ------------------------------------------------------------------
    let rules = vec![Rule {
        name: "boiler-overheat".into(),
        input: "plant/boiler/temp".into(),
        above: true,
        threshold: 90.0,
        output: "plant/boiler/valve".into(),
        command: 0.0,
    }];
    let mut system = LayeredSystem::new(gw, rules, Historian::new(1_000));

    for cycle in 0..5 {
        if cycle > 0 {
            deployment.run_for(SimDuration::from_secs(10));
        }
        let n = system.cycle(deployment.sim.now().as_micros());
        println!("gateway cycle {cycle}: {n} measurements through the three layers");
    }
    println!(
        "historian: boiler/temp latest = {:?} C over {} samples",
        system.historian.latest("plant/boiler/temp"),
        system.historian.samples("plant/boiler/temp").len()
    );
    let wireless = system
        .historian
        .points()
        .filter(|p| p.starts_with("plant/cell/"))
        .count();
    println!(
        "historian: {wireless} wireless points, {} samples of plant/cell/n11",
        system.historian.samples("plant/cell/n11").len()
    );
    assert_eq!(
        wireless,
        deployment.nodes.len() - 1,
        "every sensor node reached the historian through the border router"
    );
    for a in system.actuations() {
        println!("actuation: rule '{}' set {} = {}", a.rule, a.point, a.value);
    }
    assert!(
        !system.actuations().is_empty(),
        "the overheat rule must have fired"
    );

    // ------------------------------------------------------------------
    // The three-axis scorecard (§III-§V).
    // ------------------------------------------------------------------
    let card = Scorecard::from_deployment(&deployment).with_gateway(&system.sensing);
    println!("\n{card}");
}
