//! Quickstart: the paper's Fig. 1 end to end in ~100 lines.
//!
//! A simulated low-power wireless deployment collects readings toward a
//! border router; a gateway normalizes three legacy protocols and that
//! border router into one namespace; the cloud logs every reading
//! write-ahead, keeps a twin per device and runs a safety rule whose
//! commands go back down the gateway's CoAP downlink — all on the
//! simulation's clock.
//!
//! Run with: `cargo run --example quickstart`

use iiot::crdt::ReplicaId;
use iiot::gateway::gatt::{uuid, CharMap, GattAdapter, GattDevice};
use iiot::gateway::modbus::{ModbusAdapter, ModbusDevice, RegisterMap};
use iiot::gateway::tlv::{TlvAdapter, TlvSensor};
use iiot::gateway::{Gateway, Unit};
use iiot::security::{Key, SecLevel};
use iiot::sim::{SimDuration, Topology};
use iiot::{Deployment, MacChoice, Rule};

fn main() {
    // ------------------------------------------------------------------
    // Sensing and actuation layer, wireless part: a 12-node grid
    // self-organizes into a DODAG and reports readings to the border
    // router (node 0).
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

    // ------------------------------------------------------------------
    // Sensing and actuation layer, legacy part: one gateway integrates
    // a Modbus PLC, a BLE tag and a secured 802.15.4 mote (§III) beside
    // the border router.
    // ------------------------------------------------------------------
    let mut gw = Gateway::new(ReplicaId(1));
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
    // Application logic + data storage layers (Fig. 1): the cloud logs
    // every reading, and its overheat rule commands the valve closed
    // through the gateway at the next wired poll. The border
    // router joins the gateway as one more adapter, one point per node,
    // `plant/cell/n<id>`; from here on the deployment carries each
    // reading up the tiers at the instant it arrives, and polls the
    // wired devices once a second.
    // ------------------------------------------------------------------
    let rules = vec![Rule {
        input: "plant/boiler/temp".into(),
        above: true,
        threshold: 90.0,
        output: "plant/boiler/valve".into(),
        command: 0.0,
    }];
    deployment.attach_gateway(gw, "plant/cell", rules);
    deployment.run_for(SimDuration::from_secs(120));
    let report = deployment.report();
    println!(
        "wireless collection: {}/{} readings delivered ({:.1}%), mean latency {:.3}s",
        report.delivered,
        report.generated,
        report.delivery_ratio * 100.0,
        report.latency.mean
    );

    let north = deployment.north.as_ref().expect("gateway attached");
    let wal = north.cloud().wal().expect("write-ahead log");
    println!(
        "gateway: {} measurements normalized; cloud log: {} records, {} device twins",
        north.gateway().measurements_processed(),
        wal.records(),
        north.twins.len()
    );
    let wireless = (1..deployment.nodes.len())
        .filter(|n| north.device(&format!("plant/cell/n{n}")).is_some())
        .count();
    assert_eq!(
        wireless,
        deployment.nodes.len() - 1,
        "every sensor node reached the cloud"
    );
    assert_eq!(north.sample_to_cloud.len() as u64, report.delivered);
    let first = north
        .commands
        .first()
        .expect("the overheat rule must have fired");
    assert!(first.ok, "the gateway acked the rule's command");
    println!(
        "rule commands: {} acked over the gateway's CoAP downlink, each closing {}",
        north.commands.iter().filter(|c| c.ok).count(),
        first.point
    );
}
