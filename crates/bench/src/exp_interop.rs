//! Interoperability and overhead experiments: E1 (Fig. 1 as one
//! deployment, end to end), E10 (security-level overheads) and E12 (gateway
//! integration throughput and fidelity).

use crate::table::{f1, f3, pct, Table};
use iiot_coap::{CoapEndpoint, CoapEvent};
use iiot_core::{Deployment, MacChoice, Rule};
use iiot_crdt::ReplicaId;
use iiot_gateway::gatt::{uuid, CharMap, GattAdapter, GattDevice};
use iiot_gateway::modbus::{ModbusAdapter, ModbusDevice, RegisterMap};
use iiot_gateway::tlv::{TlvAdapter, TlvSensor};
use iiot_gateway::{Gateway, Unit};
use iiot_security::{cost, protect, unprotect, Key, ReplayGuard, SecLevel};
use iiot_sim::trace::summarize;
use iiot_sim::{SimDuration, SimTime, Topology};
use std::collections::BTreeSet;
use std::time::Instant;

/// E1's, E12's and E16d's gateway: a Modbus PLC (boiler temperature,
/// writable valve), a BLE temperature tag and a secured 802.15.4 TLV
/// mote — six points per poll.
pub(crate) fn demo_gateway() -> Gateway {
    let mut gw = Gateway::new(ReplicaId(1));
    let mut plc = ModbusDevice::new(1, 8);
    plc.set_register(0, 923);
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
    gw
}

/// E1: the Fig. 1 architecture as one deployment — a wireless grid
/// whose border router joins a 3-protocol gateway, the cloud's
/// write-ahead log and device twins on top, and an overheat rule
/// commanding the wired PLC back down the gateway's CoAP downlink, all
/// on the simulation's clock — with the flow counted at every boundary.
pub fn e1_layering() -> Table {
    let rules = vec![Rule {
        input: "plant/boiler/temp".into(),
        above: true,
        threshold: 90.0,
        output: "plant/boiler/valve".into(),
        command: 0.0,
    }];
    let mut d = Deployment::builder(Topology::grid(4, 3, 20.0))
        .mac(MacChoice::Csma)
        .seed(0xE1)
        .traffic(SimDuration::from_secs(10), 8, SimDuration::from_secs(20))
        .build();
    d.attach_gateway(demo_gateway(), "plant/cell", rules);
    d.run_for(SimDuration::from_secs(120));
    let wireless = d.report();
    let north = d.north.as_ref().expect("gateway attached");
    let to_cloud: Vec<f64> = north
        .sample_to_cloud
        .iter()
        .map(|l| l.as_secs_f64())
        .collect();
    let s = summarize(&to_cloud);
    let delivered = format!("{} ({})", wireless.delivered, pct(wireless.delivery_ratio));
    let normalized = north.gateway().measurements_processed();
    let inventory = north.gateway().inventory();
    let protocols = inventory
        .iter()
        .map(|d| d.protocol)
        .collect::<BTreeSet<_>>();
    let to_cloud_s = format!("{} / {}", f3(s.p50), f3(s.p95));
    let acked = north.commands.iter().filter(|c| c.ok).count();

    let mut t = Table::new(
        "E1: Fig. 1 cross-layer flow (CSMA grid + 3-protocol gateway -> rules -> cloud log and twins, one deployment, 120 s)",
        &["boundary", "value"],
    );
    let n = |v: usize| v.to_string();
    let rows = [
        ("sensing->gateway: radio readings", delivered),
        ("gateway: measurements normalized", normalized.to_string()),
        ("app: rule commands acked", n(acked)),
        ("gateway->cloud: radio readings logged", n(to_cloud.len())),
        ("cloud->storage: device twins", n(north.twins.len())),
        ("scorecard: protocols integrated", n(protocols.len())),
        ("p95 collection latency (s)", f3(wireless.latency.p95)),
        ("sample-to-cloud p50 / p95 (s)", to_cloud_s),
    ];
    for (boundary, value) in rows {
        t.row(vec![boundary.into(), value]);
    }
    t
}

/// E10: the cost ladder of the 802.15.4-style security levels — bytes,
/// CPU time (model and measured), energy and goodput.
///
/// Paper claim (§V-E): secure modes are specified "yet hardly
/// implemented", because every level costs bytes, cycles and energy on
/// microcontroller-class devices.
pub fn e10_security_overhead() -> Table {
    let key = Key(*b"network-key-0001");
    let payload = vec![0xAB; 40];
    let bitrate = 250_000u64;
    let mut t = Table::new(
        "E10: per-frame security overhead (40-byte payload, 16 MHz MCU, 250 kbit/s radio)",
        &[
            "level",
            "extra bytes",
            "airtime +us",
            "cpu us (model)",
            "wall ns (measured)",
            "energy uJ",
            "goodput",
        ],
    );
    for level in SecLevel::ALL {
        // Measure the real software implementation (protect+unprotect).
        let iters = 2000u32;
        let t0 = Instant::now();
        let mut sink = 0u8;
        for i in 0..iters {
            let mut guard = ReplayGuard::new();
            let frame = protect(&key, level, 7, i + 1, &payload);
            sink ^= frame[frame.len() - 1];
            let out = unprotect(&key, SecLevel::None, 7, &frame, &mut guard).expect("ok");
            sink ^= out.first().copied().unwrap_or(0);
        }
        let wall_ns = t0.elapsed().as_nanos() as f64 / iters as f64;
        std::hint::black_box(sink);

        t.row(vec![
            format!("{level:?}"),
            cost::extra_bytes(level).to_string(),
            f1(cost::extra_airtime_us(level, bitrate)),
            f1(cost::cpu_time_us(level, payload.len())),
            f1(wall_ns),
            f3(cost::cpu_energy_uj(level, payload.len())),
            pct(cost::goodput(level, payload.len(), 17)),
        ]);
    }
    t
}

/// E12: gateway integration — normalization throughput, value fidelity
/// across the three southbound protocols, and the CoAP northbound
/// round trip.
pub fn e12_interop() -> Table {
    let mut t = Table::new(
        "E12: gateway integration (modbus-rtu + ble-gatt + 154-tlv)",
        &["metric", "value"],
    );

    // Fidelity: engineering values survive protocol translation.
    let mut gw = demo_gateway();
    gw.poll_all(0);
    let checks = [
        ("plant/boiler/temp", 92.3),
        ("plant/office/temp", 21.4),
        ("plant/yard/temp", 20.0),
    ];
    let exact = checks
        .iter()
        .filter(|(p, v)| {
            gw.last(p)
                .map(|m| (m.value - v).abs() < 0.05)
                .unwrap_or(false)
        })
        .count();
    t.row(vec![
        "fidelity: points within 0.05 engineering units".into(),
        format!("{exact}/{}", checks.len()),
    ]);

    // Throughput: wall-clock normalization rate.
    let iters = 3000u64;
    let t0 = Instant::now();
    let mut total = 0usize;
    for i in 0..iters {
        total += gw.poll_all(i);
    }
    let secs = t0.elapsed().as_secs_f64();
    t.row(vec![
        "throughput: measurements/s through the bridge".into(),
        format!("{:.0}", total as f64 / secs),
    ]);
    t.row(vec![
        "measurements processed".into(),
        gw.measurements_processed().to_string(),
    ]);

    // Northbound CoAP round trip against the live cache.
    let mut client: CoapEndpoint<u64> = CoapEndpoint::new(3);
    client.get(0, "plant/boiler/temp", SimTime::ZERO);
    for (_, dgram) in client.take_outbox() {
        gw.coap_mut().handle_datagram(1, &dgram, SimTime::ZERO);
    }
    for (_, dgram) in gw.coap_mut().take_outbox() {
        client.handle_datagram(0, &dgram, SimTime::ZERO);
    }
    let ok = matches!(
        client.take_events().first(),
        Some(CoapEvent::Response { code, .. }) if code.is_success()
    );
    t.row(vec![
        "northbound CoAP GET".into(),
        if ok {
            "2.05 Content".into()
        } else {
            "FAILED".into()
        },
    ]);
    t
}
