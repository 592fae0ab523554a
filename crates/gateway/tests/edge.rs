//! Public-API edge cases of the gateway.

use iiot_crdt::ReplicaId;
use iiot_gateway::modbus::{ModbusAdapter, ModbusDevice, RegisterMap};
use iiot_gateway::{Gateway, Quality, Unit, WriteError};

fn gw_with_plc() -> Gateway {
    let mut gw = Gateway::new(ReplicaId(1));
    let mut plc = ModbusDevice::new(1, 4);
    plc.set_register(0, 123);
    gw.add_adapter(Box::new(ModbusAdapter::new(
        "plc",
        plc,
        vec![
            RegisterMap {
                addr: 0,
                point: "a/ro".into(),
                unit: Unit::Raw,
                scale: 1.0,
                offset: 0.0,
                writable: false,
            },
            RegisterMap {
                addr: 1,
                point: "a/rw".into(),
                unit: Unit::Raw,
                scale: 1.0,
                offset: 0.0,
                writable: true,
            },
        ],
    )));
    gw
}

#[test]
fn write_direct_error_precision() {
    let mut gw = gw_with_plc();
    assert_eq!(
        gw.write_direct("no/such", 1.0),
        Err(WriteError::NoSuchPoint)
    );
    assert_eq!(gw.write_direct("a/ro", 1.0), Err(WriteError::ReadOnly));
    assert_eq!(gw.write_direct("a/rw", 7.0), Ok(()));
    gw.poll_all(0);
    assert_eq!(gw.last("a/rw").map(|m| m.value), Some(7.0));
}

#[test]
fn failed_northbound_write_surfaces_on_the_bus() {
    use iiot_coap::CoapEndpoint;
    use iiot_sim::SimTime;

    let mut gw = gw_with_plc();
    let failures = gw.bus().subscribe("gateway/write-failed");
    gw.poll_all(0);

    // PUT a non-numeric payload is rejected synchronously (4.00), but a
    // numeric write to a read-only point is accepted for processing and
    // must surface as a diagnostic when it fails at the device.
    // The read-only rejection happens at resource level; use the rw
    // point with a device-side failure instead: value out of i16 range.
    let mut client: CoapEndpoint<u64> = CoapEndpoint::new(5);
    client.put(0, "a/rw", b"9999999".to_vec(), SimTime::ZERO);
    for (_, d) in client.take_outbox() {
        gw.coap_mut().handle_datagram(1, &d, SimTime::ZERO);
    }
    gw.poll_all(1); // applies the queued write -> DeviceError
    let diag: Vec<_> = failures.try_iter().collect();
    assert_eq!(diag.len(), 1, "write failure published for diagnostics");
    assert_eq!(diag[0].quality, Quality::Bad);
    assert!(diag[0].point.ends_with("a/rw"));
}

#[test]
fn inventory_lists_points_with_writability() {
    let gw = gw_with_plc();
    let inv = gw.inventory();
    assert_eq!(inv.len(), 1);
    let pts = &inv[0].points;
    assert_eq!(pts.len(), 2);
    assert!(!pts[0].writable);
    assert!(pts[1].writable);
    assert_eq!(inv[0].protocol, "modbus-rtu");
    // Debug impl is informative, never empty.
    let dbg = format!("{gw:?}");
    assert!(dbg.contains("adapters"));
}

#[test]
fn measurements_processed_counts_polls() {
    let mut gw = gw_with_plc();
    assert_eq!(gw.measurements_processed(), 0);
    gw.poll_all(0);
    gw.poll_all(1);
    assert_eq!(gw.measurements_processed(), 4, "2 points x 2 polls");
}
