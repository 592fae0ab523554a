//! # iiot-gateway — interoperability middleware for heterogeneous devices
//!
//! §III of the paper: industrial IoT systems "normally complement the
//! infrastructure or even integrate its various existing components",
//! so "even dedicated IoT-oriented devices can be highly heterogeneous
//! in a single system ... they must interoperate to give an illusion of
//! a single coherent system". This crate is that integration layer:
//!
//! * [`model`] — the normalized data model (points, units, quality) and
//!   the `Adapter` trait;
//! * [`modbus`] — a Modbus-RTU legacy device (real CRC-16 framing,
//!   function codes 0x03/0x06) and its register-map adapter;
//! * [`gatt`] — a BLE/GATT sensor (SIG characteristic formats) and its
//!   adapter;
//! * [`tlv`] — a raw 802.15.4-class TLV sensor, optionally protected
//!   with [`iiot_security`] frame security, and its adapter;
//! * [`bus`] — the internal publish/subscribe backbone;
//! * [`bridge`] — the `Gateway`: polls adapters,
//!   normalizes onto the bus and a last-value cache, and serves the unified namespace northbound over
//!   CoAP (GET/PUT/Observe).
//!
//! # Examples
//!
//! A legacy Modbus PLC behind the gateway becomes a named, unit-scaled
//! point in the unified namespace:
//!
//! ```
//! use iiot_crdt::ReplicaId;
//! use iiot_gateway::modbus::{ModbusAdapter, ModbusDevice, RegisterMap};
//! use iiot_gateway::{Gateway, Unit};
//!
//! let mut plc = ModbusDevice::new(1, 4);
//! plc.set_register(0, 215); // raw tenths of a degree
//! let mut gw = Gateway::new(ReplicaId(1));
//! gw.add_adapter(Box::new(ModbusAdapter::new("plc-1", plc, vec![RegisterMap {
//!     addr: 0,
//!     point: "plant/boiler/temp".into(),
//!     unit: Unit::Celsius,
//!     scale: 0.1,
//!     offset: 0.0,
//!     writable: false,
//! }])));
//! gw.poll_all(0);
//! let m = gw.last("plant/boiler/temp").expect("polled");
//! assert!((m.value - 21.5).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bridge;
pub mod bus;
pub mod gatt;
pub mod modbus;
pub mod model;
pub mod tlv;

pub use bridge::{CloudUplink, Gateway, UplinkRecord};
pub use bus::Bus;
pub use model::{Adapter, DeviceInfo, Measurement, PointInfo, Quality, Unit, WriteError};
