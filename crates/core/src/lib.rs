//! # iiot-core — the sensing-and-actuation layer as a coherent framework
//!
//! The integration crate of the reproduction of *"A Distributed Systems
//! Perspective on Industrial IoT"* (Iwanicki, ICDCS 2018). It assembles
//! every substrate into the paper's architecture:
//!
//! * [`deployment`] — build/run/extend simulated deployments over any
//!   MAC (`MacChoice`), with incremental rollout and collection
//!   reporting; with a gateway attached, a `Deployment` is all of Fig. 1
//!   on the simulation's clock: readings flow up through the gateway and
//!   into the cloud's write-ahead log and device twins, and the cloud's
//!   rules (`Rule`) command wired points back down the gateway.
//!
//! The `iiot` facade re-exports it beside every substrate crate.
//!
//! # Examples
//!
//! A wireless line and a Modbus PLC behind one gateway: an overheat
//! rule closes the valve, and every reading lands in the cloud's log.
//!
//! ```
//! use iiot_core::{Deployment, MacChoice, Rule};
//! use iiot_crdt::ReplicaId;
//! use iiot_gateway::modbus::{ModbusAdapter, ModbusDevice, RegisterMap};
//! use iiot_gateway::{Gateway, Unit};
//! use iiot_sim::{SimDuration, Topology};
//!
//! let mut plc = ModbusDevice::new(1, 8);
//! plc.set_register(0, 923); // 92.3 C: the boiler is running hot
//! let map = |addr, point: &str, writable| RegisterMap {
//!     addr, point: point.into(), unit: Unit::Raw, scale: 0.1, offset: 0.0, writable,
//! };
//! let regs = vec![map(0, "boiler/temp", false), map(1, "boiler/valve", true)];
//! let mut gw = Gateway::new(ReplicaId(1));
//! gw.add_adapter(Box::new(ModbusAdapter::new("plc-1", plc, regs)));
//! let overheat = Rule { input: "boiler/temp".into(), above: true, threshold: 90.0,
//!                       output: "boiler/valve".into(), command: 0.0 };
//!
//! let mut d = Deployment::builder(Topology::line(3, 20.0))
//!     .mac(MacChoice::Csma)
//!     .traffic(SimDuration::from_secs(5), 8, SimDuration::from_secs(10))
//!     .build();
//! d.attach_gateway(gw, "cell", vec![overheat]);
//! d.run_for(SimDuration::from_secs(30));
//!
//! let north = d.north.as_ref().expect("attached");
//! assert!(north.commands[0].ok && north.commands[0].point == "boiler/valve");
//! assert_eq!(north.sample_to_cloud.len(), d.collected().len());
//! let logged = north.cloud().wal().expect("write-ahead log").records();
//! assert!(logged > d.collected().len() as u64, "wired and wireless readings");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod deployment;

pub use deployment::{
    CollectionReport, Deployment, DeploymentBuilder, MacChoice, Northbound, Rule, COMMAND_CAP, POLL,
};
