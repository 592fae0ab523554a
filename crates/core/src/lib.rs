//! # iiot-core — the sensing-and-actuation layer as a coherent framework
//!
//! The integration crate of the reproduction of *"A Distributed Systems
//! Perspective on Industrial IoT"* (Iwanicki, ICDCS 2018). It assembles
//! every substrate into the paper's architecture:
//!
//! * [`layer`] — Fig. 1's three tiers as code: a `Historian`
//!   (data storage), a rule engine (application logic) and the
//!   `SensingActuation` trait for the bottom
//!   tier, closed into a loop by `LayeredSystem`;
//! * [`deployment`] — build/run/extend simulated deployments over any
//!   MAC (`MacChoice`), with incremental rollout, collection reporting,
//!   and the border router as a gateway `Adapter` (`BorderAdapter`), so
//!   wireless readings reach the same gateway, bus and cloud uplink as
//!   wired points;
//! * [`audit`] — the interoperability / scalability / dependability
//!   scorecard.
//!
//! The substrate crates are re-exported under short names so a single
//! dependency on `iiot-core` (or the `iiot` facade) gives access to the
//! whole framework.
//!
//! # Examples
//!
//! The application-logic and data-storage tiers in isolation (see the
//! [`layer`] module docs for the full three-tier loop):
//!
//! ```
//! use iiot_core::{Historian, Rule};
//!
//! let rule = Rule {
//!     name: "overheat".into(),
//!     input: "plant/boiler/temp".into(),
//!     above: true,
//!     threshold: 90.0,
//!     output: "plant/boiler/valve".into(),
//!     command: 0.0,
//! };
//! assert!(rule.fires(92.3) && !rule.fires(88.0));
//!
//! let mut historian = Historian::new(1_000);
//! historian.store("plant/boiler/temp", 0, 92.3);
//! assert_eq!(historian.latest("plant/boiler/temp"), Some(92.3));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod audit;
pub mod deployment;
pub mod layer;

pub use audit::Scorecard;
pub use deployment::{BorderAdapter, CollectionReport, Deployment, DeploymentBuilder, MacChoice};
pub use layer::{Actuation, Historian, LayeredSystem, Rule, SensingActuation};

pub use iiot_aggregate as aggregate;
pub use iiot_coap as coap;
pub use iiot_crdt as crdt;
pub use iiot_dependability as dependability;
pub use iiot_gateway as gateway;
pub use iiot_mac as mac;
pub use iiot_routing as routing;
pub use iiot_security as security;
pub use iiot_sim as sim;
