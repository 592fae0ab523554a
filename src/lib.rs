#![warn(missing_docs)]
//! # iiot — a distributed-systems substrate for industrial IoT
//!
//! Facade crate of the reproduction of *"A Distributed Systems
//! Perspective on Industrial IoT"* (Iwanicki, ICDCS 2018). Everything
//! lives in focused sub-crates, re-exported here:
//!
//! | Module | Crate | Paper section |
//! |---|---|---|
//! | [`sim`] | `iiot-sim` | §II-B — the deployment substrate (DES kernel) and its fault plans |
//! | [`mac`] | `iiot-mac` | §IV-B/§IV-C — CSMA, LPL, RI-MAC, TDMA, coexistence |
//! | [`routing`] | `iiot-routing` | §IV/§V-D — Trickle, DODAG, RNFD, static trees |
//! | [`coap`] | `iiot-coap` | §III-B — CoAP middleware (RFC 7252/7641/7959) |
//! | [`dissem`] | `iiot-dissem` | §V-D — Deluge-style OTA dissemination, staged reprogramming |
//! | [`icn`] | `iiot-icn` | §V-E — named-data pub/sub, content-object security, in-network caching |
//! | [`crdt`] | `iiot-crdt` | §IV-B/§V-C — eventual consistency |
//! | [`aggregate`] | `iiot-aggregate` | §IV-B — TinyDB-style in-network aggregation |
//! | [`security`] | `iiot-security` | §V-E — frame security, secure join |
//! | [`dependability`] | `iiot-dependability` | §V — redundancy, safety, HVAC, replicas, diagnosis |
//! | [`gateway`] | `iiot-gateway` | §III — legacy-protocol integration |
//! | [`cloud`] | `iiot-cloud` | Fig. 1 — multi-tenant northbound platform tier |
//! | [`stream`] | `iiot-stream` | Fig. 1/§V-B — replayable event log, admission control, windowed aggregation |
//! | [`fleet`] | `iiot-fleet` | §V-D/§VI — fleet campaigns, digital twins, config drift |
//! | [`core`] | `iiot-core` | Fig. 1 — deployments carrying readings through gateway, rules, cloud log and twins on one clock |
//!
//! See the `examples/` directory for runnable end-to-end scenarios and
//! DESIGN.md for the experiment index.
//!
//! # Examples
//!
//! A minimal end-to-end run: a simulated deployment self-organizes into
//! a DODAG, collects periodic readings at the border router, and —
//! through the gateway attached to it — writes every one of them to the
//! cloud's log.
//!
//! ```
//! use iiot::{crdt::ReplicaId, gateway::Gateway, sim::{SimDuration, Topology}};
//! use iiot::{Deployment, MacChoice};
//!
//! let mut d = Deployment::builder(Topology::grid(3, 2, 20.0))
//!     .mac(MacChoice::Csma)
//!     .seed(7)
//!     .traffic(SimDuration::from_secs(10), 4, SimDuration::from_secs(15))
//!     .build();
//! d.attach_gateway(Gateway::new(ReplicaId(1)), "cell", Vec::new());
//! d.run_for(SimDuration::from_secs(90));
//! let report = d.report();
//! assert!(report.generated > 0, "nodes emitted readings");
//! assert!(report.delivered > 0, "the root collected some of them");
//! let cloud = d.north.as_ref().expect("attached").cloud();
//! assert_eq!(cloud.wal().expect("logged").records(), report.delivered);
//! ```

pub use iiot_core::{
    deployment, CollectionReport, Deployment, DeploymentBuilder, MacChoice, Northbound, Rule, POLL,
};

pub use iiot_aggregate as aggregate;
pub use iiot_cloud as cloud;
pub use iiot_coap as coap;
pub use iiot_core as core;
pub use iiot_crdt as crdt;
pub use iiot_dependability as dependability;
pub use iiot_dissem as dissem;
pub use iiot_fleet as fleet;
pub use iiot_gateway as gateway;
pub use iiot_icn as icn;
pub use iiot_mac as mac;
pub use iiot_routing as routing;
pub use iiot_security as security;
pub use iiot_sim as sim;
pub use iiot_stream as stream;
