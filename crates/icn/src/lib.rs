//! # iiot-icn — named-data pub/sub with content-object security
//!
//! An information-centric networking layer over the simulated MAC
//! stack, after Frey et al.'s argument that **content-object security
//! plus in-network caching** beats per-channel 802.15.4 security for
//! multi-consumer industrial IoT (and Gündoğan et al.'s NDN/CoAP/MQTT
//! measurements of the same workloads):
//!
//! * **Named data** — applications ask for `/plant/cell3/temp`, not
//!   for a host. An Interest travels toward the producer; the Data
//!   object travels back along the reverse path ([`object`]).
//! * **Content-object security** — the producer signs each object
//!   (CBC-MAC over name + version + freshness + payload,
//!   [`iiot_security::crypto`]); *consumers* verify. No hop has to be
//!   trusted, so any copy is as good as the original ([`ContentObject`]).
//! * **In-network caching** — every node keeps a freshness-aware LRU
//!   [`ContentStore`] and answers Interests from it. Only signed
//!   objects make cached copies trustworthy — the channel-security
//!   baseline must fetch end-to-end every time.
//! * **Interest aggregation** — concurrent requests for one name
//!   collapse into a single upstream fetch through the [`Pit`]; the
//!   answer fans back out to every requester.
//!
//! E15 (see `iiot-bench::exp_icn`) prices these against the E10
//! channel-security ladder: total radio energy, delivery latency and
//! security-overhead bytes as the consumer count sweeps 1→16, plus
//! cache-hit behaviour under republish, poisoned-publisher rejection,
//! and multi-consumer behaviour across a partition.
//!
//! # Examples
//!
//! A three-node line — producer, caching forwarder, polling consumer.
//! The consumer's repeat polls are answered by the forwarder's cache:
//!
//! ```
//! use iiot_icn::{IcnConfig, IcnNode, Name, PollPlan};
//! use iiot_mac::csma::CsmaMac;
//! use iiot_sim::prelude::*;
//!
//! let name = Name::new("/plant/cell3/temp");
//! let poll = PollPlan {
//!     name: name.clone(),
//!     start: SimDuration::from_millis(500),
//!     period: SimDuration::from_secs(2),
//!     updates: false,
//! };
//! let mut sim = SimBuilder::new()
//!     .seed(7)
//!     .nodes(Topology::line(3, 20.0), move |id| {
//!         let cfg = match id {
//!             0 => IcnConfig::default(),                                  // producer
//!             1 => IcnConfig { upstream: Some(NodeId(0)), ..IcnConfig::default() },
//!             _ => IcnConfig {
//!                 upstream: Some(NodeId(1)),
//!                 poll: Some(poll.clone()),
//!                 ..IcnConfig::default()
//!             },
//!         };
//!         Box::new(IcnNode::new(CsmaMac::default(), cfg)) as Box<dyn Proto>
//!     })
//!     .build();
//! let n = name.clone();
//! sim.with(NodeId(0), |producer: &mut IcnNode<CsmaMac>, ctx| {
//!     producer.publish(ctx, n, 1, vec![0xAB; 24]);
//! });
//! sim.run(SimDuration::from_secs(6));
//! let consumer = sim.proto::<IcnNode<CsmaMac>>(NodeId(2));
//! assert_eq!(consumer.latest_version(&name), Some(1));
//! assert!(sim.stats().node_total("icn_cache_hit") > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod node;
pub mod object;
pub mod pit;
pub mod store;

pub use node::{
    Delivery, IcnConfig, IcnNode, PollPlan, OBJECT_SEC_LEVEL, PORT_DATA, PORT_INTEREST,
};
pub use object::{decode_interest, encode_interest, ContentObject, Name, SIG_LEN};
pub use pit::{Pit, Requester};
pub use store::ContentStore;
