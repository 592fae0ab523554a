//! # iiot-dissem — Deluge-style bulk dissemination and staged reprogramming
//!
//! Over-the-air reprogramming for the reproduction of *"A Distributed
//! Systems Perspective on Industrial IoT"* (Iwanicki, ICDCS 2018).
//! The paper's maintainability discussion (§V-D) puts a number on a
//! blunt fact of fielded sensornets: the only practical way to change
//! what thousands of embedded devices run is to move the new image
//! *through the network itself* — and a bulk transfer protocol layered
//! on lossy, duty-cycled links is a distributed systems problem, not a
//! file copy.
//!
//! The design follows Deluge (Hui & Culler, SenSys 2004) governed by
//! Trickle (RFC 6206, from [`iiot_routing::trickle`]):
//!
//! * an [`image::Image`] is split into *pages* of packet-sized
//!   *chunks*; pages carry CRCs, the image carries a whole-image CRC;
//! * each [`node::DissemNode`] advertises `(version, pages held)`
//!   under a Trickle timer — rarely when neighbours agree, densely for
//!   a few intervals after an inconsistency;
//! * nodes request missing pages strictly in order ([`node::PORT_REQ`])
//!   and serve verified pages chunk by chunk ([`node::PORT_DATA`]),
//!   so an image pipelines across hops: a node starts serving page 0
//!   while still fetching page 3;
//! * progress persists in a flash [`image::PageStore`]: a node that
//!   crashes and recovers ([`iiot_sim::Proto::crashed`]) resumes
//!   mid-image, while a wiped node ([`iiot_sim::Proto::wiped`])
//!   restarts from zero — experiment E14 prices that difference;
//! * a failed whole-image CRC *quarantines* the version: the node
//!   never activates it and won't re-fetch it — but, as in Deluge,
//!   the transport keeps moving bits it verified page-by-page, so a
//!   corrupted build still spreads; *containing* it is the rollout
//!   controller's job;
//! * the gateway ingests images from the backend over CoAP blockwise
//!   ([`inject::BlockInjector`], Block1 PUT to `/fw`), and
//!   [`rollout::drive`] runs the one staged-rollout controller,
//!   [`rollout::Rollout`], over download cohorts canary-first, halting
//!   network-wide on the first quarantine (`iiot-fleet` runs the same
//!   controller over networks).
//!
//! Works over any [`iiot_mac::Mac`]. Under TDMA, schedules built with
//! `TdmaSchedule::tree_edges` carry chunks down the tree in dedicated
//! slots; configure [`node::DissemConfig::unicast_data`] and
//! [`node::DissemConfig::adv_peers`] accordingly.
//!
//! # Examples
//!
//! A three-node line: the gateway is seeded with an image and the
//! other two pull it hop by hop.
//!
//! ```
//! use iiot_dissem::image::Image;
//! use iiot_dissem::node::{DissemConfig, DissemNode};
//! use iiot_mac::csma::CsmaMac;
//! use iiot_sim::prelude::*;
//!
//! type Node = DissemNode<CsmaMac>;
//!
//! let mut sim = SimBuilder::new()
//!     .seed(5)
//!     .nodes(Topology::line(3, 20.0), |_| {
//!         Box::new(DissemNode::new(CsmaMac::default(), DissemConfig::default()))
//!     })
//!     .build();
//!
//! // Version 1: 240 bytes in 2 pages of 4 chunks of 30 bytes.
//! let img = Image::build(1, (0..240u32).map(|i| i as u8).collect(), 30, 4);
//! let gw = NodeId(0);
//! sim.schedule_at(SimTime::from_secs(1), move |w| {
//!     w.with(gw, |n: &mut Node, ctx| n.install(ctx, &img));
//! });
//!
//! sim.run(SimDuration::from_secs(60));
//! for id in (0..3).map(NodeId) {
//!     assert!(sim.proto::<Node>(id).complete_ok(), "{id:?} incomplete");
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod image;
pub mod inject;
pub mod node;
pub mod rollout;

pub use image::{crc32, Image, ImageMeta, PageStore};
pub use inject::BlockInjector;
pub use node::{Dissem, DissemConfig, DissemNode};
pub use rollout::{drive, Rollout};
