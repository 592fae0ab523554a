//! # iiot-timesync — FTSP-style flooding time synchronization
//!
//! Time-slotted MACs (TDMA, §IV-B of the paper) stand on the quality of
//! network-wide time synchronization: every determinism and latency
//! claim assumes nodes agree on when a slot starts. Real motes drift
//! tens of ppm apart; this crate earns the assumption back in the style
//! of the classic Flooding Time Synchronization Protocol:
//!
//! * **reference election** — the lowest node id left talking becomes
//!   the reference (or pin one with
//!   [`FtspConfig::with_reference`]);
//! * **MAC-timestamped beacons** — the reference floods its clock; each
//!   beacon embeds the sender's global-time estimate at transmission
//!   start, and receivers correct for the frame airtime;
//! * **regression estimation** — every node fits offset *and* skew over
//!   a sliding window of `(local, global)` samples
//!   ([`DriftEstimator`]), so estimates stay accurate between beacons;
//! * **re-flooding** — synced nodes rebroadcast one hop further out,
//!   so sync error grows with hop distance (FTSP's classic multi-hop
//!   result — measured in experiment E13);
//! * a [`SyncedClock`] facade other protocols consult to convert
//!   between local and global time.
//!
//! The [`FtspEngine`] is transport-agnostic; [`FtspNode`] hosts it
//! standalone on an always-on radio, and `iiot-mac`'s TDMA embeds it
//! into dedicated sync slots.
//!
//! # Examples
//!
//! A 4-node line with drifting clocks elects node 0 and synchronizes
//! every hop to well under a slot guard time:
//!
//! ```
//! use iiot_sim::prelude::*;
//! use iiot_timesync::{FtspConfig, FtspNode};
//!
//! let ftsp = FtspConfig::default().with_period(SimDuration::from_millis(500));
//! let mut sim = SimBuilder::new()
//!     .seed(7)
//!     .clock(ClockModel::drifting(50.0)) // ±50 ppm crystals
//!     .nodes(Topology::line(4, 25.0), move |_| Box::new(FtspNode::new(ftsp.clone())))
//!     .build();
//! sim.run(SimDuration::from_secs(20));
//!
//! // Node 0 won the election; everyone is synced to it.
//! let root = NodeId(0);
//! let root_now = sim.local_time_of(root);
//! for hops in 1..4 {
//!     let id = NodeId(hops);
//!     let node = sim.proto::<FtspNode>(id);
//!     assert!(node.engine().is_synced());
//!     assert_eq!(node.engine().root(), root);
//!     assert_eq!(u32::from(node.engine().depth()), hops);
//!     let err = node.clock().global(sim.local_time_of(id)).as_micros() as i64
//!         - root_now.as_micros() as i64;
//!     assert!(err.abs() < 500, "{hops} hops out by {err} us");
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod clock;
pub mod estimator;
pub mod ftsp;
pub mod node;

pub use clock::{ClockEstimate, SyncedClock};
pub use estimator::DriftEstimator;
pub use ftsp::{decode_beacon, encode_beacon, Beacon, FtspConfig, FtspEngine, BEACON_LEN};
pub use node::{FtspNode, FTSP_PORT};
