//! # iiot-routing — self-organizing collection routing for low-power deployments
//!
//! The network layer of the sensing and actuation stack, reproducing the
//! protocols the paper's scalability and maintainability arguments rest
//! on (§IV-B, §V-D):
//!
//! * [`trickle`] — the RFC 6206 adaptive beaconing timer;
//! * [`dodag`] — an RPL-flavoured DODAG collection protocol with local
//!   repair (parent eviction + poisoning + DIS solicitation), global
//!   repair (version bump), and store-and-forward buffering under
//!   partition;
//! * [`rnfd`] — RNFD-style collective border-router failure detection,
//!   with the solo-detector baseline;
//! * [`graph`] — connectivity oracles (BFS hops/parents) used for
//!   deployment planning, TDMA schedules and experiment ground truth.
//!
//! All protocols are generic over the [`Mac`](iiot_mac::Mac), so the
//! same routing code runs over CSMA, LPL, RI-MAC or TDMA.
//!
//! # Examples
//!
//! The Trickle timer backs off exponentially while the network is
//! consistent and snaps back to `Imin` on an inconsistency:
//!
//! ```
//! use iiot_routing::trickle::{Trickle, TrickleConfig};
//! use rand::rngs::SmallRng;
//! use rand::SeedableRng;
//!
//! let mut rng = SmallRng::seed_from_u64(1);
//! let mut t = Trickle::new(TrickleConfig::default());
//! let first = t.begin_interval(&mut rng);
//! t.interval_expired(); // quiet interval: I doubles
//! let second = t.begin_interval(&mut rng);
//! assert_eq!(second.end, first.end * 2);
//! assert!(t.inconsistent()); // snap back to Imin
//! let reset = t.begin_interval(&mut rng);
//! assert_eq!(reset.end, first.end);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod collect;
pub mod dodag;
pub mod graph;
pub mod rnfd;
pub mod statictree;
pub mod trickle;

pub use dodag::{Collected, Dodag, DodagConfig, DodagNode, Traffic};
pub use rnfd::{RnfdConfig, RnfdNode};
pub use statictree::{StaticCollection, StaticConfig};
pub use trickle::{Trickle, TrickleConfig};
