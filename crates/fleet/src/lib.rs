//! # iiot-fleet — the fleet device-management plane
//!
//! The paper's closing argument (§V-D, §VI) is that industrial IoT at
//! scale is *fleet* management: not one radio network but many plant
//! segments, upgraded, configured and watched as a unit. This crate is
//! that plane, composed from the workspace's existing tiers rather
//! than re-implementing any of them:
//!
//! * **campaigns** ([`harness`]) — [`iiot_dissem::rollout`]'s one
//!   staged-rollout controller, run over network indices
//!   ([`network_cohorts`]: canary network → waves → fleet) exactly as
//!   it runs over nodes inside each network, halts fleet-wide on a
//!   poisoned verdict from any activated network, and pauses while an
//!   activated network is partitioned;
//! * **digital twins** ([`iiot_cloud::twin`]) — every gateway keeps a
//!   CRDT [`TwinStore`](iiot_cloud::TwinStore) replica of its devices'
//!   reported state; the cloud joins the replicas whenever the
//!   backhaul allows and converges after partitions by construction;
//! * **config drift** ([`drift`]) — [`drift::scan`] diffs desired
//!   against reported on the converged cloud state and remediates
//!   through the same bounded CoAP downlink tenant commands use.
//!
//! [`harness::run_fleet`] wires all three over N deterministic
//! simulated networks; `iiot-bench` E17 prices blast radius,
//! time-to-converge and twin lag on top of it.
//!
//! # Examples
//!
//! The campaign controller alone, over network indices, driven by
//! hand-rolled `(done, poisoned)` statuses:
//!
//! ```
//! use iiot_dissem::rollout::{Rollout, Transition};
//! use iiot_fleet::network_cohorts;
//!
//! let mut campaign = Rollout::new(network_cohorts(8, true));
//! // First step: nothing active yet, the canary network goes out.
//! assert_eq!(
//!     campaign.step(|_| (false, false)),
//!     Some(Transition::Activate { stage: "canary", index: 0, cohort: vec![0] })
//! );
//! // The canary network reports a poisoned image: the fleet halts with
//! // one network activated.
//! assert_eq!(
//!     campaign.step(|_| (false, true)),
//!     Some(Transition::Halted { activated: 1 })
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod drift;
pub mod harness;

pub use drift::DriftItem;
pub use harness::{network_cohorts, run_fleet, FaultArm, FleetConfig, FleetOutcome, PartitionSpec};
