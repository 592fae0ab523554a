//! # iiot-fleet — the fleet device-management plane
//!
//! The paper's closing argument (§V-D, §VI) is that industrial IoT at
//! scale is *fleet* management: not one radio network but many plant
//! segments, upgraded, configured and watched as a unit. This crate is
//! that plane, composed from the workspace's existing tiers rather
//! than re-implementing any of them:
//!
//! * **campaigns** ([`campaign`]) — [`FleetCampaign`] sequences a
//!   change across networks (canary networks → waves → fleet) exactly
//!   the way [`iiot_dissem::rollout`] sequences it across nodes, and
//!   halts fleet-wide on a poisoned verdict from any activated network;
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
//! The controller alone, driven by hand-rolled reports:
//!
//! ```
//! use iiot_fleet::{CampaignAction, FleetCampaign, NetworkId};
//!
//! let mut c = FleetCampaign::staged(8, 1, 2);
//! // First step: nothing active yet, the canary network goes out.
//! let actions = c.step(&[]);
//! assert_eq!(
//!     actions,
//!     vec![CampaignAction::Activate { networks: vec![NetworkId(0)], stage: "canary" }]
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod drift;
pub mod harness;

pub use campaign::{CampaignAction, CampaignPhase, FleetCampaign, NetworkId, NetworkReport};
pub use drift::DriftItem;
pub use harness::{run_fleet, FaultArm, FleetConfig, FleetOutcome, PartitionSpec};
