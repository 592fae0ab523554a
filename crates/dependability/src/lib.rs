//! # iiot-dependability — reliability, safety, availability, maintainability
//!
//! The toolkit behind the paper's §V analysis, one module per facet:
//!
//! * [`redundancy`] — the three redundancy types of §V-A as working
//!   mechanisms with analytic success models: information (XOR-parity
//!   erasure coding), time (deadline-bounded retries) and physical
//!   (replicated sensors with majority voting);
//! * [`safety`] — continuous safety: nested hard/soft envelopes,
//!   violation accounting and the comfort/energy revenue model (§V-B);
//! * [`hvac`] — the office-HVAC scenario: thermal zone model,
//!   margin-aware thermostat, occupancy schedule (experiment E9);
//! * [`replica`] — the CAP availability simulator comparing CRDT (AP)
//!   and majority-quorum (CP) stores under partitions (§V-C, E7);
//! * [`diagnosis`] — automated root-cause analysis of node symptoms,
//!   the §V-D gap made concrete.
//!
//! # Examples
//!
//! The CAP trade-off in two lines each: under a total partition the
//! quorum (CP) store refuses every write while the CRDT (AP) store
//! stays fully available and converges after the heal.
//!
//! ```
//! use iiot_dependability::replica::{simulate, Design, PartitionWindow};
//!
//! let split = vec![PartitionWindow { start: 0, end: 10, groups: vec![0, 1, 2] }];
//! let cp = simulate(Design::Cp, 3, 20, &split, 2);
//! assert!(cp.availability() < 1.0, "no majority, no writes");
//! let ap = simulate(Design::Ap, 3, 20, &split, 2);
//! assert_eq!(ap.availability(), 1.0);
//! assert!(ap.convergence_rounds.is_some(), "anti-entropy heals the divergence");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod diagnosis;
pub mod hvac;
pub mod redundancy;
pub mod replica;
pub mod safety;

pub use diagnosis::{diagnose, diagnose_fleet, Cause, Finding, Symptoms};
pub use replica::{
    simulate as simulate_replicas, simulate_with as simulate_replicas_with, AvailabilityReport,
    Design, PartitionWindow,
};
pub use safety::{SafetyEnvelope, SafetyMonitor, SafetyState};
