//! The repository's benchmark: four workloads that between them run every
//! layer of the paper's Fig. 1, measured end to end with tracing off and
//! layer by layer with tracing on. README.md says how to run it, what
//! each metric means and which should move when a layer gets faster.
//!
//! Everything here observes the `iiot-*` crates from outside, through
//! their public APIs; it adds no knob and no instrumentation to any of
//! them.

#![warn(missing_docs)]

pub mod alloc;
pub mod cli;
pub mod cloud;
pub mod field;
pub mod json;
pub mod metric;
pub mod plant;
pub mod report;
pub mod shim;
pub mod stat;
pub mod trace;
