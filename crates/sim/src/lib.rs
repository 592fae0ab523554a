//! # iiot-sim — deterministic discrete-event simulator for the sensing and actuation layer
//!
//! This crate is the hardware substitute for the reproduction of
//! *"A Distributed Systems Perspective on Industrial IoT"* (Iwanicki,
//! ICDCS 2018): a deterministic discrete-event simulation kernel that
//! stands in for the low-power wireless testbeds the paper's claims are
//! grounded in.
//!
//! The kernel provides:
//!
//! * integer-microsecond [`time`], a totally ordered event queue (a
//!   [`queue`] calendar, generic over its bucket width), and a per-node
//!   seeded RNG — runs are bit-for-bit reproducible per seed;
//! * a [`radio`] medium with unit-disk, lossy-disk and log-distance/
//!   sigmoid-PRR link models, collisions with capture, CCA, channels and
//!   administrative partitions — candidate receivers, audible carriers
//!   and colliding frames are all found through a [`spatial`] grid
//!   index, so per-transmission cost is O(neighbours) rather than
//!   O(nodes) or O(frames in the air);
//! * per-node [`energy`] accounting (sleep/listen/transmit residency,
//!   charge, projected battery lifetime);
//! * per-node drifting oscillators ([`clock`]): protocols read
//!   [`Ctx::local_time`](world::Ctx::local_time) instead of perfect
//!   global time, making clock drift a first-class fault model;
//! * [`topology`] generators for the deployment shapes industrial IoT
//!   dictates (lines, grids, uniform scatters, machine clusters);
//! * fault injection (node crash/recovery with or without a flash
//!   wipe, link failures, partitions) through one declarative
//!   [`fault::FaultPlan`];
//! * [`trace`] per-node counters, and summaries of sample slices, for experiment reporting;
//! * structured [`obs`] events, spans and recorders: zero-cost when
//!   disabled, and the substrate of `--trace` dumps and `trace_report`.
//!
//! Protocols implement [`node::Proto`] and act through [`world::Ctx`];
//! [`sim::SimBuilder`] → [`sim::Sim`] is the only way to build and
//! drive a simulation, one serial kernel on the calling thread, and a
//! [`fault::FaultPlan`] the only way to schedule a fault on it.
//!
//! # Examples
//!
//! ```
//! use iiot_sim::prelude::*;
//!
//! /// Broadcast one hello and count how many neighbours answer.
//! struct Hello { replies: u32 }
//!
//! impl Proto for Hello {
//!     fn start(&mut self, ctx: &mut Ctx<'_>) {
//!         ctx.radio_on().expect("radio");
//!         if ctx.id() == NodeId(0) {
//!             // Delay the hello so every neighbour has booted its radio.
//!             ctx.set_timer(SimDuration::from_millis(10), 0);
//!         }
//!     }
//!     fn timer(&mut self, ctx: &mut Ctx<'_>, _t: Timer) {
//!         ctx.transmit(Dst::Broadcast, 0, b"hi".to_vec()).expect("tx");
//!     }
//!     fn frame(&mut self, ctx: &mut Ctx<'_>, frame: &Frame, _info: RxInfo) {
//!         if frame.payload == b"hi" {
//!             ctx.transmit(Dst::Unicast(frame.src), 0, b"yo".to_vec()).ok();
//!         } else {
//!             self.replies += 1;
//!         }
//!     }
//! }
//!
//! let mut sim = SimBuilder::new()
//!     .seed(42)
//!     .nodes(Topology::line(3, 20.0), |_| Box::new(Hello { replies: 0 }))
//!     .build();
//! sim.run(SimDuration::from_secs(1));
//! // Only the immediate neighbour is in the 30 m unit-disk range.
//! assert_eq!(sim.proto::<Hello>(NodeId(0)).replies, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod clock;
pub mod energy;
pub mod fault;
pub mod ids;
pub mod node;
pub mod obs;
pub mod queue;
pub mod radio;
pub mod seed;
pub mod sim;
pub mod spatial;
pub mod time;
pub mod topology;
pub mod trace;
pub mod world;

pub use clock::ClockModel;
pub use fault::{Fault, FaultError, FaultPlan};
pub use ids::{NodeId, TimerId};
pub use node::{AsAny, Idle, Proto, StateLoss, Timer};
pub use radio::{Dst, Frame, RadioConfig, RadioError, RadioState, RxInfo, TxOutcome};
pub use sim::{Sim, SimBuilder};
pub use time::{SimDuration, SimTime};
pub use topology::{Pos, Topology};
pub use world::{Ctx, SimConfig};

/// Convenient glob import for building simulations.
pub mod prelude {
    pub use crate::clock::ClockModel;
    pub use crate::energy::EnergyUsage;
    pub use crate::ids::{NodeId, TimerId};
    pub use crate::node::{AsAny, Idle, Proto, StateLoss, Timer};
    pub use crate::obs::{Event, EventKind, Recorder, SpanId};
    pub use crate::radio::{
        Dst, Frame, LinkModel, RadioConfig, RadioError, RadioState, RxInfo, TxOutcome,
    };
    pub use crate::sim::{ShardConfig, Sim, SimBuilder};
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::topology::{Pos, Topology};
    pub use crate::trace::{Stats, Summary};
    pub use crate::world::{Ctx, SimConfig};
}
