//! Replayable event log, per-tenant admission control and windowed
//! aggregation for the cloud tier.
//!
//! The cloud ingest pipeline (PR 7) is ephemeral: a message that
//! clears a queue is gone, shedding happens only *after* buffering,
//! and uplinks are aggregated ad hoc by experiments. This crate adds
//! the three durable/streaming pieces the tiered data plane needs,
//! all under the workspace's virtual-time determinism contract:
//!
//! - [`log`] — a segmented append-only event log with CRC-checked
//!   framed records (the bitwise CRC-32 from `iiot-dissem`), sealed
//!   segments, consumer cursors with committed offsets, and crash
//!   recovery that truncates a torn tail and resumes. Replaying the
//!   log through the cloud pipeline reproduces a live run's stats and
//!   trace bytes exactly.
//! - [`admission`] — per-tenant token buckets refilled in virtual
//!   time, shedding *before* the bounded queues so "you exceeded your
//!   contract" and "the platform is overloaded" stay separately
//!   countable.
//! - [`window`] — tumbling aggregation windows
//!   (count/sum/min/max/p99 per tenant × metric) closed by
//!   watermarks, so late and partition-delayed uplinks are attributed
//!   deterministically.
//!
//! `iiot-stream` depends only on `iiot-sim` and `iiot-dissem`; the
//! cloud tier depends on it, not the other way round, so payloads are
//! raw bytes and keys are plain integers here while `iiot-cloud` owns
//! the uplink codec.
//!
//! # Quickstart
//!
//! Append through the log, crash mid-record, recover, and replay —
//! the recovered prefix is byte-identical to what was written:
//!
//! ```
//! use iiot_stream::{AdmissionControl, EventLog, LogConfig, LogCursor, RateLimit};
//! use iiot_sim::SimTime;
//!
//! let mut admission = AdmissionControl::uniform(RateLimit::per_sec(1_000, 8));
//! let mut log = EventLog::new(LogConfig::default());
//! let mut admitted = Vec::new();
//! let mut shed = 0;
//! for i in 0..100u32 {
//!     let now = SimTime::from_micros(u64::from(i) * 500);
//!     if admission.admit(/* tenant */ 0, now) {
//!         log.append(&i.to_le_bytes());
//!         admitted.push(i);
//!     } else {
//!         shed += 1;
//!     }
//! }
//! assert_eq!(log.records(), 100 - shed);
//!
//! // A crash tears the tail mid-record; recovery drops only the torn
//! // frame and the survivor replays every intact record in order.
//! let torn = &log.as_bytes()[..log.as_bytes().len() - 3];
//! let (recovered, report) = EventLog::recover(torn, LogConfig::default());
//! assert_eq!(report.records, log.records() - 1);
//! let mut cursor = LogCursor::new();
//! let mut replayed = 0;
//! while let Some((seq, payload)) = recovered.read(&mut cursor) {
//!     assert_eq!(payload, admitted[seq as usize].to_le_bytes());
//!     replayed += 1;
//! }
//! cursor.commit();
//! assert_eq!(replayed, report.records);
//! assert_eq!(cursor.committed(), report.records);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod log;
pub mod window;

pub use admission::{AdmissionControl, RateLimit, TokenBucket};
pub use log::{
    AppendInfo, EventLog, LogConfig, LogCursor, RecoveryReport, SegmentInfo, FRAME_HEADER,
};
pub use window::{WindowAggregator, WindowKey, WindowResult, WindowSpec};
