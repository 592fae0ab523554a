//! Multi-tenant northbound cloud tier: device registry, bounded ingest
//! pipeline, and command & control over the gateway's CoAP surface.
//!
//! The paper's Fig. 1 stacks a cloud layer above devices and gateways;
//! this crate is that layer, scoped to the three concerns that give the
//! tier its distributed-systems character:
//!
//! * **tenancy** — [`DeviceRegistry`] keys every device into a
//!   per-tenant namespace and checks an XTEA-CBC-MAC credential on
//!   every uplink, O(1) per message ([`registry`]);
//! * **capacity** — [`IngestPipeline`] runs per-tenant *bounded*
//!   queues behind a front door, with an explicit [`ShedPolicy`] for
//!   overload and a sharded batch drain behind it ([`ingest`]), all on
//!   the caller's thread. No queue ever grows past its cap;
//!   backpressure is a counted, observable event, not an OOM;
//! * **control** — [`CommandRouter`] plays tenant-issued writes back
//!   down through a gateway's northbound CoAP server as confirmable
//!   PUTs ([`command`]);
//! * **durability** — [`StreamConfig`] attaches the stream plane from
//!   `iiot-stream`: a write-ahead event log the front door appends
//!   every offer to (replayable byte-for-byte via [`stream::replay`]),
//!   per-tenant token-bucket admission control ahead of the queues,
//!   and watermark-driven aggregation windows over accepted uplinks
//!   ([`stream`]);
//! * **state** — [`TwinStore`] keeps a CRDT digital twin per device
//!   (reported/desired config, tags, vector-clock provenance) that
//!   converges under partitions and delayed uplinks ([`twin`]); the
//!   fleet plane (`iiot-fleet`) builds drift detection and campaign
//!   gating on top of it.
//!
//! [`SessionGen`] generates the load: deterministic synthetic device
//! sessions merged into one time-ordered stream, cheap enough to drive
//! 10^5–10^6 sessions through the pipeline in one experiment run
//! (`iiot-bench` E16). Every statistic the pipeline reports is measured
//! in virtual time, so results are byte-identical across worker counts
//! and machines — the same determinism contract the rest of the
//! workspace holds.
//!
//! # Quickstart
//!
//! ```
//! use iiot_cloud::{
//!     DeviceRegistry, IngestConfig, IngestPipeline, SessionGen, SessionPlan,
//! };
//! use iiot_security::Key;
//! use iiot_sim::SimTime;
//!
//! // Two tenants, a small fleet each, credentials precomputed.
//! let mut registry = DeviceRegistry::new();
//! let acme = registry.create_tenant("acme", Key([1; 16]));
//! let borg = registry.create_tenant("borg", Key([2; 16]));
//! registry.register_fleet(acme, 40);
//! registry.register_fleet(borg, 40);
//!
//! // Deterministic sessions in, bounded queues inside.
//! let mut gen = SessionGen::new(&registry, SessionPlan::default(), 42);
//! let mut cloud = IngestPipeline::new(registry, IngestConfig::default());
//! while let Some(msg) = gen.next_msg(cloud.registry()) {
//!     cloud.offer(msg); // the drain ticks due, then auth + enqueue (or shed)
//! }
//! cloud.drain_remaining();
//!
//! let (offered, accepted, shed, drained) = cloud.totals();
//! assert_eq!(offered, 2 * 40 * 4);
//! assert_eq!(accepted, drained);
//! assert_eq!(offered, accepted + shed);
//! for summary in iiot_cloud::metrics::summarize(&cloud) {
//!     assert!(summary.p99_us < 50_000, "light load drains within a few ticks");
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod command;
pub mod ingest;
pub mod metrics;
pub mod registry;
pub mod session;
pub mod stream;
pub mod tenant;
pub mod twin;

pub use command::{Command, CommandOutcome, CommandRouter};
pub use ingest::{IngestConfig, IngestPipeline, TenantStats, UplinkMsg};
pub use metrics::{jain_fairness, service_fairness, TenantSummary};
pub use registry::{AuthError, DeviceRegistry};
pub use session::{SessionGen, SessionPlan};
pub use stream::{decode_uplink, encode_uplink, replay, StreamConfig, UPLINK_FRAME};
pub use tenant::{Isolation, ShedPolicy, TenantId};
pub use twin::{DeviceTwin, TwinStore};
