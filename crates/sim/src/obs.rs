//! Structured observability: typed events, causal spans, recorders and
//! trace capture (paper §V-D, diagnosability).
//!
//! Every hot path in the simulator and the protocol crates emits typed
//! [`Event`]s through [`Ctx::emit`](crate::world::Ctx::emit). Emission
//! is **zero-cost when disabled**: the kernel holds an
//! `Option<Box<dyn Recorder>>` and skips everything but one branch when
//! no recorder is installed. Events carry the simulation time, the node
//! they are attributed to and a [`SpanId`], so multi-hop deliveries and
//! repair episodes can be stitched into causal traces after the fact.
//!
//! Three recorders ship with the crate:
//!
//! * [`RingRecorder`] — keeps the last `cap` events in memory;
//! * [`CountingRecorder`] — per-kind counters only, no event storage;
//! * [`JsonlRecorder`] — streams one JSON object per event to a writer.
//!
//! The kernel emits events and does not explain them: what a trace
//! *means* — drop causes, top talkers, span latency, a section per
//! plane — is `iiot_bench::report`, the fold behind the `trace_report`
//! binary, which reads a dump one [`DumpLine`] at a time. [`Histogram`]
//! is the shared log-scale summary it and the protocols feed.
//!
//! The module also owns the *global trace sink* used by `--trace` on the
//! experiments binary: worker threads tag themselves with a scope
//! ([`set_scope`]) before running a trial, every
//! [`Sim`](crate::sim::Sim) built under
//! an active scope captures its events, and [`drain_traces`] returns all
//! captured traces in a canonical order that does not depend on thread
//! scheduling — which is what makes `--trace` output byte-identical for
//! any `--jobs` count.
//!
//! # Adding an event kind
//!
//! One entry in the `event_kinds!` table below — rustdoc, then
//! `Variant = "wire_name" { field: Type, .. }`, with `field as "key"`
//! only where the wire key differs from the field name — yields the
//! variant, its [`EventKind::name`]/[`EventKind::NAMES`] entry and both
//! codec directions; then give the kind a line in
//! `tests/golden/events.jsonl` (the round-trip test insists) and, if it
//! should be summarised, a line in `iiot_bench::report`.
//!
//! # Examples
//!
//! ```
//! use iiot_sim::prelude::*;
//! use iiot_sim::obs::{Event, EventKind, RingRecorder, SpanId};
//!
//! struct Chirp;
//! impl Proto for Chirp {
//!     fn start(&mut self, ctx: &mut Ctx<'_>) {
//!         ctx.radio_on().unwrap();
//!         ctx.emit(EventKind::Custom { name: "boot", value: 1.0 });
//!         ctx.transmit(Dst::Broadcast, 7, vec![1, 2, 3]).unwrap();
//!     }
//! }
//!
//! let mut sim = SimBuilder::new()
//!     .nodes(Topology::line(1, 10.0), |_| Box::new(Chirp))
//!     .recorder(Box::new(RingRecorder::new(64)))
//!     .build();
//! sim.run(SimDuration::from_secs(1));
//!
//! let ring = sim.recorder_as::<RingRecorder>().unwrap();
//! let kinds: Vec<&str> = ring.events().map(|e| e.kind.name()).collect();
//! assert_eq!(kinds, ["custom", "tx_start", "tx_end"]);
//! ```

use crate::ids::NodeId;
use crate::node::AsAny;
use crate::time::SimTime;
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt::Write as _;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Mutex;

/// Identifier stitching related events into one causal trace.
///
/// A span id packs a tag and two 31-bit fields into a `u64`, so events
/// can reference a span without any allocation or global registry:
///
/// * [`SpanId::packet`] — one end-to-end delivery, keyed by the packet's
///   origin node and origin sequence number (which collection protocols
///   already carry in their headers, so no wire-format change is
///   needed);
/// * [`SpanId::episode`] — one repair/maintenance episode at a node
///   (e.g. an RNFD suspicion or a global DODAG repair).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SpanId(pub u64);

const SPAN_FIELD: u64 = 0x7FFF_FFFF;

impl SpanId {
    /// "Not part of any span."
    pub const NONE: SpanId = SpanId(0);

    fn make(tag: u64, a: u32, b: u32) -> SpanId {
        SpanId((tag << 62) | ((a as u64 & SPAN_FIELD) << 31) | (b as u64 & SPAN_FIELD))
    }

    /// The span of one end-to-end packet delivery, identified by its
    /// origin node and origin-assigned sequence number.
    pub fn packet(origin: NodeId, seq: u32) -> SpanId {
        SpanId::make(1, origin.0, seq)
    }

    /// The span of one repair/maintenance episode at `node`.
    pub fn episode(node: NodeId, n: u32) -> SpanId {
        SpanId::make(2, node.0, n)
    }

    /// Whether this is [`SpanId::NONE`].
    pub fn is_none(self) -> bool {
        self.0 == 0
    }

    /// Whether this is a packet-delivery span.
    pub fn is_packet(self) -> bool {
        self.0 >> 62 == 1
    }

    /// Whether this is a repair-episode span.
    pub fn is_episode(self) -> bool {
        self.0 >> 62 == 2
    }

    /// First packed field: the origin node (packet) or the episode's
    /// node.
    pub fn node(self) -> NodeId {
        NodeId(((self.0 >> 31) & SPAN_FIELD) as u32)
    }

    /// Second packed field: the sequence/episode number.
    pub fn seq(self) -> u32 {
        (self.0 & SPAN_FIELD) as u32
    }
}

impl std::fmt::Display for SpanId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_packet() {
            write!(f, "pkt({},{})", self.node().0, self.seq())
        } else if self.is_episode() {
            write!(f, "ep({},{})", self.node().0, self.seq())
        } else {
            write!(f, "-")
        }
    }
}

/// One value type of the JSONL wire format. The codec is written once
/// per field *type* here; [`event_kinds!`] applies it per field.
trait Wire: Sized {
    /// Appends the value's JSON text.
    fn put(&self, out: &mut String);
    /// Parses the raw value text; `None` when malformed or out of range
    /// for the type (never truncated to fit).
    fn get(raw: &str) -> Option<Self>;
}

macro_rules! wire_number {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn put(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
            fn get(raw: &str) -> Option<Self> {
                raw.parse().ok()
            }
        }
    )*};
}
wire_number!(u8, u16, u32, u64, i64, f64);

/// Booleans travel as `0`/`1`.
impl Wire for bool {
    fn put(&self, out: &mut String) {
        out.push(if *self { '1' } else { '0' });
    }
    fn get(raw: &str) -> Option<Self> {
        match raw {
            "0" => Some(false),
            "1" => Some(true),
            _ => None,
        }
    }
}

impl Wire for NodeId {
    fn put(&self, out: &mut String) {
        self.0.put(out);
    }
    fn get(raw: &str) -> Option<Self> {
        u32::get(raw).map(NodeId)
    }
}

/// An absent node travels as `-1`.
impl Wire for Option<NodeId> {
    fn put(&self, out: &mut String) {
        match self {
            Some(n) => n.put(out),
            None => out.push_str("-1"),
        }
    }
    fn get(raw: &str) -> Option<Self> {
        if raw == "-1" {
            Some(None)
        } else {
            NodeId::get(raw).map(Some)
        }
    }
}

/// Emitters only use identifier-like literals, so strings are quoted
/// but not escaped; parsing interns them back to `&'static str`.
impl Wire for &'static str {
    fn put(&self, out: &mut String) {
        out.push('"');
        out.push_str(self);
        out.push('"');
    }
    fn get(raw: &str) -> Option<Self> {
        Some(intern(raw))
    }
}

fn put_field<T: Wire>(out: &mut String, key: &str, v: &T) {
    let _ = write!(out, ",\"{key}\":");
    v.put(out);
}

/// Reads field `key` of a flat JSON object; an `Err` names the field
/// that is missing, malformed or out of range.
fn get_field<T: Wire>(line: &str, key: &str) -> Result<T, String> {
    let raw = json_raw(line, key).ok_or_else(|| format!("missing field '{key}': {line}"))?;
    T::get(raw).ok_or_else(|| format!("field '{key}' malformed or out of range: {line}"))
}

/// A field's wire key: its own name unless the table says `as "key"`.
macro_rules! wire_key {
    ($field:ident) => {
        stringify!($field)
    };
    ($field:ident, $key:literal) => {
        $key
    };
}

/// The one table of event kinds. Each entry states the variant, its
/// rustdoc, its wire name and its typed fields (`field as "key": Type`
/// where the wire key differs from the field name); the enum,
/// [`EventKind::name`], [`EventKind::NAMES`] and both directions of the
/// JSONL codec are derived from it.
macro_rules! event_kinds {
    ($(
        $(#[$vmeta:meta])*
        $variant:ident = $wire:literal {
            $( $(#[$fmeta:meta])* $field:ident $(as $key:literal)? : $ty:ty, )*
        }
    )*) => {
        /// What happened. Every variant is `Copy` and allocation-free so that
        /// constructing one on a hot path costs a few register moves even when
        /// no recorder is installed.
        #[derive(Clone, Copy, PartialEq, Debug)]
        pub enum EventKind {
            $( $(#[$vmeta])* $variant { $( $(#[$fmeta])* $field: $ty, )* }, )*
        }

        impl EventKind {
            /// Every kind's wire name, in declaration order.
            pub const NAMES: &'static [&'static str] = &[$($wire),*];

            /// Stable kind name used in JSONL dumps and counters.
            pub fn name(&self) -> &'static str {
                match self {
                    $( EventKind::$variant { .. } => $wire, )*
                }
            }

            /// Appends `,"key":value` for every field, in table order.
            fn put_fields(&self, out: &mut String) {
                match self {
                    $( EventKind::$variant { $($field),* } => {
                        $( put_field(out, wire_key!($field $(, $key)?), $field); )*
                    } )*
                }
            }

            /// Rebuilds the kind named `name` from the fields of `line`.
            fn get_fields(name: &str, line: &str) -> Result<EventKind, String> {
                Ok(match name {
                    $( $wire => EventKind::$variant {
                        $( $field: get_field(line, wire_key!($field $(, $key)?))?, )*
                    }, )*
                    other => return Err(format!("unknown event kind '{other}'")),
                })
            }
        }
    };
}

event_kinds! {
    /// A transmission left a node's radio (kernel-level, every frame).
    TxStart = "tx_start" {
        /// Unicast destination, `None` for broadcast.
        dst: Option<NodeId>,
        /// Radio demux port.
        port: u8,
        /// Payload length in bytes.
        bytes: u32,
    }
    /// A transmission finished at the sender.
    TxEnd = "tx_end" {
        /// Oracle count of candidates that actually received the frame.
        receivers: u32,
    }
    /// A frame was delivered to the node's protocol stack.
    RxDeliver = "rx_deliver" {
        /// Link-layer source of the frame.
        src: NodeId,
        /// Radio demux port.
        port: u8,
    }
    /// A candidate reception was lost, with the medium's drop cause.
    RxDrop = "rx_drop" {
        /// Drop cause name (see [`crate::radio::DropReason`]).
        cause: &'static str,
        /// Link-layer source, when the medium still knows it.
        src: Option<NodeId>,
    }
    /// A MAC transmit pipeline changed state.
    MacState = "mac_state" {
        /// Which MAC (`"csma"`, `"lpl"`, `"rimac"`, `"tdma"`).
        mac: &'static str,
        /// The state entered.
        state: &'static str,
    }
    /// A Trickle timer was reset to its minimum interval.
    TrickleReset = "trickle_reset" {
        /// Why (`"inconsistent"`, `"new_version"`, ...).
        cause: &'static str,
    }
    /// A DIO control message was sent.
    DioSent = "dio" {
        /// The advertised rank.
        rank: u16,
    }
    /// The node's rank and/or preferred parent changed.
    RankChange = "rank_change" {
        /// Rank before the change.
        old: u16,
        /// Rank after the change.
        new: u16,
        /// The new preferred parent, if any.
        parent: Option<NodeId>,
    }
    /// An RNFD node-failure-detection verdict was reached.
    RnfdVerdict = "rnfd_verdict" {
        /// The node being judged.
        target: NodeId,
        /// The verdict (`"dead"` or `"alive"`).
        verdict: &'static str,
    }
    /// A confirmable CoAP message was retransmitted.
    CoapRetx = "coap_retx" {
        /// Retransmission attempt number (1-based).
        attempt: u32,
    }
    /// Two CRDT replicas merged state.
    CrdtMerge = "crdt_merge" {
        /// Number of keys in the merged-in state.
        keys: u32,
    }
    /// A fault was injected (or healed) by the harness.
    Fault = "fault" {
        /// `"crash"`, `"recover"`, `"link_down"`, `"link_up"`,
        /// `"partition"`, `"heal"`.
        kind as "fault": &'static str,
        /// The peer node for link faults.
        peer: Option<NodeId>,
    }
    /// A data packet was created at its origin (span anchor).
    DataOrigin = "data_origin" {
        /// Origin-assigned sequence number.
        seq: u32,
    }
    /// A data packet was forwarded one hop closer to the sink.
    DataHop = "data_hop" {
        /// The previous hop.
        from: NodeId,
        /// Hop count so far.
        hops: u8,
    }
    /// A data packet arrived at the sink (span end).
    DataArrive = "data_arrive" {
        /// Total hop count.
        hops: u8,
    }
    /// A queue depth sample (taken on enqueue).
    QueueDepth = "queue_depth" {
        /// Which queue (`"mac"`, `"dodag"`).
        queue: &'static str,
        /// Depth after the enqueue.
        depth: u32,
    }
    /// A time-synchronization beacon was transmitted (FTSP-style
    /// flooding).
    SyncBeacon = "sync_beacon" {
        /// The reference (root) node whose timebase the beacon carries.
        root: NodeId,
        /// Flood sequence number of the beacon.
        seq: u32,
        /// Hop distance of the sender from the reference.
        hops: u8,
    }
    /// A node re-estimated its offset/skew against the global timebase.
    OffsetEstimate = "offset_estimate" {
        /// Estimated local-to-global offset, in microseconds.
        offset_us: i64,
        /// Estimated skew relative to the global timebase, in ppm.
        skew_ppm: f64,
    }
    /// Slot timing discipline was violated (TDMA under clock drift):
    /// a transmission overran its slot or a frame arrived outside the
    /// receiver's slot.
    GuardViolation = "guard_violation" {
        /// What went wrong (`"tx_overrun"`, `"late_frame"`,
        /// `"tx_busy"`).
        cause: &'static str,
    }
    /// A dissemination summary advertisement (Deluge-style `ADV`) was
    /// broadcast.
    DissemAdv = "dissem_adv" {
        /// The advertised image version.
        version: u32,
        /// Number of complete pages the advertiser holds.
        have: u32,
    }
    /// A dissemination page request (`REQ`) was sent to a neighbor that
    /// advertised more pages.
    DissemReq = "dissem_req" {
        /// The image version being fetched.
        version: u32,
        /// The page index requested.
        page: u32,
    }
    /// A node completed reassembling one image page (all chunks held,
    /// page CRC verified).
    DissemPage = "dissem_page" {
        /// The page index completed.
        page: u32,
        /// Number of complete pages held after this one.
        have: u32,
    }
    /// A node finished (or rejected) a whole image: every page held and
    /// the image CRC checked.
    DissemComplete = "dissem_complete" {
        /// The image version.
        version: u32,
        /// Whether the whole-image CRC verified (`false` quarantines
        /// the version).
        ok: bool,
    }
    /// A staged-rollout controller changed stage.
    RolloutStage = "rollout_stage" {
        /// The stage entered (`"canary"`, `"wave"`, `"fleet"`,
        /// `"done"`, `"halted"`).
        stage: &'static str,
        /// Number of nodes enabled by (or implicated in) this stage.
        cohort: u32,
    }
    /// A northbound uplink message was accepted by the cloud ingest
    /// pipeline (the node is the reporting shard, not a sim node).
    CloudIngest = "cloud_ingest" {
        /// The accepting tenant's numeric id.
        tenant: u32,
        /// Tenant queue depth right after the enqueue.
        depth: u32,
    }
    /// A northbound uplink message was shed at the cloud's front door.
    CloudShed = "cloud_shed" {
        /// The tenant whose message was shed.
        tenant: u32,
        /// Shed cause (`"auth"`, `"queue_full"`, `"drop_oldest"`).
        cause: &'static str,
    }
    /// A downlink command-and-control attempt completed.
    CloudCommand = "cloud_command" {
        /// The issuing tenant.
        tenant: u32,
        /// Whether the gateway acknowledged the command.
        ok: bool,
    }
    /// A northbound uplink was shed by per-tenant token-bucket
    /// admission control *before* reaching any queue — distinct from
    /// [`CloudShed`](EventKind::CloudShed) so admission shed and
    /// backpressure shed stay separately countable (the node is the
    /// reporting shard).
    CloudRateLimit = "cloud_ratelimit" {
        /// The throttled tenant's numeric id.
        tenant: u32,
    }
    /// The cloud event log sealed a segment (it filled to the
    /// configured byte budget and is immutable from here on).
    StreamSeal = "stream_seal" {
        /// Index of the segment just sealed (0-based, append order).
        segment: u32,
        /// Records the sealed segment holds.
        records: u32,
    }
    /// A windowed aggregate closed: the watermark passed the window's
    /// end plus the allowed lateness.
    StreamWindow = "stream_window" {
        /// The owning tenant's numeric id.
        tenant: u32,
        /// The metric key inside the tenant's namespace.
        metric: u32,
        /// Observations attributed to the closed window.
        count: u32,
    }
    /// A fleet-level campaign controller changed phase (the node is
    /// the network index the action applies to, or 0 for fleet-wide
    /// transitions).
    FleetPhase = "fleet_phase" {
        /// The phase entered (`"canary"`, `"wave"`, `"fleet"`,
        /// `"done"`, `"halted"`).
        stage: &'static str,
        /// Networks activated by (or implicated in) this phase — for
        /// `"halted"`, the blast radius in networks.
        networks: u32,
    }
    /// Desired-vs-reported configuration drift detected on a device
    /// twin (emitted once when the device *enters* the drifted state).
    FleetDrift = "fleet_drift" {
        /// The drifting device (registry index).
        device: u32,
        /// Number of config keys out of sync.
        keys: u32,
    }
    /// A drift-remediation push (config write through the C&C CoAP
    /// path) completed.
    FleetRemediate = "fleet_remediate" {
        /// The remediated device (registry index).
        device: u32,
        /// Whether the config write was acknowledged.
        ok: bool,
    }
    /// An ICN Interest (named-data request) left a node — issued
    /// locally by a consumer or forwarded upstream toward the producer.
    IcnInterest = "icn_interest" {
        /// Stable 32-bit hash of the requested name.
        name: u32,
        /// Minimum acceptable content version (`0` accepts any).
        min_version: u32,
    }
    /// A signed content object was sent — a producer answer, a cache
    /// answer, or a PIT fan-out hop back toward the requesters.
    IcnData = "icn_data" {
        /// Stable 32-bit hash of the object's name.
        name: u32,
        /// The object's version.
        version: u32,
    }
    /// An Interest was answered from a node-local content store
    /// instead of travelling on toward the producer.
    IcnCacheHit = "icn_cache_hit" {
        /// Stable 32-bit hash of the answered name.
        name: u32,
        /// Version of the cached object served.
        version: u32,
    }
    /// A consumer rejected a delivered content object at verification
    /// time (content-object security validates at the consumer, not
    /// per hop).
    IcnVerifyFail = "icn_verify_fail" {
        /// Stable 32-bit hash of the rejected object's name.
        name: u32,
        /// Rejection cause (`"forged"`, `"stale"`).
        cause: &'static str,
    }
    /// Escape hatch for one-off instrumentation.
    Custom = "custom" {
        /// Metric name.
        name: &'static str,
        /// Metric value.
        value: f64,
    }
}

/// One structured event: when, where, which span, what.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Event {
    /// Simulation time of the event.
    pub t: SimTime,
    /// The node the event is attributed to.
    pub node: NodeId,
    /// The causal span this event belongs to ([`SpanId::NONE`] if none).
    pub span: SpanId,
    /// What happened.
    pub kind: EventKind,
}

impl Event {
    /// Serializes the event as one flat JSON object (no external JSON
    /// dependency; the workspace vendors no `serde_json`).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"t_us\":{},\"node\":{},\"span\":{},\"kind\":\"{}\"",
            self.t.as_micros(),
            self.node.0,
            self.span.0,
            self.kind.name()
        );
        self.kind.put_fields(&mut out);
        out.push('}');
        out
    }

    /// Parses an event back from its [`Event::to_json`] form.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed, missing or
    /// out-of-range field.
    pub fn from_json(line: &str) -> Result<Event, String> {
        let name = json_raw(line, "kind").ok_or_else(|| format!("missing field 'kind': {line}"))?;
        Ok(Event {
            t: SimTime::from_micros(get_field(line, "t_us")?),
            node: get_field(line, "node")?,
            // Episode spans set bit 63: `span` needs the full `u64` range.
            span: SpanId(get_field(line, "span")?),
            kind: EventKind::get_fields(name, line)?,
        })
    }
}

/// Finds `"key":` in a flat JSON object and returns the raw value text.
/// Values emitted by this module never contain nested objects, so a
/// linear scan suffices; string values may contain backslash-escaped
/// quotes (trace labels go through [`json_escape`]), which the scan
/// skips. The returned slice is still escaped — see [`json_unescape`].
fn json_raw<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    if let Some(q) = rest.strip_prefix('"') {
        let b = q.as_bytes();
        let mut i = 0;
        while i < b.len() {
            match b[i] {
                b'"' => return Some(&q[..i]),
                b'\\' => i += 2,
                _ => i += 1,
            }
        }
        None
    } else {
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        Some(rest[..end].trim())
    }
}

/// Reverses [`json_escape`] in a single left-to-right pass, so a literal
/// backslash followed by a quote (`\\\"` on the wire) is decoded
/// correctly — sequential `str::replace` calls would mangle it.
fn json_unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            if let Some(n) = chars.next() {
                out.push(n);
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// Maps a parsed string back to a `&'static str`, as the emitters use,
/// by leaking each distinct string once into a bounded table: parsing
/// stays lossless without unbounded memory growth on adversarial dumps,
/// and only past the cap does a string collapse to the `"other"` marker.
fn intern(s: &str) -> &'static str {
    const CAP: usize = 1024;
    static TABLE: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
    let mut table = TABLE.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(k) = table.get(s) {
        return k;
    }
    if table.len() >= CAP {
        return "other";
    }
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    table.insert(leaked);
    leaked
}

/// Receives every emitted [`Event`]. Installed into a
/// [`Sim`](crate::sim::Sim) via
/// [`SimBuilder::recorder`](crate::sim::SimBuilder::recorder); when no recorder
/// is installed, emission is a no-op.
///
/// `as_any`/`as_any_mut` come for free through the [`AsAny`] supertrait
/// (see [`Sim::recorder_as`](crate::sim::Sim::recorder_as)).
pub trait Recorder: AsAny {
    /// Called once per emitted event, in simulation order.
    fn record(&mut self, ev: &Event);
}

/// Keeps the most recent `cap` events in memory; older events are
/// dropped (and counted). The cheap always-on flight recorder.
#[derive(Debug)]
pub struct RingRecorder {
    cap: usize,
    events: VecDeque<Event>,
    dropped: u64,
}

impl RingRecorder {
    /// A ring buffer holding at most `cap` events (at least 1).
    pub fn new(cap: usize) -> Self {
        RingRecorder {
            cap: cap.max(1),
            events: VecDeque::new(),
            dropped: 0,
        }
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.events.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl Recorder for RingRecorder {
    fn record(&mut self, ev: &Event) {
        if self.events.len() == self.cap {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(*ev);
    }
}

/// Counts events per kind without storing them: the cheapest recorder,
/// for long runs where only totals matter.
#[derive(Debug, Default)]
pub struct CountingRecorder {
    by_kind: BTreeMap<&'static str, u64>,
    total: u64,
}

impl CountingRecorder {
    /// An empty counting recorder.
    pub fn new() -> Self {
        CountingRecorder::default()
    }

    /// Events seen with kind name `kind`.
    pub fn count(&self, kind: &str) -> u64 {
        self.by_kind.get(kind).copied().unwrap_or(0)
    }

    /// Total events seen.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// All per-kind counters, sorted by kind name.
    pub fn counts(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.by_kind.iter().map(|(k, v)| (*k, *v))
    }
}

impl Recorder for CountingRecorder {
    fn record(&mut self, ev: &Event) {
        *self.by_kind.entry(ev.kind.name()).or_insert(0) += 1;
        self.total += 1;
    }
}

/// Streams every event as one JSON line to a writer.
pub struct JsonlRecorder<W: Write + 'static> {
    w: W,
    lines: u64,
}

impl<W: Write + 'static> JsonlRecorder<W> {
    /// Wraps `w`; each recorded event becomes one line.
    pub fn new(w: W) -> Self {
        JsonlRecorder { w, lines: 0 }
    }

    /// Lines written so far.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Unwraps the writer (flushing is the caller's concern).
    pub fn into_inner(self) -> W {
        self.w
    }
}

impl<W: Write + 'static> Recorder for JsonlRecorder<W> {
    fn record(&mut self, ev: &Event) {
        // An I/O error aborts recording, not the simulation.
        if writeln!(self.w, "{}", ev.to_json()).is_ok() {
            self.lines += 1;
        }
    }
}

/// A fixed-size log-scale histogram (five buckets per decade, covering
/// roughly `1e-7 ..= 2.5e5`; values outside saturate into the edge
/// buckets), with exact count/sum/min/max. Deterministic and
/// allocation-free, so protocols can feed it from hot paths.
#[derive(Clone, Debug)]
pub struct Histogram {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    buckets: [u64; 64],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: [0; 64],
        }
    }

    fn bucket(v: f64) -> usize {
        if v <= 0.0 {
            return 0;
        }
        // `+inf` casts to `i64::MAX`; NaN casts to 0 (bucket 36).
        let idx = ((v.log10() * 5.0).floor() as i64).saturating_add(36);
        idx.clamp(1, 63) as usize
    }

    /// Representative value of bucket `i` (geometric bucket center).
    fn bucket_value(i: usize) -> f64 {
        if i == 0 {
            return 0.0;
        }
        10f64.powf((i as f64 - 36.0 + 0.5) / 5.0)
    }

    /// Records one observation.
    pub fn observe(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[Self::bucket(v)] += 1;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest observation (0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Approximate `q`-quantile (`0.0 ..= 1.0`), accurate to one
    /// quarter-decade bucket; exact at the extremes.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        if q <= 0.0 {
            return self.min();
        }
        if q >= 1.0 {
            return self.max();
        }
        if self.min > self.max {
            // Every observation was NaN (`f64::min`/`max` skip NaN, so
            // the bounds never left their empty values): so is any
            // quantile, and `clamp` below would panic on the bounds.
            return f64::NAN;
        }
        let target = (q * self.count as f64).ceil() as u64;
        let mut seen = 0;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                return Self::bucket_value(i).clamp(self.min, self.max);
            }
        }
        self.max()
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += *b;
        }
    }
}

// ---------------------------------------------------------------------------
// Global trace sink: deterministic `--trace` capture across worker threads.
// ---------------------------------------------------------------------------

/// One captured per-world trace plus the scope key that orders it.
#[derive(Clone, Debug)]
pub struct ScopeTrace {
    /// Section counter (bumped per experiment / per runner batch on the
    /// main thread, so it is scheduling-independent).
    pub section: u32,
    /// Trial index within the section.
    pub trial: u32,
    /// Replica index within the trial.
    pub replica: u32,
    /// Index of the world within the job (a trial may build several).
    pub world: u32,
    /// Human-readable label (trial label or experiment id).
    pub label: String,
    /// The world's master seed.
    pub seed: u64,
    /// The captured events, in simulation order.
    pub events: Vec<Event>,
}

static TRACING: AtomicBool = AtomicBool::new(false);
static SECTION: AtomicU32 = AtomicU32::new(0);
static SINK: Mutex<Vec<ScopeTrace>> = Mutex::new(Vec::new());

thread_local! {
    static SCOPE: RefCell<Option<(u32, u32, u32, String)>> = const { RefCell::new(None) };
    static WORLD_SEQ: Cell<u32> = const { Cell::new(0) };
}

/// Turns on global trace capture (the `--trace` flag). Worlds created
/// afterwards *under an active thread scope* record their events into
/// the global sink.
pub fn enable_tracing() {
    TRACING.store(true, Ordering::SeqCst);
}

/// Turns capture off and empties the sink (test hygiene).
pub fn disable_tracing() {
    TRACING.store(false, Ordering::SeqCst);
    SINK.lock().unwrap_or_else(|e| e.into_inner()).clear();
}

/// Whether global trace capture is on.
pub fn tracing_enabled() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// Allocates the next section id. Call only from deterministic,
/// single-threaded control flow (the experiments binary between
/// experiments; the runner at batch entry) so section numbering never
/// depends on scheduling.
pub fn begin_section() -> u32 {
    SECTION.fetch_add(1, Ordering::SeqCst)
}

/// Tags the current thread: worlds created until the next
/// [`set_scope`]/[`clear_scope`] belong to `(section, trial, replica)`
/// with display label `label`.
pub fn set_scope(section: u32, trial: u32, replica: u32, label: &str) {
    SCOPE.with(|s| *s.borrow_mut() = Some((section, trial, replica, label.to_string())));
    WORLD_SEQ.with(|w| w.set(0));
}

/// Clears the current thread's scope; worlds created afterwards are not
/// captured.
pub fn clear_scope() {
    SCOPE.with(|s| *s.borrow_mut() = None);
}

/// A [`ScopeTrace`] being filled; lands in the sink when dropped.
struct TrialCapture(ScopeTrace);

impl Recorder for TrialCapture {
    fn record(&mut self, ev: &Event) {
        self.0.events.push(*ev);
    }
}

impl Drop for TrialCapture {
    fn drop(&mut self) {
        let trace = ScopeTrace {
            label: std::mem::take(&mut self.0.label),
            events: std::mem::take(&mut self.0.events),
            ..self.0
        };
        SINK.lock().unwrap_or_else(|e| e.into_inner()).push(trace);
    }
}

/// The capture recorder for whatever is built next on this thread — a
/// [`Sim`](crate::sim::Sim), or a trial that records events without one
/// (e.g. the replicated-store engine): when tracing is on and the thread
/// has an active scope, returns a recorder whose events land in the
/// global sink on drop, under the next deterministic scope key. Returns
/// `None` otherwise, so callers pay nothing when `--trace` is off.
pub fn scope_capture(seed: u64) -> Option<Box<dyn Recorder>> {
    if !tracing_enabled() {
        return None;
    }
    SCOPE.with(|s| {
        s.borrow().as_ref().map(|(section, trial, replica, label)| {
            let world = WORLD_SEQ.with(|w| w.replace(w.get() + 1));
            Box::new(TrialCapture(ScopeTrace {
                section: *section,
                trial: *trial,
                replica: *replica,
                world,
                label: label.clone(),
                seed,
                events: Vec::new(),
            })) as Box<dyn Recorder>
        })
    })
}

/// Drains every captured trace from the sink, sorted by scope key —
/// byte-identical output regardless of which worker thread captured
/// what, when.
pub fn drain_traces() -> Vec<ScopeTrace> {
    let mut traces = std::mem::take(&mut *SINK.lock().unwrap_or_else(|e| e.into_inner()));
    traces.sort_by_key(|t| (t.section, t.trial, t.replica, t.world));
    traces
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Renders traces as JSONL: one header object per trace (scope key,
/// label, seed, event count) followed by one object per event.
///
/// Convenience wrapper over [`write_traces_jsonl`] for dumps known to
/// be small (tests, single worlds). Full experiment traces run to
/// gigabytes — stream those through a buffered writer instead of
/// materializing the dump.
pub fn traces_to_jsonl(traces: &[ScopeTrace]) -> String {
    let mut out = Vec::new();
    write_traces_jsonl(&mut out, traces).expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("JSONL rendering is UTF-8")
}

/// Streams the [`traces_to_jsonl`] rendering into a writer, one line
/// per syscall-free buffered write — the `experiments --trace` path,
/// where a full-scale run's dump does not fit comfortably in memory.
///
/// # Errors
///
/// Propagates the first writer error.
pub fn write_traces_jsonl<W: std::io::Write>(
    w: &mut W,
    traces: &[ScopeTrace],
) -> std::io::Result<()> {
    for tr in traces {
        writeln!(
            w,
            "{{\"label\":\"{}\",\"section\":{},\"trial\":{},\"replica\":{},\"world\":{},\
             \"seed\":{},\"events\":{}}}",
            json_escape(&tr.label),
            tr.section,
            tr.trial,
            tr.replica,
            tr.world,
            tr.seed,
            tr.events.len()
        )?;
        for ev in &tr.events {
            writeln!(w, "{}", ev.to_json())?;
        }
    }
    Ok(())
}

/// One line of a JSONL dump, as [`write_traces_jsonl`] lays it out: a
/// trace header, then that trace's events. Reading a dump line by line
/// lets a consumer fold over it without ever holding it.
#[derive(Debug)]
pub enum DumpLine {
    /// A trace header: the scope key, label and seed, `events` empty.
    Trace(ScopeTrace),
    /// One event of the trace whose header came last.
    Event(Event),
}

impl DumpLine {
    /// Parses one line of a dump; `None` for a blank line.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed, missing or
    /// out-of-range field.
    pub fn parse(line: &str) -> Result<Option<DumpLine>, String> {
        let line = line.trim();
        if line.is_empty() {
            return Ok(None);
        }
        if !line.starts_with("{\"label\"") {
            return Event::from_json(line).map(|ev| Some(DumpLine::Event(ev)));
        }
        let header = |e: String| format!("header: {e}");
        Ok(Some(DumpLine::Trace(ScopeTrace {
            section: get_field(line, "section").map_err(header)?,
            trial: get_field(line, "trial").map_err(header)?,
            replica: get_field(line, "replica").map_err(header)?,
            world: get_field(line, "world").map_err(header)?,
            label: json_unescape(
                json_raw(line, "label").ok_or_else(|| header("missing field 'label'".into()))?,
            ),
            seed: get_field(line, "seed").map_err(header)?,
            events: Vec::new(),
        })))
    }
}

/// Parses a dump produced by [`traces_to_jsonl`].
///
/// # Errors
///
/// Returns a description of the first malformed line.
pub fn parse_jsonl(s: &str) -> Result<Vec<ScopeTrace>, String> {
    let mut traces: Vec<ScopeTrace> = Vec::new();
    for (i, line) in s.lines().enumerate() {
        let at = |e: String| format!("line {}: {e}", i + 1);
        match DumpLine::parse(line).map_err(at)? {
            None => {}
            Some(DumpLine::Trace(header)) => traces.push(header),
            Some(DumpLine::Event(ev)) => traces
                .last_mut()
                .ok_or_else(|| at("event before any trace header".into()))?
                .events
                .push(ev),
        }
    }
    Ok(traces)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t_us: u64, node: u32, kind: EventKind) -> Event {
        Event {
            t: SimTime::from_micros(t_us),
            node: NodeId(node),
            span: SpanId::NONE,
            kind,
        }
    }

    #[test]
    fn span_id_packs_and_unpacks() {
        let s = SpanId::packet(NodeId(12345), 0x7FFF_0001);
        assert!(s.is_packet() && !s.is_episode() && !s.is_none());
        assert_eq!(s.node(), NodeId(12345));
        assert_eq!(s.seq(), 0x7FFF_0001);
        let e = SpanId::episode(NodeId(7), 3);
        assert!(e.is_episode());
        assert_eq!((e.node(), e.seq()), (NodeId(7), 3));
        assert_eq!(format!("{s}"), "pkt(12345,2147418113)");
        assert!(SpanId::NONE.is_none());
    }

    /// Written by `to_json` at the commit before the codec became
    /// table-derived: one line per kind plus the `None`/`Some`, `0`/`1`
    /// and extreme-value variants. Pins the wire format across commits.
    const GOLDEN: &str = include_str!("../tests/golden/events.jsonl");

    #[test]
    fn every_event_kind_round_trips_through_json() {
        let mut unseen: BTreeSet<&str> = EventKind::NAMES.iter().copied().collect();
        let parsed: Vec<Event> = GOLDEN
            .lines()
            .map(|line| {
                let e = Event::from_json(line).expect(line);
                assert_eq!(e.to_json(), line);
                unseen.remove(e.kind.name());
                e
            })
            .collect();
        assert!(unseen.is_empty(), "kinds without a golden line: {unseen:?}");
        // The bytes round-trip; spot-check that the typed values are the
        // ones the lines were written from.
        assert_eq!(
            parsed[0],
            Event {
                t: SimTime::from_micros(1000),
                node: NodeId(0),
                span: SpanId::packet(NodeId(0), 42),
                kind: EventKind::TxStart {
                    dst: Some(NodeId(3)),
                    port: 1,
                    bytes: 40,
                },
            }
        );
        let kinds: Vec<EventKind> = parsed.iter().map(|e| e.kind).collect();
        for expected in [
            EventKind::RxDrop {
                cause: "prr",
                src: None,
            },
            EventKind::Fault {
                kind: "link_down",
                peer: Some(NodeId(8)),
            },
            EventKind::DissemComplete {
                version: 4,
                ok: false,
            },
            EventKind::OffsetEstimate {
                offset_us: i64::MIN,
                skew_ppm: 1e-7,
            },
        ] {
            assert!(kinds.contains(&expected), "{expected:?}");
        }
    }

    #[test]
    fn out_of_range_fields_are_errors_naming_the_field() {
        let head = "{\"t_us\":1,\"node\":2,\"span\":0,";
        for (tail, field) in [
            (
                "\"kind\":\"tx_start\",\"dst\":3,\"port\":256,\"bytes\":1}",
                "port",
            ),
            (
                "\"kind\":\"tx_start\",\"dst\":-2,\"port\":1,\"bytes\":1}",
                "dst",
            ),
            (
                "\"kind\":\"tx_start\",\"dst\":3,\"port\":1,\"bytes\":4294967296}",
                "bytes",
            ),
            ("\"kind\":\"dio\",\"rank\":65536}", "rank"),
            ("\"kind\":\"data_arrive\",\"hops\":-1}", "hops"),
            ("\"kind\":\"cloud_command\",\"tenant\":1,\"ok\":2}", "ok"),
            ("\"kind\":\"tx_end\"}", "receivers"),
        ] {
            let err = Event::from_json(&format!("{head}{tail}")).expect_err(tail);
            assert!(err.contains(&format!("'{field}'")), "{err}");
        }
        for bad_head in [
            "{\"t_us\":-1,\"node\":2,\"span\":0,",
            "{\"t_us\":1,\"node\":4294967296,\"span\":0,",
            "{\"t_us\":1,\"node\":2,\"span\":-5,",
        ] {
            let line = format!("{bad_head}\"kind\":\"tx_end\",\"receivers\":0}}");
            assert!(Event::from_json(&line).is_err(), "{line}");
        }
        let dump = "{\"label\":\"x\",\"section\":4294967296,\"trial\":0,\"replica\":0,\
                    \"world\":0,\"seed\":1,\"events\":0}";
        let err = parse_jsonl(dump).expect_err("section out of range");
        assert!(err.contains("line 1") && err.contains("'section'"), "{err}");
    }

    /// Every `"key":<integer>` value position in `line`, as
    /// `(start, end)` byte offsets — the float-valued keys excluded.
    fn integer_fields(line: &str) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        let mut from = 0;
        while let Some(at) = line[from..].find("\":") {
            let start = from + at + 2;
            from = start;
            let key_is_float = ["\"skew_ppm", "\"value"]
                .iter()
                .any(|k| line[..start - 2].ends_with(k));
            let len = line[start..]
                .find(|c: char| c != '-' && !c.is_ascii_digit())
                .unwrap_or(line.len() - start);
            if len > 0 && !key_is_float {
                out.push((start, start + len));
            }
        }
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        #[test]
        fn readers_are_total_over_arbitrary_bytes(
            bytes in proptest::collection::vec(proptest::any::<u8>(), 0..200),
        ) {
            let text = String::from_utf8_lossy(&bytes);
            let _ = Event::from_json(&text);
            let _ = parse_jsonl(&text);
        }

        #[test]
        fn truncated_valid_lines_never_panic(
            line in 0usize..GOLDEN.lines().count(),
            cut in 0usize..200,
        ) {
            let line = GOLDEN.lines().nth(line).expect("in range");
            let cut = &line[..cut.min(line.len())];
            let _ = Event::from_json(cut);
            let _ = parse_jsonl(&format!("{{\"label\":\"t\",\"section\":0,{cut}"));
        }

        /// Whatever integer a dump claims, the reader either refuses it
        /// or holds exactly that value — it never narrows it to fit.
        #[test]
        fn integers_are_refused_or_kept_exactly(
            line in 0usize..GOLDEN.lines().count(),
            field in 0usize..8,
            edge in proptest::prop_oneof![
                proptest::Just(0i128),
                proptest::Just(u16::MAX as i128),
                proptest::Just(u32::MAX as i128),
                proptest::Just(i64::MIN as i128),
                proptest::Just(i64::MAX as i128),
                proptest::Just(u64::MAX as i128),
            ],
            offset in -300i64..300,
        ) {
            let value = edge + offset as i128;
            let line = GOLDEN.lines().nth(line).expect("in range");
            let fields = integer_fields(line);
            let (start, end) = fields[field % fields.len()];
            let mutated = format!("{}{}{}", &line[..start], value, &line[end..]);
            if let Ok(e) = Event::from_json(&mutated) {
                proptest::prop_assert_eq!(e.to_json(), mutated);
            }
        }
    }

    #[test]
    fn unknown_interned_strings_round_trip() {
        let e = ev(
            1,
            2,
            EventKind::Custom {
                name: "a_metric_not_in_the_known_list",
                value: 2.0,
            },
        );
        let back = Event::from_json(&e.to_json()).expect("parse");
        assert_eq!(e, back);
        // A second parse returns the same leaked pointer, not a new one.
        let again = Event::from_json(&e.to_json()).expect("parse");
        assert_eq!(back, again);
    }

    #[test]
    fn ring_recorder_caps_and_counts_drops() {
        let mut r = RingRecorder::new(3);
        for i in 0..5 {
            r.record(&ev(
                i,
                0,
                EventKind::TxEnd {
                    receivers: i as u32,
                },
            ));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        let first = r.events().next().unwrap();
        assert_eq!(first.t, SimTime::from_micros(2));
    }

    #[test]
    fn counting_recorder_counts_by_kind() {
        let mut c = CountingRecorder::new();
        c.record(&ev(0, 0, EventKind::TxEnd { receivers: 1 }));
        c.record(&ev(1, 0, EventKind::TxEnd { receivers: 0 }));
        c.record(&ev(
            2,
            1,
            EventKind::RxDrop {
                cause: "prr",
                src: None,
            },
        ));
        assert_eq!(c.count("tx_end"), 2);
        assert_eq!(c.count("rx_drop"), 1);
        assert_eq!(c.count("dio"), 0);
        assert_eq!(c.total(), 3);
    }

    #[test]
    fn jsonl_recorder_streams_lines() {
        let mut j = JsonlRecorder::new(Vec::new());
        j.record(&ev(5, 2, EventKind::DioSent { rank: 256 }));
        j.record(&ev(
            6,
            2,
            EventKind::TrickleReset {
                cause: "inconsistent",
            },
        ));
        assert_eq!(j.lines(), 2);
        let text = String::from_utf8(j.into_inner()).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"kind\":\"dio\""));
    }

    #[test]
    fn histogram_quantiles_bracket_the_data() {
        let mut h = Histogram::new();
        for i in 1..=100 {
            h.observe(i as f64 / 100.0); // 0.01 ..= 1.00
        }
        assert_eq!(h.count(), 100);
        assert!((h.mean() - 0.505).abs() < 1e-9);
        assert_eq!(h.min(), 0.01);
        assert_eq!(h.max(), 1.0);
        let p50 = h.quantile(0.5);
        assert!(p50 > 0.2 && p50 < 0.9, "p50 {p50}");
        let p95 = h.quantile(0.95);
        assert!(p95 >= p50 && p95 <= 1.0, "p95 {p95}");
        let mut other = Histogram::new();
        other.observe(10.0);
        h.merge(&other);
        assert_eq!(h.count(), 101);
        assert_eq!(h.max(), 10.0);
    }

    #[test]
    fn histogram_is_total_over_non_finite_observations() {
        // Values arrive from device payloads; none may panic a reader.
        let mut nan_only = Histogram::new();
        nan_only.observe(f64::NAN);
        assert!(nan_only.quantile(0.99).is_nan());
        let mut h = Histogram::new();
        for v in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 1.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 4);
        assert!(h.quantile(0.99) > 1e5, "+inf sits in the top bucket");
        assert_eq!(h.quantile(0.01), 0.0, "-inf sits with the non-positives");
        assert_eq!((h.min(), h.max()), (f64::NEG_INFINITY, f64::INFINITY));
    }

    #[test]
    fn jsonl_dump_round_trips() {
        let traces = vec![ScopeTrace {
            section: 0,
            trial: 1,
            replica: 0,
            world: 0,
            label: "3x3".into(),
            seed: 99,
            events: vec![
                ev(
                    10,
                    0,
                    EventKind::TxStart {
                        dst: None,
                        port: 1,
                        bytes: 12,
                    },
                ),
                ev(
                    20,
                    1,
                    EventKind::RxDrop {
                        cause: "collision",
                        src: Some(NodeId(0)),
                    },
                ),
                ev(
                    30,
                    1,
                    EventKind::TrickleReset {
                        cause: "inconsistent",
                    },
                ),
            ],
        }];
        let dump = traces_to_jsonl(&traces);
        let back = parse_jsonl(&dump).expect("parse");
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].label, "3x3");
        assert_eq!(back[0].seed, 99);
        assert_eq!(back[0].events, traces[0].events);
    }

    #[test]
    fn header_labels_with_quotes_and_backslashes_round_trip() {
        for label in [r#"grid "3x3""#, r"a\b", r#"tricky\"#, r#"end\""#] {
            let traces = vec![ScopeTrace {
                section: 0,
                trial: 0,
                replica: 0,
                world: 0,
                label: label.into(),
                seed: 7,
                events: vec![ev(1, 0, EventKind::TxEnd { receivers: 0 })],
            }];
            let back = parse_jsonl(&traces_to_jsonl(&traces)).expect("parse");
            assert_eq!(back[0].label, label);
            assert_eq!(back[0].events, traces[0].events);
        }
    }
}
