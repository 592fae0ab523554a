//! The shared wireless medium: propagation, packet loss, collisions,
//! carrier sensing, channels and partitions.
//!
//! The model is deliberately protocol-level rather than RF-accurate (see
//! DESIGN.md §0): what the experiments need is a medium in which duty
//! cycling, contention, funneling near border routers and co-channel
//! interference all have the right *shape*. Three link models are
//! provided, from fully deterministic (for unit tests) to lossy sigmoid
//! PRR curves (for experiments).
//!
//! # Cost
//!
//! Radio is local, and so is every per-frame cost of the [`Medium`]. A
//! [`SpatialGrid`] with cell side [`RadioConfig::max_range`] indexes
//! both the nodes and the air. Positions and the [`RadioConfig`] never
//! change after a node is added, so the first transmission of a source
//! gathers the 3x3 cells around it once and keeps, per node it can
//! reach above [`RadioConfig::sensitivity_dbm`], the link budget (RSSI
//! and PRR): every later frame walks that list with four state checks
//! and one RNG draw per listener — no distance, `log10` or `exp`. Every
//! live transmission record is filed under the cell of its *source*,
//! and carrier sensing and the collision check at a listener visit only
//! the records filed in the 3x3 cells around the *listener* — a source
//! farther away than one cell side has no signal there
//! ([`RadioConfig::rssi_at`] is `None`), so the skipped records could
//! not have mattered; each record that does overlap still costs one
//! `rssi_at`. Records retire from the front of one filing-order queue.
//! None of this depends on how many nodes or transmissions the rest of
//! the deployment holds; [`Sim::air_visits`](crate::sim::Sim::air_visits)
//! counts the records examined, so tests can hold that to account
//! without a clock.

use crate::ids::NodeId;
use crate::spatial::SpatialGrid;
use crate::time::{SimDuration, SimTime};
use crate::topology::Pos;
use rand::Rng;
use std::cell::Cell;
use std::collections::{HashSet, VecDeque};

/// Destination of a frame at the link layer.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Dst {
    /// A single link-layer destination.
    Unicast(NodeId),
    /// All nodes in radio range on the same channel.
    Broadcast,
}

impl Dst {
    /// Whether `node` should accept a frame with this destination
    /// (ignoring promiscuous mode).
    pub fn accepts(self, node: NodeId) -> bool {
        match self {
            Dst::Unicast(n) => n == node,
            Dst::Broadcast => true,
        }
    }
}

/// A link-layer frame on the air.
///
/// `port` is a one-byte demultiplexing field (similar in role to an
/// EtherType or an 802.15.4 payload dispatch byte) that lets several
/// protocols share one radio.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Frame {
    /// Link-layer source.
    pub src: NodeId,
    /// Link-layer destination.
    pub dst: Dst,
    /// Protocol demultiplexing byte.
    pub port: u8,
    /// Payload bytes (on-air length adds [`RadioConfig::overhead_bytes`]).
    pub payload: Vec<u8>,
}

impl Frame {
    /// Creates a frame.
    pub fn new(src: NodeId, dst: Dst, port: u8, payload: Vec<u8>) -> Self {
        Frame {
            src,
            dst,
            port,
            payload,
        }
    }
}

/// Reception metadata handed to protocols alongside a frame.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RxInfo {
    /// Received signal strength in dBm.
    pub rssi_dbm: f64,
    /// Channel the frame was received on.
    pub channel: u8,
    /// When the transmission started.
    pub started: SimTime,
}

/// Outcome of a transmission, reported to the sender.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TxOutcome {
    /// Number of link-layer candidates that actually received the frame.
    /// A real radio does not know this; it is exposed for tracing and
    /// must not be used for protocol decisions (use ACKs instead).
    pub oracle_receivers: usize,
}

/// State of a node's radio.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum RadioState {
    /// Radio powered down (sleep current).
    #[default]
    Off,
    /// Radio on and listening (receive current).
    Listening,
    /// Radio transmitting a frame.
    Transmitting,
}

/// Errors returned by radio operations.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RadioError {
    /// The radio is powered off.
    Off,
    /// The radio is already transmitting.
    Busy,
    /// Payload exceeds [`RadioConfig::max_payload`].
    FrameTooLarge,
    /// The node has been killed by fault injection.
    NodeDead,
}

impl core::fmt::Display for RadioError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RadioError::Off => write!(f, "radio is powered off"),
            RadioError::Busy => write!(f, "radio is already transmitting"),
            RadioError::FrameTooLarge => write!(f, "payload exceeds maximum frame size"),
            RadioError::NodeDead => write!(f, "node is dead"),
        }
    }
}

impl std::error::Error for RadioError {}

/// Propagation / loss model for the medium.
#[derive(Clone, Debug)]
pub enum LinkModel {
    /// Perfect delivery within `range_m`; silence beyond. Interference is
    /// heard up to `interference_range_m`. The fully deterministic model
    /// used by most unit tests.
    UnitDisk {
        /// Communication range in meters.
        range_m: f64,
        /// Range within which a transmission still raises the noise floor.
        interference_range_m: f64,
    },
    /// Like `UnitDisk` but every in-range frame is independently lost
    /// with probability `1 - prr`.
    LossyDisk {
        /// Communication range in meters.
        range_m: f64,
        /// Interference range in meters.
        interference_range_m: f64,
        /// Packet reception ratio within range, in `[0, 1]`.
        prr: f64,
    },
    /// Log-distance path loss with a sigmoid PRR-vs-RSSI curve: the
    /// standard empirical model for low-power wireless links, featuring
    /// a "gray zone" of intermediate-quality links.
    LogDistance {
        /// Path-loss exponent (2.0 free space, 3.0-4.0 indoor).
        path_loss_exp: f64,
        /// Loss at the 1 m reference distance, in dB.
        ref_loss_db: f64,
        /// RSSI at which PRR is 50%, in dBm.
        rssi50_dbm: f64,
        /// Width of the transition region, in dB.
        spread_db: f64,
    },
}

impl Default for LinkModel {
    fn default() -> Self {
        LinkModel::UnitDisk {
            range_m: 30.0,
            interference_range_m: 45.0,
        }
    }
}

/// Static configuration of every radio in the deployment.
#[derive(Clone, Debug)]
pub struct RadioConfig {
    /// Radio bitrate in bits per second (802.15.4: 250 kbit/s).
    pub bitrate_bps: u64,
    /// Per-frame on-air overhead (preamble, SFD, length, MAC header, FCS).
    pub overhead_bytes: usize,
    /// Largest allowed payload per frame.
    pub max_payload: usize,
    /// Transmit power in dBm.
    pub tx_power_dbm: f64,
    /// Weakest decodable signal in dBm.
    pub sensitivity_dbm: f64,
    /// Clear-channel-assessment threshold in dBm.
    pub cca_threshold_dbm: f64,
    /// A frame survives interference if it is at least this much
    /// stronger than every interferer (capture effect), in dB.
    pub capture_db: f64,
    /// Propagation and loss model.
    pub link: LinkModel,
}

impl Default for RadioConfig {
    fn default() -> Self {
        RadioConfig {
            bitrate_bps: 250_000,
            overhead_bytes: 17,
            max_payload: 110,
            tx_power_dbm: 0.0,
            sensitivity_dbm: -94.0,
            cca_threshold_dbm: -85.0,
            capture_db: 6.0,
            link: LinkModel::default(),
        }
    }
}

impl RadioConfig {
    /// On-air duration of a frame with `payload_len` payload bytes.
    pub fn airtime(&self, payload_len: usize) -> SimDuration {
        let bits = (self.overhead_bytes + payload_len) as u64 * 8;
        SimDuration::from_micros(bits * 1_000_000 / self.bitrate_bps)
    }

    /// Received power at distance `d` meters, in dBm, or `None` if the
    /// model treats the nodes as fully out of range of each other.
    pub fn rssi_at(&self, d: f64) -> Option<f64> {
        match &self.link {
            LinkModel::UnitDisk {
                interference_range_m,
                ..
            }
            | LinkModel::LossyDisk {
                interference_range_m,
                ..
            } => {
                if d <= *interference_range_m {
                    // Synthetic monotone RSSI so traces remain meaningful.
                    Some(self.tx_power_dbm - 40.0 - 20.0 * (d.max(1.0)).log10())
                } else {
                    None
                }
            }
            LinkModel::LogDistance {
                path_loss_exp,
                ref_loss_db,
                ..
            } => {
                let rssi =
                    self.tx_power_dbm - ref_loss_db - 10.0 * path_loss_exp * d.max(1.0).log10();
                if rssi >= self.sensitivity_dbm - 10.0 {
                    Some(rssi)
                } else {
                    None
                }
            }
        }
    }

    /// The distance in meters beyond which [`RadioConfig::rssi_at`] is
    /// guaranteed to return `None` — the radius the medium's spatial
    /// index must cover. `None` if the link model has no finite cutoff
    /// (the medium's index is then a single cell holding everything).
    pub fn max_range(&self) -> Option<f64> {
        match &self.link {
            LinkModel::UnitDisk {
                interference_range_m,
                ..
            }
            | LinkModel::LossyDisk {
                interference_range_m,
                ..
            } => Some(*interference_range_m),
            LinkModel::LogDistance {
                path_loss_exp,
                ref_loss_db,
                ..
            } => {
                if *path_loss_exp <= 0.0 {
                    return None;
                }
                // rssi_at yields Some while
                //   tx_power - ref_loss - 10*ple*log10(max(d,1)) >= sens - 10;
                // solve for d at equality. `rssi_at` clamps d below 1 m,
                // so the cutoff is at least 1 m.
                let exp = (self.tx_power_dbm - ref_loss_db - (self.sensitivity_dbm - 10.0))
                    / (10.0 * path_loss_exp);
                let d = 10f64.powf(exp).max(1.0);
                d.is_finite().then_some(d)
            }
        }
    }

    /// Packet reception ratio on a link of length `d` meters with
    /// received power `rssi` dBm, ignoring collisions.
    pub fn prr(&self, d: f64, rssi: f64) -> f64 {
        match &self.link {
            LinkModel::UnitDisk { range_m, .. } => {
                if d <= *range_m {
                    1.0
                } else {
                    0.0
                }
            }
            LinkModel::LossyDisk { range_m, prr, .. } => {
                if d <= *range_m {
                    *prr
                } else {
                    0.0
                }
            }
            LinkModel::LogDistance {
                rssi50_dbm,
                spread_db,
                ..
            } => {
                if rssi < self.sensitivity_dbm {
                    0.0
                } else {
                    1.0 / (1.0 + (-(rssi - rssi50_dbm) / spread_db).exp())
                }
            }
        }
    }
}

/// Identifier of a transmission on the medium.
///
/// Encodes a slot index in the medium's transmission slab plus a
/// generation counter, so a stale id held after its record was pruned
/// resolves to "unknown transmission" instead of aliasing a newer one.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TxId(pub(crate) u64);

impl TxId {
    fn compose(slot: u32, generation: u32) -> Self {
        TxId(((generation as u64) << 32) | slot as u64)
    }

    fn slot(self) -> usize {
        (self.0 & 0xFFFF_FFFF) as usize
    }

    fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

#[derive(Clone, Debug)]
struct NodeRadio {
    pos: Pos,
    /// The grid cell `pos` lies in.
    cell: u32,
    alive: bool,
    state: RadioState,
    channel: u8,
    /// When the radio last entered `Listening`.
    listen_since: SimTime,
    promiscuous: bool,
    group: u16,
}

#[derive(Clone, Debug)]
struct TxRecord {
    src: NodeId,
    channel: u8,
    start: SimTime,
    end: SimTime,
    frame: Frame,
    /// (receiver, rssi, passed-PRR-draw)
    candidates: Vec<(NodeId, f64, bool)>,
}

impl Default for TxRecord {
    fn default() -> Self {
        TxRecord {
            src: NodeId(0),
            channel: 0,
            start: SimTime::ZERO,
            end: SimTime::ZERO,
            frame: Frame::new(NodeId(0), Dst::Broadcast, 0, Vec::new()),
            candidates: Vec::new(),
        }
    }
}

/// The link budget from a source to one node it can reach at or above
/// the sensitivity threshold: fixed once both are placed.
#[derive(Clone, Debug, PartialEq)]
struct Link {
    to: NodeId,
    rssi: f64,
    /// Packet reception ratio, ignoring collisions.
    prr: f64,
}

/// One slab slot of the medium's transmission store. Slots are reused
/// (bumping `generation`) once their record is both fully evaluated
/// (not `pending`) and old enough to never matter for collision
/// checks again (see [`Medium::evict`]); the candidate and payload
/// buffers inside are recycled across transmissions.
#[derive(Clone, Debug, Default)]
struct TxSlot {
    generation: u32,
    live: bool,
    /// Whether the kernel still holds this record's queue entry, the
    /// frame's one `TxEnd`, or is part-way through the candidate walk
    /// that entry starts (see [`Medium::unpin`]). A pending record is
    /// never evicted, whatever its age.
    pending: bool,
    rec: TxRecord,
}

/// Result of evaluating one candidate reception at transmission end.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum RxEval {
    /// Frame delivered to the node's protocol stack.
    Deliver(Frame, RxInfo),
    /// Frame lost (PRR draw, collision, radio moved, address filter),
    /// with the link-layer source when the medium still knows it —
    /// observability needs the drop *and* who caused it.
    Dropped(DropReason, Option<NodeId>),
}

/// Why a candidate reception failed; recorded in medium statistics.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DropReason {
    /// Lost to the link-loss model.
    Prr,
    /// Destroyed by an overlapping transmission.
    Collision,
    /// The receiver's radio left the listening state mid-frame.
    RadioMoved,
    /// Unicast frame for someone else (not an error; address filter).
    Filtered,
    /// The receiver died mid-frame.
    Dead,
    /// The medium no longer knows the transmission (its record aged out
    /// of the history slab). Structurally unreachable for scheduled
    /// receptions — records with pending evaluations are never evicted —
    /// but stale [`TxId`]s resolve here instead of panicking.
    Expired,
}

impl DropReason {
    /// Stable cause name used by structured observability events.
    pub fn name(self) -> &'static str {
        match self {
            DropReason::Prr => "prr",
            DropReason::Collision => "collision",
            DropReason::RadioMoved => "radio_moved",
            DropReason::Filtered => "filtered",
            DropReason::Dead => "dead",
            DropReason::Expired => "expired",
        }
    }
}

/// Aggregate medium statistics, for experiment reporting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MediumStats {
    /// Transmissions started.
    pub tx_started: u64,
    /// Frames delivered to a protocol stack.
    pub delivered: u64,
    /// Candidate receptions lost to the PRR draw.
    pub lost_prr: u64,
    /// Candidate receptions lost to collisions.
    pub lost_collision: u64,
    /// Candidate receptions lost because the radio left listening state.
    pub lost_radio_moved: u64,
    /// Unicast frames dropped by the address filter.
    pub filtered: u64,
    /// Evaluations of transmissions the medium no longer knew
    /// (see [`DropReason::Expired`]); nonzero only for stale ids.
    pub lost_expired: u64,
}

/// The shared wireless medium.
///
/// Owned by the [`World`](crate::world::World); protocols interact with it
/// through [`Ctx`](crate::world::Ctx) radio methods.
#[derive(Clone, Debug)]
pub struct Medium {
    config: RadioConfig,
    nodes: Vec<NodeRadio>,
    /// Transmission slab: records addressed by [`TxId`] slot index in
    /// O(1), slots recycled once evaluated and aged out.
    slots: Vec<TxSlot>,
    /// Free slot indices available for reuse.
    free: Vec<u32>,
    /// Every live slot, in filing order. Records retire from the front
    /// only (see [`Medium::evict`]), so retiring costs O(retired), not
    /// O(live), per transmission.
    filed: VecDeque<u32>,
    /// The same live slots per grid cell of their *source*, each list
    /// in filing order too — the record at the front of `filed` is
    /// therefore at the front of its cell's list. CCA and collision
    /// checks read the lists of the cells around the listener.
    air: Vec<VecDeque<u32>>,
    /// Spatial index over node positions with cell side =
    /// [`RadioConfig::max_range`]; a link model without a finite cutoff
    /// gets an infinite side, i.e. one cell and exhaustive scans out of
    /// the same code.
    grid: SpatialGrid,
    /// Per source, the nodes that can ever be its candidates — those it
    /// reaches at or above the sensitivity threshold — with the link
    /// budget towards each, in ascending id order. Built from the grid
    /// on the source's first transmission (`None` until then; a source
    /// nobody hears gets an empty list, which is still built).
    /// Positions and the radio configuration are static, so neither
    /// the set nor the numbers ever change: a frame walks the list and
    /// does no float math.
    neigh: Vec<Option<Box<[Link]>>>,
    /// Whether any `neigh` list is built (`add_node` must then forget
    /// them all: the newcomer may be in range of any existing node).
    neigh_cached: bool,
    /// Reused buffer for the grid gather behind a `neigh` build.
    gathered: Vec<u32>,
    /// Recycled payload buffers, cleared: the records' frames once
    /// evicted and the delivered clones once consumed. Delivered clones
    /// and frames built through [`Medium::frame_buf`] draw from it.
    payload_pool: Vec<Vec<u8>>,
    /// How long a fully evaluated record can still matter: a record
    /// whose end is older than this can no longer overlap any
    /// transmission evaluated now or later (every evaluation happens
    /// at most one max-size airtime after its frame started), so the
    /// collision scan never misses it. Twice the max airtime, for
    /// slack.
    history: SimDuration,
    /// Symmetric pairs of node indices whose link is administratively
    /// severed (fault injection).
    blocked_links: HashSet<(u32, u32)>,
    /// When `true`, nodes in different groups cannot hear each other.
    partitioned: bool,
    stats: MediumStats,
    /// Transmission records examined so far by eviction, CCA and
    /// collision checks: the medium's deterministic cost counter. Not a
    /// [`MediumStats`] field — it measures the simulator, not the
    /// simulated network. A `Cell` because CCA reads the medium.
    air_visits: Cell<u64>,
}

/// Most payload buffers the delivery pool will hold on to.
const PAYLOAD_POOL_CAP: usize = 64;

impl Medium {
    /// Creates a medium with the given radio configuration.
    pub fn new(config: RadioConfig) -> Self {
        let cell = config
            .max_range()
            .filter(|r| r.is_finite() && *r > 0.0)
            .map_or(f64::INFINITY, |r| r.max(1.0));
        let history = config.airtime(config.max_payload) * 2;
        Medium {
            config,
            nodes: Vec::new(),
            slots: Vec::new(),
            free: Vec::new(),
            filed: VecDeque::new(),
            air: Vec::new(),
            grid: SpatialGrid::new(cell),
            neigh: Vec::new(),
            neigh_cached: false,
            gathered: Vec::new(),
            payload_pool: Vec::new(),
            history,
            blocked_links: HashSet::new(),
            partitioned: false,
            stats: MediumStats::default(),
            air_visits: Cell::new(0),
        }
    }

    /// Lets `tx` age out once its reception walk is over: a record is
    /// born pending, pinned against eviction until the kernel has
    /// evaluated its last candidate.
    pub(crate) fn unpin(&mut self, tx: TxId) {
        if let Some(slot) = self.lookup(tx) {
            self.slots[slot].pending = false;
        }
    }

    /// Collapses the spatial index of a still-empty medium to a single
    /// cell, forcing exhaustive scans over every node and every live
    /// record: the oracle the equivalence tests compare the bucketed
    /// medium against. Both produce byte-identical simulations — the
    /// index only changes how candidates and interferers are *found*,
    /// never which are found or in which order the per-candidate RNG
    /// draws happen.
    #[cfg(test)]
    pub(crate) fn drop_spatial_index(&mut self) {
        assert!(self.nodes.is_empty(), "drop the index before adding nodes");
        self.grid = SpatialGrid::new(f64::INFINITY);
    }

    /// Transmission records examined so far by eviction, CCA and
    /// collision checks.
    pub(crate) fn air_visits(&self) -> u64 {
        self.air_visits.get()
    }

    /// The radio configuration.
    pub fn config(&self) -> &RadioConfig {
        &self.config
    }

    /// Medium statistics so far.
    pub fn stats(&self) -> MediumStats {
        self.stats
    }

    /// Makes room for `additional` more nodes.
    pub(crate) fn reserve_nodes(&mut self, additional: usize) {
        self.nodes.reserve(additional);
        self.neigh.reserve(additional);
    }

    pub(crate) fn add_node(&mut self, pos: Pos) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        let cell = self.grid.insert(id.0, pos);
        if cell as usize == self.air.len() {
            self.air.push(VecDeque::new());
        }
        // A new node may be in range of any existing one: every cached
        // neighbour list is stale.
        if std::mem::take(&mut self.neigh_cached) {
            self.neigh.fill(None);
        }
        self.neigh.push(None);
        self.nodes.push(NodeRadio {
            pos,
            cell,
            alive: true,
            state: RadioState::Off,
            channel: 0,
            listen_since: SimTime::ZERO,
            promiscuous: false,
            group: 0,
        });
        id
    }

    /// Number of nodes attached to the medium.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Position of `node`.
    pub fn pos(&self, node: NodeId) -> Pos {
        self.nodes[node.index()].pos
    }

    /// Current radio state of `node`.
    pub fn state(&self, node: NodeId) -> RadioState {
        self.nodes[node.index()].state
    }

    /// Current channel of `node`.
    pub fn channel(&self, node: NodeId) -> u8 {
        self.nodes[node.index()].channel
    }

    pub(crate) fn set_alive(&mut self, node: NodeId, alive: bool) {
        let n = &mut self.nodes[node.index()];
        n.alive = alive;
        if !alive {
            n.state = RadioState::Off;
        }
    }

    /// Whether `node` is alive (not killed by fault injection).
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.nodes[node.index()].alive
    }

    /// Administratively severs the link between `a` and `b` (both ways).
    pub(crate) fn block_link(&mut self, a: NodeId, b: NodeId) {
        let (x, y) = if a.0 <= b.0 { (a.0, b.0) } else { (b.0, a.0) };
        self.blocked_links.insert((x, y));
    }

    /// Restores a previously severed link.
    pub(crate) fn unblock_link(&mut self, a: NodeId, b: NodeId) {
        let (x, y) = if a.0 <= b.0 { (a.0, b.0) } else { (b.0, a.0) };
        self.blocked_links.remove(&(x, y));
    }

    /// Assigns `node` to a partition group (see [`Medium::set_partitioned`]).
    pub(crate) fn set_group(&mut self, node: NodeId, group: u16) {
        self.nodes[node.index()].group = group;
    }

    /// Enables or disables the partition: while enabled, nodes in
    /// different groups cannot hear each other at all.
    pub(crate) fn set_partitioned(&mut self, on: bool) {
        self.partitioned = on;
    }

    /// Whether the partition is currently active.
    pub fn is_partitioned(&self) -> bool {
        self.partitioned
    }

    fn link_open(&self, a: NodeId, b: NodeId) -> bool {
        let (x, y) = if a.0 <= b.0 { (a.0, b.0) } else { (b.0, a.0) };
        if self.blocked_links.contains(&(x, y)) {
            return false;
        }
        if self.partitioned && self.nodes[a.index()].group != self.nodes[b.index()].group {
            return false;
        }
        true
    }

    pub(crate) fn set_promiscuous(&mut self, node: NodeId, on: bool) {
        self.nodes[node.index()].promiscuous = on;
    }

    pub(crate) fn radio_on(&mut self, node: NodeId, now: SimTime) -> Result<(), RadioError> {
        let n = &mut self.nodes[node.index()];
        if !n.alive {
            return Err(RadioError::NodeDead);
        }
        if n.state == RadioState::Off {
            n.state = RadioState::Listening;
            n.listen_since = now;
        }
        Ok(())
    }

    pub(crate) fn radio_off(&mut self, node: NodeId) -> Result<(), RadioError> {
        let n = &mut self.nodes[node.index()];
        if !n.alive {
            return Err(RadioError::NodeDead);
        }
        if n.state == RadioState::Transmitting {
            return Err(RadioError::Busy);
        }
        n.state = RadioState::Off;
        Ok(())
    }

    pub(crate) fn set_channel(
        &mut self,
        node: NodeId,
        channel: u8,
        now: SimTime,
    ) -> Result<(), RadioError> {
        let n = &mut self.nodes[node.index()];
        if !n.alive {
            return Err(RadioError::NodeDead);
        }
        if n.state == RadioState::Transmitting {
            return Err(RadioError::Busy);
        }
        if n.channel != channel {
            n.channel = channel;
            // Retuning interrupts any ongoing reception.
            if n.state == RadioState::Listening {
                n.listen_since = now;
            }
        }
        Ok(())
    }

    /// Is the channel busy at `node` right now (any audible transmission
    /// above the CCA threshold)?
    pub(crate) fn cca_busy(&self, node: NodeId, now: SimTime) -> bool {
        let me = &self.nodes[node.index()];
        self.audible_at(node).any(|(_, tx)| {
            tx.start <= now
                && now < tx.end
                && tx.channel == me.channel
                && tx.src != node
                && self.link_open(tx.src, node)
                && self
                    .config
                    .rssi_at(self.nodes[tx.src.index()].pos.distance(me.pos))
                    .is_some_and(|r| r >= self.config.cca_threshold_dbm)
        })
    }

    /// Every live record `node` could possibly hear, as `(slot,
    /// record)`: those filed in the 3x3 cells around it. A superset —
    /// callers still check time overlap, channel, link and signal — but
    /// a complete one: a source outside these cells is more than one
    /// cell side (the maximum range) away.
    fn audible_at(&self, node: NodeId) -> impl Iterator<Item = (usize, &TxRecord)> {
        self.grid
            .neighbourhood(self.nodes[node.index()].cell)
            .iter()
            .flat_map(|&cell| &self.air[cell as usize])
            .map(|&slot| {
                self.air_visits.set(self.air_visits.get() + 1);
                (slot as usize, &self.slots[slot as usize].rec)
            })
    }

    /// Resolves `tx` to its slab slot, if the record is still known.
    fn lookup(&self, tx: TxId) -> Option<usize> {
        let slot = tx.slot();
        let s = self.slots.get(slot)?;
        (s.live && s.generation == tx.generation()).then_some(slot)
    }

    /// Retires, oldest filing first, records that can no longer matter:
    /// fully evaluated (no queue entry or candidate walk pending) *and*
    /// past the collision horizon. The retain rule is explicit: any
    /// record still in flight (`end >= now`) or with pending evaluations
    /// survives, regardless of its age — eviction can never turn a
    /// scheduled reception into a dangling [`TxId`].
    ///
    /// Stopping at the first record that stays keeps this O(retired)
    /// instead of O(live). A long frame at the head can hold back
    /// shorter ones filed after it, for at most its own airtime: that
    /// only delays the reuse of their slots, since every reader of a
    /// record checks exact time overlap itself.
    fn evict(&mut self, now: SimTime) {
        // `history` (two max-size airtimes) bounds how long a fully
        // evaluated record can still overlap a future evaluation; see
        // the field doc for the argument.
        let cutoff = if now.as_micros() > self.history.as_micros() {
            now - self.history
        } else {
            SimTime::ZERO
        };
        while let Some(&slot) = self.filed.front() {
            *self.air_visits.get_mut() += 1;
            let s = &mut self.slots[slot as usize];
            if s.pending || s.rec.end >= cutoff || s.rec.end >= now {
                break;
            }
            s.live = false;
            s.generation = s.generation.wrapping_add(1);
            s.rec.candidates.clear();
            let cell = self.nodes[s.rec.src.index()].cell;
            let payload = std::mem::take(&mut s.rec.frame.payload);
            self.recycle_payload(payload);
            let unfiled = self.air[cell as usize].pop_front();
            debug_assert_eq!(unfiled, Some(slot), "cell lists follow filing order");
            self.filed.pop_front();
            self.free.push(slot);
        }
    }

    /// An empty payload buffer from the pool (a new one if the pool is
    /// dry).
    pub(crate) fn frame_buf(&mut self) -> Vec<u8> {
        self.payload_pool.pop().unwrap_or_default()
    }

    /// Hands a payload buffer back to the pool (called by the kernel
    /// once a delivered frame clone has been consumed).
    pub(crate) fn recycle_payload(&mut self, mut payload: Vec<u8>) {
        if self.payload_pool.len() < PAYLOAD_POOL_CAP && payload.capacity() > 0 {
            payload.clear();
            self.payload_pool.push(payload);
        }
    }

    /// [`Medium::start_tx_into`], also returning the candidate receivers
    /// it recorded.
    #[cfg(test)]
    fn start_tx<R: Rng>(
        &mut self,
        frame: Frame,
        now: SimTime,
        rng: &mut R,
    ) -> Result<(TxId, SimTime, Vec<NodeId>), RadioError> {
        let (id, end) = self.start_tx_into(frame, now, rng)?;
        let candidates = self.candidates(id).iter().map(|c| c.0);
        Ok((id, end, candidates.collect()))
    }

    /// The nodes `src` can reach at or above the sensitivity threshold,
    /// each with its link budget, in ascending id order: the `neigh`
    /// entry of a source. Only here are distances, `rssi_at` and `prr`
    /// computed for candidate enumeration.
    fn audible_from(&mut self, src: NodeId) -> Box<[Link]> {
        let src_pos = self.nodes[src.index()].pos;
        // The 3x3 cells around the source cover `max_range`, beyond
        // which `rssi_at` is `None`.
        let mut near = std::mem::take(&mut self.gathered);
        self.grid.gather(src_pos, &mut near);
        let budget = |&i: &u32| {
            let d = src_pos.distance(self.nodes[i as usize].pos);
            let rssi = self.config.rssi_at(d)?;
            (i != src.0 && rssi >= self.config.sensitivity_dbm).then(|| Link {
                to: NodeId(i),
                rssi,
                prr: self.config.prr(d, rssi),
            })
        };
        // Sized exactly: the list lives as long as the medium.
        let mut list = Vec::with_capacity(near.iter().filter_map(budget).count());
        list.extend(near.iter().filter_map(budget));
        self.gathered = near;
        list.into_boxed_slice()
    }

    /// Why `frame` may not go on the air now, if it may not.
    fn may_transmit(&self, frame: &Frame) -> Result<(), RadioError> {
        let n = &self.nodes[frame.src.index()];
        if !n.alive {
            return Err(RadioError::NodeDead);
        }
        match n.state {
            RadioState::Off => Err(RadioError::Off),
            RadioState::Transmitting => Err(RadioError::Busy),
            RadioState::Listening if frame.payload.len() > self.config.max_payload => {
                Err(RadioError::FrameTooLarge)
            }
            RadioState::Listening => Ok(()),
        }
    }

    /// Starts a transmission: claims a record, fills in its candidate
    /// receivers in place and returns the tx id and its end time. The
    /// record is born pending: the caller queues its one `TxEnd`.
    ///
    /// Candidates are visited in ascending node-id order and the
    /// per-candidate PRR draw happens only for nodes passing the
    /// sensitivity check — whatever the index's cell side, so a
    /// bucketed and a one-cell medium consume the RNG identically and
    /// simulations are byte-identical by construction.
    pub(crate) fn start_tx_into<R: Rng>(
        &mut self,
        frame: Frame,
        now: SimTime,
        rng: &mut R,
    ) -> Result<(TxId, SimTime), RadioError> {
        let src = frame.src;
        if let Err(e) = self.may_transmit(&frame) {
            // A refused frame's buffer is as reusable as a delivered one.
            self.recycle_payload(frame.payload);
            return Err(e);
        }
        let end = now + self.config.airtime(frame.payload.len());
        let channel = self.nodes[src.index()].channel;

        self.evict(now);

        // Claim the record slot up front so its candidate buffer can be
        // filled in place.
        let slot = match self.free.pop() {
            Some(s) => s as usize,
            None => {
                self.slots.push(TxSlot::default());
                self.slots.len() - 1
            }
        };
        let id = TxId::compose(slot as u32, self.slots[slot].generation);
        let mut candidates = std::mem::take(&mut self.slots[slot].rec.candidates);
        candidates.clear();

        // Candidate enumeration: whoever the source can reach is cached
        // with the signal it arrives at and its PRR, so what is left
        // per frame is what changes — who is up, listening on this
        // channel, and not cut off — and the draw.
        let links = self.neigh[src.index()].take();
        let links = links.unwrap_or_else(|| self.audible_from(src));
        for link in links.iter() {
            let n = &self.nodes[link.to.index()];
            if !n.alive
                || n.state != RadioState::Listening
                || n.channel != channel
                || !self.link_open(src, link.to)
            {
                continue;
            }
            let ok = rng.gen::<f64>() < link.prr;
            candidates.push((link.to, link.rssi, ok));
        }
        self.neigh[src.index()] = Some(links);
        self.neigh_cached = true;

        self.nodes[src.index()].state = RadioState::Transmitting;
        let s = &mut self.slots[slot];
        s.live = true;
        s.pending = true;
        s.rec.src = src;
        s.rec.channel = channel;
        s.rec.start = now;
        s.rec.end = end;
        s.rec.frame = frame;
        s.rec.candidates = candidates;
        self.filed.push_back(slot as u32);
        self.air[self.nodes[src.index()].cell as usize].push_back(slot as u32);
        self.stats.tx_started += 1;
        Ok((id, end))
    }

    /// Finishes a transmission at the sender side; returns the outcome.
    ///
    /// A stale or unknown `tx` counts in `lost_expired` and yields
    /// `None` instead of panicking; by construction the kernel's
    /// `TxEnd` event always finds its record (a pending record is never
    /// evicted).
    pub(crate) fn end_tx(&mut self, tx: TxId, now: SimTime) -> Option<TxOutcome> {
        let Some(slot) = self.lookup(tx) else {
            self.stats.lost_expired += 1;
            return None;
        };
        let rec = &self.slots[slot].rec;
        let src = rec.src;
        let oracle = rec.candidates.iter().filter(|c| c.2).count();
        let n = &mut self.nodes[src.index()];
        if n.alive && n.state == RadioState::Transmitting {
            n.state = RadioState::Listening;
            n.listen_since = now;
        }
        Some(TxOutcome {
            oracle_receivers: oracle,
        })
    }

    /// The candidate receptions of `tx` in the order
    /// [`Medium::start_tx_into`] recorded them, as `(receiver, rssi,
    /// passed-PRR-draw)`; none for an id the medium no longer knows.
    pub(crate) fn candidates(&self, tx: TxId) -> &[(NodeId, f64, bool)] {
        let slot = self.lookup(tx);
        slot.map_or(&[], |slot| &self.slots[slot].rec.candidates)
    }

    /// Evaluates the reception of `tx` at its `i`-th candidate, at the
    /// end of the transmission.
    pub(crate) fn eval_rx(&mut self, tx: TxId, i: usize) -> RxEval {
        let found = (self.lookup(tx), self.candidates(tx).get(i));
        let (Some(rec_idx), Some(&(node, rssi, prr_ok))) = found else {
            self.stats.lost_expired += 1;
            return RxEval::Dropped(DropReason::Expired, None);
        };
        let rec = &self.slots[rec_idx].rec;
        let rec_start = rec.start;
        let rec_end = rec.end;
        let rec_channel = rec.channel;
        let rec_src = rec.src;
        let n = &self.nodes[node.index()];
        if !n.alive {
            self.stats.lost_radio_moved += 1;
            return RxEval::Dropped(DropReason::Dead, Some(rec_src));
        }
        // The radio must have been listening on this channel for the
        // whole frame.
        if n.state != RadioState::Listening
            || n.listen_since > rec_start
            || n.channel != rec_channel
        {
            self.stats.lost_radio_moved += 1;
            return RxEval::Dropped(DropReason::RadioMoved, Some(rec_src));
        }
        if !prr_ok {
            self.stats.lost_prr += 1;
            return RxEval::Dropped(DropReason::Prr, Some(rec_src));
        }
        // Collision check: any other overlapping audible transmission
        // strong enough to defeat capture destroys the frame. Only
        // records filed around this listener can be audible here.
        let my_pos = n.pos;
        let jammed = self.audible_at(node).any(|(slot, other)| {
            slot != rec_idx
                && other.channel == rec_channel
                && other.end > rec_start
                && other.start < rec_end
                && other.src != node
                && self.link_open(other.src, node)
                && self
                    .config
                    .rssi_at(self.nodes[other.src.index()].pos.distance(my_pos))
                    .is_some_and(|int_rssi| rssi < int_rssi + self.config.capture_db)
        });
        if jammed {
            self.stats.lost_collision += 1;
            return RxEval::Dropped(DropReason::Collision, Some(rec_src));
        }
        let rec = &self.slots[rec_idx].rec;
        if !rec.frame.dst.accepts(node) && !n.promiscuous {
            self.stats.filtered += 1;
            return RxEval::Dropped(DropReason::Filtered, Some(rec_src));
        }
        self.stats.delivered += 1;
        // Clone the frame for delivery, backing the payload with a
        // pooled buffer so steady-state delivery allocates nothing.
        let mut payload = self.frame_buf();
        let rec = &self.slots[rec_idx].rec;
        payload.extend_from_slice(&rec.frame.payload);
        RxEval::Deliver(
            Frame {
                src: rec.frame.src,
                dst: rec.frame.dst,
                port: rec.frame.port,
                payload,
            },
            RxInfo {
                rssi_dbm: rssi,
                channel: rec_channel,
                started: rec_start,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// Evaluates `tx` at `node`, found by its place among the candidates
    /// (a node that is none, or a stale `tx`, evaluates as expired).
    fn eval_at(m: &mut Medium, tx: TxId, node: NodeId) -> RxEval {
        let i = m.candidates(tx).iter().position(|c| c.0 == node);
        m.eval_rx(tx, i.unwrap_or(usize::MAX))
    }

    fn medium_with_line(n: usize, spacing: f64) -> Medium {
        let mut m = Medium::new(RadioConfig::default());
        for i in 0..n {
            m.add_node(Pos::new(i as f64 * spacing, 0.0));
        }
        m
    }

    #[test]
    fn airtime_matches_bitrate() {
        let c = RadioConfig::default();
        // (17 + 33) * 8 = 400 bits at 250 kbit/s = 1600 us.
        assert_eq!(c.airtime(33), SimDuration::from_micros(1600));
    }

    #[test]
    fn unit_disk_prr_step() {
        let c = RadioConfig::default();
        assert_eq!(c.prr(29.0, -60.0), 1.0);
        assert_eq!(c.prr(31.0, -60.0), 0.0);
    }

    #[test]
    fn log_distance_prr_monotone() {
        let c = RadioConfig {
            link: LinkModel::LogDistance {
                path_loss_exp: 3.0,
                ref_loss_db: 40.0,
                rssi50_dbm: -88.0,
                spread_db: 3.0,
            },
            ..RadioConfig::default()
        };
        let r10 = c.rssi_at(10.0).unwrap();
        let r40 = c.rssi_at(40.0).unwrap();
        assert!(r10 > r40);
        assert!(c.prr(10.0, r10) > c.prr(40.0, r40));
    }

    #[test]
    fn tx_requires_radio_on() {
        let mut m = medium_with_line(2, 10.0);
        let mut rng = SmallRng::seed_from_u64(0);
        let f = Frame::new(NodeId(0), Dst::Broadcast, 0, vec![1, 2, 3]);
        assert_eq!(
            m.start_tx(f, SimTime::ZERO, &mut rng).unwrap_err(),
            RadioError::Off
        );
    }

    #[test]
    fn basic_delivery() {
        let mut m = medium_with_line(2, 10.0);
        let mut rng = SmallRng::seed_from_u64(0);
        let t0 = SimTime::ZERO;
        m.radio_on(NodeId(0), t0).unwrap();
        m.radio_on(NodeId(1), t0).unwrap();
        let f = Frame::new(NodeId(0), Dst::Unicast(NodeId(1)), 7, vec![42]);
        let (tx, end, sched) = m.start_tx(f.clone(), t0, &mut rng).unwrap();
        assert_eq!(sched, vec![NodeId(1)]);
        assert_eq!(m.state(NodeId(0)), RadioState::Transmitting);
        let out = m.end_tx(tx, end).expect("a live record");
        assert_eq!(out.oracle_receivers, 1);
        assert_eq!(m.state(NodeId(0)), RadioState::Listening);
        match eval_at(&mut m, tx, NodeId(1)) {
            RxEval::Deliver(got, info) => {
                assert_eq!(got, f);
                assert_eq!(info.channel, 0);
                assert_eq!(info.started, t0);
            }
            other => panic!("expected delivery, got {other:?}"),
        }
        assert_eq!(m.stats().delivered, 1);
    }

    #[test]
    fn out_of_range_not_candidate() {
        let mut m = medium_with_line(2, 100.0);
        let mut rng = SmallRng::seed_from_u64(0);
        m.radio_on(NodeId(0), SimTime::ZERO).unwrap();
        m.radio_on(NodeId(1), SimTime::ZERO).unwrap();
        let f = Frame::new(NodeId(0), Dst::Broadcast, 0, vec![]);
        let (_, _, sched) = m.start_tx(f, SimTime::ZERO, &mut rng).unwrap();
        assert!(sched.is_empty());
    }

    #[test]
    fn address_filter_drops_foreign_unicast() {
        let mut m = medium_with_line(3, 10.0);
        let mut rng = SmallRng::seed_from_u64(0);
        for i in 0..3 {
            m.radio_on(NodeId(i), SimTime::ZERO).unwrap();
        }
        let f = Frame::new(NodeId(0), Dst::Unicast(NodeId(1)), 0, vec![]);
        let (tx, end, sched) = m.start_tx(f, SimTime::ZERO, &mut rng).unwrap();
        assert_eq!(sched.len(), 2);
        m.end_tx(tx, end);
        assert!(matches!(
            eval_at(&mut m, tx, NodeId(2)),
            RxEval::Dropped(DropReason::Filtered, _)
        ));
        assert!(matches!(
            eval_at(&mut m, tx, NodeId(1)),
            RxEval::Deliver(..)
        ));
    }

    #[test]
    fn promiscuous_overhears() {
        let mut m = medium_with_line(3, 10.0);
        let mut rng = SmallRng::seed_from_u64(0);
        for i in 0..3 {
            m.radio_on(NodeId(i), SimTime::ZERO).unwrap();
        }
        m.set_promiscuous(NodeId(2), true);
        let f = Frame::new(NodeId(0), Dst::Unicast(NodeId(1)), 0, vec![]);
        let (tx, end, _) = m.start_tx(f, SimTime::ZERO, &mut rng).unwrap();
        m.end_tx(tx, end);
        assert!(matches!(
            eval_at(&mut m, tx, NodeId(2)),
            RxEval::Deliver(..)
        ));
    }

    #[test]
    fn radio_off_mid_frame_loses_it() {
        let mut m = medium_with_line(2, 10.0);
        let mut rng = SmallRng::seed_from_u64(0);
        m.radio_on(NodeId(0), SimTime::ZERO).unwrap();
        m.radio_on(NodeId(1), SimTime::ZERO).unwrap();
        let f = Frame::new(NodeId(0), Dst::Broadcast, 0, vec![0; 50]);
        let (tx, end, _) = m.start_tx(f, SimTime::ZERO, &mut rng).unwrap();
        // Receiver cycles its radio in the middle of the frame.
        m.radio_off(NodeId(1)).unwrap();
        m.radio_on(NodeId(1), SimTime::from_micros(100)).unwrap();
        m.end_tx(tx, end);
        assert!(matches!(
            eval_at(&mut m, tx, NodeId(1)),
            RxEval::Dropped(DropReason::RadioMoved, _)
        ));
    }

    #[test]
    fn overlapping_transmissions_collide() {
        // Nodes 0 and 2 both in range of node 1, equidistant -> no capture.
        let mut m = medium_with_line(3, 10.0);
        let mut rng = SmallRng::seed_from_u64(0);
        for i in 0..3 {
            m.radio_on(NodeId(i), SimTime::ZERO).unwrap();
        }
        let f0 = Frame::new(NodeId(0), Dst::Broadcast, 0, vec![0; 50]);
        let f2 = Frame::new(NodeId(2), Dst::Broadcast, 0, vec![0; 50]);
        let (tx0, end0, _) = m.start_tx(f0, SimTime::ZERO, &mut rng).unwrap();
        let (_tx2, _, _) = m.start_tx(f2, SimTime::from_micros(50), &mut rng).unwrap();
        m.end_tx(tx0, end0);
        assert!(matches!(
            eval_at(&mut m, tx0, NodeId(1)),
            RxEval::Dropped(DropReason::Collision, _)
        ));
        assert_eq!(m.stats().lost_collision, 1);
    }

    #[test]
    fn capture_effect_keeps_strong_frame() {
        // Interferer much farther away than the sender: capture wins.
        let mut m = Medium::new(RadioConfig::default());
        m.add_node(Pos::new(0.0, 0.0)); // sender
        m.add_node(Pos::new(2.0, 0.0)); // receiver
        m.add_node(Pos::new(40.0, 0.0)); // weak interferer (interference range only)
        let mut rng = SmallRng::seed_from_u64(0);
        for i in 0..3 {
            m.radio_on(NodeId(i), SimTime::ZERO).unwrap();
        }
        let f0 = Frame::new(NodeId(0), Dst::Unicast(NodeId(1)), 0, vec![0; 20]);
        let f2 = Frame::new(NodeId(2), Dst::Broadcast, 0, vec![0; 20]);
        let (tx0, end0, _) = m.start_tx(f0, SimTime::ZERO, &mut rng).unwrap();
        m.start_tx(f2, SimTime::from_micros(10), &mut rng).unwrap();
        m.end_tx(tx0, end0);
        assert!(matches!(
            eval_at(&mut m, tx0, NodeId(1)),
            RxEval::Deliver(..)
        ));
    }

    #[test]
    fn different_channels_do_not_interact() {
        let mut m = medium_with_line(2, 10.0);
        let mut rng = SmallRng::seed_from_u64(0);
        m.radio_on(NodeId(0), SimTime::ZERO).unwrap();
        m.radio_on(NodeId(1), SimTime::ZERO).unwrap();
        m.set_channel(NodeId(1), 5, SimTime::ZERO).unwrap();
        let f = Frame::new(NodeId(0), Dst::Broadcast, 0, vec![]);
        let (_, _, sched) = m.start_tx(f, SimTime::ZERO, &mut rng).unwrap();
        assert!(sched.is_empty());
        assert!(!m.cca_busy(NodeId(1), SimTime::from_micros(10)));
    }

    #[test]
    fn cca_sees_ongoing_transmission() {
        let mut m = medium_with_line(2, 10.0);
        let mut rng = SmallRng::seed_from_u64(0);
        m.radio_on(NodeId(0), SimTime::ZERO).unwrap();
        m.radio_on(NodeId(1), SimTime::ZERO).unwrap();
        let f = Frame::new(NodeId(0), Dst::Broadcast, 0, vec![0; 50]);
        let (tx, end, _) = m.start_tx(f, SimTime::ZERO, &mut rng).unwrap();
        assert!(m.cca_busy(NodeId(1), SimTime::from_micros(10)));
        m.end_tx(tx, end);
        assert!(!m.cca_busy(NodeId(1), end));
    }

    #[test]
    fn blocked_link_and_partition() {
        let mut m = medium_with_line(2, 10.0);
        let mut rng = SmallRng::seed_from_u64(0);
        m.radio_on(NodeId(0), SimTime::ZERO).unwrap();
        m.radio_on(NodeId(1), SimTime::ZERO).unwrap();
        m.block_link(NodeId(0), NodeId(1));
        let f = Frame::new(NodeId(0), Dst::Broadcast, 0, vec![]);
        let (tx, end, sched) = m.start_tx(f.clone(), SimTime::ZERO, &mut rng).unwrap();
        assert!(sched.is_empty());
        m.end_tx(tx, end);
        m.unblock_link(NodeId(0), NodeId(1));
        m.set_group(NodeId(1), 1);
        m.set_partitioned(true);
        let (tx, end, sched) = m
            .start_tx(f.clone(), SimTime::from_millis(10), &mut rng)
            .unwrap();
        assert!(sched.is_empty());
        m.end_tx(tx, end);
        m.set_partitioned(false);
        let (_, _, sched) = m.start_tx(f, SimTime::from_millis(20), &mut rng).unwrap();
        assert_eq!(sched, vec![NodeId(1)]);
    }

    #[test]
    fn dead_node_cannot_transmit() {
        let mut m = medium_with_line(2, 10.0);
        let mut rng = SmallRng::seed_from_u64(0);
        m.radio_on(NodeId(0), SimTime::ZERO).unwrap();
        m.set_alive(NodeId(0), false);
        let f = Frame::new(NodeId(0), Dst::Broadcast, 0, vec![]);
        assert_eq!(
            m.start_tx(f, SimTime::ZERO, &mut rng).unwrap_err(),
            RadioError::NodeDead
        );
    }

    #[test]
    fn frame_too_large_rejected() {
        let mut m = medium_with_line(1, 10.0);
        let mut rng = SmallRng::seed_from_u64(0);
        m.radio_on(NodeId(0), SimTime::ZERO).unwrap();
        let f = Frame::new(NodeId(0), Dst::Broadcast, 0, vec![0; 200]);
        assert_eq!(
            m.start_tx(f, SimTime::ZERO, &mut rng).unwrap_err(),
            RadioError::FrameTooLarge
        );
    }

    #[test]
    fn stale_tx_id_is_expired_not_a_panic() {
        // Once a fully evaluated record ages past the history horizon
        // it is pruned and its slot recycled; the old id must resolve
        // to a structured drop, never a panic (regression: end_tx used
        // to `expect` the record).
        let mut m = medium_with_line(2, 10.0);
        let mut rng = SmallRng::seed_from_u64(1);
        let t0 = SimTime::ZERO;
        m.radio_on(NodeId(0), t0).unwrap();
        m.radio_on(NodeId(1), t0).unwrap();
        let f = Frame::new(NodeId(0), Dst::Broadcast, 0, vec![1]);
        let (tx, end, sched) = m.start_tx(f.clone(), t0, &mut rng).unwrap();
        assert_eq!(sched, vec![NodeId(1)]);
        m.end_tx(tx, end);
        assert!(matches!(
            eval_at(&mut m, tx, NodeId(1)),
            RxEval::Deliver(..)
        ));
        m.unpin(tx);
        // All pending evaluations drained; a transmission far past the
        // horizon triggers pruning and recycles the slot.
        let later = SimTime::from_secs(3);
        let (tx2, end2, _) = m.start_tx(f, later, &mut rng).unwrap();
        assert_ne!(tx, tx2, "recycled slot must carry a new generation");
        assert_eq!(m.end_tx(tx, later), None, "an aged-out record");
        match eval_at(&mut m, tx, NodeId(1)) {
            RxEval::Dropped(DropReason::Expired, None) => {}
            other => panic!("expected Expired drop, got {other:?}"),
        }
        assert_eq!(m.stats().lost_expired, 2);
        m.end_tx(tx2, end2);
    }

    #[test]
    fn pending_evaluations_pin_records_past_horizon() {
        // A record whose candidate walk has not finished must survive
        // pruning no matter how old it is: eviction may never turn a
        // scheduled reception into a dangling id.
        let mut m = medium_with_line(2, 10.0);
        let mut rng = SmallRng::seed_from_u64(2);
        let t0 = SimTime::ZERO;
        m.radio_on(NodeId(0), t0).unwrap();
        m.radio_on(NodeId(1), t0).unwrap();
        let f = Frame::new(NodeId(0), Dst::Broadcast, 0, vec![7]);
        let (tx, end, _) = m.start_tx(f.clone(), t0, &mut rng).unwrap();
        m.end_tx(tx, end);
        // Deliberately do NOT eval_rx yet. 10 s later a new
        // transmission prunes history — the pinned record survives.
        let later = SimTime::from_secs(10);
        let (tx2, end2, _) = m.start_tx(f.clone(), later, &mut rng).unwrap();
        match eval_at(&mut m, tx, NodeId(1)) {
            RxEval::Deliver(got, _) => assert_eq!(got.payload, vec![7]),
            other => panic!("pinned record must still deliver, got {other:?}"),
        }
        m.end_tx(tx2, end2);
        // Once the walk is over the record ages out like any other.
        m.unpin(tx);
        m.unpin(tx2);
        m.start_tx(f, SimTime::from_secs(20), &mut rng).unwrap();
        assert!(m.candidates(tx).is_empty());
        assert_eq!(m.stats().lost_expired, 0);

        // The walk in the kernel: node 0's frame reaches nodes 1, 2 and
        // 3, and each answers from inside `frame`. Every answer claims
        // a slot while the walk's own record is the only one and live,
        // so the slab grows under the walk three times — which must
        // still find its record for the receptions that remain.
        use crate::node::{Proto, Timer};
        use crate::world::{Ctx, SimConfig, World};
        struct Answer {
            heard_node_0: bool,
        }
        impl Proto for Answer {
            fn start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.radio_on().expect("on");
                if ctx.id() == NodeId(0) {
                    ctx.set_timer(SimDuration::from_millis(1), 0);
                }
            }
            fn timer(&mut self, ctx: &mut Ctx<'_>, _t: Timer) {
                ctx.transmit(Dst::Broadcast, 0, vec![7]).expect("tx");
            }
            fn frame(&mut self, ctx: &mut Ctx<'_>, frame: &Frame, _info: RxInfo) {
                if frame.src == NodeId(0) {
                    self.heard_node_0 = true;
                    ctx.transmit(Dst::Broadcast, 0, vec![8]).expect("listening");
                }
            }
        }
        let mut w = World::new(SimConfig::default());
        for (x, y) in [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0), (-10.0, 0.0)] {
            let heard_node_0 = false;
            w.add_node(Pos::new(x, y), Box::new(Answer { heard_node_0 }));
        }
        w.run_until(SimTime::from_millis(1));
        assert_eq!(w.medium().slots.len(), 1);
        w.run_until(SimTime::from_millis(10));
        assert_eq!(w.medium().slots.len(), 4);
        assert_eq!(w.medium().stats().lost_expired, 0);
        for n in 1..4 {
            assert!(w.proto::<Answer>(NodeId(n)).heard_node_0, "node {n}");
        }
    }

    /// The whole-simulation face of the per-call properties below: two
    /// identical worlds, one with the index collapsed to a single cell
    /// (exhaustive scans) — every observable (medium stats, dispatched
    /// event count, counters) must agree exactly.
    #[test]
    fn spatial_index_is_invisible_to_simulations() {
        use crate::node::{Proto, Timer};
        use crate::topology::Topology;
        use crate::world::{Ctx, SimConfig, World};

        struct Gossip;
        impl Proto for Gossip {
            fn start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.radio_on().expect("on");
                let stagger = 5 + ctx.id().0 as u64 * 7;
                ctx.set_timer(SimDuration::from_millis(stagger), 0);
            }
            fn timer(&mut self, ctx: &mut Ctx<'_>, _t: Timer) {
                ctx.transmit(Dst::Broadcast, 0, vec![ctx.id().0 as u8; 12])
                    .ok();
                ctx.set_timer(SimDuration::from_millis(40), 0);
            }
            fn frame(&mut self, ctx: &mut Ctx<'_>, frame: &Frame, _info: RxInfo) {
                ctx.count("heard", 1.0);
                ctx.count_node("heard", frame.payload.len() as f64);
            }
        }
        let run = |indexed: bool| {
            let mut w = World::new(SimConfig::default().seed(7));
            if !indexed {
                w.medium_mut().drop_spatial_index();
            }
            w.add_nodes(&Topology::grid(6, 6, 20.0), |_| Box::new(Gossip));
            assert_eq!(w.medium().grid.cell_count() > 1, indexed);
            w.run_for(SimDuration::from_secs(5));
            (
                w.medium().stats(),
                w.events_dispatched(),
                w.stats().get("heard"),
            )
        };
        assert_eq!(run(true), run(false));
    }

    /// The complexity the air index exists for, pinned without a clock:
    /// on the perf harness's broadcaster grid, the records the medium
    /// examines per transmission must not grow with the deployment, and
    /// the slab must hold what is live, not what was ever sent. (A
    /// medium that scans every live record per frame examines ~300 per
    /// transmission at 40x40 and ~1,200 at 80x80.)
    #[test]
    fn air_visits_per_tx_do_not_grow_with_the_grid() {
        use crate::node::{Proto, Timer};
        use crate::topology::Topology;
        use crate::world::{Ctx, SimConfig, World};

        const PERIOD: SimDuration = SimDuration::from_millis(50);
        struct Blaster;
        impl Proto for Blaster {
            fn start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.radio_on().expect("on");
                let stagger = 1 + ctx.id().0 as u64 * 37 % PERIOD.as_micros();
                ctx.set_timer(SimDuration::from_micros(stagger), 0);
            }
            fn timer(&mut self, ctx: &mut Ctx<'_>, _t: Timer) {
                ctx.transmit(Dst::Broadcast, 1, vec![0xEE; 24]).ok();
                ctx.set_timer(PERIOD, 0);
            }
        }
        let link = LinkModel::LogDistance {
            path_loss_exp: 3.5,
            ref_loss_db: 45.0,
            rssi50_dbm: -88.0,
            spread_db: 3.0,
        };
        // 20x20 would be the wrong small point: its stagger spans only
        // 14.8 of the 50 ms period, nobody listens when a neighbour
        // transmits, and the count is low for that reason alone.
        let visits_per_tx = |side: usize| {
            let mut w = World::new(SimConfig::default().seed(side as u64).link(link.clone()));
            w.add_nodes(&Topology::grid(side, side, 20.0), |_| Box::new(Blaster));
            w.run_for(SimDuration::from_secs(1));
            let m = w.medium();
            let started = m.stats().tx_started;
            assert!(started >= 19 * (side * side) as u64, "{started} frames");
            // Live at once: the frames of the last airtime + history,
            // (1.3 + 8.1) / 50 per node on average and, where the
            // stagger wraps around the period, up to twice that. A slab
            // that never retired would hold 20 per node by now.
            assert!(
                m.slots.len() < side * side / 2 && m.filed.len() <= m.slots.len(),
                "{} slots for {started} transmissions of {} nodes",
                m.slots.len(),
                side * side
            );
            m.air_visits() as f64 / started as f64
        };
        let (small, large) = (visits_per_tx(40), visits_per_tx(80));
        assert!(
            small > 4.0 && large <= 1.25 * small,
            "visits per transmission: {small:.2} at 1,600 nodes, {large:.2} at 6,400"
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        /// The spatial index and the cached link budget must be
        /// invisible: on any topology — including cell-boundary-
        /// straddling and co-located nodes, a node nobody hears and a
        /// pair exactly one maximum range apart — and under every link
        /// model, the indexed medium, the one-cell medium's exhaustive
        /// scan and a brute-force pass over all nodes that calls
        /// `rssi_at` and `prr` itself record the exact same candidates,
        /// in the same order, at the same signal bit for bit, consuming
        /// the RNG identically; and again after a node joins within
        /// range of lists that were already built.
        #[test]
        fn grid_index_matches_exhaustive_scan(
            raw in proptest::collection::vec((-45.0f64..95.0, -45.0f64..95.0), 2..24),
            dup in proptest::any::<bool>(),
            off_mask in proptest::any::<u64>(),
            model in 0usize..3,
        ) {
            use proptest::{prop_assert, prop_assert_eq};
            let link = [
                LinkModel::default(),
                LinkModel::LossyDisk { range_m: 30.0, interference_range_m: 45.0, prr: 0.6 },
                LinkModel::LogDistance {
                    path_loss_exp: 3.5,
                    ref_loss_db: 45.0,
                    rssi50_dbm: -88.0,
                    spread_db: 3.0,
                },
            ][model].clone();
            let config = RadioConfig { link, ..RadioConfig::default() };
            let reach = config.max_range().expect("all three are finite");
            let mut pts: Vec<Pos> = raw.iter().map(|&(x, y)| Pos::new(x, y)).collect();
            if dup {
                // Co-located pair (same cell, same distance).
                let p = pts[0];
                pts.push(p);
            }
            // One node exactly on a cell boundary of the disk models'
            // 45 m grid, one nobody can hear, and a pair exactly
            // `reach` apart (its x difference and distance are exact).
            pts.push(Pos::new(45.0, 90.0));
            let loner = NodeId(pts.len() as u32);
            pts.push(Pos::new(1000.0, 1000.0));
            pts.push(Pos::new(0.0, -200.0));
            pts.push(Pos::new(reach, -200.0));
            prop_assert_eq!(pts[pts.len() - 2].distance(pts[pts.len() - 1]), reach);
            let on = |i: usize| off_mask >> (i % 64) & 1 == 0 || i >= loner.index();
            let build = |indexed: bool| {
                let mut m = Medium::new(config.clone());
                if !indexed {
                    m.drop_spatial_index();
                }
                for (i, &p) in pts.iter().enumerate() {
                    let id = m.add_node(p);
                    if on(i) {
                        m.radio_on(id, SimTime::ZERO).unwrap();
                    }
                }
                m
            };
            let mut with_index = build(true);
            let mut exhaustive = build(false);
            prop_assert_eq!(exhaustive.grid.cell_count(), 1);
            // Every node transmits once; `pts` may have grown since the
            // media were built, and whoever joined is listening.
            let pass = |with_index: &mut Medium, exhaustive: &mut Medium, pts: &[Pos]| {
                for i in 0..pts.len() {
                    let src = NodeId(i as u32);
                    let mut rng_a = SmallRng::seed_from_u64(0xC0FFEE ^ i as u64);
                    let mut rng_b = rng_a.clone();
                    let mut rng_c = rng_a.clone();
                    let f = Frame::new(src, Dst::Broadcast, 0, vec![i as u8]);
                    let res_a = with_index.start_tx_into(f.clone(), SimTime::ZERO, &mut rng_a);
                    let res_b = exhaustive.start_tx_into(f, SimTime::ZERO, &mut rng_b);
                    prop_assert_eq!(res_a.is_ok(), on(i));
                    match (res_a, res_b) {
                        (Ok((tx_a, end_a)), Ok((tx_b, end_b))) => {
                            let brute: Vec<(NodeId, u64, bool)> = (0..pts.len())
                                .filter(|&r| r != i && on(r))
                                .filter_map(|r| {
                                    let d = pts[i].distance(pts[r]);
                                    let rssi = config.rssi_at(d)?;
                                    (rssi >= config.sensitivity_dbm).then(|| {
                                        let ok = rng_c.gen::<f64>() < config.prr(d, rssi);
                                        (NodeId(r as u32), rssi.to_bits(), ok)
                                    })
                                })
                                .collect();
                            let recorded = |m: &Medium, tx: TxId| -> Vec<(NodeId, u64, bool)> {
                                let candidates = m.candidates(tx).iter();
                                candidates.map(|c| (c.0, c.1.to_bits(), c.2)).collect()
                            };
                            prop_assert_eq!(&recorded(with_index, tx_a), &brute);
                            prop_assert_eq!(&recorded(exhaustive, tx_b), &brute);
                            prop_assert_eq!(end_a, end_b);
                            // Identical RNG consumption — the invariant
                            // byte-identical simulations rest on.
                            let draw = rng_a.gen::<u64>();
                            prop_assert_eq!(draw, rng_b.gen::<u64>());
                            prop_assert_eq!(draw, rng_c.gen::<u64>());
                            with_index.end_tx(tx_a, end_a);
                            exhaustive.end_tx(tx_b, end_b);
                        }
                        (Err(ea), Err(eb)) => prop_assert_eq!(ea, eb),
                        (a, b) => panic!("diverged: indexed={a:?} exhaustive={b:?}"),
                    }
                }
            };
            pass(&mut with_index, &mut exhaustive, &pts);
            // A list is built by its source's first frame, an empty one
            // included: the loner's must not read as "not built yet".
            for m in [&with_index, &exhaustive] {
                prop_assert_eq!(m.neigh[loner.index()].as_deref(), Some(&[][..]));
                prop_assert_eq!(m.neigh[0].is_some(), on(0));
            }
            // A node joins 5 m from node 0, inside lists built above.
            let joined = Pos::new(pts[0].x + 5.0, pts[0].y);
            pts.push(joined);
            for m in [&mut with_index, &mut exhaustive] {
                let id = m.add_node(joined);
                prop_assert!(m.neigh.iter().all(Option::is_none));
                m.radio_on(id, SimTime::ZERO).unwrap();
            }
            pass(&mut with_index, &mut exhaustive, &pts);
        }

        /// Filing the air by cell and retiring it in filing order must
        /// be invisible too. Three media live through one random
        /// history — mixed frame lengths (a long frame at the head of
        /// the queue holds back short ones behind it), two channels, a
        /// blocked link, a partition, a node killed mid-frame and one
        /// joining mid-run in a cell of its own: the bucketed medium,
        /// the one-cell oracle, and a one-cell medium that never retires
        /// a record. Every reception, every CCA answer, every RNG draw
        /// and the final statistics must agree.
        #[test]
        fn bucketed_air_matches_exhaustive_scans(
            raw in proptest::collection::vec((-45.0f64..95.0, -45.0f64..95.0), 4..20),
            steps in proptest::collection::vec(
                (proptest::any::<u16>(), 0usize..4, 0u64..1_500),
                40..120,
            ),
            chan_mask in proptest::any::<u64>(),
            group_mask in proptest::any::<u64>(),
        ) {
            use proptest::prop_assert_eq;
            const LENS: [usize; 4] = [0, 10, 60, 110];
            let mut pts: Vec<Pos> = raw.iter().map(|&(x, y)| Pos::new(x, y)).collect();
            // The one node in reach of the late joiner at (136, 50),
            // which opens cell (3, 1) of the default 45 m grid.
            pts.push(Pos::new(120.0, 50.0));
            let join = |m: &mut Medium, pos: Pos, now: SimTime| {
                let id = m.add_node(pos);
                m.radio_on(id, now).unwrap();
                m.set_channel(id, (chan_mask >> (id.0 % 64) & 1) as u8, now).unwrap();
                m.set_group(id, (group_mask >> (id.0 % 64) & 1) as u16);
            };
            let mut media: Vec<Medium> = (0..3)
                .map(|k| {
                    let mut m = Medium::new(RadioConfig::default());
                    if k > 0 {
                        m.drop_spatial_index();
                    }
                    if k == 2 {
                        m.history = SimDuration::from_secs(3600);
                    }
                    pts.iter().for_each(|&p| join(&mut m, p, SimTime::ZERO));
                    m.block_link(NodeId(0), NodeId(1));
                    m
                })
                .collect();
            let mut rngs = vec![SmallRng::seed_from_u64(chan_mask ^ group_mask); 3];
            // Frames on the air: (end, id per medium, receivers to evaluate).
            let mut flying: Vec<(SimTime, Vec<TxId>, Vec<NodeId>)> = Vec::new();
            let land = |media: &mut [Medium], flying: &mut Vec<_>, until: SimTime| {
                flying.sort_by_key(|f: &(SimTime, Vec<TxId>, Vec<NodeId>)| f.0);
                let landed = flying.iter().take_while(|f| f.0 <= until).count();
                for (end, ids, receivers) in flying.drain(..landed) {
                    let outcomes: Vec<(Option<TxOutcome>, Vec<RxEval>)> = media
                        .iter_mut()
                        .zip(&ids)
                        .map(|(m, &tx)| {
                            let done = m.end_tx(tx, end);
                            let evals = (0..receivers.len()).map(|i| m.eval_rx(tx, i)).collect();
                            m.unpin(tx);
                            (done, evals)
                        })
                        .collect();
                    assert_eq!(outcomes[0], outcomes[1], "one-cell oracle, frame ending {end}");
                    assert_eq!(outcomes[0], outcomes[2], "never-retiring oracle, frame ending {end}");
                }
            };
            let mut now = SimTime::ZERO;
            for (step, &(who, len, dt)) in steps.iter().enumerate() {
                now += SimDuration::from_micros(dt);
                land(&mut media, &mut flying, now);
                if step == steps.len() / 4 {
                    media.iter_mut().for_each(|m| m.set_partitioned(true));
                } else if step == steps.len() / 3 {
                    // Someone still owed a reception, if anyone is.
                    let victim = flying.iter().find_map(|f| f.2.first().copied());
                    let victim = victim.unwrap_or(NodeId(2));
                    media.iter_mut().for_each(|m| m.set_alive(victim, false));
                } else if step == steps.len() / 2 {
                    media.iter_mut().for_each(|m| join(m, Pos::new(136.0, 50.0), now));
                } else if step == 2 * steps.len() / 3 {
                    media.iter_mut().for_each(|m| m.set_partitioned(false));
                }
                let n = media[0].node_count();
                let src = NodeId(who as u32 % n as u32);
                let frame = Frame::new(src, Dst::Broadcast, 0, vec![step as u8; LENS[len]]);
                let started: Vec<_> = media
                    .iter_mut()
                    .zip(&mut rngs)
                    .map(|(m, rng)| m.start_tx(frame.clone(), now, rng))
                    .collect();
                let shape = |s: &Result<(TxId, SimTime, Vec<NodeId>), RadioError>| {
                    s.clone().map(|(_, end, receivers)| (end, receivers))
                };
                prop_assert_eq!(shape(&started[0]), shape(&started[1]));
                prop_assert_eq!(shape(&started[0]), shape(&started[2]));
                if let Ok((_, end, receivers)) = &started[0] {
                    let ids = started.iter().map(|s| s.as_ref().expect("all start").0);
                    flying.push((*end, ids.collect(), receivers.clone()));
                }
                for i in 0..n as u32 {
                    let busy = media[0].cca_busy(NodeId(i), now);
                    prop_assert_eq!(busy, media[1].cca_busy(NodeId(i), now));
                    prop_assert_eq!(busy, media[2].cca_busy(NodeId(i), now));
                }
            }
            land(&mut media, &mut flying, SimTime::from_secs(3600));
            assert!(media[0].grid.cell_count() > media[1].grid.cell_count());
            prop_assert_eq!(media[0].stats(), media[1].stats());
            prop_assert_eq!(media[0].stats(), media[2].stats());
            prop_assert_eq!(media[2].slots.len() as u64, media[2].stats().tx_started);
            let draws: Vec<u64> = rngs.iter_mut().map(|r| r.gen()).collect();
            prop_assert_eq!(draws[0], draws[1]);
            prop_assert_eq!(draws[0], draws[2]);
        }
    }
}
