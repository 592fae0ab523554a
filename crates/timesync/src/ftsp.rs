//! The FTSP-style synchronization engine: reference election, flooded
//! MAC-timestamped beacons, and per-node regression over the sample
//! window.
//!
//! The engine is transport-agnostic: a host (the standalone
//! [`crate::node::FtspNode`], or a MAC weaving sync beacons into its
//! schedule) calls [`FtspEngine::beat`] whenever this node gets a
//! chance to speak and [`FtspEngine::on_beacon`] for every received
//! beacon. The engine maintains the believed reference, the hop depth,
//! the flood sequence number, and the [`SyncedClock`] estimate.

use crate::clock::SyncedClock;
use crate::estimator::DriftEstimator;
use iiot_sim::obs::EventKind;
use iiot_sim::{Ctx, NodeId, SimDuration, SimTime};

/// Size of an encoded sync beacon: root (4) + seq (4) + depth (1) +
/// global time in µs (8).
pub const BEACON_LEN: usize = 17;

/// A decoded sync beacon.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Beacon {
    /// The reference node whose timebase the beacon carries.
    pub root: NodeId,
    /// Flood sequence number (one per reference beacon round).
    pub seq: u32,
    /// Hop distance of the *sender* from the reference.
    pub depth: u8,
    /// The sender's estimate of global time at transmission start, µs.
    pub global_us: u64,
}

/// Encodes a beacon into its [`BEACON_LEN`]-byte wire form.
pub fn encode_beacon(b: &Beacon) -> Vec<u8> {
    let mut out = Vec::with_capacity(BEACON_LEN);
    out.extend_from_slice(&b.root.0.to_le_bytes());
    out.extend_from_slice(&b.seq.to_le_bytes());
    out.push(b.depth);
    out.extend_from_slice(&b.global_us.to_le_bytes());
    out
}

/// Decodes a beacon; `None` for truncated or oversized payloads.
pub fn decode_beacon(bytes: &[u8]) -> Option<Beacon> {
    if bytes.len() != BEACON_LEN {
        return None;
    }
    Some(Beacon {
        root: NodeId(u32::from_le_bytes(bytes[0..4].try_into().ok()?)),
        seq: u32::from_le_bytes(bytes[4..8].try_into().ok()?),
        depth: bytes[8],
        global_us: u64::from_le_bytes(bytes[9..17].try_into().ok()?),
    })
}

/// Beacon rounds without hearing the reference before a node declares
/// itself reference (ignored with a pinned reference; FTSP's
/// `ROOT_TIMEOUT`).
pub const ROOT_TIMEOUT: u32 = 3;

/// Configuration of the [`FtspEngine`].
#[derive(Clone, Debug)]
pub struct FtspConfig {
    /// Regression window: sync samples kept per node. A window of 1
    /// degrades to offset-only synchronization (no skew compensation).
    pub window: usize,
    /// Nominal beacon period (used by hosts that let the engine pace
    /// itself, e.g. [`crate::node::FtspNode`]).
    pub beacon_period: SimDuration,
    /// Pinned reference node, or `None` for dynamic election (lowest
    /// node id wins after [`ROOT_TIMEOUT`] silent rounds).
    pub reference: Option<NodeId>,
}

impl Default for FtspConfig {
    fn default() -> Self {
        FtspConfig {
            window: 8,
            beacon_period: SimDuration::from_secs(10),
            reference: None,
        }
    }
}

impl FtspConfig {
    /// Pins the reference to `node`, disabling election.
    #[must_use]
    pub fn with_reference(mut self, node: NodeId) -> Self {
        self.reference = Some(node);
        self
    }

    /// Sets the regression window.
    #[must_use]
    pub fn with_window(mut self, window: usize) -> Self {
        self.window = window;
        self
    }

    /// Sets the nominal beacon period.
    #[must_use]
    pub fn with_period(mut self, period: SimDuration) -> Self {
        self.beacon_period = period;
        self
    }
}

/// Per-node FTSP state machine. See the module docs for the protocol.
#[derive(Debug)]
pub struct FtspEngine {
    cfg: FtspConfig,
    me: NodeId,
    /// Currently believed reference; equal to `me` while a candidate
    /// (election mode) or while actually reference.
    root: NodeId,
    /// Hop distance from the reference (0 at the reference itself).
    depth: u8,
    /// Highest flood sequence number accepted for the current root.
    highest_seq: u32,
    /// Our own flood counter while reference.
    my_seq: u32,
    /// Beacon rounds since the reference was last heard.
    silent: u32,
    est: DriftEstimator,
    clock: SyncedClock,
}

impl FtspEngine {
    /// Creates an engine; call [`FtspEngine::start`] from the host's
    /// `start` callback before using it.
    pub fn new(cfg: FtspConfig) -> Self {
        let window = cfg.window;
        FtspEngine {
            cfg,
            me: NodeId(u32::MAX),
            root: NodeId(u32::MAX),
            depth: 0,
            highest_seq: 0,
            my_seq: 0,
            silent: 0,
            est: DriftEstimator::new(window),
            clock: SyncedClock::new(),
        }
    }

    /// Binds the engine to this node's identity (idempotent; safe to
    /// call again after a crash-restart).
    pub fn start(&mut self, me: NodeId) {
        self.me = me;
        self.root = self.cfg.reference.unwrap_or(me);
        self.depth = 0;
        self.highest_seq = 0;
        self.silent = 0;
        self.est.clear();
        self.clock.clear();
    }

    /// A clone of the [`SyncedClock`] this engine maintains; hand it to
    /// whatever protocol needs the global timebase.
    pub fn clock(&self) -> SyncedClock {
        self.clock.clone()
    }

    /// The engine's configuration.
    pub fn config(&self) -> &FtspConfig {
        &self.cfg
    }

    /// Whether this node currently believes it is the reference.
    pub fn is_reference(&self) -> bool {
        self.root == self.me
    }

    /// Whether this node can place itself on the global timebase (it is
    /// the reference, or it holds an estimate).
    pub fn is_synced(&self) -> bool {
        self.is_reference() || self.clock.is_synced()
    }

    /// The currently believed reference node.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Hop distance from the reference (0 at the reference).
    pub fn depth(&self) -> u8 {
        self.depth
    }

    /// This node's estimate of the current global time.
    pub fn global_now(&self, ctx: &mut Ctx<'_>) -> SimTime {
        let local = ctx.local_time();
        if self.is_reference() {
            local
        } else {
            self.clock.global(local)
        }
    }

    /// One beacon round: returns the beacon payload this node should
    /// broadcast right now, or `None` if it must stay silent (not yet
    /// elected, or not yet synced). The caller transmits the payload
    /// immediately — the embedded timestamp is taken in this call.
    pub fn beat(&mut self, ctx: &mut Ctx<'_>) -> Option<Vec<u8>> {
        let b = if self.is_reference() {
            if self.cfg.reference != Some(self.me) {
                // Election: stay silent until the floor has been quiet
                // for ROOT_TIMEOUT rounds, then claim the reference
                // role (lowest id wins on collision, see on_beacon).
                self.silent += 1;
                if self.silent <= ROOT_TIMEOUT {
                    return None;
                }
            }
            self.my_seq += 1;
            Beacon {
                root: self.me,
                seq: self.my_seq,
                depth: 0,
                global_us: ctx.local_time().as_micros(),
            }
        } else {
            self.silent += 1;
            if self.cfg.reference.is_none() && self.silent > ROOT_TIMEOUT {
                // Reference lost: fall back to candidacy and re-elect.
                let me = self.me;
                self.start(me);
                return None;
            }
            let est = self.clock.estimate()?;
            Beacon {
                root: self.root,
                seq: self.highest_seq,
                depth: self.depth,
                global_us: est.global(ctx.local_time()).as_micros(),
            }
        };
        ctx.emit(EventKind::SyncBeacon {
            root: b.root,
            seq: b.seq,
            hops: b.depth,
        });
        Some(encode_beacon(&b))
    }

    /// Processes a received beacon whose on-air radio payload was
    /// `radio_len` bytes (for MAC-layer timestamp correction: the
    /// sender stamped transmission *start*, the receiver sees the frame
    /// at transmission *end*, one airtime later). Returns `true` if the
    /// beacon was accepted as a new sync sample.
    ///
    /// A beacon whose global time does not fit the estimator's `i64`
    /// microseconds (past 2^63 µs, ~292,000 years) can only be forged or
    /// corrupt: it is a `bad_input` event and changes no state.
    pub fn on_beacon(&mut self, ctx: &mut Ctx<'_>, payload: &[u8], radio_len: usize) -> bool {
        let Some(b) = decode_beacon(payload) else {
            return false;
        };
        if i64::try_from(b.global_us).is_err() {
            ctx.emit(EventKind::BadInput { msg: "ftsp_beacon" });
            return false;
        }
        if b.root.0 > self.root.0 {
            // Worse (higher-id) reference: ignore; our flood will
            // eventually reach and demote it.
            return false;
        }
        if b.root == self.me {
            // Our own flood echoed back.
            return false;
        }
        if b.root.0 < self.root.0 {
            // Better reference: adopt it and restart estimation.
            self.root = b.root;
            self.highest_seq = 0;
            self.est.clear();
            self.clock.clear();
        } else if b.seq <= self.highest_seq {
            // Already sampled this flood round (or stale).
            return false;
        }
        self.silent = 0;
        self.highest_seq = b.seq;
        self.depth = b.depth.saturating_add(1);
        // MAC-layer timestamp: local time at the sender's tx start.
        let airtime = ctx.radio().airtime(radio_len);
        let rx_local = ctx.local_time();
        let tx_local =
            SimTime::from_micros(rx_local.as_micros().saturating_sub(airtime.as_micros()));
        self.est
            .add_sample(tx_local, SimTime::from_micros(b.global_us));
        if let Some(e) = self.est.estimate() {
            self.clock.set(e);
            ctx.emit(EventKind::OffsetEstimate {
                offset_us: e.offset_us(tx_local),
                skew_ppm: e.skew_ppm(),
            });
        }
        true
    }

    /// Crash handler: volatile sync state is lost; the oscillator (in
    /// the simulator's kernel) keeps drifting through the reboot.
    pub fn crashed(&mut self) {
        let me = self.me;
        self.my_seq = 0;
        self.start(me);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beacon_codec_round_trips() {
        let b = Beacon {
            root: NodeId(7),
            seq: 0xDEAD_BEEF,
            depth: 13,
            global_us: u64::MAX - 42,
        };
        let enc = encode_beacon(&b);
        assert_eq!(enc.len(), BEACON_LEN);
        assert_eq!(decode_beacon(&enc), Some(b));
        assert_eq!(decode_beacon(&enc[..16]), None);
        let mut long = enc.clone();
        long.push(0);
        assert_eq!(decode_beacon(&long), None);
    }
}
