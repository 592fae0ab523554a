//! The per-node ICN engine: Interest/Data exchange over any
//! [`Mac`], a freshness-aware LRU content store, PIT aggregation, and
//! consumer-side signature verification.

use crate::object::{decode_interest, encode_interest, ContentObject, Name, SIG_LEN};
use crate::pit::{Pit, Requester};
use crate::store::ContentStore;
use iiot_mac::{Mac, MacError, SendHandle, Service, Stack};
use iiot_security::{cost, Key, SecLevel};
use iiot_sim::obs::EventKind;
use iiot_sim::{
    Ctx, Dst, Frame, NodeId, Proto, RxInfo, SimDuration, SimTime, Timer, TimerId, TxOutcome,
};
use rand::Rng;
use std::collections::VecDeque;

/// Upper port of Interest packets.
pub const PORT_INTEREST: u8 = 50;
/// Upper port of Data (content-object) packets.
pub const PORT_DATA: u8 = 51;

const TAG_POLL: u64 = 0x220;
const TAG_PUMP: u64 = 0x221;
/// Retry pacing when the MAC queue is full.
pub const PUMP_PERIOD: SimDuration = SimDuration::from_millis(100);

/// The crypto level content-object signatures are priced at: an 8-byte
/// CBC-MAC is the `Mic64` rung of the channel-security ladder, so the
/// two E15 arms compare at equal cryptographic strength.
pub const OBJECT_SEC_LEVEL: SecLevel = SecLevel::Mic64;

/// A consumer's polling plan: re-express an Interest for `name` every
/// `period`, starting `start` after boot.
#[derive(Clone, Debug)]
pub struct PollPlan {
    /// The name to request.
    pub name: Name,
    /// Delay before the first Interest.
    pub start: SimDuration,
    /// Re-expression period (also the loss-recovery retry interval).
    pub period: SimDuration,
    /// `false`: fetch whatever is current (`min_version = 0`, caches
    /// may answer). `true`: long-poll for *updates* — each Interest
    /// asks for `latest verified + 1`, so only genuinely new versions
    /// satisfy it (the pub/sub mode of E15c).
    pub updates: bool,
}

/// Interest lifetime: how long a PIT entry suppresses duplicate
/// upstream fetches before the next request retries.
pub const PIT_TTL: SimDuration = SimDuration::from_secs(4);

/// Configuration of an [`IcnNode`].
#[derive(Clone, Debug)]
pub struct IcnConfig {
    /// Next hop toward the producer; `None` marks the content origin.
    pub upstream: Option<NodeId>,
    /// Content-store capacity in objects; `0` disables caching (the
    /// channel-security arm: an uncacheable copy is the price of
    /// trusting channels instead of objects).
    pub store_cap: usize,
    /// Content-object security: sign at the producer, verify at every
    /// consumer. Mutually exclusive with `link_sec` in the E15 arms,
    /// though the node lets you enable both.
    pub object_sec: bool,
    /// Trust anchor shared by producer and consumers.
    pub key: Key,
    /// Channel-security arm: every frame carries this level's
    /// auxiliary header + MIC bytes and pays per-hop protect/unprotect
    /// CPU, priced with [`iiot_security::cost`].
    pub link_sec: Option<SecLevel>,
    /// Consumer polling plan, if this node consumes.
    pub poll: Option<PollPlan>,
    /// Freshness budget stamped on locally published objects.
    pub freshness: SimDuration,
    /// Stale-replay attacker: pin the first cached copy of each name
    /// and answer *any* Interest with it, ignoring freshness and the
    /// requested minimum version (the E15c threat model).
    pub replay: bool,
}

impl Default for IcnConfig {
    fn default() -> Self {
        IcnConfig {
            upstream: None,
            store_cap: 8,
            object_sec: true,
            key: Key([0xA5; 16]),
            link_sec: None,
            poll: None,
            freshness: SimDuration::from_secs(60),
            replay: false,
        }
    }
}

/// One successful consumer delivery (experiment oracle).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Delivery {
    /// Version accepted.
    pub version: u32,
    /// When it was accepted.
    pub at: SimTime,
    /// Interest-to-Data latency (zero for local cache answers).
    pub latency: SimDuration,
}

/// A named-data node: producer, forwarder-with-cache, and consumer in
/// one state machine, the role picked by [`IcnConfig`]. See the
/// [crate docs](crate) for the protocol walkthrough.
pub struct IcnNode<M: Mac> {
    stack: Stack<M>,
    icn: Icn,
}

/// The service: everything of an [`IcnNode`] but its MAC.
struct Icn {
    cfg: IcnConfig,
    /// Flash: the producer's authoritative objects. Survives `crashed`.
    repo: Vec<ContentObject>,
    // --- volatile (RAM) state below ---
    store: ContentStore,
    pit: Pit,
    /// Outstanding self-Interests: `(name, min_version, since)`.
    pending: Vec<(Name, u32, SimTime)>,
    /// Highest *verified* version seen per name.
    latest: Vec<(Name, u32)>,
    outq: VecDeque<(Dst, u8, Vec<u8>)>,
    poll_timer: TimerId,
    /// When the current poll round nominally fires; jitter is applied
    /// per round relative to this so staggered consumers never drift.
    poll_nominal: SimTime,
    /// Oracle metrics for experiments: kept out of protocol state and
    /// across crashes (they belong to the measurement harness).
    deliveries: Vec<Delivery>,
    rejected_forged: u32,
    rejected_stale: u32,
    /// Security overhead bytes sent and crypto CPU energy spent, µJ.
    sec_bytes: u64,
    crypto_uj: f64,
}

impl<M: Mac> IcnNode<M> {
    /// Creates a node over `mac`.
    pub fn new(mac: M, cfg: IcnConfig) -> Self {
        let store = ContentStore::new(cfg.store_cap);
        let pit = Pit::new(PIT_TTL);
        IcnNode {
            stack: Stack::new(mac),
            icn: Icn {
                cfg,
                repo: Vec::new(),
                store,
                pit,
                pending: Vec::new(),
                latest: Vec::new(),
                outq: VecDeque::new(),
                poll_timer: TimerId::NONE,
                poll_nominal: SimTime::ZERO,
                deliveries: Vec::new(),
                rejected_forged: 0,
                rejected_stale: 0,
                sec_bytes: 0,
                crypto_uj: 0.0,
            },
        }
    }

    /// The node's configuration.
    pub fn config(&self) -> &IcnConfig {
        &self.icn.cfg
    }

    /// The content store (inspection).
    pub fn store(&self) -> &ContentStore {
        &self.icn.store
    }

    /// The pending-interest table (inspection).
    pub fn pit(&self) -> &Pit {
        &self.icn.pit
    }

    /// Successful deliveries at this node, in acceptance order.
    pub fn deliveries(&self) -> &[Delivery] {
        &self.icn.deliveries
    }

    /// Objects rejected at verification: `(forged, stale)`.
    pub fn rejected(&self) -> (u32, u32) {
        (self.icn.rejected_forged, self.icn.rejected_stale)
    }

    /// Security overhead: `(bytes sent, crypto CPU energy in µJ)`.
    pub fn security_cost(&self) -> (u64, f64) {
        (self.icn.sec_bytes, self.icn.crypto_uj)
    }

    /// Highest verified version of `name` this node accepted, if any.
    pub fn latest_version(&self, name: &Name) -> Option<u32> {
        self.icn.latest_version(name)
    }

    /// Version of `name` in the local authoritative repo, if published
    /// here.
    pub fn repo_version(&self, name: &Name) -> Option<u32> {
        self.icn
            .repo
            .iter()
            .find(|o| o.name == *name)
            .map(|o| o.version)
    }

    /// Publishes a new version of `name`: signs it (unless the node
    /// runs channel security), stores it authoritatively, and pushes
    /// it to any requester already waiting in the PIT — the long-poll
    /// half of pub/sub.
    pub fn publish(&mut self, ctx: &mut Ctx<'_>, name: Name, version: u32, payload: Vec<u8>) {
        self.icn
            .publish(self.stack.mac_mut(), ctx, name, version, payload);
    }

    /// Publishes a pre-built object verbatim — the hook experiments
    /// use to model a poisoned publisher signing with the wrong key.
    pub fn publish_object(&mut self, ctx: &mut Ctx<'_>, obj: ContentObject) {
        self.icn.publish_object(self.stack.mac_mut(), ctx, obj);
    }

    /// Expresses an Interest from the local application: answer from
    /// the local repo or cache if possible, else forward upstream.
    /// Re-expressing an outstanding Interest keeps its original issue
    /// time (latency measures first-ask to delivery).
    pub fn express_interest(&mut self, ctx: &mut Ctx<'_>, name: Name, min_version: u32) {
        self.icn
            .express_interest(self.stack.mac_mut(), ctx, name, min_version);
    }
}

impl Icn {
    fn latest_version(&self, name: &Name) -> Option<u32> {
        self.latest.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    fn publish<M: Mac>(
        &mut self,
        mac: &mut M,
        ctx: &mut Ctx<'_>,
        name: Name,
        version: u32,
        payload: Vec<u8>,
    ) {
        let obj = if self.cfg.object_sec {
            let o =
                ContentObject::signed(&self.cfg.key, name, version, self.cfg.freshness, payload);
            self.crypto_uj += cost::cpu_energy_uj(OBJECT_SEC_LEVEL, o.signed_len());
            o
        } else {
            ContentObject::unsigned(name, version, self.cfg.freshness, payload)
        };
        self.publish_object(mac, ctx, obj);
    }

    fn publish_object<M: Mac>(&mut self, mac: &mut M, ctx: &mut Ctx<'_>, obj: ContentObject) {
        match self.repo.iter_mut().find(|o| o.name == obj.name) {
            Some(slot) => *slot = obj.clone(),
            None => self.repo.push(obj.clone()),
        }
        // Push to everyone long-polling for this name.
        for req in self.pit.satisfy(ctx.now(), &obj.name.clone(), obj.version) {
            if let Requester::Node(dst) = req {
                self.answer_node(mac, ctx, dst, obj.clone());
            }
        }
        if self.has_pending(&obj.name) {
            self.try_deliver(ctx, &obj.clone());
        }
    }

    fn express_interest<M: Mac>(
        &mut self,
        mac: &mut M,
        ctx: &mut Ctx<'_>,
        name: Name,
        min_version: u32,
    ) {
        let now = ctx.now();
        match self.pending.iter_mut().find(|(n, _, _)| *n == name) {
            Some(p) => p.1 = min_version,
            None => self.pending.push((name.clone(), min_version, now)),
        }
        if let Some(obj) = self
            .repo
            .iter()
            .find(|o| o.name == name && o.version >= min_version)
        {
            let obj = obj.clone();
            self.try_deliver(ctx, &obj);
            return;
        }
        if let Some(obj) = self.store.lookup(now, &name, min_version) {
            let obj = obj.clone();
            ctx.emit(EventKind::IcnCacheHit {
                name: name.id(),
                version: obj.version,
            });
            self.try_deliver(ctx, &obj);
            return;
        }
        if let Some(up) = self.cfg.upstream {
            // Local Interests always go out (each poll tick doubles as
            // the loss-recovery retry); only *remote* Interests are
            // aggregation-gated through the PIT.
            self.send_interest(mac, ctx, up, &name, min_version);
        }
    }

    fn has_pending(&self, name: &Name) -> bool {
        self.pending.iter().any(|(n, _, _)| n == name)
    }

    fn send_interest<M: Mac>(
        &mut self,
        mac: &mut M,
        ctx: &mut Ctx<'_>,
        up: NodeId,
        name: &Name,
        min_version: u32,
    ) {
        ctx.emit(EventKind::IcnInterest {
            name: name.id(),
            min_version,
        });
        self.enqueue(
            mac,
            ctx,
            Dst::Unicast(up),
            PORT_INTEREST,
            encode_interest(name, min_version),
        );
    }

    fn answer_node<M: Mac>(
        &mut self,
        mac: &mut M,
        ctx: &mut Ctx<'_>,
        dst: NodeId,
        obj: ContentObject,
    ) {
        ctx.emit(EventKind::IcnData {
            name: obj.name.id(),
            version: obj.version,
        });
        if self.cfg.object_sec {
            // The signature is the object arm's only extra airtime.
            self.sec_bytes += SIG_LEN as u64;
        }
        self.enqueue(mac, ctx, Dst::Unicast(dst), PORT_DATA, obj.encode());
    }

    /// Runs the consumer acceptance pipeline on `obj` against this
    /// node's own outstanding Interest, if any: stale check first,
    /// then the content-object signature — the "validate the data, not
    /// the channel" step. Returns whether the object was accepted.
    fn try_deliver(&mut self, ctx: &mut Ctx<'_>, obj: &ContentObject) -> bool {
        let Some(idx) = self.pending.iter().position(|(n, _, _)| *n == obj.name) else {
            return false;
        };
        let (_, min_version, since) = self.pending[idx].clone();
        if obj.version < min_version {
            ctx.emit(EventKind::IcnVerifyFail {
                name: obj.name.id(),
                cause: "stale",
            });
            self.rejected_stale += 1;
            return false;
        }
        if self.cfg.object_sec {
            self.crypto_uj += cost::cpu_energy_uj(OBJECT_SEC_LEVEL, obj.signed_len());
            if !obj.verify(&self.cfg.key) {
                ctx.emit(EventKind::IcnVerifyFail {
                    name: obj.name.id(),
                    cause: "forged",
                });
                self.rejected_forged += 1;
                return false;
            }
        }
        self.pending.remove(idx);
        let now = ctx.now();
        match self.latest.iter_mut().find(|(n, _)| *n == obj.name) {
            Some(slot) => slot.1 = slot.1.max(obj.version),
            None => self.latest.push((obj.name.clone(), obj.version)),
        }
        self.deliveries.push(Delivery {
            version: obj.version,
            at: now,
            latency: now.duration_since(since),
        });
        true
    }

    fn on_interest<M: Mac>(
        &mut self,
        mac: &mut M,
        ctx: &mut Ctx<'_>,
        src: NodeId,
        name: Name,
        min_version: u32,
    ) {
        ctx.emit(EventKind::IcnInterestRx { name: name.id() });
        let now = ctx.now();
        if let Some(obj) = self
            .repo
            .iter()
            .find(|o| o.name == name && o.version >= min_version)
        {
            let obj = obj.clone();
            ctx.emit(EventKind::IcnRepoServe { name: name.id() });
            self.answer_node(mac, ctx, src, obj);
            return;
        }
        if self.cfg.replay {
            // The attack: serve the pinned copy no matter what was
            // asked for, and never let the Interest reach the producer.
            if let Some(obj) = self.store.lookup_any(&name) {
                let obj = obj.clone();
                self.answer_node(mac, ctx, src, obj);
                return;
            }
        }
        if let Some(obj) = self.store.lookup(now, &name, min_version) {
            let obj = obj.clone();
            ctx.emit(EventKind::IcnCacheHit {
                name: name.id(),
                version: obj.version,
            });
            self.answer_node(mac, ctx, src, obj);
            return;
        }
        if self.pit.add(now, &name, min_version, Requester::Node(src)) {
            if let Some(up) = self.cfg.upstream {
                self.send_interest(mac, ctx, up, &name, min_version);
            }
            // Without an upstream this node *is* the origin: the entry
            // waits in the PIT until a matching publish (long-poll).
        }
    }

    fn on_data<M: Mac>(&mut self, mac: &mut M, ctx: &mut Ctx<'_>, obj: ContentObject) {
        let now = ctx.now();
        let accepted_or_no_pending = self.try_deliver(ctx, &obj) || !self.has_pending(&obj.name);
        // Cache the copy: forwarders store without verifying (the
        // consumer is the trust boundary). A consumer that just
        // rejected the object knows it is garbage and skips the cache.
        if accepted_or_no_pending {
            if self.cfg.replay {
                // Pin the first copy: replace nothing.
                if self.store.lookup_any(&obj.name).is_none() {
                    self.store.insert(now, obj.clone());
                }
            } else {
                self.store.insert(now, obj.clone());
            }
        }
        // Fan the data out to every downstream requester it satisfies.
        for req in self.pit.satisfy(now, &obj.name, obj.version) {
            if let Requester::Node(dst) = req {
                self.answer_node(mac, ctx, dst, obj.clone());
            }
        }
    }

    fn enqueue<M: Mac>(
        &mut self,
        mac: &mut M,
        ctx: &mut Ctx<'_>,
        dst: Dst,
        port: u8,
        mut body: Vec<u8>,
    ) {
        if let Some(level) = self.cfg.link_sec {
            // Channel security: the auxiliary header + MIC ride on
            // every frame, and the sender pays the per-hop protect.
            let extra = level.overhead_bytes();
            body.extend(std::iter::repeat_n(0u8, extra));
            self.sec_bytes += extra as u64;
            self.crypto_uj += cost::cpu_energy_uj(level, body.len());
        }
        self.outq.push_back((dst, port, body));
        self.pump(mac, ctx);
    }

    fn pump<M: Mac>(&mut self, mac: &mut M, ctx: &mut Ctx<'_>) {
        while let Some((dst, port, body)) = self.outq.front() {
            let (dst, port, body) = (*dst, *port, body.clone());
            match mac.send(ctx, dst, port, body) {
                Ok(_) => {
                    self.outq.pop_front();
                }
                Err(MacError::QueueFull) => {
                    ctx.set_timer(PUMP_PERIOD, TAG_PUMP);
                    return;
                }
                Err(MacError::TooLarge) => {
                    self.outq.pop_front();
                }
            }
        }
    }

    fn poll_min(&self, plan: &PollPlan) -> u32 {
        if plan.updates {
            self.latest_version(&plan.name).map_or(0, |v| v + 1)
        } else {
            0
        }
    }
}

impl<M: Mac> Service<M> for Icn {
    fn start(&mut self, _mac: &mut M, ctx: &mut Ctx<'_>) {
        if let Some(plan) = &self.cfg.poll {
            self.poll_nominal = ctx.now() + plan.start;
            self.poll_timer = ctx.set_timer(plan.start, TAG_POLL);
        }
    }

    fn delivered(&mut self, mac: &mut M, ctx: &mut Ctx<'_>, src: NodeId, port: u8, payload: &[u8]) {
        if let Some(level) = self.cfg.link_sec {
            // Per-hop unprotect on every received frame.
            self.crypto_uj += cost::cpu_energy_uj(level, payload.len());
        }
        match port {
            PORT_INTEREST => {
                if let Some((name, min)) = decode_interest(payload) {
                    self.on_interest(mac, ctx, src, name, min);
                }
            }
            PORT_DATA => {
                if let Some(obj) = ContentObject::decode(payload) {
                    self.on_data(mac, ctx, obj);
                }
            }
            _ => {}
        }
    }

    /// Any completion frees a MAC queue slot, whoever sent it.
    fn send_done(&mut self, mac: &mut M, ctx: &mut Ctx<'_>, _: SendHandle, _acked: bool) {
        self.pump(mac, ctx);
    }

    fn timer(&mut self, mac: &mut M, ctx: &mut Ctx<'_>, timer: Timer) {
        match timer.tag {
            TAG_POLL if timer.id == self.poll_timer => {
                if let Some(plan) = self.cfg.poll.clone() {
                    let min = self.poll_min(&plan);
                    self.express_interest(mac, ctx, plan.name.clone(), min);
                    // Jitter each round by up to period/8 — capped at
                    // 200 ms — *around the nominal schedule*: fixed-phase
                    // polls over an unslotted MAC would repeat the same
                    // collision pattern forever, starving whichever
                    // consumer drew the bad phase; accumulating jitter
                    // would random-walk staggered consumers into each
                    // other; and uncapped jitter would smear a crowd's
                    // poll slots over their neighbours'.
                    self.poll_nominal += plan.period;
                    let jitter = SimDuration::from_micros(
                        ctx.rng()
                            .gen_range(0..=(plan.period.as_micros() / 8).min(200_000)),
                    );
                    self.poll_timer =
                        ctx.set_timer(self.poll_nominal + jitter - ctx.now(), TAG_POLL);
                }
            }
            TAG_PUMP => self.pump(mac, ctx),
            _ => {}
        }
    }

    fn crashed(&mut self) {
        self.store = ContentStore::new(self.cfg.store_cap);
        self.pit = Pit::new(PIT_TTL);
        self.pending.clear();
        self.latest.clear();
        self.outq.clear();
        self.poll_timer = TimerId::NONE;
        // self.repo survives: published objects are flash. The
        // delivery/rejection oracles survive too — they are harness
        // state, not protocol state.
    }
}

impl<M: Mac> Proto for IcnNode<M> {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        self.stack.start(&mut self.icn, ctx);
    }

    fn timer(&mut self, ctx: &mut Ctx<'_>, timer: Timer) {
        self.stack.timer(&mut self.icn, ctx, timer);
    }

    fn frame(&mut self, ctx: &mut Ctx<'_>, frame: &Frame, info: RxInfo) {
        self.stack.frame(&mut self.icn, ctx, frame, info);
    }

    fn tx_done(&mut self, ctx: &mut Ctx<'_>, outcome: TxOutcome) {
        self.stack.tx_done(&mut self.icn, ctx, outcome);
    }

    fn crashed(&mut self) {
        self.stack.crashed(&mut self.icn);
    }

    fn wiped(&mut self) {
        self.crashed();
        self.icn.repo.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iiot_mac::csma::CsmaMac;
    use iiot_sim::prelude::*;

    fn line_world(n: usize, mk: impl Fn(u32) -> IcnConfig + 'static) -> Sim {
        SimBuilder::new()
            .seed(0x1C9)
            .nodes(Topology::line(n, 20.0), move |id| {
                Box::new(IcnNode::new(CsmaMac::default(), mk(id as u32))) as Box<dyn Proto>
            })
            .build()
    }

    fn consumer_cfg(upstream: u32, updates: bool) -> IcnConfig {
        IcnConfig {
            upstream: Some(NodeId(upstream)),
            poll: Some(PollPlan {
                name: Name::new("/plant/temp"),
                start: SimDuration::from_millis(500),
                period: SimDuration::from_secs(2),
                updates,
            }),
            ..IcnConfig::default()
        }
    }

    #[test]
    fn consumer_fetches_through_forwarder_and_second_fetch_hits_cache() {
        let mut w = line_world(3, |id| match id {
            0 => IcnConfig::default(),
            1 => IcnConfig {
                upstream: Some(NodeId(0)),
                ..IcnConfig::default()
            },
            _ => consumer_cfg(1, false),
        });
        w.with(NodeId(0), |n: &mut IcnNode<CsmaMac>, ctx| {
            n.publish(ctx, Name::new("/plant/temp"), 1, vec![0xAB; 24]);
        });
        w.run(SimDuration::from_secs(5));
        let consumer = w.proto::<IcnNode<CsmaMac>>(NodeId(2));
        assert!(
            !consumer.deliveries().is_empty(),
            "consumer must receive v1"
        );
        assert_eq!(consumer.latest_version(&Name::new("/plant/temp")), Some(1));
        assert_eq!(consumer.rejected(), (0, 0));
        // The forwarder cached the object, so later polls were served
        // without the producer re-sending.
        let hits = w.stats().node_total("icn_cache_hit");
        assert!(hits > 0.0, "repeat polls must hit the forwarder cache");
    }

    #[test]
    fn forged_objects_are_rejected_and_last_good_version_retained() {
        let mut w = line_world(2, |id| match id {
            0 => IcnConfig::default(),
            _ => consumer_cfg(0, true),
        });
        let name = Name::new("/plant/temp");
        let good = name.clone();
        w.with(NodeId(0), |n: &mut IcnNode<CsmaMac>, ctx| {
            n.publish(ctx, good, 1, vec![1; 16]);
        });
        w.run(SimDuration::from_secs(4));
        // The publisher is compromised: v2 arrives signed with the
        // wrong key and every consumer must refuse it.
        let forged = ContentObject::signed(
            &Key([0x66; 16]),
            name.clone(),
            2,
            SimDuration::from_secs(60),
            vec![2; 16],
        );
        w.with(NodeId(0), |n: &mut IcnNode<CsmaMac>, ctx| {
            n.publish_object(ctx, forged);
        });
        w.run(SimDuration::from_secs(6));
        let consumer = w.proto::<IcnNode<CsmaMac>>(NodeId(1));
        assert_eq!(
            consumer.latest_version(&name),
            Some(1),
            "v2 must not be accepted"
        );
        assert!(
            consumer.rejected().0 > 0,
            "forged rejections must be counted"
        );
        assert!(w.stats().node_total("icn_verify_fail") > 0.0);
    }

    #[test]
    fn crash_clears_cache_but_keeps_repo() {
        let mut w = line_world(2, |id| match id {
            0 => IcnConfig::default(),
            _ => consumer_cfg(0, false),
        });
        let name = Name::new("/plant/temp");
        let n2 = name.clone();
        w.with(NodeId(0), |n: &mut IcnNode<CsmaMac>, ctx| {
            n.publish(ctx, n2, 1, vec![1; 16]);
        });
        w.run(SimDuration::from_secs(3));
        w.kill(NodeId(0));
        w.revive(NodeId(0));
        w.run(SimDuration::from_secs(1));
        let producer = w.proto::<IcnNode<CsmaMac>>(NodeId(0));
        assert_eq!(producer.repo_version(&name), Some(1), "repo is flash");
        assert!(producer.store().is_empty(), "cache is RAM");
    }
}
