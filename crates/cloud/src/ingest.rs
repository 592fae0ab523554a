//! The northbound ingest pipeline: per-tenant bounded queues, a sharded
//! batch drain, explicit backpressure.
//!
//! # Architecture
//!
//! ```text
//!   uplinks ──► front door ──► tenant queues (bounded) ──► drain tick
//!              (auth + shed)        shard 0: t0 t2 …       shard by shard
//!                                   shard 1: t1 t3 …
//! ```
//!
//! The *front door* ([`IngestPipeline::offer`]) authenticates each
//! message against the [`DeviceRegistry`], then pushes it onto the
//! owning tenant's capped queue. Everything runs on the caller's thread.
//! A full queue triggers the tenant's [`ShedPolicy`] — reject the
//! arrival or evict the oldest — and either way the shed is counted
//! and (when tracing) emitted as a `CloudShed` event. Nothing ever
//! blocks and no queue grows past its cap: backpressure is explicit,
//! observable, and bounded-memory by construction.
//!
//! *Drain* ([`IngestPipeline::drain_until`]) advances virtual time in
//! fixed ticks; the front door first runs the ticks due before each
//! arrival, so a caller only offers. Each tick, every shard drains up
//! to `drain_batch` messages per queue, in shard order. Delivery
//! latency is measured in **virtual time** (drain-tick instant minus
//! arrival instant), so the numbers a run reports are a pure function
//! of workload and configuration, whatever `--jobs` value runs above
//! them. Wall-clock throughput is measured by callers and reported
//! separately as informational timing.

use crate::registry::DeviceRegistry;
use crate::stream::{encode_uplink, StreamAttachment, StreamConfig};
use crate::tenant::{Isolation, ShedPolicy, TenantId};
use iiot_sim::obs::{Event, EventKind, Histogram, Recorder, SpanId};
use iiot_sim::{NodeId, SimDuration, SimTime};
use iiot_stream::{EventLog, WindowAggregator, WindowKey, WindowResult};
use std::collections::{BTreeMap, VecDeque};

/// One northbound uplink message, as the cloud's front door sees it.
#[derive(Clone, Copy, Debug)]
pub struct UplinkMsg {
    /// The claiming tenant.
    pub tenant: TenantId,
    /// Device index inside the tenant's namespace.
    pub device: u32,
    /// Ingest credential (see [`DeviceRegistry::token`]).
    pub token: u64,
    /// Telemetry value.
    pub value: f64,
    /// Arrival instant (virtual time).
    pub t: SimTime,
}

/// Virtual-time length of one drain tick.
pub const TICK: SimDuration = SimDuration::from_millis(10);

/// Ingest pipeline configuration.
#[derive(Clone, Copy, Debug)]
pub struct IngestConfig {
    /// Number of drain shards (tenant `i` lives on shard `i % shards`).
    pub shards: usize,
    /// Bounded capacity of each tenant queue, in messages.
    pub queue_cap: usize,
    /// Messages drained per queue per tick.
    pub drain_batch: usize,
    /// What to do when a queue is full.
    pub policy: ShedPolicy,
    /// Queue-per-tenant or shared-per-shard (E16's fairness control).
    pub isolation: Isolation,
    /// Ignored. It used to pick a thread-per-shard drain with, by
    /// contract, the same statistics as the serial one, which is now the
    /// only one. The name stays because the frozen
    /// `benchmark/tests/alloc_repeat.rs` writes it in a struct literal;
    /// delete it together with that line.
    pub threaded: bool,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            shards: 4,
            queue_cap: 1024,
            drain_batch: 256,
            policy: ShedPolicy::RejectNew,
            isolation: Isolation::PerTenant,
            threaded: false,
        }
    }
}

/// Per-tenant ingest statistics, all in virtual time.
#[derive(Clone, Debug, Default)]
pub struct TenantStats {
    /// Messages presented to the front door.
    pub offered: u64,
    /// Messages admitted to a queue.
    pub accepted: u64,
    /// Messages shed for failing the credential check.
    pub shed_auth: u64,
    /// Messages shed by per-tenant admission control before reaching
    /// any queue (see [`crate::stream::StreamConfig::admission`]).
    pub shed_ratelimit: u64,
    /// Messages shed to backpressure (either policy).
    pub shed_full: u64,
    /// Messages delivered by the drain.
    pub drained: u64,
    /// Highest queue depth observed after an enqueue.
    pub max_depth: u32,
    /// Queue latency (arrival → drain), microseconds of virtual time.
    pub latency_us: Histogram,
}

impl TenantStats {
    /// Total messages shed, any cause.
    pub fn shed(&self) -> u64 {
        self.shed_auth + self.shed_ratelimit + self.shed_full
    }
}

/// One tenant's queue: the front door pushes at the back and never past
/// the pipeline's cap, the drain pops from the front.
struct TenantQueue {
    tenant: TenantId,
    buf: VecDeque<UplinkMsg>,
}

/// The multi-tenant ingest pipeline; see the [module docs](self).
pub struct IngestPipeline {
    registry: DeviceRegistry,
    config: IngestConfig,
    /// `shards[s]` owns the queues of every tenant with `shard() == s`.
    shards: Vec<Vec<TenantQueue>>,
    stats: BTreeMap<TenantId, TenantStats>,
    /// Optional structured-event recorder (see
    /// [`iiot_sim::obs::scope_capture`]); fed only from the
    /// single-threaded front door, so event order is deterministic.
    recorder: Option<Box<dyn Recorder>>,
    /// Stream-plane attachment: write-ahead log, admission control,
    /// aggregation windows (all optional; see [`StreamConfig`]).
    pub(crate) stream: StreamAttachment,
    now: SimTime,
}

impl IngestPipeline {
    /// Builds a pipeline over `registry`: one bounded queue per tenant
    /// (or per shard under [`Isolation::Shared`]), assigned to shards
    /// statically.
    pub fn new(registry: DeviceRegistry, config: IngestConfig) -> Self {
        let shards_n = config.shards.max(1);
        let mut shards: Vec<Vec<TenantQueue>> = (0..shards_n).map(|_| Vec::new()).collect();
        let queue = |tenant| TenantQueue {
            tenant,
            buf: VecDeque::with_capacity(config.queue_cap.max(1)),
        };
        match config.isolation {
            Isolation::PerTenant => {
                for tenant in registry.tenants() {
                    shards[tenant.shard(shards_n)].push(queue(tenant));
                }
            }
            Isolation::Shared => {
                // One queue per shard; every tenant mapping there
                // shares it. Keyed under the shard's first tenant.
                for (s, shard) in shards.iter_mut().enumerate() {
                    let mut tenants = registry.tenants().filter(|t| t.shard(shards_n) == s);
                    if let Some(first) = tenants.next() {
                        shard.push(queue(first));
                    }
                }
            }
        }
        let stats = registry
            .tenants()
            .map(|t| (t, TenantStats::default()))
            .collect();
        IngestPipeline {
            registry,
            config,
            shards,
            stats,
            recorder: None,
            stream: StreamAttachment::default(),
            now: SimTime::ZERO,
        }
    }

    /// Attaches the stream plane (write-ahead log, admission control,
    /// aggregation windows — whichever `config` enables). Replaces any
    /// previous attachment; attach before offering traffic.
    pub fn attach_stream(&mut self, config: StreamConfig) {
        self.stream = StreamAttachment::build(&config);
    }

    /// The write-ahead event log, when one is attached.
    pub fn wal(&self) -> Option<&EventLog> {
        self.stream.wal.as_ref()
    }

    /// The window aggregator, when one is attached.
    pub fn windows(&self) -> Option<&WindowAggregator> {
        self.stream.windows.as_ref()
    }

    /// Windows closed so far, in watermark order (then `(start, key)`
    /// within one watermark advance).
    pub fn closed_windows(&self) -> &[WindowResult] {
        &self.stream.closed
    }

    /// The registry the pipeline authenticates against.
    pub fn registry(&self) -> &DeviceRegistry {
        &self.registry
    }

    /// [`DeviceRegistry::register_fleet`] on the pipeline's registry:
    /// provisions devices while traffic flows.
    pub fn register_fleet(&mut self, tenant: TenantId, n: u32) -> u32 {
        self.registry.register_fleet(tenant, n)
    }

    /// The pipeline's configuration.
    pub fn config(&self) -> &IngestConfig {
        &self.config
    }

    /// Current virtual time (advanced by [`drain_until`](Self::drain_until)).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Installs a structured-event recorder. Pass the result of
    /// [`iiot_sim::obs::scope_capture`] to land `CloudIngest` /
    /// `CloudShed` events, and whatever is [`record`](Self::record)ed
    /// beside them, in the global trace sink under the calling trial's
    /// scope.
    pub fn set_recorder(&mut self, r: Option<Box<dyn Recorder>>) {
        self.recorder = r;
    }

    /// Takes the recorder back (dropping a scope capture flushes it).
    pub fn take_recorder(&mut self) -> Option<Box<dyn Recorder>> {
        self.recorder.take()
    }

    /// Records `kind` at `t`, from `tenant`'s drain shard, when a
    /// recorder is installed: the pipeline's own events, and those of
    /// the tier that drives it (e.g. its downlink commands' outcomes).
    pub fn record(&mut self, t: SimTime, tenant: TenantId, kind: EventKind) {
        let shard = tenant.shard(self.shards.len());
        if let Some(r) = self.recorder.as_mut() {
            r.record(&Event {
                t,
                node: NodeId(shard as u32),
                span: SpanId::NONE,
                kind,
            });
        }
    }

    fn emit(&mut self, tenant: TenantId, kind: EventKind) {
        self.record(self.now, tenant, kind);
    }

    /// Which queue serves `tenant` under the configured isolation.
    fn queue_index(&self, tenant: TenantId) -> (usize, usize) {
        let s = tenant.shard(self.shards.len());
        match self.config.isolation {
            Isolation::PerTenant => {
                let i = self.shards[s]
                    .iter()
                    .position(|q| q.tenant == tenant)
                    .expect("tenant registered after pipeline construction");
                (s, i)
            }
            Isolation::Shared => (s, 0),
        }
    }

    /// The front door: log write-ahead, admit, authenticate, enqueue,
    /// shed on backpressure. Returns `true` when the message was
    /// admitted to a queue.
    ///
    /// When a write-ahead log is attached, the append happens **first**
    /// — before admission control, auth and enqueueing — so the log
    /// captures the complete offer sequence and
    /// [`replay`](crate::stream::replay) reproduces every downstream
    /// decision exactly. Admission control, when attached, runs ahead
    /// of authentication and the queues: a rate-limited message is shed
    /// at the door (`cloud_ratelimit`), untouched by any buffer.
    ///
    /// Before its front door, `offer` runs every drain tick due up to
    /// `msg.t`, exactly as [`drain_until`](Self::drain_until)`(msg.t)`
    /// would, so the drain side keeps pace with arrivals that come in
    /// time order.
    ///
    /// `offer` never blocks; a full queue invokes the configured
    /// [`ShedPolicy`] instead. Must be called from one thread (the
    /// load generator) — determinism of both statistics and emitted
    /// events depends on arrival order.
    pub fn offer(&mut self, msg: UplinkMsg) -> bool {
        self.drain_until(msg.t);
        let wal = self.stream.wal.as_mut();
        let sealed = wal.and_then(|wal| wal.append(&encode_uplink(&msg)).sealed);
        self.front_door(msg, sealed)
    }

    /// `offer` past its drain ticks and its log append, whose seal (if
    /// any) it emits first; [`replay`](crate::stream::replay) enters
    /// here with the log it recovered.
    pub(crate) fn front_door(&mut self, msg: UplinkMsg, sealed: Option<(u32, u32)>) -> bool {
        let tenant = msg.tenant;
        if let Some((segment, records)) = sealed {
            self.emit(tenant, EventKind::StreamSeal { segment, records });
        }
        self.advance_windows();
        if let Some(st) = self.stats.get_mut(&tenant) {
            st.offered += 1;
        } else {
            // Unknown tenant: count nothing per-tenant, shed below.
        }
        let now = self.now;
        let admitted = match self.stream.admission.as_mut() {
            Some(ac) => ac.admit(tenant.0, now),
            None => true,
        };
        if !admitted {
            if let Some(st) = self.stats.get_mut(&tenant) {
                st.shed_ratelimit += 1;
            }
            self.emit(
                tenant,
                EventKind::CloudRateLimit {
                    tenant: tenant.0 as u32,
                },
            );
            return false;
        }
        if self
            .registry
            .authenticate(tenant, msg.device, msg.token)
            .is_err()
        {
            self.shed(tenant, "auth", |st| &mut st.shed_auth);
            return false;
        }
        let (s, i) = self.queue_index(tenant);
        // A cap of 0 still buffers one message, as it always has.
        let cap = self.config.queue_cap.max(1);
        let q = &mut self.shards[s][i].buf;
        if q.len() >= cap {
            match self.config.policy {
                ShedPolicy::RejectNew => {
                    self.shed(tenant, "queue_full", |st| &mut st.shed_full);
                    return false;
                }
                ShedPolicy::DropOldest => {
                    // Evict the head to admit the tail. The evicted
                    // message's tenant eats the shed (under shared
                    // isolation that may be a different tenant —
                    // exactly the cross-tenant damage E16 measures).
                    let victim = q.pop_front().map_or(tenant, |v| v.tenant);
                    self.shed(victim, "drop_oldest", |st| &mut st.shed_full);
                }
            }
        }
        let q = &mut self.shards[s][i].buf;
        q.push_back(msg);
        let depth = q.len() as u32;
        let st = self
            .stats
            .get_mut(&tenant)
            .expect("authenticated tenant has stats");
        st.accepted += 1;
        st.max_depth = st.max_depth.max(depth);
        self.emit(
            tenant,
            EventKind::CloudIngest {
                tenant: tenant.0 as u32,
                depth,
            },
        );
        self.observe_window(&msg);
        true
    }

    /// Counts one message shed for `cause` against `tenant` (a tenant
    /// the registry does not know has no counters) and emits its
    /// `CloudShed` from the tenant's shard.
    fn shed(
        &mut self,
        tenant: TenantId,
        cause: &'static str,
        counter: fn(&mut TenantStats) -> &mut u64,
    ) {
        if let Some(st) = self.stats.get_mut(&tenant) {
            *counter(st) += 1;
        }
        self.emit(
            tenant,
            EventKind::CloudShed {
                tenant: tenant.0 as u32,
                cause,
            },
        );
    }

    /// Advances the window watermark to the current virtual instant,
    /// emitting a `stream_window` event per closed window and retaining
    /// the results (see [`closed_windows`](Self::closed_windows)).
    fn advance_windows(&mut self) {
        let now = self.now;
        let Some(w) = self.stream.windows.as_mut() else {
            return;
        };
        let closed = w.advance_watermark(now);
        self.retire_windows(closed);
    }

    /// Attributes an accepted uplink to its aggregation windows, keyed
    /// tenant × device, at the uplink's own (event) timestamp.
    fn observe_window(&mut self, msg: &UplinkMsg) {
        if let Some(w) = self.stream.windows.as_mut() {
            let key = WindowKey {
                tenant: msg.tenant.0,
                metric: msg.device,
            };
            w.observe(key, msg.value, msg.t);
        }
    }

    /// Closes every still-open window (end of run). Call after
    /// [`drain_remaining`](Self::drain_remaining); the replay helper
    /// does the same, so live and replayed window sets match exactly.
    pub fn flush_windows(&mut self) {
        let Some(w) = self.stream.windows.as_mut() else {
            return;
        };
        let closed = w.flush();
        self.retire_windows(closed);
    }

    fn retire_windows(&mut self, closed: Vec<WindowResult>) {
        for r in &closed {
            self.emit(
                TenantId(r.key.tenant),
                EventKind::StreamWindow {
                    tenant: r.key.tenant as u32,
                    metric: r.key.metric,
                    count: r.count.min(u32::MAX as u64) as u32,
                },
            );
        }
        self.stream.closed.extend(closed);
    }

    /// Runs every drain tick scheduled up to virtual instant `until`.
    /// Ticks fire at fixed boundaries (`k · TICK`); at each, every
    /// shard drains up to `drain_batch` messages per queue and records
    /// their queue latency at the boundary instant. [`offer`](Self::offer)
    /// calls it with each arrival's timestamp; call it directly to
    /// advance the drain side without an arrival.
    ///
    /// An idle tick changes nothing but [`now`](Self::now), so ticking
    /// stops once every queue is empty: a far-future `until` costs
    /// nothing more than a near one. Tick instants saturate at the end
    /// of representable time.
    pub fn drain_until(&mut self, until: SimTime) {
        self.tick_through(until.as_micros());
        self.now = self.now.max(until);
    }

    /// Runs the drain ticks after [`now`](Self::now) at instants up to
    /// `until` µs, stopping at the first tick that leaves every queue
    /// empty.
    fn tick_through(&mut self, until: u64) {
        let tick = TICK.as_micros();
        let mut next = (self.now.as_micros() / tick)
            .saturating_add(1)
            .saturating_mul(tick);
        // Compare first: an arrival with no tick due pays no queue sum.
        let mut busy = next <= until && self.queued() > 0;
        while busy && next <= until {
            let t = SimTime::from_micros(next);
            self.now = t;
            busy = self.drain_tick(t);
            next = next.saturating_add(tick);
        }
    }

    /// One drain tick at instant `t`: up to `drain_batch` messages per
    /// queue, shards and queues in index order. Returns whether any
    /// queue still holds messages.
    fn drain_tick(&mut self, t: SimTime) -> bool {
        let mut busy = false;
        for q in self.shards.iter_mut().flatten() {
            for _ in 0..self.config.drain_batch {
                let Some(msg) = q.buf.pop_front() else { break };
                // Latency is attributed to the drained *message's*
                // tenant — under shared isolation a queue serves several
                // tenants, and the quiet ones must see the queueing
                // delay the noisy one inflicts.
                let st = self.stats.entry(msg.tenant).or_default();
                st.drained += 1;
                st.latency_us
                    .observe(t.as_micros().saturating_sub(msg.t.as_micros()) as f64);
            }
            busy |= !q.buf.is_empty();
        }
        busy
    }

    /// Drains everything still queued, ticking forward from the
    /// current instant until every queue is empty.
    pub fn drain_remaining(&mut self) {
        self.tick_through(u64::MAX);
    }

    /// Per-tenant statistics, in tenant-id order.
    pub fn stats(&self) -> impl Iterator<Item = (TenantId, &TenantStats)> + '_ {
        self.stats.iter().map(|(t, s)| (*t, s))
    }

    /// One tenant's statistics.
    pub fn tenant_stats(&self, tenant: TenantId) -> Option<&TenantStats> {
        self.stats.get(&tenant)
    }

    /// Totals across tenants: (offered, accepted, shed, drained).
    pub fn totals(&self) -> (u64, u64, u64, u64) {
        self.stats.values().fold((0, 0, 0, 0), |(o, a, s, d), st| {
            (
                o + st.offered,
                a + st.accepted,
                s + st.shed(),
                d + st.drained,
            )
        })
    }

    /// Messages currently queued across all shards.
    pub fn queued(&self) -> usize {
        self.shards.iter().flatten().map(|q| q.buf.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iiot_security::Key;

    fn pipeline(config: IngestConfig) -> IngestPipeline {
        let mut reg = DeviceRegistry::new();
        for name in ["a", "b", "c", "d"] {
            let t = reg.create_tenant(name, Key([name.as_bytes()[0]; 16]));
            reg.register_fleet(t, 50);
        }
        IngestPipeline::new(reg, config)
    }

    fn msg(p: &IngestPipeline, tenant: u16, device: u32, t_us: u64) -> UplinkMsg {
        let tenant = TenantId(tenant);
        UplinkMsg {
            tenant,
            device,
            token: p.registry().token(tenant, device).unwrap_or(0),
            value: 1.0,
            t: SimTime::from_micros(t_us),
        }
    }

    #[test]
    fn bounded_queues_never_exceed_cap() {
        let mut p = pipeline(IngestConfig {
            queue_cap: 8,
            policy: ShedPolicy::RejectNew,
            ..IngestConfig::default()
        });
        for i in 0..100 {
            let m = msg(&p, 0, i % 50, i as u64);
            p.offer(m);
        }
        let st = p.tenant_stats(TenantId(0)).expect("stats");
        assert_eq!(st.accepted, 8);
        assert_eq!(st.shed_full, 92);
        assert!(st.max_depth as usize <= 8, "depth {} > cap 8", st.max_depth);
        assert_eq!(p.queued(), 8);
    }

    #[test]
    fn drop_oldest_keeps_cap_and_sheds_the_head() {
        let mut p = pipeline(IngestConfig {
            queue_cap: 4,
            drain_batch: 64,
            policy: ShedPolicy::DropOldest,
            ..IngestConfig::default()
        });
        for i in 0..10 {
            let m = msg(&p, 0, i, 1000 + i as u64);
            assert!(p.offer(m), "drop-oldest always admits the arrival");
        }
        let st = p.tenant_stats(TenantId(0)).expect("stats");
        assert_eq!(st.accepted, 10);
        assert_eq!(st.shed_full, 6);
        assert!(st.max_depth <= 4);
        // The survivors are the 4 newest arrivals.
        p.drain_remaining();
        let st = p.tenant_stats(TenantId(0)).expect("stats");
        assert_eq!(st.drained, 4);
    }

    #[test]
    fn bad_credentials_shed_at_the_front_door() {
        let mut p = pipeline(IngestConfig::default());
        let mut m = msg(&p, 1, 3, 5);
        m.token ^= 0xdead;
        assert!(!p.offer(m));
        let st = p.tenant_stats(TenantId(1)).expect("stats");
        assert_eq!((st.offered, st.shed_auth, st.accepted), (1, 1, 0));
    }

    #[test]
    fn latency_is_virtual_time_from_arrival_to_drain_tick() {
        let mut p = pipeline(IngestConfig::default());
        let m = msg(&p, 0, 0, 0);
        p.offer(m);
        p.drain_until(SimTime::from_millis(10));
        let st = p.tenant_stats(TenantId(0)).expect("stats");
        assert_eq!(st.drained, 1);
        assert!((st.latency_us.mean() - 10_000.0).abs() < 1e-9);
    }

    #[test]
    fn drain_until_a_far_future_instant_stops_ticking_once_idle() {
        let far = SimTime::from_micros(1 << 62);
        let mut p = pipeline(IngestConfig {
            drain_batch: 2,
            ..IngestConfig::default()
        });
        for device in 0..5 {
            let m = msg(&p, 0, device, 0);
            p.offer(m);
        }
        // Three busy ticks drain the queue; the ~4.6e14 idle ones that
        // would follow change nothing but the clock.
        p.drain_until(far);
        assert_eq!(p.now(), far);
        assert_eq!(p.queued(), 0);
        let st = p.tenant_stats(TenantId(0)).expect("stats");
        assert_eq!(st.drained, 5);
        assert!((st.latency_us.mean() - 18_000.0).abs() < 1e-9);

        // At the end of representable time the tick instant saturates.
        let last = SimTime::from_micros(u64::MAX);
        let m = msg(&p, 1, 0, u64::MAX - 1);
        p.offer(m);
        p.drain_until(last);
        assert_eq!((p.now(), p.queued()), (last, 0));
        let m = msg(&p, 1, 1, u64::MAX);
        p.offer(m);
        p.drain_remaining();
        assert_eq!((p.now(), p.queued()), (last, 0));
        assert_eq!(p.tenant_stats(TenantId(1)).expect("stats").drained, 2);
    }

    #[test]
    fn admission_control_sheds_at_the_door_before_any_queue() {
        use iiot_stream::RateLimit;
        let mut p = pipeline(IngestConfig {
            queue_cap: 8,
            ..IngestConfig::default()
        });
        p.attach_stream(StreamConfig::default().with_admission(RateLimit::per_sec(1, 2)));
        for i in 0..10 {
            let m = msg(&p, 0, i, 0);
            p.offer(m);
        }
        let st = p.tenant_stats(TenantId(0)).expect("stats");
        assert_eq!(st.accepted, 2, "burst of 2 admitted at t=0");
        assert_eq!(st.shed_ratelimit, 8);
        assert_eq!(
            st.shed_full, 0,
            "rate-limited messages never reached the queue"
        );
        assert_eq!(st.shed(), 8);
        let shed: u64 = p.stats().map(|(_, st)| st.shed_ratelimit).sum();
        assert_eq!(shed, 8, "every tenant's admission sheds are counted once");
        assert_eq!(p.queued(), 2);
    }

    #[test]
    fn windows_aggregate_accepted_uplinks_per_tenant() {
        use iiot_stream::WindowSpec;
        let mut p = pipeline(IngestConfig::default());
        p.attach_stream(
            StreamConfig::default()
                .with_windows(WindowSpec::tumbling(SimDuration::from_millis(10))),
        );
        for i in 0..100u64 {
            let m = msg(&p, (i % 2) as u16, 0, i * 1000);
            p.drain_until(m.t);
            p.offer(m);
        }
        p.drain_remaining();
        p.flush_windows();
        let closed = p.closed_windows();
        let total: u64 = closed.iter().map(|w| w.count).sum();
        assert_eq!(
            total, 100,
            "every accepted uplink lands in exactly one window"
        );
        assert_eq!(closed.len(), 20, "10 windows × 2 tenants");
        assert_eq!(p.windows().expect("attached").late_total(), 0);
    }

    #[test]
    fn shared_isolation_lets_one_tenant_starve_another() {
        // Under shared isolation every tenant on the shard funnels into
        // one queue; a flooding tenant fills it and the quiet tenant's
        // arrivals shed. Per-tenant isolation keeps the quiet tenant
        // clean. This asymmetry is the core of E16's fairness story.
        let run = |isolation| {
            let mut p = pipeline(IngestConfig {
                shards: 1,
                queue_cap: 32,
                isolation,
                ..IngestConfig::default()
            });
            for i in 0..200u64 {
                let m = msg(&p, 0, (i % 50) as u32, i); // noisy
                p.offer(m);
            }
            let m = msg(&p, 1, 0, 300); // quiet, shares shard 0
            p.offer(m);
            p.tenant_stats(TenantId(1)).expect("stats").clone()
        };
        let shared = run(Isolation::Shared);
        assert_eq!(
            shared.accepted, 0,
            "shared queue already full of noisy traffic"
        );
        assert_eq!(shared.shed_full, 1);
        let isolated = run(Isolation::PerTenant);
        assert_eq!(isolated.accepted, 1, "own queue, no interference");
    }
}
