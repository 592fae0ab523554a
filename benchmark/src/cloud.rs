//! `cloud_stream`: the cloud tier alone, writes beside reads over one
//! log.
//!
//! Device sessions (four tenants, sixteen messages each, one every
//! 1.0-1.2 s) are generated from the seed during set-up. The timed
//! *write* phase pushes them through `IngestPipeline` with the stream
//! plane attached (write-ahead log, admission control at 25 600 msg/s
//! per tenant, 8 s tumbling windows), then drains the queues and flushes
//! the windows. The timed *read* phase recovers that log and replays it
//! through a fresh pipeline. The sim kernel does nothing here; `cloud`,
//! `stream` and `security` (the per-message token check) do everything,
//! and a change that speeds appends at the cost of recovery shows in the
//! same number.
//!
//! Also home of what `plant` shares with it: the tenant registry and the
//! unit costs of the calls buried inside `IngestPipeline::offer`.

use crate::alloc::{AllocCount, Scope};
use crate::report::{fastest, repeat, Outcome};
use crate::stat::median;
use crate::trace::{CallStat, Tracer, NONE};
use iiot_cloud::{
    encode_uplink, metrics, replay, DeviceRegistry, IngestConfig, IngestPipeline, SessionGen,
    SessionPlan, StreamConfig, UplinkMsg,
};
use iiot_security::Key;
use iiot_sim::obs::Histogram;
use iiot_sim::{seed, SimDuration};
use iiot_stream::{
    AdmissionControl, EventLog, LogConfig, RateLimit, WindowAggregator, WindowKey, WindowSpec,
};
use std::hint::black_box;
use std::time::Instant;

/// Tenant accounts in both cloud-facing workloads.
pub const TENANTS: u16 = 4;

/// A registry of [`TENANTS`] tenants with keys derived from `seed` and
/// `fleet[i]` devices under tenant `i`.
pub fn registry(seed_val: u64, fleet: &[u32]) -> DeviceRegistry {
    let mut reg = DeviceRegistry::new();
    for (i, devices) in fleet.iter().enumerate() {
        let mut key = [0u8; 16];
        key[..8].copy_from_slice(&seed::derive(seed_val, i as u64).to_le_bytes());
        key[8..].copy_from_slice(&seed::derive(seed_val ^ 0xA5, i as u64).to_le_bytes());
        let t = reg.create_tenant(&format!("tenant-{i}"), Key(key));
        reg.register_fleet(t, *devices);
    }
    reg
}

/// Host cost of the calls `IngestPipeline::offer` makes into `stream`
/// and `security`, measured by driving one message sequence through each
/// layer's own public function.
pub struct UnitCosts {
    append_ns: f64,
    admit_ns: f64,
    auth_ns: f64,
    observe_ns: f64,
    recover_s: f64,
}

fn ns_per(msgs: &[UplinkMsg], mut f: impl FnMut(&UplinkMsg)) -> f64 {
    let started = Instant::now();
    for m in msgs {
        f(m);
    }
    started.elapsed().as_nanos() as f64 / msgs.len().max(1) as f64
}

/// Measures [`UnitCosts`] over `msgs` under `stream`'s configuration.
pub fn unit_costs(
    msgs: &[UplinkMsg],
    registry: &DeviceRegistry,
    stream: &StreamConfig,
) -> UnitCosts {
    let log_config = stream.log.unwrap_or_default();
    let mut log = EventLog::new(log_config);
    let append_ns = ns_per(msgs, |m| {
        black_box(log.append(&encode_uplink(m)));
    });
    let started = Instant::now();
    let (recovered, _) = EventLog::recover(log.as_bytes(), log_config);
    let recover_s = started.elapsed().as_secs_f64();
    assert_eq!(recovered.records(), log.records());

    let mut admission =
        AdmissionControl::uniform(stream.admission.unwrap_or(RateLimit::per_sec(1, 1)));
    let admit_ns = ns_per(msgs, |m| {
        black_box(admission.admit(m.tenant.0, m.t));
    });
    let auth_ns = ns_per(msgs, |m| {
        black_box(registry.authenticate(m.tenant, m.device, m.token)).ok();
    });
    let mut windows = WindowAggregator::new(
        stream
            .windows
            .unwrap_or(WindowSpec::tumbling(SimDuration::from_secs(1))),
    );
    let observe_ns = ns_per(msgs, |m| {
        black_box(windows.advance_watermark(m.t));
        let key = WindowKey {
            tenant: m.tenant.0,
            metric: m.device,
        };
        windows.observe(key, m.value, m.t);
    });
    UnitCosts {
        append_ns,
        admit_ns,
        auth_ns,
        observe_ns,
        recover_s,
    }
}

impl UnitCosts {
    /// Sets the unit-cost metrics, and `cloud.self_ns_per_msg` as what
    /// is left of `offer_s` per offered message after them.
    pub fn report(&self, out: &mut Outcome, offer_s: f64, offered: u64) {
        out.set("stream.log_append_ns", self.append_ns);
        out.set("stream.admit_ns", self.admit_ns);
        out.set("stream.window_observe_ns", self.observe_ns);
        out.set("stream.recover_s", self.recover_s);
        out.set("security.auth_ns", self.auth_ns);
        let inner = self.append_ns + self.admit_ns + self.auth_ns + self.observe_ns;
        out.set(
            "cloud.self_ns_per_msg",
            offer_s * 1e9 / offered.max(1) as f64 - inner,
        );
    }
}

/// Sizing of `cloud_stream`.
#[derive(Clone, Copy, Debug)]
pub struct CloudSpec {
    /// Sessions (devices) per tenant.
    pub sessions_per_tenant: u32,
}

impl CloudSpec {
    /// 100 000 sessions, or 10 000 for the smoke test.
    pub fn new(quick: bool) -> CloudSpec {
        CloudSpec {
            sessions_per_tenant: if quick { 2_500 } else { 25_000 },
        }
    }

    fn fleet(&self) -> [u32; TENANTS as usize] {
        [self.sessions_per_tenant; TENANTS as usize]
    }
}

const MSGS_PER_SESSION: u32 = 16;

fn plan() -> SessionPlan {
    SessionPlan {
        msgs_per_device: MSGS_PER_SESSION,
        interval: SimDuration::from_millis(1000),
        jitter: SimDuration::from_millis(200),
        noisy: None,
    }
}

fn stream_config() -> StreamConfig {
    StreamConfig::logged(LogConfig::default())
        .with_admission(RateLimit::per_sec(25_600, 1024))
        .with_windows(WindowSpec::tumbling(SimDuration::from_secs(8)))
}

/// The default pipeline with one drain shard per core, at most four.
pub fn ingest_config() -> IngestConfig {
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    IngestConfig {
        shards: cores.min(4),
        ..IngestConfig::default()
    }
}

/// The generated input of one run and the pipeline it goes into.
struct Setup {
    msgs: Vec<UplinkMsg>,
    pipe: IngestPipeline,
    setup_s: f64,
}

fn set_up(
    spec: CloudSpec,
    seed_val: u64,
    config: IngestConfig,
    stream: Option<StreamConfig>,
) -> Setup {
    let started = Instant::now();
    let reg = registry(seed_val, &spec.fleet());
    let mut gen = SessionGen::new(&reg, plan(), seed_val);
    let mut msgs = Vec::with_capacity(gen.total_msgs() as usize);
    while let Some(m) = gen.next_msg(&reg) {
        msgs.push(m);
    }
    let mut pipe = IngestPipeline::new(reg, config);
    if let Some(stream) = stream {
        pipe.attach_stream(stream);
    }
    Setup {
        msgs,
        pipe,
        setup_s: started.elapsed().as_secs_f64(),
    }
}

/// What a pipeline counted: a pure function of the offer sequence and
/// the configuration, so iterations of one seed, traced or not, must agree
/// on all of it.
#[derive(Clone, Debug, PartialEq)]
pub struct PipeCounts {
    /// Messages offered.
    pub offered: u64,
    /// Messages accepted.
    pub accepted: u64,
    drained: u64,
    shed_full: u64,
    shed_ratelimit: u64,
    shed_auth: u64,
    max_depth: u32,
    queue_p99_ms: f64,
    log_bytes: u64,
    segments: u64,
    windows: u64,
    window_obs: u64,
    late: u64,
}

impl PipeCounts {
    /// Reads `pipe`'s counters.
    pub fn of(pipe: &IngestPipeline) -> PipeCounts {
        let (offered, accepted, _, drained) = pipe.totals();
        let mut queue_latency = Histogram::new();
        let mut c = PipeCounts {
            offered,
            accepted,
            drained,
            shed_full: 0,
            shed_ratelimit: 0,
            shed_auth: 0,
            max_depth: 0,
            queue_p99_ms: 0.0,
            log_bytes: pipe.wal().map_or(0, EventLog::len_bytes),
            segments: pipe.wal().map_or(0, |w| w.sealed_segments() as u64),
            windows: pipe.closed_windows().len() as u64,
            window_obs: pipe.closed_windows().iter().map(|w| w.count).sum(),
            late: pipe.windows().map_or(0, WindowAggregator::late_total),
        };
        for (_, st) in pipe.stats() {
            queue_latency.merge(&st.latency_us);
            c.shed_full += st.shed_full;
            c.shed_ratelimit += st.shed_ratelimit;
            c.shed_auth += st.shed_auth;
            c.max_depth = c.max_depth.max(st.max_depth);
        }
        c.queue_p99_ms = queue_latency.quantile(0.99) / 1e3;
        c
    }

    /// Messages shed, any cause.
    pub fn shed(&self) -> u64 {
        self.shed_full + self.shed_ratelimit + self.shed_auth
    }

    /// Sets the `cloud.*` and `stream.*` counts and the queue latency.
    pub fn report(&self, out: &mut Outcome) {
        out.set("e2e.ingest_queue_p99_ms", self.queue_p99_ms);
        out.set("cloud.offered", self.offered as f64);
        out.set("cloud.accepted", self.accepted as f64);
        out.set("cloud.shed_full", self.shed_full as f64);
        out.set("cloud.shed_ratelimit", self.shed_ratelimit as f64);
        out.set("cloud.shed_auth", self.shed_auth as f64);
        out.set("cloud.max_queue_depth", self.max_depth as f64);
        out.set("stream.log_bytes", self.log_bytes as f64);
        out.set("stream.segments_sealed", self.segments as f64);
        out.set("stream.windows_closed", self.windows as f64);
        out.set(
            "stream.obs_per_window",
            self.window_obs as f64 / self.windows.max(1) as f64,
        );
        out.set("stream.late_dropped", self.late as f64);
    }
}

/// One write phase plus one read phase.
pub struct CloudIter {
    write_s: f64,
    read_s: f64,
    /// Virtual seconds the write phase advanced.
    virtual_s: f64,
    counts: PipeCounts,
    /// Log records the read phase replayed.
    records: u64,
    offer: CallStat,
    drain: CallStat,
    allocs: AllocCount,
    tracer: Tracer,
    failures: Vec<String>,
}

/// Runs the write phase over `pipe`, then (when a log is attached) the
/// read phase, and checks the results against each other.
fn iterate(
    spec: CloudSpec,
    seed_val: u64,
    msgs: &[UplinkMsg],
    mut pipe: IngestPipeline,
    traced: bool,
) -> CloudIter {
    // Built before the clock starts: the read phase needs its own
    // registry, and making one is set-up, not replay.
    let replay_registry = registry(seed_val, &spec.fleet());
    let mut tr = Tracer::new(traced);
    let (mut offer, mut drain) = (CallStat::default(), CallStat::default());
    let scope = traced.then(Scope::begin);
    let root = tr.enter("iteration", NONE);

    let started = Instant::now();
    let s = tr.enter("cloud.ingest_loop", root);
    if traced {
        for m in msgs {
            drain.time(|| pipe.drain_until(m.t));
            offer.time(|| pipe.offer(*m));
        }
    } else {
        for m in msgs {
            pipe.drain_until(m.t);
            pipe.offer(*m);
        }
    }
    tr.exit(s);
    let s = tr.enter("cloud.drain_remaining", root);
    drain.time(|| pipe.drain_remaining());
    tr.exit(s);
    let s = tr.enter("cloud.flush_windows", root);
    pipe.flush_windows();
    tr.exit(s);
    let write_s = started.elapsed().as_secs_f64();
    let allocs = scope.map(Scope::finish).unwrap_or_default();

    let started = Instant::now();
    let replayed = pipe.wal().map(|wal| {
        let s = tr.enter("cloud.replay", root);
        let r = replay(
            wal.as_bytes(),
            replay_registry,
            *pipe.config(),
            stream_config(),
            None,
        );
        tr.exit(s);
        r
    });
    let read_s = started.elapsed().as_secs_f64();
    tr.exit(root);

    let counts = PipeCounts::of(&pipe);
    let mut failures = Vec::new();
    if counts.offered != counts.accepted + counts.shed()
        || counts.accepted != counts.drained
        || counts.offered != msgs.len() as u64
    {
        failures.push(format!(
            "cloud_stream: offered = accepted + shed, all accepted drained, does not hold for {} messages: {counts:?}",
            msgs.len()
        ));
    }
    let mut records = 0;
    if let (Some(wal), Some((replayed, report))) = (pipe.wal(), &replayed) {
        records = report.records;
        if counts.window_obs != counts.accepted {
            failures.push(format!(
                "cloud_stream: closed windows hold {} observations but {} messages were accepted",
                counts.window_obs, counts.accepted
            ));
        }
        if report.truncated_bytes != 0
            || metrics::summarize(replayed) != metrics::summarize(&pipe)
            || replayed.closed_windows() != pipe.closed_windows()
        {
            failures.push(
                "cloud_stream: replay summaries and closed windows differ from the live run's"
                    .into(),
            );
        }
        if replayed.wal().map(EventLog::as_bytes) != Some(wal.as_bytes()) {
            failures.push("cloud_stream: the replayed run re-persisted different log bytes".into());
        }
    }
    CloudIter {
        write_s,
        read_s,
        virtual_s: pipe.now().as_secs_f64(),
        counts,
        records,
        offer,
        drain,
        allocs,
        tracer: tr,
        failures,
    }
}

/// Allocation calls of one traced write phase under `config`, and the
/// messages it offered (what `cloud.allocs_per_msg` divides).
pub fn write_phase_allocs(
    spec: CloudSpec,
    seed_val: u64,
    config: IngestConfig,
) -> (AllocCount, u64) {
    let s = set_up(spec, seed_val, config, Some(stream_config()));
    let it = iterate(spec, seed_val, &s.msgs, s.pipe, true);
    (it.allocs, it.counts.offered)
}

fn collect(out: &mut Outcome, iters: &[CloudIter]) {
    let first = &iters[0];
    for f in iters.iter().flat_map(|i| &i.failures) {
        if !out.failures.contains(f) {
            out.fail(f.clone());
        }
    }
    if iters
        .iter()
        .any(|i| (&i.counts, i.records) != (&first.counts, first.records))
    {
        out.fail(
            "cloud_stream: iterations of one seed disagree on their virtual-clock results".into(),
        );
    }
    let c = &first.counts;
    if c.window_obs < 4 * c.windows {
        out.fail(format!(
            "cloud_stream: {} observations in {} windows is fewer than 4 per window (aggregation is not being priced)",
            c.window_obs, c.windows
        ));
    }
    out.attempted = iters.iter().map(|i| i.counts.offered).sum();
    out.failed = iters.iter().map(|i| i.counts.shed()).sum();
}

impl CloudIter {
    fn wall_s(&self) -> f64 {
        self.write_s + self.read_s
    }
}

/// The untraced pass: end-to-end metrics. Set-up (registry, session
/// generation, pipeline construction) runs once per iteration, so its
/// median comes from as many samples as the timings.
pub fn run_e2e(spec: CloudSpec, seed_val: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut one = |_| {
        let s = set_up(spec, seed_val, ingest_config(), Some(stream_config()));
        setups.push(s.setup_s);
        iterate(spec, seed_val, &s.msgs, s.pipe, false)
    };
    one(0); // warm-up, discarded
    let iters = repeat(seconds, 3, one);
    collect(&mut out, &iters);

    let first = &iters[0];
    let c = &first.counts;
    let best = fastest(&iters, CloudIter::wall_s);
    out.set("setup_s", median(&setups[1..]));
    out.set("realtime_factor", first.virtual_s / best.wall_s());
    out.set(
        "delivery_ratio",
        c.accepted as f64 / c.offered.max(1) as f64,
    );
    out.note(format!(
        "cloud_stream: {} sessions, {} messages, {} drain shards, {} iterations, fastest write {:.3} s + read {:.3} s of {:?} ms; \
         {} accepted, {} shed, {:.1} MiB log, {} windows",
        spec.sessions_per_tenant * TENANTS as u32,
        c.offered,
        ingest_config().shards,
        iters.len(),
        best.write_s,
        best.read_s,
        iters.iter().map(|i| (i.wall_s() * 1e3) as u64).collect::<Vec<_>>(),
        c.accepted,
        c.shed(),
        c.log_bytes as f64 / (1024.0 * 1024.0),
        c.windows
    ));
    out
}

/// The traced pass: per-layer metrics.
pub fn run_traced(spec: CloudSpec, seed_val: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let input = set_up(spec, seed_val, ingest_config(), None);
    let msgs = &input.msgs;
    let fresh = |stream: Option<StreamConfig>| {
        let mut pipe = IngestPipeline::new(registry(seed_val, &spec.fleet()), ingest_config());
        if let Some(stream) = stream {
            pipe.attach_stream(stream);
        }
        pipe
    };
    iterate(spec, seed_val, msgs, fresh(Some(stream_config())), false); // warm-up
    let pairs = repeat(seconds * 0.7, 2, |_| {
        (
            iterate(spec, seed_val, msgs, fresh(Some(stream_config())), false),
            iterate(spec, seed_val, msgs, fresh(Some(stream_config())), true),
        )
    });
    let (plain, traced): (Vec<CloudIter>, Vec<CloudIter>) = pairs.into_iter().unzip();
    let bare = iterate(spec, seed_val, msgs, fresh(None), false);
    collect(&mut out, &plain);
    let first = &plain[0];
    if traced.iter().any(|t| t.counts != first.counts) {
        out.fail(
            "cloud_stream: the traced run's virtual-clock results differ from the plain run's"
                .into(),
        );
    }

    let best = fastest(&traced, CloudIter::wall_s);
    let offered = first.counts.offered;
    let offer_s = best.offer.secs();
    let write_s = fastest(&plain, |i| i.write_s).write_s;
    out.set("e2e.ingest_msgs_per_s", offered as f64 / write_s);
    out.set(
        "e2e.replay_msgs_per_s",
        first.records as f64 / fastest(&plain, |i| i.read_s).read_s,
    );
    first.counts.report(&mut out);
    out.set("cloud.offer_s", offer_s);
    out.set("cloud.drain_s", best.drain.secs());
    out.set(
        "cloud.allocs_per_msg",
        best.allocs.allocs as f64 / offered.max(1) as f64,
    );
    unit_costs(msgs, input.pipe.registry(), &stream_config()).report(&mut out, offer_s, offered);
    out.set("stream.log_tax_x", write_s / bare.write_s);
    out.set_trace(
        fastest(&plain, CloudIter::wall_s).wall_s(),
        best.wall_s(),
        traced.len(),
        &best.tracer,
    );
    out.aggregates.push(("cloud.offer".into(), best.offer));
    out.aggregates
        .push(("cloud.drain_until".into(), best.drain));
    out
}
