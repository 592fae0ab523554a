//! `plant`: the whole of Fig. 1 in one run.
//!
//! One serial `Sim` holds a battery tier (line cells: 13 nodes 20 m
//! apart, DODAG collection over low-power listening, 256 ms wake
//! interval) and a mains tier (hall cells: 12x12 grids, DODAG over
//! always-on CSMA). Cells are far enough apart not to hear each other.
//! Every non-root node reports 10 bytes every 30 s from t = 60 s. The run
//! advances in 1 s lockstep ticks; after each tick every cell's border
//! router hands its newly collected readings to its `Gateway` through a
//! benchmark-local adapter, the gateways' `CloudUplink`s are drained
//! into the `IngestPipeline` (write-ahead log, admission control,
//! tumbling windows), accepted readings update the `TwinStore`, and
//! every 10 s the cloud writes one set-point per gateway through
//! `CommandRouter` and the gateway's CoAP server.
//!
//! The field layers (kernel, medium, MAC, routing) dominate the host
//! time and the cloud layers take almost none of it, which is the point:
//! a cloud optimisation must not move this workload, a kernel, MAC or
//! routing one must.

use crate::alloc::{AllocCount, Scope};
use crate::cloud::{registry, unit_costs, PipeCounts, TENANTS};
use crate::field::SimDigest;
use crate::report::{fastest, repeat, setup_samples, Outcome};
use crate::shim::{accumulate, total, TimedMac, TimedProto, MAC_CALLS, PROTO_CALLS};
use crate::stat::{median, percentile, top_percentile};
use crate::trace::{CallStat, Tracer, NONE};
use iiot_cloud::{
    metrics, replay, Command, CommandRouter, IngestConfig, IngestPipeline, StreamConfig, TenantId,
    TwinStore, UplinkMsg,
};
use iiot_crdt::ReplicaId;
use iiot_gateway::{
    Adapter, CloudUplink, Gateway, Measurement, PointInfo, Quality, Unit, WriteError,
};
use iiot_mac::csma::CsmaMac;
use iiot_mac::lpl::{LplConfig, LplMac};
use iiot_mac::Mac;
use iiot_routing::{Collected, DodagConfig, DodagNode, Traffic};
use iiot_sim::obs::CountingRecorder;
use iiot_sim::prelude::*;
use iiot_stream::{LogConfig, RateLimit, WindowSpec};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};
use std::time::Instant;

const LINE_LEN: usize = 13;
const HALL_SIDE: usize = 12;
const HALL_LEN: usize = HALL_SIDE * HALL_SIDE;
/// The hall's border router sits mid-floor.
const HALL_ROOT: usize = HALL_SIDE * (HALL_SIDE / 2) + HALL_SIDE / 2;
const SPACING_M: f64 = 20.0;
const LINE_PITCH_M: f64 = 200.0;
const HALL_PITCH_M: f64 = 820.0;
const HALL_X0_M: f64 = 1000.0;
const TICK: SimDuration = SimDuration::from_secs(1);
const COMMAND_EVERY_TICKS: u64 = 10;
/// Readings generated in the last seconds of a run are still in the air
/// when it ends; delivery is judged on those sent before this much of
/// the end.
const GRACE_SECS: u64 = 10;

/// Sizing of the plant.
#[derive(Clone, Copy, Debug)]
pub struct PlantSpec {
    /// Battery-tier cells.
    pub line_cells: usize,
    /// Mains-tier cells.
    pub hall_cells: usize,
    /// Virtual seconds one iteration advances.
    pub virtual_secs: u64,
}

impl PlantSpec {
    /// The full plant (992 nodes, 36 border routers) or the smoke-test
    /// one (248 nodes, 9 border routers).
    pub fn new(quick: bool) -> PlantSpec {
        if quick {
            PlantSpec {
                line_cells: 8,
                hall_cells: 1,
                virtual_secs: 120,
            }
        } else {
            PlantSpec {
                line_cells: 32,
                hall_cells: 4,
                virtual_secs: 180,
            }
        }
    }

    fn cells(&self) -> usize {
        self.line_cells + self.hall_cells
    }

    fn line_nodes(&self) -> usize {
        self.line_cells * LINE_LEN
    }

    /// `(first node, node count, root node)` of cell `c`.
    fn cell(&self, c: usize) -> (usize, usize, usize) {
        if c < self.line_cells {
            (c * LINE_LEN, LINE_LEN, c * LINE_LEN)
        } else {
            let first = self.line_nodes() + (c - self.line_cells) * HALL_LEN;
            (first, HALL_LEN, first + HALL_ROOT)
        }
    }
}

/// How the harness reads a node's stack, whichever MAC is under it and
/// whether or not the timing shims are around it.
trait Stack {
    fn collected(&self) -> &[Collected];
    fn parent_switches(&self) -> u64;
    fn proto_calls(&self) -> [CallStat; 5] {
        Default::default()
    }
    fn mac_calls(&self) -> [CallStat; 5] {
        Default::default()
    }
}

impl<M: Mac> Stack for DodagNode<M> {
    fn collected(&self) -> &[Collected] {
        DodagNode::collected(self)
    }
    fn parent_switches(&self) -> u64 {
        DodagNode::parent_switches(self)
    }
}

impl<M: Mac> Stack for TimedProto<DodagNode<TimedMac<M>>> {
    fn collected(&self) -> &[Collected] {
        self.inner.collected()
    }
    fn parent_switches(&self) -> u64 {
        self.inner.parent_switches()
    }
    fn proto_calls(&self) -> [CallStat; 5] {
        self.calls
    }
    fn mac_calls(&self) -> [CallStat; 5] {
        self.inner.mac().calls
    }
}

fn dodag_config() -> DodagConfig {
    DodagConfig {
        traffic: Some(Traffic {
            period: SimDuration::from_secs(30),
            payload_len: 10,
            start_after: SimDuration::from_secs(60),
        }),
        ..DodagConfig::default()
    }
}

fn node<M: Mac>(mac: M, is_root: bool, traced: bool) -> Box<dyn Proto> {
    if traced {
        Box::new(TimedProto::new(DodagNode::new(
            TimedMac::new(mac),
            dodag_config(),
            is_root,
        )))
    } else {
        Box::new(DodagNode::new(mac, dodag_config(), is_root))
    }
}

fn lpl() -> LplMac {
    LplMac::new(LplConfig {
        wake_interval: SimDuration::from_millis(256),
        ..LplConfig::default()
    })
}

/// One reading on its way from a border router to its gateway.
struct Reading {
    origin: NodeId,
    seq: u16,
    sent_at: SimTime,
}

type Inbox = Arc<Mutex<Vec<Reading>>>;

/// The southbound adapter of one cell: the border router's collected
/// readings become `Measurement`s (value = the reading's sequence
/// number, timestamp = when the sensor sampled it), and the cell has one
/// writable set-point.
struct CellAdapter {
    device: String,
    prefix: String,
    nodes: std::ops::Range<usize>,
    inbox: Inbox,
    setpoint: f64,
}

impl CellAdapter {
    fn setpoint_path(prefix: &str) -> String {
        format!("{prefix}/setpoint")
    }
}

impl Adapter for CellAdapter {
    fn device(&self) -> &str {
        &self.device
    }

    fn protocol(&self) -> &'static str {
        "dodag-root"
    }

    fn points(&self) -> Vec<PointInfo> {
        let mut points: Vec<PointInfo> = self
            .nodes
            .clone()
            .map(|n| PointInfo {
                point: point_path(&self.prefix, NodeId(n as u32)),
                unit: Unit::Raw,
                writable: false,
            })
            .collect();
        points.push(PointInfo {
            point: Self::setpoint_path(&self.prefix),
            unit: Unit::Raw,
            writable: true,
        });
        points
    }

    fn poll(&mut self, _now_us: u64) -> Vec<Measurement> {
        std::mem::take(&mut *self.inbox.lock().expect("inbox"))
            .into_iter()
            .map(|r| Measurement {
                point: point_path(&self.prefix, r.origin),
                value: r.seq as f64,
                unit: Unit::Raw,
                quality: Quality::Good,
                timestamp_us: r.sent_at.as_micros(),
                device: self.device.clone(),
            })
            .collect()
    }

    fn write(&mut self, point: &str, value: f64) -> Result<(), WriteError> {
        if point == Self::setpoint_path(&self.prefix) {
            self.setpoint = value;
            Ok(())
        } else if point.starts_with(&self.prefix) {
            Err(WriteError::ReadOnly)
        } else {
            Err(WriteError::NoSuchPoint)
        }
    }
}

fn cell_prefix(c: usize) -> String {
    format!("plant/c{c:02}")
}

fn point_path(prefix: &str, node: NodeId) -> String {
    format!("{prefix}/n{}", node.0)
}

/// A cloud-accepted reading.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Accepted {
    origin: NodeId,
    seq: u16,
}

/// Everything one iteration owns.
struct Plant {
    spec: PlantSpec,
    traced: bool,
    sim: Sim,
    gateways: Vec<Gateway>,
    uplinks: Vec<CloudUplink>,
    inboxes: Vec<Inbox>,
    /// How many of each root's `collected()` were already handed over.
    seen: Vec<usize>,
    /// Point path -> (tenant, device index in the tenant's fleet).
    devices: BTreeMap<String, (TenantId, u32)>,
    pipe: IngestPipeline,
    twins: TwinStore,
    router: CommandRouter,
}

fn stream_config() -> StreamConfig {
    StreamConfig::logged(LogConfig::default())
        .with_admission(RateLimit::per_sec(25_600, 1024))
        .with_windows(WindowSpec::tumbling(SimDuration::from_secs(120)))
}

fn ingest_config() -> IngestConfig {
    IngestConfig::default()
}

/// Devices per tenant: cell `c` reports under tenant `c % TENANTS`, one
/// device per non-root node.
fn fleet_sizes(spec: PlantSpec) -> [u32; TENANTS as usize] {
    let mut sizes = [0u32; TENANTS as usize];
    for c in 0..spec.cells() {
        sizes[c % TENANTS as usize] += spec.cell(c).1 as u32 - 1;
    }
    sizes
}

impl Plant {
    fn build(spec: PlantSpec, seed: u64, traced: bool, record_obs: bool) -> Plant {
        let mut lines = Topology::new();
        for c in 0..spec.line_cells {
            for i in 0..LINE_LEN {
                lines.push(Pos::new(i as f64 * SPACING_M, c as f64 * LINE_PITCH_M));
            }
        }
        let mut halls = Topology::new();
        for h in 0..spec.hall_cells {
            for r in 0..HALL_SIDE {
                for col in 0..HALL_SIDE {
                    halls.push(Pos::new(
                        HALL_X0_M + col as f64 * SPACING_M,
                        h as f64 * HALL_PITCH_M + r as f64 * SPACING_M,
                    ));
                }
            }
        }
        let mut builder = SimBuilder::new()
            .seed(seed)
            .nodes(lines, move |i| node(lpl(), i % LINE_LEN == 0, traced))
            .nodes(halls, move |i| {
                node(CsmaMac::default(), i % HALL_LEN == HALL_ROOT, traced)
            });
        if record_obs {
            builder = builder.recorder(Box::new(CountingRecorder::new()));
        }
        let sim = builder.build();

        let mut pipe = IngestPipeline::new(registry(seed, &fleet_sizes(spec)), ingest_config());
        pipe.attach_stream(stream_config());

        let mut gateways = Vec::new();
        let mut uplinks = Vec::new();
        let mut inboxes = Vec::new();
        let mut devices = BTreeMap::new();
        let mut next_device = [0u32; TENANTS as usize];
        for c in 0..spec.cells() {
            let (first, len, root) = spec.cell(c);
            let tenant = TenantId((c % TENANTS as usize) as u16);
            let prefix = cell_prefix(c);
            for n in (first..first + len).filter(|n| *n != root) {
                let slot = &mut next_device[tenant.0 as usize];
                devices.insert(point_path(&prefix, NodeId(n as u32)), (tenant, *slot));
                *slot += 1;
            }
            let inbox: Inbox = Arc::default();
            let mut gw = Gateway::new(ReplicaId(c as u64 + 1));
            gw.add_adapter(Box::new(CellAdapter {
                device: format!("br-{c:02}"),
                prefix: prefix.clone(),
                nodes: first..first + len,
                inbox: Arc::clone(&inbox),
                setpoint: 0.0,
            }));
            // The uplink forwards the cell's sensor points, not the
            // set-point the gateway echoes back after a write.
            uplinks.push(CloudUplink::new(&gw, tenant.0, &format!("{prefix}/n")));
            gateways.push(gw);
            inboxes.push(inbox);
        }
        Plant {
            spec,
            traced,
            sim,
            gateways,
            uplinks,
            inboxes,
            seen: vec![0; spec.cells()],
            devices,
            pipe,
            twins: TwinStore::new(),
            router: CommandRouter::new(16, seed),
        }
    }

    fn stack(&self, n: usize) -> &dyn Stack {
        let id = NodeId(n as u32);
        match (n < self.spec.line_nodes(), self.traced) {
            (true, false) => self.sim.proto::<DodagNode<LplMac>>(id),
            (true, true) => self
                .sim
                .proto::<TimedProto<DodagNode<TimedMac<LplMac>>>>(id),
            (false, false) => self.sim.proto::<DodagNode<CsmaMac>>(id),
            (false, true) => self
                .sim
                .proto::<TimedProto<DodagNode<TimedMac<CsmaMac>>>>(id),
        }
    }
}

/// One iteration's measurements.
pub struct PlantIter {
    /// Host seconds of the timed region (all ticks plus the final drain).
    pub wall_s: f64,
    /// What the sim did.
    pub digest: SimDigest,
    /// Readings generated before the grace period.
    generated_early: u64,
    /// ... and how many of those reached a root.
    collected_early: u64,
    accepted: Vec<Accepted>,
    collected_keys: Vec<Accepted>,
    /// Sample-to-cloud latency of every accepted reading, ms, ascending.
    latencies_ms: Vec<f64>,
    duty_lpl: f64,
    duty_csma: f64,
    counters: BTreeMap<&'static str, f64>,
    proto_calls: [CallStat; 5],
    mac_calls: [CallStat; 5],
    parent_switches: u64,
    commands_ok: u64,
    commands_sent: u64,
    coap_retransmissions: u64,
    gateway_measurements: u64,
    uplink_records: u64,
    twin_events: u64,
    obs_events: u64,
    allocs: AllocCount,
    tracer: Tracer,
    pipe: IngestPipeline,
    offered: Vec<UplinkMsg>,
    seed: u64,
    spec: PlantSpec,
}

const STAT_COUNTERS: [&str; 12] = [
    "dio_tx",
    "parent_switch",
    "data_fwd",
    "data_drop_ttl",
    "data_drop_size",
    "data_drop_retries",
    "data_drop_queue",
    "data_dup",
    "mac_tx_data",
    "mac_tx_fail",
    "mac_ack_timeout",
    "mac_cca_fail",
];

/// Builds the plant and runs it once.
pub fn iterate(spec: PlantSpec, seed: u64, traced: bool, record_obs: bool) -> PlantIter {
    let mut p = Plant::build(spec, seed, traced, record_obs);

    let mut tr = Tracer::new(traced);
    let mut accepted = Vec::new();
    let mut latencies_ms = Vec::new();
    let mut offered = Vec::new();
    let mut generated_early = 0;
    let (mut commands_ok, mut commands_sent) = (0u64, 0u64);
    let cutoff_tick = spec.virtual_secs.saturating_sub(GRACE_SECS);

    let scope = traced.then(Scope::begin);
    let started = Instant::now();
    let root_span = tr.enter("iteration", NONE);
    for tick in 1..=spec.virtual_secs {
        let s = tr.enter("sim.run_for", root_span);
        p.sim.run_for(TICK);
        tr.exit(s);
        let now = p.sim.now();
        if tick == cutoff_tick {
            generated_early = p.sim.stats().node_total("data_origin") as u64;
        }

        let s = tr.enter("gateway.poll_all", root_span);
        for c in 0..spec.cells() {
            let fresh: Vec<Reading> = p.stack(spec.cell(c).2).collected()[p.seen[c]..]
                .iter()
                .map(|r| Reading {
                    origin: r.origin,
                    seq: r.seq,
                    sent_at: r.sent_at,
                })
                .collect();
            p.seen[c] += fresh.len();
            p.inboxes[c].lock().expect("inbox").extend(fresh);
            p.gateways[c].poll_all(now.as_micros());
        }
        tr.exit(s);

        let s = tr.enter("gateway.uplink_drain", root_span);
        let records: Vec<_> = p.uplinks.iter().flat_map(CloudUplink::drain).collect();
        tr.exit(s);

        let s = tr.enter("cloud.drain_until", root_span);
        p.pipe.drain_until(now);
        tr.exit(s);

        let s = tr.enter("cloud.offer", root_span);
        let mut fresh = Vec::with_capacity(records.len());
        for rec in &records {
            let (tenant, device) = p.devices[&rec.point];
            let msg = UplinkMsg {
                tenant,
                device,
                token: p.pipe.registry().token(tenant, device).unwrap_or(0),
                value: rec.value,
                t: now,
            };
            if traced {
                offered.push(msg);
            }
            if p.pipe.offer(msg) {
                fresh.push((tenant, device, rec));
            }
        }
        tr.exit(s);

        let s = tr.enter("cloud.twin_report", root_span);
        for (tenant, device, rec) in fresh {
            p.twins.report(
                tenant,
                device,
                rec.timestamp_us,
                ReplicaId(tenant.0 as u64),
                "seq",
                rec.value,
            );
            let origin = rec
                .point
                .rsplit_once("/n")
                .and_then(|(_, n)| n.parse().ok());
            accepted.push(Accepted {
                origin: NodeId(origin.expect("point names end in the node id")),
                seq: rec.value as u16,
            });
            latencies_ms.push((now.as_micros() - rec.timestamp_us) as f64 / 1e3);
        }
        tr.exit(s);

        if tick % COMMAND_EVERY_TICKS == 0 {
            let s = tr.enter("coap.command", root_span);
            for (c, gw) in p.gateways.iter_mut().enumerate() {
                p.router.submit(Command {
                    tenant: TenantId((c % TENANTS as usize) as u16),
                    point: CellAdapter::setpoint_path(&cell_prefix(c)),
                    value: tick as f64,
                });
                let outcomes = p.router.flush(gw.coap_mut(), now);
                commands_sent += outcomes.len() as u64;
                commands_ok += outcomes.iter().filter(|o| o.ok).count() as u64;
            }
            tr.exit(s);
        }
    }
    let s = tr.enter("cloud.drain_remaining", root_span);
    p.pipe.drain_remaining();
    p.pipe.flush_windows();
    tr.exit(s);
    tr.exit(root_span);
    let wall_s = started.elapsed().as_secs_f64();
    let allocs = scope.map(Scope::finish).unwrap_or_default();

    // Everything below reads results; none of it is timed.
    let cutoff = SimTime::from_micros(cutoff_tick * TICK.as_micros());
    let mut collected_keys = Vec::new();
    let (mut collected_early, mut latency_sum_us) = (0u64, 0u64);
    for c in 0..spec.cells() {
        for r in p.stack(spec.cell(c).2).collected() {
            collected_keys.push(Accepted {
                origin: r.origin,
                seq: r.seq,
            });
            collected_early += u64::from(r.sent_at <= cutoff);
            latency_sum_us += r.latency().as_micros();
        }
    }
    let (mut proto_calls, mut mac_calls) = (Default::default(), Default::default());
    let mut parent_switches = 0;
    let nodes = p.sim.node_count();
    for n in 0..nodes {
        let stack = p.stack(n);
        accumulate(&mut proto_calls, &stack.proto_calls());
        accumulate(&mut mac_calls, &stack.mac_calls());
        parent_switches += stack.parent_switches();
    }
    let roots: BTreeSet<usize> = (0..spec.cells()).map(|c| spec.cell(c).2).collect();
    let duty = |range: std::ops::Range<usize>| {
        let battery: Vec<f64> = range
            .filter(|n| !roots.contains(n))
            .map(|n| p.sim.energy(NodeId(n as u32)).duty_cycle())
            .collect();
        battery.iter().sum::<f64>() / battery.len().max(1) as f64
    };
    let duty_lpl = duty(0..spec.line_nodes());
    let duty_csma = duty(spec.line_nodes()..nodes);
    let obs_events = p
        .sim
        .recorder_as::<CountingRecorder>()
        .map_or(0, CountingRecorder::total);
    let stats = p.sim.stats();
    let generated = stats.node_total("data_origin") as u64;
    let counters = STAT_COUNTERS
        .iter()
        .map(|name| (*name, stats.node_total(name)))
        .collect();
    latencies_ms.sort_by(f64::total_cmp);

    PlantIter {
        wall_s,
        digest: SimDigest {
            events: p.sim.events_dispatched(),
            medium: p.sim.medium_stats(),
            generated,
            collected: collected_keys.len() as u64,
            latency_sum_us,
        },
        generated_early,
        collected_early,
        accepted,
        collected_keys,
        latencies_ms,
        duty_lpl,
        duty_csma,
        counters,
        proto_calls,
        mac_calls,
        parent_switches,
        commands_ok,
        commands_sent,
        coap_retransmissions: p
            .gateways
            .iter_mut()
            .map(|g| g.coap_mut().retransmissions())
            .sum(),
        gateway_measurements: p.gateways.iter().map(Gateway::measurements_processed).sum(),
        uplink_records: p.uplinks.iter().map(CloudUplink::forwarded).sum(),
        twin_events: p.twins.total_events(),
        obs_events,
        allocs,
        tracer: tr,
        pipe: p.pipe,
        offered,
        seed,
        spec,
    }
}

impl PlantIter {
    fn delivery_ratio(&self) -> f64 {
        self.collected_early as f64 / self.generated_early.max(1) as f64
    }

    /// The plant's invariants; each failure names the one that broke.
    fn check(&self, out: &mut Outcome) {
        let collected: BTreeSet<Accepted> = self.collected_keys.iter().copied().collect();
        if collected.len() != self.collected_keys.len() {
            out.fail(format!(
                "plant: roots collected {} readings but only {} distinct (origin, seq)",
                self.collected_keys.len(),
                collected.len()
            ));
        }
        let accepted: BTreeSet<Accepted> = self.accepted.iter().copied().collect();
        if accepted.len() != self.accepted.len() {
            out.fail(format!(
                "plant: the cloud accepted {} readings but only {} distinct (origin, seq): duplicates",
                self.accepted.len(),
                accepted.len()
            ));
        }
        if !accepted.is_subset(&collected) {
            out.fail(
                "plant: a cloud-accepted reading matches no reading collected at a root".into(),
            );
        }
        let d = &self.digest;
        if !(self.accepted.len() as u64 <= d.collected && d.collected <= d.generated) {
            out.fail(format!(
                "plant: accepted {} <= collected {} <= generated {} does not hold",
                self.accepted.len(),
                d.collected,
                d.generated
            ));
        }
        if self.delivery_ratio() < 0.95 {
            out.fail(format!(
                "plant: delivery ratio {:.4} is below 0.95 (not a regime worth timing)",
                self.delivery_ratio()
            ));
        }
        if self.commands_ok != self.commands_sent || self.commands_sent == 0 {
            out.fail(format!(
                "plant: {} of {} set-point commands acknowledged",
                self.commands_ok, self.commands_sent
            ));
        }
        let wal = self.pipe.wal().expect("plant attaches a log").as_bytes();
        let (replayed, report) = replay(
            wal,
            registry(self.seed, &fleet_sizes(self.spec)),
            ingest_config(),
            stream_config(),
            None,
        );
        if report.truncated_bytes != 0
            || metrics::summarize(&replayed) != metrics::summarize(&self.pipe)
            || replayed.closed_windows() != self.pipe.closed_windows()
        {
            out.fail("plant: replaying the write-ahead log does not reproduce the live summaries and closed windows".into());
        }
    }
}

fn check_all(out: &mut Outcome, first: &PlantIter, iters: &[PlantIter]) {
    first.check(out);
    let differing = iters.iter().filter(|i| i.digest != first.digest).count();
    if differing > 0 {
        out.fail(format!(
            "plant: {differing} of {} iterations differ from the first (same seed must give the same digest)",
            iters.len()
        ));
    }
    // An operation is a reading a border router took charge of; it fails
    // when the gateway or the cloud then loses it. Radio loss before the
    // root is the modelled channel and is reported as delivery_ratio.
    out.attempted = iters.iter().map(|i| i.digest.collected).sum();
    out.failed = iters
        .iter()
        .map(|i| i.digest.collected - i.accepted.len() as u64)
        .sum();
}

/// The untraced pass: end-to-end metrics.
pub fn run_e2e(spec: PlantSpec, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let setups = setup_samples(|| Plant::build(spec, seed, false, false));
    let warm = iterate(spec, seed, false, false);
    let iters = repeat(seconds, 3, |_| iterate(spec, seed, false, false));
    check_all(&mut out, &warm, &iters);
    let wall = fastest(&iters, |i| i.wall_s).wall_s;
    out.set("setup_s", median(&setups));
    out.set("realtime_factor", spec.virtual_secs as f64 / wall);
    out.set("delivery_ratio", warm.delivery_ratio());
    out.note(format!(
        "plant: {} nodes in {} cells, {} virtual s, {} iterations, {} events each, fastest {:.3} s of {:?} ms; \
         {} readings generated, {} collected, {} accepted by the cloud",
        spec.line_nodes() + spec.hall_cells * HALL_LEN,
        spec.cells(),
        spec.virtual_secs,
        iters.len(),
        warm.digest.events,
        wall,
        iters.iter().map(|i| (i.wall_s * 1e3) as u64).collect::<Vec<_>>(),
        warm.digest.generated,
        warm.digest.collected,
        warm.accepted.len()
    ));
    out
}

/// The traced pass: per-layer metrics.
pub fn run_traced(spec: PlantSpec, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let warm = iterate(spec, seed, false, false);
    let pairs = repeat(seconds * 0.75, 2, |_| {
        (
            iterate(spec, seed, false, false),
            iterate(spec, seed, true, false),
        )
    });
    let (plain, traced): (Vec<PlantIter>, Vec<PlantIter>) = pairs.into_iter().unzip();
    let with_obs = iterate(spec, seed, false, true);
    check_all(&mut out, &warm, &plain);
    for (what, it) in traced
        .iter()
        .map(|t| ("traced", t))
        .chain([("recorded", &with_obs)])
    {
        if it.digest != warm.digest {
            out.fail(format!(
                "plant: the {what} run's digest differs from the plain run's: the shims or the recorder changed behaviour"
            ));
        }
    }

    // Every layer time below comes from one iteration, the fastest traced
    // one, so the shares add up to its wall.
    let plain_wall = fastest(&plain, |i| i.wall_s).wall_s;
    let best = fastest(&traced, |i| i.wall_s);
    let span = |name: &'static str| best.tracer.total_s(name);
    let proto_s = total(&best.proto_calls).secs();
    let mac_s = total(&best.mac_calls).secs();
    let d = &warm.digest;
    let count = |name: &str| warm.counters[name];

    out.set(
        "e2e.sample_to_cloud_p50_ms",
        percentile(&warm.latencies_ms, 0.5),
    );
    out.set(
        "e2e.sample_to_cloud_p99_ms",
        percentile(&warm.latencies_ms, 0.99),
    );
    out.set("e2e.sample_to_cloud_n", warm.latencies_ms.len() as f64);
    out.set("e2e.duty_cycle_mean", warm.duty_lpl);
    out.note(format!(
        "plant: sample-to-cloud latency over n = {} readings; highest percentile with ten samples beyond it: {}",
        warm.latencies_ms.len(),
        top_percentile(warm.latencies_ms.len()).map_or("none".into(), |p| format!("p{}", p * 100.0))
    ));

    d.report(&mut out, best.allocs);
    out.set("sim.self_s", span("sim.run_for") - proto_s);
    out.set(
        "sim.ns_per_event",
        plain_wall * 1e9 / d.events.max(1) as f64,
    );

    out.set("mac.incl_s", mac_s);
    out.set("mac.calls", total(&best.mac_calls).calls as f64);
    out.set("mac.tx_data", count("mac_tx_data"));
    out.set("mac.tx_fail", count("mac_tx_fail"));
    out.set("mac.ack_timeout", count("mac_ack_timeout"));
    out.set("mac.cca_fail", count("mac_cca_fail"));
    out.set("mac.duty_cycle_lpl", warm.duty_lpl);
    out.set("mac.duty_cycle_csma", warm.duty_csma);

    out.set("routing.self_s", proto_s - mac_s);
    out.set("routing.dio_tx", count("dio_tx"));
    out.set("routing.parent_switch", warm.parent_switches as f64);
    out.set("routing.data_fwd", count("data_fwd"));
    out.set(
        "routing.data_drop",
        count("data_drop_ttl")
            + count("data_drop_size")
            + count("data_drop_retries")
            + count("data_drop_queue"),
    );
    out.set("routing.data_dup", count("data_dup"));
    out.set("routing.collected", d.collected as f64);

    out.set("gateway.poll_s", span("gateway.poll_all"));
    out.set("gateway.measurements", warm.gateway_measurements as f64);
    out.set("gateway.uplink_drain_s", span("gateway.uplink_drain"));
    out.set("gateway.uplink_records", warm.uplink_records as f64);
    out.set("coap.command_s", span("coap.command"));
    out.set("coap.commands_ok", warm.commands_ok as f64);
    out.set("coap.retransmissions", warm.coap_retransmissions as f64);

    let counts = PipeCounts::of(&warm.pipe);
    counts.report(&mut out);
    out.set("cloud.offer_s", span("cloud.offer"));
    out.set(
        "cloud.drain_s",
        span("cloud.drain_until") + span("cloud.drain_remaining"),
    );
    out.set("cloud.twin_report_s", span("cloud.twin_report"));
    out.set("cloud.twin_events", warm.twin_events as f64);
    unit_costs(
        &best.offered,
        &registry(seed, &fleet_sizes(spec)),
        &stream_config(),
    )
    .report(&mut out, span("cloud.offer"), counts.offered);

    out.set("obs.overhead_x", with_obs.wall_s / plain_wall);
    out.set("obs.events_recorded", with_obs.obs_events as f64);
    out.set_trace(plain_wall, best.wall_s, traced.len(), &best.tracer);

    for (names, calls, layer) in [
        (PROTO_CALLS, best.proto_calls, "proto"),
        (MAC_CALLS, best.mac_calls, "mac"),
    ] {
        for (name, stat) in names.iter().zip(calls) {
            out.aggregates.push((format!("{layer}.{name}"), stat));
        }
    }
    out
}
