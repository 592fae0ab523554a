//! Stream-plane experiments: E18 exercises the `iiot-stream` subsystem
//! through the cloud tier — the replayable write-ahead event log,
//! per-tenant token-bucket admission control, and watermark-driven
//! aggregation windows.
//!
//! Five questions, each one table:
//!
//! * **logging tax** — the same session workload with the write-ahead
//!   log off and on: every virtual-time statistic must be identical
//!   (asserted per trial), so the only new columns are the log's size
//!   and sealing behaviour;
//! * **replay fidelity** — a run exercising every shed path is
//!   replayed from its own log: per-tenant stats, closed windows and
//!   the replayed pipeline's re-persisted log bytes must all match the
//!   live run exactly (asserted per trial — the table records what was
//!   proven equal);
//! * **crash recovery** — the log cut or corrupted at adversarial
//!   offsets (frame boundary, torn header, torn CRC, torn payload,
//!   mid-log bit flip): recovery must keep exactly the CRC-verified
//!   prefix and replay must account for every surviving record;
//! * **admission vs queue shed** — E16b's noisy-neighbor plan on the
//!   *shared* queue, with and without per-tenant admission control: the
//!   token bucket moves the offender's loss from backpressure
//!   (`shed_full`, which queues quiet traffic behind the burst) to the
//!   front door (`shed_ratelimit`, which never touches the queue);
//! * **windows across a partition** — gateway-buffered twin reports
//!   delivered after a backhaul outage, attributed to event-time
//!   windows via [`TwinStore::merge_windowed`]: with `allowed_lateness`
//!   covering the outage the closed windows equal the never-partitioned
//!   baseline's; without it the buffered samples are counted
//!   late-dropped, never silently mis-binned.
//!
//! All reported quantities are virtual-time statistics — pure
//! functions of `(plan, config, seed)` — so every table is
//! byte-identical at any `--jobs`. Wall clock for this plane is
//! `benchmark/`'s `cloud_stream` workload.

use crate::runner::{Cell, Trial};
use crate::table::Table;
use crate::RunConfig;
use iiot_cloud::{
    metrics, replay, DeviceRegistry, IngestConfig, IngestPipeline, Isolation, SessionGen,
    SessionPlan, StreamConfig, TenantId, TwinStore, UPLINK_FRAME,
};
use iiot_crdt::ReplicaId;
use iiot_security::Key;
use iiot_sim::obs::Histogram;
use iiot_sim::{seed, SimDuration, SimTime};
use iiot_stream::{LogConfig, RateLimit, WindowAggregator, WindowResult, WindowSpec, FRAME_HEADER};

/// Tenants in every synthetic fleet, E16's included.
pub const TENANTS: u16 = 4;
/// E18's base seed (experiment id, like `0xE16` for the cloud tier).
const SEED: u64 = 0xE18;
/// Persisted size of one logged uplink: log frame header + wire record.
const FRAME: u64 = (FRAME_HEADER + UPLINK_FRAME) as u64;

/// A registry with `TENANTS` tenants of `devices` devices each, keys
/// derived from `seed_val` (so replay can rebuild a byte-identical
/// registry from the seed alone).
pub(crate) fn fleet(devices: u32, seed_val: u64) -> DeviceRegistry {
    let mut reg = DeviceRegistry::new();
    for i in 0..TENANTS {
        let mut key = [0u8; 16];
        key[..8].copy_from_slice(&seed::derive(seed_val, i as u64).to_le_bytes());
        key[8..].copy_from_slice(&seed::derive(seed_val ^ 0xA5, i as u64).to_le_bytes());
        let t = reg.create_tenant(&format!("tenant-{i}"), Key(key));
        reg.register_fleet(t, devices);
    }
    reg
}

/// Drives one full load-generation run with an optional stream-plane
/// attachment: sessions in, drain ticks between arrivals, everything
/// drained and all windows flushed at the end. Returns the pipeline
/// for metric extraction.
pub(crate) fn run_streamed(
    devices: u32,
    plan: SessionPlan,
    config: IngestConfig,
    stream: Option<StreamConfig>,
    seed_val: u64,
) -> IngestPipeline {
    let reg = fleet(devices, seed_val);
    let mut gen = SessionGen::new(&reg, plan, seed_val);
    let mut pipe = IngestPipeline::new(reg, config);
    if let Some(s) = stream {
        pipe.attach_stream(s);
    }
    pipe.set_recorder(iiot_sim::obs::scope_capture(seed_val));
    while let Some(msg) = gen.next_msg(pipe.registry()) {
        pipe.offer(msg);
    }
    pipe.drain_remaining();
    pipe.flush_windows();
    drop(pipe.take_recorder());
    pipe
}

/// Fleet-wide latency distribution: every tenant's histogram merged.
pub(crate) fn merged_latency(pipe: &IngestPipeline) -> Histogram {
    let mut h = Histogram::new();
    for (_, st) in pipe.stats() {
        h.merge(&st.latency_us);
    }
    h
}

/// Sums one shed-cause counter across all tenants.
fn shed_sum(pipe: &IngestPipeline, f: fn(&iiot_cloud::TenantStats) -> u64) -> u64 {
    pipe.stats().map(|(_, st)| f(st)).sum()
}

/// The drain capacity of `queues` queues of `config`, in messages per
/// virtual second: `queues × drain_batch / TICK`.
pub fn capacity_per_sec(config: &IngestConfig, queues: u64) -> f64 {
    let per_tick = queues as f64 * config.drain_batch as f64;
    per_tick / (iiot_cloud::ingest::TICK.as_micros() as f64 / 1e6)
}

/// E16b's two queue arms, at identical aggregate drain capacity and
/// buffer: `TENANTS` queues × (cap, batch) vs one shared queue ×
/// 4·(cap, batch). E18d runs on the shared one.
pub(crate) fn queue_config(isolation: Isolation) -> IngestConfig {
    match isolation {
        Isolation::PerTenant => IngestConfig {
            shards: TENANTS as usize,
            queue_cap: 1024,
            drain_batch: 256,
            isolation,
            ..IngestConfig::default()
        },
        Isolation::Shared => IngestConfig {
            shards: 1,
            queue_cap: 4 * 1024,
            drain_batch: 4 * 256,
            isolation,
            ..IngestConfig::default()
        },
    }
}

/// One noisy-neighbour observation (E16b, E18d): the quiet tenants'
/// worst-case experience next to tenant 0, and how tenant 0 was shed.
pub(crate) struct NoisyPoint {
    pub(crate) quiet_p99_ms: f64,
    pub(crate) quiet_shed_pct: f64,
    /// Quiet tenants' sheds by cause: (auth, rate limit, queue full).
    pub(crate) quiet_shed_causes: (u64, u64, u64),
    pub(crate) noisy_ratelimited: u64,
    pub(crate) noisy_queue_shed: u64,
    pub(crate) noisy_accept_pct: f64,
    pub(crate) fairness: f64,
}

/// Runs `devices` devices per tenant with tenant 0 reporting
/// `multiplier`× faster through `config`, with an optional stream plane
/// (E18d's admission control).
pub(crate) fn noisy_point(
    devices: u32,
    multiplier: u32,
    config: IngestConfig,
    stream: Option<StreamConfig>,
    s: u64,
) -> NoisyPoint {
    // Long-lived sessions (32 msgs each): the noisy tenant's burst must
    // outlast what the shared buffer can absorb before the damage to
    // the quiet tenants becomes visible.
    let plan = SessionPlan {
        msgs_per_device: 32,
        noisy: Some((TenantId(0), multiplier)),
        ..SessionPlan::default()
    };
    let pipe = run_streamed(devices, plan, config, stream, s);
    let summaries = metrics::summarize(&pipe);
    let quiet: Vec<_> = summaries
        .iter()
        .filter(|x| x.tenant != TenantId(0))
        .collect();
    let noisy = summaries
        .iter()
        .find(|x| x.tenant == TenantId(0))
        .expect("noisy tenant");
    NoisyPoint {
        quiet_p99_ms: quiet.iter().map(|x| x.p99_us).max().unwrap_or(0) as f64 / 1000.0,
        quiet_shed_pct: {
            let (shed, offered) = quiet
                .iter()
                .fold((0u64, 0u64), |(sh, o), x| (sh + x.shed, o + x.offered));
            shed as f64 / offered.max(1) as f64
        },
        quiet_shed_causes: quiet.iter().fold((0, 0, 0), |(a, r, f), x| {
            (a + x.shed_auth, r + x.shed_ratelimit, f + x.shed_full)
        }),
        noisy_ratelimited: noisy.shed_ratelimit,
        noisy_queue_shed: noisy.shed_full,
        noisy_accept_pct: noisy.accepted as f64 / noisy.offered.max(1) as f64,
        fairness: metrics::service_fairness(&summaries),
    }
}

// ---------------------------------------------------------------- E18a

/// E18a over a per-tenant device axis: the write-ahead
/// logging tax. Both arms of each point run the identical workload;
/// the trial asserts their per-tenant summaries are equal, so the log
/// provably costs bytes, not behaviour.
pub fn e18_tax(rc: &RunConfig, devices_axis: &[u32]) -> Table {
    let config = IngestConfig::default();
    rc.table(
        "E18a: write-ahead logging tax (identical virtual stats asserted; 64 KiB segments)",
        &[
            "msgs", "log", "accepted", "p50 (ms)", "p99 (ms)", "log KiB", "B/msg", "seals",
        ],
        devices_axis.iter().map(|&devices| {
            Trial::new(
                format!("e18/tax/{}", devices * TENANTS as u32),
                SEED,
                move |s| {
                    let off = run_streamed(devices, SessionPlan::default(), config, None, s);
                    let on = run_streamed(
                        devices,
                        SessionPlan::default(),
                        config,
                        Some(StreamConfig::logged(LogConfig::default())),
                        s,
                    );
                    assert_eq!(
                        metrics::summarize(&off),
                        metrics::summarize(&on),
                        "the write-ahead log must not change any virtual-time statistic"
                    );
                    let wal = on.wal().expect("wal attached");
                    let (offered, _, _, _) = on.totals();
                    assert_eq!(
                        wal.records(),
                        offered,
                        "every offer is logged, sheds included"
                    );
                    assert_eq!(wal.len_bytes(), offered * FRAME, "fixed-size uplink frames");
                    let row = |arm: &'static str, p: &IngestPipeline| {
                        let (offered, accepted, _, _) = p.totals();
                        let lat = merged_latency(p);
                        let (kib, per_msg, seals) = match p.wal() {
                            Some(w) => (
                                Cell::f1(w.len_bytes() as f64 / 1024.0),
                                Cell::f1(w.len_bytes() as f64 / offered as f64),
                                Cell::int(w.sealed_segments() as f64),
                            ),
                            None => (Cell::label("-"), Cell::label("-"), Cell::label("-")),
                        };
                        vec![
                            Cell::int(offered as f64),
                            Cell::label(arm),
                            Cell::pct(accepted as f64 / offered as f64),
                            Cell::f1(lat.quantile(0.5) / 1000.0),
                            Cell::f1(lat.quantile(0.99) / 1000.0),
                            kib,
                            per_msg,
                            seals,
                        ]
                    };
                    vec![row("off", &off), row("on", &on)]
                },
            )
        }),
    )
}

// ---------------------------------------------------------------- E18b

/// E18b: replay fidelity at `devices` devices per tenant. One run
/// exercising admission sheds, queue
/// sheds, segment sealing and window closes is replayed from its own
/// write-ahead log; the trial asserts per-tenant summaries, closed
/// windows and the replayed pipeline's re-persisted log bytes all
/// equal the live run's. Live and replay both record under the trace
/// scope (worlds 0 and 1 of the trial), so `--trace` dumps carry both
/// event streams for CI to diff.
pub fn e18_replay(rc: &RunConfig, devices: u32) -> Table {
    rc.table(
        "E18b: log replay fidelity (stats, windows, events and re-persisted log bytes asserted equal)",
        &[
            "msgs", "log records", "seals", "log KiB", "ratelimited", "queue shed",
            "windows", "replay vs live",
        ],
        [Trial::new("e18/replay", SEED, move |s| {
            // A slow drain plus a sub-offered-rate admission contract for
            // the noisy tenant: both shed paths fire, so the replay
            // equalities below have teeth.
            let config = IngestConfig {
                drain_batch: 8,
                ..IngestConfig::default()
            };
            let stream = StreamConfig::logged(LogConfig {
                segment_bytes: 16 * 1024,
            })
            .with_admission(RateLimit::per_sec(4 * devices as u64, 64))
            .with_windows(WindowSpec::tumbling(SimDuration::from_millis(500)));
            let plan = SessionPlan {
                msgs_per_device: 16,
                noisy: Some((TenantId(0), 16)),
                ..SessionPlan::default()
            };
            let live = run_streamed(devices, plan, config, Some(stream.clone()), s);
            let wal = live.wal().expect("wal attached").as_bytes().to_vec();

            let (mut replayed, report) = replay(
                &wal,
                fleet(devices, s),
                config,
                stream,
                iiot_sim::obs::scope_capture(s),
            );
            drop(replayed.take_recorder());
            let (offered, _, _, _) = live.totals();
            assert_eq!(
                report.records, offered,
                "the log holds the complete offer sequence"
            );
            assert_eq!(report.truncated_bytes, 0, "a pristine log loses nothing");
            assert_eq!(
                metrics::summarize(&live),
                metrics::summarize(&replayed),
                "per-tenant stats must replay identically"
            );
            assert_eq!(
                live.closed_windows(),
                replayed.closed_windows(),
                "closed windows must replay identically"
            );
            assert_eq!(
                replayed.wal().expect("wal").as_bytes(),
                wal.as_slice(),
                "the replayed pipeline re-persists a byte-identical log"
            );

            let wal_log = live.wal().expect("wal");
            let ratelimited = shed_sum(&live, |st| st.shed_ratelimit);
            let queue_shed = shed_sum(&live, |st| st.shed_full);
            assert!(ratelimited > 0, "admission shed path exercised");
            vec![vec![
                Cell::int(offered as f64),
                Cell::int(wal_log.records() as f64),
                Cell::int(wal_log.sealed_segments() as f64),
                Cell::f1(wal_log.len_bytes() as f64 / 1024.0),
                Cell::int(ratelimited as f64),
                Cell::int(queue_shed as f64),
                Cell::int(live.closed_windows().len() as f64),
                Cell::label("byte-identical"),
            ]]
        })],
    )
}

// ---------------------------------------------------------------- E18c

/// E18c: crash recovery at adversarial offsets, on the log of a run at
/// `devices` devices per tenant. A live run's log is
/// truncated inside the last frame's header, CRC and payload, exactly
/// on a frame boundary, and bit-flipped mid-log inside a sealed
/// segment; each damaged image is recovered and replayed. The trial
/// asserts the recovered prefix is exactly the CRC-verified frames
/// before the damage and that replay offers exactly those records.
pub fn e18_recovery(rc: &RunConfig, devices: u32) -> Table {
    rc.table(
        "E18c: crash recovery at adversarial offsets (36 B frames, 4 KiB segments; prefix arithmetic asserted)",
        &["crash point", "records kept", "truncated B", "sealed hit", "replay msgs", "accepted"],
        [Trial::new("e18/recovery", SEED, move |s| {
            let config = IngestConfig::default();
            let stream = StreamConfig::logged(LogConfig {
                segment_bytes: 4096,
            });
            let logged = run_streamed(
                devices,
                SessionPlan::default(),
                config,
                Some(stream.clone()),
                s,
            );
            let wal = logged.wal().expect("wal attached").as_bytes().to_vec();
            let (offered, _, _, _) = logged.totals();
            let len = wal.len() as u64;
            assert_eq!(len, offered * FRAME);

            // Crash points: how far into the byte stream the image survives
            // (`cut`), or a single flipped bit mid-log (`flip`).
            let frame = FRAME;
            let mid = (offered / 2) * frame + frame / 2; // mid-payload, mid-log
            let arms: Vec<(&'static str, u64, Option<u64>)> = vec![
                ("frame boundary", len - frame, None),
                ("torn header", len - frame + 3, None),
                ("torn crc", len - frame + 5, None),
                ("torn payload", len - 7, None),
                ("mid-log tear", mid, None),
                // Flip one payload bit a quarter of the way in: the frame
                // fails its CRC inside a *sealed* segment, and recovery
                // must refuse everything from that frame on.
                (
                    "sealed bit flip",
                    len,
                    Some((offered / 4) * frame + (frame - 1)),
                ),
            ];
            arms.into_iter()
                .map(|(label, cut, flip)| {
                    let mut image = wal[..cut as usize].to_vec();
                    if let Some(at) = flip {
                        image[at as usize] ^= 0x10;
                    }
                    let expect_records = match flip {
                        Some(at) => at / frame,
                        None => cut / frame,
                    };
                    let (replayed, report) =
                        replay(&image, fleet(devices, s), config, stream.clone(), None);
                    assert_eq!(
                        report.records, expect_records,
                        "{label}: recovery must keep exactly the intact prefix"
                    );
                    assert_eq!(report.bytes, expect_records * frame, "{label}: kept bytes");
                    assert_eq!(
                        report.truncated_bytes,
                        image.len() as u64 - expect_records * frame,
                        "{label}: everything after the damage is dropped"
                    );
                    assert_eq!(
                        report.corrupt_sealed,
                        flip.is_some(),
                        "{label}: sealed-damage flag"
                    );
                    let (r_offered, r_accepted, _, _) = replayed.totals();
                    assert_eq!(
                        r_offered, expect_records,
                        "{label}: replay offers the prefix"
                    );
                    vec![
                        Cell::label(label),
                        Cell::int(report.records as f64),
                        Cell::int(report.truncated_bytes as f64),
                        Cell::label(if report.corrupt_sealed { "yes" } else { "no" }),
                        Cell::int(r_offered as f64),
                        Cell::pct(r_accepted as f64 / r_offered.max(1) as f64),
                    ]
                })
                .collect()
        })],
    )
}

// ---------------------------------------------------------------- E18d

/// E18d's token bucket: every tenant's fair share of the shared
/// queue's drain capacity.
fn fair_share_limit() -> RateLimit {
    let cap = capacity_per_sec(&queue_config(Isolation::Shared), 1);
    RateLimit::per_sec((cap / TENANTS as f64) as u64, 1024)
}

/// E18d over noisy-rate multipliers at `devices` devices per tenant
/// (E16b's scale): the shared queue with
/// and without per-tenant admission control. The token bucket grants
/// every tenant its fair share of the drain capacity; loss the queue
/// used to take (hurting everyone behind the burst) moves to the front
/// door (hurting only the offender).
pub fn e18_admission(rc: &RunConfig, multipliers: &[u32], devices: u32) -> Table {
    rc.table(
        "E18d: admission control vs queue shedding on the shared queue (fair-share token buckets)",
        &[
            "noisy rate",
            "arm",
            "quiet p99 (ms)",
            "quiet shed",
            "noisy ratelimited",
            "noisy queue shed",
            "noisy accepted",
            "fairness",
        ],
        multipliers.iter().flat_map(|&m| {
            [
                (None, "queues-only"),
                (Some(fair_share_limit()), "admission"),
            ]
            .into_iter()
            .map(move |(limit, name)| {
                Trial::new(format!("e18/admission/x{m}/{name}"), SEED, move |s| {
                    let stream = limit.map(|l| StreamConfig::default().with_admission(l));
                    let p = noisy_point(devices, m, queue_config(Isolation::Shared), stream, s);
                    vec![vec![
                        Cell::label(format!("{m}x")),
                        Cell::label(name),
                        Cell::f1(p.quiet_p99_ms),
                        Cell::pct(p.quiet_shed_pct),
                        Cell::int(p.noisy_ratelimited as f64),
                        Cell::int(p.noisy_queue_shed as f64),
                        Cell::pct(p.noisy_accept_pct),
                        Cell::f3(p.fairness),
                    ]]
                })
            })
        }),
    )
}

// ---------------------------------------------------------------- E18e

/// Drives the backhaul model once: `DEVICES` devices report through a
/// gateway twin replica every second for `REPORTS` seconds (each
/// sample under its own key, so the LWW map preserves every buffered
/// sample); the cloud merges the replica every 2 s except during
/// `outage`, advancing the window watermark on every backhaul tick
/// (the cloud's clock keeps running whether or not this gateway is
/// reachable). Returns the aggregator and every closed window, sorted
/// by `(start, key)` so arms that close windows at different times
/// compare equal when their contents agree.
fn windowed_backhaul(
    outage: Option<(SimTime, SimTime)>,
    lateness: SimDuration,
) -> (WindowAggregator, Vec<WindowResult>) {
    const DEVICES: u32 = 8;
    const REPORTS: u64 = 40;
    let interval = SimDuration::from_secs(1);
    let backhaul = SimDuration::from_secs(2);
    let spec = WindowSpec::tumbling(SimDuration::from_secs(10)).with_lateness(lateness);
    let tenant = TenantId(0);
    let writer = ReplicaId(1);
    let mut w = WindowAggregator::new(spec);
    let mut gw = TwinStore::new();
    let mut cloud = TwinStore::new();
    let mut closed = Vec::new();
    for k in 0..REPORTS {
        let t_us = k * interval.as_micros();
        for d in 0..DEVICES {
            // Integral values keep window sums exact, so closed-window
            // equality across arms is independent of merge order.
            let value = ((k * 7 + u64::from(d)) % 29) as f64;
            gw.report(
                tenant,
                d,
                t_us + u64::from(d),
                writer,
                &format!("s{k}"),
                value,
            );
        }
        if t_us.is_multiple_of(backhaul.as_micros()) {
            let now = SimTime::from_micros(t_us);
            let parted = outage.is_some_and(|(from, to)| now >= from && now < to);
            if !parted {
                cloud.merge_windowed(&gw, &mut w);
            }
            closed.extend(w.advance_watermark(now));
        }
    }
    let horizon = SimTime::from_micros(REPORTS * interval.as_micros());
    cloud.merge_windowed(&gw, &mut w);
    closed.extend(w.advance_watermark(horizon));
    closed.extend(w.flush());
    closed.sort_by_key(|r| (r.start, r.key));
    (w, closed)
}

/// E18e: window correctness across a backhaul partition. A 20 s outage
/// buffers gateway reports; event-time attribution with
/// `allowed_lateness >= outage` reproduces the never-partitioned
/// baseline exactly (asserted), while zero lateness counts the
/// buffered samples late-dropped instead of mis-binning them.
pub fn e18_windows(rc: &RunConfig) -> Table {
    rc.table(
        "E18e: event-time windows across a 20 s backhaul partition (10 s tumbling; baseline equality asserted)",
        &["arm", "lateness (s)", "windows", "samples", "late dropped"],
        [Trial::new("e18/windows", SEED, |_| {
            let outage = (SimTime::from_secs(10), SimTime::from_secs(30));
            let outage_len = SimDuration::from_secs(20);
            let (base_agg, base) = windowed_backhaul(None, SimDuration::ZERO);
            let (covered_agg, covered) = windowed_backhaul(Some(outage), outage_len);
            let (dropped_agg, dropped) = windowed_backhaul(Some(outage), SimDuration::ZERO);

            assert_eq!(base_agg.late_total(), 0, "no outage, nothing late");
            assert_eq!(
                covered, base,
                "lateness covering the outage must reproduce the baseline windows"
            );
            assert_eq!(
                covered_agg.late_total(),
                0,
                "covered lateness drops nothing"
            );
            assert!(
                dropped_agg.late_total() > 0,
                "zero lateness must count late drops"
            );
            assert!(
                dropped_agg.observed() < base_agg.observed(),
                "late-dropped samples never reach a window"
            );
            assert_eq!(
                dropped_agg.observed() + dropped_agg.late_total(),
                base_agg.observed(),
                "every sample is either attributed or counted late — none vanish"
            );

            let row = |arm: &'static str,
                       lateness_s: f64,
                       agg: &WindowAggregator,
                       closed: &[WindowResult]| {
                vec![
                    Cell::label(arm),
                    Cell::f1(lateness_s),
                    Cell::int(closed.len() as f64),
                    Cell::int(agg.observed() as f64),
                    Cell::int(agg.late_total() as f64),
                ]
            };
            vec![
                row("no outage", 0.0, &base_agg, &base),
                row("outage, covered", 20.0, &covered_agg, &covered),
                row("outage, uncovered", 0.0, &dropped_agg, &dropped),
            ]
        })],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Runner;

    fn rc(jobs: usize) -> RunConfig {
        RunConfig {
            runner: Runner::new(jobs),
            trials: 1,
        }
    }

    #[test]
    fn tax_table_is_jobs_invariant_and_log_is_pure_overhead() {
        let a = e18_tax(&rc(1), &[50, 150]);
        let b = e18_tax(&rc(4), &[50, 150]);
        assert_eq!(a.rows(), b.rows());
        // Rows alternate off/on per point; the in-trial assert already
        // proved the stats identical, so off/on rows differ only in
        // the log columns.
        let rows = a.rows();
        assert_eq!(rows.len(), 4);
        for pair in rows.chunks(2) {
            assert_eq!(pair[0][0], pair[1][0], "same offered messages");
            assert_eq!(pair[0][2..5], pair[1][2..5], "virtual stats columns match");
            assert_eq!(pair[0][5], "-", "no log, no bytes");
            assert_ne!(pair[1][5], "-", "the logged arm reports its size");
        }
    }

    #[test]
    fn replay_and_recovery_tables_are_jobs_invariant() {
        let a = (e18_replay(&rc(1), 125), e18_recovery(&rc(1), 100));
        let b = (e18_replay(&rc(2), 125), e18_recovery(&rc(2), 100));
        assert_eq!(a.0.rows(), b.0.rows());
        assert_eq!(a.1.rows(), b.1.rows());
        // Every adversarial crash point produced a row and the bit-flip
        // arm flagged sealed damage.
        let rows = a.1.rows();
        assert_eq!(rows.len(), 6);
        assert_eq!(rows[5][3], "yes", "bit flip lands in a sealed segment");
        for r in &rows[..5] {
            assert_eq!(
                r[3], "no",
                "tears hit the active tail region flag-free: {r:?}"
            );
        }
    }

    #[test]
    fn admission_moves_the_noisy_tenants_loss_to_the_front_door() {
        // 2000 noisy devices x 64x multiplier ~= 128k msg/s against the
        // shared queue's 102.4k msg/s of aggregate drain capacity, so the
        // queues-only arm genuinely overflows (matches the E16b scale).
        let point = |stream| noisy_point(2_000, 64, queue_config(Isolation::Shared), stream, SEED);
        let queues = point(None);
        let admitted = point(Some(
            StreamConfig::default().with_admission(fair_share_limit()),
        ));
        // Queue-only shedding: the offender's burst sits in the shared
        // queue, so quiet tenants wait behind it.
        assert_eq!(
            queues.noisy_ratelimited, 0,
            "no admission control, no ratelimit sheds"
        );
        assert!(
            queues.noisy_queue_shed > 0,
            "the burst must overflow the shared queue"
        );
        // Fair-share admission: the offender sheds at the door instead,
        // the queue stays shallow, and the quiet tenants recover.
        assert!(
            admitted.noisy_ratelimited > 0,
            "admission must shed the offender"
        );
        assert!(
            admitted.noisy_queue_shed < queues.noisy_queue_shed,
            "rate-limited traffic must relieve the queue"
        );
        assert!(
            admitted.quiet_p99_ms < queues.quiet_p99_ms / 2.0,
            "quiet p99 must improve: {} -> {}",
            queues.quiet_p99_ms,
            admitted.quiet_p99_ms
        );
        assert_eq!(
            admitted.quiet_shed_pct, 0.0,
            "quiet tenants sit under their fair share"
        );
    }

    #[test]
    fn windows_table_shape() {
        let t = e18_windows(&rc(1));
        let rows = t.rows();
        assert_eq!(rows.len(), 3);
        // [arm, lateness, windows, samples, late dropped]
        assert_eq!(rows[0][4], "0");
        assert_eq!(rows[1][4], "0");
        assert_ne!(rows[2][4], "0", "uncovered arm must count late drops");
        assert_eq!(
            rows[0][3], rows[1][3],
            "covered arm attributes every sample"
        );
    }
}
