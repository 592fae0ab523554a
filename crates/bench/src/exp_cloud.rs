//! Cloud-tier experiments: E16 load-tests the `iiot-cloud` northbound
//! platform with 10^5–10^6 deterministic synthetic device sessions.
//!
//! Four questions, each one table:
//!
//! * **ingest scaling** — throughput, p50/p99 queue latency and shed
//!   rate as the session count grows past the drain capacity of a
//!   fixed pipeline configuration (the cloud-tier analogue of E5's
//!   network-size scaling);
//! * **tenant fairness** — a noisy-neighbor tenant reporting up to
//!   64× faster than everyone else, under per-tenant queues vs one
//!   shared queue (E6's interference story, moved up the stack): how
//!   far can the noisy tenant push a quiet tenant's p99 and shed rate?
//! * **overload & shed policy** — utilization swept through 1.0 with
//!   both [`ShedPolicy`] arms: what saturates, what sheds, and what
//!   latency the survivors see;
//! * **gateway bridge** — E1's Modbus/GATT/TLV gateway attached to a
//!   root-only [`Deployment`], whose northbound path feeds the
//!   pipeline and writes a downlink command back through the gateway's
//!   CoAP surface.
//!
//! All reported quantities are virtual-time statistics — pure
//! functions of `(plan, config, seed)` — so every table is
//! byte-identical at any `--jobs`, like the rest of the suite. Wall
//! clock for this tier is `benchmark/`'s `cloud_stream` workload.

use crate::exp_interop::demo_gateway;
use crate::exp_stream::{
    capacity_per_sec, merged_latency, noisy_point, queue_config, run_streamed, TENANTS,
};
use crate::runner::{Cell, Trial};
use crate::table::Table;
use crate::RunConfig;
use iiot_cloud::{metrics, Command, IngestConfig, Isolation, SessionPlan, ShedPolicy, TenantId};
use iiot_core::{Deployment, POLL};
use iiot_sim::{SimDuration, Topology};

/// E16's base seed (experiment id, like `0xE14` for dissemination).
const SEED: u64 = 0xE16;

// ---------------------------------------------------------------- E16a

/// E16a over a per-tenant device axis: ingest scaling at fixed
/// capacity. Total sessions per point = `4 × devices`.
pub fn e16_ingest(rc: &RunConfig, devices_axis: &[u32]) -> Table {
    let config = IngestConfig::default();
    let cap = capacity_per_sec(&config, TENANTS as u64);
    rc.table(
        "E16a: cloud ingest scaling at fixed drain capacity (4 tenants, 4 msgs/session, 1 s interval)",
        &[
            "sessions", "msgs", "utilization", "accepted", "shed",
            "p50 (ms)", "p99 (ms)", "fairness",
        ],
        devices_axis
            .iter()
            .map(|&devices| {
                Trial::new(
                    format!("e16/ingest/{}", devices * TENANTS as u32),
                    SEED,
                    move |s| {
                        let pipe = run_streamed(devices, SessionPlan::default(), config, None, s);
                        let (offered, accepted, shed, drained) = pipe.totals();
                        assert_eq!(accepted, drained, "drain must account for every admission");
                        let lat = merged_latency(&pipe);
                        let fairness = metrics::service_fairness(&metrics::summarize(&pipe));
                        // Mean offered rate over the run's horizon.
                        let horizon_s = pipe.now().as_micros() as f64 / 1e6;
                        let rho = offered as f64 / horizon_s / cap;
                        vec![vec![
                            Cell::int((devices * TENANTS as u32) as f64),
                            Cell::int(offered as f64),
                            Cell::f3(rho),
                            Cell::pct(accepted as f64 / offered as f64),
                            Cell::pct(shed as f64 / offered as f64),
                            Cell::f1(lat.quantile(0.5) / 1000.0),
                            Cell::f1(lat.quantile(0.99) / 1000.0),
                            Cell::f3(fairness),
                        ]]
                    },
                )
            }),
    )
}

// ---------------------------------------------------------------- E16b

/// E16b over noisy-rate multipliers at `devices` devices per tenant:
/// per-tenant isolation vs a shared queue under a noisy neighbor.
pub fn e16_fairness(rc: &RunConfig, multipliers: &[u32], devices: u32) -> Table {
    rc.table(
        "E16b: noisy-neighbor fairness — per-tenant queues vs one shared queue (equal aggregate capacity)",
        &[
            "noisy rate", "isolation", "quiet p99 (ms)", "quiet shed",
            "noisy accepted", "fairness", "quiet sheds a/r/f",
        ],
        multipliers
            .iter()
            .flat_map(|&m| {
                [
                    (Isolation::PerTenant, "per-tenant"),
                    (Isolation::Shared, "shared"),
                ]
                .into_iter()
                .map(move |(iso, name)| {
                    Trial::new(format!("e16/fairness/x{m}/{name}"), SEED, move |s| {
                        let p = noisy_point(devices, m, queue_config(iso), None, s);
                        let (auth, ratelimit, full) = p.quiet_shed_causes;
                        vec![vec![
                            Cell::label(format!("{m}x")),
                            Cell::label(name),
                            Cell::f1(p.quiet_p99_ms),
                            Cell::pct(p.quiet_shed_pct),
                            Cell::pct(p.noisy_accept_pct),
                            Cell::f3(p.fairness),
                            Cell::label(format!("{auth}/{ratelimit}/{full}")),
                        ]]
                    })
                })
            }),
    )
}

// ---------------------------------------------------------------- E16c

/// E16c's plan at utilization `rho` of `cap` msg/s, `devices` per
/// tenant: the interval is compressed, not the fleet grown (rho =
/// sessions / interval / cap), and 16-message sessions sustain the
/// overload well past what the queue buffer absorbs.
pub fn overload_plan(rho: f64, devices: u32, cap: f64) -> SessionPlan {
    let sessions = (devices * TENANTS as u32) as f64;
    let interval_us = (sessions / (rho * cap) * 1e6) as u64;
    SessionPlan {
        msgs_per_device: 16,
        interval: SimDuration::from_micros(interval_us.max(1)),
        jitter: SimDuration::from_micros((interval_us / 5).max(1)),
        ..SessionPlan::default()
    }
}

/// E16c over target utilizations at `devices` devices per tenant:
/// overload behavior of both shed policies around and past saturation.
pub fn e16_overload(rc: &RunConfig, rhos: &[f64], devices: u32) -> Table {
    let config = IngestConfig::default();
    let cap = capacity_per_sec(&config, TENANTS as u64);
    rc.table(
        "E16c: overload and shed policy (10k sessions, utilization swept by interval compression, queue cap 1024)",
        &[
            "utilization", "policy", "accepted", "shed", "p50 (ms)", "p99 (ms)", "max depth",
        ],
        rhos
            .iter()
            .flat_map(|&rho| {
                [
                    (ShedPolicy::RejectNew, "reject-new"),
                    (ShedPolicy::DropOldest, "drop-oldest"),
                ]
                .into_iter()
                .map(move |(policy, name)| {
                    Trial::new(format!("e16/overload/rho{rho:.1}/{name}"), SEED, move |s| {
                        let plan = overload_plan(rho, devices, cap);
                        let pipe =
                            run_streamed(devices, plan, IngestConfig { policy, ..config }, None, s);
                        let (offered, accepted, shed, _) = pipe.totals();
                        let lat = merged_latency(&pipe);
                        let max_depth = pipe.stats().map(|(_, st)| st.max_depth).max().unwrap_or(0);
                        assert!(
                            max_depth as usize <= config.queue_cap,
                            "bounded queue exceeded its cap"
                        );
                        vec![vec![
                            Cell::f1(rho),
                            Cell::label(name),
                            Cell::pct(accepted as f64 / offered as f64),
                            Cell::pct(shed as f64 / offered as f64),
                            Cell::f1(lat.quantile(0.5) / 1000.0),
                            Cell::f1(lat.quantile(0.99) / 1000.0),
                            Cell::int(max_depth as f64),
                        ]]
                    })
                })
            }),
    )
}

// ---------------------------------------------------------------- E16d

/// E16d: the full northbound stack as one root-only [`Deployment`] —
/// E1's Modbus/GATT/TLV gateway polled on the [`POLL`] grid, carried by
/// its [`Northbound`](iiot_core::Northbound) into registry-checked
/// ingest, and a downlink command through the gateway's CoAP surface
/// back out to the Modbus valve, whose setpoint the last column reads
/// from its twin.
pub fn e16_bridge(rc: &RunConfig) -> Table {
    rc.table(
        "E16d: gateway -> cloud bridge round trip (Modbus/GATT/TLV southbound, CoAP downlink command)",
        &["polls", "uplinks", "accepted", "commands ok", "setpoint after"],
        [Trial::new("e16/bridge", SEED, |s| {
            let mut d = Deployment::builder(Topology::line(1, 20.0)).seed(s).build();
            d.attach_gateway(demo_gateway(), "plant/cell", Vec::new());
            // Forty-nine grid polls, 0 to 48 s; the fiftieth applies the
            // command queued after them.
            d.run_for(POLL * 48);
            let north = d.north.as_mut().expect("attached");
            north.command(Command {
                tenant: TenantId(0),
                point: "plant/boiler/valve".into(),
                value: 65.0,
            });
            d.run_for(POLL);

            let north = d.north.as_ref().expect("attached");
            let polls = d.sim.now().as_micros() / POLL.as_micros() + 1;
            let (offered, accepted, _, _) = north.cloud().totals();
            let ok = north.commands.iter().filter(|c| c.ok).count();
            let valve = north
                .twin("plant/boiler/valve")
                .and_then(|twin| twin.reported.get(&"value".to_owned()).copied())
                .unwrap_or(f64::NAN);
            vec![vec![
                Cell::int(polls as f64),
                Cell::int(offered as f64),
                Cell::pct(accepted as f64 / offered.max(1) as f64),
                Cell::int(ok as f64),
                Cell::f1(valve),
            ]]
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
    fn ingest_tables_are_jobs_invariant() {
        let a = e16_ingest(&rc(1), &[50, 150]);
        let b = e16_ingest(&rc(4), &[50, 150]);
        assert_eq!(a.rows(), b.rows());
    }

    #[test]
    fn fairness_shared_queue_hurts_the_quiet_tenants_more() {
        // 2000 devices at 64x saturates the shared queue (the noisy
        // tenant alone offers ~116k msg/s against 102.4k msg/s of
        // aggregate capacity), so the arms genuinely diverge here.
        let point = |iso| noisy_point(2_000, 64, queue_config(iso), None, SEED);
        let iso = point(Isolation::PerTenant);
        let shared = point(Isolation::Shared);
        // Isolation bounds the quiet tenants' damage: no shed, and p99
        // capped by one queue's drain time (cap/batch + 1 ticks = 50ms).
        assert_eq!(
            iso.quiet_shed_pct, 0.0,
            "isolated quiet tenants must not shed"
        );
        assert!(
            iso.quiet_p99_ms <= 50.0,
            "isolated quiet p99 {} > 50ms",
            iso.quiet_p99_ms
        );
        // The shared queue passes the noisy burst through to everyone.
        assert!(
            shared.quiet_p99_ms > 2.0 * iso.quiet_p99_ms,
            "shared quiet p99 {} must exceed isolated {}",
            shared.quiet_p99_ms,
            iso.quiet_p99_ms
        );
        assert!(
            shared.quiet_shed_pct > 0.0,
            "shared queue must shed quiet traffic"
        );
        // Per-cause breakdown: with no admission control configured and
        // valid credentials throughout, every quiet-tenant shed must be
        // attributed to queue backpressure — the summaries' cause
        // columns account for the loss exactly.
        let (auth, ratelimit, full) = shared.quiet_shed_causes;
        assert_eq!(
            auth, 0,
            "fairness plan uses valid tokens; no auth sheds expected"
        );
        assert_eq!(
            ratelimit, 0,
            "no admission control attached; no rate-limit sheds"
        );
        assert!(full > 0, "quiet-tenant loss must show up as shed_full");
        assert_eq!(
            iso.quiet_shed_causes,
            (0, 0, 0),
            "isolated quiet tenants shed nothing"
        );
        // The service-ratio Jain index is *higher* for the shared queue:
        // FIFO "equalizes" by degrading every tenant together, while
        // isolation concentrates loss on the offender. Fairness to the
        // quiet tenants is read from the p99/shed columns, not this one.
        assert!(
            shared.fairness >= iso.fairness,
            "shared FIFO equalizes service ratios ({} < {})",
            shared.fairness,
            iso.fairness
        );
        assert!(
            shared.noisy_accept_pct > iso.noisy_accept_pct,
            "shared queue must let the offender through at the quiet tenants' expense"
        );
    }

    #[test]
    fn overload_sheds_past_saturation_but_never_below() {
        let t = e16_overload(&rc(2), &[0.5, 2.0], 250);
        // rows: [rho, policy, accepted, shed, p50, p99, max_depth]
        let shed_pct = |row: &Vec<String>| {
            row[3]
                .trim_end_matches('%')
                .parse::<f64>()
                .expect("shed cell")
        };
        let rows = t.rows();
        assert_eq!(rows.len(), 4);
        assert!(
            shed_pct(&rows[0]) < 1.0,
            "rho 0.5 must not shed: {:?}",
            rows[0]
        );
        assert!(
            shed_pct(&rows[3]) > 20.0,
            "rho 2.0 must shed hard: {:?}",
            rows[3]
        );
    }

    #[test]
    fn bridge_round_trip_applies_the_downlink_command() {
        let t = e16_bridge(&rc(1));
        let rows = t.rows();
        assert_eq!(rows.len(), 1);
        // [polls, uplinks, accepted, commands ok, setpoint after]
        let polls: u64 = rows[0][0].parse().expect("polls");
        let uplinks: u64 = rows[0][1].parse().expect("uplinks");
        assert_eq!(uplinks, polls * 6, "each poll carries the six points once");
        assert_eq!(rows[0][3], "1", "command must ack: {:?}", rows[0]);
        assert_eq!(rows[0][4], "65.0", "setpoint must apply: {:?}", rows[0]);
    }
}
