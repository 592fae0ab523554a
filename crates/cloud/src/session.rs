//! Deterministic synthetic device sessions: the load generator that
//! feeds E16 its 10^5–10^6 uplinks.
//!
//! Every registered device runs one *session*: it wakes at a seeded
//! phase inside its reporting interval and then reports periodically
//! with seeded jitter, for a configured number of messages. The
//! generator merges all sessions into one globally time-ordered stream
//! on the kernel's calendar queue ([`iiot_sim::queue::Calendar`]) with
//! buckets wide enough that a session's next report lands inside the
//! ring, and every quantity (phase, jitter, value) derives from the
//! master seed via [`iiot_sim::seed::derive`], so the stream is a pure
//! function of `(plan, seed)`: same bytes on every machine, every
//! `--jobs`.

use crate::ingest::UplinkMsg;
use crate::registry::DeviceRegistry;
use crate::tenant::TenantId;
use iiot_sim::queue::{Calendar, Timed};
use iiot_sim::seed;
use iiot_sim::{SimDuration, SimTime};

/// Shape of the synthetic fleet's traffic.
#[derive(Clone, Copy, Debug)]
pub struct SessionPlan {
    /// Messages each device sends before its session ends.
    pub msgs_per_device: u32,
    /// Mean reporting interval.
    pub interval: SimDuration,
    /// Uniform jitter added to each interval, `[0, jitter)`.
    pub jitter: SimDuration,
    /// Optional noisy-neighbor tenant: reports `multiplier`× faster
    /// than everyone else — its interval *and* jitter are both
    /// compressed by the multiplier (E16's cross-tenant pressure
    /// source).
    pub noisy: Option<(TenantId, u32)>,
}

impl Default for SessionPlan {
    fn default() -> Self {
        SessionPlan {
            msgs_per_device: 4,
            interval: SimDuration::from_millis(1000),
            jitter: SimDuration::from_millis(200),
            noisy: None,
        }
    }
}

/// One pending session wake-up in the calendar. Its derived `Ord` is
/// unique among pending wake-ups (one per `(tenant, device)`) and orders
/// by time first, as [`Timed`] asks, so the calendar pops the exact
/// order a binary heap would.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
struct Wakeup {
    /// Next report instant, µs. First key: the stream is time-ordered.
    t_us: u64,
    /// Tie-breakers make simultaneous wake-ups deterministic.
    tenant: TenantId,
    device: u32,
    /// Messages this session still owes.
    remaining: u32,
    /// Per-session RNG state (advanced with [`seed::derive`]).
    rng: u64,
}

impl Timed for Wakeup {
    fn at(&self) -> SimTime {
        SimTime::from_micros(self.t_us)
    }
}

/// log2 of the session calendar's bucket width: 1,024 µs buckets, so its
/// 4,096-bucket ring reaches 4.2 s ahead and a default plan's next report,
/// 1.0–1.2 s on, is filed in the ring rather than spilled to its overflow
/// heap (at the kernel's 256 µs the ring reaches 1.05 s, and most of them
/// spill). Generating `cloud_stream`'s 1.6 M messages took alike at 1,024,
/// 2,048 and 4,096 µs (medians of five alternating runs 374, 356 and
/// 356 ms, spread over 270–580 ms); the narrowest keeps the sorted runs
/// shortest, about a hundred sessions a bucket at 10^5 sessions.
const SHIFT: u32 = 10;

/// The merged session stream; see the [module docs](self).
pub struct SessionGen {
    calendar: Calendar<Wakeup, SHIFT>,
    plan: SessionPlan,
    sessions: u64,
    emitted: u64,
}

impl SessionGen {
    /// Schedules one session per device registered in `registry`.
    pub fn new(registry: &DeviceRegistry, plan: SessionPlan, master_seed: u64) -> Self {
        let mut calendar = Calendar::new();
        calendar.reserve_ahead(registry.device_count() as usize);
        let mut sessions = 0u64;
        for tenant in registry.tenants() {
            for device in 0..registry.fleet_size(tenant) {
                let sid = ((tenant.0 as u64) << 32) | device as u64;
                let rng = seed::derive(master_seed, sid);
                // Wake at a seeded phase inside the first interval so
                // the fleet doesn't report in lockstep.
                let phase = rng % Self::effective_interval(&plan, tenant).max(1);
                if plan.msgs_per_device > 0 {
                    calendar.push(Wakeup {
                        t_us: phase,
                        tenant,
                        device,
                        remaining: plan.msgs_per_device,
                        rng,
                    });
                }
                sessions += 1;
            }
        }
        SessionGen {
            calendar,
            plan,
            sessions,
            emitted: 0,
        }
    }

    fn noisy_mult(plan: &SessionPlan, tenant: TenantId) -> u64 {
        match plan.noisy {
            Some((noisy, mult)) if noisy == tenant => mult.max(1) as u64,
            _ => 1,
        }
    }

    fn effective_interval(plan: &SessionPlan, tenant: TenantId) -> u64 {
        plan.interval.as_micros() / Self::noisy_mult(plan, tenant)
    }

    fn effective_jitter(plan: &SessionPlan, tenant: TenantId) -> u64 {
        plan.jitter.as_micros() / Self::noisy_mult(plan, tenant)
    }

    /// Number of scheduled sessions.
    pub fn sessions(&self) -> u64 {
        self.sessions
    }

    /// Total messages the stream will emit.
    pub fn total_msgs(&self) -> u64 {
        self.sessions * self.plan.msgs_per_device as u64
    }

    /// Messages emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// The next uplink in global time order, stamped with the device's
    /// registered credential; `None` when every session has finished.
    pub fn next_msg(&mut self, registry: &DeviceRegistry) -> Option<UplinkMsg> {
        let w = self.calendar.pop_until(SimTime::MAX)?;
        // Seeded synthetic telemetry in a plausible sensor range.
        let value = 20.0 + (w.rng % 1000) as f64 / 100.0;
        let msg = UplinkMsg {
            tenant: w.tenant,
            device: w.device,
            token: registry.token(w.tenant, w.device).unwrap_or(0),
            value,
            t: SimTime::from_micros(w.t_us),
        };
        if w.remaining > 1 {
            let rng = seed::derive(w.rng, w.remaining as u64);
            let jitter_range = Self::effective_jitter(&self.plan, w.tenant);
            let jitter = if jitter_range == 0 {
                0
            } else {
                rng % jitter_range
            };
            // Saturating: a report past the end of time stays there,
            // rather than wrapping into the past.
            let t_us = w
                .t_us
                .saturating_add(Self::effective_interval(&self.plan, w.tenant))
                .saturating_add(jitter);
            self.calendar.push(Wakeup {
                t_us,
                tenant: w.tenant,
                device: w.device,
                remaining: w.remaining - 1,
                rng,
            });
        }
        self.emitted += 1;
        Some(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iiot_security::Key;

    fn registry(tenants: u16, devices: u32) -> DeviceRegistry {
        let mut r = DeviceRegistry::new();
        for i in 0..tenants {
            let t = r.create_tenant(&format!("t{i}"), Key([i as u8 + 1; 16]));
            r.register_fleet(t, devices);
        }
        r
    }

    fn drain(reg: &DeviceRegistry, plan: SessionPlan, seed: u64) -> Vec<UplinkMsg> {
        let mut g = SessionGen::new(reg, plan, seed);
        let mut out = Vec::new();
        while let Some(m) = g.next_msg(reg) {
            out.push(m);
        }
        out
    }

    #[test]
    fn stream_is_time_ordered_and_complete() {
        let reg = registry(3, 20);
        let msgs = drain(&reg, SessionPlan::default(), 42);
        assert_eq!(msgs.len(), 3 * 20 * 4);
        for w in msgs.windows(2) {
            assert!(w[0].t <= w[1].t, "stream must be nondecreasing in time");
        }
    }

    #[test]
    fn stream_is_a_pure_function_of_plan_and_seed() {
        let reg = registry(2, 30);
        let a = drain(&reg, SessionPlan::default(), 7);
        let b = drain(&reg, SessionPlan::default(), 7);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                (x.tenant, x.device, x.t, x.token),
                (y.tenant, y.device, y.t, y.token)
            );
        }
        let c = drain(&reg, SessionPlan::default(), 8);
        assert!(
            a.iter().zip(&c).any(|(x, y)| x.t != y.t),
            "different seed must move the schedule"
        );
    }

    #[test]
    fn noisy_tenant_reports_faster() {
        let reg = registry(2, 50);
        let plan = SessionPlan {
            msgs_per_device: 8,
            noisy: Some((TenantId(0), 8)),
            ..SessionPlan::default()
        };
        let msgs = drain(&reg, plan, 42);
        let horizon = |t: TenantId| {
            msgs.iter()
                .filter(|m| m.tenant == t)
                .map(|m| m.t.as_micros())
                .max()
                .unwrap()
        };
        assert!(
            horizon(TenantId(0)) * 4 < horizon(TenantId(1)),
            "noisy tenant must compress its schedule"
        );
    }

    #[test]
    fn generated_msgs_authenticate() {
        let reg = registry(2, 10);
        for m in drain(&reg, SessionPlan::default(), 42) {
            assert!(reg.authenticate(m.tenant, m.device, m.token).is_ok());
        }
    }

    #[test]
    fn a_zero_message_plan_emits_nothing() {
        let reg = registry(2, 10);
        let plan = SessionPlan {
            msgs_per_device: 0,
            ..SessionPlan::default()
        };
        let mut g = SessionGen::new(&reg, plan, 42);
        assert!(g.next_msg(&reg).is_none());
        assert_eq!(g.emitted(), g.total_msgs());
        assert_eq!(g.total_msgs(), 0);
    }

    #[test]
    fn a_session_past_the_end_of_time_saturates() {
        // Reports come 2^63 µs apart, so the third is due past u64::MAX
        // µs: it and the fourth land at the end of time instead of
        // wrapping into the past.
        let reg = registry(2, 5);
        let plan = SessionPlan {
            msgs_per_device: 4,
            interval: SimDuration::from_micros(u64::MAX / 2 + 1),
            jitter: SimDuration::from_micros(1_000),
            noisy: None,
        };
        let msgs = drain(&reg, plan, 42);
        assert_eq!(msgs.len(), 2 * 5 * 4);
        for w in msgs.windows(2) {
            assert!(w[0].t <= w[1].t, "stream must be nondecreasing in time");
        }
        assert_eq!(msgs.last().map(|m| m.t), Some(SimTime::MAX));
    }

    #[test]
    fn the_benchmark_plan_files_every_report_in_the_ring() {
        // `cloud_stream`'s shape: 16 reports 1.0 s + [0, 200) ms apart.
        // Every next report lands inside the calendar's horizon, so none
        // spills to its overflow heap: the reason for its bucket width.
        let reg = registry(4, 2_500);
        let plan = SessionPlan {
            msgs_per_device: 16,
            ..SessionPlan::default()
        };
        let mut g = SessionGen::new(&reg, plan, 1);
        while g.next_msg(&reg).is_some() {}
        assert_eq!(g.emitted(), 10_000 * 16);
        assert_eq!(g.calendar.spills(), 0);
    }
}
