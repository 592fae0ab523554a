//! Property test for `SessionGen`: for any generated fleet and plan, the
//! merged stream is every session's own schedule, computed on its own and
//! sorted by `(t, tenant, device, index)` — an oracle that keeps no
//! queue, so it checks the calendar's merge rather than repeating it.

use iiot_cloud::{DeviceRegistry, SessionGen, SessionPlan, TenantId, UplinkMsg};
use iiot_security::Key;
use iiot_sim::{seed, SimDuration, SimTime};
use proptest::prelude::*;

fn registry(fleets: &[u32]) -> DeviceRegistry {
    let mut reg = DeviceRegistry::new();
    for (i, &n) in fleets.iter().enumerate() {
        let t = reg.create_tenant(&format!("t{i}"), Key([i as u8 + 1; 16]));
        reg.register_fleet(t, n);
    }
    reg
}

/// One session's messages, each keyed `(t, tenant, device, index)`: the
/// same `seed::derive` chain and saturating schedule the generator
/// documents, walked for one device alone.
fn schedule(
    reg: &DeviceRegistry,
    plan: &SessionPlan,
    master: u64,
    tenant: TenantId,
    device: u32,
) -> Vec<((u64, TenantId, u32, u32), UplinkMsg)> {
    let mult = match plan.noisy {
        Some((noisy, m)) if noisy == tenant => m.max(1) as u64,
        _ => 1,
    };
    let interval = plan.interval.as_micros() / mult;
    let jitter = plan.jitter.as_micros() / mult;
    let mut rng = seed::derive(master, ((tenant.0 as u64) << 32) | device as u64);
    let mut t = rng % interval.max(1);
    let mut out = Vec::new();
    for index in 0..plan.msgs_per_device {
        let msg = UplinkMsg {
            tenant,
            device,
            token: reg.token(tenant, device).expect("registered"),
            value: 20.0 + (rng % 1000) as f64 / 100.0,
            t: SimTime::from_micros(t),
        };
        out.push(((t, tenant, device, index), msg));
        let remaining = plan.msgs_per_device - index;
        rng = seed::derive(rng, remaining as u64);
        let j = if jitter == 0 { 0 } else { rng % jitter };
        t = t.saturating_add(interval).saturating_add(j);
    }
    out
}

fn fleets() -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(0u32..24, 0..=4)
}

/// Intervals from none through ones that pass the session calendar's
/// 4.2 s horizon (so reports spill to its overflow heap) to ones that
/// run past the end of time.
fn interval() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..4,
        0u64..2_000_000,
        3_000_000u64..12_000_000,
        (u64::MAX / 4)..u64::MAX,
    ]
}

fn plan() -> impl Strategy<Value = SessionPlan> {
    (
        0u32..=6,
        interval(),
        // Zero jitter makes tie-heavy streams.
        prop_oneof![Just(0u64), 0u64..3_000_000],
        // A noisy tenant, or none; its multiplier can exceed the
        // interval, compressing it to zero.
        (any::<bool>(), 0u16..5, 0u32..40),
    )
        .prop_map(|(msgs, interval, jitter, (noisy, t, m))| SessionPlan {
            msgs_per_device: msgs,
            interval: SimDuration::from_micros(interval),
            jitter: SimDuration::from_micros(jitter),
            noisy: noisy.then_some((TenantId(t), m)),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn the_stream_is_every_sessions_schedule_sorted(
        fleets in fleets(),
        plan in plan(),
        master in any::<u64>(),
    ) {
        let reg = registry(&fleets);
        let mut want = Vec::new();
        for tenant in reg.tenants() {
            for device in 0..reg.fleet_size(tenant) {
                want.extend(schedule(&reg, &plan, master, tenant, device));
            }
        }
        want.sort_by_key(|(key, _)| *key);

        let mut gen = SessionGen::new(&reg, plan, master);
        let mut got = Vec::new();
        while let Some(m) = gen.next_msg(&reg) {
            got.push(m);
        }
        prop_assert_eq!(got.len(), want.len());
        prop_assert_eq!(gen.emitted(), gen.total_msgs());
        for (i, (g, (_, w))) in got.iter().zip(&want).enumerate() {
            prop_assert_eq!(
                (g.t, g.tenant, g.device, g.token, g.value.to_bits()),
                (w.t, w.tenant, w.device, w.token, w.value.to_bits()),
                "message {}", i
            );
        }
    }
}
