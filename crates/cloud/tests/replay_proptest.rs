//! Property tests for the front door's drive loop. `replay` over
//! damaged logs: for any generated offer sequence, stream configuration
//! and torn cut or single-bit flip of the write-ahead log it leaves,
//! replaying the damaged bytes gives exactly what recovering them into
//! a log and re-offering that log's records gives — per-tenant
//! summaries, closed windows, the re-persisted log bytes, the recovery
//! report and every trace event. And `offer` owns its drain: offering
//! alone equals running `drain_until` to each arrival first.

use iiot_cloud::{
    decode_uplink, metrics, replay, DeviceRegistry, IngestConfig, IngestPipeline, StreamConfig,
    TenantId, UplinkMsg,
};
use iiot_security::Key;
use iiot_sim::obs::{Event, Recorder, RingRecorder};
use iiot_sim::{SimDuration, SimTime};
use iiot_stream::{EventLog, LogConfig, RateLimit, RecoveryReport, WindowSpec};
use proptest::prelude::*;

fn registry() -> DeviceRegistry {
    let mut reg = DeviceRegistry::new();
    for name in ["a", "b"] {
        let t = reg.create_tenant(name, Key([name.as_bytes()[0]; 16]));
        reg.register_fleet(t, 20);
    }
    reg
}

fn config() -> IngestConfig {
    IngestConfig {
        queue_cap: 16,
        drain_batch: 4,
        ..IngestConfig::default()
    }
}

/// Recover the bytes into a log, then re-offer its records through a
/// fresh pipeline: how `replay` worked before it walked the bytes in
/// place, kept here as its oracle.
fn recover_then_offer(
    bytes: &[u8],
    stream: StreamConfig,
    recorder: Box<dyn Recorder>,
) -> (IngestPipeline, RecoveryReport) {
    let log_config = stream.log.unwrap_or_default();
    let (log, report) = EventLog::recover(bytes, log_config);
    let mut pipeline = IngestPipeline::new(registry(), config());
    pipeline.attach_stream(StreamConfig {
        log: Some(log_config),
        ..stream
    });
    pipeline.set_recorder(Some(recorder));
    for (_, payload) in log.iter_from(0) {
        if let Some(msg) = decode_uplink(payload) {
            pipeline.offer(msg);
        }
    }
    pipeline.drain_remaining();
    pipeline.flush_windows();
    (pipeline, report)
}

fn events(p: &mut IngestPipeline) -> Vec<Event> {
    let rec = p.take_recorder().expect("recorder installed");
    let ring = rec.as_any().downcast_ref::<RingRecorder>().expect("ring");
    ring.events().copied().collect()
}

/// One offer: `(tenant, device, forged token?, value, µs since the
/// previous offer)`. Tenant 2 is unknown to the registry.
type Offer = (u16, u32, bool, f64, u64);

fn offers() -> impl Strategy<Value = Vec<Offer>> {
    let offer = (
        0u16..3,
        0u32..20,
        (0u8..10).prop_map(|k| k == 0),
        -50.0f64..50.0,
        0u64..3_000,
    );
    proptest::collection::vec(offer, 1..300)
}

/// What happens to the log before it is replayed.
#[derive(Clone, Debug)]
enum Damage {
    None,
    Cut(f64),
    Flip(u64, u8),
}

fn damage() -> impl Strategy<Value = Damage> {
    prop_oneof![
        Just(Damage::None),
        (0.0f64..1.0).prop_map(Damage::Cut),
        (any::<u64>(), 0u8..8).prop_map(|(pick, bit)| Damage::Flip(pick, bit)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn replay_equals_recover_then_offer(
        offers in offers(),
        segment_bytes in 64usize..2048,
        admission in any::<bool>(),
        damage in damage(),
    ) {
        let mut stream = StreamConfig::logged(LogConfig { segment_bytes })
            .with_windows(WindowSpec::tumbling(SimDuration::from_millis(50)));
        if admission {
            stream = stream.with_admission(RateLimit::per_sec(2_000, 10));
        }
        let mut live = IngestPipeline::new(registry(), config());
        live.attach_stream(stream.clone());
        let mut t = 0u64;
        for (tenant, device, forged, value, dt) in offers {
            t += dt;
            let tenant = TenantId(tenant);
            let token = live.registry().token(tenant, device).unwrap_or(0) ^ forged as u64;
            let msg = UplinkMsg { tenant, device, token, value, t: SimTime::from_micros(t) };
            live.offer(msg);
        }
        let mut bytes = live.wal().expect("wal attached").as_bytes().to_vec();
        match damage {
            Damage::None => {}
            Damage::Cut(frac) => bytes.truncate((bytes.len() as f64 * frac) as usize),
            Damage::Flip(pick, bit) => {
                let off = (pick % bytes.len() as u64) as usize;
                bytes[off] ^= 1 << bit;
            }
        }

        let (mut got, report) = replay(
            &bytes,
            registry(),
            config(),
            stream.clone(),
            Some(Box::new(RingRecorder::new(1 << 14))),
        );
        let (mut want, want_report) =
            recover_then_offer(&bytes, stream, Box::new(RingRecorder::new(1 << 14)));
        prop_assert_eq!(report, want_report);
        prop_assert_eq!(metrics::summarize(&got), metrics::summarize(&want));
        prop_assert_eq!(got.closed_windows(), want.closed_windows());
        prop_assert_eq!(
            got.wal().expect("wal").as_bytes(),
            want.wal().expect("wal").as_bytes()
        );
        prop_assert_eq!(events(&mut got), events(&mut want));
    }

    #[test]
    fn offer_alone_equals_drain_until_then_offer(
        offers in offers(),
        segment_bytes in 64usize..2048,
        admission in any::<bool>(),
    ) {
        let mut stream = StreamConfig::logged(LogConfig { segment_bytes })
            .with_windows(WindowSpec::tumbling(SimDuration::from_millis(50)));
        if admission {
            stream = stream.with_admission(RateLimit::per_sec(2_000, 10));
        }
        let pipeline = || {
            let mut p = IngestPipeline::new(registry(), config());
            p.attach_stream(stream.clone());
            p.set_recorder(Some(Box::new(RingRecorder::new(1 << 14))));
            p
        };
        let (mut alone, mut drained) = (pipeline(), pipeline());
        let mut t = 0u64;
        for (tenant, device, forged, value, dt) in offers {
            t += dt;
            let tenant = TenantId(tenant);
            let token = alone.registry().token(tenant, device).unwrap_or(0) ^ forged as u64;
            let msg = UplinkMsg { tenant, device, token, value, t: SimTime::from_micros(t) };
            alone.offer(msg);
            drained.drain_until(msg.t);
            drained.offer(msg);
        }
        for p in [&mut alone, &mut drained] {
            p.drain_remaining();
            p.flush_windows();
        }
        prop_assert_eq!(metrics::summarize(&alone), metrics::summarize(&drained));
        prop_assert_eq!(alone.closed_windows(), drained.closed_windows());
        prop_assert_eq!(
            alone.wal().expect("wal").as_bytes(),
            drained.wal().expect("wal").as_bytes()
        );
        prop_assert_eq!(events(&mut alone), events(&mut drained));
    }
}
