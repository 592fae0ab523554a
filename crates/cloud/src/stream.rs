//! The cloud tier's stream plane: write-ahead uplink logging, replay,
//! and the uplink wire codec.
//!
//! # Write-ahead ordering and replay fidelity
//!
//! When a [`StreamConfig`] attaches an event log to the
//! [`IngestPipeline`], the front door appends every offered uplink to
//! the log **before** admission control, authentication or enqueueing.
//! The log therefore captures the complete offer sequence — including
//! messages that were subsequently rate-limited, rejected for bad
//! credentials, or shed to backpressure. [`replay`] rebuilds a fresh
//! pipeline under the same configuration and re-offers the logged
//! sequence through the same drive loop (the drain ticks due before
//! each arrival, then the front door, then `drain_remaining()`, then
//! flush the windows).
//! Because every statistic the pipeline reports is a pure function of
//! the offer sequence and configuration, the replayed run reproduces
//! the live run's per-tenant stats, emitted trace events and closed
//! windows exactly.
//!
//! The log is adopted, not re-persisted: one walk CRC-checks each
//! frame, files it as [`EventLog::recover`] does and offers its uplink,
//! and the verified prefix becomes the replayed pipeline's write-ahead
//! log, so no record is encoded or appended twice. A frame that does not
//! decode as an uplink stays in the log and offers nothing, not even its
//! segment's `StreamSeal`; the pipeline writes only uplink frames.
//!
//! # Wire format
//!
//! Uplinks persist as fixed [`UPLINK_FRAME`]-byte little-endian
//! records: tenant (u16), device (u32), token (u64), value (f64 bits),
//! arrival time (u64 µs). The event log wraps each in its own
//! CRC-checked frame, so a torn or corrupted tail is detected and
//! truncated on recovery rather than replayed as garbage.

use crate::ingest::{IngestConfig, IngestPipeline, UplinkMsg};
use crate::registry::DeviceRegistry;
use crate::tenant::TenantId;
use iiot_sim::obs::Recorder;
use iiot_sim::SimTime;
use iiot_stream::{
    AdmissionControl, EventLog, LogConfig, RateLimit, RecoveryReport, WindowAggregator, WindowSpec,
};

/// Persisted size of one uplink record (see the [module docs](self)).
pub const UPLINK_FRAME: usize = 30;

/// Encodes an uplink into its persisted wire form.
pub fn encode_uplink(msg: &UplinkMsg) -> [u8; UPLINK_FRAME] {
    let mut out = [0u8; UPLINK_FRAME];
    out[0..2].copy_from_slice(&msg.tenant.0.to_le_bytes());
    out[2..6].copy_from_slice(&msg.device.to_le_bytes());
    out[6..14].copy_from_slice(&msg.token.to_le_bytes());
    out[14..22].copy_from_slice(&msg.value.to_bits().to_le_bytes());
    out[22..30].copy_from_slice(&msg.t.as_micros().to_le_bytes());
    out
}

/// Decodes an uplink from its persisted wire form; `None` if `bytes`
/// is not exactly one frame.
pub fn decode_uplink(bytes: &[u8]) -> Option<UplinkMsg> {
    if bytes.len() != UPLINK_FRAME {
        return None;
    }
    let u16le = |i: usize| u16::from_le_bytes([bytes[i], bytes[i + 1]]);
    let u32le = |i: usize| u32::from_le_bytes([bytes[i], bytes[i + 1], bytes[i + 2], bytes[i + 3]]);
    let u64le = |i: usize| {
        let mut b = [0u8; 8];
        b.copy_from_slice(&bytes[i..i + 8]);
        u64::from_le_bytes(b)
    };
    Some(UplinkMsg {
        tenant: TenantId(u16le(0)),
        device: u32le(2),
        token: u64le(6),
        value: f64::from_bits(u64le(14)),
        t: SimTime::from_micros(u64le(22)),
    })
}

/// Which stream-plane features to attach to an [`IngestPipeline`]
/// (each independently optional; the default attaches nothing).
#[derive(Clone, Debug, Default)]
pub struct StreamConfig {
    /// Write every offered uplink through an event log.
    pub log: Option<LogConfig>,
    /// Per-tenant token-bucket admission control ahead of the queues,
    /// with this uniform contract.
    pub admission: Option<RateLimit>,
    /// Windowed aggregation over accepted uplinks (keyed tenant ×
    /// device), watermarked by arrival virtual time.
    pub windows: Option<WindowSpec>,
}

impl StreamConfig {
    /// Attaches only the write-ahead event log.
    pub fn logged(config: LogConfig) -> Self {
        StreamConfig {
            log: Some(config),
            ..StreamConfig::default()
        }
    }

    /// Adds uniform admission control to this configuration.
    pub fn with_admission(mut self, limit: RateLimit) -> Self {
        self.admission = Some(limit);
        self
    }

    /// Adds windowed aggregation to this configuration.
    pub fn with_windows(mut self, spec: WindowSpec) -> Self {
        self.windows = Some(spec);
        self
    }
}

/// The pipeline-side state behind a [`StreamConfig`]; owned by
/// [`IngestPipeline`], empty unless attached.
#[derive(Default)]
pub(crate) struct StreamAttachment {
    pub(crate) wal: Option<EventLog>,
    pub(crate) admission: Option<AdmissionControl>,
    pub(crate) windows: Option<WindowAggregator>,
    /// Windows closed so far, in watermark order.
    pub(crate) closed: Vec<iiot_stream::WindowResult>,
}

impl StreamAttachment {
    pub(crate) fn build(config: &StreamConfig) -> Self {
        StreamAttachment {
            wal: config.log.map(EventLog::new),
            admission: config.admission.map(AdmissionControl::uniform),
            windows: config.windows.map(WindowAggregator::new),
            closed: Vec::new(),
        }
    }
}

/// Replays a persisted uplink log through a fresh pipeline under the
/// same configuration, which adopts the verified prefix as its
/// write-ahead log (a frame that is not an uplink stays in it and offers
/// nothing); see the [module docs](self). Returns the drained pipeline
/// and the log recovery report.
pub fn replay(
    bytes: &[u8],
    registry: DeviceRegistry,
    config: IngestConfig,
    stream: StreamConfig,
    recorder: Option<Box<dyn Recorder>>,
) -> (IngestPipeline, RecoveryReport) {
    let log_config = stream.log.unwrap_or_default();
    let mut pipeline = IngestPipeline::new(registry, config);
    pipeline.attach_stream(StreamConfig {
        log: None,
        ..stream
    });
    pipeline.set_recorder(recorder);
    let (log, report) = EventLog::recover_with(bytes, log_config, |payload, sealed| {
        if let Some(msg) = decode_uplink(payload) {
            pipeline.drain_until(msg.t);
            pipeline.front_door(msg, sealed);
        }
    });
    pipeline.stream.wal = Some(log);
    pipeline.drain_remaining();
    pipeline.flush_windows();
    (pipeline, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::TenantStats;
    use iiot_security::Key;
    use iiot_sim::obs::{Event, RingRecorder};
    use iiot_sim::SimDuration;
    use iiot_stream::WindowSpec;

    fn registry() -> DeviceRegistry {
        let mut reg = DeviceRegistry::new();
        for name in ["a", "b"] {
            let t = reg.create_tenant(name, Key([name.as_bytes()[0]; 16]));
            reg.register_fleet(t, 20);
        }
        reg
    }

    /// The canonical drive loop: noisy tenant 0, quiet tenant 1, a bad
    /// credential every 97th message — exercising every shed path.
    fn drive(mut p: IngestPipeline) -> IngestPipeline {
        for i in 0..2000u64 {
            let tenant = TenantId(if i % 5 == 4 { 1 } else { 0 });
            let device = (i % 20) as u32;
            let mut token = p.registry().token(tenant, device).unwrap_or(0);
            if i % 97 == 0 {
                token ^= 1;
            }
            let msg = UplinkMsg {
                tenant,
                device,
                token,
                value: (i % 13) as f64,
                t: SimTime::from_micros(i * 200),
            };
            p.offer(msg);
        }
        p.drain_remaining();
        p.flush_windows();
        p
    }

    fn events_of(p: &mut IngestPipeline) -> Vec<Event> {
        let rec = p.take_recorder().expect("recorder installed");
        rec.as_any()
            .downcast_ref::<RingRecorder>()
            .expect("ring recorder")
            .events()
            .copied()
            .collect()
    }

    #[test]
    fn replay_reproduces_live_stats_events_and_log_bytes() {
        let config = IngestConfig {
            queue_cap: 16,
            drain_batch: 4,
            ..IngestConfig::default()
        };
        let stream = StreamConfig::logged(iiot_stream::LogConfig {
            segment_bytes: 4096,
        })
        .with_admission(RateLimit::per_sec(3_000, 20))
        .with_windows(WindowSpec::tumbling(SimDuration::from_millis(50)));

        let mut live = IngestPipeline::new(registry(), config);
        live.attach_stream(stream.clone());
        live.set_recorder(Some(Box::new(RingRecorder::new(1 << 16))));
        let mut live = drive(live);
        let live_events = events_of(&mut live);
        let wal = live.wal().expect("wal attached").as_bytes().to_vec();

        let (mut replayed, report) = replay(
            &wal,
            registry(),
            config,
            stream,
            Some(Box::new(RingRecorder::new(1 << 16))),
        );
        assert_eq!(report.truncated_bytes, 0, "pristine log loses nothing");
        assert_eq!(
            report.records, 2000,
            "every offer was logged, sheds included"
        );
        assert_eq!(
            crate::metrics::summarize(&live),
            crate::metrics::summarize(&replayed),
            "per-tenant stats must replay identically"
        );
        assert_eq!(live.closed_windows(), replayed.closed_windows());
        assert_eq!(
            replayed.wal().expect("wal").as_bytes(),
            wal.as_slice(),
            "the replayed pipeline adopts a byte-identical log"
        );
        assert_eq!(
            events_of(&mut replayed),
            live_events,
            "trace events must match"
        );

        // The workload exercised every shed path, so the equalities
        // above have teeth.
        let tot = |p: &IngestPipeline, f: fn(&TenantStats) -> u64| {
            p.stats().map(|(_, s)| f(s)).sum::<u64>()
        };
        assert!(
            tot(&live, |s| s.shed_ratelimit) > 0,
            "admission shed exercised"
        );
        assert!(tot(&live, |s| s.shed_auth) > 0, "auth shed exercised");
        assert!(tot(&live, |s| s.shed_full) > 0, "queue shed exercised");
        assert!(!live.closed_windows().is_empty(), "windows closed");
        assert!(
            live.wal().expect("wal").sealed_segments() > 0,
            "segments sealed"
        );
    }

    #[test]
    fn replay_after_a_torn_crash_matches_a_live_run_over_the_prefix() {
        let config = IngestConfig {
            queue_cap: 16,
            ..IngestConfig::default()
        };
        let stream = StreamConfig::logged(iiot_stream::LogConfig {
            segment_bytes: 1024,
        });

        let mut live = IngestPipeline::new(registry(), config);
        live.attach_stream(stream.clone());
        let live = drive(live);
        let wal = live.wal().expect("wal").as_bytes().to_vec();

        // Crash mid-record: cut 7 bytes into the torn tail.
        let cut = wal.len() - 7;
        let (recovered, report) = replay(&wal[..cut], registry(), config, stream.clone(), None);
        assert_eq!(report.records, 1999, "one torn record dropped");
        assert!(report.truncated_bytes > 0);

        // A fresh live run over just the surviving prefix agrees.
        let mut fresh = IngestPipeline::new(registry(), config);
        fresh.attach_stream(stream);
        let prefix_log = recovered.wal().expect("wal").clone();
        for (_, payload) in prefix_log.iter_from(0) {
            let msg = decode_uplink(payload).expect("intact record");
            fresh.offer(msg);
        }
        fresh.drain_remaining();
        assert_eq!(
            crate::metrics::summarize(&recovered),
            crate::metrics::summarize(&fresh)
        );
    }

    #[test]
    fn replay_of_a_far_future_record_returns_promptly() {
        // A CRC-valid record stamped 2^62 µs must not make the drive
        // loop tick through every idle 10 ms up to it.
        let reg = registry();
        let far = SimTime::from_micros(1 << 62);
        let mut wal = EventLog::new(LogConfig::default());
        for (t, token) in [
            (SimTime::from_millis(1), reg.token(TenantId(0), 0).unwrap()),
            (far, 0),
        ] {
            wal.append(&encode_uplink(&UplinkMsg {
                tenant: TenantId(0),
                device: 0,
                token,
                value: 1.0,
                t,
            }));
        }
        let (p, report) = replay(
            wal.as_bytes(),
            reg,
            IngestConfig::default(),
            StreamConfig::default(),
            None,
        );
        assert_eq!((report.records, report.truncated_bytes), (2, 0));
        assert_eq!(p.now(), far);
        assert_eq!(p.totals(), (2, 1, 1, 1), "offered, accepted, shed, drained");
        assert_eq!(p.wal().expect("wal").as_bytes(), wal.as_bytes());
    }

    #[test]
    fn a_foreign_frame_stays_in_the_adopted_log_and_offers_nothing() {
        let reg = registry();
        let config = LogConfig { segment_bytes: 256 };
        let mut wal = EventLog::new(config);
        for i in 0..40u64 {
            if i == 20 {
                wal.append(b"not an uplink");
            }
            wal.append(&encode_uplink(&UplinkMsg {
                tenant: TenantId(0),
                device: (i % 20) as u32,
                token: reg.token(TenantId(0), (i % 20) as u32).unwrap(),
                value: i as f64,
                t: SimTime::from_millis(i),
            }));
        }
        assert!(wal.sealed_segments() >= 2);
        let (p, report) = replay(
            wal.as_bytes(),
            reg,
            IngestConfig::default(),
            StreamConfig::logged(config),
            None,
        );
        assert_eq!((report.records, report.truncated_bytes), (41, 0));
        assert_eq!(p.wal(), Some(&EventLog::recover(wal.as_bytes(), config).0));
        assert_eq!(
            p.totals(),
            (40, 40, 0, 40),
            "offered, accepted, shed, drained"
        );
    }

    #[test]
    fn uplink_codec_roundtrip() {
        let msg = UplinkMsg {
            tenant: TenantId(7),
            device: 123_456,
            token: 0xdead_beef_cafe_f00d,
            value: -273.15,
            t: SimTime::from_micros(86_400_000_017),
        };
        let bytes = encode_uplink(&msg);
        let back = decode_uplink(&bytes).expect("full frame decodes");
        assert_eq!(back.tenant, msg.tenant);
        assert_eq!(back.device, msg.device);
        assert_eq!(back.token, msg.token);
        assert_eq!(back.value.to_bits(), msg.value.to_bits());
        assert_eq!(back.t, msg.t);
        assert!(decode_uplink(&bytes[..UPLINK_FRAME - 1]).is_none());
    }
}
