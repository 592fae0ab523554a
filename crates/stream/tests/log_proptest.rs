//! Property tests for the event log (satellite of E18): for *any*
//! payload sequence, segment size, torn-tail truncation point or
//! single-bit corruption, recovery keeps only CRC-verified records,
//! the surviving prefix is byte-identical to what was written,
//! recovery and its visiting form agree with a frame-by-frame
//! reference, and consumer cursors never regress a committed offset.

use iiot_dissem::crc32;
use iiot_stream::{EventLog, LogConfig, LogCursor, RecoveryReport, FRAME_HEADER};
use proptest::prelude::*;

/// Random payload batch: 1..40 records of 0..64 bytes each.
fn payloads() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 1..40)
}

fn build(payloads: &[Vec<u8>], segment_bytes: usize) -> EventLog {
    let mut log = EventLog::new(LogConfig { segment_bytes });
    for p in payloads {
        log.append(p);
    }
    log
}

/// Every record a recovered log yields re-verifies against the CRC
/// framing in the persisted bytes, and matches the original payloads.
fn assert_recovered_prefix(recovered: &EventLog, originals: &[Vec<u8>]) {
    let bytes = recovered.as_bytes();
    let mut pos = 0usize;
    for (seq, payload) in recovered.iter_from(0) {
        assert_eq!(
            payload,
            originals[seq as usize].as_slice(),
            "record {seq} must match the original append"
        );
        let len = u16::from_le_bytes([bytes[pos], bytes[pos + 1]]) as usize;
        let crc = u32::from_le_bytes([
            bytes[pos + 2],
            bytes[pos + 3],
            bytes[pos + 4],
            bytes[pos + 5],
        ]);
        assert_eq!(len, payload.len());
        assert_eq!(
            crc,
            crc32(payload),
            "recovery must never yield a CRC-failing record"
        );
        pos += FRAME_HEADER + len;
    }
    assert_eq!(pos, bytes.len(), "no trailing garbage survives recovery");
}

/// Recovery as a frame-by-frame scan that re-appends every verified
/// payload to a fresh log: the oracle `EventLog::recover` and
/// `EventLog::recover_with` must agree with.
fn reference_recover(bytes: &[u8], config: LogConfig) -> (EventLog, RecoveryReport) {
    let mut log = EventLog::new(config);
    let mut pos = 0usize;
    while bytes.len() - pos >= FRAME_HEADER {
        let len = u16::from_le_bytes([bytes[pos], bytes[pos + 1]]) as usize;
        let crc = u32::from_le_bytes([
            bytes[pos + 2],
            bytes[pos + 3],
            bytes[pos + 4],
            bytes[pos + 5],
        ]);
        let body = pos + FRAME_HEADER;
        if bytes.len() - body < len || crc32(&bytes[body..body + len]) != crc {
            break;
        }
        log.append(&bytes[body..body + len]);
        pos = body + len;
    }
    // The tail segment starts where the last sealed one ended.
    let tail_start = match log.segments().last() {
        Some(s) if !s.sealed => s.start as usize,
        _ => pos,
    };
    let report = RecoveryReport {
        records: log.records(),
        bytes: pos as u64,
        truncated_bytes: (bytes.len() - pos) as u64,
        corrupt_sealed: bytes.len() > pos
            && bytes.len() >= tail_start + config.segment_bytes + FRAME_HEADER,
    };
    (log, report)
}

/// `recover` equals the reference in every field of the log and the
/// report, and `recover_with` returns the same and visits exactly the
/// recovered payloads, each with the seal notification the reference's
/// append of it gave, in order.
fn assert_walk_and_recover_agree(bytes: &[u8], config: LogConfig) {
    let (recovered, report) = EventLog::recover(bytes, config);
    let (reference, want) = reference_recover(bytes, config);
    assert_eq!(report, want, "recover's report");
    assert_eq!(recovered, reference, "recover's log");
    let mut visited = Vec::new();
    let walked = EventLog::recover_with(bytes, config, |payload, sealed| {
        visited.push((payload.to_vec(), sealed));
    });
    assert_eq!(walked, (recovered, report), "recover_with's log and report");
    let mut again = EventLog::new(config);
    let want: Vec<_> = reference
        .iter_from(0)
        .map(|(_, payload)| (payload.to_vec(), again.append(payload).sealed))
        .collect();
    assert_eq!(visited, want, "the visited records");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Torn-tail truncation at an arbitrary byte offset: recovery keeps
    /// exactly the records whose frames fit in the cut, byte-identical
    /// to the original prefix, and re-appending the lost suffix
    /// reproduces the original stream.
    #[test]
    fn torn_tail_roundtrip(ps in payloads(), seg in 32usize..512, cut_frac in 0.0f64..1.0) {
        let log = build(&ps, seg);
        let full = log.as_bytes().to_vec();
        let cut = (full.len() as f64 * cut_frac) as usize;
        let (recovered, report) = EventLog::recover(&full[..cut], log.config());
        assert_walk_and_recover_agree(&full[..cut], log.config());

        prop_assert_eq!(report.records, recovered.records());
        prop_assert_eq!(report.bytes + report.truncated_bytes, cut as u64);
        prop_assert!(report.records <= log.records());
        prop_assert_eq!(recovered.as_bytes(), &full[..report.bytes as usize]);
        assert_recovered_prefix(&recovered, &ps);

        // Re-appending the truncated suffix reproduces the original log
        // byte-for-byte (sealing is deterministic in record sizes).
        let mut resumed = recovered.clone();
        for p in &ps[report.records as usize..] {
            resumed.append(p);
        }
        prop_assert_eq!(resumed.as_bytes(), full.as_slice());
        prop_assert_eq!(resumed.sealed_segments(), log.sealed_segments());
    }

    /// A single flipped bit anywhere in the stream: the records before
    /// the damaged frame survive, the damaged frame and everything after
    /// is dropped, and recovery still never yields a record that fails
    /// its CRC.
    #[test]
    fn single_bit_corruption_is_contained(ps in payloads(), seg in 32usize..512, pick in any::<u64>(), bit in 0u8..8) {
        let log = build(&ps, seg);
        let mut bytes = log.as_bytes().to_vec();
        // payloads() emits ≥ 1 record, so the stream is never empty.
        let off = (pick % bytes.len() as u64) as usize;
        bytes[off] ^= 1 << bit;

        let (recovered, report) = EventLog::recover(&bytes, log.config());
        assert_recovered_prefix(&recovered, &ps);
        assert_walk_and_recover_agree(&bytes, log.config());

        // Index of the frame containing the flipped bit: frames before
        // it parse untouched; the damaged one fails its length or CRC
        // check and stops the scan.
        let mut pos = 0usize;
        let mut intact = 0u64;
        for p in &ps {
            if off < pos + FRAME_HEADER + p.len() {
                break;
            }
            pos += FRAME_HEADER + p.len();
            intact += 1;
        }
        prop_assert_eq!(report.records, intact);
    }

    /// Committed offsets never regress under any interleaving of reads,
    /// commits and resumes.
    #[test]
    fn committed_offsets_never_regress(ps in payloads(), ops in proptest::collection::vec(0u8..3, 0..64)) {
        let log = build(&ps, 256);
        let mut cursor = LogCursor::new();
        let mut high_water = 0u64;
        for op in ops {
            match op {
                0 => {
                    let _ = log.read(&mut cursor);
                }
                1 => cursor.commit(),
                _ => cursor = cursor.resume(),
            }
            prop_assert!(cursor.committed() >= high_water, "commit regressed");
            high_water = cursor.committed();
            prop_assert!(cursor.committed() <= log.records());
            prop_assert!(cursor.next <= log.records());
        }
    }
}
