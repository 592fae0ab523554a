//! The segmented append-only event log: CRC-framed records, sealed
//! segments, consumer cursors and crash recovery.
//!
//! # Record framing
//!
//! The log's persisted form is one flat append-only byte stream of
//! framed records:
//!
//! ```text
//!   ┌────────────┬───────────┬─────────────────┐
//!   │ len: u16LE │ crc: u32LE│ payload (len B) │   × records
//!   └────────────┴───────────┴─────────────────┘
//! ```
//!
//! `crc` is the CRC-32 of the payload ([`iiot_dissem::crc32`] — the
//! same IEEE 802.3 value the OTA image pipeline's bootloader checks,
//! computed on the host from an 8 KiB table). The stream divides into
//! *segments* at deterministic byte boundaries: once the active segment
//! holds at least [`LogConfig::segment_bytes`], it is **sealed**
//! (immutable forever after) and a fresh tail segment opens. Sealing is
//! a pure function of the record sizes appended, so a log rebuilt from
//! the same payload sequence reproduces the same segment boundaries —
//! and therefore the same bytes.
//!
//! # Crash recovery
//!
//! [`EventLog::recover`] rescans a byte stream that may have lost its
//! tail mid-write (a torn record) or suffered corruption. Scanning
//! stops at the first frame that is short, oversized or fails its CRC;
//! everything before it is kept, everything from it on is truncated.
//! Recovery therefore never yields a record whose CRC does not verify,
//! and an append after recovery resumes exactly where the surviving
//! prefix ends. The [`RecoveryReport`] says what was dropped and
//! whether the damage reached into sealed territory (which indicates
//! storage corruption rather than a torn write).
//! [`EventLog::recover_with`] hands each verified record to a reader as
//! the scan reaches it, so recovering and consuming are one pass.
//!
//! # Cursors
//!
//! A [`LogCursor`] is a consumer's position: `next` is the sequence
//! number it will read next, `committed` the highest sequence it has
//! durably processed. [`LogCursor::commit`] is monotonic by
//! construction — committed offsets never regress, which is what makes
//! "resume from the committed offset" safe after a consumer restart.

use iiot_dissem::crc32;

/// Frame header size: `u16` length + `u32` CRC.
pub const FRAME_HEADER: usize = 6;

/// Log configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LogConfig {
    /// Seal the active segment once it holds at least this many bytes.
    pub segment_bytes: usize,
}

impl Default for LogConfig {
    fn default() -> Self {
        // 64 KiB segments: ~1800 records of cloud-uplink size, small
        // enough that E18's adversarial cuts land in interesting places.
        LogConfig {
            segment_bytes: 64 * 1024,
        }
    }
}

/// What [`EventLog::append`] did beyond storing the record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AppendInfo {
    /// Sequence number assigned to the appended record.
    pub seq: u64,
    /// When the append filled the active segment: `(segment index,
    /// records in that segment)` of the segment just sealed.
    pub sealed: Option<(u32, u32)>,
}

/// What [`EventLog::recover`] found and dropped.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Records that survived (CRC-verified, in order).
    pub records: u64,
    /// Bytes kept.
    pub bytes: u64,
    /// Bytes truncated from the torn/corrupt tail.
    pub truncated_bytes: u64,
    /// Whether the first invalid frame lay inside a sealed segment —
    /// i.e. real corruption, not a torn tail write.
    pub corrupt_sealed: bool,
}

/// One sealed or active segment's bookkeeping (the bytes live in the
/// log's flat stream; segments are deterministic spans of it).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SegmentInfo {
    /// Segment index (0-based, in append order).
    pub index: u32,
    /// Byte offset of the segment's first record frame.
    pub start: u64,
    /// Records in the segment.
    pub records: u32,
    /// Whether the segment is sealed (immutable).
    pub sealed: bool,
}

/// A consumer's position in the log; see the [module docs](self).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LogCursor {
    /// Sequence number of the next record to read.
    pub next: u64,
    /// Highest sequence durably processed, plus one (0 = nothing
    /// committed). Monotonic: [`commit`](Self::commit) never lowers it.
    committed: u64,
}

impl LogCursor {
    /// A cursor at the start of the log with nothing committed.
    pub fn new() -> Self {
        Self::default()
    }

    /// A cursor resuming from its committed offset: the next read
    /// re-delivers the first uncommitted record.
    pub fn resume(&self) -> LogCursor {
        LogCursor {
            next: self.committed,
            committed: self.committed,
        }
    }

    /// Commits everything read so far. Monotonic — a stale or repeated
    /// commit never lowers the committed offset.
    pub fn commit(&mut self) {
        self.committed = self.committed.max(self.next);
    }

    /// The committed offset: sequence numbers below it are durably
    /// processed.
    pub fn committed(&self) -> u64 {
        self.committed
    }
}

/// The segmented append-only event log; see the [module docs](self).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EventLog {
    config: LogConfig,
    /// The flat persisted byte stream (every frame, in append order).
    bytes: Vec<u8>,
    /// Byte offset where each record frame starts; `frames[seq]` is
    /// record `seq`'s offset. One extra entry would be `bytes.len()`.
    frames: Vec<u64>,
    /// Byte offsets where segments sealed (end-exclusive boundaries).
    seals: Vec<u64>,
    /// Records in each sealed segment, parallel to `seals`.
    seal_records: Vec<u32>,
    /// Records appended to the (unsealed) tail segment.
    tail_records: u32,
}

impl EventLog {
    /// An empty log.
    pub fn new(config: LogConfig) -> Self {
        EventLog {
            config,
            bytes: Vec::new(),
            frames: Vec::new(),
            seals: Vec::new(),
            seal_records: Vec::new(),
            tail_records: 0,
        }
    }

    /// The log's configuration.
    pub fn config(&self) -> LogConfig {
        self.config
    }

    /// Appends one record; returns its sequence number and, when the
    /// active segment filled up, the seal notification.
    ///
    /// # Panics
    ///
    /// Panics when `payload` exceeds the `u16` frame length.
    pub fn append(&mut self, payload: &[u8]) -> AppendInfo {
        assert!(
            payload.len() <= u16::MAX as usize,
            "record exceeds frame length"
        );
        let seq = self.frames.len() as u64;
        self.frames.push(self.bytes.len() as u64);
        self.bytes
            .extend_from_slice(&(payload.len() as u16).to_le_bytes());
        self.bytes.extend_from_slice(&crc32(payload).to_le_bytes());
        self.bytes.extend_from_slice(payload);
        self.tail_records += 1;
        let seg_start = self.seals.last().copied().unwrap_or(0);
        let sealed = if self.bytes.len() - seg_start as usize >= self.config.segment_bytes {
            Some(self.seal_active())
        } else {
            None
        };
        AppendInfo { seq, sealed }
    }

    /// Seals the active segment regardless of fill; returns `(segment
    /// index, records sealed)`. A no-op segment (zero records) is still
    /// sealed — callers avoid that by checking [`tail_len`](Self::tail_len).
    pub fn seal_active(&mut self) -> (u32, u32) {
        let index = self.seals.len() as u32;
        let records = self.tail_records;
        self.seals.push(self.bytes.len() as u64);
        self.seal_records.push(records);
        self.tail_records = 0;
        (index, records)
    }

    /// Total records held.
    pub fn records(&self) -> u64 {
        self.frames.len() as u64
    }

    /// Records in the unsealed tail segment.
    pub fn tail_len(&self) -> u32 {
        self.tail_records
    }

    /// Total persisted bytes.
    pub fn len_bytes(&self) -> u64 {
        self.bytes.len() as u64
    }

    /// The persisted byte stream (what a crash would leave on disk,
    /// possibly truncated).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Sealed-segment count (the tail segment, if nonempty, is not
    /// counted).
    pub fn sealed_segments(&self) -> usize {
        self.seals.len()
    }

    /// Every segment's bookkeeping, sealed segments first, then the
    /// active tail (present only when it holds records).
    pub fn segments(&self) -> Vec<SegmentInfo> {
        let mut out = Vec::with_capacity(self.seals.len() + 1);
        let mut start = 0u64;
        for (i, (&end, &records)) in self.seals.iter().zip(&self.seal_records).enumerate() {
            out.push(SegmentInfo {
                index: i as u32,
                start,
                records,
                sealed: true,
            });
            start = end;
        }
        if self.tail_records > 0 {
            out.push(SegmentInfo {
                index: self.seals.len() as u32,
                start,
                records: self.tail_records,
                sealed: false,
            });
        }
        out
    }

    /// The payload of record `seq`, if present.
    pub fn get(&self, seq: u64) -> Option<&[u8]> {
        let start = *self.frames.get(seq as usize)? as usize;
        let len = u16::from_le_bytes([self.bytes[start], self.bytes[start + 1]]) as usize;
        Some(&self.bytes[start + FRAME_HEADER..start + FRAME_HEADER + len])
    }

    /// Reads the record at `cursor.next`, advancing the cursor. Returns
    /// `(seq, payload)`, or `None` at the log's end. Committing is the
    /// caller's decision ([`LogCursor::commit`]).
    pub fn read<'a>(&'a self, cursor: &mut LogCursor) -> Option<(u64, &'a [u8])> {
        let seq = cursor.next;
        let payload = self.get(seq)?;
        cursor.next += 1;
        Some((seq, payload))
    }

    /// Iterates `(seq, payload)` from sequence `from` to the end.
    pub fn iter_from(&self, from: u64) -> impl Iterator<Item = (u64, &[u8])> + '_ {
        (from..self.records()).map(move |seq| (seq, self.get(seq).expect("seq < records")))
    }

    /// Rebuilds a log from a persisted byte stream, truncating the torn
    /// or corrupt tail; see the [module docs](self). The recovered log
    /// reproduces the original's segment boundaries for the surviving
    /// prefix (sealing is deterministic in the record sizes).
    pub fn recover(bytes: &[u8], config: LogConfig) -> (EventLog, RecoveryReport) {
        Self::recover_with(bytes, config, |_, _| {})
    }

    /// [`recover`](Self::recover), handing each surviving record to
    /// `visit(payload, sealed)` as the scan verifies it, with the seal
    /// notification [`append`](Self::append) gave for it.
    pub fn recover_with(
        bytes: &[u8],
        config: LogConfig,
        mut visit: impl FnMut(&[u8], Option<(u32, u32)>),
    ) -> (EventLog, RecoveryReport) {
        let mut log = EventLog::new(config);
        let (mut pos, mut seg_start) = (0usize, 0usize);
        while let Some(header) = bytes.get(pos..pos + FRAME_HEADER) {
            let len = u16::from_le_bytes([header[0], header[1]]) as usize;
            let crc = u32::from_le_bytes([header[2], header[3], header[4], header[5]]);
            let end = pos + FRAME_HEADER + len;
            let payload = match bytes.get(pos + FRAME_HEADER..end) {
                Some(payload) if crc32(payload) == crc => payload,
                _ => break, // short payload (torn tail) or corrupt record
            };
            log.frames.push(pos as u64);
            log.tail_records += 1;
            // Filed exactly as `append` seals, from the bytes walked.
            let sealed = (end - seg_start >= config.segment_bytes).then(|| {
                seg_start = end;
                let seal = (log.seals.len() as u32, log.tail_records);
                log.seals.push(end as u64);
                log.seal_records.push(log.tail_records);
                log.tail_records = 0;
                seal
            });
            visit(payload, sealed);
            pos = end;
        }
        log.bytes.extend_from_slice(&bytes[..pos]);
        // Sealing fires once a segment's fill reaches `segment_bytes`, so
        // if the damaged stream extends a full segment's worth past the
        // surviving tail's start, the original must have sealed over the
        // damaged span: that is storage corruption, not a torn tail write.
        let report = RecoveryReport {
            records: log.records(),
            bytes: pos as u64,
            truncated_bytes: (bytes.len() - pos) as u64,
            corrupt_sealed: bytes.len() > pos
                && bytes.len() >= seg_start + config.segment_bytes + FRAME_HEADER,
        };
        (log, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(i: u64) -> Vec<u8> {
        format!("record-{i}-{}", "x".repeat((i % 7) as usize)).into_bytes()
    }

    #[test]
    fn append_read_roundtrip_and_seal_boundaries() {
        let mut log = EventLog::new(LogConfig { segment_bytes: 64 });
        let mut seals = 0;
        for i in 0..20 {
            let info = log.append(&payload(i));
            assert_eq!(info.seq, i);
            if info.sealed.is_some() {
                seals += 1;
            }
        }
        assert_eq!(log.records(), 20);
        assert_eq!(log.sealed_segments(), seals);
        assert!(seals >= 2, "64-byte segments must seal several times");
        let mut cursor = LogCursor::new();
        for i in 0..20 {
            let (seq, p) = log.read(&mut cursor).expect("record present");
            assert_eq!(seq, i);
            assert_eq!(p, payload(i).as_slice());
        }
        assert!(log.read(&mut cursor).is_none());
        let segs = log.segments();
        assert_eq!(segs.iter().map(|s| s.records as u64).sum::<u64>(), 20);
    }

    #[test]
    fn recovery_truncates_a_torn_tail_and_resumes() {
        let mut log = EventLog::new(LogConfig { segment_bytes: 128 });
        for i in 0..12 {
            log.append(&payload(i));
        }
        let full = log.as_bytes().to_vec();
        // Cut mid-way through the last record's payload.
        let cut = full.len() - 3;
        let (recovered, report) = EventLog::recover(&full[..cut], log.config());
        assert_eq!(report.records, 11);
        assert_eq!(report.truncated_bytes as usize, cut - report.bytes as usize);
        // The surviving prefix is byte-identical.
        assert_eq!(recovered.as_bytes(), &full[..report.bytes as usize]);
        // Appending after recovery resumes the sequence.
        let mut resumed = recovered.clone();
        let info = resumed.append(&payload(11));
        assert_eq!(info.seq, 11);
        assert_eq!(
            resumed.as_bytes(),
            full.as_slice(),
            "resume reproduces the original bytes"
        );
    }

    #[test]
    fn recovery_of_a_pristine_stream_reproduces_the_log() {
        // `recover` copies the verified prefix in one piece and files
        // its frames from the walk; the rebuilt log must still be the
        // original in every observable.
        let mut log = EventLog::new(LogConfig { segment_bytes: 96 });
        for i in 0..50 {
            log.append(&payload(i));
        }
        log.append(b"");
        let (recovered, report) = EventLog::recover(log.as_bytes(), log.config());
        assert_eq!(report.records, 51);
        assert_eq!(report.bytes, log.len_bytes());
        assert_eq!(report.truncated_bytes, 0);
        assert!(!report.corrupt_sealed);
        assert_eq!(recovered.as_bytes(), log.as_bytes());
        assert_eq!(recovered.segments(), log.segments());
        assert!(log.sealed_segments() >= 5);
        for seq in 0..=log.records() {
            assert_eq!(recovered.get(seq), log.get(seq), "record {seq}");
        }
        assert_eq!(recovered, log);
    }

    #[test]
    fn recovery_stops_at_a_corrupt_record() {
        let mut log = EventLog::new(LogConfig::default());
        for i in 0..8 {
            log.append(&payload(i));
        }
        let mut bytes = log.as_bytes().to_vec();
        // Flip a bit inside record 3's payload.
        let off = log.frames[3] as usize + FRAME_HEADER + 1;
        bytes[off] ^= 0x10;
        let (recovered, report) = EventLog::recover(&bytes, log.config());
        assert_eq!(report.records, 3, "records before the corruption survive");
        for (seq, p) in recovered.iter_from(0) {
            assert_eq!(p, payload(seq).as_slice());
        }
    }

    #[test]
    fn cursor_commit_never_regresses() {
        let mut log = EventLog::new(LogConfig::default());
        for i in 0..5 {
            log.append(&payload(i));
        }
        let mut c = LogCursor::new();
        log.read(&mut c);
        log.read(&mut c);
        c.commit();
        assert_eq!(c.committed(), 2);
        // Reads past the commit, then resumes from it.
        log.read(&mut c);
        let resumed = c.resume();
        assert_eq!(resumed.next, 2, "resume re-delivers uncommitted reads");
        // A stale cursor's commit cannot lower the offset.
        let mut stale = LogCursor {
            next: 1,
            committed: 2,
        };
        stale.commit();
        assert_eq!(stale.committed(), 2);
    }

    #[test]
    fn explicit_seal_and_tail_accounting() {
        let mut log = EventLog::new(LogConfig {
            segment_bytes: 1 << 20,
        });
        log.append(b"a");
        log.append(b"bb");
        assert_eq!(log.tail_len(), 2);
        let (idx, n) = log.seal_active();
        assert_eq!((idx, n), (0, 2));
        assert_eq!(log.tail_len(), 0);
        log.append(b"c");
        let segs = log.segments();
        assert_eq!(segs.len(), 2);
        assert!(segs[0].sealed && !segs[1].sealed);
    }
}
