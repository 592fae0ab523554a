//! The common MAC-layer header shared by all MAC implementations.
//!
//! Layout on the wire (prepended to the upper-layer payload):
//!
//! ```text
//! +------+------+------------+
//! | kind | seq  | upper_port |   3 bytes
//! +------+------+------------+
//! ```

/// MAC frame kind.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MacKind {
    /// An upper-layer data frame.
    Data,
    /// A link-layer acknowledgement.
    Ack,
    /// A receiver-initiated probe (RI-MAC) or schedule beacon (TDMA).
    Probe,
}

impl MacKind {
    fn to_byte(self) -> u8 {
        match self {
            MacKind::Data => 0,
            MacKind::Ack => 1,
            MacKind::Probe => 2,
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        match b {
            0 => Some(MacKind::Data),
            1 => Some(MacKind::Ack),
            2 => Some(MacKind::Probe),
            _ => None,
        }
    }
}

/// Decoded MAC header plus a borrowed view of the upper payload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MacHeader {
    /// Frame kind.
    pub kind: MacKind,
    /// Link-layer sequence number (per sender, wrapping).
    pub seq: u8,
    /// Upper-layer demultiplexing port.
    pub upper_port: u8,
}

/// Number of bytes the MAC header occupies.
pub const MAC_HEADER_LEN: usize = 3;

/// Encodes a MAC frame — header followed by `payload` — at the end of
/// `out`. MACs build their frames in
/// [`Ctx::frame_buf`](iiot_sim::Ctx::frame_buf), so a frame reuses the
/// memory of one that left the air.
pub fn encode(header: MacHeader, payload: &[u8], out: &mut Vec<u8>) {
    out.reserve(MAC_HEADER_LEN + payload.len());
    out.extend_from_slice(&[header.kind.to_byte(), header.seq, header.upper_port]);
    out.extend_from_slice(payload);
}

/// Decodes a MAC frame into its header and upper payload.
///
/// Returns `None` for truncated or unknown-kind frames (robustness
/// against foreign traffic on a shared channel, §IV-C).
pub fn decode(bytes: &[u8]) -> Option<(MacHeader, &[u8])> {
    if bytes.len() < MAC_HEADER_LEN {
        return None;
    }
    let kind = MacKind::from_byte(bytes[0])?;
    Some((
        MacHeader {
            kind,
            seq: bytes[1],
            upper_port: bytes[2],
        },
        &bytes[MAC_HEADER_LEN..],
    ))
}

/// A small cache of recently seen `(source, seq)` pairs, used to
/// suppress duplicate deliveries caused by strobed retransmissions.
#[derive(Clone, Debug, Default)]
pub struct SeqCache {
    entries: Vec<(u32, u8)>,
}

impl SeqCache {
    /// Cache capacity (oldest entries are evicted).
    const CAP: usize = 32;

    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `(src, seq)`; returns `true` if it was already present
    /// (i.e. the frame is a duplicate).
    pub fn check_and_insert(&mut self, src: u32, seq: u8) -> bool {
        if self.entries.contains(&(src, seq)) {
            return true;
        }
        if self.entries.len() >= Self::CAP {
            self.entries.remove(0);
        }
        self.entries.push((src, seq));
        false
    }

    /// Clears the cache (e.g. on crash-recovery).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn round_trip() {
        let h = MacHeader {
            kind: MacKind::Data,
            seq: 250,
            upper_port: 7,
        };
        let mut enc = Vec::new();
        encode(h, b"hello", &mut enc);
        let (dec, payload) = decode(&enc).expect("decodes");
        assert_eq!(dec, h);
        assert_eq!(payload, b"hello");
    }

    #[test]
    fn truncated_and_garbage_rejected() {
        assert!(decode(&[]).is_none());
        assert!(decode(&[0, 1]).is_none());
        assert!(decode(&[99, 1, 2, 3]).is_none(), "unknown kind");
        // Exactly a header with empty payload is fine.
        let (h, p) = decode(&[1, 5, 9]).expect("ack header");
        assert_eq!(h.kind, MacKind::Ack);
        assert!(p.is_empty());
    }

    #[test]
    fn seq_cache_dedups() {
        let mut c = SeqCache::new();
        assert!(!c.check_and_insert(1, 10));
        assert!(c.check_and_insert(1, 10));
        assert!(!c.check_and_insert(2, 10));
        assert!(!c.check_and_insert(1, 11));
        c.clear();
        assert!(!c.check_and_insert(1, 10));
    }

    #[test]
    fn seq_cache_evicts_oldest() {
        let mut c = SeqCache::new();
        for i in 0..40u32 {
            assert!(!c.check_and_insert(i, 0));
        }
        // Entry 0 has been evicted; re-inserting reports "new".
        assert!(!c.check_and_insert(0, 0));
        // Recent entry still known.
        assert!(c.check_and_insert(39, 0));
    }

    proptest! {
        #[test]
        fn encode_decode_inverse(seq in any::<u8>(), port in any::<u8>(), payload in proptest::collection::vec(any::<u8>(), 0..64)) {
            for kind in [MacKind::Data, MacKind::Ack, MacKind::Probe] {
                let h = MacHeader { kind, seq, upper_port: port };
                let mut enc = Vec::new();
                encode(h, &payload, &mut enc);
                let (dec, p) = decode(&enc).expect("round trip");
                prop_assert_eq!(dec, h);
                prop_assert_eq!(p, &payload[..]);
            }
        }
    }
}
