//! The link core every MAC in this crate is written on: the frame
//! format, the send queue, ACKs and duplicate suppression. A MAC keeps
//! only its channel access (when to listen, when to put the head on the
//! air) and its per-frame attempt state; this module is the one place
//! that knows what a frame looks like.
//!
//! Layout on the wire (prepended to the upper-layer payload):
//!
//! ```text
//! +------+------+------------+
//! | kind | seq  | upper_port |   3 bytes
//! +------+------+------------+
//! ```

use crate::{MacError, MacEvent, SendHandle, QUEUE_CAP};
use iiot_sim::obs::EventKind;
use iiot_sim::{Ctx, Dst, Frame, NodeId, RxInfo};
use std::collections::VecDeque;

/// MAC frame kind.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum MacKind {
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

/// Decoded MAC header.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct MacHeader {
    kind: MacKind,
    /// Link-layer sequence number (per sender, wrapping).
    seq: u8,
    /// Upper-layer demultiplexing port.
    upper_port: u8,
}

/// Number of bytes the MAC header occupies.
const MAC_HEADER_LEN: usize = 3;

/// Encodes a MAC frame — header followed by `payload` — at the end of
/// `out`.
fn encode(header: MacHeader, payload: &[u8], out: &mut Vec<u8>) {
    out.reserve(MAC_HEADER_LEN + payload.len());
    out.extend_from_slice(&[header.kind.to_byte(), header.seq, header.upper_port]);
    out.extend_from_slice(payload);
}

/// Decodes a MAC frame into its header and upper payload.
///
/// Returns `None` for truncated or unknown-kind frames (robustness
/// against foreign traffic on a shared channel, §IV-C).
fn decode(bytes: &[u8]) -> Option<(MacHeader, &[u8])> {
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
struct SeqCache {
    entries: Vec<(u32, u8)>,
}

impl SeqCache {
    /// Cache capacity (oldest entries are evicted).
    const CAP: usize = 32;

    /// Records `(src, seq)`; returns `true` if it was already present
    /// (i.e. the frame is a duplicate).
    fn check_and_insert(&mut self, src: u32, seq: u8) -> bool {
        if self.entries.contains(&(src, seq)) {
            return true;
        }
        if self.entries.len() >= Self::CAP {
            self.entries.remove(0);
        }
        self.entries.push((src, seq));
        false
    }

    fn clear(&mut self) {
        self.entries.clear();
    }
}

/// A queued send: what the link core needs to frame it, plus the
/// MAC's own attempt state `A`.
#[derive(Debug)]
pub(crate) struct Pending<A> {
    pub(crate) dst: Dst,
    /// Retries, backoffs, strobes or a deadline: whatever the MAC
    /// counts per frame.
    pub(crate) attempt: A,
    handle: SendHandle,
    upper_port: u8,
    payload: Vec<u8>,
    seq: u8,
}

/// What [`Link::receive`] leaves for the MAC's channel access to act on.
pub(crate) enum Rx<'f> {
    /// A data frame, already delivered unless a duplicate. `unicast`
    /// means it was addressed to this node, whose ACK is now due.
    Data { unicast: bool },
    /// An ACK carrying the head's sequence number.
    HeadAcked,
    /// A probe or beacon, with its body.
    Probe(&'f [u8]),
}

/// The send queue, sequence numbers, duplicate cache and owed ACK of
/// one MAC on radio port `PORT`.
#[derive(Debug)]
pub(crate) struct Link<A, const PORT: u8> {
    queue: VecDeque<Pending<A>>,
    seq: u8,
    next_handle: u64,
    dedup: SeqCache,
    /// The ACK owed for the last unicast data frame received: `(dst, seq)`.
    ack_due: Option<(NodeId, u8)>,
}

impl<A, const PORT: u8> Default for Link<A, PORT> {
    fn default() -> Self {
        Link {
            queue: VecDeque::new(),
            seq: 0,
            next_handle: 0,
            dedup: SeqCache::default(),
            ack_due: None,
        }
    }
}

impl<A, const PORT: u8> Link<A, PORT> {
    /// The admission step of every [`Mac::send`](crate::Mac::send):
    /// refuses a payload that does not fit a frame or a queue holding
    /// [`QUEUE_CAP`] frames, else allocates the handle and the link
    /// sequence number, enqueues the frame with its first `attempt`
    /// state and samples the queue depth. The caller then kicks its own
    /// channel access.
    pub(crate) fn admit(
        &mut self,
        ctx: &mut Ctx<'_>,
        dst: Dst,
        upper_port: u8,
        payload: Vec<u8>,
        attempt: A,
    ) -> Result<SendHandle, MacError> {
        if payload.len() + MAC_HEADER_LEN > iiot_sim::radio::MAX_PAYLOAD {
            return Err(MacError::TooLarge);
        }
        if self.queue.len() >= QUEUE_CAP {
            return Err(MacError::QueueFull);
        }
        let handle = SendHandle(self.next_handle);
        self.next_handle += 1;
        self.seq = self.seq.wrapping_add(1);
        self.queue.push_back(Pending {
            dst,
            attempt,
            handle,
            upper_port,
            payload,
            seq: self.seq,
        });
        if ctx.obs_enabled() {
            ctx.emit(EventKind::QueueDepth {
                queue: "mac",
                depth: self.queue.len() as u32,
            });
        }
        Ok(handle)
    }

    /// The frame at the head of the queue, the one channel access sends.
    #[inline]
    pub(crate) fn head(&self) -> Option<&Pending<A>> {
        self.queue.front()
    }

    #[inline]
    pub(crate) fn head_mut(&mut self) -> Option<&mut Pending<A>> {
        self.queue.front_mut()
    }

    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Moves the first queued frame whose destination is `eligible` to
    /// the head, keeping the others in order; `false` if there is none.
    pub(crate) fn promote(&mut self, eligible: impl Fn(Dst) -> bool) -> bool {
        let Some(j) = self.queue.iter().position(|p| eligible(p.dst)) else {
            return false;
        };
        if let Some(p) = self.queue.remove(j) {
            self.queue.push_front(p);
        }
        true
    }

    /// Retires the head into [`MacEvent::SendDone`]; a send that was
    /// not `acked` is also a `"fail"` [`EventKind::MacTx`].
    pub(crate) fn complete(&mut self, ctx: &mut Ctx<'_>, out: &mut Vec<MacEvent>, acked: bool) {
        let Some(head) = self.queue.pop_front() else {
            return;
        };
        out.push(MacEvent::SendDone {
            handle: head.handle,
            acked,
        });
        if !acked {
            ctx.emit(EventKind::MacTx { outcome: "fail" });
        }
    }

    /// Builds a frame in [`Ctx::frame_buf`] — so it reuses the memory
    /// of one that left the air — and hands it to the radio. Whether the
    /// radio took it is the caller's to act on.
    #[inline]
    fn transmit(ctx: &mut Ctx<'_>, dst: Dst, header: MacHeader, payload: &[u8]) -> bool {
        let mut bytes = ctx.frame_buf();
        encode(header, payload, &mut bytes);
        ctx.transmit(dst, PORT, bytes).is_ok()
    }

    /// Puts the head's data frame on the air as a `"data"` `mac_tx`;
    /// `false` if the radio refused it or the queue is empty.
    pub(crate) fn transmit_head(&self, ctx: &mut Ctx<'_>) -> bool {
        let Some(head) = self.queue.front() else {
            return false;
        };
        let header = MacHeader {
            kind: MacKind::Data,
            seq: head.seq,
            upper_port: head.upper_port,
        };
        let sent = Self::transmit(ctx, head.dst, header, &head.payload);
        if sent {
            ctx.emit(EventKind::MacTx { outcome: "data" });
        }
        sent
    }

    /// Sends the ACK owed for the last unicast data frame, if any; the
    /// debt is settled whether or not the radio took it.
    pub(crate) fn transmit_ack(&mut self, ctx: &mut Ctx<'_>) -> bool {
        let Some((dst, seq)) = self.ack_due.take() else {
            return false;
        };
        let header = MacHeader {
            kind: MacKind::Ack,
            seq,
            upper_port: 0,
        };
        Self::transmit(ctx, Dst::Unicast(dst), header, &[])
    }

    /// Broadcasts a probe (RI-MAC) or beacon (TDMA) carrying `body`.
    pub(crate) fn transmit_probe(&self, ctx: &mut Ctx<'_>, body: &[u8]) -> bool {
        let header = MacHeader {
            kind: MacKind::Probe,
            seq: 0,
            upper_port: 0,
        };
        Self::transmit(ctx, Dst::Broadcast, header, body)
    }

    /// The receive path every MAC shares: ignores frames on other ports
    /// and undecodable ones, delivers a data frame into `out` unless its
    /// `(src, seq)` was seen, records the ACK a unicast one is owed, and
    /// passes on only ACKs for the head.
    pub(crate) fn receive<'f>(
        &mut self,
        ctx: &mut Ctx<'_>,
        frame: &'f Frame,
        info: RxInfo,
        out: &mut Vec<MacEvent>,
    ) -> Option<Rx<'f>> {
        if frame.port != PORT {
            return None;
        }
        let (header, body) = decode(&frame.payload)?;
        match header.kind {
            MacKind::Data => {
                let unicast = frame.dst == Dst::Unicast(ctx.id());
                if unicast {
                    self.ack_due = Some((frame.src, header.seq));
                }
                if !self.dedup.check_and_insert(frame.src.0, header.seq) {
                    out.push(MacEvent::Delivered {
                        src: frame.src,
                        upper_port: header.upper_port,
                        payload: body.to_vec(),
                        info,
                    });
                }
                Some(Rx::Data { unicast })
            }
            MacKind::Ack => {
                let head_seq = self.queue.front().map(|p| p.seq);
                (head_seq == Some(header.seq)).then_some(Rx::HeadAcked)
            }
            MacKind::Probe => Some(Rx::Probe(body)),
        }
    }

    /// Forgets the queue, the duplicate cache and any owed ACK after a
    /// crash; handles and sequence numbers keep counting.
    pub(crate) fn crashed(&mut self) {
        self.queue.clear();
        self.dedup.clear();
        self.ack_due = None;
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
        let mut c = SeqCache::default();
        assert!(!c.check_and_insert(1, 10));
        assert!(c.check_and_insert(1, 10));
        assert!(!c.check_and_insert(2, 10));
        assert!(!c.check_and_insert(1, 11));
        c.clear();
        assert!(!c.check_and_insert(1, 10));
    }

    #[test]
    fn seq_cache_evicts_oldest() {
        let mut c = SeqCache::default();
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
