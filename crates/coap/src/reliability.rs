//! Confirmable-message reliability (RFC 7252 §4.2): retransmission with
//! binary exponential backoff, and message-id deduplication with cached
//! responses.

use crate::message::Message;
use iiot_sim::{SimDuration, SimTime};
use rand::Rng;
use std::collections::HashMap;
use std::hash::Hash;

/// Initial ACK timeout (RFC 7252 §4.8 `ACK_TIMEOUT`).
pub const ACK_TIMEOUT: SimDuration = SimDuration::from_secs(2);
/// Random factor in percent (RFC 7252 §4.8 `ACK_RANDOM_FACTOR` 1.5).
pub const ACK_RANDOM_FACTOR_PCT: u32 = 150;
/// Maximum retransmissions (RFC 7252 §4.8 `MAX_RETRANSMIT`).
pub const MAX_RETRANSMIT: u32 = 4;

/// An in-flight confirmable exchange.
#[derive(Clone, Debug)]
pub struct Exchange<P> {
    /// Destination peer.
    pub peer: P,
    /// The message being retransmitted.
    pub msg: Message,
    retries: u32,
    next_at: SimTime,
    timeout: SimDuration,
}

/// Tracks outstanding confirmable messages per peer, with RFC 7252's
/// retransmission parameters.
///
/// The owner drives it: [`register`](ConTracker::register) when sending
/// a CON, [`acked`](ConTracker::acked) on a matching ACK/RST, and
/// [`due`](ConTracker::due) from a timer to collect retransmissions and
/// give-ups.
#[derive(Clone, Debug)]
pub struct ConTracker<P> {
    inflight: HashMap<u16, Exchange<P>>,
    retransmissions: u64,
}

/// What [`ConTracker::due`] decided for one exchange.
#[derive(Clone, Debug)]
pub enum DueAction<P> {
    /// Retransmit this message to this peer; the third field is the
    /// 1-based retransmission attempt number.
    Retransmit(P, Message, u32),
    /// All retransmissions exhausted: the exchange failed.
    GiveUp(Exchange<P>),
}

impl<P> Default for ConTracker<P> {
    fn default() -> Self {
        ConTracker {
            inflight: HashMap::new(),
            retransmissions: 0,
        }
    }
}

impl<P: Copy + Eq + Hash> ConTracker<P> {
    /// Total retransmissions performed over the tracker's lifetime.
    pub fn retransmissions(&self) -> u64 {
        self.retransmissions
    }

    /// Registers a just-transmitted CON message.
    pub fn register<R: Rng>(&mut self, peer: P, msg: Message, now: SimTime, rng: &mut R) {
        let base = ACK_TIMEOUT.as_micros();
        let factor = rng.gen_range(100..=ACK_RANDOM_FACTOR_PCT);
        let timeout = SimDuration::from_micros(base * factor as u64 / 100);
        let mid = msg.message_id;
        self.inflight.insert(
            mid,
            Exchange {
                peer,
                msg,
                retries: 0,
                next_at: now + timeout,
                timeout,
            },
        );
    }

    /// Handles an ACK or RST for `message_id`; returns the settled
    /// exchange if one was outstanding.
    pub fn acked(&mut self, message_id: u16) -> Option<Exchange<P>> {
        self.inflight.remove(&message_id)
    }

    /// Number of outstanding exchanges.
    pub fn outstanding(&self) -> usize {
        self.inflight.len()
    }

    /// Earliest deadline of any outstanding exchange (for timer setup).
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.inflight.values().map(|e| e.next_at).min()
    }

    /// Collects all exchanges whose deadline passed: doubles their
    /// timeout and returns retransmissions, or gives up after
    /// [`MAX_RETRANSMIT`] attempts.
    pub fn due(&mut self, now: SimTime) -> Vec<DueAction<P>> {
        let mut actions = Vec::new();
        let expired: Vec<u16> = self
            .inflight
            .iter()
            .filter(|(_, e)| e.next_at <= now)
            .map(|(&mid, _)| mid)
            .collect();
        for mid in expired {
            let e = self.inflight.get_mut(&mid).expect("present");
            if e.retries >= MAX_RETRANSMIT {
                let e = self.inflight.remove(&mid).expect("present");
                actions.push(DueAction::GiveUp(e));
            } else {
                e.retries += 1;
                e.timeout = e.timeout * 2;
                e.next_at = now + e.timeout;
                self.retransmissions += 1;
                actions.push(DueAction::Retransmit(e.peer, e.msg.clone(), e.retries));
            }
        }
        actions
    }
}

/// Deduplication of received confirmable requests: remembers recent
/// `(peer, message_id)` pairs with the response that was sent, so a
/// retransmitted request elicits the cached response instead of a
/// second execution (RFC 7252 §4.5 idempotence handling).
#[derive(Clone, Debug)]
pub struct DedupCache<P> {
    cap: usize,
    entries: Vec<DedupEntry<P>>,
}

/// One remembered exchange: the `(peer, message_id)` key and the cached
/// response payload (`None` for requests still being executed).
type DedupEntry<P> = ((P, u16), Option<Vec<u8>>);

impl<P: Copy + Eq> DedupCache<P> {
    /// A cache remembering the last `cap` exchanges.
    pub fn new(cap: usize) -> Self {
        DedupCache {
            cap,
            entries: Vec::new(),
        }
    }

    /// If `(peer, mid)` was already processed, returns `Some(cached
    /// response)` (which may be `None` inside if no response was
    /// recorded). Otherwise records the pair and returns `None`.
    #[allow(clippy::type_complexity)]
    pub fn check(&mut self, peer: P, mid: u16) -> Option<Option<Vec<u8>>> {
        if let Some((_, resp)) = self
            .entries
            .iter()
            .find(|((p, m), _)| *p == peer && *m == mid)
        {
            return Some(resp.clone());
        }
        if self.entries.len() >= self.cap {
            self.entries.remove(0);
        }
        self.entries.push(((peer, mid), None));
        None
    }

    /// Records the response bytes for `(peer, mid)` so retransmitted
    /// requests can be answered from cache.
    pub fn store_response(&mut self, peer: P, mid: u16, response: Vec<u8>) {
        if let Some(e) = self
            .entries
            .iter_mut()
            .find(|((p, m), _)| *p == peer && *m == mid)
        {
            e.1 = Some(response);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Code;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(5)
    }

    fn msg(mid: u16) -> Message {
        Message::request(Code::Get, mid, vec![1])
    }

    #[test]
    fn ack_settles_exchange() {
        let mut t: ConTracker<u32> = ConTracker::default();
        t.register(7, msg(1), SimTime::ZERO, &mut rng());
        assert_eq!(t.outstanding(), 1);
        let e = t.acked(1).expect("settled");
        assert_eq!(e.peer, 7);
        assert_eq!(t.outstanding(), 0);
        assert!(t.acked(1).is_none());
    }

    #[test]
    fn backoff_doubles_and_gives_up() {
        let mut t: ConTracker<u32> = ConTracker::default();
        t.register(9, msg(1), SimTime::ZERO, &mut rng());
        let first = t.next_deadline().expect("registered");
        assert!(first >= SimTime::ZERO + ACK_TIMEOUT, "{first}");
        assert!(first <= SimTime::ZERO + ACK_TIMEOUT * 3 / 2, "{first}");

        // Each deadline retransmits and doubles the wait.
        let mut now = first;
        let mut wait = first - SimTime::ZERO;
        for attempt in 1..=MAX_RETRANSMIT {
            let a = t.due(now);
            assert!(
                matches!(a.as_slice(), [DueAction::Retransmit(9, _, n)] if *n == attempt),
                "attempt {attempt}: {a:?}"
            );
            wait = wait * 2;
            assert_eq!(t.next_deadline(), Some(now + wait));
            now += wait;
        }

        // The deadline after the last retransmission gives up.
        let a = t.due(now);
        assert!(matches!(a.as_slice(), [DueAction::GiveUp(_)]));
        assert_eq!(t.outstanding(), 0);
        assert_eq!(t.retransmissions(), u64::from(MAX_RETRANSMIT));
    }

    #[test]
    fn due_ignores_future_deadlines() {
        let mut t: ConTracker<u32> = ConTracker::default();
        t.register(1, msg(1), SimTime::ZERO, &mut rng());
        assert!(t.due(SimTime::from_millis(100)).is_empty());
        assert_eq!(t.outstanding(), 1);
    }

    #[test]
    fn random_factor_spreads_timeouts() {
        let mut t: ConTracker<u32> = ConTracker::default();
        let mut r = rng();
        let mut deadlines = std::collections::BTreeSet::new();
        for mid in 0..20 {
            t.register(1, msg(mid), SimTime::ZERO, &mut r);
            deadlines.insert(t.inflight[&mid].next_at);
        }
        assert!(deadlines.len() > 5, "timeouts should be jittered");
        for d in deadlines {
            assert!(d >= SimTime::from_secs(2));
            assert!(d <= SimTime::from_secs(3));
        }
    }

    #[test]
    fn dedup_remembers_and_serves_cached_response() {
        let mut d: DedupCache<u32> = DedupCache::new(4);
        assert!(d.check(1, 100).is_none(), "first sight");
        assert_eq!(d.check(1, 100), Some(None), "duplicate, no response yet");
        d.store_response(1, 100, vec![0xCA]);
        assert_eq!(d.check(1, 100), Some(Some(vec![0xCA])));
        // Different peer, same mid: independent.
        assert!(d.check(2, 100).is_none());
    }

    #[test]
    fn dedup_evicts_oldest() {
        let mut d: DedupCache<u32> = DedupCache::new(2);
        assert!(d.check(1, 1).is_none());
        assert!(d.check(1, 2).is_none());
        assert!(d.check(1, 3).is_none()); // evicts (1,1)
        assert!(d.check(1, 1).is_none(), "forgotten after eviction");
    }
}
