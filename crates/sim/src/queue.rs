//! The kernel's event queue: a calendar queue (Brown, CACM 1988) that
//! pops entries in exactly the order a binary heap over `(time, seq)`
//! pops them, without sifting through every pending entry per push.
//!
//! Time is cut into buckets [`WIDTH_US`] µs wide. The *current* bucket —
//! the one the last popped entry came from — is a small binary heap; the
//! next `RING - 1` buckets are lists threaded through one entry slab and
//! found through an occupancy bitmap; an entry a whole ring or more ahead
//! waits in an overflow heap (a *spill*) and moves into the ring when the
//! ring's horizon reaches it. When the current bucket runs dry, the next
//! occupied bucket's list is heapified in one pass and becomes current.
//!
//! Every entry of a later bucket is later than every entry of the current
//! one, so the current heap's least entry is the queue's least entry, and
//! ties inside a bucket keep the entries' own order. Two invariants keep
//! that true:
//!
//! 1. **No push lands before the current bucket.** The kernel pushes at
//!    or after `now`, and `now` never falls behind the current bucket
//!    (`World::run_until` leaves the clock alone on a past deadline).
//! 2. **A pop that finds nothing due moves the current bucket no further
//!    than its deadline's bucket.** [`Calendar::pop_until`] advances only
//!    to a bucket that starts at or before its deadline, so a push made
//!    at the deadline after it returns `None` still lands at or after the
//!    current bucket, even when that is before the next occupied one.
//!
//! The constants come from the push-delay histogram of the benchmark's
//! `plant` deployment: 67.5 % of pushes land 0.5–1 ms ahead (the LPL
//! strobe gap), 16.8 % 1–2 ms (frame ends), 7.7 % 4–8 ms (the LPL sample
//! end), 6.4 % 131–262 ms (the LPL wake) and 1.1 % 0.26–134 s (DODAG,
//! Trickle and traffic timers); 0.06 % land at `now`. A bucket of about a
//! millisecond holds a strobe gap's worth of events, and a ring of about
//! a second keeps everything but the last group out of the overflow heap.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

/// log2 of a bucket's width in microseconds.
const SHIFT: u32 = 10;
/// A bucket's width: 1,024 µs.
const WIDTH_US: u64 = 1 << SHIFT;
/// Buckets in the ring, the current one included: the ring's horizon is
/// `RING * WIDTH_US` ≈ 1.05 s past the current bucket's start.
const RING: u64 = 1 << 10;
const MASK: usize = RING as usize - 1;
/// Words of the occupancy bitmap, one bit per ring bucket.
const WORDS: usize = RING as usize / 64;
/// The end of a bucket's list, and of the slab's free list.
const NIL: u32 = u32::MAX;

/// An entry the calendar can hold: filed by [`Timed::at`], popped least
/// first by its `Ord`, which must order by `at()` first.
pub(crate) trait Timed: Ord {
    /// When the entry is due.
    fn at(&self) -> SimTime;
}

/// The bucket `t` falls in.
fn bucket(t: SimTime) -> u64 {
    t.as_micros() >> SHIFT
}

/// A slab cell: an entry filed in a ring bucket, or a free cell, and the
/// next cell of the same list. The link sits beside the entry so the
/// entry's own layout is the caller's.
struct Link<E> {
    entry: Option<E>,
    next: u32,
}

/// A calendar queue over entries `E` (see the [module docs](self)).
pub(crate) struct Calendar<E> {
    /// Number of the current bucket (time / [`WIDTH_US`]).
    cur: u64,
    /// Everything filed in the current bucket.
    current: BinaryHeap<Reverse<E>>,
    /// Head cell of each ring bucket's list, at `bucket & MASK`.
    heads: [u32; RING as usize],
    /// Bit `b & MASK` is set while bucket `b`'s list is non-empty.
    occupied: [u64; WORDS],
    /// Entries filed in the ring's lists.
    ring_len: usize,
    /// The cells of every ring list, and the free ones.
    slab: Vec<Link<E>>,
    /// Head of the free-cell list.
    free: u32,
    /// Entries a whole ring or more past the current bucket.
    overflow: BinaryHeap<Reverse<E>>,
    /// Pushes filed into `overflow`.
    spills: u64,
}

impl<E: Timed> Calendar<E> {
    /// An empty calendar whose current bucket holds time zero.
    pub(crate) fn new() -> Self {
        Calendar {
            cur: 0,
            current: BinaryHeap::new(),
            heads: [NIL; RING as usize],
            occupied: [0; WORDS],
            ring_len: 0,
            slab: Vec::new(),
            free: NIL,
            overflow: BinaryHeap::new(),
            spills: 0,
        }
    }

    /// Makes room for `additional` entries at the current time.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.current.reserve(additional);
    }

    /// Entries queued.
    pub(crate) fn len(&self) -> usize {
        self.current.len() + self.ring_len + self.overflow.len()
    }

    /// Pushes that landed a whole ring or more ahead of the current
    /// bucket, in the overflow heap.
    pub(crate) fn spills(&self) -> u64 {
        self.spills
    }

    /// Queues `e`, which must not be due before the current bucket
    /// (invariant 1 of the [module docs](self)).
    pub(crate) fn push(&mut self, e: E) {
        let b = bucket(e.at());
        debug_assert!(b >= self.cur, "pushed before the current bucket");
        if b <= self.cur {
            self.current.push(Reverse(e));
        } else if b - self.cur < RING {
            self.file(b, e);
        } else {
            self.spills += 1;
            self.overflow.push(Reverse(e));
        }
    }

    /// Removes and returns the least entry if it is due at or before
    /// `deadline`. Returning `None`, it leaves the current bucket at or
    /// before `deadline`'s (invariant 2 of the [module docs](self)).
    pub(crate) fn pop_until(&mut self, deadline: SimTime) -> Option<E> {
        if self.current.is_empty() {
            let next = self.next_bucket()?;
            if next * WIDTH_US > deadline.as_micros() {
                return None;
            }
            self.advance(next);
        }
        let top = self.current.peek_mut()?;
        if top.0.at() > deadline {
            return None;
        }
        Some(PeekMut::pop(top).0)
    }

    /// Files `e` in ring bucket `b`, which is ahead of the current one
    /// by less than a ring.
    fn file(&mut self, b: u64, e: E) {
        let slot = b as usize & MASK;
        let link = Link {
            entry: Some(e),
            next: self.heads[slot],
        };
        let cell = if self.free == NIL {
            assert!(self.slab.len() < NIL as usize, "calendar slab full");
            self.slab.push(link);
            self.slab.len() as u32 - 1
        } else {
            let cell = self.free;
            self.free = std::mem::replace(&mut self.slab[cell as usize], link).next;
            cell
        };
        self.heads[slot] = cell;
        self.occupied[slot / 64] |= 1 << (slot % 64);
        self.ring_len += 1;
    }

    /// The earliest bucket after the current one that holds an entry.
    fn next_bucket(&self) -> Option<u64> {
        let far = self.overflow.peek().map(|e| bucket(e.0.at()));
        self.next_in_ring().into_iter().chain(far).min()
    }

    /// The earliest occupied ring bucket: the first set bit after the
    /// current bucket's, wrapping round the bitmap. The current bucket's
    /// own bit is never set, and is never read as a ring bucket.
    fn next_in_ring(&self) -> Option<u64> {
        if self.ring_len == 0 {
            return None;
        }
        let cur = self.cur as usize & MASK;
        let (w0, bit) = (cur / 64, cur % 64);
        // Bits above the current one in its word, the other words in
        // ring order, then the bits below it in its word.
        for i in 0..=WORDS {
            let w = (w0 + i) % WORDS;
            let word = match i {
                0 => self.occupied[w] & (!1u64 << bit),
                WORDS => self.occupied[w] & ((1u64 << bit) - 1),
                _ => self.occupied[w],
            };
            if word != 0 {
                let slot = w * 64 + word.trailing_zeros() as usize;
                return Some(self.cur + (slot.wrapping_sub(cur) & MASK) as u64);
            }
        }
        None
    }

    /// Makes bucket `b` — the next occupied one — current: its ring list
    /// and any overflow entries due in it become the current heap, and
    /// overflow entries the moved horizon now reaches go into the ring.
    fn advance(&mut self, b: u64) {
        debug_assert!(self.current.is_empty() && b > self.cur);
        self.cur = b;
        let mut due = std::mem::take(&mut self.current).into_vec();
        let slot = b as usize & MASK;
        let mut cell = std::mem::replace(&mut self.heads[slot], NIL);
        if cell != NIL {
            self.occupied[slot / 64] &= !(1 << (slot % 64));
        }
        while cell != NIL {
            let link = &mut self.slab[cell as usize];
            due.push(Reverse(
                link.entry.take().expect("a listed cell holds an entry"),
            ));
            let next = std::mem::replace(&mut link.next, self.free);
            self.free = cell;
            self.ring_len -= 1;
            cell = next;
        }
        while let Some(fb) = self.overflow.peek().map(|e| bucket(e.0.at())) {
            if fb - b >= RING {
                break;
            }
            let Reverse(e) = self.overflow.pop().expect("peeked");
            if fb == b {
                due.push(Reverse(e));
            } else {
                self.file(fb, e);
            }
        }
        self.current = BinaryHeap::from(due);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A model entry: `(time, seq)`, which is also its order.
    type Entry = (SimTime, u64);

    impl Timed for Entry {
        fn at(&self) -> SimTime {
            self.0
        }
    }

    /// One horizon: a whole ring of buckets.
    const HORIZON_US: u64 = RING * WIDTH_US;

    /// The calendar under test beside the binary heap it must match, and
    /// the clock a kernel driving them would keep.
    struct Pair {
        cal: Calendar<Entry>,
        model: BinaryHeap<Reverse<Entry>>,
        now: SimTime,
        seq: u64,
    }

    impl Pair {
        fn new() -> Self {
            Pair {
                cal: Calendar::new(),
                model: BinaryHeap::new(),
                now: SimTime::ZERO,
                seq: 0,
            }
        }

        /// Pushes `copies` entries at `at` (clamped to `now`) into both.
        fn push(&mut self, at: u64, copies: u64) {
            let at = SimTime::from_micros(at.max(self.now.as_micros()));
            for _ in 0..copies {
                self.cal.push((at, self.seq));
                self.model.push(Reverse((at, self.seq)));
                self.seq += 1;
            }
            assert_eq!(self.cal.len(), self.model.len());
        }

        /// What `World::run_until` does: nothing if `deadline` is in the
        /// past, else pops every entry due by `deadline` from both, in
        /// the same order, and moves the clock to `deadline`.
        fn run_until(&mut self, deadline: SimTime) {
            if deadline < self.now {
                return;
            }
            loop {
                let want = match self.model.peek() {
                    Some(Reverse(e)) if e.0 <= deadline => self.model.pop().map(|r| r.0),
                    _ => None,
                };
                let got = self.cal.pop_until(deadline);
                assert_eq!(got, want, "deadline {deadline:?}, now {:?}", self.now);
                let Some((t, _)) = got else { break };
                assert!(t >= self.now, "popped into the past");
                self.now = t;
            }
            self.now = deadline;
            assert_eq!(self.cal.len(), self.model.len());
        }

        /// The one time `kind` names, from the draw `a`.
        fn time(&self, kind: u8, a: u64) -> u64 {
            let now = self.now.as_micros();
            // The current bucket's horizon, in µs (saturating near MAX).
            let horizon = (self.cal.cur + RING).saturating_mul(WIDTH_US);
            match kind {
                // Ties at `now`.
                0 => now,
                // Within the current bucket or just past it.
                1 => now.saturating_add(a % WIDTH_US),
                // Somewhere in the next bucket.
                2 => (bucket(self.now) + 1)
                    .saturating_mul(WIDTH_US)
                    .saturating_add(a % WIDTH_US),
                // Just under, and exactly at, one horizon.
                3 => horizon - 1,
                4 => horizon,
                // Many horizons ahead.
                5 => now.saturating_add(HORIZON_US * (1 + a % 50) + a % HORIZON_US),
                // Near the end of time.
                6 => u64::MAX - a % 4_096,
                // Anywhere in the next four horizons.
                _ => now.saturating_add(a % (4 * HORIZON_US)),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any interleaving of pushes, pops and stopped runs pops what a
        /// binary heap over `(time, seq)` pops, in the same order.
        #[test]
        fn pops_in_binary_heap_order(
            steps in proptest::collection::vec((0u8..12, any::<u64>()), 1..300),
        ) {
            let mut p = Pair::new();
            for (op, a) in steps {
                match op {
                    // A push of one to three entries at one time, so
                    // equal-µs ties are common.
                    0..=7 => p.push(p.time(op, a), 1 + a % 3),
                    // Pop one entry, whenever it is due.
                    8 => {
                        if let Some(Reverse((t, _))) = p.model.peek() {
                            let t = *t;
                            p.run_until(t);
                        } else {
                            prop_assert_eq!(p.cal.pop_until(SimTime::MAX), None);
                        }
                    }
                    // A run that stops in the empty stretch before the
                    // next entry (a peek that finds nothing due), then
                    // pushes at and just after its deadline.
                    9 => {
                        let next = p.model.peek().map_or(u64::MAX, |e| e.0 .0.as_micros());
                        let gap = next - p.now.as_micros();
                        let deadline = p.now.as_micros() + a % gap.max(1);
                        p.run_until(SimTime::from_micros(deadline.min(next.saturating_sub(1))));
                        let now = p.now.as_micros();
                        p.push(now, 1 + a % 2);
                        p.push(now.saturating_add(a % (3 * WIDTH_US)), 1);
                    }
                    // A run to a deadline up to two horizons out.
                    10 => {
                        let deadline = p.now.as_micros().saturating_add(a % (2 * HORIZON_US));
                        p.run_until(SimTime::from_micros(deadline));
                    }
                    // A deadline in the past leaves the clock alone.
                    _ => p.run_until(SimTime::from_micros(p.now.as_micros() / 2)),
                }
            }
            p.run_until(SimTime::MAX);
            prop_assert_eq!(p.cal.len(), 0);
        }
    }

    #[test]
    fn an_entry_exactly_one_horizon_ahead_spills_and_pops_in_turn() {
        let mut p = Pair::new();
        p.push(HORIZON_US - 1, 1); // the ring's last bucket
        p.push(HORIZON_US, 1); // one horizon ahead: the overflow heap
        p.push(HORIZON_US + WIDTH_US, 1);
        assert_eq!(p.cal.spills(), 2);
        p.run_until(SimTime::MAX);
    }

    #[test]
    fn a_stopped_run_leaves_room_for_a_push_at_its_deadline() {
        // The next entry is 10 ms out; a run to 5 ms finds nothing due,
        // and a push at 5 ms must still pop before the 10 ms entry.
        let mut p = Pair::new();
        p.push(10_000, 1);
        p.run_until(SimTime::from_micros(5_000));
        assert!(p.cal.cur <= bucket(p.now));
        p.push(5_000, 1);
        p.push(7_500, 1);
        p.run_until(SimTime::MAX);
    }

    #[test]
    fn the_slab_holds_peak_pending_entries_only() {
        // 10^5 pushes 2 ms ahead, each popped before the next: the slab
        // never needs more cells than were ever filed at once.
        let mut cal = Calendar::new();
        for seq in 0..100_000u64 {
            cal.push((SimTime::from_micros(seq * 100 + 2_000), seq));
            if seq >= 20 {
                assert_eq!(cal.pop_until(SimTime::MAX).map(|e| e.1), Some(seq - 20));
            }
        }
        assert!(cal.slab.len() <= 21, "{} cells", cal.slab.len());
        assert_eq!(cal.spills(), 0);
    }
}
