//! The calendar queue (Brown, CACM 1988) behind the kernel's event queue
//! and the cloud's session generator: it pops entries in exactly the
//! order a binary heap over their `Ord` pops them, without sifting
//! through every pending entry per push.
//!
//! Time is cut into buckets 2^`SHIFT` µs wide, `SHIFT` being the
//! calendar's type parameter. The *current* bucket — the one the last
//! popped entry came from — is a run sorted ascending and popped from
//! the front; the next `RING - 1` buckets are lists threaded through one
//! entry slab and found through an occupancy bitmap; an entry a whole
//! ring or more ahead waits in an overflow heap (a *spill*) and moves
//! into the ring when the ring's horizon reaches it. When the current
//! bucket runs dry, the next occupied bucket's list is sorted once and
//! becomes the current run.
//!
//! A push into the current bucket at or after the run's tail — the
//! `Start` burst, and a follow-up at the instant just popped when nothing
//! later is filed there — appends in O(1). Only a push before the tail
//! searches for its place and inserts there; the run is a bucket's worth
//! of entries, so that is short.
//!
//! Every entry of a later bucket is later than every entry of the current
//! one, so the run's front is the queue's least entry, and ties inside a
//! bucket keep the entries' own order. Two invariants keep that true:
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
//! The ring is a fixed 4,096 buckets, so its horizon is `4096 << SHIFT`
//! µs. The kernel's instance keeps the default `SHIFT` of 8: 256 µs
//! buckets and a 2^20 µs ≈ 1.05 s horizon, which comes from the
//! push-delay histogram of the benchmark's `plant` deployment: 67.5 % of
//! pushes land 0.5–1 ms ahead (the LPL strobe gap), 16.8 % 1–2 ms (frame
//! ends), 7.7 % 4–8 ms (the LPL sample end), 6.4 % 131–262 ms (the LPL
//! wake) and 1.1 % 0.26–134 s (DODAG, Trickle and traffic timers); 0.06 %
//! land at `now`. A ring of about a second keeps everything but the last
//! group out of the overflow heap.
//!
//! The width sets how long a run is. At 1,024 µs a `plant` run held 24
//! entries on average and a `field_dense` one (6,400 broadcasters) 262,
//! and 6.5 % of `plant`'s pushes landed before the run's tail; at 256 µs
//! they hold 6.8 and 66, and 0.03 % of pushes insert. A sorted run beat
//! the heap at every width tried, 64–1,024 µs, while a heap gained little
//! from narrower buckets; 64, 128 and 256 µs measured within a few per
//! cent of each other, and 256 µs was the fastest on `plant` with the
//! smallest ring of the three. Traffic spaced by a second or more wants
//! wider buckets, whose horizon covers its spacing: see
//! `iiot_cloud::SessionGen`.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Buckets in the ring, the current one included, at every width.
const RING: u64 = 1 << 12;
const MASK: usize = RING as usize - 1;
/// Words of the occupancy bitmap, one bit per ring bucket.
const WORDS: usize = RING as usize / 64;
/// The end of a bucket's list, and of the slab's free list.
const NIL: u32 = u32::MAX;

/// An entry a [`Calendar`] can hold: filed by [`Timed::at`], popped least
/// first by its `Ord`, which must order by `at()` first.
pub trait Timed: Ord {
    /// When the entry is due.
    fn at(&self) -> SimTime;
}

/// A slab cell: an entry filed in a ring bucket, or a free cell, and the
/// next cell of the same list. The link sits beside the entry so the
/// entry's own layout is the caller's.
struct Link<E> {
    entry: Option<E>,
    next: u32,
}

/// A calendar queue over entries `E` in buckets 2^`SHIFT` µs wide (see
/// the [module docs](self)).
pub struct Calendar<E, const SHIFT: u32 = 8> {
    /// Number of the current bucket (time >> `SHIFT`).
    cur: u64,
    /// Everything filed in the current bucket, least first.
    current: VecDeque<E>,
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
    /// Pushes that went into the current run before its tail.
    #[cfg(test)]
    inserts: u64,
}

impl<E: Timed, const SHIFT: u32> Default for Calendar<E, SHIFT> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: Timed, const SHIFT: u32> Calendar<E, SHIFT> {
    /// An empty calendar whose current bucket holds time zero.
    pub fn new() -> Self {
        Calendar {
            cur: 0,
            current: VecDeque::new(),
            heads: [NIL; RING as usize],
            occupied: [0; WORDS],
            ring_len: 0,
            slab: Vec::new(),
            free: NIL,
            overflow: BinaryHeap::new(),
            spills: 0,
            #[cfg(test)]
            inserts: 0,
        }
    }

    /// Makes room for `additional` entries at the current time.
    pub fn reserve(&mut self, additional: usize) {
        self.current.reserve(additional);
    }

    /// Makes room for `additional` entries filed in the ring, ahead of
    /// the current bucket but within its horizon.
    pub fn reserve_ahead(&mut self, additional: usize) {
        self.slab.reserve(additional);
    }

    /// Entries queued.
    pub fn len(&self) -> usize {
        self.current.len() + self.ring_len + self.overflow.len()
    }

    /// Whether no entry is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pushes that landed a whole ring or more ahead of the current
    /// bucket, in the overflow heap.
    pub fn spills(&self) -> u64 {
        self.spills
    }

    /// The bucket `t` falls in.
    fn bucket(t: SimTime) -> u64 {
        t.as_micros() >> SHIFT
    }

    /// Queues `e`, which must not be due before the current bucket
    /// (invariant 1 of the [module docs](self)).
    pub fn push(&mut self, e: E) {
        let b = Self::bucket(e.at());
        debug_assert!(b >= self.cur, "pushed before the current bucket");
        if b <= self.cur {
            self.push_current(e);
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
    pub fn pop_until(&mut self, deadline: SimTime) -> Option<E> {
        if self.current.is_empty() {
            let next = self.next_bucket()?;
            if next << SHIFT > deadline.as_micros() {
                return None;
            }
            self.advance(next);
        }
        if self.current.front()?.at() > deadline {
            return None;
        }
        self.current.pop_front()
    }
    /// Puts `e` in its place in the current run: appended when it is not
    /// before the run's tail, else inserted after every lesser entry.
    fn push_current(&mut self, e: E) {
        match self.current.back() {
            Some(tail) if e < *tail => {
                let at = self.current.partition_point(|x| *x < e);
                self.current.insert(at, e);
                #[cfg(test)]
                {
                    self.inserts += 1;
                }
            }
            _ => self.current.push_back(e),
        }
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
        let far = self.overflow.peek().map(|e| Self::bucket(e.0.at()));
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
    /// and any overflow entries due in it, sorted, become the current
    /// run, and overflow entries the moved horizon now reaches go into
    /// the ring.
    fn advance(&mut self, b: u64) {
        debug_assert!(self.current.is_empty() && b > self.cur);
        self.cur = b;
        let mut run = Vec::from(std::mem::take(&mut self.current));
        let slot = b as usize & MASK;
        let mut cell = std::mem::replace(&mut self.heads[slot], NIL);
        if cell != NIL {
            self.occupied[slot / 64] &= !(1 << (slot % 64));
        }
        while cell != NIL {
            let link = &mut self.slab[cell as usize];
            run.push(link.entry.take().expect("a listed cell holds an entry"));
            let next = std::mem::replace(&mut link.next, self.free);
            self.free = cell;
            self.ring_len -= 1;
            cell = next;
        }
        while let Some(fb) = self.overflow.peek().map(|e| Self::bucket(e.0.at())) {
            if fb - b >= RING {
                break;
            }
            let Reverse(e) = self.overflow.pop().expect("peeked");
            if fb == b {
                run.push(e);
            } else {
                self.file(fb, e);
            }
        }
        // No two entries are equal (`seq` is unique), so an unstable sort
        // orders them exactly.
        run.sort_unstable();
        self.current = VecDeque::from(run);
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

    /// The kernel's width, 256 µs, and the cloud session generator's,
    /// 1,024 µs: every test below runs at both.
    const KERNEL: u32 = 8;
    const SESSION: u32 = 10;

    /// The calendar under test beside the binary heap it must match, and
    /// the clock a kernel driving them would keep.
    struct Pair<const SHIFT: u32> {
        cal: Calendar<Entry, SHIFT>,
        model: BinaryHeap<Reverse<Entry>>,
        now: SimTime,
        seq: u64,
    }

    impl<const SHIFT: u32> Pair<SHIFT> {
        const WIDTH_US: u64 = 1 << SHIFT;
        /// One horizon: a whole ring of buckets.
        const HORIZON_US: u64 = RING << SHIFT;

        fn new() -> Self {
            Pair {
                cal: Calendar::new(),
                model: BinaryHeap::new(),
                now: SimTime::ZERO,
                seq: 0,
            }
        }

        /// The bucket `t` falls in.
        fn bucket(t: SimTime) -> u64 {
            Calendar::<Entry, SHIFT>::bucket(t)
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

        /// Pops one entry, whenever it is due.
        fn pop_one(&mut self) {
            match self.model.peek() {
                Some(Reverse((t, _))) => {
                    let t = *t;
                    self.run_until(t);
                }
                None => assert_eq!(self.cal.pop_until(SimTime::MAX), None),
            }
        }

        /// The one time `kind` names, from the draw `a`.
        fn time(&self, kind: u8, a: u64) -> u64 {
            let (width, horizon_us) = (Self::WIDTH_US, Self::HORIZON_US);
            let now = self.now.as_micros();
            // The current bucket's horizon, in µs (saturating near MAX).
            let horizon = (self.cal.cur + RING).saturating_mul(width);
            match kind {
                // Ties at `now`.
                0 => now,
                // Within the current bucket or just past it.
                1 => now.saturating_add(a % width),
                // Somewhere in the next bucket.
                2 => (Self::bucket(self.now) + 1)
                    .saturating_mul(width)
                    .saturating_add(a % width),
                // Just under, and exactly at, one horizon.
                3 => horizon - 1,
                4 => horizon,
                // Many horizons ahead.
                5 => now.saturating_add(horizon_us * (1 + a % 50) + a % horizon_us),
                // Near the end of time.
                6 => u64::MAX - a % 4_096,
                // Anywhere in the next four horizons.
                7 => now.saturating_add(a % (4 * horizon_us)),
                // Between `now` and the current bucket's last µs, so
                // often before the run's tail: the insert path.
                8 => {
                    let last = (self.cal.cur + 1).saturating_mul(width) - 1;
                    now + a % (last.saturating_sub(now) + 1)
                }
                // Exactly on a bucket boundary a few buckets on, or the
                // µs before it.
                _ => (Self::bucket(self.now) + 1 + a % 4)
                    .saturating_mul(width)
                    .saturating_sub(a / 4 % 2),
            }
        }
    }

    /// Drives a calendar 2^`SHIFT` µs wide and a binary heap through
    /// `steps`, asserting after each pop that they agree.
    fn pops_in_heap_order<const SHIFT: u32>(steps: Vec<(u8, u64)>) {
        let mut p = Pair::<SHIFT>::new();
        for (op, a) in steps {
            match op {
                // A push of one to three entries at one time, so
                // equal-µs ties are common.
                0..=9 => p.push(p.time(op, a), 1 + a % 3),
                10 => p.pop_one(),
                // A run that stops in the empty stretch before the
                // next entry (a peek that finds nothing due), then
                // pushes at and just after its deadline.
                11 => {
                    let next = p.model.peek().map_or(u64::MAX, |e| e.0 .0.as_micros());
                    let gap = next - p.now.as_micros();
                    let deadline = p.now.as_micros() + a % gap.max(1);
                    p.run_until(SimTime::from_micros(deadline.min(next.saturating_sub(1))));
                    let now = p.now.as_micros();
                    p.push(now, 1 + a % 2);
                    p.push(now.saturating_add(a % (3 * Pair::<SHIFT>::WIDTH_US)), 1);
                }
                // A run to a deadline up to two horizons out.
                12 => {
                    let deadline = p
                        .now
                        .as_micros()
                        .saturating_add(a % (2 * Pair::<SHIFT>::HORIZON_US));
                    p.run_until(SimTime::from_micros(deadline));
                }
                // A burst of 1,000–1,999 pushes at `now`, with pops
                // between some of them.
                13 => {
                    let now = p.now.as_micros();
                    for i in 0..1_000 + a % 1_000 {
                        p.push(now, 1);
                        if i % 97 == a % 97 {
                            p.pop_one();
                        }
                    }
                }
                // A deadline in the past leaves the clock alone.
                _ => p.run_until(SimTime::from_micros(p.now.as_micros() / 2)),
            }
        }
        p.run_until(SimTime::MAX);
        assert_eq!(p.cal.len(), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any interleaving of pushes, pops and stopped runs pops what a
        /// binary heap over `(time, seq)` pops, in the same order, at the
        /// kernel's width.
        #[test]
        fn pops_in_binary_heap_order(
            steps in proptest::collection::vec((0u8..15, any::<u64>()), 1..300),
        ) {
            pops_in_heap_order::<KERNEL>(steps);
        }

        /// The same at the session generator's width.
        #[test]
        fn pops_in_binary_heap_order_at_the_session_width(
            steps in proptest::collection::vec((0u8..15, any::<u64>()), 1..300),
        ) {
            pops_in_heap_order::<SESSION>(steps);
        }
    }

    #[test]
    fn an_entry_exactly_one_horizon_ahead_spills_and_pops_in_turn() {
        fn at<const SHIFT: u32>() {
            let (width, horizon) = (Pair::<SHIFT>::WIDTH_US, Pair::<SHIFT>::HORIZON_US);
            let mut p = Pair::<SHIFT>::new();
            p.push(horizon - 1, 1); // the ring's last bucket
            p.push(horizon, 1); // one horizon ahead: the overflow heap
            p.push(horizon + width, 1);
            assert_eq!(p.cal.spills(), 2);
            p.run_until(SimTime::MAX);
        }
        at::<KERNEL>();
        at::<SESSION>();
    }

    #[test]
    fn overflow_entries_migrate_into_the_ring_bucket_by_bucket() {
        // Spills one to three horizons out, on and either side of bucket
        // boundaries, with ties; each pop moves the horizon over some of
        // them, which must then pop in turn with entries filed later.
        fn at<const SHIFT: u32>() {
            let (width, horizon) = (Pair::<SHIFT>::WIDTH_US, Pair::<SHIFT>::HORIZON_US);
            let mut p = Pair::<SHIFT>::new();
            for k in 1..=3 {
                for off in [0, 1, width - 1, width, 5 * width] {
                    p.push(k * horizon + off, 2);
                }
            }
            assert_eq!(p.cal.spills(), 30);
            for _ in 0..200 {
                p.pop_one();
                let now = p.now.as_micros();
                p.push(now + width, 1);
                p.push(now + horizon - 1, 1);
            }
            p.run_until(SimTime::MAX);
        }
        at::<KERNEL>();
        at::<SESSION>();
    }

    #[test]
    fn a_stopped_run_leaves_room_for_a_push_at_its_deadline() {
        // The next entry is 10 ms out; a run to 5 ms finds nothing due,
        // and a push at 5 ms must still pop before the 10 ms entry.
        fn at<const SHIFT: u32>() {
            let mut p = Pair::<SHIFT>::new();
            p.push(10_000, 1);
            p.run_until(SimTime::from_micros(5_000));
            assert!(p.cal.cur <= Pair::<SHIFT>::bucket(p.now));
            p.push(5_000, 1);
            p.push(7_500, 1);
            p.run_until(SimTime::MAX);
        }
        at::<KERNEL>();
        at::<SESSION>();
    }

    #[test]
    fn pushes_at_now_in_seq_order_append_at_the_tail() {
        // The `Start` burst, and follow-ups at the instant just popped:
        // each one is the run's greatest entry, so a push that searched
        // and inserted would make a 10^5-node start quadratic.
        fn at<const SHIFT: u32>() {
            let width = Pair::<SHIFT>::WIDTH_US;
            let mut p = Pair::<SHIFT>::new();
            p.push(0, 100_000);
            for _ in 0..1_000 {
                p.pop_one();
                p.push(0, 1);
            }
            p.push(3 * width + 5, 1);
            p.run_until(SimTime::from_micros(3 * width + 5));
            p.push(3 * width + 5, 1_000);
            assert_eq!(p.cal.inserts, 0);
            // An entry before the tail does take the insert path.
            p.push(3 * width + 7, 1);
            p.push(3 * width + 6, 1);
            assert_eq!(p.cal.inserts, 1);
            p.run_until(SimTime::MAX);
        }
        at::<KERNEL>();
        at::<SESSION>();
    }

    #[test]
    fn the_slab_holds_peak_pending_entries_only() {
        // 10^5 pushes 2 ms ahead, each popped before the next: the slab
        // never needs more cells than were ever filed at once.
        fn at<const SHIFT: u32>() {
            let mut cal = Calendar::<Entry, SHIFT>::new();
            for seq in 0..100_000u64 {
                cal.push((SimTime::from_micros(seq * 100 + 2_000), seq));
                if seq >= 20 {
                    assert_eq!(cal.pop_until(SimTime::MAX).map(|e| e.1), Some(seq - 20));
                }
            }
            assert!(cal.slab.len() <= 21, "{} cells", cal.slab.len());
            assert_eq!(cal.spills(), 0);
        }
        at::<KERNEL>();
        at::<SESSION>();
    }
}
