//! Replicated registers: last-writer-wins ([`LwwRegister`]) and
//! multi-value ([`MvRegister`], which surfaces conflicts instead of
//! hiding them).

use crate::vclock::{ReplicaId, VClock};
use crate::Crdt;

/// A last-writer-wins register ordered by `(timestamp, replica)`.
///
/// Ties on the timestamp are broken by the larger replica id, so merge
/// is total and deterministic. Timestamps are caller-provided (e.g.
/// simulation time in microseconds). Correctness requires the usual LWW
/// precondition: a writer never issues two *different* values under the
/// same `(timestamp, writer)` pair — i.e. each writer's clock is
/// monotone across its own writes.
///
/// # Examples
///
/// ```
/// use iiot_crdt::{Crdt, LwwRegister, ReplicaId};
///
/// let mut a = LwwRegister::new(0, ReplicaId(1), "off");
/// let mut b = a.clone();
/// a.set(10, ReplicaId(1), "on");
/// b.set(12, ReplicaId(2), "auto");
/// a.merge(&b);
/// assert_eq!(*a.get(), "auto");
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LwwRegister<T> {
    timestamp: u64,
    writer: ReplicaId,
    value: T,
}

impl<T> LwwRegister<T> {
    /// A register initialized by `writer` at `timestamp`.
    pub fn new(timestamp: u64, writer: ReplicaId, value: T) -> Self {
        LwwRegister {
            timestamp,
            writer,
            value,
        }
    }

    /// Writes `value` if `(timestamp, writer)` is newer than the current
    /// write; otherwise the write loses immediately. Returns whether the
    /// write took effect locally.
    pub fn set(&mut self, timestamp: u64, writer: ReplicaId, value: T) -> bool {
        if (timestamp, writer) > (self.timestamp, self.writer) {
            self.timestamp = timestamp;
            self.writer = writer;
            self.value = value;
            true
        } else {
            false
        }
    }

    /// The current value.
    pub fn get(&self) -> &T {
        &self.value
    }

    /// The `(timestamp, writer)` of the winning write.
    pub fn version(&self) -> (u64, ReplicaId) {
        (self.timestamp, self.writer)
    }
}

impl<T: Clone> Crdt for LwwRegister<T> {
    fn merge(&mut self, other: &Self) {
        if (other.timestamp, other.writer) > (self.timestamp, self.writer) {
            self.timestamp = other.timestamp;
            self.writer = other.writer;
            self.value = other.value.clone();
        }
    }
}

/// A multi-value register: concurrent writes are all retained and
/// surfaced to the application for explicit conflict resolution — the
/// "decentralized resolution of potentially conflicting updates" the
/// paper calls for (§IV-B).
///
/// # Examples
///
/// ```
/// use iiot_crdt::{Crdt, MvRegister, ReplicaId};
///
/// let mut a = MvRegister::new();
/// a.set(ReplicaId(1), 20.0);
/// let mut b = a.clone();
/// a.set(ReplicaId(1), 21.5);
/// b.set(ReplicaId(2), 19.0);
/// a.merge(&b);
/// let mut vals: Vec<f64> = a.values().copied().collect();
/// vals.sort_by(f64::total_cmp);
/// assert_eq!(vals, vec![19.0, 21.5], "both concurrent writes survive");
/// ```
#[derive(Clone, Debug)]
pub struct MvRegister<T> {
    versions: Vec<(VClock, T)>,
}

/// Equality is *semantic*: the same set of `(clock, value)` versions,
/// regardless of the order merges happened to produce.
impl<T: PartialEq> PartialEq for MvRegister<T> {
    fn eq(&self, other: &Self) -> bool {
        self.versions.len() == other.versions.len()
            && self.versions.iter().all(|v| other.versions.contains(v))
    }
}

impl<T> Default for MvRegister<T> {
    fn default() -> Self {
        MvRegister {
            versions: Vec::new(),
        }
    }
}

impl<T: Clone + PartialEq> MvRegister<T> {
    /// An empty register (no writes yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes `value` on behalf of `replica`, superseding every version
    /// currently visible at this replica.
    pub fn set(&mut self, replica: ReplicaId, value: T) {
        let mut clock = VClock::new();
        for (c, _) in &self.versions {
            clock.merge(c);
        }
        clock.increment(replica);
        self.versions = vec![(clock, value)];
    }

    /// The current value(s): one if there is no conflict, several after
    /// concurrent writes.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.versions.iter().map(|(_, v)| v)
    }

    /// Whether concurrent writes are currently unresolved.
    pub fn is_conflicted(&self) -> bool {
        self.versions.len() > 1
    }

    /// Resolves a conflict by folding all current values into one, e.g.
    /// averaging sensor readings or taking the safest actuator command.
    pub fn resolve(&mut self, replica: ReplicaId, f: impl FnOnce(&[T]) -> T) {
        if self.versions.is_empty() {
            return;
        }
        let vals: Vec<T> = self.versions.iter().map(|(_, v)| v.clone()).collect();
        let winner = f(&vals);
        self.set(replica, winner);
    }

    /// Whether no write has happened yet.
    pub fn is_empty(&self) -> bool {
        self.versions.is_empty()
    }
}

impl<T: Clone + PartialEq> Crdt for MvRegister<T> {
    fn merge(&mut self, other: &Self) {
        let mut merged: Vec<(VClock, T)> = Vec::new();
        let candidates = self.versions.iter().chain(other.versions.iter());
        for (clock, value) in candidates {
            // Keep a version unless some other candidate strictly
            // dominates it.
            let dominated = self
                .versions
                .iter()
                .chain(other.versions.iter())
                .any(|(c2, _)| c2.dominates(clock) && c2 != clock);
            if !dominated && !merged.iter().any(|(c2, v2)| c2 == clock && v2 == value) {
                merged.push((clock.clone(), value.clone()));
            }
        }
        self.versions = merged;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn lww_latest_timestamp_wins() {
        let mut r = LwwRegister::new(5, ReplicaId(1), 10u32);
        assert!(!r.set(4, ReplicaId(2), 99));
        assert_eq!(*r.get(), 10);
        assert!(r.set(6, ReplicaId(2), 20));
        assert_eq!(*r.get(), 20);
        assert_eq!(r.version(), (6, ReplicaId(2)));
    }

    #[test]
    fn lww_tie_broken_by_replica() {
        let mut a = LwwRegister::new(5, ReplicaId(1), "a");
        let b = LwwRegister::new(5, ReplicaId(2), "b");
        a.merge(&b);
        assert_eq!(*a.get(), "b");
        // And the merge is symmetric.
        let mut b2 = LwwRegister::new(5, ReplicaId(2), "b");
        b2.merge(&LwwRegister::new(5, ReplicaId(1), "a"));
        assert_eq!(*b2.get(), "b");
    }

    #[test]
    fn mv_sequential_write_replaces() {
        let mut r = MvRegister::new();
        assert!(r.is_empty());
        r.set(ReplicaId(1), 1);
        r.set(ReplicaId(1), 2);
        assert_eq!(r.values().copied().collect::<Vec<_>>(), vec![2]);
        assert!(!r.is_conflicted());
    }

    #[test]
    fn mv_causal_write_supersedes_across_replicas() {
        let mut a = MvRegister::new();
        a.set(ReplicaId(1), 1);
        let mut b = a.clone();
        b.set(ReplicaId(2), 2); // b saw a's write
        a.merge(&b);
        assert_eq!(a.values().copied().collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn mv_resolve_clears_conflict() {
        let mut a = MvRegister::new();
        a.set(ReplicaId(1), 10.0);
        let mut b = a.clone();
        a.set(ReplicaId(1), 30.0);
        b.set(ReplicaId(2), 10.0);
        a.merge(&b);
        assert!(a.is_conflicted());
        a.resolve(ReplicaId(1), |vals| {
            vals.iter().sum::<f64>() / vals.len() as f64
        });
        assert!(!a.is_conflicted());
        assert_eq!(a.values().copied().collect::<Vec<_>>(), vec![20.0]);
    }

    proptest! {
        #[test]
        fn lww_merge_laws(
            writes in proptest::collection::vec((0u64..100, 0u64..4), 1..8)
        ) {
            // The value is a pure function of (timestamp, writer): the
            // LWW precondition that a writer never reuses a version for
            // a different value.
            let make = |ws: &[(u64, u64)]| {
                let mut r = LwwRegister::new(0, ReplicaId(0), -1);
                for (t, rep) in ws {
                    let v = (*t as i32) * 7 + *rep as i32;
                    r.set(*t, ReplicaId(*rep), v);
                }
                r
            };
            let mid = writes.len() / 2;
            let a = make(&writes[..mid]);
            let b = make(&writes[mid..]);
            let mut ab = a.clone(); ab.merge(&b);
            let mut ba = b.clone(); ba.merge(&a);
            prop_assert_eq!(&ab, &ba);
            let mut aa = a.clone(); aa.merge(&a);
            prop_assert_eq!(&aa, &a);
        }

        #[test]
        fn mv_merge_commutes(seed_writes in proptest::collection::vec((0u64..3, 0i32..100), 0..6)) {
            let mut a = MvRegister::new();
            let mut b = MvRegister::new();
            for (i, (r, v)) in seed_writes.iter().enumerate() {
                if i % 2 == 0 {
                    a.set(ReplicaId(*r), *v);
                } else {
                    b.set(ReplicaId(*r + 10), *v);
                }
            }
            let mut ab = a.clone(); ab.merge(&b);
            let mut ba = b.clone(); ba.merge(&a);
            let mut va: Vec<i32> = ab.values().copied().collect();
            let mut vb: Vec<i32> = ba.values().copied().collect();
            va.sort_unstable();
            vb.sort_unstable();
            prop_assert_eq!(va, vb);
        }
    }
}
