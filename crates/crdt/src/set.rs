//! Replicated sets: grow-only, two-phase, and the add-wins observed-
//! remove set ([`OrSet`], tombstone-free via a causal context).

use crate::vclock::{Dot, ReplicaId, VClock};
use crate::Crdt;
use std::collections::{BTreeMap, BTreeSet};

/// A grow-only set: elements can only be added; merge is set union.
///
/// # Examples
///
/// ```
/// use iiot_crdt::{Crdt, GSet};
///
/// let mut a = GSet::new();
/// let mut b = GSet::new();
/// a.insert("pump-1");
/// b.insert("valve-7");
/// a.merge(&b);
/// assert!(a.contains(&"pump-1") && a.contains(&"valve-7"));
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct GSet<T: Ord> {
    items: BTreeSet<T>,
}

impl<T: Ord> Default for GSet<T> {
    fn default() -> Self {
        GSet {
            items: BTreeSet::new(),
        }
    }
}

impl<T: Ord> GSet<T> {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an element. Returns `true` if it was new.
    pub fn insert(&mut self, item: T) -> bool {
        self.items.insert(item)
    }

    /// Membership test.
    pub fn contains(&self, item: &T) -> bool {
        self.items.contains(item)
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Iterates over elements in order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter()
    }
}

impl<T: Ord + Clone> Crdt for GSet<T> {
    fn merge(&mut self, other: &Self) {
        self.items.extend(other.items.iter().cloned());
    }
}

impl<T: Ord> FromIterator<T> for GSet<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        GSet {
            items: iter.into_iter().collect(),
        }
    }
}

/// A two-phase set: removal wins permanently (an element, once removed,
/// can never be re-added). Simple but often too blunt; see [`OrSet`] for
/// add-wins semantics.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TwoPSet<T: Ord> {
    added: BTreeSet<T>,
    removed: BTreeSet<T>,
}

impl<T: Ord> Default for TwoPSet<T> {
    fn default() -> Self {
        TwoPSet {
            added: BTreeSet::new(),
            removed: BTreeSet::new(),
        }
    }
}

impl<T: Ord + Clone> TwoPSet<T> {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an element (no effect if it was ever removed).
    pub fn insert(&mut self, item: T) {
        self.added.insert(item);
    }

    /// Removes an element permanently.
    pub fn remove(&mut self, item: &T) {
        if self.added.contains(item) {
            self.removed.insert(item.clone());
        }
    }

    /// Membership test: added and never removed.
    pub fn contains(&self, item: &T) -> bool {
        self.added.contains(item) && !self.removed.contains(item)
    }

    /// Number of live elements.
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    /// Whether no live elements remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over live elements in order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.added.iter().filter(move |i| !self.removed.contains(i))
    }
}

impl<T: Ord + Clone> Crdt for TwoPSet<T> {
    fn merge(&mut self, other: &Self) {
        self.added.extend(other.added.iter().cloned());
        self.removed.extend(other.removed.iter().cloned());
    }
}

/// An add-wins observed-remove set without tombstones (an "ORSWOT").
///
/// Each live element carries the [`Dot`]s of the adds that created it; a
/// causal context (a [`VClock`]) records every event each replica has
/// seen. An element disappears when all its dots are covered by the
/// other replica's context but the element itself is absent there —
/// i.e. the remove was *observed*. Concurrent add wins over remove.
///
/// # Examples
///
/// ```
/// use iiot_crdt::{Crdt, OrSet, ReplicaId};
///
/// let mut a = OrSet::new();
/// a.insert(ReplicaId(1), "sensor-a");
/// let mut b = a.clone();
/// // Concurrently: replica 1 removes, replica 2 re-adds.
/// a.remove(&"sensor-a");
/// b.insert(ReplicaId(2), "sensor-a");
/// a.merge(&b);
/// assert!(a.contains(&"sensor-a"), "add wins");
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct OrSet<T: Ord> {
    entries: BTreeMap<T, BTreeSet<Dot>>,
    context: VClock,
}

impl<T: Ord> Default for OrSet<T> {
    fn default() -> Self {
        OrSet {
            entries: BTreeMap::new(),
            context: VClock::new(),
        }
    }
}

impl<T: Ord + Clone> OrSet<T> {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `item` on behalf of `replica`.
    pub fn insert(&mut self, replica: ReplicaId, item: T) {
        let dot = self.context.increment(replica);
        let dots = self.entries.entry(item).or_default();
        // The fresh dot supersedes this replica's earlier adds of the
        // same element, keeping entries compact.
        dots.retain(|d| d.replica != replica);
        dots.insert(dot);
    }

    /// Removes `item`: its observed dots vanish but stay covered by the
    /// causal context, so the removal propagates on merge.
    pub fn remove(&mut self, item: &T) -> bool {
        self.entries.remove(item).is_some()
    }

    /// Membership test.
    pub fn contains(&self, item: &T) -> bool {
        self.entries.contains_key(item)
    }

    /// Number of live elements.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no live elements remain.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over live elements in order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.entries.keys()
    }

    /// The causal context (exposed for diagnostics and tests).
    pub fn context(&self) -> &VClock {
        &self.context
    }
}

impl<T: Ord + Clone> Crdt for OrSet<T> {
    fn merge(&mut self, other: &Self) {
        let mut merged: BTreeMap<T, BTreeSet<Dot>> = BTreeMap::new();
        let items: BTreeSet<&T> = self.entries.keys().chain(other.entries.keys()).collect();
        for item in items {
            let empty = BTreeSet::new();
            let mine = self.entries.get(item).unwrap_or(&empty);
            let theirs = other.entries.get(item).unwrap_or(&empty);
            let mut keep = BTreeSet::new();
            // Dots present on both sides survive.
            keep.extend(mine.intersection(theirs).copied());
            // My dots the other side has NOT observed survive (their
            // absence there is ignorance, not removal).
            keep.extend(mine.iter().filter(|d| !other.context.covers(**d)));
            // Symmetrically for their dots.
            keep.extend(theirs.iter().filter(|d| !self.context.covers(**d)));
            if !keep.is_empty() {
                merged.insert(item.clone(), keep);
            }
        }
        self.entries = merged;
        self.context.merge(&other.context);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn gset_union() {
        let mut a: GSet<u32> = [1, 2].into_iter().collect();
        let b: GSet<u32> = [2, 3].into_iter().collect();
        a.merge(&b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.iter().copied().collect::<Vec<_>>(), vec![1, 2, 3]);
    }

    #[test]
    fn twopset_remove_wins_forever() {
        let mut a = TwoPSet::new();
        a.insert(1);
        a.remove(&1);
        a.insert(1); // re-add has no effect
        assert!(!a.contains(&1));
        assert!(a.is_empty());
    }

    #[test]
    fn twopset_remove_requires_add() {
        let mut a: TwoPSet<u32> = TwoPSet::new();
        a.remove(&5); // not present: no tombstone recorded
        let mut b = TwoPSet::new();
        b.insert(5);
        a.merge(&b);
        assert!(a.contains(&5));
    }

    #[test]
    fn orset_sequential_add_remove() {
        let mut s = OrSet::new();
        s.insert(ReplicaId(1), "x");
        assert!(s.contains(&"x"));
        assert!(s.remove(&"x"));
        assert!(!s.contains(&"x"));
        assert!(!s.remove(&"x"));
    }

    #[test]
    fn orset_observed_remove_propagates() {
        let mut a = OrSet::new();
        a.insert(ReplicaId(1), 7u32);
        let mut b = a.clone();
        // b observes the add, then removes.
        b.remove(&7);
        a.merge(&b);
        assert!(!a.contains(&7), "observed remove must win over the old add");
    }

    #[test]
    fn orset_add_wins_over_concurrent_remove() {
        let mut a = OrSet::new();
        a.insert(ReplicaId(1), 7u32);
        let mut b = a.clone();
        a.remove(&7);
        b.insert(ReplicaId(2), 7u32); // concurrent re-add with a new dot
        let mut m1 = a.clone();
        m1.merge(&b);
        let mut m2 = b.clone();
        m2.merge(&a);
        assert_eq!(m1, m2);
        assert!(m1.contains(&7));
    }

    #[test]
    fn orset_unseen_add_survives_merge_with_empty() {
        let mut a = OrSet::new();
        a.insert(ReplicaId(1), 1u32);
        let b: OrSet<u32> = OrSet::new();
        a.merge(&b);
        assert!(a.contains(&1), "an empty replica has not observed the add");
    }

    /// Random interleavings of adds/removes on three replicas with
    /// pairwise anti-entropy converge to the same state.
    fn arb_ops() -> impl Strategy<Value = Vec<(u8, u8, bool)>> {
        // (replica 0..3, element 0..5, is_add)
        proptest::collection::vec((0u8..3, 0u8..5, any::<bool>()), 0..24)
    }

    proptest! {
        #[test]
        fn orset_converges(ops in arb_ops(), syncs in proptest::collection::vec((0u8..3, 0u8..3), 0..12)) {
            let mut reps = [OrSet::new(), OrSet::new(), OrSet::new()];
            for (i, (r, e, add)) in ops.iter().enumerate() {
                let r = *r as usize;
                if *add {
                    reps[r].insert(ReplicaId(r as u64), *e);
                } else {
                    reps[r].remove(e);
                }
                // Interleave some anti-entropy.
                if let Some(&(x, y)) = syncs.get(i % syncs.len().max(1)) {
                    if x != y {
                        let src = reps[y as usize].clone();
                        reps[x as usize].merge(&src);
                    }
                }
            }
            // Full anti-entropy: everyone merges everyone, twice.
            for _ in 0..2 {
                for x in 0..3 {
                    for y in 0..3 {
                        if x != y {
                            let src = reps[y].clone();
                            reps[x].merge(&src);
                        }
                    }
                }
            }
            prop_assert_eq!(&reps[0], &reps[1]);
            prop_assert_eq!(&reps[1], &reps[2]);
        }

        #[test]
        fn orset_merge_laws(ops_a in arb_ops(), ops_b in arb_ops()) {
            // Build two replicas that share a causal prefix, then check
            // merge laws.
            let mut base = OrSet::new();
            base.insert(ReplicaId(0), 0u8);
            let mut a = base.clone();
            let mut b = base.clone();
            for (r, e, add) in ops_a {
                if add { a.insert(ReplicaId(1 + r as u64), e); } else { a.remove(&e); }
            }
            for (r, e, add) in ops_b {
                if add { b.insert(ReplicaId(10 + r as u64), e); } else { b.remove(&e); }
            }
            let mut ab = a.clone(); ab.merge(&b);
            let mut ba = b.clone(); ba.merge(&a);
            prop_assert_eq!(&ab, &ba);
            let mut aa = a.clone(); aa.merge(&a);
            prop_assert_eq!(&aa, &a);
        }
    }
}
