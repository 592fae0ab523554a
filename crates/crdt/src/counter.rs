//! The replicated grow-only counter ([`GCounter`]).

use crate::vclock::ReplicaId;
use crate::Crdt;
use std::collections::BTreeMap;

/// A grow-only counter: each replica increments its own slot; the value
/// is the sum; merge is the pointwise maximum.
///
/// # Examples
///
/// ```
/// use iiot_crdt::{Crdt, GCounter, ReplicaId};
///
/// let mut a = GCounter::new();
/// let mut b = GCounter::new();
/// a.inc(ReplicaId(1), 3);
/// b.inc(ReplicaId(2), 4);
/// a.merge(&b);
/// assert_eq!(a.value(), 7);
/// ```
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct GCounter {
    slots: BTreeMap<ReplicaId, u64>,
}

impl GCounter {
    /// A zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` on behalf of `replica`. Returns the delta (a `GCounter`
    /// containing just this replica's new slot value) for delta-state
    /// replication.
    pub fn inc(&mut self, replica: ReplicaId, n: u64) -> GCounter {
        let slot = self.slots.entry(replica).or_insert(0);
        *slot += n;
        let mut delta = GCounter::new();
        delta.slots.insert(replica, *slot);
        delta
    }

    /// The counter value (sum over replicas).
    pub fn value(&self) -> u64 {
        self.slots.values().sum()
    }

    /// The contribution of a single replica.
    pub fn slot(&self, replica: ReplicaId) -> u64 {
        self.slots.get(&replica).copied().unwrap_or(0)
    }
}

impl Crdt for GCounter {
    fn merge(&mut self, other: &Self) {
        for (&r, &c) in &other.slots {
            let e = self.slots.entry(r).or_insert(0);
            *e = (*e).max(c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn gcounter_basic() {
        let mut c = GCounter::new();
        assert_eq!(c.value(), 0);
        c.inc(ReplicaId(1), 5);
        c.inc(ReplicaId(1), 2);
        c.inc(ReplicaId(2), 3);
        assert_eq!(c.value(), 10);
        assert_eq!(c.slot(ReplicaId(1)), 7);
        assert_eq!(c.slot(ReplicaId(9)), 0);
    }

    #[test]
    fn gcounter_merge_is_max_not_sum() {
        let mut a = GCounter::new();
        a.inc(ReplicaId(1), 5);
        let b = a.clone();
        a.merge(&b);
        assert_eq!(a.value(), 5, "merging a copy must not double-count");
    }

    #[test]
    fn gcounter_delta_carries_increment() {
        let mut a = GCounter::new();
        a.inc(ReplicaId(1), 2);
        let delta = a.inc(ReplicaId(1), 3);
        // Applying only the delta to a fresh replica gives the full slot.
        let mut b = GCounter::new();
        b.merge(&delta);
        assert_eq!(b.value(), 5);
    }

    fn arb_gcounter() -> impl Strategy<Value = GCounter> {
        proptest::collection::vec((0u64..4, 0u64..100), 0..6).prop_map(|ops| {
            let mut c = GCounter::new();
            for (r, n) in ops {
                c.inc(ReplicaId(r), n);
            }
            c
        })
    }

    proptest! {
        #[test]
        fn gcounter_merge_laws(a in arb_gcounter(), b in arb_gcounter(), c in arb_gcounter()) {
            // Commutativity
            let mut ab = a.clone(); ab.merge(&b);
            let mut ba = b.clone(); ba.merge(&a);
            prop_assert_eq!(&ab, &ba);
            // Idempotence
            let mut aa = a.clone(); aa.merge(&a);
            prop_assert_eq!(&aa, &a);
            // Associativity
            let mut l = a.clone(); l.merge(&b); l.merge(&c);
            let mut bc = b.clone(); bc.merge(&c);
            let mut r = a.clone(); r.merge(&bc);
            prop_assert_eq!(l, r);
        }

        #[test]
        fn gcounter_merge_monotone(a in arb_gcounter(), b in arb_gcounter()) {
            let mut m = a.clone();
            m.merge(&b);
            prop_assert!(m.value() >= a.value().max(b.value()));
            prop_assert!(m.value() <= a.value() + b.value());
        }
    }
}
