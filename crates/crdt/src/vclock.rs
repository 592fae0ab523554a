//! Vector clocks and dots: the causality substrate for the CRDTs.

use std::collections::BTreeMap;
use std::fmt;

/// Identifier of a replica (a node holding a copy of the shared state).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct ReplicaId(pub u64);

impl fmt::Display for ReplicaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl From<u64> for ReplicaId {
    fn from(v: u64) -> Self {
        ReplicaId(v)
    }
}

/// A single event identifier: the `counter`-th event of `replica`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Dot {
    /// The replica that produced the event.
    pub replica: ReplicaId,
    /// 1-based sequence number of the event at that replica.
    pub counter: u64,
}

/// A vector clock mapping replicas to the number of events observed from
/// each.
///
/// # Examples
///
/// ```
/// use iiot_crdt::vclock::{ReplicaId, VClock};
///
/// let mut a = VClock::new();
/// a.increment(ReplicaId(1));
/// let mut b = a.clone();
/// let dot = b.increment(ReplicaId(2));
/// assert!(b.covers(dot) && !a.covers(dot));
/// a.merge(&b);
/// assert!(a.covers(dot));
/// ```
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct VClock {
    counts: BTreeMap<ReplicaId, u64>,
}

impl VClock {
    /// The empty clock (no events observed).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of events observed from `replica`.
    pub fn get(&self, replica: ReplicaId) -> u64 {
        self.counts.get(&replica).copied().unwrap_or(0)
    }

    /// Records one more event from `replica` and returns the [`Dot`]
    /// identifying it.
    pub fn increment(&mut self, replica: ReplicaId) -> Dot {
        let c = self.counts.entry(replica).or_insert(0);
        *c += 1;
        Dot {
            replica,
            counter: *c,
        }
    }

    /// Whether this clock has observed `dot`.
    pub fn covers(&self, dot: Dot) -> bool {
        self.get(dot.replica) >= dot.counter
    }

    /// Pointwise maximum: afterwards, `self` has observed everything
    /// either clock had.
    pub fn merge(&mut self, other: &VClock) {
        for (&r, &c) in &other.counts {
            let e = self.counts.entry(r).or_insert(0);
            *e = (*e).max(c);
        }
    }

    /// Replicas with at least one observed event.
    pub fn replicas(&self) -> impl Iterator<Item = ReplicaId> + '_ {
        self.counts.keys().copied()
    }

    /// Total number of events observed across all replicas.
    pub fn total_events(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Whether no events have been observed.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }
}

impl fmt::Display for VClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (r, c)) in self.counts.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{r}:{c}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn increment_returns_sequential_dots() {
        let mut v = VClock::new();
        let d1 = v.increment(ReplicaId(1));
        let d2 = v.increment(ReplicaId(1));
        assert_eq!(d1.counter, 1);
        assert_eq!(d2.counter, 2);
        assert!(v.covers(d1));
        assert!(v.covers(d2));
        assert!(!v.covers(Dot {
            replica: ReplicaId(1),
            counter: 3
        }));
    }

    #[test]
    fn merge_takes_pointwise_max() {
        let mut a = VClock::new();
        a.increment(ReplicaId(1));
        a.increment(ReplicaId(1));
        let mut b = VClock::new();
        b.increment(ReplicaId(1));
        b.increment(ReplicaId(2));
        a.merge(&b);
        assert_eq!(a.get(ReplicaId(1)), 2);
        assert_eq!(a.get(ReplicaId(2)), 1);
        assert_eq!(a.total_events(), 3);
    }

    #[test]
    fn display_and_empty() {
        let mut v = VClock::new();
        assert!(v.is_empty());
        v.increment(ReplicaId(1));
        v.increment(ReplicaId(2));
        assert_eq!(format!("{v}"), "{r1:1, r2:1}");
        assert_eq!(v.replicas().count(), 2);
    }

    fn arb_clock() -> impl Strategy<Value = VClock> {
        proptest::collection::vec((0u64..4, 1u64..20), 0..4).prop_map(|entries| {
            let mut v = VClock::new();
            for (r, c) in entries {
                for _ in 0..c {
                    v.increment(ReplicaId(r));
                }
            }
            v
        })
    }

    proptest! {
        #[test]
        fn merge_commutative(a in arb_clock(), b in arb_clock()) {
            let mut ab = a.clone();
            ab.merge(&b);
            let mut ba = b.clone();
            ba.merge(&a);
            prop_assert_eq!(ab, ba);
        }

        #[test]
        fn merge_associative(a in arb_clock(), b in arb_clock(), c in arb_clock()) {
            let mut left = a.clone();
            left.merge(&b);
            left.merge(&c);
            let mut bc = b.clone();
            bc.merge(&c);
            let mut right = a.clone();
            right.merge(&bc);
            prop_assert_eq!(left, right);
        }

        #[test]
        fn merge_idempotent(a in arb_clock()) {
            let mut aa = a.clone();
            aa.merge(&a);
            prop_assert_eq!(aa, a);
        }

        #[test]
        fn merge_dominates_both(a in arb_clock(), b in arb_clock()) {
            let mut m = a.clone();
            m.merge(&b);
            for v in [&a, &b] {
                prop_assert!(v.replicas().all(|r| m.get(r) >= v.get(r)));
            }
        }
    }
}
