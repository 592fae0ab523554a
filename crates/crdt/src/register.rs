//! The replicated last-writer-wins register ([`LwwRegister`]).

use crate::vclock::ReplicaId;
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
    }
}
