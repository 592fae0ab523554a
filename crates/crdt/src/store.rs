//! A replicated key-value store composed from the primitive CRDTs:
//! the "always-available under partition" data plane of experiment E7.

use crate::register::LwwRegister;
use crate::vclock::ReplicaId;
use crate::Crdt;
use std::collections::BTreeMap;

/// A map of independently-merged last-writer-wins registers.
///
/// Every key converges on the write with the highest `(timestamp,
/// replica)`; different keys never interfere. Deletions are not
/// supported — industrial telemetry points are upserted, not removed —
/// which keeps the type tombstone-free.
///
/// # Examples
///
/// ```
/// use iiot_crdt::{Crdt, LwwMap, ReplicaId};
///
/// let mut plant_a = LwwMap::new();
/// let mut plant_b = LwwMap::new();
/// plant_a.insert(10, ReplicaId(1), "boiler/temp", 72.5);
/// plant_b.insert(11, ReplicaId(2), "boiler/temp", 73.0);
/// plant_b.insert(11, ReplicaId(2), "valve/state", 1.0);
/// plant_a.merge(&plant_b);
/// assert_eq!(plant_a.get(&"boiler/temp"), Some(&73.0));
/// assert_eq!(plant_a.len(), 2);
/// ```
#[derive(Clone, PartialEq, Debug)]
pub struct LwwMap<K: Ord, V> {
    entries: BTreeMap<K, LwwRegister<V>>,
}

impl<K: Ord, V> Default for LwwMap<K, V> {
    fn default() -> Self {
        LwwMap {
            entries: BTreeMap::new(),
        }
    }
}

impl<K: Ord + Clone, V: Clone> LwwMap<K, V> {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Upserts `key` to `value` at `(timestamp, writer)`. Returns whether
    /// the write won locally (an older timestamp loses even locally).
    pub fn insert(&mut self, timestamp: u64, writer: ReplicaId, key: K, value: V) -> bool {
        match self.entries.get_mut(&key) {
            Some(reg) => reg.set(timestamp, writer, value),
            None => {
                self.entries
                    .insert(key, LwwRegister::new(timestamp, writer, value));
                true
            }
        }
    }

    /// The current value of `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.entries.get(key).map(LwwRegister::get)
    }

    /// The `(timestamp, writer)` version of `key`.
    pub fn version(&self, key: &K) -> Option<(u64, ReplicaId)> {
        self.entries.get(key).map(LwwRegister::version)
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map has no keys.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(key, value)` in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.entries.iter().map(|(k, r)| (k, r.get()))
    }
}

impl<K: Ord + Clone, V: Clone> Crdt for LwwMap<K, V> {
    fn merge(&mut self, other: &Self) {
        for (k, reg) in &other.entries {
            match self.entries.get_mut(k) {
                Some(mine) => mine.merge(reg),
                None => {
                    self.entries.insert(k.clone(), reg.clone());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn per_key_lww() {
        let mut m = LwwMap::new();
        assert!(m.insert(1, ReplicaId(1), "k", 1.0));
        assert!(!m.insert(0, ReplicaId(2), "k", 9.0), "older write loses");
        assert_eq!(m.get(&"k"), Some(&1.0));
        assert_eq!(m.version(&"k"), Some((1, ReplicaId(1))));
    }

    #[test]
    fn merge_keeps_newest_per_key() {
        let mut a = LwwMap::new();
        let mut b = LwwMap::new();
        a.insert(5, ReplicaId(1), 1u8, "a1");
        a.insert(9, ReplicaId(1), 2u8, "a2");
        b.insert(7, ReplicaId(2), 1u8, "b1");
        b.insert(3, ReplicaId(2), 2u8, "b2");
        a.merge(&b);
        assert_eq!(a.get(&1), Some(&"b1"));
        assert_eq!(a.get(&2), Some(&"a2"));
        assert!(!a.is_empty());
        assert_eq!(a.iter().count(), 2);
    }

    proptest! {
        #[test]
        fn map_converges(
            writes in proptest::collection::vec((0u64..50, 0u64..3, 0u8..4), 0..30)
        ) {
            // Split writes across three replicas, then fully merge. The
            // value is a pure function of (timestamp, writer, key): the
            // LWW precondition.
            let mut reps = [LwwMap::new(), LwwMap::new(), LwwMap::new()];
            for (i, (t, r, k)) in writes.iter().enumerate() {
                let v = (*t as i32) * 100 + (*r as i32) * 10 + *k as i32;
                reps[i % 3].insert(*t, ReplicaId(*r), *k, v);
            }
            let mut final_states = Vec::new();
            // Merge in two different orders.
            for order in [[0usize, 1, 2], [2, 0, 1]] {
                let mut acc = LwwMap::new();
                for &i in &order {
                    acc.merge(&reps[i]);
                }
                final_states.push(acc);
            }
            prop_assert_eq!(&final_states[0], &final_states[1]);
        }
    }
}
