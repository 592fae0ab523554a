//! # iiot-crdt — conflict-free replicated data types for partition-tolerant IoT state
//!
//! The paper (§IV-B, §V-C) argues that industrial IoT systems "should
//! continue offering their functionality" under network partitions, and
//! points at eventual consistency with decentralized conflict resolution
//! — specifically CRDTs — as the compelling approach. This crate
//! provides the state-based (convergent) CRDTs the framework uses:
//!
//! * [`LwwMap`] (a map of [`LwwRegister`]s) — the digital twins'
//!   reported and desired point values, and the per-replica store of
//!   experiment E7's CAP simulator;
//! * [`OrSet`] — a twin's tags, a tombstone-free add-wins
//!   observed-remove set;
//! * [`GCounter`] — the grow-only counter behind E7's full-state versus
//!   delta anti-entropy ablation;
//! * [`vclock`] — vector clocks and dots: a twin's write clock and the
//!   `OrSet`'s causal context.
//!
//! All types implement [`Crdt`]: an idempotent, commutative, associative
//! [`merge`](Crdt::merge), verified by property-based tests.
//!
//! # Examples
//!
//! Two plant segments keep operating during a backhaul partition and
//! converge after it heals:
//!
//! ```
//! use iiot_crdt::{Crdt, LwwMap, ReplicaId};
//!
//! let mut east = LwwMap::new();
//! let mut west = LwwMap::new();
//! // Partitioned: both sides accept writes (availability).
//! east.insert(100, ReplicaId(1), "line-3/rpm", 1200.0);
//! west.insert(101, ReplicaId(2), "line-3/rpm", 1250.0);
//! // Heal: anti-entropy in either direction converges.
//! east.merge(&west);
//! west.merge(&east);
//! assert_eq!(east, west);
//! assert_eq!(east.get(&"line-3/rpm"), Some(&1250.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod counter;
pub mod register;
pub mod set;
pub mod store;
pub mod vclock;

pub use counter::GCounter;
pub use register::LwwRegister;
pub use set::OrSet;
pub use store::LwwMap;
pub use vclock::{Dot, ReplicaId, VClock};

/// A state-based (convergent) replicated data type.
///
/// Implementations guarantee that `merge` is **commutative**,
/// **associative** and **idempotent**, which makes replica state a
/// join-semilattice: any gossip/anti-entropy schedule that eventually
/// delivers every state to every replica converges.
pub trait Crdt: Clone {
    /// Joins another replica's state into this one.
    fn merge(&mut self, other: &Self);
}

/// Merges any number of replica states into a fresh joined state.
///
/// Returns `None` for an empty input: a CRDT has no universal identity
/// element (an "empty" `LwwRegister` still carries a value), so there
/// is nothing correct to return. Because `merge` is commutative and
/// associative, the fold order does not affect the result.
///
/// # Examples
///
/// ```
/// use iiot_crdt::{merge_all, Crdt, GCounter, ReplicaId};
///
/// let mut a = GCounter::new();
/// a.inc(ReplicaId(1), 2);
/// let mut b = GCounter::new();
/// b.inc(ReplicaId(2), 3);
/// let joined = merge_all([a.clone(), b.clone()]).expect("non-empty");
/// assert_eq!(joined.value(), 5);
/// // Order never matters, and no replicas means no state.
/// assert_eq!(merge_all([b, a]), Some(joined));
/// assert_eq!(merge_all(Vec::<GCounter>::new()), None);
/// ```
pub fn merge_all<C: Crdt>(states: impl IntoIterator<Item = C>) -> Option<C> {
    let mut iter = states.into_iter();
    let mut acc = iter.next()?;
    for s in iter {
        acc.merge(&s);
    }
    Some(acc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_all_empty_is_none() {
        assert!(merge_all(Vec::<GCounter>::new()).is_none());
    }

    #[test]
    fn merge_all_single() {
        let mut a = GCounter::new();
        a.inc(ReplicaId(1), 7);
        assert_eq!(merge_all([a.clone()]).expect("one"), a);
    }
}
