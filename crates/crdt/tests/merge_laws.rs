//! Semilattice laws, per type: `merge` on every [`Crdt`] implementation
//! must be **commutative**, **associative** and **idempotent**, so any
//! anti-entropy schedule converges regardless of delivery order or
//! duplication. Each property builds three replica states from random
//! op histories on *disjoint* replica namespaces — the deployment
//! invariant the ORSWOT/vector-clock types rely on (a replica id is
//! never shared by two nodes) — and checks all three laws plus
//! [`merge_all`] agreement.

use iiot_crdt::{merge_all, Crdt, GCounter, LwwMap, LwwRegister, OrSet, ReplicaId};
use proptest::prelude::*;
use std::fmt::Debug;

/// One abstract operation, interpreted per type: `(replica slot,
/// logical time, value, flag)`.
type Ops = Vec<(u64, u64, u8, bool)>;

fn one_history() -> impl Strategy<Value = Ops> {
    proptest::collection::vec((0u64..4, 1u64..100, any::<u8>(), any::<bool>()), 0..16)
}

fn arb_ops() -> impl Strategy<Value = (Ops, Ops, Ops)> {
    (one_history(), one_history(), one_history())
}

/// Replica `slot` of state `base` — namespaces are disjoint across the
/// three states, like three real gateways with distinct identities.
fn rep(base: u64, slot: u64) -> ReplicaId {
    ReplicaId(base * 10 + slot)
}

/// Asserts commutativity, associativity, idempotence, and that
/// [`merge_all`] equals the pairwise fold.
fn assert_laws<C: Crdt + PartialEq + Debug>(a: &C, b: &C, c: &C) {
    let mut ab = a.clone();
    ab.merge(b);
    let mut ba = b.clone();
    ba.merge(a);
    assert_eq!(ab, ba, "merge must commute");

    let mut ab_c = ab.clone();
    ab_c.merge(c);
    let mut bc = b.clone();
    bc.merge(c);
    let mut a_bc = a.clone();
    a_bc.merge(&bc);
    assert_eq!(ab_c, a_bc, "merge must associate");

    let mut aa = a.clone();
    aa.merge(a);
    assert_eq!(&aa, a, "self-merge must be a no-op");
    let mut abb = ab.clone();
    abb.merge(b);
    assert_eq!(abb, ab, "re-delivering b must be a no-op");

    let joined = merge_all([a.clone(), b.clone(), c.clone()]).expect("non-empty");
    assert_eq!(joined, ab_c, "merge_all must equal the pairwise fold");
}

/// Builds three states with `build(base, ops)` and checks the laws.
fn laws_of<C, F>(histories: &(Ops, Ops, Ops), build: F)
where
    C: Crdt + PartialEq + Debug,
    F: Fn(u64, &Ops) -> C,
{
    let a = build(0, &histories.0);
    let b = build(1, &histories.1);
    let c = build(2, &histories.2);
    assert_laws(&a, &b, &c);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn gcounter_satisfies_merge_laws(h in arb_ops()) {
        laws_of(&h, |base, ops| {
            let mut s = GCounter::new();
            for &(r, _, v, _) in ops {
                s.inc(rep(base, r), u64::from(v) + 1);
            }
            s
        });
    }

    #[test]
    fn lww_register_satisfies_merge_laws(h in arb_ops()) {
        laws_of(&h, |base, ops| {
            // All replicas share the same initial state, as after a
            // provisioning snapshot.
            let mut s = LwwRegister::new(0, ReplicaId(0), 0u8);
            for &(r, t, v, _) in ops {
                s.set(t, rep(base, r), v);
            }
            s
        });
    }

    #[test]
    fn orset_satisfies_merge_laws(h in arb_ops()) {
        laws_of(&h, |base, ops| {
            let mut s = OrSet::new();
            for &(r, _, v, gone) in ops {
                s.insert(rep(base, r), v % 8);
                if gone {
                    s.remove(&(v % 8));
                }
            }
            s
        });
    }

    #[test]
    fn lww_map_satisfies_merge_laws(h in arb_ops()) {
        laws_of(&h, |base, ops| {
            let mut s = LwwMap::new();
            for &(r, t, v, _) in ops {
                s.insert(t, rep(base, r), v % 6, i64::from(v));
            }
            s
        });
    }
}
