//! Partial state records: the mergeable per-subtree summaries that make
//! in-network aggregation possible (TAG/TinyDB).
//!
//! A single record supports all five operators at once — `count`,
//! `sum`, `min`, `max` — so intermediate nodes need not know which
//! operator the root will finalize with. Merging is commutative,
//! associative and has an identity, verified by property tests.

use crate::query::Agg;
use serde::{Deserialize, Serialize};

/// A mergeable summary of a set of readings.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub struct Partial {
    /// Number of readings summarized.
    pub count: u32,
    /// Sum of readings.
    pub sum: f64,
    /// Minimum reading (`+inf` for the empty record).
    pub min: f64,
    /// Maximum reading (`-inf` for the empty record).
    pub max: f64,
}

impl Default for Partial {
    fn default() -> Self {
        Partial::EMPTY
    }
}

impl Partial {
    /// The identity element (no readings).
    pub const EMPTY: Partial = Partial {
        count: 0,
        sum: 0.0,
        min: f64::INFINITY,
        max: f64::NEG_INFINITY,
    };

    /// Wire length of an encoded record.
    pub const WIRE_LEN: usize = 28;

    /// A record of a single reading.
    pub fn of(value: f64) -> Partial {
        Partial {
            count: 1,
            sum: value,
            min: value,
            max: value,
        }
    }

    /// Merges another record into this one.
    pub fn merge(&mut self, other: &Partial) {
        // A forged count must not overflow the sum.
        self.count = self.count.saturating_add(other.count);
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Finalizes under the given operator; `None` if no readings were
    /// summarized (an empty epoch).
    pub fn finalize(&self, agg: Agg) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        Some(match agg {
            Agg::Min => self.min,
            Agg::Max => self.max,
            Agg::Sum => self.sum,
            Agg::Count => self.count as f64,
            Agg::Avg => self.sum / self.count as f64,
        })
    }

    /// Serializes to wire format.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::WIRE_LEN);
        out.extend_from_slice(&self.count.to_be_bytes());
        out.extend_from_slice(&self.sum.to_be_bytes());
        out.extend_from_slice(&self.min.to_be_bytes());
        out.extend_from_slice(&self.max.to_be_bytes());
        out
    }

    /// Parses from wire format.
    pub fn decode(bytes: &[u8]) -> Option<Partial> {
        if bytes.len() < Self::WIRE_LEN {
            return None;
        }
        Some(Partial {
            count: u32::from_be_bytes(bytes[0..4].try_into().ok()?),
            sum: f64::from_be_bytes(bytes[4..12].try_into().ok()?),
            min: f64::from_be_bytes(bytes[12..20].try_into().ok()?),
            max: f64::from_be_bytes(bytes[20..28].try_into().ok()?),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_is_identity() {
        let mut p = Partial::of(5.0);
        p.merge(&Partial::EMPTY);
        assert_eq!(p, Partial::of(5.0));
        let mut e = Partial::EMPTY;
        e.merge(&Partial::of(5.0));
        assert_eq!(e, Partial::of(5.0));
        assert_eq!(Partial::EMPTY.finalize(Agg::Avg), None);
    }

    #[test]
    fn finalize_matches_flat_computation() {
        let vals = [3.0, -1.5, 8.0, 8.0, 0.0];
        let mut p = Partial::EMPTY;
        for v in vals {
            p.merge(&Partial::of(v));
        }
        assert_eq!(p.finalize(Agg::Min), Some(-1.5));
        assert_eq!(p.finalize(Agg::Max), Some(8.0));
        assert_eq!(p.finalize(Agg::Sum), Some(17.5));
        assert_eq!(p.finalize(Agg::Count), Some(5.0));
        assert_eq!(p.finalize(Agg::Avg), Some(3.5));
    }

    #[test]
    fn codec_round_trip() {
        let mut p = Partial::of(1.25);
        p.merge(&Partial::of(-7.0));
        assert_eq!(Partial::decode(&p.encode()), Some(p));
        assert_eq!(Partial::decode(&[0; 10]), None);
        // The identity round-trips too (infinities).
        assert_eq!(
            Partial::decode(&Partial::EMPTY.encode()),
            Some(Partial::EMPTY)
        );
    }

    fn arb_partial() -> impl Strategy<Value = Partial> {
        proptest::collection::vec(-1e6f64..1e6, 0..8).prop_map(|vals| {
            let mut p = Partial::EMPTY;
            for v in vals {
                p.merge(&Partial::of(v));
            }
            p
        })
    }

    proptest! {
        #[test]
        fn merge_commutative(a in arb_partial(), b in arb_partial()) {
            let mut ab = a; ab.merge(&b);
            let mut ba = b; ba.merge(&a);
            prop_assert_eq!(ab.count, ba.count);
            prop_assert!((ab.sum - ba.sum).abs() < 1e-6);
            prop_assert_eq!(ab.min, ba.min);
            prop_assert_eq!(ab.max, ba.max);
        }

        #[test]
        fn merge_associative(a in arb_partial(), b in arb_partial(), c in arb_partial()) {
            let mut l = a; l.merge(&b); l.merge(&c);
            let mut bc = b; bc.merge(&c);
            let mut r = a; r.merge(&bc);
            prop_assert_eq!(l.count, r.count);
            prop_assert!((l.sum - r.sum).abs() < 1e-6);
            prop_assert_eq!(l.min, r.min);
            prop_assert_eq!(l.max, r.max);
        }

        #[test]
        fn tree_equals_flat(vals in proptest::collection::vec(-1e3f64..1e3, 1..32)) {
            // Merging in a binary-tree shape equals flat accumulation.
            let mut flat = Partial::EMPTY;
            for v in &vals {
                flat.merge(&Partial::of(*v));
            }
            let mut layer: Vec<Partial> = vals.iter().map(|v| Partial::of(*v)).collect();
            while layer.len() > 1 {
                layer = layer
                    .chunks(2)
                    .map(|c| {
                        let mut m = c[0];
                        if let Some(b) = c.get(1) {
                            m.merge(b);
                        }
                        m
                    })
                    .collect();
            }
            let tree = layer[0];
            prop_assert_eq!(tree.count, flat.count);
            prop_assert!((tree.sum - flat.sum).abs() < 1e-6);
            for agg in [Agg::Min, Agg::Max, Agg::Count] {
                prop_assert_eq!(tree.finalize(agg), flat.finalize(agg));
            }
        }
    }
}
