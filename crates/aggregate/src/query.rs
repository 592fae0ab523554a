//! Acquisitional queries in the TinyDB style: `SELECT agg(attr) FROM
//! sensors SAMPLE PERIOD e` (paper §IV-B, citing Madden et al.).

/// An aggregation operator.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Agg {
    /// Minimum value.
    Min,
    /// Maximum value.
    Max,
    /// Sum of values.
    Sum,
    /// Number of reporting sensors.
    Count,
    /// Arithmetic mean.
    Avg,
}

impl Agg {
    fn to_byte(self) -> u8 {
        match self {
            Agg::Min => 0,
            Agg::Max => 1,
            Agg::Sum => 2,
            Agg::Count => 3,
            Agg::Avg => 4,
        }
    }

    fn from_byte(b: u8) -> Option<Agg> {
        match b {
            0 => Some(Agg::Min),
            1 => Some(Agg::Max),
            2 => Some(Agg::Sum),
            3 => Some(Agg::Count),
            4 => Some(Agg::Avg),
            _ => None,
        }
    }
}

/// A continuous aggregation query disseminated to the network.
///
/// # Examples
///
/// ```
/// use iiot_aggregate::query::{Agg, Query};
///
/// let q = Query {
///     id: 1,
///     agg: Agg::Avg,
///     attr: 0,
///     epoch_ms: 10_000,
///     rounds: 6,
///     max_depth: 4,
/// };
/// let bytes = q.encode();
/// assert_eq!(Query::decode(&bytes), Some(q));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Query {
    /// Query identifier (epochs and partials carry it).
    pub id: u8,
    /// Aggregation operator.
    pub agg: Agg,
    /// Sensor attribute to sample (application-defined id).
    pub attr: u8,
    /// Epoch (sample period) in milliseconds.
    pub epoch_ms: u32,
    /// Number of epochs to run (0 = until cancelled).
    pub rounds: u16,
    /// Depth of the collection tree, set by the root so every node can
    /// compute its transmission slot within the epoch.
    pub max_depth: u8,
}

impl Query {
    /// Wire length of an encoded query.
    pub const WIRE_LEN: usize = 10;

    /// Serializes to wire format.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::WIRE_LEN);
        out.push(self.id);
        out.push(self.agg.to_byte());
        out.push(self.attr);
        out.extend_from_slice(&self.epoch_ms.to_be_bytes());
        out.extend_from_slice(&self.rounds.to_be_bytes());
        out.push(self.max_depth);
        out
    }

    /// Parses from wire format.
    pub fn decode(bytes: &[u8]) -> Option<Query> {
        if bytes.len() < Self::WIRE_LEN {
            return None;
        }
        Some(Query {
            id: bytes[0],
            agg: Agg::from_byte(bytes[1])?,
            attr: bytes[2],
            epoch_ms: u32::from_be_bytes(bytes[3..7].try_into().ok()?),
            rounds: u16::from_be_bytes(bytes[7..9].try_into().ok()?),
            max_depth: bytes[9],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn truncated_rejected() {
        assert_eq!(Query::decode(&[1, 2, 3]), None);
    }

    #[test]
    fn bad_agg_rejected() {
        let mut bytes = Query {
            id: 1,
            agg: Agg::Min,
            attr: 0,
            epoch_ms: 1000,
            rounds: 1,
            max_depth: 1,
        }
        .encode();
        bytes[1] = 99;
        assert_eq!(Query::decode(&bytes), None);
    }

    proptest! {
        #[test]
        fn round_trip(id in any::<u8>(), agg in 0u8..5, attr in any::<u8>(),
                      epoch in 1u32..1_000_000, rounds in any::<u16>(), depth in any::<u8>()) {
            let q = Query {
                id,
                agg: Agg::from_byte(agg).expect("valid"),
                attr,
                epoch_ms: epoch,
                rounds,
                max_depth: depth,
            };
            prop_assert_eq!(Query::decode(&q.encode()), Some(q));
        }
    }
}
