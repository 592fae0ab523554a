//! Identifiers for simulated entities.

use core::fmt;

/// Identifier of a node in the simulated deployment.
///
/// Node ids are dense: the `k`-th node added to a
/// [`World`](crate::world::World) gets id `k`.
///
/// # Examples
///
/// ```
/// use iiot_sim::NodeId;
///
/// let root = NodeId(0);
/// assert_eq!(root.index(), 0);
/// assert_eq!(format!("{root}"), "n0");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a `usize` index into per-node arrays.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NodeId({})", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

/// Handle for a pending timer, used to cancel it.
///
/// Each timer fires at most once; periodic behaviour is built by re-arming.
/// An id stays unique to its timer after that timer fired or was
/// cancelled: it names a slot of the kernel's timer slab plus the
/// generation of that slot the timer occupied.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TimerId(pub(crate) u64);

impl TimerId {
    /// A timer id that is never allocated; useful as an initial placeholder.
    pub const NONE: TimerId = TimerId(u64::MAX);

    pub(crate) fn compose(slot: u32, generation: u32) -> Self {
        TimerId(((generation as u64) << 32) | slot as u64)
    }

    pub(crate) fn slot(self) -> usize {
        (self.0 & 0xFFFF_FFFF) as usize
    }

    pub(crate) fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }

    /// Whether this is the [`TimerId::NONE`] placeholder.
    pub const fn is_none(self) -> bool {
        self.0 == u64::MAX
    }
}

impl Default for TimerId {
    fn default() -> Self {
        TimerId::NONE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_basics() {
        let a = NodeId(7);
        assert_eq!(a.index(), 7);
        assert_eq!(NodeId::from(7u32), a);
        assert_eq!(format!("{a}"), "n7");
        assert_eq!(format!("{a:?}"), "NodeId(7)");
    }

    #[test]
    fn timer_id_none() {
        assert!(TimerId::NONE.is_none());
        assert!(TimerId::default().is_none());
        assert!(!TimerId(3).is_none());
    }
}
