//! The estimate a node holds of the global timebase, and the shared
//! [`SyncedClock`] facade other protocols consult.

use iiot_sim::SimTime;
use std::sync::{Arc, Mutex};

/// A linear map between this node's local clock and the global (i.e.
/// the reference node's) timebase: `global ≈ base_global +
/// rate * (local - base_local)`.
///
/// Produced by [`crate::estimator::DriftEstimator`]; consumed through
/// [`SyncedClock`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClockEstimate {
    /// Local-clock anchor of the linear map.
    pub base_local: SimTime,
    /// Global-time value at `base_local`.
    pub base_global: SimTime,
    /// Estimated rate of global time per local tick (1.0 = no skew).
    pub rate: f64,
}

impl ClockEstimate {
    /// The identity map: local time *is* global time.
    pub fn identity() -> Self {
        ClockEstimate {
            base_local: SimTime::ZERO,
            base_global: SimTime::ZERO,
            rate: 1.0,
        }
    }

    /// Converts a local clock reading to estimated global time.
    pub fn global(&self, local: SimTime) -> SimTime {
        let d = i128::from(local.as_micros()) - i128::from(self.base_local.as_micros());
        shift(self.base_global, d as f64 * self.rate)
    }

    /// Converts an estimated global time back to the local clock
    /// reading at which it occurs.
    pub fn local(&self, global: SimTime) -> SimTime {
        let d = i128::from(global.as_micros()) - i128::from(self.base_global.as_micros());
        shift(self.base_local, d as f64 / self.rate)
    }

    /// Estimated skew of the local clock against the global timebase,
    /// in parts per million (positive = local runs slow).
    pub fn skew_ppm(&self) -> f64 {
        (self.rate - 1.0) * 1e6
    }

    /// Estimated `global - local` offset at local time `local`, in µs
    /// (saturating at the `i64` range).
    pub fn offset_us(&self, local: SimTime) -> i64 {
        let off = i128::from(self.global(local).as_micros()) - i128::from(local.as_micros());
        off.clamp(i64::MIN.into(), i64::MAX.into()) as i64
    }
}

/// `base + delta` µs, rounded and held to the instants a [`SimTime`]
/// can name. The map's anchors and rate come off the air, so a forged
/// beacon can make `delta` anything — a rate of 0 makes it infinite.
fn shift(base: SimTime, delta: f64) -> SimTime {
    let t = i128::from(base.as_micros()).saturating_add(delta.round() as i128);
    SimTime::from_micros(t.clamp(0, u64::MAX.into()) as u64)
}

/// A cheaply clonable handle to a node's current synchronization
/// estimate: the sync engine writes it, and any protocol on the same
/// node (e.g. a TDMA MAC computing slot boundaries) reads it through
/// its own clone.
///
/// Unsynced clocks apply the identity map, so consumers can use
/// [`SyncedClock::global`]/[`SyncedClock::local`] unconditionally.
///
/// # Examples
///
/// ```
/// use iiot_sim::SimTime;
/// use iiot_timesync::{ClockEstimate, SyncedClock};
///
/// let clock = SyncedClock::new();
/// assert!(!clock.is_synced());
/// assert_eq!(clock.global(SimTime::from_secs(5)), SimTime::from_secs(5));
///
/// let reader = clock.clone(); // e.g. handed to the MAC
/// clock.set(ClockEstimate {
///     base_local: SimTime::ZERO,
///     base_global: SimTime::from_millis(2),
///     rate: 1.0,
/// });
/// assert!(reader.is_synced());
/// assert_eq!(reader.global(SimTime::ZERO), SimTime::from_millis(2));
/// ```
#[derive(Clone, Debug, Default)]
pub struct SyncedClock {
    // An Arc<Mutex> rather than Rc<Cell> only so protocols holding a
    // handle stay `Send` (the sharded kernel moves nodes to worker
    // threads); both handles still live on one node, so the lock is
    // never contended.
    inner: Arc<Mutex<Option<ClockEstimate>>>,
}

impl SyncedClock {
    /// A fresh, unsynced clock handle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether an estimate has been installed.
    pub fn is_synced(&self) -> bool {
        self.estimate().is_some()
    }

    /// The current estimate, if synced.
    pub fn estimate(&self) -> Option<ClockEstimate> {
        *self.inner.lock().expect("clock estimate")
    }

    /// Installs a new estimate (normally only the sync engine does
    /// this).
    pub fn set(&self, est: ClockEstimate) {
        *self.inner.lock().expect("clock estimate") = Some(est);
    }

    /// Drops the estimate, reverting to the identity map (e.g. after a
    /// crash or a reference change).
    pub fn clear(&self) {
        *self.inner.lock().expect("clock estimate") = None;
    }

    /// Local-to-global conversion; identity while unsynced.
    pub fn global(&self, local: SimTime) -> SimTime {
        match self.estimate() {
            Some(e) => e.global(local),
            None => local,
        }
    }

    /// Global-to-local conversion; identity while unsynced.
    pub fn local(&self, global: SimTime) -> SimTime {
        match self.estimate() {
            Some(e) => e.local(global),
            None => global,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn identity_round_trips() {
        let e = ClockEstimate::identity();
        let t = SimTime::from_micros(123_456_789);
        assert_eq!(e.global(t), t);
        assert_eq!(e.local(t), t);
        assert_eq!(e.skew_ppm(), 0.0);
        assert_eq!(e.offset_us(t), 0);
    }

    #[test]
    fn skewed_estimate_inverts() {
        let e = ClockEstimate {
            base_local: SimTime::from_secs(10),
            base_global: SimTime::from_secs(11),
            rate: 1.0 + 80e-6,
        };
        let l = SimTime::from_secs(200);
        let g = e.global(l);
        // Round trip within quantization.
        let back = e.local(g).as_micros() as i64;
        assert!((back - l.as_micros() as i64).abs() <= 1);
        assert!((e.skew_ppm() - 80.0).abs() < 1e-9);
    }

    proptest! {
        /// Every conversion is total over any map a beacon can install:
        /// anchors anywhere in `u64`, rates of 0, ±inf, NaN or 4.6e12.
        #[test]
        fn conversions_are_total(
            (base_local, base_global, t) in (any::<u64>(), any::<u64>(), any::<u64>()),
            rate in prop_oneof![
                Just(0.0),
                Just(f64::NAN),
                Just(f64::INFINITY),
                Just(f64::NEG_INFINITY),
                Just(4.6e12),
                -2.0f64..2.0,
            ],
        ) {
            let e = ClockEstimate {
                base_local: SimTime::from_micros(base_local),
                base_global: SimTime::from_micros(base_global),
                rate,
            };
            let t = SimTime::from_micros(t);
            let _ = (e.global(t), e.local(t), e.offset_us(t));
        }
    }

    #[test]
    fn handles_share_state() {
        let a = SyncedClock::new();
        let b = a.clone();
        assert!(!b.is_synced());
        a.set(ClockEstimate {
            base_local: SimTime::ZERO,
            base_global: SimTime::from_micros(500),
            rate: 1.0,
        });
        assert!(b.is_synced());
        assert_eq!(b.global(SimTime::ZERO), SimTime::from_micros(500));
        b.clear();
        assert!(!a.is_synced());
        assert_eq!(a.global(SimTime::from_secs(1)), SimTime::from_secs(1));
    }
}
