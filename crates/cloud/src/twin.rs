//! CRDT-backed digital twins: convergent cloud-side device state.
//!
//! The [`DeviceRegistry`](crate::registry::DeviceRegistry) answers *who
//! may speak* — credentials per `(tenant, device)` pair. This module is
//! its state-plane sibling over the same namespace: a [`DeviceTwin`]
//! per device holding the last **reported** configuration (written by
//! gateway replicas as uplinks arrive) and the **desired**
//! configuration (written by the cloud control plane), plus operator
//! tags and a vector-clock provenance trail.
//!
//! Every field is a state-based CRDT from `iiot-crdt`, so twin state
//! merged from many gateway replicas — across partitions, delayed
//! uplinks and retries — converges regardless of merge order:
//!
//! * `reported` / `desired` are [`LwwMap`]s keyed by config point,
//!   timestamped in simulation microseconds;
//! * `tags` is an add-wins [`OrSet`] (concurrent tag/untag keeps the
//!   tag);
//! * `clock` is a [`VClock`] counting the writes each replica
//!   contributed — the provenance a fleet operator reads to tell a
//!   silent device from a partitioned one.
//!
//! A [`TwinStore`] is the composition: one twin per `(tenant, device)`
//! key, itself a CRDT (per-device merge). Gateways keep a replica per
//! network and the cloud holds the join; the fleet harness
//! (`iiot-fleet`) merges gateway replicas into the cloud store at each
//! ingest drain point, and the drift detector diffs `desired` against
//! `reported` on the converged state.
//!
//! # Examples
//!
//! Two gateway replicas report concurrently during a backhaul
//! partition; the cloud joins them after the heal and sees both writes:
//!
//! ```
//! use iiot_cloud::{DeviceTwin, TenantId, TwinStore};
//! use iiot_crdt::{Crdt, ReplicaId};
//!
//! let t = TenantId(0);
//! let mut east = TwinStore::new();
//! let mut west = TwinStore::new();
//! east.report(t, 1, 100, ReplicaId(1), "fw", 2.0);
//! west.report(t, 2, 101, ReplicaId(2), "fw", 1.0);
//!
//! let mut cloud = TwinStore::new();
//! cloud.desire(t, 1, 0, ReplicaId(0), "fw", 2.0);
//! cloud.merge(&east);
//! cloud.merge(&west);
//! assert_eq!(cloud.len(), 2);
//! assert_eq!(cloud.twin(t, 1).unwrap().reported.get(&"fw".into()), Some(&2.0));
//! assert!(cloud.twin(t, 1).unwrap().drift().is_empty(), "in sync");
//! ```

use crate::tenant::TenantId;
use iiot_crdt::{Crdt, LwwMap, OrSet, ReplicaId, VClock};
use iiot_sim::SimTime;
use iiot_stream::{WindowAggregator, WindowKey};
use std::collections::BTreeMap;

/// Absolute difference below which desired and reported are in sync.
pub const TOLERANCE: f64 = 1e-9;

/// One device's convergent cloud-side state; see the [module
/// docs](self).
#[derive(Clone, PartialEq, Debug, Default)]
pub struct DeviceTwin {
    /// Last-reported config/telemetry points (gateway-written).
    pub reported: LwwMap<String, f64>,
    /// Desired config points (control-plane-written).
    pub desired: LwwMap<String, f64>,
    /// Operator tags (add-wins under concurrency).
    pub tags: OrSet<String>,
    /// Writes absorbed per replica — the twin's provenance.
    pub clock: VClock,
}

impl DeviceTwin {
    /// An empty twin.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a device-reported value for `key` at `t_us` on behalf
    /// of `writer` (a gateway replica).
    pub fn report(&mut self, t_us: u64, writer: ReplicaId, key: &str, value: f64) {
        self.reported.insert(t_us, writer, key.to_owned(), value);
        self.clock.increment(writer);
    }

    /// Records a desired value for `key` at `t_us` on behalf of
    /// `writer` (the control plane).
    pub fn desire(&mut self, t_us: u64, writer: ReplicaId, key: &str, value: f64) {
        self.desired.insert(t_us, writer, key.to_owned(), value);
        self.clock.increment(writer);
    }

    /// Adds an operator tag on behalf of `writer`.
    pub fn tag(&mut self, writer: ReplicaId, tag: &str) {
        self.tags.insert(writer, tag.to_owned());
        self.clock.increment(writer);
    }

    /// Desired keys whose reported value is missing or differs by more
    /// than [`TOLERANCE`]: `(key, desired, reported)` in key order.
    pub fn drift(&self) -> Vec<(&str, f64, Option<f64>)> {
        self.desired
            .iter()
            .filter_map(|(k, &want)| match self.reported.get(k) {
                Some(&have) if (have - want).abs() <= TOLERANCE => None,
                have => Some((k.as_str(), want, have.copied())),
            })
            .collect()
    }
}

impl Crdt for DeviceTwin {
    fn merge(&mut self, other: &Self) {
        self.reported.merge(&other.reported);
        self.desired.merge(&other.desired);
        self.tags.merge(&other.tags);
        self.clock.merge(&other.clock);
    }
}

/// A registry-shaped map of twins keyed by `(tenant, device)`; itself a
/// CRDT (twins merge pointwise, unknown devices are adopted whole).
#[derive(Clone, PartialEq, Debug, Default)]
pub struct TwinStore {
    twins: BTreeMap<(TenantId, u32), DeviceTwin>,
}

impl TwinStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The twin of `device` under `tenant`, if any writer touched it.
    pub fn twin(&self, tenant: TenantId, device: u32) -> Option<&DeviceTwin> {
        self.twins.get(&(tenant, device))
    }

    /// The twin of `device` under `tenant`, created empty on first use.
    pub fn twin_mut(&mut self, tenant: TenantId, device: u32) -> &mut DeviceTwin {
        self.twins.entry((tenant, device)).or_default()
    }

    /// Records a device-reported value (see [`DeviceTwin::report`]).
    pub fn report(
        &mut self,
        tenant: TenantId,
        device: u32,
        t_us: u64,
        writer: ReplicaId,
        key: &str,
        value: f64,
    ) {
        self.twin_mut(tenant, device)
            .report(t_us, writer, key, value);
    }

    /// Records a desired value (see [`DeviceTwin::desire`]).
    pub fn desire(
        &mut self,
        tenant: TenantId,
        device: u32,
        t_us: u64,
        writer: ReplicaId,
        key: &str,
        value: f64,
    ) {
        self.twin_mut(tenant, device)
            .desire(t_us, writer, key, value);
    }

    /// Tags a device (see [`DeviceTwin::tag`]).
    pub fn tag(&mut self, tenant: TenantId, device: u32, writer: ReplicaId, tag: &str) {
        self.twin_mut(tenant, device).tag(writer, tag);
    }

    /// Number of known twins.
    pub fn len(&self) -> usize {
        self.twins.len()
    }

    /// Whether no twin exists yet.
    pub fn is_empty(&self) -> bool {
        self.twins.is_empty()
    }

    /// Iterates over `((tenant, device), twin)` in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&(TenantId, u32), &DeviceTwin)> {
        self.twins.iter()
    }

    /// Total writes absorbed across all twins and replicas.
    pub fn total_events(&self) -> u64 {
        self.twins.values().map(|t| t.clock.total_events()).sum()
    }

    /// Merges `other` (a gateway replica reaching the cloud at a
    /// backhaul drain point) and feeds every reported point that is
    /// **new to this store** into `windows`, keyed tenant × device,
    /// with the point's LWW write timestamp as its *event time*.
    ///
    /// Event-time attribution is what makes windowed aggregates honest
    /// across partitions: a replica that buffered reports through an
    /// outage delivers them late, but each value still lands in the
    /// window of the virtual instant it was written on the device —
    /// provided the window's `allowed_lateness` covers the outage.
    /// Points whose window already closed are counted late-dropped by
    /// the aggregator, never silently mis-binned. The caller advances
    /// the aggregator's watermark with the merge's *arrival* time.
    pub fn merge_windowed(&mut self, other: &TwinStore, windows: &mut WindowAggregator) {
        for ((tenant, device), twin) in other.iter() {
            let mine = self.twins.get(&(*tenant, *device));
            for (key, &value) in twin.reported.iter() {
                let Some(theirs) = twin.reported.version(key) else {
                    continue;
                };
                let newer = match mine.and_then(|m| m.reported.version(key)) {
                    // LWW order: (timestamp, writer) — only a write
                    // that would win the merge is a new observation.
                    Some(ours) => theirs > ours,
                    None => true,
                };
                if newer {
                    let key = WindowKey {
                        tenant: tenant.0,
                        metric: *device,
                    };
                    windows.observe(key, value, SimTime::from_micros(theirs.0));
                }
            }
        }
        self.merge(other);
    }
}

impl Crdt for TwinStore {
    fn merge(&mut self, other: &Self) {
        for (k, twin) in &other.twins {
            match self.twins.get_mut(k) {
                Some(mine) => mine.merge(twin),
                None => {
                    self.twins.insert(*k, twin.clone());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: TenantId = TenantId(0);
    const GW1: ReplicaId = ReplicaId(1);
    const GW2: ReplicaId = ReplicaId(2);
    const CLOUD: ReplicaId = ReplicaId(0);

    #[test]
    fn lww_keeps_the_newest_report_per_key() {
        let mut a = TwinStore::new();
        let mut b = TwinStore::new();
        a.report(T, 0, 10, GW1, "fw", 1.0);
        b.report(T, 0, 20, GW2, "fw", 2.0);
        b.report(T, 0, 5, GW2, "rssi", -70.0);
        a.merge(&b);
        let twin = a.twin(T, 0).expect("twin");
        assert_eq!(twin.reported.get(&"fw".into()), Some(&2.0));
        assert_eq!(twin.reported.get(&"rssi".into()), Some(&-70.0));
        assert_eq!(twin.clock.get(GW1), 1);
        assert_eq!(twin.clock.get(GW2), 2);
    }

    #[test]
    fn merge_is_commutative_and_idempotent_across_replicas() {
        let mut a = TwinStore::new();
        a.report(T, 0, 10, GW1, "fw", 1.0);
        a.tag(T, 0, GW1, "line-3");
        let mut b = TwinStore::new();
        b.report(T, 1, 11, GW2, "fw", 1.0);
        b.desire(T, 0, 12, CLOUD, "interval", 60.0);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "merge must commute");
        let mut twice = ab.clone();
        twice.merge(&b);
        assert_eq!(twice, ab, "re-merging must be a no-op");
        assert_eq!(ab.len(), 2);
        assert_eq!(ab.total_events(), 4);
    }

    #[test]
    fn drift_is_desired_minus_reported() {
        let mut s = TwinStore::new();
        s.desire(T, 3, 10, CLOUD, "interval", 60.0);
        s.desire(T, 3, 10, CLOUD, "gain", 2.5);
        assert_eq!(
            s.twin(T, 3).expect("twin").drift(),
            vec![("gain", 2.5, None), ("interval", 60.0, None)],
            "unreported desired keys drift"
        );
        s.report(T, 3, 20, GW1, "interval", 60.0);
        s.report(T, 3, 20, GW1, "gain", 2.0);
        let twin = s.twin(T, 3).expect("twin");
        assert_eq!(twin.drift(), vec![("gain", 2.5, Some(2.0))]);
        s.report(T, 3, 30, GW1, "gain", 2.5);
        assert!(
            s.twin(T, 3).expect("twin").drift().is_empty(),
            "converged state has no drift"
        );
    }

    #[test]
    fn merge_windowed_attributes_buffered_reports_by_event_time() {
        use iiot_sim::SimDuration;
        use iiot_stream::{WindowAggregator, WindowSpec};
        let secs = SimDuration::from_secs;
        // A gateway buffers two reports through a ~35 s backhaul
        // outage; the cloud merges them all at once at t=50 s.
        let mut gw = TwinStore::new();
        gw.report(T, 1, 5_000_000, GW1, "temp", 20.0); // event time 5 s
        gw.report(T, 1, 15_000_000, GW1, "rssi", -70.0); // event time 15 s

        // Lateness covering the outage: both land in their event-time
        // windows despite arriving long after.
        let mut w = WindowAggregator::new(WindowSpec::tumbling(secs(10)).with_lateness(secs(45)));
        let mut cloud = TwinStore::new();
        cloud.merge_windowed(&gw, &mut w);
        w.advance_watermark(iiot_sim::SimTime::from_secs(50));
        // Re-merging the same replica contributes no new observations.
        cloud.merge_windowed(&gw, &mut w);
        let results = w.flush();
        assert_eq!(results.len(), 2, "one window per event time");
        assert!(results.iter().all(|r| r.count == 1));
        assert_eq!(w.late_total(), 0);

        // No lateness budget: the same delayed merge finds both windows
        // closed — counted late per key, never mis-binned.
        let mut w0 = WindowAggregator::new(WindowSpec::tumbling(secs(10)));
        w0.advance_watermark(iiot_sim::SimTime::from_secs(50));
        let mut cloud0 = TwinStore::new();
        cloud0.merge_windowed(&gw, &mut w0);
        assert_eq!(w0.late_total(), 2);
        assert_eq!(w0.observed(), 0);
    }

    #[test]
    fn tags_are_add_wins() {
        let mut a = TwinStore::new();
        a.tag(T, 0, GW1, "canary");
        let mut b = a.clone();
        a.twin_mut(T, 0).tags.remove(&"canary".to_owned());
        b.tag(T, 0, GW2, "canary");
        a.merge(&b);
        assert!(a.twin(T, 0).unwrap().tags.contains(&"canary".to_owned()));
    }
}
