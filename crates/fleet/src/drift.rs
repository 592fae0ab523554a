//! Config drift detection and remediation over the twin store.
//!
//! The control plane writes *desired* configuration into
//! [`TwinStore`] twins; gateways report what devices actually run.
//! [`scan`] diffs the two on the converged cloud state
//! and yields one [`DriftItem`] per out-of-sync key. Remediation turns
//! each item into a [`Command`] addressed at the owning network's
//! config surface (`dev/<device>/<key>` on the gateway's northbound
//! CoAP server), pushed through the same bounded
//! [`CommandRouter`](iiot_cloud::CommandRouter) downlink the cloud
//! tier uses for everything else — drift repair gets no privileged
//! write path.

use iiot_cloud::{Command, TenantId, TwinStore};

/// One out-of-sync configuration key on one device.
#[derive(Clone, PartialEq, Debug)]
pub struct DriftItem {
    /// The owning tenant.
    pub tenant: TenantId,
    /// The drifting device.
    pub device: u32,
    /// The drifting configuration key.
    pub key: String,
    /// What the control plane wants.
    pub desired: f64,
    /// What the device last reported (`None` if never reported).
    pub reported: Option<f64>,
}

/// Every out-of-sync key across the store, in `(tenant, device, key)`
/// order — deterministic for a deterministic store.
pub fn scan(store: &TwinStore) -> Vec<DriftItem> {
    store
        .iter()
        .flat_map(|(&(tenant, device), twin)| {
            twin.drift()
                .into_iter()
                .map(move |(key, desired, reported)| DriftItem {
                    tenant,
                    device,
                    key: key.to_owned(),
                    desired,
                    reported,
                })
                .collect::<Vec<_>>()
        })
        .collect()
}

/// The gateway config-surface path for `key` on `device`.
pub fn point_path(device: u32, key: &str) -> String {
    format!("dev/{device}/{key}")
}

/// The device a config-surface path addresses, if it is one.
pub fn device_of_path(path: &str) -> Option<u32> {
    let mut parts = path.split('/');
    (parts.next()? == "dev").then_some(())?;
    parts.next()?.parse().ok()
}

/// The remediation push for one drift item: write the desired value to
/// the device's config point.
pub fn remediation(item: &DriftItem) -> Command {
    Command {
        tenant: item.tenant,
        point: point_path(item.device, &item.key),
        value: item.desired,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iiot_cloud::twin::TOLERANCE;
    use iiot_crdt::ReplicaId;

    const T: TenantId = TenantId(0);

    #[test]
    fn scan_lists_out_of_sync_keys_in_order() {
        let mut s = TwinStore::new();
        s.desire(T, 2, 10, ReplicaId(0), "interval", 60.0);
        s.desire(T, 1, 10, ReplicaId(0), "interval", 60.0);
        s.report(T, 1, 20, ReplicaId(1), "interval", 60.0);
        let items = scan(&s);
        assert_eq!(
            items,
            vec![DriftItem {
                tenant: T,
                device: 2,
                key: "interval".into(),
                desired: 60.0,
                reported: None,
            }]
        );
    }

    #[test]
    fn remediation_targets_the_device_config_point() {
        let item = DriftItem {
            tenant: T,
            device: 17,
            key: "report_interval".into(),
            desired: 10.0,
            reported: Some(30.0),
        };
        let cmd = remediation(&item);
        assert_eq!(cmd.point, "dev/17/report_interval");
        assert_eq!(cmd.value, 10.0);
        assert_eq!(device_of_path(&cmd.point), Some(17));
        assert_eq!(device_of_path("plant/boiler/setpoint"), None);
        assert_eq!(device_of_path("dev/not-a-number/x"), None);
    }

    #[test]
    fn tolerance_suppresses_noise() {
        let mut s = TwinStore::new();
        s.desire(T, 0, 10, ReplicaId(0), "gain", 2.0);
        s.report(T, 0, 20, ReplicaId(1), "gain", 2.0 + TOLERANCE / 2.0);
        assert!(scan(&s).is_empty());
        s.report(T, 0, 30, ReplicaId(1), "gain", 2.0005);
        assert_eq!(scan(&s).len(), 1);
    }
}
