//! Automated diagnosis of sensing/actuation components — the gap the
//! paper calls out in §V-D ("little work has been done on automated
//! diagnosis"). A rule engine maps per-node symptom vectors, as
//! collected by the framework's statistics, to ranked root-cause
//! findings an operator can act on.

use iiot_sim::NodeId;

/// Per-node symptoms over an observation window.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Symptoms {
    /// The node under diagnosis.
    pub node: NodeId,
    /// Data items expected from this node in the window.
    pub expected: u32,
    /// Data items actually received at the root.
    pub received: u32,
    /// Whether the node currently reports a route (from routing state
    /// or last-known state).
    pub has_route: bool,
    /// Link-layer transmission failure ratio (failures / attempts).
    pub mac_fail_ratio: f64,
    /// Queue-drop events at this node.
    pub queue_drops: u32,
    /// Whether *any* node's data is arriving at the root.
    pub root_receiving: bool,
    /// Whether the node's neighbours are delivering normally.
    pub neighbors_healthy: bool,
}

/// Diagnosed root cause, most severe first.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Cause {
    /// The border router itself is down (nothing arrives from anyone).
    BorderRouterDown,
    /// The node appears dead (silent while neighbours are fine).
    NodeDown,
    /// The node is alive but partitioned/orphaned from the root.
    Partitioned,
    /// The node's radio link is unreliable (high retransmission rate).
    FlakyLink,
    /// The node is overloaded (drops from full queues).
    Congested,
    /// Deliveries degraded without a clearer signature.
    Degraded,
    /// No problem detected.
    Healthy,
}

/// One diagnosis finding.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Finding {
    /// The node concerned.
    pub node: NodeId,
    /// The diagnosed cause.
    pub cause: Cause,
    /// Confidence in `[0, 1]`, from how cleanly the rules matched.
    pub confidence: f64,
}

/// Delivery ratio below which a node is considered failing.
const DELIVERY_FLOOR: f64 = 0.9;
/// MAC failure ratio above which a link is considered flaky.
const FLAKY_FLOOR: f64 = 0.25;

/// Diagnoses one node's symptoms.
pub fn diagnose(s: &Symptoms) -> Finding {
    let delivery = if s.expected == 0 {
        1.0
    } else {
        s.received as f64 / s.expected as f64
    };

    let (cause, confidence) = if !s.root_receiving {
        (Cause::BorderRouterDown, 0.95)
    } else if delivery >= DELIVERY_FLOOR && s.queue_drops == 0 {
        (Cause::Healthy, 1.0 - (1.0 - delivery).min(0.1) * 5.0)
    } else if !s.has_route {
        (Cause::Partitioned, 0.9)
    } else if s.received == 0 && s.neighbors_healthy {
        (Cause::NodeDown, 0.85)
    } else if s.mac_fail_ratio > FLAKY_FLOOR {
        (Cause::FlakyLink, (0.5 + s.mac_fail_ratio / 2.0).min(0.95))
    } else if s.queue_drops > 0 {
        (Cause::Congested, 0.7)
    } else {
        (Cause::Degraded, 0.5)
    };
    Finding {
        node: s.node,
        cause,
        confidence,
    }
}

/// Diagnoses a fleet and returns findings sorted most-severe first
/// (healthy nodes are omitted).
pub fn diagnose_fleet(symptoms: &[Symptoms]) -> Vec<Finding> {
    let mut findings: Vec<Finding> = symptoms
        .iter()
        .map(diagnose)
        .filter(|f| f.cause != Cause::Healthy)
        .collect();
    findings.sort_by(|a, b| {
        severity(b.cause)
            .cmp(&severity(a.cause))
            .then(b.confidence.total_cmp(&a.confidence))
            .then(a.node.cmp(&b.node))
    });
    findings
}

fn severity(c: Cause) -> u8 {
    match c {
        Cause::BorderRouterDown => 6,
        Cause::NodeDown => 5,
        Cause::Partitioned => 4,
        Cause::FlakyLink => 3,
        Cause::Congested => 2,
        Cause::Degraded => 1,
        Cause::Healthy => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Symptoms {
        Symptoms {
            node: NodeId(1),
            expected: 100,
            received: 98,
            has_route: true,
            mac_fail_ratio: 0.02,
            queue_drops: 0,
            root_receiving: true,
            neighbors_healthy: true,
        }
    }

    #[test]
    fn healthy_node() {
        let f = diagnose(&base());
        assert_eq!(f.cause, Cause::Healthy);
        assert!(f.confidence > 0.8);
    }

    #[test]
    fn border_router_down_dominates() {
        let mut s = base();
        s.root_receiving = false;
        s.received = 0;
        assert_eq!(diagnose(&s).cause, Cause::BorderRouterDown);
    }

    #[test]
    fn dead_node_signature() {
        let mut s = base();
        s.received = 0;
        s.has_route = true; // stale last-known state
        assert_eq!(diagnose(&s).cause, Cause::NodeDown);
    }

    #[test]
    fn partitioned_signature() {
        let mut s = base();
        s.received = 10;
        s.has_route = false;
        assert_eq!(diagnose(&s).cause, Cause::Partitioned);
    }

    #[test]
    fn flaky_link_signature() {
        let mut s = base();
        s.received = 60;
        s.mac_fail_ratio = 0.45;
        let f = diagnose(&s);
        assert_eq!(f.cause, Cause::FlakyLink);
        assert!(f.confidence > 0.6);
    }

    #[test]
    fn congestion_signature() {
        let mut s = base();
        s.received = 70;
        s.queue_drops = 12;
        assert_eq!(diagnose(&s).cause, Cause::Congested);
    }

    #[test]
    fn degraded_fallback() {
        let mut s = base();
        s.received = 60; // bad delivery, but no clear cause
        assert_eq!(diagnose(&s).cause, Cause::Degraded);
    }

    #[test]
    fn silent_node_with_no_expectations_is_healthy() {
        let mut s = base();
        s.expected = 0;
        s.received = 0;
        assert_eq!(diagnose(&s).cause, Cause::Healthy);
    }

    #[test]
    fn fleet_ranking() {
        let mut dead = base();
        dead.node = NodeId(2);
        dead.received = 0;
        let mut flaky = base();
        flaky.node = NodeId(3);
        flaky.received = 50;
        flaky.mac_fail_ratio = 0.5;
        let mut fine = base();
        fine.node = NodeId(4);
        let findings = diagnose_fleet(&[flaky, fine, dead]);
        assert_eq!(findings.len(), 2, "healthy node omitted");
        assert_eq!(findings[0].cause, Cause::NodeDown);
        assert_eq!(findings[1].cause, Cause::FlakyLink);
    }
}
