//! The three-axis scorecard: interoperability, scalability,
//! dependability — the paper's §III/§IV/§V lens rendered as a report an
//! operator (or an experiment) can read off a running deployment.

use crate::deployment::{CollectionReport, Deployment};
use std::collections::BTreeSet;
use std::fmt;

/// Interoperability axis (§III).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct InteropScore {
    /// Distinct southbound protocols integrated.
    pub protocols: usize,
    /// Devices onboarded.
    pub devices: usize,
    /// Normalized points exposed.
    pub points: usize,
}

/// Scalability axis (§IV).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ScaleScore {
    /// Nodes in the sensing deployment.
    pub nodes: usize,
    /// End-to-end delivery ratio.
    pub delivery_ratio: f64,
    /// 95th-percentile collection latency, seconds.
    pub latency_p95_s: f64,
    /// Mean radio duty cycle (energy proxy).
    pub mean_duty_cycle: f64,
}

/// Dependability axis (§V).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DependScore {
    /// Fraction of nodes alive.
    pub alive_fraction: f64,
    /// Nodes currently without a route (partitioned/orphaned).
    pub orphans: usize,
}

/// The combined scorecard.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Scorecard {
    /// §III.
    pub interoperability: InteropScore,
    /// §IV.
    pub scalability: ScaleScore,
    /// §V.
    pub dependability: DependScore,
}

impl Scorecard {
    /// Scores a running deployment; the interoperability axis is its
    /// attached gateway's integration inventory (empty without one).
    pub fn from_deployment(d: &Deployment) -> Self {
        let r: CollectionReport = d.report();
        let inv = d
            .north
            .as_ref()
            .map(|n| n.gateway().inventory())
            .unwrap_or_default();
        let protocols: BTreeSet<&str> = inv.iter().map(|d| d.protocol).collect();
        Scorecard {
            interoperability: InteropScore {
                protocols: protocols.len(),
                devices: inv.len(),
                points: inv.iter().map(|d| d.points.len()).sum(),
            },
            scalability: ScaleScore {
                nodes: d.nodes.len(),
                delivery_ratio: r.delivery_ratio,
                latency_p95_s: r.latency.p95,
                mean_duty_cycle: r.mean_duty_cycle,
            },
            dependability: DependScore {
                alive_fraction: r.alive_fraction,
                orphans: r.orphans,
            },
        }
    }
}

impl fmt::Display for Scorecard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== industrial-iot scorecard ==")?;
        writeln!(
            f,
            "interoperability: {} protocols, {} devices, {} points",
            self.interoperability.protocols,
            self.interoperability.devices,
            self.interoperability.points
        )?;
        writeln!(
            f,
            "scalability:      {} nodes, delivery {:.1}%, p95 latency {:.3}s, duty cycle {:.1}%",
            self.scalability.nodes,
            self.scalability.delivery_ratio * 100.0,
            self.scalability.latency_p95_s,
            self.scalability.mean_duty_cycle * 100.0
        )?;
        write!(
            f,
            "dependability:    {:.1}% alive, {} orphaned",
            self.dependability.alive_fraction * 100.0,
            self.dependability.orphans
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deployment::MacChoice;
    use iiot_crdt::ReplicaId;
    use iiot_gateway::modbus::{ModbusAdapter, ModbusDevice, RegisterMap};
    use iiot_gateway::{Gateway, Unit};
    use iiot_sim::{SimDuration, Topology};

    #[test]
    fn scorecard_from_running_deployment() {
        let mut d = Deployment::builder(Topology::line(4, 20.0))
            .mac(MacChoice::Csma)
            .seed(7)
            .traffic(SimDuration::from_secs(5), 8, SimDuration::from_secs(10))
            .build();
        let mut gw = Gateway::new(ReplicaId(1));
        gw.add_adapter(Box::new(ModbusAdapter::new(
            "plc",
            ModbusDevice::new(1, 4),
            vec![RegisterMap {
                addr: 0,
                point: "p/t".into(),
                unit: Unit::Celsius,
                scale: 0.1,
                offset: 0.0,
                writable: false,
            }],
        )));
        assert_eq!(Scorecard::from_deployment(&d).interoperability.protocols, 0);
        d.attach_gateway(gw, "cell", Vec::new());
        d.run_for(SimDuration::from_secs(40));
        d.sim.kill(d.nodes[3]);
        let card = Scorecard::from_deployment(&d);
        assert_eq!(card.scalability.nodes, 4);
        assert!(card.scalability.delivery_ratio > 0.9);
        assert_eq!(
            card.interoperability.protocols, 2,
            "modbus-rtu and sensornet"
        );
        assert_eq!(card.interoperability.devices, 2);
        assert_eq!(card.interoperability.points, 1 + 3);
        assert!((card.dependability.alive_fraction - 0.75).abs() < 1e-9);
        let text = card.to_string();
        assert!(text.contains("scorecard"));
        assert!(text.contains("75.0% alive"));
    }
}
