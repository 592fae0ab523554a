//! The three-tier architecture of the paper's Fig. 1:
//!
//! ```text
//! +---------------------------+
//! |    data storage layer     |   Historian: retained time series
//! +---------------------------+
//! |  application logic layer  |   RuleEngine: conditions -> actuations
//! +---------------------------+
//! | sensing and actuation layer |  anything implementing SensingActuation
//! +---------------------------+
//! ```
//!
//! The sensing and actuation layer "subsumes the classic user interface
//! layer by providing means for interaction not only with people and
//! other systems but also physical objects" (§II-B). Measurements flow
//! up through the rules into storage; actuation commands flow back
//! down.
//!
//! # Examples
//!
//! The core of `examples/quickstart.rs`: a gateway fronting a Modbus
//! PLC is closed into the three-tier loop — an overheat rule reads the
//! boiler temperature and actuates the valve, while the historian
//! retains the series.
//!
//! ```
//! use iiot_core::{Historian, LayeredSystem, Rule};
//! use iiot_crdt::ReplicaId;
//! use iiot_gateway::modbus::{ModbusAdapter, ModbusDevice, RegisterMap};
//! use iiot_gateway::{Gateway, Unit};
//!
//! // Sensing and actuation tier: one Modbus PLC behind a gateway.
//! let mut plc = ModbusDevice::new(1, 8);
//! plc.set_register(0, 923); // 92.3 C: the boiler is running hot
//! let mut gw = Gateway::new(ReplicaId(1));
//! gw.add_adapter(Box::new(ModbusAdapter::new("plc-1", plc, vec![
//!     RegisterMap { addr: 0, point: "plant/boiler/temp".into(), unit: Unit::Celsius,
//!                   scale: 0.1, offset: 0.0, writable: false },
//!     RegisterMap { addr: 1, point: "plant/boiler/valve".into(), unit: Unit::Percent,
//!                   scale: 1.0, offset: 0.0, writable: true },
//! ])));
//!
//! // Application-logic tier: close the valve above 90 C.
//! let rules = vec![Rule {
//!     name: "boiler-overheat".into(),
//!     input: "plant/boiler/temp".into(),
//!     above: true,
//!     threshold: 90.0,
//!     output: "plant/boiler/valve".into(),
//!     command: 0.0,
//! }];
//!
//! // Data-storage tier on top; cycle the loop a few times.
//! let mut system = LayeredSystem::new(gw, rules, Historian::new(1_000));
//! for cycle in 0..3u64 {
//!     system.cycle(cycle * 1_000_000);
//! }
//!
//! let latest = system.historian.latest("plant/boiler/temp").expect("stored");
//! assert!((latest - 92.3).abs() < 1e-9);
//! assert!(!system.actuations().is_empty(), "the overheat rule fired");
//! assert_eq!(system.actuations()[0].point, "plant/boiler/valve");
//! ```

use iiot_gateway::{Gateway, Measurement, WriteError};
use std::collections::BTreeMap;

/// The bottom tier: sources of measurements and sinks of actuation.
pub trait SensingActuation {
    /// Acquires fresh measurements at `now_us`.
    fn acquire(&mut self, now_us: u64) -> Vec<Measurement>;

    /// Applies an actuation command to a point.
    ///
    /// # Errors
    ///
    /// See [`WriteError`].
    fn actuate(&mut self, point: &str, value: f64) -> Result<(), WriteError>;
}

impl SensingActuation for Gateway {
    fn acquire(&mut self, now_us: u64) -> Vec<Measurement> {
        // Exactly what this poll publishes: a point with nothing new is
        // not handed up again with its old timestamp.
        let fresh = self.bus().subscribe("");
        self.poll_all(now_us);
        fresh.try_iter().collect()
    }

    fn actuate(&mut self, point: &str, value: f64) -> Result<(), WriteError> {
        // Route through the adapters directly; the northbound CoAP
        // path is for external clients.
        self.write_direct(point, value)
    }
}

/// The middle tier: declarative rules mapping conditions on points to
/// actuation commands.
#[derive(Clone, Debug)]
pub struct Rule {
    /// Rule name (for audit trails).
    pub name: String,
    /// The observed point.
    pub input: String,
    /// Fire when the value compares true against `threshold`.
    pub above: bool,
    /// Threshold value.
    pub threshold: f64,
    /// The actuated point.
    pub output: String,
    /// Value to write when the rule fires.
    pub command: f64,
}

impl Rule {
    /// Whether the rule fires for `value`.
    pub fn fires(&self, value: f64) -> bool {
        if self.above {
            value > self.threshold
        } else {
            value < self.threshold
        }
    }
}

/// A fired rule: what the application logic decided.
#[derive(Clone, Debug, PartialEq)]
pub struct Actuation {
    /// The rule that fired.
    pub rule: String,
    /// Target point.
    pub point: String,
    /// Commanded value.
    pub value: f64,
    /// Trigger time.
    pub at_us: u64,
}

/// The top tier: a retained time-series store.
#[derive(Clone, Debug, Default)]
pub struct Historian {
    series: BTreeMap<String, Vec<(u64, f64)>>,
    retention: usize,
}

impl Historian {
    /// A historian retaining up to `retention` samples per point.
    pub fn new(retention: usize) -> Self {
        Historian {
            series: BTreeMap::new(),
            retention: retention.max(1),
        }
    }

    /// Stores one sample.
    pub fn store(&mut self, point: &str, at_us: u64, value: f64) {
        let s = self.series.entry(point.to_owned()).or_default();
        s.push((at_us, value));
        if s.len() > self.retention {
            let excess = s.len() - self.retention;
            s.drain(..excess);
        }
    }

    /// The retained samples of `point`.
    pub fn samples(&self, point: &str) -> &[(u64, f64)] {
        self.series.get(point).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The most recent value of `point`.
    pub fn latest(&self, point: &str) -> Option<f64> {
        self.samples(point).last().map(|&(_, v)| v)
    }

    /// All stored point names.
    pub fn points(&self) -> impl Iterator<Item = &str> {
        self.series.keys().map(String::as_str)
    }
}

/// The assembled three-tier system of Fig. 1.
pub struct LayeredSystem<S: SensingActuation> {
    /// Sensing and actuation layer.
    pub sensing: S,
    /// Application logic layer.
    pub rules: Vec<Rule>,
    /// Data storage layer.
    pub historian: Historian,
    actuations: Vec<Actuation>,
}

impl<S: SensingActuation> LayeredSystem<S> {
    /// Assembles the tiers.
    pub fn new(sensing: S, rules: Vec<Rule>, historian: Historian) -> Self {
        LayeredSystem {
            sensing,
            rules,
            historian,
            actuations: Vec::new(),
        }
    }

    /// One end-to-end cycle at `now_us`: acquire from the bottom tier,
    /// evaluate rules, store upward, actuate downward. Returns the
    /// number of measurements that flowed through.
    pub fn cycle(&mut self, now_us: u64) -> usize {
        let measurements = self.sensing.acquire(now_us);
        let mut commands = Vec::new();
        for m in &measurements {
            self.historian.store(&m.point, m.timestamp_us, m.value);
            for r in &self.rules {
                if r.input == m.point && r.fires(m.value) {
                    commands.push(Actuation {
                        rule: r.name.clone(),
                        point: r.output.clone(),
                        value: r.command,
                        at_us: now_us,
                    });
                }
            }
        }
        for c in commands {
            if self.sensing.actuate(&c.point, c.value).is_ok() {
                self.actuations.push(c);
            }
        }
        measurements.len()
    }

    /// Every actuation issued so far (the audit trail).
    pub fn actuations(&self) -> &[Actuation] {
        &self.actuations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iiot_gateway::{Quality, Unit};

    /// A scripted sensing layer for unit tests.
    struct Fake {
        temp: f64,
        valve: f64,
    }

    impl SensingActuation for Fake {
        fn acquire(&mut self, now_us: u64) -> Vec<Measurement> {
            vec![Measurement {
                point: "boiler/temp".into(),
                value: self.temp,
                unit: Unit::Celsius,
                quality: Quality::Good,
                timestamp_us: now_us,
                device: "fake".into(),
            }]
        }
        fn actuate(&mut self, point: &str, value: f64) -> Result<(), WriteError> {
            if point == "boiler/valve" {
                self.valve = value;
                // Actuation has physical effect: closing the valve
                // cools the boiler.
                if value == 0.0 {
                    self.temp -= 5.0;
                }
                Ok(())
            } else {
                Err(WriteError::NoSuchPoint)
            }
        }
    }

    fn overheat_rule() -> Rule {
        Rule {
            name: "overheat-protection".into(),
            input: "boiler/temp".into(),
            above: true,
            threshold: 90.0,
            output: "boiler/valve".into(),
            command: 0.0,
        }
    }

    #[test]
    fn rule_predicate() {
        let r = overheat_rule();
        assert!(r.fires(95.0));
        assert!(!r.fires(85.0));
        let mut low = overheat_rule();
        low.above = false;
        assert!(low.fires(85.0));
    }

    #[test]
    fn historian_retention() {
        let mut h = Historian::new(3);
        for i in 0..5u64 {
            h.store("p", i, i as f64);
        }
        assert_eq!(h.samples("p").len(), 3);
        assert_eq!(h.latest("p"), Some(4.0));
        assert_eq!(h.samples("p")[0], (2, 2.0));
        assert_eq!(h.points().count(), 1);
        assert!(h.samples("missing").is_empty());
        assert_eq!(h.latest("missing"), None);
    }

    #[test]
    fn closed_loop_through_all_three_layers() {
        let mut sys = LayeredSystem::new(
            Fake {
                temp: 95.0,
                valve: 1.0,
            },
            vec![overheat_rule()],
            Historian::new(100),
        );
        // Cycle 1: overheating observed -> rule fires -> valve closes.
        assert_eq!(sys.cycle(1_000), 1);
        assert_eq!(sys.actuations().len(), 1);
        assert_eq!(sys.sensing.valve, 0.0);
        assert_eq!(sys.historian.latest("boiler/temp"), Some(95.0));
        // Cycle 2: boiler cooled below the threshold, no new actuation.
        assert_eq!(sys.cycle(2_000), 1);
        assert_eq!(sys.actuations().len(), 1, "rule quiescent after recovery");
        assert_eq!(sys.historian.samples("boiler/temp").len(), 2);
    }

    /// A device that reports once and then has nothing new.
    struct OneShot(bool);

    impl iiot_gateway::Adapter for OneShot {
        fn device(&self) -> &str {
            "one-shot"
        }
        fn protocol(&self) -> &'static str {
            "test"
        }
        fn points(&self) -> Vec<iiot_gateway::PointInfo> {
            vec![iiot_gateway::PointInfo {
                point: "once".into(),
                unit: Unit::Raw,
                writable: false,
            }]
        }
        fn poll(&mut self, now_us: u64) -> Vec<Measurement> {
            if std::mem::replace(&mut self.0, true) {
                return Vec::new();
            }
            vec![Measurement {
                point: "once".into(),
                value: 1.0,
                unit: Unit::Raw,
                quality: Quality::Good,
                timestamp_us: now_us,
                device: "one-shot".into(),
            }]
        }
        fn write(&mut self, _: &str, _: f64) -> Result<(), WriteError> {
            Err(WriteError::ReadOnly)
        }
    }

    #[test]
    fn a_gateway_acquires_only_what_its_poll_published() {
        let mut gw = Gateway::new(iiot_crdt::ReplicaId(1));
        gw.add_adapter(Box::new(OneShot(false)));
        let mut sys = LayeredSystem::new(gw, Vec::new(), Historian::new(100));
        let flowed: Vec<usize> = (0..4).map(|c| sys.cycle(c)).collect();
        assert_eq!(flowed, [1, 0, 0, 0]);
        assert_eq!(sys.historian.samples("once"), [(0, 1.0)]);
    }

    #[test]
    fn actuation_failure_not_recorded() {
        let mut bad_rule = overheat_rule();
        bad_rule.output = "no/such/point".into();
        let mut sys = LayeredSystem::new(
            Fake {
                temp: 99.0,
                valve: 1.0,
            },
            vec![bad_rule],
            Historian::new(10),
        );
        sys.cycle(0);
        assert!(sys.actuations().is_empty());
    }
}
