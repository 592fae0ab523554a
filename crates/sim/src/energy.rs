//! Per-node energy accounting.
//!
//! Devices at the sensing and actuation layer are "constrained in their
//! power supply" (paper §II-B); the experiments therefore track how long
//! each node's radio spends in each power state and convert that into
//! charge and energy using a configurable current profile. The default
//! profile matches a classic 802.15.4 transceiver (CC2420-class).

use crate::radio::RadioState;
use crate::time::{SimDuration, SimTime};

/// Current draw (mA) of the radio in each state, plus supply voltage.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EnergyModel {
    /// Current in deep sleep, mA.
    pub sleep_ma: f64,
    /// Current while listening / receiving, mA.
    pub listen_ma: f64,
    /// Current while transmitting, mA.
    pub tx_ma: f64,
    /// Supply voltage, V.
    pub voltage_v: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        // CC2420-class: RX 18.8 mA, TX(0 dBm) 17.4 mA, sleep 21 uA.
        EnergyModel {
            sleep_ma: 0.021,
            listen_ma: 18.8,
            tx_ma: 17.4,
            voltage_v: 3.0,
        }
    }
}

impl EnergyModel {
    fn current_ma(&self, state: RadioState) -> f64 {
        match state {
            RadioState::Off => self.sleep_ma,
            RadioState::Listening => self.listen_ma,
            RadioState::Transmitting => self.tx_ma,
        }
    }
}

/// Accumulated radio-state residency for one node.
///
/// # Examples
///
/// ```
/// use iiot_sim::energy::{EnergyMeter, EnergyModel};
/// use iiot_sim::radio::RadioState;
/// use iiot_sim::time::SimTime;
///
/// let mut m = EnergyMeter::new();
/// m.transition(SimTime::ZERO, RadioState::Listening);
/// m.transition(SimTime::from_secs(1), RadioState::Off);
/// let usage = m.finish(SimTime::from_secs(10));
/// assert_eq!(usage.listen, iiot_sim::time::SimDuration::from_secs(1));
/// assert!(usage.duty_cycle() < 0.11);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EnergyMeter {
    state: RadioState,
    since: SimTime,
    sleep: SimDuration,
    listen: SimDuration,
    tx: SimDuration,
}

/// Final per-state residency and derived energy figures.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EnergyUsage {
    /// Time spent with the radio off.
    pub sleep: SimDuration,
    /// Time spent listening / receiving.
    pub listen: SimDuration,
    /// Time spent transmitting.
    pub tx: SimDuration,
}

impl EnergyMeter {
    /// A meter starting in the `Off` state at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that the radio entered `state` at `now`.
    pub fn transition(&mut self, now: SimTime, state: RadioState) {
        self.accumulate(now);
        self.state = state;
        self.since = now;
    }

    fn accumulate(&mut self, now: SimTime) {
        let d = now.duration_since(self.since);
        match self.state {
            RadioState::Off => self.sleep += d,
            RadioState::Listening => self.listen += d,
            RadioState::Transmitting => self.tx += d,
        }
        self.since = now;
    }

    /// Closes the books at `now` and returns the usage summary.
    pub fn finish(mut self, now: SimTime) -> EnergyUsage {
        self.accumulate(now);
        EnergyUsage {
            sleep: self.sleep,
            listen: self.listen,
            tx: self.tx,
        }
    }

    /// A snapshot of the usage as of `now`, without consuming the meter.
    pub fn snapshot(&self, now: SimTime) -> EnergyUsage {
        let mut copy = *self;
        copy.accumulate(now);
        EnergyUsage {
            sleep: copy.sleep,
            listen: copy.listen,
            tx: copy.tx,
        }
    }
}

impl EnergyUsage {
    /// Total measured time.
    pub fn total(&self) -> SimDuration {
        self.sleep + self.listen + self.tx
    }

    /// Fraction of time with the radio on (listening or transmitting).
    /// Returns 0 for an empty measurement.
    pub fn duty_cycle(&self) -> f64 {
        let total = self.total().as_micros();
        if total == 0 {
            return 0.0;
        }
        (self.listen.as_micros() + self.tx.as_micros()) as f64 / total as f64
    }

    /// Consumed charge in millicoulombs under `model`.
    pub fn charge_mc(&self, model: &EnergyModel) -> f64 {
        model.current_ma(RadioState::Off) * self.sleep.as_secs_f64()
            + model.current_ma(RadioState::Listening) * self.listen.as_secs_f64()
            + model.current_ma(RadioState::Transmitting) * self.tx.as_secs_f64()
    }

    /// Consumed energy in millijoules under `model`.
    pub fn energy_mj(&self, model: &EnergyModel) -> f64 {
        self.charge_mc(model) * model.voltage_v
    }

    /// Projected lifetime in days on a battery of `capacity_mah`
    /// milliamp-hours, assuming the measured behaviour continues.
    /// Returns `f64::INFINITY` for an empty measurement.
    pub fn lifetime_days(&self, model: &EnergyModel, capacity_mah: f64) -> f64 {
        let secs = self.total().as_secs_f64();
        if secs == 0.0 {
            return f64::INFINITY;
        }
        let avg_ma = self.charge_mc(model) / secs;
        if avg_ma <= 0.0 {
            return f64::INFINITY;
        }
        capacity_mah / avg_ma / 24.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn residency_accumulates_per_state() {
        let mut m = EnergyMeter::new();
        m.transition(SimTime::from_secs(1), RadioState::Listening);
        m.transition(SimTime::from_secs(3), RadioState::Transmitting);
        m.transition(SimTime::from_secs(4), RadioState::Off);
        let u = m.finish(SimTime::from_secs(10));
        assert_eq!(u.sleep, SimDuration::from_secs(7)); // 0-1 and 4-10
        assert_eq!(u.listen, SimDuration::from_secs(2));
        assert_eq!(u.tx, SimDuration::from_secs(1));
        assert_eq!(u.total(), SimDuration::from_secs(10));
    }

    #[test]
    fn duty_cycle_fraction() {
        let mut m = EnergyMeter::new();
        m.transition(SimTime::ZERO, RadioState::Listening);
        m.transition(SimTime::from_secs(1), RadioState::Off);
        let u = m.finish(SimTime::from_secs(100));
        assert!((u.duty_cycle() - 0.01).abs() < 1e-9);
    }

    #[test]
    fn energy_with_default_model() {
        let model = EnergyModel::default();
        let mut m = EnergyMeter::new();
        m.transition(SimTime::ZERO, RadioState::Listening);
        let u = m.finish(SimTime::from_secs(1));
        // 18.8 mA * 1 s * 3 V = 56.4 mJ
        assert!((u.energy_mj(&model) - 56.4).abs() < 1e-9);
    }

    #[test]
    fn always_on_lifetime_much_shorter_than_duty_cycled() {
        let model = EnergyModel::default();
        let mut on = EnergyMeter::new();
        on.transition(SimTime::ZERO, RadioState::Listening);
        let on = on.finish(SimTime::from_secs(1000));

        let mut dc = EnergyMeter::new();
        dc.transition(SimTime::ZERO, RadioState::Listening);
        dc.transition(SimTime::from_secs(10), RadioState::Off);
        let dc = dc.finish(SimTime::from_secs(1000));

        let batt = 2600.0; // AA pair
        let on_days = on.lifetime_days(&model, batt);
        let dc_days = dc.lifetime_days(&model, batt);
        assert!(on_days < 10.0, "always-on lasts days: {on_days}");
        assert!(
            dc_days > 20.0 * on_days,
            "1% duty cycle extends lifetime by >20x: {dc_days} vs {on_days}"
        );
    }

    #[test]
    fn snapshot_does_not_consume() {
        let mut m = EnergyMeter::new();
        m.transition(SimTime::ZERO, RadioState::Listening);
        let s1 = m.snapshot(SimTime::from_secs(1));
        let s2 = m.snapshot(SimTime::from_secs(2));
        assert_eq!(s1.listen, SimDuration::from_secs(1));
        assert_eq!(s2.listen, SimDuration::from_secs(2));
    }

    #[test]
    fn empty_usage_edge_cases() {
        let u = EnergyUsage::default();
        assert_eq!(u.duty_cycle(), 0.0);
        assert_eq!(
            u.lifetime_days(&EnergyModel::default(), 1000.0),
            f64::INFINITY
        );
    }
}
