//! Continuous safety: hard limits, soft comfort margins, and the
//! revenue model that ties comfort and energy together (§V-B).
//!
//! The paper argues that outside life-critical settings, "safety need
//! not be considered only binary: it can be continuous to some extent",
//! with soft margins the system may deliberately violate to save
//! energy, and provider revenue depending on both.

use iiot_sim::{SimDuration, SimTime};

/// A nested pair of bands: the hard band must never be left; the soft
/// band is the comfort target.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SafetyEnvelope {
    /// Absolute lower limit (equipment/health).
    pub hard_min: f64,
    /// Comfort lower bound.
    pub soft_min: f64,
    /// Comfort upper bound.
    pub soft_max: f64,
    /// Absolute upper limit.
    pub hard_max: f64,
}

impl SafetyEnvelope {
    /// Creates an envelope.
    ///
    /// # Panics
    ///
    /// Panics unless `hard_min <= soft_min <= soft_max <= hard_max`.
    pub fn new(hard_min: f64, soft_min: f64, soft_max: f64, hard_max: f64) -> Self {
        assert!(
            hard_min <= soft_min && soft_min <= soft_max && soft_max <= hard_max,
            "envelope bands must nest"
        );
        SafetyEnvelope {
            hard_min,
            soft_min,
            soft_max,
            hard_max,
        }
    }

    /// Widens (positive `delta`) or narrows the soft band symmetrically,
    /// clamped to the hard band. The §V-B energy-saving knob.
    pub fn relax(self, delta: f64) -> SafetyEnvelope {
        let soft_min = (self.soft_min - delta).max(self.hard_min);
        let soft_max = (self.soft_max + delta).min(self.hard_max);
        let (soft_min, soft_max) = if soft_min <= soft_max {
            (soft_min, soft_max)
        } else {
            let mid = (self.soft_min + self.soft_max) / 2.0;
            (mid, mid)
        };
        SafetyEnvelope {
            soft_min,
            soft_max,
            ..self
        }
    }

    /// Classifies a value.
    pub fn classify(&self, value: f64) -> SafetyState {
        if value < self.hard_min || value > self.hard_max {
            SafetyState::HardViolation
        } else if value < self.soft_min || value > self.soft_max {
            SafetyState::SoftViolation
        } else {
            SafetyState::Safe
        }
    }
}

/// Classification of a monitored value.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SafetyState {
    /// Inside the comfort band.
    Safe,
    /// Outside comfort but inside the hard limits.
    SoftViolation,
    /// Outside the hard limits: a (near-)calamity.
    HardViolation,
}

/// Accumulates time in each safety state from periodic observations.
#[derive(Clone, Debug)]
pub struct SafetyMonitor {
    envelope: SafetyEnvelope,
    last: Option<(SimTime, SafetyState)>,
    safe: SimDuration,
    soft: SimDuration,
    hard: SimDuration,
    hard_events: u32,
}

impl SafetyMonitor {
    /// A monitor over `envelope` with no observations yet.
    pub fn new(envelope: SafetyEnvelope) -> Self {
        SafetyMonitor {
            envelope,
            last: None,
            safe: SimDuration::ZERO,
            soft: SimDuration::ZERO,
            hard: SimDuration::ZERO,
            hard_events: 0,
        }
    }

    /// The envelope being enforced.
    pub fn envelope(&self) -> &SafetyEnvelope {
        &self.envelope
    }

    /// Observes `value` at `now`; the previous state is credited for
    /// the elapsed interval.
    pub fn observe(&mut self, now: SimTime, value: f64) -> SafetyState {
        let state = self.envelope.classify(value);
        if let Some((then, prev)) = self.last {
            let d = now.duration_since(then);
            match prev {
                SafetyState::Safe => self.safe += d,
                SafetyState::SoftViolation => self.soft += d,
                SafetyState::HardViolation => self.hard += d,
            }
        }
        if state == SafetyState::HardViolation
            && self.last.map(|(_, s)| s) != Some(SafetyState::HardViolation)
        {
            self.hard_events += 1;
        }
        self.last = Some((now, state));
        state
    }

    /// Fraction of observed time in soft violation.
    pub fn soft_violation_frac(&self) -> f64 {
        let total = (self.safe + self.soft + self.hard).as_secs_f64();
        if total == 0.0 {
            0.0
        } else {
            self.soft.as_secs_f64() / total
        }
    }

    /// Fraction of observed time in hard violation.
    pub fn hard_violation_frac(&self) -> f64 {
        let total = (self.safe + self.soft + self.hard).as_secs_f64();
        if total == 0.0 {
            0.0
        } else {
            self.hard.as_secs_f64() / total
        }
    }

    /// Number of entries into hard violation.
    pub fn hard_events(&self) -> u32 {
        self.hard_events
    }

    /// Total observed time.
    pub fn observed(&self) -> SimDuration {
        self.safe + self.soft + self.hard
    }
}

/// The provider's contract: bonuses for comfort, penalties for
/// violations, and the electricity bill.
#[derive(Clone, Copy, Debug)]
pub struct RevenueModel {
    /// Payment per hour spent in the comfort band.
    pub comfort_bonus_per_hour: f64,
    /// Penalty per hour of soft violation.
    pub soft_penalty_per_hour: f64,
    /// One-off penalty per hard-violation event.
    pub hard_penalty: f64,
    /// Electricity price per kWh.
    pub energy_price_per_kwh: f64,
}

impl Default for RevenueModel {
    fn default() -> Self {
        RevenueModel {
            comfort_bonus_per_hour: 1.0,
            soft_penalty_per_hour: 2.0,
            hard_penalty: 500.0,
            energy_price_per_kwh: 0.25,
        }
    }
}

impl RevenueModel {
    /// Net revenue for a monitored period with `energy_kwh` consumed.
    pub fn revenue(&self, monitor: &SafetyMonitor, energy_kwh: f64) -> f64 {
        let hours = monitor.observed().as_secs_f64() / 3600.0;
        let safe_h = hours * (1.0 - monitor.soft_violation_frac() - monitor.hard_violation_frac());
        let soft_h = hours * monitor.soft_violation_frac();
        self.comfort_bonus_per_hour * safe_h
            - self.soft_penalty_per_hour * soft_h
            - self.hard_penalty * monitor.hard_events() as f64
            - self.energy_price_per_kwh * energy_kwh
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env() -> SafetyEnvelope {
        SafetyEnvelope::new(10.0, 20.0, 24.0, 35.0)
    }

    #[test]
    fn classification_bands() {
        let e = env();
        assert_eq!(e.classify(22.0), SafetyState::Safe);
        assert_eq!(e.classify(20.0), SafetyState::Safe);
        assert_eq!(e.classify(19.9), SafetyState::SoftViolation);
        assert_eq!(e.classify(30.0), SafetyState::SoftViolation);
        assert_eq!(e.classify(9.9), SafetyState::HardViolation);
        assert_eq!(e.classify(40.0), SafetyState::HardViolation);
    }

    #[test]
    fn relax_widens_within_hard_band() {
        let e = env().relax(3.0);
        assert_eq!(e.soft_min, 17.0);
        assert_eq!(e.soft_max, 27.0);
        let clamped = env().relax(100.0);
        assert_eq!(clamped.soft_min, 10.0);
        assert_eq!(clamped.soft_max, 35.0);
        // Negative delta narrows; collapse is handled.
        let narrow = env().relax(-10.0);
        assert!(narrow.soft_min <= narrow.soft_max);
    }

    #[test]
    #[should_panic(expected = "nest")]
    fn bad_envelope_rejected() {
        let _ = SafetyEnvelope::new(0.0, 5.0, 4.0, 10.0);
    }

    #[test]
    fn monitor_accumulates_time() {
        let mut m = SafetyMonitor::new(env());
        m.observe(SimTime::from_secs(0), 22.0); // safe
        m.observe(SimTime::from_secs(100), 19.0); // 100s safe, now soft
        m.observe(SimTime::from_secs(150), 5.0); // 50s soft, now hard
        m.observe(SimTime::from_secs(160), 22.0); // 10s hard, now safe
        m.observe(SimTime::from_secs(200), 22.0); // 40s safe
        assert!((m.soft_violation_frac() - 50.0 / 200.0).abs() < 1e-9);
        assert!((m.hard_violation_frac() - 10.0 / 200.0).abs() < 1e-9);
        assert_eq!(m.hard_events(), 1);
    }

    #[test]
    fn hard_event_counted_once_per_excursion() {
        let mut m = SafetyMonitor::new(env());
        m.observe(SimTime::from_secs(0), 5.0);
        m.observe(SimTime::from_secs(10), 5.0); // still the same excursion
        m.observe(SimTime::from_secs(20), 22.0);
        m.observe(SimTime::from_secs(30), 5.0); // a new one
        assert_eq!(m.hard_events(), 2);
    }

    #[test]
    fn revenue_tradeoff() {
        let model = RevenueModel::default();
        // All-safe hour with 1 kWh.
        let mut good = SafetyMonitor::new(env());
        good.observe(SimTime::from_secs(0), 22.0);
        good.observe(SimTime::from_secs(3600), 22.0);
        let r_good = model.revenue(&good, 1.0);
        assert!((r_good - (1.0 - 0.25)).abs() < 1e-9);

        // Same hour in soft violation but half the energy.
        let mut cheap = SafetyMonitor::new(env());
        cheap.observe(SimTime::from_secs(0), 19.0);
        cheap.observe(SimTime::from_secs(3600), 19.0);
        let r_cheap = model.revenue(&cheap, 0.5);
        assert!(r_cheap < r_good, "penalty outweighs the savings here");

        // A hard event is catastrophic for revenue.
        let mut bad = SafetyMonitor::new(env());
        bad.observe(SimTime::from_secs(0), 5.0);
        bad.observe(SimTime::from_secs(3600), 22.0);
        assert!(model.revenue(&bad, 0.0) < -400.0);
    }
}
