//! The HVAC scenario of §V-B: a thermal zone model, a margin-aware
//! controller, an occupancy schedule and the simulation loop producing
//! the comfort/energy trade-off curve of experiment E9.

use crate::safety::{SafetyEnvelope, SafetyMonitor};
use iiot_sim::{SimDuration, SimTime};

/// A first-order RC thermal model of one zone:
/// `dT/dt = (T_out - T)/tau + gain * u`, heater input `u` in `[0, 1]`.
#[derive(Clone, Copy, Debug)]
pub struct Zone {
    /// Current zone temperature, degrees C.
    pub temp_c: f64,
    /// Thermal time constant, seconds (how fast the zone drifts toward
    /// the outdoor temperature).
    pub tau_s: f64,
    /// Heating rate at full power, degrees C per second.
    pub heater_gain: f64,
    /// Heater electrical power at `u = 1`, kW.
    pub heater_kw: f64,
}

impl Default for Zone {
    fn default() -> Self {
        Zone {
            temp_c: 21.0,
            tau_s: 4.0 * 3600.0,       // leaky office: 4 h time constant
            heater_gain: 8.0 / 3600.0, // +8 C per hour at full blast
            heater_kw: 6.0,
        }
    }
}

impl Zone {
    /// Advances the model by `dt` with outdoor temperature `t_out` and
    /// heater input `u` (clamped to `[0, 1]`). Returns the electrical
    /// energy used, kWh.
    pub fn step(&mut self, dt: SimDuration, t_out: f64, u: f64) -> f64 {
        let u = u.clamp(0.0, 1.0);
        let dt_s = dt.as_secs_f64();
        self.temp_c += ((t_out - self.temp_c) / self.tau_s + self.heater_gain * u) * dt_s;
        self.heater_kw * u * dt_s / 3600.0
    }
}

/// Sinusoidal outdoor temperature with a daily cycle.
pub fn outdoor_temp(at: SimTime, mean_c: f64, swing_c: f64) -> f64 {
    let day = 24.0 * 3600.0;
    let phase = (at.as_secs_f64() % day) / day * std::f64::consts::TAU;
    // Coldest at ~04:00, warmest at ~16:00.
    mean_c - swing_c * (phase - std::f64::consts::FRAC_PI_3).cos()
}

/// Office occupancy: occupied 08:00-18:00.
pub fn office_occupied(at: SimTime) -> bool {
    let hour = (at.as_secs_f64() % (24.0 * 3600.0)) / 3600.0;
    (8.0..18.0).contains(&hour)
}

/// A hysteresis thermostat that widens its comfort band when the space
/// is unoccupied (the deliberate soft-margin violation of §V-B).
#[derive(Clone, Copy, Debug)]
pub struct Thermostat {
    /// Comfort envelope while occupied.
    pub envelope: SafetyEnvelope,
    /// Extra margin while unoccupied (setback), degrees.
    pub setback_c: f64,
    /// Hysteresis half-width around switching points.
    pub hysteresis_c: f64,
    heating: bool,
}

impl Thermostat {
    /// A thermostat over `envelope` with the given setback.
    pub fn new(envelope: SafetyEnvelope, setback_c: f64) -> Self {
        Thermostat {
            envelope,
            setback_c,
            hysteresis_c: 0.3,
            heating: false,
        }
    }

    /// Decides the heater input for the current temperature.
    pub fn control(&mut self, temp_c: f64, occupied: bool) -> f64 {
        let env = if occupied {
            self.envelope
        } else {
            self.envelope.relax(self.setback_c)
        };
        // Cycle in a band strictly above the comfort bound so the
        // hysteresis ripple does not itself cause soft violations.
        let on_below = env.soft_min + self.hysteresis_c;
        let off_above = env.soft_min + 3.0 * self.hysteresis_c;
        if self.heating {
            if temp_c >= off_above {
                self.heating = false;
            }
        } else if temp_c <= on_below {
            self.heating = true;
        }
        if self.heating {
            1.0
        } else {
            0.0
        }
    }
}

/// Result of one HVAC simulation run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HvacReport {
    /// Fraction of *occupied* time outside the comfort band.
    pub discomfort_frac: f64,
    /// Hard-limit violation events.
    pub hard_events: u32,
    /// Total electrical energy, kWh.
    pub energy_kwh: f64,
    /// Net provider revenue under [`crate::safety::revenue`].
    pub revenue: f64,
}

/// Simulates `days` of a single zone under the thermostat, sampling
/// every `step`. The safety monitor only accumulates occupied time, so
/// `discomfort_frac` matches the §V-B notion of comfort "depending on
/// who occupies a given space at a given time".
pub fn simulate(
    mut zone: Zone,
    mut thermostat: Thermostat,
    days: u32,
    step: SimDuration,
    outdoor_mean_c: f64,
) -> HvacReport {
    let mut monitor = SafetyMonitor::new(thermostat.envelope);
    let mut energy_kwh = 0.0;
    let horizon = SimTime::from_secs(days as u64 * 24 * 3600);
    let mut now = SimTime::ZERO;
    while now < horizon {
        let occupied = office_occupied(now);
        let t_out = outdoor_temp(now, outdoor_mean_c, 5.0);
        let u = thermostat.control(zone.temp_c, occupied);
        energy_kwh += zone.step(step, t_out, u);
        if occupied {
            monitor.observe(now, zone.temp_c);
        }
        now += step;
    }
    HvacReport {
        discomfort_frac: monitor.soft_violation_frac() + monitor.hard_violation_frac(),
        hard_events: monitor.hard_events(),
        energy_kwh,
        revenue: crate::safety::revenue(&monitor, energy_kwh),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn envelope() -> SafetyEnvelope {
        SafetyEnvelope::new(5.0, 20.0, 24.0, 32.0)
    }

    #[test]
    fn zone_drifts_toward_outdoor() {
        let mut z = Zone {
            temp_c: 21.0,
            ..Zone::default()
        };
        for _ in 0..1000 {
            z.step(SimDuration::from_secs(60), 0.0, 0.0);
        }
        assert!(z.temp_c < 5.0, "unheated zone cools toward 0: {}", z.temp_c);
    }

    #[test]
    fn heater_raises_temperature() {
        let mut z = Zone {
            temp_c: 15.0,
            ..Zone::default()
        };
        let e = z.step(SimDuration::from_secs(3600), 15.0, 1.0);
        assert!(z.temp_c > 18.0, "one hour of heating: {}", z.temp_c);
        assert!((e - 6.0).abs() < 1e-9, "6 kW for an hour");
    }

    #[test]
    fn outdoor_cycle_shape() {
        let mean = 10.0;
        let coldest = outdoor_temp(SimTime::from_secs(4 * 3600), mean, 5.0);
        let warmest = outdoor_temp(SimTime::from_secs(16 * 3600), mean, 5.0);
        assert!(coldest < mean && warmest > mean);
        assert!((warmest - coldest) > 8.0);
    }

    #[test]
    fn occupancy_schedule() {
        assert!(!office_occupied(SimTime::from_secs(7 * 3600)));
        assert!(office_occupied(SimTime::from_secs(9 * 3600)));
        assert!(office_occupied(SimTime::from_secs(17 * 3600)));
        assert!(!office_occupied(SimTime::from_secs(19 * 3600)));
    }

    #[test]
    fn thermostat_hysteresis() {
        let mut t = Thermostat::new(envelope(), 4.0);
        assert_eq!(t.control(25.0, true), 0.0);
        assert_eq!(t.control(19.5, true), 1.0, "below the on threshold");
        assert_eq!(t.control(20.5, true), 1.0, "keeps heating inside band");
        assert_eq!(t.control(21.0, true), 0.0, "stops above the off threshold");
        // Unoccupied: setback tolerates 17C without heating.
        assert_eq!(t.control(17.0, false), 0.0);
    }

    #[test]
    fn setback_saves_energy_at_some_comfort_cost() {
        let run = |setback: f64| {
            simulate(
                Zone::default(),
                Thermostat::new(envelope(), setback),
                3,
                SimDuration::from_secs(60),
                8.0,
            )
        };
        let tight = run(0.0);
        let relaxed = run(6.0);
        assert!(
            relaxed.energy_kwh < tight.energy_kwh * 0.98,
            "setback must save energy: {} vs {}",
            relaxed.energy_kwh,
            tight.energy_kwh
        );
        assert!(
            relaxed.discomfort_frac >= tight.discomfort_frac,
            "savings come at (non-negative) comfort cost"
        );
        assert_eq!(tight.hard_events, 0, "hard limits never violated");
        assert_eq!(relaxed.hard_events, 0);
    }

    #[test]
    fn occupied_comfort_maintained_by_tight_control() {
        let r = simulate(
            Zone::default(),
            Thermostat::new(envelope(), 0.0),
            2,
            SimDuration::from_secs(60),
            8.0,
        );
        assert!(
            r.discomfort_frac < 0.10,
            "tight control keeps discomfort low: {}",
            r.discomfort_frac
        );
    }
}
