//! Per-node oscillator model: drifting local clocks.
//!
//! Every node owns a crystal oscillator whose frequency deviates from
//! nominal by a seeded constant part-per-million offset plus a bounded
//! random walk (temperature and aging effects). Protocols read the
//! resulting *local* clock through [`crate::world::Ctx::local_time`]
//! and arm timers measured in local ticks through
//! [`crate::world::Ctx::set_timer_local`]; the world keeps running on
//! the hidden perfect clock ([`crate::world::Ctx::now`]), which real
//! motes never see.
//!
//! The model is fully deterministic: clock state advances lazily in
//! fixed whole intervals of world time, so the sequence of random-walk
//! steps — and therefore every reading — depends only on the world
//! seed and the query *time*, never on how often the clock is read.
//!
//! The default [`ClockModel`] is ideal (zero drift), in which case
//! local time *is* world time and every local-timer call degenerates
//! to its world-time equivalent, bit for bit.

use crate::time::{SimDuration, SimTime};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Bound on the random-walk frequency component, as a fraction of a
/// model's ppm: the walk is clamped to `±WALK_BOUND * ppm` around the
/// constant offset.
pub const WALK_BOUND: f64 = 0.05;
/// Maximum magnitude of one random-walk step, as a fraction of a
/// model's ppm, applied once per [`WALK_INTERVAL`].
pub const WALK_STEP: f64 = 0.01;
/// World-time interval between random-walk steps.
pub const WALK_INTERVAL: SimDuration = SimDuration::from_secs(1);
/// [`WALK_INTERVAL`] in world-time µs.
const INTERVAL_US: u64 = WALK_INTERVAL.as_micros();

/// Deployment-wide oscillator fault model. Each node draws its own
/// constant frequency offset and random-walk stream from the world
/// seed.
///
/// The default model is ideal: local clocks identical to the world
/// clock.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ClockModel {
    /// Maximum magnitude of the constant frequency offset, in parts
    /// per million. Each node draws uniformly from
    /// `[-offset_ppm, +offset_ppm]`.
    offset_ppm: f64,
}

impl ClockModel {
    /// A realistic drifting-crystal model scaled by `ppm`: constant
    /// offsets up to `±ppm`, a random walk bounded at [`WALK_BOUND`]
    /// of `ppm` stepping by up to [`WALK_STEP`] of `ppm` each
    /// [`WALK_INTERVAL`], and no initial phase error ("synced at
    /// deployment, then left to drift"). `drifting(0.0)` is the ideal
    /// model.
    #[must_use]
    pub fn drifting(ppm: f64) -> Self {
        ClockModel { offset_ppm: ppm }
    }

    /// Whether this model degenerates to the perfect world clock.
    pub fn is_ideal(&self) -> bool {
        self.offset_ppm == 0.0
    }
}

/// One node's oscillator state. Owned by the kernel, advanced lazily.
///
/// Internally the clock accumulates local time in nanoseconds at fixed
/// world-time interval boundaries; between boundaries readings are
/// linear extrapolations at the current rate, so the clock is piecewise
/// linear and strictly monotone (rates are parts-per-million, never
/// anywhere near -100%).
#[derive(Clone, Debug)]
pub(crate) struct LocalClock {
    /// Constant frequency offset in parts per billion.
    rate_ppb: i64,
    /// Current random-walk component in ppb.
    walk_ppb: i64,
    /// Walk clamp in ppb.
    walk_max_ppb: i64,
    /// Max per-interval walk step in ppb.
    step_ppb: i64,
    /// World time (µs) of the last interval boundary crossed.
    epoch_world_us: u64,
    /// Local clock reading at `epoch_world_us`, in nanoseconds.
    epoch_local_ns: i64,
    rng: SmallRng,
    /// Fast path: ideal model, local time == world time.
    ideal: bool,
}

impl LocalClock {
    /// Creates the clock for one node, drawing its constant offset from
    /// `seed` (a stream derived from the world seed, disjoint from the
    /// node's protocol RNG).
    pub(crate) fn new(model: &ClockModel, seed: u64, born_at: SimTime) -> Self {
        let ppm = model.offset_ppm;
        Self::oscillator(ppm, ppm * WALK_BOUND, ppm * WALK_STEP, seed, born_at)
    }

    /// A clock with a constant offset drawn from `±offset_ppm` and a
    /// walk bounded at `bound_ppm` stepping by up to `step_ppm`.
    fn oscillator(
        offset_ppm: f64,
        bound_ppm: f64,
        step_ppm: f64,
        seed: u64,
        born_at: SimTime,
    ) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let epoch_local_ns = (born_at.as_micros() as i64) * 1000;
        if offset_ppm == 0.0 {
            return LocalClock {
                rate_ppb: 0,
                walk_ppb: 0,
                walk_max_ppb: 0,
                step_ppb: 0,
                epoch_world_us: born_at.as_micros(),
                epoch_local_ns,
                rng,
                ideal: true,
            };
        }
        let offset_ppb_max = (offset_ppm * 1000.0).round() as i64;
        let rate_ppb = if offset_ppb_max > 0 {
            rng.gen_range(-offset_ppb_max..=offset_ppb_max)
        } else {
            0
        };
        LocalClock {
            rate_ppb,
            walk_ppb: 0,
            walk_max_ppb: (bound_ppm * 1000.0).round() as i64,
            step_ppb: (step_ppm * 1000.0).round() as i64,
            epoch_world_us: born_at.as_micros(),
            epoch_local_ns,
            rng,
            ideal: false,
        }
    }

    /// Local nanoseconds spanned by `d` world-µs at the current rate
    /// (`d` may be negative: extrapolation works both ways).
    fn ticks_ns(&self, d: i64) -> i64 {
        d * 1000 + d * (self.rate_ppb + self.walk_ppb) / 1_000_000
    }

    /// Advances the epoch over every whole interval up to `world_us`,
    /// stepping the random walk once per interval.
    fn advance(&mut self, world_us: u64) {
        while self.epoch_world_us + INTERVAL_US <= world_us {
            self.epoch_local_ns += self.ticks_ns(INTERVAL_US as i64);
            self.epoch_world_us += INTERVAL_US;
            if self.step_ppb > 0 {
                let step = self.rng.gen_range(-self.step_ppb..=self.step_ppb);
                self.walk_ppb = (self.walk_ppb + step).clamp(-self.walk_max_ppb, self.walk_max_ppb);
            }
        }
    }

    /// The local clock reading at world time `world` (µs resolution).
    pub(crate) fn read(&mut self, world: SimTime) -> SimTime {
        if self.ideal {
            return world;
        }
        let world_us = world.as_micros();
        self.advance(world_us);
        let ns = self.epoch_local_ns + self.ticks_ns(world_us as i64 - self.epoch_world_us as i64);
        SimTime::from_micros((ns / 1000).max(0) as u64)
    }

    /// Converts a delay measured in local clock ticks into the world
    /// duration a hardware timer counting those ticks would take, at
    /// the clock's current rate.
    pub(crate) fn world_delay(&mut self, world_now: SimTime, local: SimDuration) -> SimDuration {
        if self.ideal {
            return local;
        }
        self.advance(world_now.as_micros());
        let rate = 1_000_000_000 + self.rate_ppb + self.walk_ppb;
        debug_assert!(rate > 0);
        let l = local.as_micros() as i128;
        let r = rate as i128;
        let w = (l * 1_000_000_000 + r / 2) / r;
        SimDuration::from_micros(w as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drift_after(clock: &mut LocalClock, secs: u64) -> i64 {
        let world = SimTime::from_secs(secs);
        clock.read(world).as_micros() as i64 - world.as_micros() as i64
    }

    #[test]
    fn ideal_clock_is_world_time() {
        let mut c = LocalClock::new(&ClockModel::default(), 42, SimTime::ZERO);
        for us in [0u64, 1, 999_999, 1_000_000, 123_456_789] {
            let t = SimTime::from_micros(us);
            assert_eq!(c.read(t), t);
        }
        assert_eq!(
            c.world_delay(SimTime::from_secs(5), SimDuration::from_micros(123)),
            SimDuration::from_micros(123)
        );
    }

    #[test]
    fn drifting_zero_is_ideal() {
        assert!(ClockModel::drifting(0.0).is_ideal());
        assert!(!ClockModel::drifting(10.0).is_ideal());
    }

    #[test]
    fn constant_offset_accumulates_linearly() {
        // Pure constant offset (no walk): after T seconds the error is
        // rate * T within quantization.
        let mut c = LocalClock::oscillator(50.0, 0.0, 0.0, 7, SimTime::ZERO);
        let d10 = drift_after(&mut c, 10);
        let d100 = drift_after(&mut c, 100);
        assert!(d10.abs() <= 500, "|{d10}| <= 50ppm * 10s");
        assert!(d10 != 0, "a 50ppm draw is almost surely nonzero");
        // Linearity: error at 100 s is 10x the error at 10 s.
        assert!((d100 - 10 * d10).abs() <= 10, "d100={d100} d10={d10}");
    }

    #[test]
    fn drift_stays_within_model_bounds() {
        let model = ClockModel::drifting(100.0);
        for seed in 0..20 {
            let mut c = LocalClock::new(&model, seed, SimTime::ZERO);
            // Max rate magnitude: offset + walk bound = 105 ppm.
            let d = drift_after(&mut c, 300);
            assert!(d.abs() <= 105 * 300 + 1, "seed {seed}: drift {d} us");
        }
    }

    #[test]
    fn deterministic_per_seed_and_distinct_across_seeds() {
        let model = ClockModel::drifting(50.0);
        let sample = |seed: u64| {
            let mut c = LocalClock::new(&model, seed, SimTime::ZERO);
            (1..=30)
                .map(|s| c.read(SimTime::from_secs(10 * s)).as_micros())
                .collect::<Vec<_>>()
        };
        assert_eq!(sample(5), sample(5), "same seed, same trajectory");
        assert_ne!(sample(5), sample(6), "different seed, different draw");
    }

    #[test]
    fn reading_pattern_does_not_change_the_trajectory() {
        // Query the clock at every second vs only at the end: the final
        // reading must be identical (lazy interval advancement).
        let model = ClockModel::drifting(80.0);
        let mut dense = LocalClock::new(&model, 11, SimTime::ZERO);
        let mut sparse = dense.clone();
        for s in 1..=60 {
            dense.read(SimTime::from_secs(s));
        }
        let end = SimTime::from_secs(60);
        assert_eq!(dense.read(end), sparse.read(end));
    }

    #[test]
    fn clock_is_monotone() {
        let model = ClockModel::drifting(200.0);
        let mut c = LocalClock::new(&model, 3, SimTime::ZERO);
        let mut prev = c.read(SimTime::ZERO);
        for us in (0..30_000_000u64).step_by(333_333) {
            let t = c.read(SimTime::from_micros(us));
            assert!(t >= prev, "clock went backwards at {us} us");
            prev = t;
        }
    }

    #[test]
    fn world_delay_inverts_the_rate() {
        // A fast clock (positive ppm) reaches N local ticks in slightly
        // less world time; the round trip world->local over that window
        // recovers the requested local delay.
        let mut c = LocalClock::oscillator(100.0, 0.0, 0.0, 9, SimTime::ZERO);
        let now = SimTime::from_secs(100);
        let local = SimDuration::from_secs(10);
        let w = c.world_delay(now, local);
        let got = c.read(now + w).as_micros() as i64 - c.read(now).as_micros() as i64;
        let want = local.as_micros() as i64;
        assert!((got - want).abs() <= 2, "got {got} want {want}");
    }
}
