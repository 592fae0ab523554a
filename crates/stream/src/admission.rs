//! Per-tenant token-bucket admission control: shed *before* buffering.
//!
//! The cloud tier's bounded queues (PR 7) shed on backpressure — after
//! a message has been authenticated, copied and offered to a queue.
//! Admission control moves the first line of defense ahead of the
//! buffers: each tenant owns a [`TokenBucket`] refilled in **virtual
//! time**, and a message that finds the bucket empty is shed at the
//! front door without touching any queue. The two shed points stay
//! separately countable (the cloud pipeline emits a distinct
//! `cloud_ratelimit` event for admission sheds), which is what lets
//! E18 separate "you exceeded your contract" from "the platform is
//! overloaded".
//!
//! Buckets do integer micro-token arithmetic — refill is
//! `rate_per_sec × Δt_µs`, exact in `u128` — so admission decisions
//! are a pure function of the arrival sequence: byte-identical across
//! worker counts and machines, like every other statistic in the
//! workspace.

use iiot_sim::SimTime;
use std::collections::BTreeMap;

/// Micro-tokens per token (bucket arithmetic is integral).
const MICRO: u128 = 1_000_000;

/// A tenant's admission contract.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RateLimit {
    /// Sustained admissions per virtual second.
    pub rate_per_sec: u64,
    /// Burst capacity, in messages (bucket depth).
    pub burst: u64,
}

impl RateLimit {
    /// A contract of `rate_per_sec` with `burst` messages of headroom.
    pub fn per_sec(rate_per_sec: u64, burst: u64) -> Self {
        RateLimit {
            rate_per_sec,
            burst,
        }
    }
}

/// One tenant's bucket: starts full, refills continuously in virtual
/// time, caps at `burst`.
#[derive(Clone, Copy, Debug)]
pub struct TokenBucket {
    limit: RateLimit,
    /// Current fill, in micro-tokens.
    micro_tokens: u128,
    /// Virtual instant of the last refill.
    refilled: SimTime,
}

impl TokenBucket {
    /// A full bucket under `limit`, anchored at virtual time zero.
    pub fn new(limit: RateLimit) -> Self {
        TokenBucket {
            limit,
            micro_tokens: limit.burst as u128 * MICRO,
            refilled: SimTime::ZERO,
        }
    }

    /// Whole tokens currently held.
    pub fn tokens(&self) -> u64 {
        (self.micro_tokens / MICRO) as u64
    }

    fn refill(&mut self, now: SimTime) {
        if now <= self.refilled {
            return;
        }
        let dt_us = now.as_micros() - self.refilled.as_micros();
        let gained = self.limit.rate_per_sec as u128 * dt_us as u128;
        self.micro_tokens = (self.micro_tokens + gained).min(self.limit.burst as u128 * MICRO);
        self.refilled = now;
    }

    /// Tries to take one token at virtual instant `now`. Returns
    /// whether the caller is admitted.
    pub fn admit(&mut self, now: SimTime) -> bool {
        self.refill(now);
        if self.micro_tokens >= MICRO {
            self.micro_tokens -= MICRO;
            true
        } else {
            false
        }
    }
}

/// Per-tenant admission control: every tenant gets its own bucket
/// under one uniform contract; see the [module docs](self).
#[derive(Clone, Debug)]
pub struct AdmissionControl {
    limit: RateLimit,
    buckets: BTreeMap<u16, TokenBucket>,
}

impl AdmissionControl {
    /// Every tenant gets `limit`.
    pub fn uniform(limit: RateLimit) -> Self {
        AdmissionControl {
            limit,
            buckets: BTreeMap::new(),
        }
    }

    /// Admits or sheds one arrival from `tenant` at virtual instant
    /// `now`.
    pub fn admit(&mut self, tenant: u16, now: SimTime) -> bool {
        let limit = self.limit;
        let bucket = self
            .buckets
            .entry(tenant)
            .or_insert_with(|| TokenBucket::new(limit));
        bucket.admit(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn burst_then_rate() {
        let mut b = TokenBucket::new(RateLimit::per_sec(10, 3));
        // The burst admits 3 back-to-back, then the bucket is dry.
        assert!(b.admit(t(0)) && b.admit(t(0)) && b.admit(t(0)));
        assert!(!b.admit(t(0)));
        // 100 ms refills exactly one token at 10/s.
        assert!(b.admit(t(100_000)));
        assert!(!b.admit(t(100_000)));
        // A long gap refills to the burst cap, not beyond.
        assert!(!b.admit(t(100_001)));
        let mut b2 = b;
        b2.refill(t(100_000_000));
        assert_eq!(b2.tokens(), 3);
    }

    #[test]
    fn refill_is_exact_integer_arithmetic() {
        // 3/s: one token every 333_333.33.. µs. After 333_333 µs the
        // bucket holds 0.999999 tokens — not yet admittable; one more
        // microsecond may still be short (3 µtok/µs × 333_334 µs =
        // 1_000_002 µtok ≥ 1 token).
        let mut b = TokenBucket::new(RateLimit::per_sec(3, 1));
        assert!(b.admit(t(0)));
        assert!(!b.admit(t(333_333)));
        assert!(b.admit(t(333_334)));
    }

    #[test]
    fn per_tenant_buckets_and_shed_counts() {
        let mut ac = AdmissionControl::uniform(RateLimit::per_sec(1, 1));
        let mut shed = [0u32; 2];
        for i in 0..50 {
            for (k, tenant) in [0, 7].into_iter().enumerate() {
                shed[k] += u32::from(!ac.admit(tenant, t(i)));
            }
        }
        // Each tenant's own bucket admits its burst of 1, then is dry:
        // tenant 0 draining its bucket leaves tenant 7's full.
        assert_eq!(shed, [49, 49]);
    }

    #[test]
    fn admission_is_a_pure_function_of_the_arrival_sequence() {
        let run = || {
            let mut ac = AdmissionControl::uniform(RateLimit::per_sec(100, 5));
            (0..1000u64)
                .map(|i| ac.admit((i % 3) as u16, t(i * 1717)))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
