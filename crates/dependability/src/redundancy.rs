//! The three redundancy types of §V-A — information, time, physical —
//! as working mechanisms plus their analytic success models.

// ---------------------------------------------------------------------
// Information redundancy: erasure coding (XOR parity).
// ---------------------------------------------------------------------

/// Splits `data` into `k` equal-ish shards plus one XOR parity shard,
/// tolerating the loss of any single shard. Each shard is prefixed with
/// its index and the original length is recorded in the parity scheme.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn parity_encode(data: &[u8], k: usize) -> Vec<Vec<u8>> {
    assert!(k > 0, "need at least one data shard");
    let shard_len = data.len().div_ceil(k).max(1);
    let mut shards: Vec<Vec<u8>> = Vec::with_capacity(k + 1);
    for i in 0..k {
        let start = (i * shard_len).min(data.len());
        let end = ((i + 1) * shard_len).min(data.len());
        let mut s = vec![0u8; shard_len];
        s[..end - start].copy_from_slice(&data[start..end]);
        shards.push(s);
    }
    let mut parity = vec![0u8; shard_len];
    for s in &shards {
        for (p, b) in parity.iter_mut().zip(s) {
            *p ^= b;
        }
    }
    shards.push(parity);
    shards
}

/// Reassembles the original `len`-byte payload from shards with at most
/// one erasure (`None`). Returns `None` if more than one shard is
/// missing.
pub fn parity_decode(shards: &[Option<Vec<u8>>], len: usize) -> Option<Vec<u8>> {
    let k = shards.len().checked_sub(1)?;
    if k == 0 {
        return None;
    }
    let missing: Vec<usize> = shards
        .iter()
        .enumerate()
        .filter(|(_, s)| s.is_none())
        .map(|(i, _)| i)
        .collect();
    if missing.len() > 1 {
        return None;
    }
    let shard_len = shards.iter().flatten().next()?.len();
    let mut restored: Vec<Vec<u8>> = Vec::with_capacity(k + 1);
    for s in shards {
        restored.push(s.clone().unwrap_or_else(|| vec![0u8; shard_len]));
    }
    if let Some(&m) = missing.first() {
        let mut rec = vec![0u8; shard_len];
        for (i, s) in restored.iter().enumerate() {
            if i != m {
                for (r, b) in rec.iter_mut().zip(s) {
                    *r ^= b;
                }
            }
        }
        restored[m] = rec;
    }
    let mut data = Vec::with_capacity(k * shard_len);
    for s in &restored[..k] {
        data.extend_from_slice(s);
    }
    data.truncate(len);
    Some(data)
}

/// Analytic success probability of the parity scheme: all `k+1` shards
/// sent over links with loss probability `p`; success iff at most one
/// shard is lost.
pub fn parity_success_prob(k: usize, p: f64) -> f64 {
    let n = k + 1;
    let q = 1.0 - p;
    q.powi(n as i32) + n as f64 * p * q.powi(n as i32 - 1)
}

// ---------------------------------------------------------------------
// Time redundancy: retransmission under a deadline.
// ---------------------------------------------------------------------

/// Success probability of up to `attempts` independent tries over a
/// link with loss probability `p`.
pub fn retry_success_prob(p: f64, attempts: u32) -> f64 {
    1.0 - p.powi(attempts as i32)
}

/// How many attempts fit before `deadline_ms` elapses, with `rtt_ms`
/// per attempt — the paper's point that time redundancy is "sometimes
/// at odds with soft-realtime requirements" made computable.
pub fn attempts_within_deadline(deadline_ms: f64, rtt_ms: f64) -> u32 {
    if rtt_ms <= 0.0 {
        return 0;
    }
    (deadline_ms / rtt_ms).floor() as u32
}

// ---------------------------------------------------------------------
// Physical redundancy: replicated sensors with voting.
// ---------------------------------------------------------------------

/// Result of voting over replicated sensor readings.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Vote {
    /// A majority agreed (within tolerance); the value is their median.
    Agreed(f64),
    /// No majority cluster: the replicas disagree.
    NoMajority,
}

/// Majority voting with tolerance: readings within `tolerance` of each
/// other form a cluster; the largest cluster wins if it is a strict
/// majority. Handles fail-silent (missing = `None`) and Byzantine
/// (wild value) replicas.
pub fn vote(readings: &[Option<f64>], tolerance: f64) -> Vote {
    let present: Vec<f64> = readings.iter().flatten().copied().collect();
    let n = readings.len();
    if present.is_empty() {
        return Vote::NoMajority;
    }
    // Largest cluster by tolerance windows anchored at each reading.
    let mut best: Vec<f64> = Vec::new();
    for &anchor in &present {
        let cluster: Vec<f64> = present
            .iter()
            .copied()
            .filter(|v| (v - anchor).abs() <= tolerance)
            .collect();
        if cluster.len() > best.len() {
            best = cluster;
        }
    }
    if best.len() * 2 > n {
        let mut c = best;
        c.sort_by(f64::total_cmp);
        Vote::Agreed(c[c.len() / 2])
    } else {
        Vote::NoMajority
    }
}

/// Analytic probability that at least `need` of `n` replicas work, each
/// independently working with probability `q`.
pub fn k_of_n_prob(n: u32, need: u32, q: f64) -> f64 {
    (need..=n)
        .map(|i| binom(n, i) * q.powi(i as i32) * (1.0 - q).powi((n - i) as i32))
        .sum()
}

fn binom(n: u32, k: u32) -> f64 {
    let mut r = 1.0;
    for i in 0..k {
        r = r * (n - i) as f64 / (i + 1) as f64;
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parity_recovers_any_single_loss() {
        let data = b"pressure sample batch 0042".to_vec();
        let shards = parity_encode(&data, 4);
        assert_eq!(shards.len(), 5);
        for lost in 0..5 {
            let mut got: Vec<Option<Vec<u8>>> = shards.iter().cloned().map(Some).collect();
            got[lost] = None;
            assert_eq!(
                parity_decode(&got, data.len()).as_deref(),
                Some(data.as_slice()),
                "losing shard {lost}"
            );
        }
    }

    #[test]
    fn parity_fails_on_double_loss() {
        let data = vec![1u8; 40];
        let shards = parity_encode(&data, 4);
        let mut got: Vec<Option<Vec<u8>>> = shards.into_iter().map(Some).collect();
        got[0] = None;
        got[2] = None;
        assert_eq!(parity_decode(&got, 40), None);
    }

    #[test]
    fn parity_analytic_bounds() {
        // With loss 0.1 and 4+1 shards: P(<=1 loss of 5) ~ 0.9185.
        let p = parity_success_prob(4, 0.1);
        assert!((p - 0.91854).abs() < 1e-4, "{p}");
        // Better than sending one unprotected 4-shard burst
        // (all must arrive): 0.9^4 = 0.6561.
        assert!(p > 0.9f64.powi(4));
    }

    #[test]
    fn retry_math() {
        assert!((retry_success_prob(0.5, 3) - 0.875).abs() < 1e-12);
        assert_eq!(retry_success_prob(0.5, 0), 0.0);
        assert_eq!(attempts_within_deadline(100.0, 30.0), 3);
        assert_eq!(attempts_within_deadline(100.0, 0.0), 0);
    }

    #[test]
    fn vote_majority_with_outlier() {
        // TMR: two agree, one Byzantine.
        let v = vote(&[Some(21.0), Some(21.2), Some(90.0)], 0.5);
        assert!(matches!(v, Vote::Agreed(x) if (21.0..=21.2).contains(&x)));
    }

    #[test]
    fn vote_fail_silent() {
        let v = vote(&[Some(21.0), None, Some(21.1)], 0.5);
        assert!(matches!(v, Vote::Agreed(_)));
        // Only one of three left: not a majority.
        assert_eq!(vote(&[Some(21.0), None, None], 0.5), Vote::NoMajority);
        assert_eq!(vote(&[None, None, None], 0.5), Vote::NoMajority);
    }

    #[test]
    fn vote_split_brain() {
        assert_eq!(
            vote(&[Some(10.0), Some(20.0), Some(30.0), Some(40.0)], 1.0),
            Vote::NoMajority
        );
    }

    #[test]
    fn k_of_n_math() {
        // TMR with q=0.9: P(>=2 of 3) = 0.972.
        assert!((k_of_n_prob(3, 2, 0.9) - 0.972).abs() < 1e-9);
        assert_eq!(k_of_n_prob(3, 0, 0.5), 1.0);
        // Redundancy helps: 2-of-3 beats 1-of-1 for q > 0.5.
        assert!(k_of_n_prob(3, 2, 0.9) > 0.9);
        // ...and hurts below the crossover.
        assert!(k_of_n_prob(3, 2, 0.3) < 0.3);
    }

    proptest! {
        #[test]
        fn parity_round_trip(data in proptest::collection::vec(any::<u8>(), 1..200), k in 1usize..8) {
            let shards = parity_encode(&data, k);
            let all: Vec<Option<Vec<u8>>> = shards.iter().cloned().map(Some).collect();
            prop_assert_eq!(parity_decode(&all, data.len()).expect("intact"), data.clone());
            for lost in 0..shards.len() {
                let mut got = all.clone();
                got[lost] = None;
                prop_assert_eq!(parity_decode(&got, data.len()).expect("one loss"), data.clone());
            }
        }

        #[test]
        fn analytic_probabilities_in_unit_interval(p in 0.0f64..1.0, k in 1usize..10, r in 0u32..10) {
            let a = parity_success_prob(k, p);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&a));
            let b = retry_success_prob(p, r);
            prop_assert!((0.0..=1.0).contains(&b));
            let c = k_of_n_prob(5, 3, 1.0 - p);
            prop_assert!((-1e-12..=1.0 + 1e-12).contains(&c));
        }
    }
}
