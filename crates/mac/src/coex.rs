//! Channel-assignment strategies for co-located networks managed by
//! different parties (administrative scalability, paper §IV-C).
//!
//! On a construction site or factory floor, several organizations deploy
//! independent networks that "will likely compete for resources, notably
//! wireless communication channels". This module provides the channel
//! plans compared by experiment E6: everyone on one channel (the
//! uncoordinated default), static per-tenant channels, and pseudo-random
//! hopping (which degrades gracefully when tenants outnumber channels).

/// Identifier of a tenant: an administrative domain operating one of the
/// co-located networks.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct TenantId(pub u16);

impl core::fmt::Display for TenantId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A channel-assignment strategy for co-located tenant networks.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ChannelPlan {
    /// Every tenant shares a single channel: maximal interference, the
    /// state of nature without coordination.
    Shared {
        /// The channel everyone uses.
        channel: u8,
    },
    /// Each tenant gets `base + (tenant mod num_channels)`: perfect
    /// isolation while tenants fit, round-robin reuse beyond that.
    PerTenant {
        /// First channel of the pool.
        base: u8,
        /// Number of channels in the pool (802.15.4: 16).
        num_channels: u8,
    },
    /// Per-epoch pseudo-random hopping over the pool, seeded by the
    /// tenant id: collisions between two tenants happen on a random
    /// `1/num_channels` of the epochs rather than always-or-never.
    Hopping {
        /// First channel of the pool.
        base: u8,
        /// Number of channels in the pool.
        num_channels: u8,
    },
}

impl ChannelPlan {
    /// The channel tenant `t` uses during `epoch`.
    ///
    /// # Panics
    ///
    /// Panics if a pool-based plan has `num_channels == 0`.
    pub fn channel_for(&self, t: TenantId, epoch: u64) -> u8 {
        match *self {
            ChannelPlan::Shared { channel } => channel,
            ChannelPlan::PerTenant { base, num_channels } => {
                assert!(num_channels > 0, "empty channel pool");
                base + (t.0 % num_channels as u16) as u8
            }
            ChannelPlan::Hopping { base, num_channels } => {
                assert!(num_channels > 0, "empty channel pool");
                base + (mix(t.0 as u64, epoch) % num_channels as u64) as u8
            }
        }
    }

    /// Expected fraction of epochs in which two *distinct* tenants share
    /// a channel under this plan (the analytic collision rate the
    /// experiment compares against).
    pub fn expected_overlap(&self, a: TenantId, b: TenantId) -> f64 {
        if a == b {
            return 1.0;
        }
        match *self {
            ChannelPlan::Shared { .. } => 1.0,
            ChannelPlan::PerTenant { num_channels, .. } => {
                if a.0 % num_channels as u16 == b.0 % num_channels as u16 {
                    1.0
                } else {
                    0.0
                }
            }
            ChannelPlan::Hopping { num_channels, .. } => 1.0 / num_channels as f64,
        }
    }
}

/// SplitMix64-style avalanche mixing of `(tenant, epoch)`: cheap enough
/// for a microcontroller, uniform enough for hopping.
fn mix(a: u64, b: u64) -> u64 {
    let mut z = a
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(b)
        .wrapping_add(0x2545_F491_4F6C_DD1D);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_plan_always_collides() {
        let p = ChannelPlan::Shared { channel: 11 };
        assert_eq!(p.channel_for(TenantId(0), 0), 11);
        assert_eq!(p.channel_for(TenantId(9), 123), 11);
        assert_eq!(p.expected_overlap(TenantId(0), TenantId(1)), 1.0);
    }

    #[test]
    fn per_tenant_isolates_until_pool_exhausted() {
        let p = ChannelPlan::PerTenant {
            base: 11,
            num_channels: 4,
        };
        let chans: Vec<u8> = (0..4).map(|t| p.channel_for(TenantId(t), 0)).collect();
        assert_eq!(chans, vec![11, 12, 13, 14]);
        // Tenant 4 wraps onto tenant 0's channel.
        assert_eq!(p.channel_for(TenantId(4), 0), 11);
        assert_eq!(p.expected_overlap(TenantId(0), TenantId(4)), 1.0);
        assert_eq!(p.expected_overlap(TenantId(0), TenantId(1)), 0.0);
        // Static: epoch has no effect.
        assert_eq!(
            p.channel_for(TenantId(2), 0),
            p.channel_for(TenantId(2), 999)
        );
    }

    #[test]
    fn hopping_stays_in_pool_and_varies() {
        let p = ChannelPlan::Hopping {
            base: 11,
            num_channels: 16,
        };
        let mut seen = std::collections::BTreeSet::new();
        for epoch in 0..200 {
            let c = p.channel_for(TenantId(3), epoch);
            assert!((11..27).contains(&c));
            seen.insert(c);
        }
        assert!(seen.len() >= 12, "hopping should visit most channels");
    }

    #[test]
    fn hopping_collision_rate_close_to_analytic() {
        let p = ChannelPlan::Hopping {
            base: 0,
            num_channels: 16,
        };
        let epochs = 4000;
        let collisions = (0..epochs)
            .filter(|&e| p.channel_for(TenantId(1), e) == p.channel_for(TenantId(2), e))
            .count();
        let rate = collisions as f64 / epochs as f64;
        let expect = p.expected_overlap(TenantId(1), TenantId(2));
        assert!(
            (rate - expect).abs() < 0.02,
            "measured {rate:.4}, analytic {expect:.4}"
        );
    }

    #[test]
    fn hopping_is_deterministic() {
        let p = ChannelPlan::Hopping {
            base: 0,
            num_channels: 16,
        };
        assert_eq!(
            p.channel_for(TenantId(5), 77),
            p.channel_for(TenantId(5), 77)
        );
    }
}
