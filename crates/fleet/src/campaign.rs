//! The fleet campaign controller: sequencing a change across *networks*
//! the way [`iiot_dissem::rollout`] sequences it across *nodes*.
//!
//! A [`FleetCampaign`] owns the network-level schedule — canary networks
//! first, then percentage waves, then the rest — and is driven by
//! periodic [`NetworkReport`]s rolled up from each network's gateway.
//! It is deliberately **simulation-free**: the controller consumes plain
//! reports and emits plain [`CampaignAction`]s, and the harness
//! ([`crate::harness`]) translates actions into per-network
//! [`RolloutPlan`](iiot_dissem::rollout::RolloutPlan)s. That keeps the
//! halting logic — the part whose correctness bounds the blast radius —
//! unit-testable without a radio model.

use std::collections::BTreeMap;

/// Identifies one network (plant segment) within the fleet.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct NetworkId(pub u32);

/// Where the campaign currently stands.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CampaignPhase {
    /// Nothing activated yet.
    Pending,
    /// The canary cohort (wave 0) is active.
    Canary,
    /// Wave `n` (1-based past the canary) is active.
    Wave(u32),
    /// Every cohort completed cleanly.
    Done,
    /// The campaign stopped early; nothing further will activate.
    Halted,
}

/// One network's periodic rollup, as assembled by its gateway.
#[derive(Clone, Debug)]
pub struct NetworkReport {
    /// The reporting network.
    pub network: NetworkId,
    /// Every node in the network completed the change cleanly.
    pub rollout_done: bool,
    /// At least one node quarantined the change (poisoned image).
    pub poisoned: bool,
}

/// What the controller wants done after a [`FleetCampaign::step`].
#[derive(Clone, PartialEq, Debug)]
pub enum CampaignAction {
    /// Start the change on these networks (one fleet cohort).
    Activate {
        /// The networks to activate, in id order.
        networks: Vec<NetworkId>,
        /// `"canary"` for the first cohort, `"wave"` after.
        stage: &'static str,
    },
    /// Stop fleet-wide on a poisoned verdict; nothing further will be
    /// activated.
    Halt {
        /// Networks activated before the halt — the blast radius.
        activated: u32,
    },
    /// Every cohort completed cleanly; the campaign is over.
    Done,
}

/// Network-level staged rollout controller; see the [module
/// docs](self).
#[derive(Clone, Debug)]
pub struct FleetCampaign {
    cohorts: Vec<Vec<NetworkId>>,
    next: usize,
    active: Vec<NetworkId>,
    phase: CampaignPhase,
}

impl FleetCampaign {
    /// A campaign over explicit network cohorts. Empty cohorts are
    /// dropped and duplicate networks keep their first occurrence —
    /// the same normalization as
    /// [`RolloutPlan::new`](iiot_dissem::rollout::RolloutPlan::new).
    pub fn new(cohorts: Vec<Vec<NetworkId>>) -> Self {
        let mut seen = std::collections::BTreeSet::new();
        let cohorts: Vec<Vec<NetworkId>> = cohorts
            .into_iter()
            .map(|c| c.into_iter().filter(|&n| seen.insert(n)).collect())
            .filter(|c: &Vec<NetworkId>| !c.is_empty())
            .collect();
        FleetCampaign {
            cohorts,
            next: 0,
            active: Vec::new(),
            phase: CampaignPhase::Pending,
        }
    }

    /// A staged campaign over networks `0..networks`: the first
    /// `canaries` networks form the canary cohort, the rest are split
    /// into `waves` roughly-equal cohorts (later waves take the
    /// remainder).
    pub fn staged(networks: u32, canaries: u32, waves: u32) -> Self {
        let canaries = canaries.min(networks);
        let mut cohorts = vec![(0..canaries).map(NetworkId).collect::<Vec<_>>()];
        let rest: Vec<NetworkId> = (canaries..networks).map(NetworkId).collect();
        let waves = waves.max(1) as usize;
        let per = rest.len().div_ceil(waves).max(1);
        cohorts.extend(rest.chunks(per).map(<[NetworkId]>::to_vec));
        FleetCampaign::new(cohorts)
    }

    /// A flat campaign: every network in one cohort, no canary.
    pub fn flat(networks: u32) -> Self {
        FleetCampaign::new(vec![(0..networks).map(NetworkId).collect()])
    }

    /// The current phase.
    pub fn phase(&self) -> CampaignPhase {
        self.phase
    }

    /// Networks activated so far, in activation order.
    pub fn activated(&self) -> &[NetworkId] {
        &self.active
    }

    /// Total networks the campaign manages.
    pub fn fleet_size(&self) -> usize {
        self.cohorts.iter().map(Vec::len).sum()
    }

    /// Advances the controller one check interval.
    ///
    /// Halting dominates: a poisoned verdict from **any activated
    /// network** stops the whole fleet before the next cohort can
    /// start — that is what bounds the blast radius to the cohorts
    /// already out. Otherwise the next cohort activates
    /// once every active network reports `rollout_done`. Networks with
    /// no report this round (e.g. a partitioned backhaul) are treated
    /// as *not done and not poisoned*: absence of evidence pauses the
    /// campaign, it never advances or halts it.
    pub fn step(&mut self, reports: &[NetworkReport]) -> Vec<CampaignAction> {
        if matches!(self.phase, CampaignPhase::Done | CampaignPhase::Halted) {
            return Vec::new();
        }
        let by_net: BTreeMap<NetworkId, &NetworkReport> =
            reports.iter().map(|r| (r.network, r)).collect();
        let poisoned = self
            .active
            .iter()
            .any(|n| by_net.get(n).is_some_and(|r| r.poisoned));
        if poisoned {
            self.phase = CampaignPhase::Halted;
            return vec![CampaignAction::Halt {
                activated: self.active.len() as u32,
            }];
        }
        let wave_done = self
            .active
            .iter()
            .all(|n| by_net.get(n).is_some_and(|r| r.rollout_done));
        if !wave_done {
            return Vec::new();
        }
        if self.next >= self.cohorts.len() {
            self.phase = CampaignPhase::Done;
            return vec![CampaignAction::Done];
        }
        let cohort = self.cohorts[self.next].clone();
        let stage = if self.next == 0 { "canary" } else { "wave" };
        self.phase = if self.next == 0 {
            CampaignPhase::Canary
        } else {
            CampaignPhase::Wave(self.next as u32)
        };
        self.active.extend(cohort.iter().copied());
        self.next += 1;
        vec![CampaignAction::Activate {
            networks: cohort,
            stage,
        }]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(n: u32, done: bool, poisoned: bool) -> NetworkReport {
        NetworkReport {
            network: NetworkId(n),
            rollout_done: done,
            poisoned,
        }
    }

    #[test]
    fn staged_splits_canary_then_waves() {
        let c = FleetCampaign::staged(8, 2, 3);
        assert_eq!(c.fleet_size(), 8);
        assert_eq!(c.cohorts[0], vec![NetworkId(0), NetworkId(1)]);
        assert_eq!(c.cohorts.len(), 4, "canary + 3 waves");
    }

    #[test]
    fn clean_reports_walk_canary_to_done() {
        let mut c = FleetCampaign::staged(4, 1, 1);
        let first = c.step(&[]);
        assert_eq!(
            first,
            vec![CampaignAction::Activate {
                networks: vec![NetworkId(0)],
                stage: "canary"
            }]
        );
        assert_eq!(c.phase(), CampaignPhase::Canary);
        // Canary not done yet: nothing happens.
        assert!(c.step(&[report(0, false, false)]).is_empty());
        // Canary done: the single wave (networks 1..4) goes out.
        let second = c.step(&[report(0, true, false)]);
        assert!(matches!(
            &second[..],
            [CampaignAction::Activate { networks, stage: "wave" }] if networks.len() == 3
        ));
        // Everyone done: campaign completes.
        let all: Vec<NetworkReport> = (0..4).map(|n| report(n, true, false)).collect();
        assert_eq!(c.step(&all), vec![CampaignAction::Done]);
        assert_eq!(c.phase(), CampaignPhase::Done);
        assert!(c.step(&all).is_empty(), "a finished campaign stays quiet");
    }

    #[test]
    fn poisoned_canary_halts_before_the_first_wave() {
        let mut c = FleetCampaign::staged(8, 1, 2);
        c.step(&[]);
        let out = c.step(&[report(0, false, true)]);
        assert_eq!(out, vec![CampaignAction::Halt { activated: 1 }]);
        assert_eq!(c.phase(), CampaignPhase::Halted);
        assert_eq!(c.activated().len(), 1, "blast radius is the canary alone");
        assert!(
            c.step(&[report(0, true, false)]).is_empty(),
            "halt is final"
        );
    }

    #[test]
    fn missing_reports_pause_rather_than_advance() {
        let mut c = FleetCampaign::staged(4, 1, 1);
        c.step(&[]); // canary (network 0) active
                     // Network 0 partitioned: no report. The campaign must not move.
        assert!(c.step(&[report(1, true, false)]).is_empty());
        assert_eq!(c.phase(), CampaignPhase::Canary);
    }

    #[test]
    fn flat_activates_everything_at_once() {
        let mut c = FleetCampaign::flat(5);
        let out = c.step(&[]);
        assert!(matches!(
            &out[..],
            [CampaignAction::Activate { networks, stage: "canary" }] if networks.len() == 5
        ));
    }

    #[test]
    fn cohorts_are_normalized_like_rollout_plans() {
        let c = FleetCampaign::new(vec![
            vec![],
            vec![NetworkId(1), NetworkId(1)],
            vec![NetworkId(1)],
        ]);
        assert_eq!(c.fleet_size(), 1);
        assert_eq!(c.cohorts, vec![vec![NetworkId(1)]]);
    }
}
