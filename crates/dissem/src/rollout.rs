//! Staged rollout: activating download cohorts one wave at a time,
//! with a fleet-wide halt the moment any node quarantines the image.
//!
//! The controller models the *backend* side of reprogramming: it is
//! driven from outside the radio network (scheduled kernel actions, the
//! way a management plane acts over the backbone), not as an in-network
//! protocol. Cohorts must respect the radio topology — a disabled node
//! holds no pages and therefore cannot relay the image past itself —
//! so waves are normally ordered by distance from the gateway.

use crate::node::DissemNode;
use iiot_mac::Mac;
use iiot_sim::obs::EventKind;
use iiot_sim::world::World;
use iiot_sim::{NodeId, Sim, SimDuration, SimTime};

/// A staged-rollout schedule: cohorts are enabled in order, each wave
/// gated on the previous one completing cleanly.
#[derive(Clone, Debug)]
pub struct RolloutPlan {
    /// Activation waves, first is the canary. Nodes not listed anywhere
    /// never download (they keep running the old image).
    pub cohorts: Vec<Vec<NodeId>>,
    /// How often the controller re-examines the fleet.
    pub check_period: SimDuration,
}

impl RolloutPlan {
    /// A plan over `cohorts` checked every `check_period`.
    ///
    /// The cohorts are **normalized**: a node listed more than once
    /// keeps only its *first* occurrence (activating an already-active
    /// node is a no-op, but a duplicate in a later wave would silently
    /// misreport that wave's size — and the blast radius on a halt),
    /// and cohorts left empty (as given, or by deduplication) are
    /// dropped (an empty wave would complete instantly and collapse
    /// two waves into one). Fleet-level composition (`iiot-fleet`)
    /// relies on this: plans assembled from overlapping per-network
    /// ring sets stay well-formed.
    pub fn new(cohorts: Vec<Vec<NodeId>>, check_period: SimDuration) -> Self {
        let mut seen = std::collections::BTreeSet::new();
        let cohorts: Vec<Vec<NodeId>> = cohorts
            .into_iter()
            .map(|c| c.into_iter().filter(|&n| seen.insert(n)).collect())
            .filter(|c: &Vec<NodeId>| !c.is_empty())
            .collect();
        RolloutPlan {
            cohorts,
            check_period,
        }
    }

    /// A single-wave ("flat") plan: everyone at once, no canary.
    /// Normalized like [`RolloutPlan::new`].
    pub fn flat(nodes: Vec<NodeId>, check_period: SimDuration) -> Self {
        RolloutPlan::new(vec![nodes], check_period)
    }
}

struct RolloutState {
    plan: RolloutPlan,
    gateway: NodeId,
    /// Index of the next cohort to activate.
    next: usize,
    /// Everything activated so far.
    active: Vec<NodeId>,
}

/// Installs the rollout controller into `sim`, starting at `at`.
/// The gateway (which already holds the image) is the observer the
/// controller's stage events are attributed to. The controller runs as
/// an action queued through [`Sim::schedule_at`] and re-queues itself
/// every check period until the rollout is done or halted.
///
/// Stages emitted: `canary` on the first wave, `wave` on each further
/// one, `done` when every cohort completed, `halted` (with the number
/// of activated nodes as the cohort payload — the blast radius) when
/// any activated node quarantines the image.
pub fn drive<M: Mac>(sim: &mut Sim, gateway: NodeId, plan: RolloutPlan, at: SimTime) {
    let st = RolloutState {
        plan,
        gateway,
        next: 0,
        active: Vec::new(),
    };
    sim.schedule_at(at, move |w| step::<M>(w, st));
}

fn step<M: Mac>(w: &mut World, mut st: RolloutState) {
    // Halt check: any activated node that finalized a bad image stops
    // the rollout fleet-wide. The blast radius is everything activated.
    let blast = st
        .active
        .iter()
        .filter(|&&n| w.is_alive(n) && w.proto::<DissemNode<M>>(n).poisoned())
        .count();
    if blast > 0 {
        emit_stage::<M>(w, st.gateway, "halted", st.active.len() as u32);
        return;
    }
    let wave_done = st
        .active
        .iter()
        .all(|&n| !w.is_alive(n) || w.proto::<DissemNode<M>>(n).complete_ok());
    if wave_done {
        if st.next >= st.plan.cohorts.len() {
            emit_stage::<M>(w, st.gateway, "done", st.next as u32);
            return;
        }
        let cohort = st.plan.cohorts[st.next].clone();
        let stage = if st.next == 0 { "canary" } else { "wave" };
        emit_stage::<M>(w, st.gateway, stage, st.next as u32);
        for &n in &cohort {
            if w.is_alive(n) {
                w.with(n, |node: &mut DissemNode<M>, ctx| node.enable(ctx));
            }
        }
        st.active.extend(cohort);
        st.next += 1;
    }
    let again = w.now() + st.plan.check_period;
    w.schedule(again, move |w| step::<M>(w, st));
}

/// Records a rollout stage, attributed to the gateway.
fn emit_stage<M: Mac>(w: &mut World, gateway: NodeId, stage: &'static str, cohort: u32) {
    w.with(gateway, |_: &mut DissemNode<M>, ctx| {
        ctx.emit(EventKind::RolloutStage { stage, cohort });
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn empty_cohorts_are_dropped() {
        let p = RolloutPlan::new(
            vec![vec![], vec![n(1), n(2)], vec![], vec![n(3)]],
            SimDuration::from_secs(1),
        );
        assert_eq!(p.cohorts, vec![vec![n(1), n(2)], vec![n(3)]]);
        let flat = RolloutPlan::flat(vec![], SimDuration::from_secs(1));
        assert!(flat.cohorts.is_empty(), "an all-empty plan has no waves");
    }

    #[test]
    fn duplicate_ids_keep_their_first_occurrence() {
        // Within a cohort and across cohorts: first listing wins, and a
        // cohort emptied by deduplication vanishes entirely.
        let p = RolloutPlan::new(
            vec![vec![n(1), n(2), n(1)], vec![n(2), n(3)], vec![n(3), n(1)]],
            SimDuration::from_secs(1),
        );
        assert_eq!(p.cohorts, vec![vec![n(1), n(2)], vec![n(3)]]);
        let total: usize = p.cohorts.iter().map(Vec::len).sum();
        assert_eq!(total, 3, "every node appears exactly once");
    }
}
