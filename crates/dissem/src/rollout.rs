//! Staged rollout: activating cohorts one wave at a time, with a halt
//! the moment any activated member quarantines the image.
//!
//! [`Rollout`] is the one staged-rollout controller. It needs no
//! simulation and is generic over the member id, so the same rules
//! sequence nodes within a network ([`drive`]) and networks within a
//! fleet (`iiot-fleet`'s harness): the canary cohort first, the next
//! cohort once every activated member is done, and a halt on any
//! activated member's poisoned verdict, with the activated set as the
//! blast radius.
//!
//! [`drive`] models the *backend* side of reprogramming: it is driven
//! from outside the radio network (scheduled kernel actions, the way a
//! management plane acts over the backbone), not as an in-network
//! protocol. Cohorts must respect the radio topology — a disabled node
//! holds no pages and therefore cannot relay the image past itself —
//! so waves are normally ordered by distance from the gateway
//! ([`grid_cohorts`]).

use crate::node::DissemNode;
use iiot_mac::Mac;
use iiot_routing::graph::{depth_rings, grid_parents};
use iiot_sim::obs::EventKind;
use iiot_sim::world::World;
use iiot_sim::{NodeId, Sim, SimDuration, SimTime};

/// How often [`drive`] re-examines the network.
pub const CHECK_PERIOD: SimDuration = SimDuration::from_secs(10);

/// What one [`Rollout::step`] decided.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Transition<K> {
    /// Cohort `index` activates.
    Activate {
        /// `"canary"` for the first cohort, `"wave"` after.
        stage: &'static str,
        /// The cohort's position, 0 for the canary.
        index: u32,
        /// The members to activate, in cohort order.
        cohort: Vec<K>,
    },
    /// Every cohort completed cleanly.
    Done {
        /// How many cohorts there were.
        cohorts: u32,
    },
    /// An activated member quarantined the image; nothing further
    /// activates.
    Halted {
        /// Members activated before the halt — the blast radius.
        activated: u32,
    },
}

/// The staged-rollout controller; see the [module docs](self).
#[derive(Clone, Debug)]
pub struct Rollout<K> {
    cohorts: Vec<Vec<K>>,
    /// Index of the next cohort to activate.
    next: usize,
    /// Everything activated so far, in activation order.
    active: Vec<K>,
    /// Done or halted: no further step does anything.
    over: bool,
}

impl<K: Ord + Copy> Rollout<K> {
    /// A rollout over `cohorts`, the first being the canary. Members
    /// listed nowhere are never activated.
    ///
    /// The cohorts are **normalized**: a member listed more than once
    /// keeps only its *first* occurrence (a duplicate in a later wave
    /// would misreport that wave's size — and the blast radius on a
    /// halt), and cohorts left empty (as given, or by deduplication)
    /// are dropped (an empty wave would complete instantly and collapse
    /// two waves into one).
    pub fn new(cohorts: Vec<Vec<K>>) -> Self {
        let mut seen = std::collections::BTreeSet::new();
        let cohorts = cohorts
            .into_iter()
            .map(|c| c.into_iter().filter(|&k| seen.insert(k)).collect())
            .filter(|c: &Vec<K>| !c.is_empty())
            .collect();
        Rollout {
            cohorts,
            next: 0,
            active: Vec::new(),
            over: false,
        }
    }

    /// The normalized cohorts.
    pub fn cohorts(&self) -> &[Vec<K>] {
        &self.cohorts
    }

    /// Members activated so far, in activation order.
    pub fn activated(&self) -> &[K] {
        &self.active
    }

    /// Advances the controller one check. `status` reports each
    /// *activated* member's `(done, poisoned)`.
    ///
    /// Halting dominates: a poisoned verdict from any activated member
    /// stops the rollout before the next cohort can start. Otherwise
    /// the next cohort activates once every activated member is done,
    /// and the rollout is done once the last cohort is. A member that
    /// is neither (say, one that has gone silent) pauses the rollout:
    /// it never advances it or halts it.
    pub fn step(&mut self, mut status: impl FnMut(K) -> (bool, bool)) -> Option<Transition<K>> {
        if self.over {
            return None;
        }
        let (mut done, mut poisoned) = (true, false);
        for &k in &self.active {
            let (d, p) = status(k);
            done &= d;
            poisoned |= p;
        }
        if poisoned {
            self.over = true;
            return Some(Transition::Halted {
                activated: self.active.len() as u32,
            });
        }
        if !done {
            return None;
        }
        let Some(cohort) = self.cohorts.get(self.next).cloned() else {
            self.over = true;
            return Some(Transition::Done {
                cohorts: self.next as u32,
            });
        };
        let index = self.next as u32;
        self.next += 1;
        self.active.extend(&cohort);
        Some(Transition::Activate {
            stage: if index == 0 { "canary" } else { "wave" },
            index,
            cohort,
        })
    }
}

/// The cohorts of a rollout over a `side x side` grid whose gateway is
/// node 0: staged, the depth rings of [`grid_parents`] (disabled nodes
/// relay nothing, so waves grow outward from the gateway); flat, every
/// node but the gateway at once.
pub fn grid_cohorts(side: usize, staged: bool) -> Vec<Vec<NodeId>> {
    if staged {
        depth_rings(&grid_parents(side, side))
    } else {
        vec![(1..(side * side) as u32).map(NodeId).collect()]
    }
}

/// Installs a [`Rollout`] over `cohorts` into `sim`, starting at `at`.
/// The gateway (which already holds the image) is the observer the
/// controller's stage events are attributed to. The controller runs as
/// an action queued through [`Sim::schedule_at`] and re-queues itself
/// every [`CHECK_PERIOD`] until the rollout is done or halted. A dead
/// member counts as done and not poisoned, and only a cohort's alive
/// members are enabled.
///
/// Stages emitted: `canary` on the first wave, `wave` on each further
/// one (each with the cohort index as payload), `done` when every
/// cohort completed (with the cohort count), `halted` (with the number
/// of activated nodes — the blast radius) when any activated node
/// quarantines the image.
pub fn drive<M: Mac>(sim: &mut Sim, gateway: NodeId, cohorts: Vec<Vec<NodeId>>, at: SimTime) {
    let rollout = Rollout::new(cohorts);
    sim.schedule_at(at, move |w| step::<M>(w, gateway, rollout));
}

fn step<M: Mac>(w: &mut World, gateway: NodeId, mut rollout: Rollout<NodeId>) {
    let transition = rollout.step(|n| {
        if !w.is_alive(n) {
            return (true, false);
        }
        let node = w.proto::<DissemNode<M>>(n);
        (node.complete_ok(), node.poisoned())
    });
    match transition {
        Some(Transition::Halted { activated }) => {
            return emit_stage::<M>(w, gateway, "halted", activated);
        }
        Some(Transition::Done { cohorts }) => return emit_stage::<M>(w, gateway, "done", cohorts),
        Some(Transition::Activate {
            stage,
            index,
            cohort,
        }) => {
            emit_stage::<M>(w, gateway, stage, index);
            for n in cohort {
                if w.is_alive(n) {
                    w.with(n, |node: &mut DissemNode<M>, ctx| node.enable(ctx));
                }
            }
        }
        None => {}
    }
    let again = w.now() + CHECK_PERIOD;
    w.schedule(again, move |w| step::<M>(w, gateway, rollout));
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
    use std::collections::BTreeMap;

    /// A status closure over `(member, done, poisoned)` reports; a
    /// member without one is silent: not done, not poisoned.
    fn reports(r: &[(u32, bool, bool)]) -> impl FnMut(u32) -> (bool, bool) {
        let by: BTreeMap<u32, (bool, bool)> = r.iter().map(|&(k, d, p)| (k, (d, p))).collect();
        move |k| by.get(&k).copied().unwrap_or((false, false))
    }

    #[test]
    fn empty_cohorts_are_dropped() {
        let r = Rollout::<u32>::new(vec![vec![], vec![1, 2], vec![], vec![3]]);
        assert_eq!(r.cohorts(), [vec![1, 2], vec![3]]);
        let flat = Rollout::<u32>::new(vec![vec![]]);
        assert!(flat.cohorts().is_empty(), "an all-empty plan has no waves");
    }

    #[test]
    fn duplicate_ids_keep_their_first_occurrence() {
        // Within a cohort and across cohorts: first listing wins, and a
        // cohort emptied by deduplication vanishes entirely.
        let r = Rollout::<u32>::new(vec![vec![1, 2, 1], vec![2, 3], vec![3, 1]]);
        assert_eq!(r.cohorts(), [vec![1, 2], vec![3]]);
        let total: usize = r.cohorts().iter().map(Vec::len).sum();
        assert_eq!(total, 3, "every member appears exactly once");
    }

    #[test]
    fn empty_and_repeated_cohorts_collapse_to_one() {
        let r = Rollout::<u32>::new(vec![vec![], vec![1, 1], vec![1]]);
        assert_eq!(
            r.cohorts(),
            [vec![1]],
            "a repeated member leaves one cohort"
        );
        let total: usize = r.cohorts().iter().map(Vec::len).sum();
        assert_eq!(total, 1, "the fleet is one member");
    }

    #[test]
    fn clean_reports_walk_canary_to_done() {
        let mut r = Rollout::new(vec![vec![0], vec![1, 2, 3]]);
        let first = r.step(reports(&[]));
        assert_eq!(
            first,
            Some(Transition::Activate {
                stage: "canary",
                index: 0,
                cohort: vec![0]
            })
        );
        // Canary not done yet: nothing happens.
        assert_eq!(r.step(reports(&[(0, false, false)])), None);
        // Canary done: the single wave (members 1..4) goes out.
        let second = r.step(reports(&[(0, true, false)]));
        assert!(matches!(
            second,
            Some(Transition::Activate { stage: "wave", index: 1, cohort }) if cohort.len() == 3
        ));
        // Everyone done: the rollout completes.
        let all: Vec<(u32, bool, bool)> = (0..4).map(|k| (k, true, false)).collect();
        assert_eq!(r.step(reports(&all)), Some(Transition::Done { cohorts: 2 }));
        assert_eq!(
            r.step(reports(&all)),
            None,
            "a finished rollout stays quiet"
        );
    }

    #[test]
    fn poisoned_canary_halts_before_the_first_wave() {
        let mut r = Rollout::new(vec![vec![0], vec![1, 2, 3], vec![4, 5, 6, 7]]);
        r.step(reports(&[]));
        let out = r.step(reports(&[(0, false, true)]));
        assert_eq!(out, Some(Transition::Halted { activated: 1 }));
        assert_eq!(r.activated(), [0], "blast radius is the canary alone");
        assert_eq!(r.step(reports(&[(0, true, false)])), None, "halt is final");
    }

    #[test]
    fn missing_reports_pause_rather_than_advance() {
        let mut r = Rollout::new(vec![vec![0], vec![1, 2, 3]]);
        r.step(reports(&[])); // canary (member 0) active
                              // Member 0 silent (a partitioned backhaul): the rollout must not move.
        assert_eq!(r.step(reports(&[(1, true, false)])), None);
        assert_eq!(r.activated(), [0]);
    }

    #[test]
    fn flat_activates_everything_at_once() {
        let mut r = Rollout::new(vec![(0..5).collect()]);
        assert!(matches!(
            r.step(reports(&[])),
            Some(Transition::Activate { stage: "canary", index: 0, cohort }) if cohort.len() == 5
        ));
    }
}
