//! Public-API edge cases of the dependability toolkit.

use iiot_dependability::redundancy::{vote, Vote};
use iiot_dependability::{simulate_replicas, Design, PartitionWindow};

#[test]
fn single_reading_is_its_own_majority() {
    assert!(matches!(vote(&[Some(21.0)], 0.5), Vote::Agreed(v) if v == 21.0));
}

#[test]
fn two_way_tie_is_no_majority() {
    assert_eq!(vote(&[Some(10.0), Some(20.0)], 0.5), Vote::NoMajority);
}

#[test]
#[should_panic(expected = "groups must cover replicas")]
fn replica_sim_validates_group_width() {
    let windows = vec![PartitionWindow {
        start: 0,
        end: 5,
        groups: vec![0, 1], // only 2 groups for 3 replicas
    }];
    let _ = simulate_replicas(Design::Ap, 3, 10, &windows, 2);
}

#[test]
fn cp_majority_side_still_writes() {
    // 4 replicas split 3|1: the majority side keeps accepting.
    let windows = vec![PartitionWindow {
        start: 0,
        end: 10,
        groups: vec![0, 0, 0, 1],
    }];
    let r = simulate_replicas(Design::Cp, 4, 10, &windows, 2);
    assert_eq!(r.rejected, 10, "only the singleton side is refused");
    assert!((r.availability() - 0.75).abs() < 1e-9);
}
