//! `RunConfig::table`, the one path from trials to a table: rows in
//! submission order whatever the worker count, replication intact, and
//! one trace section per call.
//!
//! One `#[test]` in its own binary: the section counter is
//! process-global, so no other runner call may interleave with it.

use iiot_bench::table::Table;
use iiot_bench::{Cell, RunConfig, Runner, Trial};
use iiot_sim::obs;

/// Trial `i` yields two rows when `i` is even and one when it is odd,
/// each tagged with its trial and row index.
fn table(jobs: usize, trials: u32) -> Table {
    let rc = RunConfig {
        runner: Runner::new(jobs),
        trials,
    };
    rc.table(
        "T",
        &["trial", "row", "seed"],
        (0..7u64).map(|i| {
            Trial::new(format!("t{i}"), 100 + i, move |seed| {
                (0..2 - i % 2)
                    .map(|r| {
                        vec![
                            Cell::label(format!("t{i}")),
                            Cell::label(format!("r{r}")),
                            Cell::f1((seed % 1000) as f64),
                        ]
                    })
                    .collect()
            })
        }),
    )
}

#[test]
fn rows_in_submission_order_jobs_invariant_replicated_one_section() {
    let t = table(1, 1);
    let tags: Vec<String> = t
        .rows()
        .iter()
        .map(|r| format!("{}/{}", r[0], r[1]))
        .collect();
    assert_eq!(
        tags,
        [
            "t0/r0", "t0/r1", "t1/r0", "t2/r0", "t2/r1", "t3/r0", "t4/r0", "t4/r1", "t5/r0",
            "t6/r0", "t6/r1"
        ]
    );
    // Replica 0 runs on the trial's base seed.
    assert_eq!(t.rows()[0][2], "100.0");
    assert_eq!(t, table(4, 1), "--jobs must not change the table");

    let replicated = table(1, 3);
    assert_eq!(replicated, table(4, 3));
    for row in replicated.rows() {
        assert!(row[2].contains(" (p95 "), "value cells aggregate: {row:?}");
        assert!(!row[0].contains("p95"), "label cells pass through: {row:?}");
    }

    let before = obs::begin_section();
    table(2, 1);
    assert_eq!(
        obs::begin_section(),
        before + 2,
        "one section per table call"
    );
}
