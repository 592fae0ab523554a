//! End-to-end trace capture through the Runner: the global `obs` sink
//! must produce byte-identical JSONL regardless of the worker count,
//! and a dump must round-trip losslessly through `parse_jsonl`.
//!
//! These tests live in their own file (hence their own test binary):
//! the trace sink is process-global state, and everything here runs in
//! one `#[test]` so no parallel test can interleave with it.

use iiot_bench::report::summarize;
use iiot_bench::{Cell, MetricRows, Runner, Trial};
use iiot_sim::obs;
use iiot_sim::prelude::*;
use iiot_sim::{Fault, FaultPlan};

/// A small but eventful simulation: three CSMA-less nodes ping-ponging
/// broadcast beacons with a mid-run crash, so the trace contains
/// tx/rx, drop and fault events.
struct Beacon {
    sent: u32,
}

impl Proto for Beacon {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.radio_on().expect("radio");
        ctx.set_timer(SimDuration::from_millis(50), 0);
    }
    fn timer(&mut self, ctx: &mut Ctx<'_>, _t: Timer) {
        let _ = ctx.transmit(Dst::Broadcast, 1, vec![self.sent as u8]);
        self.sent += 1;
        if self.sent < 10 {
            ctx.set_timer(SimDuration::from_millis(100), 0);
        }
    }
}

fn trial(seed: u64) -> MetricRows {
    let mut w = SimBuilder::new()
        .seed(seed)
        .nodes(Topology::line(3, 10.0), |_| Box::new(Beacon { sent: 0 }))
        .build();
    FaultPlan::new()
        .push(Fault::Crash {
            node: NodeId(2),
            at: SimTime::from_millis(400),
        })
        .apply(&mut w)
        .expect("fault plan fits the sim");
    w.run_for(SimDuration::from_secs(2));
    vec![vec![Cell::int(f64::from(
        w.proto::<Beacon>(NodeId(0)).sent,
    ))]]
}

fn trials() -> Vec<Trial> {
    (0..4)
        .map(|i| Trial::new(format!("trace-t{i}"), 40 + i, trial))
        .collect()
}

/// Runs the batch under tracing and returns the captured traces with
/// the section number normalized (the global section counter advances
/// between runs in this process).
fn capture(jobs: usize) -> Vec<obs::ScopeTrace> {
    obs::enable_tracing();
    let out = Runner::new(jobs).run(trials(), 2);
    assert_eq!(out.len(), 4);
    let mut traces = obs::drain_traces();
    obs::disable_tracing();
    for t in &mut traces {
        t.section = 0;
    }
    traces
}

#[test]
fn jsonl_is_identical_across_jobs_and_round_trips() {
    let a = obs::traces_to_jsonl(&capture(1));
    let b = obs::traces_to_jsonl(&capture(3));
    assert!(
        !a.is_empty() && a.lines().count() > 8,
        "capture produced traces"
    );
    assert_eq!(a, b, "trace dump must not depend on the worker count");

    // Round trip: parse and re-serialize reproduces the dump exactly.
    let parsed = obs::parse_jsonl(&a).expect("parse own dump");
    assert_eq!(parsed.len(), 8, "4 trials x 2 replicas");
    assert_eq!(obs::traces_to_jsonl(&parsed), a, "lossless round trip");

    // And the report over the dump is stable under fixed seeds.
    let report = summarize(a.as_bytes()).expect("report");
    assert_eq!(report, summarize(b.as_bytes()).expect("report"));
    assert!(report.contains("== drop causes =="), "{report}");
    assert!(
        report.contains("fault: crash"),
        "kill_at shows in the timeline"
    );
}
