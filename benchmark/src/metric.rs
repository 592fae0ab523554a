//! Every metric the benchmark prints: name, unit, clock, direction and,
//! for the end-to-end ones, the regression bound. `../BENCHMARK.json`
//! repeats the names, units, directions and bounds for the driver;
//! `tests/contract.rs` holds the two lists equal. README.md has the
//! glossary and the table of which layer metric should move which
//! end-to-end metric on which workload.

/// Which clock a metric is read from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// Wall clock of the machine running the benchmark: noisy.
    Host,
    /// The simulation's virtual clock, or a count: a pure function of
    /// `(workload, seed)` that repeats bit for bit.
    Virtual,
}

/// One metric.
#[derive(Clone, Copy, Debug)]
pub struct Def {
    /// Name, as printed and as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
    /// The clock it is read from.
    pub clock: Clock,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    higher: bool,
    bound: f64,
    clock: Clock,
) -> Def {
    Def {
        name,
        unit,
        higher_is_better: higher,
        bound: Some(bound),
        clock,
    }
}

const fn host(name: &'static str, unit: &'static str, higher: bool) -> Def {
    Def {
        name,
        unit,
        higher_is_better: higher,
        bound: None,
        clock: Clock::Host,
    }
}

const fn virt(name: &'static str, unit: &'static str, higher: bool) -> Def {
    Def {
        name,
        unit,
        higher_is_better: higher,
        bound: None,
        clock: Clock::Virtual,
    }
}

/// End-to-end metrics, measured with tracing off. Every workload
/// reports every one of them and none is ever 0 (the driver divides by
/// their medians). The host-clock bounds are the widest the driver
/// allows: README.md, "Steadiness", has the spreads that forced them.
pub const END_TO_END: [Def; 4] = [
    e2e("realtime_factor", "sim_s/s", true, 0.25, Clock::Host),
    e2e("delivery_ratio", "ratio", true, 0.02, Clock::Virtual),
    e2e("peak_rss_mib", "MiB", false, 0.25, Clock::Host),
    e2e("setup_s", "s", false, 0.25, Clock::Host),
];

/// Per-layer metrics, measured in the traced pass. The prefix is the
/// crate the number belongs to; `e2e.` marks end-to-end quantities that
/// only some workloads have, which the driver's contract (every
/// end-to-end metric on every workload, never 0) keeps out of
/// [`END_TO_END`].
pub const PER_LAYER: [Def; 78] = [
    host("e2e.ingest_msgs_per_s", "msg/s", true),
    host("e2e.replay_msgs_per_s", "msg/s", true),
    virt("e2e.sample_to_cloud_p50_ms", "ms", false),
    virt("e2e.sample_to_cloud_p99_ms", "ms", false),
    virt("e2e.sample_to_cloud_n", "count", true),
    virt("e2e.ingest_queue_p99_ms", "ms", false),
    virt("e2e.duty_cycle_mean", "ratio", false),
    virt("sim.events", "count", false),
    host("sim.self_s", "s", false),
    host("sim.ctx_s", "s", false),
    host("sim.ns_per_event", "ns", false),
    virt("sim.allocs_per_event", "1/event", false),
    virt("sim.alloc_bytes_per_event", "B/event", false),
    virt("sim.tx_started", "count", false),
    virt("sim.rx_delivered", "count", true),
    virt("sim.rx_lost_collision", "count", false),
    virt("sim.rx_lost_prr", "count", false),
    virt("sim.rx_lost_radio_moved", "count", false),
    virt("sim.rx_filtered", "count", false),
    virt("sim.rx_useful_ratio", "ratio", true),
    host("sim.scale_cliff_x", "x", false),
    host("sim.shard_speedup_x", "x", true),
    host("sim.shard_threaded_x", "x", true),
    virt("sim.shard_event_inflation", "x", false),
    host("sim.shard_threads", "count", true),
    host("mac.incl_s", "s", false),
    virt("mac.calls", "count", false),
    virt("mac.tx_data", "count", false),
    virt("mac.tx_fail", "count", false),
    virt("mac.ack_timeout", "count", false),
    virt("mac.cca_fail", "count", false),
    virt("mac.duty_cycle_lpl", "ratio", false),
    virt("mac.duty_cycle_csma", "ratio", false),
    host("routing.self_s", "s", false),
    virt("routing.dio_tx", "count", false),
    virt("routing.parent_switch", "count", false),
    virt("routing.data_fwd", "count", false),
    virt("routing.data_drop", "count", false),
    virt("routing.data_dup", "count", false),
    virt("routing.collected", "count", true),
    host("gateway.poll_s", "s", false),
    virt("gateway.measurements", "count", true),
    host("gateway.uplink_drain_s", "s", false),
    virt("gateway.uplink_records", "count", true),
    host("coap.command_s", "s", false),
    virt("coap.commands_ok", "count", true),
    virt("coap.retransmissions", "count", false),
    host("cloud.offer_s", "s", false),
    host("cloud.drain_s", "s", false),
    host("cloud.self_ns_per_msg", "ns", false),
    virt("cloud.offered", "count", true),
    virt("cloud.accepted", "count", true),
    virt("cloud.shed_full", "count", false),
    virt("cloud.shed_ratelimit", "count", false),
    virt("cloud.shed_auth", "count", false),
    virt("cloud.max_queue_depth", "count", false),
    virt("cloud.allocs_per_msg", "1/msg", false),
    host("cloud.twin_report_s", "s", false),
    virt("cloud.twin_events", "count", true),
    host("stream.log_append_ns", "ns", false),
    virt("stream.log_bytes", "B", false),
    virt("stream.segments_sealed", "count", false),
    host("stream.admit_ns", "ns", false),
    host("stream.window_observe_ns", "ns", false),
    virt("stream.windows_closed", "count", false),
    virt("stream.obs_per_window", "1/window", true),
    virt("stream.late_dropped", "count", false),
    host("stream.recover_s", "s", false),
    host("stream.log_tax_x", "x", false),
    host("security.auth_ns", "ns", false),
    host("obs.overhead_x", "x", false),
    virt("obs.events_recorded", "count", false),
    host("trace.overhead_x", "x", false),
    host("trace.accounted_share", "ratio", true),
    host("trace.iterations", "count", true),
    host("trace.iter_s", "s", false),
    host("trace.untraced_iter_s", "s", false),
    host("trace.peak_rss_mib", "MiB", false),
];

/// The definition of metric `name`.
pub fn find(name: &str) -> Option<&'static Def> {
    END_TO_END.iter().chain(&PER_LAYER).find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_and_units_meet_the_contracts_syntax() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            (1..=16).contains(&s.len())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = BTreeSet::new();
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(ok_name(d.name), "{}", d.name);
            assert!(ok_unit(d.unit), "{} unit {}", d.name, d.unit);
            assert!(seen.insert(d.name), "{} listed twice", d.name);
        }
        for d in &END_TO_END {
            let b = d.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25);
        }
        let setup = find("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.higher_is_better), ("s", false));
        assert!(PER_LAYER.len() <= 128 && PER_LAYER.iter().all(|d| d.bound.is_none()));
    }
}
