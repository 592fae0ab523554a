//! Shape regression tests: the qualitative claims EXPERIMENTS.md makes
//! about each table — who wins, which way curves bend, where crossovers
//! fall — asserted programmatically so a protocol regression cannot
//! silently invert a paper claim. Only the fast experiments run here;
//! the slow sweeps (E2, E4) are covered by their substrates' own tests,
//! and E13 runs reduced axes of the same sweeps.

use iiot_bench::{
    exp_cloud, exp_depend, exp_dissem, exp_fleet, exp_interop, exp_scale, exp_stream, exp_sync,
    RunConfig,
};
use iiot_cloud::IngestConfig;
use iiot_fleet::FleetConfig;
use iiot_routing::graph::{depth_rings, grid_parents};

fn cell(t: &iiot_bench::table::Table, row: usize, col: usize) -> f64 {
    t.rows[row][col]
        .trim_end_matches('%')
        .trim_start_matches('+')
        .parse()
        .unwrap_or_else(|_| panic!("cell ({row},{col}) = {:?} not numeric", t.rows[row][col]))
}

#[test]
fn e3_shape_aggregation_flattens_the_funnel() {
    let t = exp_scale::e3_funneling(&RunConfig::default());
    // Raw messages decrease with distance from the root (funnel),
    // aggregate messages are flat.
    let raw_n1 = cell(&t, 0, 1);
    let raw_n7 = cell(&t, 6, 1);
    assert!(raw_n1 >= 6.0 * raw_n7, "funnel: {raw_n1} vs {raw_n7}");
    for r in 0..t.rows.len() {
        assert_eq!(cell(&t, r, 2), cell(&t, 0, 2), "aggregate load is flat");
    }
    // Radio-TX time tells the same story.
    assert!(cell(&t, 0, 3) > 4.0 * cell(&t, 0, 4));
}

/// E3 is pure arithmetic, so it has an exact oracle: on the line of 8
/// over 8 epochs, node i relays one raw message per epoch for itself
/// and each of the 7 − i nodes behind it, 8·(8 − i) in all, while
/// aggregation sends one per epoch; in the ablation n1 sends one
/// aggregate per epoch run.
#[test]
fn e3_oracle_message_counts_are_exact() {
    let t = exp_scale::e3_funneling(&RunConfig::default());
    assert_eq!(t.rows.len(), 7);
    for (r, row) in t.rows.iter().enumerate() {
        let i = r + 1;
        assert_eq!(row[0], format!("n{i} ({i})"));
        assert_eq!(cell(&t, r, 1), (8 * (8 - i)) as f64, "raw msgs at n{i}");
        assert_eq!(cell(&t, r, 2), 8.0, "agg msgs at n{i}");
    }
    let t = exp_scale::e3_epoch_ablation(&RunConfig::default());
    for (r, epochs) in [12.0, 6.0, 3.0].into_iter().enumerate() {
        assert_eq!(cell(&t, r, 1), epochs, "60 s / epoch");
        assert_eq!(cell(&t, r, 2), epochs, "n1 sends once per epoch");
    }
}

#[test]
fn e3_shape_epoch_is_the_load_knob() {
    let t = exp_scale::e3_epoch_ablation(&RunConfig::default());
    // Longer epochs, fewer root-adjacent messages.
    assert!(cell(&t, 0, 2) > cell(&t, 1, 2));
    assert!(cell(&t, 1, 2) > cell(&t, 2, 2));
}

#[test]
fn e7_shape_cap_trade() {
    let t = exp_depend::e7_partition(&RunConfig::default());
    // Rows alternate Ap/Cp for growing partition lengths.
    for pair in t.rows.chunks(2) {
        let (ap, cp) = (&pair[0], &pair[1]);
        let ap_avail: f64 = ap[2].trim_end_matches('%').parse().expect("num");
        let cp_avail: f64 = cp[2].trim_end_matches('%').parse().expect("num");
        assert_eq!(ap_avail, 100.0, "AP is always available");
        assert!(cp_avail <= ap_avail);
        assert_ne!(ap[5], "never", "AP converges after heal");
        assert_ne!(cp[5], "never", "CP converges after heal");
    }
    // CP availability strictly falls with partition length.
    let cp_avails: Vec<f64> = t
        .rows
        .iter()
        .filter(|r| r[1] == "Cp")
        .map(|r| r[2].trim_end_matches('%').parse().expect("num"))
        .collect();
    assert!(cp_avails.windows(2).all(|w| w[1] <= w[0]));
    assert!(cp_avails.last() < cp_avails.first());
}

#[test]
fn e7_shape_delta_scaling() {
    let t = exp_depend::e7_delta_ablation();
    // Delta cost is constant; full-state cost grows with replicas.
    for r in 0..t.rows.len() {
        assert_eq!(cell(&t, r, 2), 18.0);
    }
    assert!(cell(&t, 3, 1) > 50.0 * cell(&t, 0, 2));
}

#[test]
fn e8_shape_redundancy_crossovers() {
    let t = exp_depend::e8_redundancy(&RunConfig::default());
    for r in 0..t.rows.len() {
        // Monte Carlo within 3 points of the analytic model, per scheme.
        assert!(
            (cell(&t, r, 2) - cell(&t, r, 3)).abs() < 3.0,
            "parity row {r}"
        );
        assert!(
            (cell(&t, r, 4) - cell(&t, r, 5)).abs() < 3.0,
            "retry row {r}"
        );
        assert!(
            (cell(&t, r, 6) - cell(&t, r, 7)).abs() < 3.0,
            "vote row {r}"
        );
        // Time redundancy dominates everything at every loss level.
        assert!(cell(&t, r, 4) >= cell(&t, r, 1));
    }
    // Parity beats no-protection at low loss and loses at high loss
    // (the §V-A "information redundancy is limited" crossover).
    assert!(cell(&t, 0, 2) > cell(&t, 0, 1), "parity wins at p=0.05");
    let last = t.rows.len() - 1;
    assert!(
        cell(&t, last, 2) < cell(&t, last, 1),
        "parity loses at p=0.5"
    );
}

#[test]
fn e9_shape_pareto_frontier() {
    let t = exp_depend::e9_safety_hvac();
    for w in (0..t.rows.len()).collect::<Vec<_>>().windows(2) {
        let (a, b) = (w[0], w[1]);
        assert!(
            cell(&t, b, 1) < cell(&t, a, 1),
            "wider setback saves energy"
        );
        assert!(
            cell(&t, b, 2) >= cell(&t, a, 2),
            "savings cost (non-negative) comfort"
        );
        assert_eq!(cell(&t, a, 3), 0.0, "hard limits never violated");
    }
}

#[test]
fn e10_shape_monotone_cost_ladder() {
    let t = exp_interop::e10_security_overhead();
    let col_monotone_within = |col: usize, groups: &[&[usize]]| {
        for g in groups {
            for w in g.windows(2) {
                assert!(
                    cell(&t, w[1], col) >= cell(&t, w[0], col),
                    "col {col}: row {} -> {}",
                    w[0],
                    w[1]
                );
            }
        }
    };
    // Rows: None, Mic32, Mic64, Mic128, Enc, EncMic32, EncMic64, EncMic128.
    // Bytes/airtime/energy grow within the MIC ladder and the ENC ladder.
    for col in [1usize, 2, 3, 5] {
        col_monotone_within(col, &[&[0, 1, 2, 3], &[4, 5, 6, 7]]);
    }
    // Goodput falls within each ladder.
    for g in [&[0usize, 1, 2, 3][..], &[4, 5, 6, 7][..]] {
        for w in g.windows(2) {
            assert!(cell(&t, w[1], 6) <= cell(&t, w[0], 6));
        }
    }
    // Encryption adds cost over the matching MIC-only level.
    assert!(cell(&t, 5, 3) > cell(&t, 1, 3));
    assert!(cell(&t, 7, 3) > cell(&t, 3, 3));
}

/// E10's "extra bytes" and "airtime +us" columns against the 802.15.4
/// security tables: a secured frame adds the auxiliary security header
/// — security control and frame counter, 5 octets at key-identifier
/// mode 0 — and a MIC of 0, 4, 8 or 16 octets, each octet 32 µs at
/// 250 kbit/s. Every secured row sits exactly one octet (32 µs) below
/// that: this wire format spends a level byte on unsecured frames too,
/// where 802.15.4 spends a bit of the frame-control field, so securing
/// a frame adds only the other four header octets (DESIGN §6
/// finding 9).
#[test]
fn e10_oracle_overhead_follows_the_802_15_4_security_tables() {
    const AUX_HEADER: f64 = 5.0;
    const LEVEL_BYTE: f64 = 1.0;
    const US_PER_OCTET: f64 = 8.0 * 1e6 / 250_000.0;
    let t = exp_interop::e10_security_overhead();
    // Each level's MIC in octets; `None` sends no auxiliary header.
    let levels = [
        ("None", None),
        ("Mic32", Some(4.0)),
        ("Mic64", Some(8.0)),
        ("Mic128", Some(16.0)),
        ("Enc", Some(0.0)),
        ("EncMic32", Some(4.0)),
        ("EncMic64", Some(8.0)),
        ("EncMic128", Some(16.0)),
    ];
    assert_eq!(t.rows.len(), levels.len());
    for (row, (level, mic)) in levels.into_iter().enumerate() {
        assert_eq!(t.rows[row][0], level);
        let predicted = mic.map_or(0.0, |mic| AUX_HEADER + mic);
        let offset = mic.map_or(0.0, |_| LEVEL_BYTE);
        let extra = predicted - offset;
        assert_eq!(cell(&t, row, 1), extra, "{level}: extra bytes");
        assert_eq!(cell(&t, row, 2), extra * US_PER_OCTET, "{level}: airtime");
    }
}

#[test]
fn e12_shape_integration_fidelity() {
    let t = exp_interop::e12_interop();
    assert_eq!(t.rows[0][1], "3/3", "every protocol translates exactly");
    let throughput: f64 = t.rows[1][1].parse().expect("num");
    assert!(throughput > 10_000.0, "bridge throughput {throughput}/s");
    assert_eq!(t.rows[3][1], "2.05 Content");
}

#[test]
fn e13_shape_unsynced_collapses_ftsp_holds() {
    // Reduced drift sweep: free-running TDMA collapses under drift,
    // the FTSP arm stays near the perfect-clock baseline and pays a
    // visible beacon duty tax (the three-regime claim of §IV-B).
    let t = exp_sync::e13_drift_sweep(&RunConfig::default(), &[0, 300], 90);
    // Rows: (0, unsynced), (0, ftsp), (300, unsynced), (300, ftsp).
    // The tail of the run leaves a frame or two in flight, so the
    // ideal-clock baseline sits just under 100%.
    let base = cell(&t, 0, 2);
    assert!(base > 95.0, "ideal clocks deliver everything: {base}");
    let unsynced = cell(&t, 2, 2);
    assert!(
        unsynced < base / 2.0,
        "free-running clocks must collapse: {unsynced} vs {base}"
    );
    let ftsp = cell(&t, 3, 2);
    assert!(
        ftsp > base - 5.0,
        "FTSP must hold near the baseline: {ftsp} vs {base}"
    );
    assert!(cell(&t, 3, 4) > 0.0, "the synced arm sends beacons");
    assert!(
        cell(&t, 3, 5) > cell(&t, 2, 5),
        "sync costs duty cycle over free-running"
    );
}

#[test]
fn e13_shape_sync_error_grows_with_hops() {
    let t = exp_sync::e13_sync_error(&RunConfig::default(), 6, 120);
    // Depth mirrors hop distance on a one-hop-per-link line.
    for r in 0..t.rows.len() {
        assert_eq!(cell(&t, r, 1), (r + 1) as f64, "depth == hops");
        assert!(cell(&t, r, 2) < 1000.0, "hop {} out of sync", r + 1);
    }
    let first = cell(&t, 0, 2);
    let last = cell(&t, t.rows.len() - 1, 2);
    assert!(last > first, "error accumulates per hop: {first} -> {last}");
}

#[test]
fn e13_shape_guard_buys_back_delivery() {
    // Weakened sync + no guard loses frames; a generous guard absorbs
    // the residual error.
    let t = exp_sync::e13_guard_ablation(&RunConfig::default(), &[0, 2000], 90);
    assert!(
        cell(&t, 1, 1) > cell(&t, 0, 1) + 20.0,
        "guard must buy delivery: {} -> {}",
        cell(&t, 0, 1),
        cell(&t, 1, 1)
    );
    assert!(
        cell(&t, 1, 3) > cell(&t, 0, 3),
        "a wider guard costs listen duty"
    );
}

#[test]
fn e11_shape_diagnosis_finds_the_victim() {
    let t = exp_depend::e11_diagnosis();
    assert_eq!(t.rows.len(), 1, "exactly one non-healthy finding");
    assert_eq!(t.rows[0][0], "n7");
}

#[test]
fn e14_shape_dissemination_covers_everyone() {
    let t = exp_dissem::e14_completion(&RunConfig::default(), &[3], 900);
    // Rows: csma, lpl, tdma on a 3x3 grid; every arm reaches the
    // whole fleet within the cap.
    assert_eq!(t.rows.len(), 3);
    for r in 0..t.rows.len() {
        assert_eq!(cell(&t, r, 3), 100.0, "coverage in row {r}");
        assert!(cell(&t, r, 5) > 0.0, "no chunks moved in row {r}");
    }
    // An always-on CSMA radio completes fastest; LPL trades latency
    // for idle energy.
    assert!(cell(&t, 0, 2) < cell(&t, 1, 2), "csma beats lpl on latency");
}

#[test]
fn e14_shape_flash_resume_beats_reimage() {
    let t = exp_dissem::e14_resume(&RunConfig::default(), 3, 4800, 3, 300);
    // Row 0 resumes from flash, row 1 was wiped. The crash bites
    // mid-download (pages kept > 0 only in the resume arm) and the
    // resumed victim finishes strictly earlier.
    assert!(cell(&t, 0, 1) > 0.0, "crash must land mid-download");
    assert_eq!(cell(&t, 1, 1), 0.0, "a wiped node keeps nothing");
    assert!(
        cell(&t, 0, 2) < cell(&t, 1, 2),
        "resume must beat restart: {} vs {}",
        cell(&t, 0, 2),
        cell(&t, 1, 2)
    );
    assert_eq!(cell(&t, 0, 4), 100.0);
    assert_eq!(cell(&t, 1, 4), 100.0);
}

#[test]
fn e16_shape_underload_is_lossless_and_fair() {
    // Well under drain capacity nothing sheds, every message is
    // admitted, tenants are served near-perfectly evenly and the p99
    // queue latency stays within a few drain ticks.
    let t = exp_cloud::e16_ingest(&RunConfig::default(), &[50, 200]);
    for r in 0..t.rows.len() {
        assert_eq!(cell(&t, r, 3), 100.0, "row {r} must accept everything");
        assert_eq!(cell(&t, r, 4), 0.0, "row {r} must shed nothing");
        assert!(cell(&t, r, 6) <= 50.0, "row {r} p99 within a few ticks");
        assert!(cell(&t, r, 7) > 0.99, "row {r} fairness near 1");
    }
}

#[test]
fn e16_shape_isolation_bounds_the_quiet_tenants_p99() {
    // The tenancy contract: under per-tenant queues a noisy neighbor —
    // even at 64x the quiet rate — cannot push a quiet tenant's p99
    // past one full queue drain (cap/batch + 1 ticks = 50 ms), and
    // quiet tenants never shed. The shared-queue arm has the same
    // aggregate capacity, so any damage it shows is the coupling's
    // doing, not a capacity difference.
    let t = exp_cloud::e16_fairness(&RunConfig::default(), &[1, 16, 64], 200);
    // Rows alternate per-tenant / shared per multiplier.
    for r in 0..t.rows.len() {
        if t.rows[r][1] == "per-tenant" {
            assert!(
                cell(&t, r, 2) <= 50.0,
                "quiet p99 bound broken under isolation: {:?}",
                t.rows[r]
            );
            assert_eq!(
                cell(&t, r, 3),
                0.0,
                "quiet tenants shed nothing under isolation"
            );
        }
    }
    let last_iso = t.rows.len() - 2;
    let last_shared = t.rows.len() - 1;
    // Shared FIFO "equalizes" service ratios by degrading every tenant
    // together, so its Jain index never drops below the isolated arm's
    // (which concentrates loss on the offender). The quiet-tenant
    // columns, not this one, carry the isolation story.
    assert!(
        cell(&t, last_shared, 5) >= cell(&t, last_iso, 5),
        "shared FIFO must not have a lower service-ratio Jain index at 64x"
    );
}

#[test]
fn e16_shape_overload_crosses_saturation() {
    // Both shed policies barely shed at rho = 0.5 and shed hard at
    // rho = 2.0, and the bounded queue never overflows its cap.
    let t = exp_cloud::e16_overload(&RunConfig::default(), &[0.5, 2.0], 250);
    for r in 0..2 {
        assert!(cell(&t, r, 3) < 1.0, "sub-saturation row {r} barely sheds");
    }
    for r in 2..4 {
        assert!(cell(&t, r, 3) > 20.0, "2x overload row {r} must shed hard");
        assert!(cell(&t, r, 6) <= 1024.0, "queue cap exceeded in row {r}");
    }
}

/// E16c's reject-new rows have a finite-horizon fluid oracle, derived
/// from the trial's own configuration. Per tenant, `N` sessions of `M`
/// messages report every `I` plus a uniform jitter of mean `J/2`, so
/// once the first reports are in they arrive at `N / (I + J/2)`, and a
/// tenant's queue drains `μ = drain_batch / TICK`. When that plateau
/// overloads the queue, the queue fills its `B = queue_cap` buffer and
/// stays backlogged until the last pass ends, at `T = I + (M − 1)(I +
/// J/2)`: `μT + B` of the `MN` offered are accepted and the rest shed.
/// A plateau below `μ` sheds nothing. The naive `1 − 1/ρ` (50 % and
/// 16.7 % at ρ = 2.0 and 1.2) forgets both the jitter that stretches the
/// interval and the finite horizon the buffer is drained after.
///
/// The fluid model smooths the first pass, which arrives at `N / I`,
/// faster than the plateau, and the 10 ms drain ticks; one percentage
/// point covers both.
#[test]
fn e16c_oracle_reject_new_shed_follows_the_finite_horizon_fluid_model() {
    const TOLERANCE: f64 = 0.01;
    // E16c's full-scale axis (`iiot_bench::all_experiments`).
    let (rhos, devices) = ([0.5, 0.9, 1.2, 2.0], 2_500);
    let t = exp_cloud::e16_overload(&RunConfig::default(), &rhos, devices);
    let config = IngestConfig::default();
    let cap = exp_stream::capacity_per_sec(&config, exp_stream::TENANTS as u64);
    let mu = cap / f64::from(exp_stream::TENANTS);
    for (i, &rho) in rhos.iter().enumerate() {
        let plan = exp_cloud::overload_plan(rho, devices, cap);
        let (n, m) = (f64::from(devices), f64::from(plan.msgs_per_device));
        let interval = plan.interval.as_micros() as f64 / 1e6;
        let gap = interval + plan.jitter.as_micros() as f64 / 2e6;
        let horizon = interval + (m - 1.0) * gap;
        let expected = if n / gap > mu {
            1.0 - (mu * horizon + config.queue_cap as f64) / (m * n)
        } else {
            0.0
        };
        let row = 2 * i;
        assert_eq!(t.rows[row][1], "reject-new");
        let measured = cell(&t, row, 3) / 100.0;
        assert!(
            (measured - expected).abs() <= TOLERANCE,
            "rho {rho}: shed {measured:.3}, oracle {expected:.3}, naive {:.3}",
            (1.0 - 1.0 / rho).max(0.0)
        );
    }
}

#[test]
fn e14_shape_canary_contains_the_blast() {
    let t = exp_dissem::e14_rollout(&RunConfig::default(), 3, 300);
    // Row 0 staged, row 1 flat: the canary cohort absorbs the poisoned
    // build, the flat rollout spreads it fleet-wide.
    assert!(
        cell(&t, 0, 1) < cell(&t, 1, 1),
        "staged blast {} must undercut flat {}",
        cell(&t, 0, 1),
        cell(&t, 1, 1)
    );
    assert_eq!(t.rows[0][3], "halted at canary");
    assert_eq!(t.rows[1][3], "fleet-wide");
}

/// E14c's and E17a's blast radius, exactly, on the `--quick` and the
/// full axes of `all_experiments`. A staged rollout halts at its canary:
/// it poisons the first depth ring of the grid's parent tree in one
/// network. A flat one poisons every wireless node of every network it
/// activates, which is all of them. Tolerance zero: a row that misses
/// is a finding, not a bound to loosen.
#[test]
fn e14c_e17a_oracle_blast_radius_is_exact() {
    let rc = RunConfig::default();
    let first_ring = |side: usize| depth_rings(&grid_parents(side, side))[0].len() as f64;
    assert_eq!(first_ring(4), 2.0, "a corner gateway has two neighbours");
    for (side, cap_s) in [(4, 300), (7, 600)] {
        let t = exp_dissem::e14_rollout(&rc, side, cap_s);
        let (staged, flat) = (cell(&t, 0, 1), cell(&t, 1, 1));
        assert_eq!(staged, first_ring(side), "E14c staged at {side}x{side}");
        assert_eq!(flat, (side * side - 1) as f64, "E14c flat at {side}x{side}");
    }
    let side = FleetConfig::default().side;
    let t = exp_fleet::e17_blast(&rc, &[4, 16, 32]);
    for (i, networks) in [4.0, 16.0, 32.0].into_iter().enumerate() {
        // Columns: networks, rollout, nets activated, poisoned nodes.
        let row = |r: usize| [0, 2, 3].map(|c| cell(&t, r, c));
        let fleet = networks * (side * side - 1) as f64;
        assert_eq!(row(2 * i), [networks, 1.0, first_ring(side)], "E17a staged");
        assert_eq!(row(2 * i + 1), [networks, networks, fleet], "E17a flat");
    }
}

/// E2-ablation's duty cycle against a two-term model built from each
/// trial's own configuration and its owned counters, averaged like the
/// table over the six non-root nodes and the 360 s run:
///
/// * idle sampling: one `SAMPLE` per wake interval `W`;
/// * strobing: each `dio_tx` broadcast strobes a full interval (plus the
///   four-sample margin), each `data_origin` and `data_fwd` unicast
///   about half of one, until the receiver wakes and acknowledges.
///
/// It holds within half a percentage point at 128 and 256 ms and
/// underpredicts 512 and 1024 ms (DESIGN §6 finding 7). Over two thirds
/// of both misses is failed unicasts: each `mac_tx_fail` strobed
/// `1 + max_retries` full intervals, not half of one.
#[test]
fn e2a_oracle_duty_cycle_is_sampling_plus_strobing() {
    use iiot_mac::lpl::{LplConfig, SAMPLE};
    use iiot_sim::NodeId;
    const TOLERANCE: f64 = 0.005;
    // Wake interval, the pinned duty cycle, whether the model holds.
    let rows = [
        (128, "6.1%", true),
        (256, "5.1%", true),
        (512, "10.6%", false),
        (1024, "32.8%", false),
    ];
    let sample = SAMPLE.as_secs_f64();
    let strobes = 1.0 + f64::from(LplConfig::default().max_retries);
    for (wake_ms, pinned, holds) in rows {
        let d = exp_scale::e2_wake_run(wake_ms, exp_scale::E2A_SEED);
        let measured = d.report().mean_duty_cycle;
        assert_eq!(
            format!("{:.1}%", measured * 100.0),
            pinned,
            "the table's row"
        );
        let stats = d.sim.stats();
        let non_root = |counter: &str| -> f64 {
            let values = stats.node_values(counter).into_iter();
            values
                .filter(|&(n, _)| n != NodeId(0))
                .map(|(_, v)| v)
                .sum()
        };
        let node_seconds = 6.0 * 360.0;
        let w = wake_ms as f64 / 1e3;
        let broadcast = w + 4.0 * sample;
        let idle = sample / w;
        let strobing = (non_root("dio_tx") * broadcast
            + (non_root("data_origin") + non_root("data_fwd")) * w / 2.0)
            / node_seconds;
        let miss = measured - (idle + strobing);
        if holds {
            assert!(miss.abs() <= TOLERANCE, "{wake_ms} ms: missed by {miss:.4}");
        } else {
            let failed = non_root("mac_tx_fail") * strobes * broadcast / node_seconds;
            assert!(
                miss > TOLERANCE,
                "{wake_ms} ms: the model now holds ({miss:.4})"
            );
            assert!(
                failed > miss * 2.0 / 3.0,
                "{wake_ms} ms: {failed:.4} of {miss:.4}"
            );
            assert!(failed < miss, "{wake_ms} ms: failed strobes overexplain");
        }
    }
}

/// E5's direct-to-sink arm has an oracle in the PRR curve: every node
/// unicasts straight to the corner sink, so delivery is the mean PRR
/// over the sink's distances to the other n − 1 nodes. Under the
/// default 30 m unit disk on the 20 m grid that is the 3 nodes the sink
/// hears, 3/(n − 1): 37.5 % and 12.5 % on the 3×3 and 5×5 rows, which
/// the pinned rows match within half a point.
#[test]
fn e5_oracle_direct_delivery_is_the_sinks_mean_prr() {
    use iiot_sim::{RadioConfig, Topology};
    const TOLERANCE: f64 = 0.5;
    let t = exp_scale::e5_size_scaling(&RunConfig::default(), &[3, 5], 400);
    let radio = RadioConfig::default();
    for (r, (side, pinned)) in [(3, "37.4%"), (5, "12.4%")].into_iter().enumerate() {
        assert_eq!(t.rows[r][4], pinned, "the table's row");
        let grid = Topology::grid(side, side, 20.0);
        let sink = grid.pos(0);
        let heard: f64 = (1..grid.len())
            .map(|i| {
                let d = sink.distance(grid.pos(i));
                radio.rssi_at(d).map_or(0.0, |rssi| radio.prr(d, rssi))
            })
            .sum();
        assert_eq!(heard, 3.0, "the corner sink hears its 3 grid neighbours");
        let model = 100.0 * heard / (grid.len() - 1) as f64;
        let measured = cell(&t, r, 4);
        assert!(
            (measured - model).abs() <= TOLERANCE,
            "{side}x{side}: {measured}% against {model:.1}%"
        );
    }
}
