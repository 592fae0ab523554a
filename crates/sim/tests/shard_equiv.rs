//! Equivalence properties of the sharded engine.
//!
//! `shards = k` is its own deterministic model (see the shard module
//! docs): the guarantees tested here are
//!
//! 1. the serial and threaded window drivers are byte-identical for
//!    every `k`, topology and seed — thread count never changes results;
//! 2. when no radio cluster straddles a shard border, `shards = k`
//!    reproduces the serial kernel (`shards = 1`) exactly — schedules,
//!    RNG streams, stats and the structured-event trace.

use iiot_sim::obs::{Event, EventKind, Recorder};
use iiot_sim::prelude::*;
use proptest::prelude::*;

/// A recorder that keeps every event for byte comparison.
#[derive(Debug, Default)]
struct VecRec(Vec<Event>);

impl Recorder for VecRec {
    fn record(&mut self, ev: &Event) {
        self.0.push(*ev);
    }
}

/// Periodically broadcasts and counts what it hears — enough traffic to
/// exercise transmissions, receptions, CCA and collisions.
struct Chatter {
    period_ms: u64,
    heard: u64,
}

impl Chatter {
    fn boxed(i: usize) -> Box<dyn Proto> {
        Box::new(Chatter {
            period_ms: 40 + (i as u64 * 7) % 23,
            heard: 0,
        })
    }
}

impl Proto for Chatter {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.radio_on().expect("radio");
        ctx.record("period_ms", self.period_ms as f64);
        ctx.set_timer(SimDuration::from_millis(1 + self.period_ms / 2), 0);
    }
    fn timer(&mut self, ctx: &mut Ctx<'_>, _t: Timer) {
        ctx.count("chirps", 1.0);
        ctx.transmit(Dst::Broadcast, 0, vec![0xA5; 12]).ok();
        ctx.set_timer(SimDuration::from_millis(self.period_ms), 0);
    }
    fn frame(&mut self, ctx: &mut Ctx<'_>, _frame: &Frame, _info: RxInfo) {
        self.heard += 1;
        ctx.count_node("heard", 1.0);
    }
}

/// Runs `topo` for `secs` with the given shard config and returns a
/// fingerprint: (trace, stats debug, medium stats debug, events, end time).
fn fingerprint(
    topo: &Topology,
    seed: u64,
    secs: u64,
    shard: ShardConfig,
) -> (Vec<Event>, String, String, u64, SimTime) {
    let mut sim = SimBuilder::new()
        .seed(seed)
        .nodes(topo.clone(), Chatter::boxed)
        .sharding(shard)
        .recorder(Box::new(VecRec::default()))
        .build();
    sim.run(SimDuration::from_secs(secs));
    let stats = format!("{:?}", sim.stats());
    let medium = format!("{:?}", sim.medium_stats());
    let events = sim.events_dispatched();
    let now = sim.now();
    let trace = sim.recorder_as::<VecRec>().expect("VecRec").0.clone();
    (trace, stats, medium, events, now)
}

fn assert_same(
    a: &(Vec<Event>, String, String, u64, SimTime),
    b: &(Vec<Event>, String, String, u64, SimTime),
    what: &str,
) {
    assert_eq!(a.4, b.4, "{what}: end times differ");
    assert_eq!(a.3, b.3, "{what}: events dispatched differ");
    assert_eq!(a.1, b.1, "{what}: stats differ");
    assert_eq!(a.2, b.2, "{what}: medium stats differ");
    assert_eq!(a.0.len(), b.0.len(), "{what}: trace lengths differ");
    for (i, (x, y)) in a.0.iter().zip(&b.0).enumerate() {
        assert_eq!(x, y, "{what}: trace diverges at event {i}");
    }
}

/// Like [`assert_same`] but tolerant of same-timestamp interleaving:
/// the serial kernel orders simultaneous events by global queue
/// insertion, the shard merge by shard — for independent clusters the
/// event *sets* per timestamp must still match exactly.
fn assert_same_modulo_ties(
    a: &(Vec<Event>, String, String, u64, SimTime),
    b: &(Vec<Event>, String, String, u64, SimTime),
    what: &str,
) {
    assert_eq!(a.4, b.4, "{what}: end times differ");
    assert_eq!(a.3, b.3, "{what}: events dispatched differ");
    assert_eq!(a.1, b.1, "{what}: stats differ");
    assert_eq!(a.2, b.2, "{what}: medium stats differ");
    let canon = |tr: &[Event]| {
        let mut v: Vec<(SimTime, String)> = tr.iter().map(|e| (e.t, format!("{e:?}"))).collect();
        v.sort();
        v
    };
    assert_eq!(canon(&a.0), canon(&b.0), "{what}: trace contents differ");
}

/// A 3-node line whose middle link crosses the stripe border: border
/// traffic must still be delivered under sharding.
#[test]
fn cross_border_traffic_is_delivered() {
    let topo = Topology::line(3, 20.0);
    let mut sim = SimBuilder::new()
        .seed(7)
        .nodes(topo, Chatter::boxed)
        .sharding(ShardConfig::serial(2))
        .build();
    sim.run(SimDuration::from_secs(2));
    assert_eq!(sim.shards(), 2);
    let stats = sim.medium_stats();
    assert!(stats.delivered > 0, "no frames delivered: {stats:?}");
    // Every node heard someone — including across the border.
    for n in 0..3 {
        assert!(
            sim.proto::<Chatter>(NodeId(n)).heard > 0,
            "node {n} heard nothing"
        );
    }
}

/// Serial and threaded drivers must be byte-identical on a fixed
/// border-heavy topology for several shard counts.
#[test]
fn serial_and_threaded_drivers_agree() {
    let topo = Topology::grid(4, 4, 18.0);
    for &k in &[2usize, 3, 4] {
        let s = fingerprint(&topo, 0xC0FFEE, 2, ShardConfig::serial(k));
        let t = fingerprint(&topo, 0xC0FFEE, 2, ShardConfig::threaded(k));
        assert_same(&s, &t, &format!("k={k}"));
    }
}

/// The merged `Stats` of an E5-shaped run (a grid, every node
/// chattering) on two shards, against the `{:?}` text of the commit
/// whose keys were still `String`s (minus its deleted `histograms`
/// field): `&'static str` keys must order, sum and append identically.
#[test]
fn sharded_stats_merge_matches_the_string_keyed_golden() {
    let topo = Topology::grid(6, 6, 18.0);
    let (_, stats, ..) = fingerprint(&topo, 5, 2, ShardConfig::serial(2));
    assert_eq!(
        stats,
        include_str!("golden/stats_grid6_shards2.txt").trim_end()
    );
}

/// Two radio clusters far outside each other's range, split by the
/// stripe border: sharding cannot change anything, so `shards = 2`
/// must reproduce the serial kernel byte for byte.
#[test]
fn isolated_clusters_match_serial_kernel() {
    let mut pos = Vec::new();
    for i in 0..5 {
        pos.push(Pos::new(i as f64 * 15.0, (i % 2) as f64 * 10.0));
    }
    for i in 0..5 {
        pos.push(Pos::new(10_000.0 + i as f64 * 15.0, (i % 3) as f64 * 10.0));
    }
    let topo: Topology = pos.into_iter().collect();
    let one = fingerprint(&topo, 99, 2, ShardConfig::default());
    let two_s = fingerprint(&topo, 99, 2, ShardConfig::serial(2));
    let two_t = fingerprint(&topo, 99, 2, ShardConfig::threaded(2));
    assert_same_modulo_ties(&one, &two_s, "serial 2-shard vs serial kernel");
    assert_same(&two_s, &two_t, "threaded vs serial 2-shard");
}

/// Co-located nodes (zero-width bounding box → index-chunk partition,
/// full audibility masks): serial and threaded drivers still agree.
#[test]
fn co_located_nodes_agree_across_drivers() {
    let topo: Topology = (0..6).map(|_| Pos::new(5.0, 5.0)).collect();
    let s = fingerprint(&topo, 1234, 1, ShardConfig::serial(2));
    let t = fingerprint(&topo, 1234, 1, ShardConfig::threaded(2));
    assert_same(&s, &t, "co-located");
}

/// `Sim::with` on a node owned by shard 1 runs in that replica and
/// exchanges before it returns: with nothing else queued anywhere, the
/// frame it sends still reaches the listener owned by shard 0.
#[test]
fn with_on_another_shards_node_is_exchanged_before_it_returns() {
    #[derive(Default)]
    struct Listener(Vec<NodeId>);
    impl Proto for Listener {
        fn start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.radio_on().expect("radio");
        }
        fn frame(&mut self, _ctx: &mut Ctx<'_>, frame: &Frame, _info: RxInfo) {
            self.0.push(frame.src);
        }
    }
    // x = 0 | 20, 40: node 0 alone in shard 0.
    let mut sim = SimBuilder::new()
        .nodes(Topology::line(3, 20.0), |_| Box::<Listener>::default())
        .sharding(ShardConfig::serial(2))
        .build();
    sim.run(SimDuration::from_millis(10));
    sim.with(NodeId(1), |_: &mut Listener, ctx| {
        ctx.transmit(Dst::Broadcast, 0, vec![7]).expect("tx");
    });
    sim.run(SimDuration::from_millis(10));
    assert_eq!(sim.proto::<Listener>(NodeId(0)).0, [NodeId(1)]);
    assert_eq!(sim.proto::<Listener>(NodeId(2)).0, [NodeId(1)]);
}

/// A border transmitter's records are adopted, in the neighbour's
/// replica, into a cell from which no node that replica owns ever
/// transmits. They must retire like any others (one filing-order queue
/// per medium, whatever cell a record is filed under): the listener's
/// collision checks would otherwise walk every echo since the start of
/// the run, and `air_visits` would grow with simulated time.
#[test]
fn echoes_into_a_cell_no_owned_node_transmits_from_are_retired() {
    struct Ear(u64);
    impl Proto for Ear {
        fn start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.radio_on().expect("radio");
        }
        fn frame(&mut self, _ctx: &mut Ctx<'_>, _frame: &Frame, _info: RxInfo) {
            self.0 += 1;
        }
    }
    // x = 0, 390 | 410, 800. The stripe border at x = 400 separates the
    // ear from the only node in its range, and the 45 m grid puts the
    // two in different cells; the outer chatterers hear nobody.
    let topo: Topology = [0.0, 390.0, 410.0, 800.0]
        .iter()
        .map(|&x| Pos::new(x, 0.0))
        .collect();
    let mut sim = SimBuilder::new()
        .seed(3)
        .nodes(topo, |i| match i {
            1 => Box::new(Ear(0)),
            _ => Chatter::boxed(i),
        })
        .sharding(ShardConfig::serial(2))
        .build();
    let visits_during = |sim: &mut Sim, secs: u64| {
        let before = sim.air_visits();
        sim.run(SimDuration::from_secs(secs));
        sim.air_visits() - before
    };
    visits_during(&mut sim, 1);
    let early = visits_during(&mut sim, 2);
    visits_during(&mut sim, 20);
    let late = visits_during(&mut sim, 2);
    let heard = sim.proto::<Ear>(NodeId(1)).0;
    assert!(
        heard > 400,
        "the ear heard {heard} frames across the border"
    );
    assert!(
        early > 0 && late <= early + early / 10,
        "records examined per 2 s: {early} early, {late} after 23 s"
    );
}

/// A running sim grows through `Sim::add_nodes` on either kernel: the
/// newcomers (one inside the build-time bounding box, one beyond it,
/// across the stripe border from each other's neighbours) join the
/// radio network and thread count still changes nothing.
#[test]
fn nodes_added_at_runtime_join_on_either_kernel() {
    let run = |shard: ShardConfig| {
        let mut sim = SimBuilder::new()
            .seed(21)
            .nodes(Topology::line(4, 20.0), Chatter::boxed)
            .sharding(shard)
            .recorder(Box::new(VecRec::default()))
            .build();
        sim.run(SimDuration::from_millis(300));
        let extra: Topology = [Pos::new(30.0, 10.0), Pos::new(80.0, 0.0)]
            .into_iter()
            .collect();
        let added = sim.add_nodes(extra, |i| Chatter::boxed(4 + i));
        assert_eq!(added, [NodeId(4), NodeId(5)]);
        assert_eq!(sim.node_count(), 6);
        sim.run(SimDuration::from_millis(700));
        sim
    };
    for &k in &[1usize, 2] {
        let sim = run(ShardConfig::serial(k));
        for n in 0..6 {
            assert!(
                sim.proto::<Chatter>(NodeId(n)).heard > 0,
                "k={k}: node {n} heard nothing"
            );
        }
        let threaded = run(ShardConfig::threaded(k));
        assert_eq!(threaded.events_dispatched(), sim.events_dispatched());
        assert_eq!(
            threaded.recorder_as::<VecRec>().expect("VecRec").0,
            sim.recorder_as::<VecRec>().expect("VecRec").0,
            "k={k}: thread count changed the trace"
        );
    }
}

/// Engine fault injection shows up in the trace like the serial
/// kernel's (kill/revive emit events; cross-shard mirrors stay silent).
#[test]
fn sharded_fault_injection_emits_once() {
    let topo = Topology::line(4, 20.0);
    let mut sim = SimBuilder::new()
        .seed(11)
        .nodes(topo, Chatter::boxed)
        .sharding(ShardConfig::serial(2))
        .recorder(Box::new(VecRec::default()))
        .build();
    sim.run(SimDuration::from_millis(100));
    sim.kill_at(SimTime::from_millis(150), NodeId(3));
    sim.revive_at(SimTime::from_millis(400), NodeId(3));
    sim.run_until(SimTime::from_millis(600));
    let trace = &sim.recorder_as::<VecRec>().expect("VecRec").0.clone();
    let crashes = trace
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Fault { kind: "crash", .. }) && e.node == NodeId(3))
        .count();
    let revives = trace
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                EventKind::Fault {
                    kind: "recover",
                    ..
                }
            ) && e.node == NodeId(3)
        })
        .count();
    assert_eq!(crashes, 1, "exactly one crash event");
    assert_eq!(revives, 1, "exactly one revive event");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random scatters (border-straddling by construction: positions
    /// are uniform over the box, so stripes cut through clusters):
    /// serial ≡ threaded for random shard counts and seeds.
    #[test]
    fn prop_drivers_agree_on_random_topologies(
        seed in any::<u64>(),
        n in 4usize..16,
        k in 2usize..5,
        w in 40.0f64..160.0,
        xs in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 16),
    ) {
        let topo: Topology = xs[..n]
            .iter()
            .map(|&(fx, fy)| Pos::new(fx * w, fy * 60.0))
            .collect();
        let s = fingerprint(&topo, seed, 1, ShardConfig::serial(k));
        let t = fingerprint(&topo, seed, 1, ShardConfig::threaded(k));
        assert_same(&s, &t, &format!("seed={seed} n={n} k={k}"));
    }

    /// Duplicated (co-located) positions included: drivers still agree.
    #[test]
    fn prop_drivers_agree_with_colocated_nodes(
        seed in any::<u64>(),
        n in 4usize..10,
        k in 2usize..4,
    ) {
        // Pairs of nodes share positions on a short line.
        let topo: Topology = (0..n)
            .map(|i| Pos::new(((i / 2) as f64) * 22.0, 0.0))
            .collect();
        let s = fingerprint(&topo, seed, 1, ShardConfig::serial(k));
        let t = fingerprint(&topo, seed, 1, ShardConfig::threaded(k));
        assert_same(&s, &t, &format!("seed={seed} n={n} k={k}"));
    }

    /// Widely separated clusters: `shards=2` ≡ `shards=1` exactly.
    #[test]
    fn prop_isolated_clusters_match_single(
        seed in any::<u64>(),
        a in 2usize..6,
        b in 2usize..6,
    ) {
        let mut pos = Vec::new();
        for i in 0..a {
            pos.push(Pos::new(i as f64 * 14.0, i as f64 * 3.0));
        }
        for i in 0..b {
            pos.push(Pos::new(50_000.0 + i as f64 * 14.0, i as f64 * 5.0));
        }
        let topo: Topology = pos.into_iter().collect();
        let one = fingerprint(&topo, seed, 1, ShardConfig::default());
        let two = fingerprint(&topo, seed, 1, ShardConfig::serial(2));
        assert_same_modulo_ties(&one, &two, &format!("seed={seed} a={a} b={b}"));
    }
}
