//! Public-API edge cases of the simulation kernel.

use iiot_sim::prelude::*;

#[test]
fn radio_config_serde_round_trip() {
    let cfg = RadioConfig {
        link: LinkModel::LogDistance {
            path_loss_exp: 3.2,
            ref_loss_db: 40.0,
            rssi50_dbm: -88.0,
            spread_db: 3.0,
        },
    };
    // A configured link model names itself in its `Debug` form.
    let tokens = serde_json_like(&cfg);
    assert!(tokens.contains("LogDistance"));
}

/// The `Debug` form of a cloneable value.
fn serde_json_like<T: Clone + std::fmt::Debug>(v: &T) -> String {
    format!("{v:?}")
}

#[test]
fn medium_stats_accumulate() {
    struct Chatter;
    impl Proto for Chatter {
        fn start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.radio_on().expect("on");
            if ctx.id() == NodeId(0) {
                ctx.set_timer(SimDuration::from_millis(50), 0);
            }
        }
        fn timer(&mut self, ctx: &mut Ctx<'_>, _t: Timer) {
            ctx.transmit(Dst::Unicast(NodeId(1)), 0, vec![1, 2, 3])
                .expect("tx");
            ctx.set_timer(SimDuration::from_millis(50), 0);
        }
    }
    let mut w = SimBuilder::new()
        .nodes(Topology::line(2, 10.0), |_| Box::new(Chatter))
        .build();
    w.run_for(SimDuration::from_secs(1));
    let s = w.medium_stats();
    assert!(s.tx_started >= 19);
    // The final transmission may still be in the air at the horizon.
    assert!(
        s.delivered >= s.tx_started - 1,
        "clean channel delivers all"
    );
    assert_eq!(s.lost_collision, 0);
}

#[test]
#[should_panic(
    expected = "n0's protocol is not a edge::with_on_the_wrong_type_panics_naming_it::Other"
)]
fn with_on_the_wrong_type_panics_naming_it() {
    struct Other;
    impl Proto for Other {
        fn start(&mut self, _ctx: &mut Ctx<'_>) {}
    }
    let mut w = SimBuilder::new()
        .nodes(Topology::line(1, 10.0), |_| Box::new(Idle))
        .build();
    w.with(NodeId(0), |_: &mut Other, _ctx| ());
}

#[test]
fn kill_then_revive_is_idempotent() {
    let mut w = SimBuilder::new()
        .nodes(Topology::line(1, 10.0), |_| Box::new(Idle))
        .build();
    let n = NodeId(0);
    w.kill(n);
    w.kill(n); // no-op
    assert!(!w.is_alive(n));
    w.revive(n);
    w.revive(n); // no-op
    w.run_for(SimDuration::from_millis(10));
    assert!(w.is_alive(n));
}

#[test]
fn lossy_disk_drops_roughly_at_rate() {
    struct Sender;
    impl Proto for Sender {
        fn start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.radio_on().expect("on");
            if ctx.id() == NodeId(0) {
                ctx.set_timer(SimDuration::from_millis(10), 0);
            }
        }
        fn timer(&mut self, ctx: &mut Ctx<'_>, _t: Timer) {
            ctx.transmit(Dst::Broadcast, 0, vec![0; 10]).expect("tx");
            ctx.set_timer(SimDuration::from_millis(10), 0);
        }
    }
    let mut w = SimBuilder::new()
        .seed(99)
        .link(LinkModel::LossyDisk {
            range_m: 30.0,
            interference_range_m: 45.0,
            prr: 0.7,
        })
        .nodes(Topology::line(2, 10.0), |_| Box::new(Sender))
        .build();
    w.run_for(SimDuration::from_secs(20));
    let s = w.medium_stats();
    let rate = s.delivered as f64 / s.tx_started as f64;
    assert!((rate - 0.7).abs() < 0.05, "measured PRR {rate}");
    assert!(s.lost_prr > 0);
}

/// Nodes added to a running sim boot, hear and are heard like those it
/// was built with: one inside the build-time extent, and one beyond it
/// in a grid cell no node occupied, so the spatial index grows under a
/// run whose neighbour lists are already built.
#[test]
fn nodes_added_at_runtime_join_the_radio_network() {
    /// Broadcasts every 50 ms, staggered by id, and logs whom it heard.
    #[derive(Default)]
    struct Chatter(Vec<NodeId>);
    impl Proto for Chatter {
        fn start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.radio_on().expect("on");
            ctx.set_timer(SimDuration::from_millis(1 + 7 * ctx.id().0 as u64), 0);
        }
        fn timer(&mut self, ctx: &mut Ctx<'_>, _t: Timer) {
            ctx.transmit(Dst::Broadcast, 0, vec![0xA5; 12]).expect("tx");
            ctx.set_timer(SimDuration::from_millis(50), 0);
        }
        fn frame(&mut self, _ctx: &mut Ctx<'_>, frame: &Frame, _info: RxInfo) {
            self.0.push(frame.src);
        }
    }
    let mut sim = SimBuilder::new()
        .nodes(Topology::line(4, 20.0), |_| Box::<Chatter>::default())
        .build();
    sim.run(SimDuration::from_millis(300));
    // The line spans x = 0..60, cells [0, 45) and [45, 90) of the 45 m
    // grid: x = 30 joins the first, x = -20 opens a third.
    let extra: Topology = [Pos::new(30.0, 10.0), Pos::new(-20.0, 0.0)]
        .into_iter()
        .collect();
    let added = sim.add_nodes(extra, |_| Box::<Chatter>::default());
    assert_eq!(added, [NodeId(4), NodeId(5)]);
    assert_eq!(sim.node_count(), 6);
    sim.run(SimDuration::from_millis(700));
    let heard = |at: u32, from: u32| {
        let log = &sim.proto::<Chatter>(NodeId(at)).0;
        log.contains(&NodeId(from))
    };
    for (a, b) in [(4, 1), (4, 2), (5, 0)] {
        assert!(heard(a, b) && heard(b, a), "nodes {a} and {b}");
    }
    assert!(!heard(5, 1), "node 5 is 40 m from node 1");
}

/// A deadline in the past is a no-op: the clock never runs backwards,
/// so the energy meters never book a negative interval and a timer set
/// afterwards counts from the real `now`.
#[test]
fn run_until_a_past_deadline_leaves_the_clock_alone() {
    /// Logs when each of its timers fires.
    #[derive(Default)]
    struct Fires(Vec<SimTime>);
    impl Proto for Fires {
        fn start(&mut self, _ctx: &mut Ctx<'_>) {}
        fn timer(&mut self, ctx: &mut Ctx<'_>, _t: Timer) {
            self.0.push(ctx.now());
        }
    }
    let mut sim = SimBuilder::new()
        .nodes(Topology::line(1, 10.0), |_| Box::<Fires>::default())
        .build();
    sim.run(SimDuration::from_secs(5));
    sim.run_until(SimTime::from_secs(2));
    assert_eq!(sim.now(), SimTime::from_secs(5));
    sim.with(NodeId(0), |_: &mut Fires, ctx| {
        ctx.radio_on().expect("radio");
        ctx.set_timer(SimDuration::from_secs(1), 0);
    });
    sim.run(SimDuration::from_secs(2));
    assert_eq!(sim.proto::<Fires>(NodeId(0)).0, [SimTime::from_secs(6)]);
    assert_eq!(sim.energy(NodeId(0)).sleep, SimDuration::from_secs(5));
}
