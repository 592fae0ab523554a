//! Public-API edge cases across the MAC implementations.

use iiot_mac::coex::{ChannelPlan, TenantId};
use iiot_mac::csma::CsmaMac;
use iiot_mac::driver::MacDriver;
use iiot_mac::lpl::LplMac;
use iiot_mac::rimac::RimacMac;
use iiot_mac::tdma::{Slot, TdmaMac, TdmaSchedule};
use iiot_mac::{Mac, MacError, SendHandle, QUEUE_CAP};
use iiot_sim::prelude::*;
use iiot_sim::radio::MAX_PAYLOAD;

#[test]
#[should_panic(expected = "empty channel pool")]
fn per_tenant_plan_rejects_empty_pool() {
    let p = ChannelPlan::PerTenant {
        base: 11,
        num_channels: 0,
    };
    let _ = p.channel_for(TenantId(0), 0);
}

#[test]
fn idle_padding_changes_frame_math() {
    let s = TdmaSchedule::new(
        vec![
            Slot {
                sender: NodeId(1),
                receiver: NodeId(0),
            },
            Slot {
                sender: NodeId(2),
                receiver: NodeId(1),
            },
        ],
        SimDuration::from_millis(10),
    );
    assert_eq!(s.num_slots(), 2);
    assert_eq!(s.total_slots(), 2);
    assert_eq!(s.frame_len(), SimDuration::from_millis(20));
    let padded = s.with_idle(6);
    assert_eq!(padded.num_slots(), 2, "active slots unchanged");
    assert_eq!(padded.total_slots(), 8);
    assert_eq!(padded.frame_len(), SimDuration::from_millis(80));
}

#[test]
fn tdma_idle_padding_lowers_duty_cycle() {
    let parents = vec![None, Some(NodeId(0))];
    let tight = TdmaSchedule::pipeline_to_root(&parents, SimDuration::from_millis(10));
    let padded = tight.clone().with_idle(9);

    let duty = |sched: TdmaSchedule| {
        let mut w = SimBuilder::new()
            .nodes(Topology::line(2, 10.0), move |_| {
                Box::new(MacDriver::new(iiot_mac::tdma::TdmaMac::new(sched.clone())))
            })
            .build();
        w.run_for(SimDuration::from_secs(10));
        w.energy(NodeId(0)).duty_cycle()
    };
    let d_tight = duty(tight);
    let d_padded = duty(padded);
    assert!(
        d_tight > 0.9,
        "1-slot frame keeps the receiver on: {d_tight}"
    );
    assert!(d_padded < 0.15, "9 idle slots per active slot: {d_padded}");
}

/// Node 1 sends to node 0: a two-node world of `mac`s in which the
/// TDMA schedule gives node 1 the slot to its parent, node 0.
fn pair<M: Mac>(mac: fn() -> M) -> Sim {
    SimBuilder::new()
        .nodes(Topology::line(2, 10.0), move |_| {
            Box::new(MacDriver::new(mac()))
        })
        .build()
}

fn tdma() -> TdmaMac {
    let parents = [None, Some(NodeId(0))];
    TdmaMac::new(TdmaSchedule::pipeline_to_root(
        &parents,
        SimDuration::from_millis(10),
    ))
}

/// Runs `check` once per MAC of the crate, each on its own fresh world.
macro_rules! for_every_mac {
    ($check:ident) => {
        $check::<CsmaMac>("csma", CsmaMac::default);
        $check::<LplMac>("lpl", LplMac::default);
        $check::<RimacMac>("rimac", RimacMac::default);
        $check::<TdmaMac>("tdma", tdma);
    };
}

/// `send_now` on node 1, from test code.
fn send<M: Mac>(w: &mut Sim, dst: Dst, len: usize) -> Result<SendHandle, MacError> {
    w.with(NodeId(1), |d: &mut MacDriver<M>, ctx| {
        d.send_now(ctx, dst, 0, vec![0; len])
    })
}

/// Admission, the same on every MAC: a payload that does not fit one
/// frame beside the 3-byte link header is `TooLarge`, and a send beyond
/// `QUEUE_CAP` queued frames at one instant is `QueueFull`.
#[test]
fn oversized_payload_rejected_by_every_mac() {
    fn check<M: Mac>(name: &str, mac: fn() -> M) {
        let mut w = pair(mac);
        w.run_for(SimDuration::from_millis(1));
        let over = send::<M>(&mut w, Dst::Broadcast, MAX_PAYLOAD - 2);
        assert_eq!(over, Err(MacError::TooLarge), "{name}");
        for i in 0..QUEUE_CAP as u64 {
            let fits = send::<M>(&mut w, Dst::Broadcast, MAX_PAYLOAD - 3);
            assert_eq!(fits, Ok(SendHandle(i)), "{name}");
        }
        let full = send::<M>(&mut w, Dst::Broadcast, 1);
        assert_eq!(full, Err(MacError::QueueFull), "{name}");
    }
    for_every_mac!(check);
}

/// Hands `bytes` on radio `port`, from node 0 to node 1, straight to
/// node 1's MAC.
fn feed<M: Mac>(w: &mut Sim, port: u8, bytes: &[u8]) {
    let frame = Frame::new(NodeId(0), Dst::Unicast(NodeId(1)), port, bytes.to_vec());
    let info = RxInfo {
        rssi_dbm: -60.0,
        channel: 0,
        started: w.now(),
    };
    w.with(NodeId(1), |d: &mut MacDriver<M>, ctx| {
        Proto::frame(d, ctx, &frame, info)
    });
}

#[test]
fn receive_path_is_the_same_under_every_mac() {
    fn check<M: Mac>(name: &str, mac: fn() -> M) {
        let mut w = pair(mac);
        let (me, port) = (NodeId(1), mac().radio_port());
        // The destination is dead, so only the frames fed below answer.
        w.kill(NodeId(0));
        w.run_for(SimDuration::from_millis(1));
        send::<M>(&mut w, Dst::Unicast(NodeId(0)), 1).expect("admitted");
        // Let the channel access put the frame on the air and wait
        // for its ACK.
        for _ in 0..100 {
            if w.stats().get_node(me, "mac_tx_data") >= 1.0 {
                break;
            }
            w.run_for(SimDuration::from_micros(100));
        }
        w.run_for(SimDuration::from_millis(1));

        // Wire format: kind (0 data, 1 ack), seq, upper port, payload.
        // A sender numbers its frames from 1.
        feed::<M>(&mut w, port, &[1, 2, 0]);
        assert!(
            w.proto::<MacDriver<M>>(me).send_done.is_empty(),
            "{name}: foreign ack"
        );
        feed::<M>(&mut w, port, &[1, 1, 0]);
        let done = &w.proto::<MacDriver<M>>(me).send_done;
        assert_eq!(done, &[(SendHandle(0), true)], "{name}: head ack");

        feed::<M>(&mut w, port, &[0, 7, 9, 0xAB]);
        feed::<M>(&mut w, port, &[0, 7, 9, 0xAB]);
        let other_port = if port == 1 { 2 } else { 1 };
        feed::<M>(&mut w, other_port, &[0, 8, 9, 0xCD]);
        feed::<M>(&mut w, port, &[0, 8]);
        let delivered = &w.proto::<MacDriver<M>>(me).delivered;
        assert_eq!(delivered.len(), 1, "{name}: {delivered:?}");
        let d = &delivered[0];
        assert_eq!(
            (d.src, d.upper_port, &d.payload[..]),
            (NodeId(0), 9, &[0xAB][..])
        );
    }
    for_every_mac!(check);
}

#[test]
fn lpl_unicast_out_of_range_reports_failure() {
    let cfg = SimConfig {
        seed: 77,
        ..SimConfig::default()
    };
    let (a, b) = (NodeId(0), NodeId(1));
    let mut w = SimBuilder::new()
        .config(cfg)
        // 500 m apart: far out of range
        .nodes(Topology::line(2, 500.0), |_| {
            Box::new(MacDriver::new(LplMac::default()))
        })
        .build();
    w.proto_mut::<MacDriver<LplMac>>(a).push_send(
        SimTime::from_secs(1),
        Dst::Unicast(b),
        0,
        vec![1],
    );
    w.run_for(SimDuration::from_secs(5));
    let drv = w.proto::<MacDriver<LplMac>>(a);
    assert_eq!(drv.send_done.len(), 1);
    assert!(!drv.send_done[0].1, "no ack can ever arrive");
    assert!(w.proto::<MacDriver<LplMac>>(b).delivered.is_empty());
}

#[test]
fn csma_distinct_payloads_not_confused_by_dedup() {
    let (a, b) = (NodeId(0), NodeId(1));
    let mut w = SimBuilder::new()
        .nodes(Topology::line(2, 10.0), |_| {
            Box::new(MacDriver::new(CsmaMac::default()))
        })
        .build();
    for i in 0..5u8 {
        w.proto_mut::<MacDriver<CsmaMac>>(a).push_send(
            SimTime::from_millis(10 + i as u64 * 20),
            Dst::Unicast(b),
            i,
            vec![i],
        );
    }
    w.run_for(SimDuration::from_secs(1));
    let d = &w.proto::<MacDriver<CsmaMac>>(b).delivered;
    assert_eq!(d.len(), 5);
    let ports: Vec<u8> = d.iter().map(|x| x.upper_port).collect();
    assert_eq!(ports, vec![0, 1, 2, 3, 4], "demux ports preserved in order");
}

/// Beside a jammer that keeps the channel busy, CSMA gives up on every
/// channel access: each is a `"busy"` [`EventKind::MacTx`], and its
/// counter equals those events, recorder or not.
#[test]
fn csma_beside_a_jammer_counts_every_channel_access_failure() {
    use iiot_sim::obs::RingRecorder;
    struct Jammer;
    impl Proto for Jammer {
        fn start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.radio_on().expect("radio");
            ctx.transmit(Dst::Broadcast, 0, vec![0; MAX_PAYLOAD])
                .expect("tx");
        }
        fn tx_done(&mut self, ctx: &mut Ctx<'_>, _outcome: TxOutcome) {
            ctx.transmit(Dst::Broadcast, 0, vec![0; MAX_PAYLOAD])
                .expect("tx");
        }
    }
    let run = |record: bool| {
        let mut b = SimBuilder::new().nodes(Topology::line(2, 10.0), |i| match i {
            0 => Box::new(Jammer),
            _ => Box::new(MacDriver::new(CsmaMac::default())),
        });
        if record {
            b = b.recorder(Box::new(RingRecorder::new(1 << 16)));
        }
        let mut w = b.build();
        let at = SimTime::from_millis(100);
        let csma = w.proto_mut::<MacDriver<CsmaMac>>(NodeId(1));
        csma.push_send(at, Dst::Unicast(NodeId(0)), 9, vec![1, 2, 3]);
        w.run_for(SimDuration::from_secs(2));
        w
    };
    let (plain, traced) = (run(false), run(true));
    let fails = traced.stats().node_values("mac_cca_fail");
    assert!(
        matches!(fails[..], [(NodeId(1), n)] if n > 0.0),
        "{fails:?}"
    );
    assert_eq!(plain.stats().node_values("mac_cca_fail"), fails);
    assert_eq!(traced.stats().get_node(NodeId(1), "mac_tx_data"), 0.0);
    let ring = traced.recorder_as::<RingRecorder>().expect("ring");
    let events = ring
        .events()
        .filter(|e| e.kind == EventKind::MacTx { outcome: "busy" });
    let events: Vec<NodeId> = events.map(|e| e.node).collect();
    assert_eq!(events, vec![NodeId(1); fails[0].1 as usize]);
    assert_eq!(ring.dropped(), 0);
}
