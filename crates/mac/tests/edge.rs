//! Public-API edge cases across the MAC implementations.

use iiot_mac::coex::{ChannelPlan, TenantId};
use iiot_mac::csma::CsmaMac;
use iiot_mac::driver::MacDriver;
use iiot_mac::lpl::LplMac;
use iiot_mac::tdma::{Slot, TdmaSchedule};
use iiot_mac::MacError;
use iiot_sim::prelude::*;

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

#[test]
fn oversized_payload_rejected_by_every_mac() {
    let (a, b) = (NodeId(0), NodeId(1));
    let mut w = SimBuilder::new()
        .nodes(Topology::line(2, 10.0), |i| match i {
            0 => Box::new(MacDriver::new(CsmaMac::default())),
            _ => Box::new(MacDriver::new(LplMac::default())),
        })
        .build();
    w.run_for(SimDuration::from_millis(1));
    let csma = w.with(a, |d: &mut MacDriver<CsmaMac>, ctx| {
        d.send_now(ctx, Dst::Broadcast, 0, vec![0; 200])
    });
    let lpl = w.with(b, |d: &mut MacDriver<LplMac>, ctx| {
        d.send_now(ctx, Dst::Broadcast, 0, vec![0; 200])
    });
    assert_eq!(csma.unwrap_err(), MacError::TooLarge);
    assert_eq!(lpl.unwrap_err(), MacError::TooLarge);
}

#[test]
fn lpl_unicast_out_of_range_reports_failure() {
    let cfg = SimConfig::default().seed(77);
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
