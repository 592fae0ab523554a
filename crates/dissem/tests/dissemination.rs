//! End-to-end dissemination scenarios: multi-hop propagation, CoAP
//! injection, crash/wipe recovery semantics, quarantine, staged
//! rollout and TDMA tree schedules.

use iiot_dissem::image::Image;
use iiot_dissem::inject::BlockInjector;
use iiot_dissem::node::{DissemConfig, DissemNode};
use iiot_dissem::rollout::{self, RolloutPlan};
use iiot_mac::csma::{CsmaConfig, CsmaMac};
use iiot_mac::tdma::{TdmaConfig, TdmaMac, TdmaSchedule};
use iiot_routing::trickle::TrickleConfig;
use iiot_sim::prelude::*;

type CsmaNode = DissemNode<CsmaMac>;

fn image(version: u32, len: usize) -> Image {
    Image::build(
        version,
        (0..len).map(|i| (i * 7 % 256) as u8).collect(),
        30,
        4,
    )
}

fn csma_line(n: usize, seed: u64, enabled: bool) -> (Sim, Vec<NodeId>) {
    let w = SimBuilder::new()
        .seed(seed)
        .nodes(Topology::line(n, 20.0), move |_| {
            Box::new(DissemNode::new(
                CsmaMac::new(CsmaConfig::default()),
                DissemConfig {
                    enabled,
                    ..DissemConfig::default()
                },
            ))
        })
        .build();
    (w, (0..n as u32).map(NodeId).collect())
}

fn install_at(w: &mut Sim, node: NodeId, img: &Image, at: SimTime) {
    let img = img.clone();
    w.schedule_at(at, move |w| {
        w.with(node, |n: &mut CsmaNode, ctx| n.install(ctx, &img));
    });
}

#[test]
fn multi_hop_line_converges() {
    let (mut w, ids) = csma_line(5, 11, true);
    install_at(&mut w, ids[0], &image(1, 600), SimTime::from_secs(1));
    w.run_for(SimDuration::from_secs(120));
    for &id in &ids {
        let n = w.proto::<CsmaNode>(id);
        assert!(n.complete_ok(), "{id:?} incomplete");
        assert!(n.complete_at().is_some());
    }
}

#[test]
fn coap_injection_reaches_the_gateway() {
    let (mut w, ids) = csma_line(3, 12, true);
    // The backend sits off-grid: only the wired backbone connects it.
    let img = image(2, 400);
    let gw = ids[0];
    let off_grid: Topology = [Pos::new(1000.0, 1000.0)].into_iter().collect();
    let backend = w.add_nodes(off_grid, move |_| {
        Box::new(BlockInjector::new(gw, &img, 64))
    })[0];
    w.run_for(SimDuration::from_secs(90));
    assert!(
        w.proto::<BlockInjector>(backend).done(),
        "transfer unfinished"
    );
    for &id in &ids {
        assert!(w.proto::<CsmaNode>(id).complete_ok(), "{id:?} incomplete");
    }
}

/// The satellite knob pays off: a crash-recovered node resumes from its
/// flash page bitmap, a wiped node re-downloads everything. Both end
/// complete; the wiped one needs every page again.
#[test]
fn crash_resume_vs_wipe_restart() {
    let run = |loss: StateLoss| {
        let (mut w, ids) = csma_line(3, 13, true);
        w.set_state_loss(loss);
        install_at(&mut w, ids[0], &image(3, 1200), SimTime::from_secs(1));
        let victim = ids[2];
        // Let the download get partway, then bounce the victim.
        let crash_at = SimTime::from_secs(4);
        w.kill_at(crash_at, victim);
        w.revive_at(crash_at + SimDuration::from_secs(2), victim);
        w.run_until(crash_at + SimDuration::from_secs(1));
        let held_down = w.proto::<CsmaNode>(victim).store().have_pages();
        w.run_for(SimDuration::from_secs(180));
        assert!(
            w.proto::<CsmaNode>(victim).complete_ok(),
            "victim incomplete"
        );
        (held_down, w.stats().node_total("dissem_page_ok"))
    };
    let (kept_ram, pages_ram) = run(StateLoss::Ram);
    let (kept_full, pages_full) = run(StateLoss::Full);
    assert!(
        kept_ram > 0,
        "crash must hit mid-download for this test to bite"
    );
    assert_eq!(kept_full, 0, "wiped node kept flash pages");
    assert!(
        pages_full > pages_ram,
        "restart-from-zero should verify more pages overall ({pages_full} vs {pages_ram})"
    );
}

#[test]
fn poisoned_image_spreads_but_never_activates() {
    let (mut w, ids) = csma_line(3, 14, true);
    install_at(
        &mut w,
        ids[0],
        &image(4, 400).poisoned(),
        SimTime::from_secs(1),
    );
    w.run_for(SimDuration::from_secs(120));
    // Transport is verdict-blind (Deluge): the bad build reaches every
    // enabled node, and every one of them rejects it at the image CRC.
    // Containing the blast radius is the rollout controller's job.
    for &id in &ids[1..] {
        let n = w.proto::<CsmaNode>(id);
        assert!(n.poisoned(), "{id:?} should have downloaded and rejected");
        assert!(!n.complete_ok(), "{id:?} activated a bad image");
    }
}

#[test]
fn staged_rollout_halts_poison_at_canary() {
    let (mut w, ids) = csma_line(4, 15, false);
    install_at(
        &mut w,
        ids[0],
        &image(5, 400).poisoned(),
        SimTime::from_secs(1),
    );
    let plan = RolloutPlan::new(
        vec![vec![ids[1]], vec![ids[2]], vec![ids[3]]],
        SimDuration::from_secs(5),
    );
    rollout::drive::<CsmaMac>(&mut w, ids[0], plan, SimTime::from_secs(2));
    w.run_for(SimDuration::from_secs(300));
    assert!(
        w.proto::<CsmaNode>(ids[1]).poisoned(),
        "canary should reject"
    );
    for &id in &ids[2..] {
        let n = w.proto::<CsmaNode>(id);
        assert!(!n.is_enabled(), "{id:?} activated after the halt");
        assert_eq!(
            n.store().have_pages(),
            0,
            "{id:?} received pages while disabled"
        );
    }
}

#[test]
fn staged_rollout_completes_clean_image() {
    let (mut w, ids) = csma_line(4, 16, false);
    install_at(&mut w, ids[0], &image(6, 400), SimTime::from_secs(1));
    let plan = RolloutPlan::new(
        vec![vec![ids[1]], vec![ids[2], ids[3]]],
        SimDuration::from_secs(5),
    );
    rollout::drive::<CsmaMac>(&mut w, ids[0], plan, SimTime::from_secs(2));
    w.run_for(SimDuration::from_secs(400));
    for &id in &ids {
        assert!(w.proto::<CsmaNode>(id).complete_ok(), "{id:?} incomplete");
    }
}

#[test]
fn tdma_tree_schedule_carries_the_image() {
    type TdmaNode = DissemNode<TdmaMac>;
    let n = 4;
    let parents: Vec<Option<NodeId>> = (0..n)
        .map(|i| {
            if i == 0 {
                None
            } else {
                Some(NodeId(i as u32 - 1))
            }
        })
        .collect();
    let sched = TdmaSchedule::tree_edges(&parents, SimDuration::from_millis(20));
    let frame = sched.frame_len();
    let ids: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
    let p2 = parents.clone();
    let make = move |i: usize| -> Box<dyn Proto> {
        // Each node advertises to its tree neighbours by unicast: the
        // schedule has no broadcast slots.
        let me = NodeId(i as u32);
        let mut peers = Vec::new();
        if let Some(p) = p2[i] {
            peers.push(p);
        }
        peers.extend(
            (0..n)
                .filter(|&c| p2[c] == Some(me))
                .map(|c| NodeId(c as u32)),
        );
        Box::new(DissemNode::new(
            TdmaMac::new(TdmaConfig::default(), sched.clone()),
            DissemConfig {
                trickle: TrickleConfig {
                    imin: frame * 2,
                    doublings: 6,
                    k: 1,
                },
                unicast_data: true,
                adv_peers: Some(peers),
                req_backoff: frame,
                ..DissemConfig::default()
            },
        ))
    };
    let mut w = SimBuilder::new()
        .seed(17)
        .nodes(Topology::line(n, 20.0), make)
        .build();
    let img = Image::build(7, (0..240u32).map(|i| i as u8).collect(), 30, 4);
    let gw = ids[0];
    w.schedule_at(SimTime::from_secs(2), move |w| {
        w.with(gw, |n: &mut TdmaNode, ctx| n.install(ctx, &img));
    });
    w.run_for(SimDuration::from_secs(240));
    for &id in &ids {
        assert!(w.proto::<TdmaNode>(id).complete_ok(), "{id:?} incomplete");
    }
}

#[test]
fn forged_adv_larger_than_flash_is_dropped_without_state_change() {
    use iiot_mac::driver::MacDriver;
    let mut w = SimBuilder::new()
        .seed(5)
        .nodes(Topology::line(2, 20.0), |i| match i {
            0 => Box::new(MacDriver::new(CsmaMac::default())),
            _ => Box::new(DissemNode::new(CsmaMac::default(), DissemConfig::default())),
        })
        .build();
    // version 9 > 0, len 4 GiB - 1, 30-byte chunks, 4 per page, have 1.
    let mut adv = vec![0, 0, 0, 9, 0xFF, 0xFF, 0xFF, 0xFF, 30, 4];
    adv.extend_from_slice(&[0xAA; 4]);
    adv.extend_from_slice(&[0, 1]);
    w.proto_mut::<MacDriver<CsmaMac>>(NodeId(0)).push_send(
        SimTime::from_secs(1),
        Dst::Broadcast,
        iiot_dissem::node::PORT_ADV,
        adv,
    );
    w.run_for(SimDuration::from_secs(5));
    let victim = w.proto::<CsmaNode>(NodeId(1));
    assert_eq!(w.stats().get_node(NodeId(1), "dissem_adv_oversize"), 1.0);
    assert!(victim.store().meta().is_none(), "no download began");
    assert_eq!(w.stats().get_node(NodeId(1), "dissem_req_tx"), 0.0);
}
