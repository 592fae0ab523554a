//! Deployment orchestration: build a simulated sensing-and-actuation
//! deployment from a topology, a MAC choice and a traffic profile, run
//! it, extend it (incremental rollout, §IV intro), report collection
//! metrics, and bridge its root into a [`Gateway`](iiot_gateway::Gateway)
//! as a [`BorderAdapter`] — the sensornet-to-IP role §IV-B gives the
//! border router, on the same northbound face as every wired device.

use iiot_gateway::{Adapter, Measurement, PointInfo, Quality, Unit, WriteError};
use iiot_mac::csma::CsmaMac;
use iiot_mac::lpl::{LplConfig, LplMac};
use iiot_mac::rimac::RimacMac;
use iiot_mac::tdma::{TdmaMac, TdmaSchedule};
use iiot_routing::dodag::{DodagConfig, DodagNode, Traffic};
use iiot_routing::graph;
use iiot_routing::statictree::{StaticCollection, StaticConfig};
use iiot_routing::Collected;
use iiot_sim::prelude::*;
use iiot_sim::trace::Summary;
use std::cell::RefCell;
use std::rc::{Rc, Weak};

/// Which MAC the deployment runs under the collection protocol.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MacChoice {
    /// Always-on CSMA/CA.
    Csma,
    /// Low-power listening with the given wake interval.
    Lpl(SimDuration),
    /// Receiver-initiated duty cycling with the given wake interval.
    Rimac(SimDuration),
    /// Pipelined TDMA with the given slot length (schedule derived from
    /// the BFS tree at build time).
    Tdma(SimDuration),
}

impl MacChoice {
    /// Short name for tables.
    pub fn name(self) -> &'static str {
        match self {
            MacChoice::Csma => "csma",
            MacChoice::Lpl(_) => "lpl",
            MacChoice::Rimac(_) => "rimac",
            MacChoice::Tdma(_) => "tdma",
        }
    }
}

/// Builder for a [`Deployment`].
#[derive(Clone, Debug)]
pub struct DeploymentBuilder {
    topology: Topology,
    mac: MacChoice,
    seed: u64,
    dodag: DodagConfig,
}

impl DeploymentBuilder {
    /// Starts a builder over `topology`; node 0 is the border router.
    pub fn new(topology: Topology) -> Self {
        DeploymentBuilder {
            topology,
            mac: MacChoice::Csma,
            seed: 1,
            dodag: DodagConfig::default(),
        }
    }

    /// Chooses the MAC (default CSMA).
    pub fn mac(mut self, mac: MacChoice) -> Self {
        self.mac = mac;
        self
    }

    /// Sets the world seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Makes every non-root node emit a reading with the given period
    /// and payload size after the DODAG has had `start_after` to form.
    pub fn traffic(
        mut self,
        period: SimDuration,
        payload_len: usize,
        start_after: SimDuration,
    ) -> Self {
        self.dodag.traffic = Some(Traffic {
            period,
            payload_len,
            start_after,
        });
        self
    }

    /// Overrides the routing configuration (traffic set via
    /// [`traffic`](DeploymentBuilder::traffic) is preserved separately).
    pub fn routing(mut self, mut dodag: DodagConfig) -> Self {
        dodag.traffic = dodag.traffic.or(self.dodag.traffic);
        self.dodag = dodag;
        self
    }

    /// Builds the simulation and instantiates all nodes.
    ///
    /// # Panics
    ///
    /// Panics if the topology is empty.
    pub fn build(self) -> Deployment {
        assert!(!self.topology.is_empty(), "deployment needs nodes");
        let wc = SimConfig::default().seed(self.seed);

        // For TDMA we must know the collection tree up front: the BFS
        // parents over the geometry double as the static routing state
        // (Dozer-style: the schedule *is* the route).
        let schedule = if let MacChoice::Tdma(slot) = self.mac {
            let parents = graph::parents_bfs(&self.topology, &wc.radio, |_| true, NodeId(0));
            // Superframe padding: three idle slots per active slot
            // drops the duty cycle ~4x at ~4x the per-frame latency.
            let active = parents.iter().filter(|p| p.is_some()).count();
            let sched = TdmaSchedule::pipeline_to_root(&parents, slot).with_idle(active * 3);
            Some((sched, parents))
        } else {
            None
        };

        let mac = self.mac;
        let dodag = self.dodag.clone();
        let nodes: Vec<NodeId> = (0..self.topology.len() as u32).map(NodeId).collect();
        let sim = SimBuilder::new()
            .config(wc)
            .nodes(self.topology, move |i| {
                make_node(mac, &dodag, schedule.as_ref(), i == 0)
            })
            .build();
        Deployment {
            sim,
            root: nodes[0],
            nodes,
            mac,
            dodag: self.dodag,
            borders: Vec::new(),
            handed_over: 0,
        }
    }
}

fn make_node(
    mac: MacChoice,
    dodag: &DodagConfig,
    schedule: Option<&(TdmaSchedule, Vec<Option<NodeId>>)>,
    is_root: bool,
) -> Box<dyn Proto> {
    match mac {
        MacChoice::Csma => Box::new(DodagNode::new(CsmaMac::default(), dodag.clone(), is_root)),
        MacChoice::Lpl(wake) => {
            let cfg = LplConfig {
                wake_interval: wake,
                ..LplConfig::default()
            };
            Box::new(DodagNode::new(LplMac::new(cfg), dodag.clone(), is_root))
        }
        MacChoice::Rimac(wake) => {
            Box::new(DodagNode::new(RimacMac::new(wake), dodag.clone(), is_root))
        }
        MacChoice::Tdma(_) => {
            let (sched, parents) = schedule.expect("tdma schedule computed at build").clone();
            let mut cfg = StaticConfig::new(parents);
            cfg.traffic = dodag.traffic;
            Box::new(StaticCollection::new(TdmaMac::new(sched), cfg))
        }
    }
}

/// Collection metrics of a deployment run.
#[derive(Clone, Debug, PartialEq)]
pub struct CollectionReport {
    /// Readings generated by the nodes.
    pub generated: u64,
    /// Readings delivered at the border router.
    pub delivered: u64,
    /// Delivery ratio in `[0, 1]` (1.0 when nothing was generated).
    pub delivery_ratio: f64,
    /// End-to-end latency summary, seconds.
    pub latency: Summary,
    /// Mean radio duty cycle over non-root nodes.
    pub mean_duty_cycle: f64,
    /// Nodes currently without a route to the root.
    pub orphans: usize,
    /// Fraction of nodes currently alive.
    pub alive_fraction: f64,
}

/// A built deployment: the simulation plus its roster.
pub struct Deployment {
    /// The running simulation.
    pub sim: Sim,
    /// The border router.
    pub root: NodeId,
    /// All nodes, in id order (including later rollout stages).
    pub nodes: Vec<NodeId>,
    mac: MacChoice,
    dodag: DodagConfig,
    /// The inboxes of the border adapters still alive.
    borders: Vec<Weak<Inbox>>,
    /// How many of the root's readings went to `borders` so far.
    handed_over: usize,
}

/// Root readings not yet polled by one [`BorderAdapter`].
type Inbox = RefCell<Vec<Collected>>;

impl Deployment {
    /// Starts building a deployment over `topology`.
    pub fn builder(topology: Topology) -> DeploymentBuilder {
        DeploymentBuilder::new(topology)
    }

    /// The MAC in use.
    pub fn mac(&self) -> MacChoice {
        self.mac
    }

    /// Runs the deployment for `d` of simulated time, then hands the
    /// readings the root collected meanwhile to every live
    /// [`BorderAdapter`]. (Readings collected while `sim` is driven
    /// directly are handed over by the next call.)
    pub fn run_for(&mut self, d: SimDuration) {
        self.sim.run_for(d);
        self.hand_over();
    }

    fn hand_over(&mut self) {
        self.borders.retain(|b| b.strong_count() > 0);
        let fresh = &self.collected()[self.handed_over..];
        for inbox in self.borders.iter().filter_map(Weak::upgrade) {
            inbox.borrow_mut().extend_from_slice(fresh);
        }
        self.handed_over += fresh.len();
    }

    /// The border router as a gateway [`Adapter`]: one read-only point
    /// per non-root node, `{prefix}/n{id}`, whose value is the origin's
    /// sequence number (payloads are synthetic filler; `seq` exposes
    /// gaps and duplicates) stamped with the reading's `sent_at`.
    ///
    /// Like a bus subscription, the adapter sees the readings the root
    /// collects from the moment it is made, each exactly once, in
    /// arrival order. Its [`points`](Adapter::points) are the nodes that
    /// exist now; a node added later by [`extend`](Deployment::extend)
    /// gets its resource from the gateway at its first reading.
    pub fn border_adapter(&mut self, prefix: &str) -> BorderAdapter {
        self.hand_over();
        let inbox = Rc::new(Inbox::default());
        self.borders.push(Rc::downgrade(&inbox));
        let points = self
            .nodes
            .iter()
            .filter(|&&n| n != self.root)
            .map(|n| PointInfo {
                point: format!("{prefix}/n{}", n.0),
                unit: Unit::Raw,
                writable: false,
            })
            .collect();
        BorderAdapter {
            prefix: prefix.to_owned(),
            points,
            inbox,
        }
    }

    /// Incremental rollout (§IV): adds another batch of nodes at the
    /// given positions while the system keeps running. Returns their
    /// ids.
    ///
    /// # Panics
    ///
    /// Panics for TDMA deployments, whose schedule is fixed at build
    /// time — exactly the kind of design that needs a redesign to
    /// scale, which experiment E5 quantifies.
    pub fn extend(&mut self, extra: &Topology) -> Vec<NodeId> {
        assert!(
            !matches!(self.mac, MacChoice::Tdma(_)),
            "static TDMA schedules cannot absorb rollout stages"
        );
        let mac = self.mac;
        let dodag = self.dodag.clone();
        let added = self
            .sim
            .add_nodes(extra.clone(), move |_| make_node(mac, &dodag, None, false));
        self.nodes.extend(added.iter().copied());
        added
    }

    /// Whether `node` currently has a route to the root.
    pub fn has_route(&self, node: NodeId) -> bool {
        let sim = &self.sim;
        match self.mac {
            MacChoice::Csma => sim.proto::<DodagNode<CsmaMac>>(node).has_route(),
            MacChoice::Lpl(_) => sim.proto::<DodagNode<LplMac>>(node).has_route(),
            MacChoice::Rimac(_) => sim.proto::<DodagNode<RimacMac>>(node).has_route(),
            MacChoice::Tdma(_) => sim.proto::<StaticCollection<TdmaMac>>(node).has_route(),
        }
    }

    /// Every reading the root has collected, in arrival order.
    pub fn collected(&self) -> &[Collected] {
        let (sim, root) = (&self.sim, self.root);
        match self.mac {
            MacChoice::Csma => sim.proto::<DodagNode<CsmaMac>>(root).collected(),
            MacChoice::Lpl(_) => sim.proto::<DodagNode<LplMac>>(root).collected(),
            MacChoice::Rimac(_) => sim.proto::<DodagNode<RimacMac>>(root).collected(),
            MacChoice::Tdma(_) => sim.proto::<StaticCollection<TdmaMac>>(root).collected(),
        }
    }

    /// Builds the collection report at the current time.
    pub fn report(&self) -> CollectionReport {
        let stats = self.sim.stats();
        let generated = stats.node_total("data_origin") as u64;
        let delivered = stats.get("data_rx_root") as u64;
        let mut duty = 0.0;
        let mut non_root = 0;
        let mut orphans = 0;
        let mut alive = 0;
        for &n in &self.nodes {
            if self.sim.is_alive(n) {
                alive += 1;
            }
            if n != self.root {
                duty += self.sim.energy(n).duty_cycle();
                non_root += 1;
                if self.sim.is_alive(n) && !self.has_route(n) {
                    orphans += 1;
                }
            }
        }
        CollectionReport {
            generated,
            delivered,
            delivery_ratio: if generated == 0 {
                1.0
            } else {
                delivered as f64 / generated as f64
            },
            latency: stats.summary("collect_latency_s"),
            mean_duty_cycle: if non_root == 0 {
                0.0
            } else {
                duty / non_root as f64
            },
            orphans,
            alive_fraction: alive as f64 / self.nodes.len() as f64,
        }
    }
}

/// A [`Deployment`]'s root as a gateway [`Adapter`]; made by
/// [`Deployment::border_adapter`].
#[derive(Debug)]
pub struct BorderAdapter {
    prefix: String,
    points: Vec<PointInfo>,
    inbox: Rc<Inbox>,
}

impl Adapter for BorderAdapter {
    fn device(&self) -> &str {
        &self.prefix
    }

    fn protocol(&self) -> &'static str {
        "sensornet"
    }

    fn points(&self) -> Vec<PointInfo> {
        self.points.clone()
    }

    fn poll(&mut self, _now_us: u64) -> Vec<Measurement> {
        self.inbox
            .take()
            .into_iter()
            .map(|c| Measurement {
                point: format!("{}/n{}", self.prefix, c.origin.0),
                value: f64::from(c.seq),
                unit: Unit::Raw,
                quality: Quality::Good,
                timestamp_us: c.sent_at.as_micros(),
                device: self.prefix.clone(),
            })
            .collect()
    }

    fn write(&mut self, point: &str, _value: f64) -> Result<(), WriteError> {
        if self.points.iter().any(|p| p.point == point) {
            Err(WriteError::ReadOnly)
        } else {
            Err(WriteError::NoSuchPoint)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iiot_coap::{CoapEndpoint, CoapEvent, Code};
    use iiot_crdt::ReplicaId;
    use iiot_gateway::Gateway;

    fn line(n: usize) -> Topology {
        Topology::line(n, 20.0)
    }

    #[test]
    fn csma_deployment_collects() {
        let mut d = Deployment::builder(line(5))
            .mac(MacChoice::Csma)
            .seed(3)
            .traffic(SimDuration::from_secs(5), 8, SimDuration::from_secs(15))
            .build();
        d.run_for(SimDuration::from_secs(60));
        let r = d.report();
        assert!(r.generated > 20, "generated {}", r.generated);
        assert!(r.delivery_ratio > 0.95, "ratio {}", r.delivery_ratio);
        assert!(r.latency.mean < 0.5, "csma latency {}", r.latency.mean);
        assert!(r.mean_duty_cycle > 0.99, "csma never sleeps");
        assert_eq!(r.orphans, 0);
        assert_eq!(r.alive_fraction, 1.0);
        assert_eq!(d.collected().len() as u64, r.delivered);
    }

    #[test]
    fn lpl_deployment_duty_cycles() {
        let mut d = Deployment::builder(line(3))
            .mac(MacChoice::Lpl(SimDuration::from_millis(256)))
            .seed(4)
            .traffic(SimDuration::from_secs(10), 8, SimDuration::from_secs(20))
            .build();
        d.run_for(SimDuration::from_secs(120));
        let r = d.report();
        assert!(r.delivery_ratio > 0.8, "ratio {}", r.delivery_ratio);
        assert!(
            r.mean_duty_cycle < 0.35,
            "lpl should sleep most of the time: {}",
            r.mean_duty_cycle
        );
        assert!(
            r.latency.mean > 0.05,
            "duty-cycled latency is substantial: {}",
            r.latency.mean
        );
    }

    #[test]
    fn tdma_deployment_low_latency_and_duty() {
        let mut d = Deployment::builder(line(4))
            .mac(MacChoice::Tdma(SimDuration::from_millis(20)))
            .seed(5)
            .traffic(SimDuration::from_secs(5), 8, SimDuration::from_secs(10))
            .build();
        d.run_for(SimDuration::from_secs(60));
        let r = d.report();
        assert!(r.delivery_ratio > 0.9, "ratio {}", r.delivery_ratio);
        assert!(
            r.latency.mean < 0.3,
            "pipelined latency should be sub-300ms: {}",
            r.latency.mean
        );
        assert!(r.mean_duty_cycle < 0.9, "tdma sleeps outside its slots");
    }

    #[test]
    fn incremental_rollout_absorbs_new_stage() {
        let mut d = Deployment::builder(line(3))
            .mac(MacChoice::Csma)
            .seed(6)
            .traffic(SimDuration::from_secs(5), 8, SimDuration::from_secs(10))
            .build();
        d.run_for(SimDuration::from_secs(30));
        // Stage 2: three more nodes continuing the line.
        let extra: Topology = (3..6).map(|i| Pos::new(i as f64 * 20.0, 0.0)).collect();
        let added = d.extend(&extra);
        assert_eq!(added.len(), 3);
        d.run_for(SimDuration::from_secs(60));
        let r = d.report();
        assert_eq!(d.nodes.len(), 6);
        for &n in &added {
            assert!(d.has_route(n), "rollout node {n} must join");
        }
        assert!(r.delivery_ratio > 0.9, "ratio {}", r.delivery_ratio);
    }

    #[test]
    #[should_panic(expected = "TDMA")]
    fn tdma_rollout_rejected() {
        let mut d = Deployment::builder(line(3))
            .mac(MacChoice::Tdma(SimDuration::from_millis(20)))
            .build();
        d.extend(&line(1));
    }

    /// A three-node CSMA line whose root is bridged into a gateway as
    /// `cell/n1` and `cell/n2`, with 30 s of readings handed over.
    fn bridged() -> (Deployment, Gateway) {
        let mut d = Deployment::builder(line(3))
            .mac(MacChoice::Csma)
            .seed(0xB0)
            .traffic(SimDuration::from_secs(5), 6, SimDuration::from_secs(10))
            .build();
        let mut gw = Gateway::new(ReplicaId(1));
        gw.add_adapter(Box::new(d.border_adapter("cell")));
        d.run_for(SimDuration::from_secs(30));
        (d, gw)
    }

    /// Carries every datagram `from` has queued to `to`.
    fn deliver(from: &mut CoapEndpoint<u64>, to: &mut CoapEndpoint<u64>) {
        for (_, dgram) in from.take_outbox() {
            to.handle_datagram(0, &dgram, SimTime::ZERO);
        }
    }

    #[test]
    fn border_points_serve_the_latest_seq_over_coap() {
        let (d, mut gw) = bridged();
        let points: Vec<String> = gw.inventory()[0]
            .points
            .iter()
            .map(|p| p.point.clone())
            .collect();
        assert_eq!(points, ["cell/n1", "cell/n2"], "the root is not a sensor");
        assert_eq!(gw.poll_all(d.sim.now().as_micros()), d.collected().len());
        let latest = d
            .collected()
            .iter()
            .rev()
            .find(|c| c.origin == NodeId(2))
            .expect("node 2 reported");
        assert_eq!(latest.hops, 2, "line of 3");
        let m = gw.last("cell/n2").expect("cached");
        assert_eq!(m.value, f64::from(latest.seq));
        assert_eq!(m.timestamp_us, latest.sent_at.as_micros());
        assert_eq!(gw.write_direct("cell/n2", 1.0), Err(WriteError::ReadOnly));

        let mut client: CoapEndpoint<u64> = CoapEndpoint::new(9);
        client.get(0, "cell/n2", SimTime::ZERO);
        deliver(&mut client, gw.coap_mut());
        deliver(gw.coap_mut(), &mut client);
        match &client.take_events()[..] {
            [CoapEvent::Response { code, payload, .. }] => {
                assert_eq!(*code, Code::Content);
                let text = String::from_utf8_lossy(payload);
                assert!(text.starts_with(&format!("{}.000 ", latest.seq)), "{text}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn a_node_added_by_extend_is_served_over_coap() {
        let (mut d, mut gw) = bridged();
        let added = d.extend(&std::iter::once(Pos::new(60.0, 0.0)).collect());
        assert_eq!(added, [NodeId(3)]);
        d.run_for(SimDuration::from_secs(60));
        gw.poll_all(d.sim.now().as_micros());
        assert!(gw.last("cell/n3").is_some(), "the new node reported");

        let mut client: CoapEndpoint<u64> = CoapEndpoint::new(9);
        client.get(0, "cell/n3", SimTime::ZERO);
        deliver(&mut client, gw.coap_mut());
        deliver(gw.coap_mut(), &mut client);
        match &client.take_events()[..] {
            [CoapEvent::Response { code, .. }] => assert_eq!(*code, Code::Content),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn border_observers_are_pushed_new_readings() {
        let (mut d, mut gw) = bridged();
        gw.poll_all(d.sim.now().as_micros());
        let mut client: CoapEndpoint<u64> = CoapEndpoint::new(9);
        client.observe(0, "cell/n1", SimTime::ZERO);
        deliver(&mut client, gw.coap_mut());
        deliver(gw.coap_mut(), &mut client);
        client.take_events();

        // More readings arrive over the air.
        d.run_for(SimDuration::from_secs(20));
        assert!(gw.poll_all(d.sim.now().as_micros()) >= 1);
        deliver(gw.coap_mut(), &mut client);
        let ev = client.take_events();
        assert!(
            ev.iter().any(|e| matches!(
                e,
                CoapEvent::Response {
                    observe: Some(_),
                    ..
                }
            )),
            "observer must be pushed the update: {ev:?}"
        );
    }

    #[test]
    fn an_idle_border_poll_publishes_nothing() {
        let (d, mut gw) = bridged();
        let bus = gw.bus().subscribe("cell/");
        assert!(gw.poll_all(d.sim.now().as_micros()) > 0);
        assert_eq!(bus.try_iter().count(), d.collected().len());
        assert_eq!(gw.poll_all(d.sim.now().as_micros()), 0, "nothing new");
        assert_eq!(bus.try_iter().count(), 0);
    }
}
