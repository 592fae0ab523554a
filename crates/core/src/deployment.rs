//! Deployment orchestration: build a simulated sensing-and-actuation
//! deployment from a topology, a MAC choice and a traffic profile, run
//! it, extend it (incremental rollout, §IV intro) and report collection
//! metrics — and, with a gateway attached, carry its readings through
//! the rest of Fig. 1 on the simulation's clock, the border router
//! joining the gateway in the sensornet-to-IP role §IV-B gives it.

use iiot_cloud::{
    Command, CommandOutcome, CommandRouter, DeviceRegistry, DeviceTwin, IngestConfig,
    IngestPipeline, StreamConfig, TenantId, TwinStore, UplinkMsg,
};
use iiot_crdt::ReplicaId;
use iiot_gateway::{
    Adapter, CloudUplink, Gateway, Measurement, PointInfo, Quality, Unit, WriteError,
};
use iiot_mac::csma::CsmaMac;
use iiot_mac::lpl::{LplConfig, LplMac};
use iiot_mac::rimac::RimacMac;
use iiot_mac::tdma::{TdmaMac, TdmaSchedule};
use iiot_routing::dodag::{DodagConfig, DodagNode, Traffic};
use iiot_routing::graph;
use iiot_routing::statictree::{StaticCollection, StaticConfig};
use iiot_routing::Collected;
use iiot_security::Key;
use iiot_sim::obs::{self, EventKind};
use iiot_sim::prelude::*;
use iiot_sim::trace::{summarize, Summary};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// The wired poll period of an attached gateway: every adapter is
/// polled at each whole multiple of `POLL` of simulated time.
pub const POLL: SimDuration = SimDuration::from_secs(1);

/// Most cloud commands an attached gateway's downlink queues between
/// two grid polls; see [`Northbound::command`].
pub const COMMAND_CAP: usize = 16;

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
        let wc = SimConfig {
            seed: self.seed,
            ..SimConfig::default()
        };

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
            seed: self.seed,
            north: None,
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
    /// The rest of Fig. 1, once [`attach_gateway`](Deployment::attach_gateway)
    /// has been called.
    pub north: Option<Northbound>,
    mac: MacChoice,
    dodag: DodagConfig,
    seed: u64,
}

/// Root readings the border adapter has yet to publish.
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

    /// Runs the deployment for `d` of simulated time. With a gateway
    /// attached, every northbound instant up to the new
    /// [`now`](Sim::now) is then walked in time order (see
    /// [`attach_gateway`](Deployment::attach_gateway)); readings
    /// collected while `sim` is driven directly are carried by the next
    /// call, at the instants they arrived.
    pub fn run_for(&mut self, d: SimDuration) {
        self.sim.run_for(d);
        let now = self.sim.now();
        if let Some(north) = &mut self.north {
            north.catch_up(root_collected(&self.sim, self.root, self.mac), now);
        }
    }

    /// Attaches `gateway`, with its wired adapters already added, as the
    /// rest of Fig. 1. The root joins it as one more adapter, protocol
    /// `"sensornet"`: a read-only point `{prefix}/n{id}` per node it has
    /// heard from, listed at its first reading (a node added by
    /// [`extend`](Deployment::extend) too), valued with the reading's
    /// sequence number (payloads are filler; `seq` exposes gaps and
    /// duplicates) and stamped with its `sent_at`.
    ///
    /// From then on [`run_for`](Deployment::run_for) walks, in time
    /// order, each reading's `received_at` merged with the wired poll
    /// grid `k ·` [`POLL`]. At an instant the border adapter takes the
    /// readings that have arrived, and the gateway polls every adapter
    /// on a grid instant, only the border adapter otherwise; a grid
    /// poll first plays the queued [`Northbound::command`]s against the
    /// gateway's CoAP server, so that same poll applies what it
    /// acknowledged. Every measurement published is offered to the
    /// cloud (write-ahead logged) at that instant, its device
    /// provisioned on first sight, and an accepted one is reported to
    /// its twin at its own timestamp; then each rule it fires queues a
    /// command on that same downlink, or, with [`COMMAND_CAP`] already
    /// queued, is settled at once as refused. `gateway/write-failed/*`
    /// diagnostics reach neither the cloud nor the rules. When the
    /// deployment is traced, the cloud's events land in the trace too.
    ///
    /// # Panics
    ///
    /// Panics if a gateway is already attached.
    pub fn attach_gateway(&mut self, mut gateway: Gateway, prefix: &str, rules: Vec<Rule>) {
        assert!(self.north.is_none(), "a deployment has one gateway");
        let inbox = Rc::new(Inbox::default());
        let border = (gateway.inventory().len(), prefix.to_owned());
        gateway.add_adapter(Box::new(BorderAdapter {
            prefix: prefix.to_owned(),
            points: Vec::new(),
            inbox: Rc::clone(&inbox),
        }));
        let mut registry = DeviceRegistry::new();
        let tenant = registry.create_tenant("deployment", Key(*b"deployment-cloud"));
        let mut cloud = IngestPipeline::new(registry, IngestConfig::default());
        cloud.attach_stream(StreamConfig::logged(Default::default()));
        cloud.set_recorder(obs::scope_capture(self.seed));
        let poll_us = POLL.as_micros();
        let next_poll = self.sim.now().as_micros().div_ceil(poll_us) * poll_us;
        self.north = Some(Northbound {
            uplink: CloudUplink::new(&gateway, tenant.0, ""),
            gateway,
            rules,
            router: CommandRouter::new(COMMAND_CAP, self.seed),
            commands: Vec::new(),
            cloud,
            tenant,
            twins: TwinStore::new(),
            sample_to_cloud: Vec::new(),
            border,
            inbox,
            handed_over: self.collected().len(),
            next_poll: SimTime::from_micros(next_poll),
            devices: BTreeMap::new(),
        });
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
        root_collected(&self.sim, self.root, self.mac)
    }

    /// Builds the collection report at the current time.
    pub fn report(&self) -> CollectionReport {
        let stats = self.sim.stats();
        let generated = stats.node_total("data_origin") as u64;
        let delivered = stats.node_total("data_rx_root") as u64;
        let latencies: Vec<f64> = (self.collected().iter())
            .map(|c| c.received_at.duration_since(c.sent_at).as_secs_f64())
            .collect();
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
            latency: summarize(&latencies),
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

/// Every reading `root` has collected, in arrival order.
fn root_collected(sim: &Sim, root: NodeId, mac: MacChoice) -> &[Collected] {
    match mac {
        MacChoice::Csma => sim.proto::<DodagNode<CsmaMac>>(root).collected(),
        MacChoice::Lpl(_) => sim.proto::<DodagNode<LplMac>>(root).collected(),
        MacChoice::Rimac(_) => sim.proto::<DodagNode<RimacMac>>(root).collected(),
        MacChoice::Tdma(_) => sim.proto::<StaticCollection<TdmaMac>>(root).collected(),
    }
}

/// A declarative rule of the cloud's application logic: whenever the
/// cloud accepts a reading of `input` beyond `threshold`, a downlink
/// command sets `output` to `command`.
#[derive(Clone, Debug)]
pub struct Rule {
    /// The observed point.
    pub input: String,
    /// Fire when the value compares true against `threshold`.
    pub above: bool,
    /// Threshold value.
    pub threshold: f64,
    /// The actuated point.
    pub output: String,
    /// Value to write when the rule fires.
    pub command: f64,
}

impl Rule {
    /// Whether the rule fires for `value`.
    pub fn fires(&self, value: f64) -> bool {
        if self.above {
            value > self.threshold
        } else {
            value < self.threshold
        }
    }
}

/// Fig. 1 above the border router; see [`Deployment::attach_gateway`].
pub struct Northbound {
    /// Every write issued above the gateway so far, [`command`]ed or a
    /// rule's firing, in the order settled: acknowledged or not at a
    /// grid flush, or refused at once by a full queue.
    ///
    /// [`command`]: Northbound::command
    pub commands: Vec<CommandOutcome>,
    /// The device twins: per point, the latest accepted value.
    pub twins: TwinStore,
    /// Each wireless reading's time from its sample to the cloud's front
    /// door, in arrival order.
    pub sample_to_cloud: Vec<SimDuration>,
    gateway: Gateway,
    rules: Vec<Rule>,
    /// The cloud's downlink, flushed at each grid poll.
    router: CommandRouter,
    cloud: IngestPipeline,
    tenant: TenantId,
    /// The border adapter's index in the gateway, and its device name.
    border: (usize, String),
    inbox: Rc<Inbox>,
    /// How many of the root's readings went to `inbox` so far.
    handed_over: usize,
    next_poll: SimTime,
    /// Everything the gateway publishes, in publish order.
    uplink: CloudUplink,
    /// Each point's cloud device, provisioned on first sight.
    devices: BTreeMap<String, u32>,
}

impl Northbound {
    /// The gateway: the caller's wired adapters plus the border router.
    pub fn gateway(&self) -> &Gateway {
        &self.gateway
    }

    /// The gateway, mutably (e.g. to serve its northbound CoAP endpoint).
    pub fn gateway_mut(&mut self) -> &mut Gateway {
        &mut self.gateway
    }

    /// The cloud's ingest pipeline, with its write-ahead log attached.
    pub fn cloud(&self) -> &IngestPipeline {
        &self.cloud
    }

    /// The cloud device `point` was provisioned as, once published.
    pub fn device(&self, point: &str) -> Option<u32> {
        self.devices.get(point).copied()
    }

    /// The twin of `point`'s device, once a reading of it was accepted.
    pub fn twin(&self, point: &str) -> Option<&DeviceTwin> {
        self.twins.twin(self.tenant, self.device(point)?)
    }

    /// Queues a cloud-issued write for the next grid poll, which
    /// acknowledges it over the gateway's CoAP server and applies it;
    /// its outcome then joins [`commands`](Northbound::commands).
    /// Returns `false`, queueing nothing, once [`COMMAND_CAP`] are
    /// waiting.
    pub fn command(&mut self, cmd: Command) -> bool {
        self.router.submit(cmd)
    }

    /// Walks every northbound instant up to `now`, in time order.
    fn catch_up(&mut self, collected: &[Collected], now: SimTime) {
        loop {
            let fresh = &collected[self.handed_over..];
            let t = fresh
                .first()
                .map_or(self.next_poll, |c| c.received_at.min(self.next_poll));
            if t > now {
                return;
            }
            let arrived = fresh.partition_point(|c| c.received_at <= t);
            self.inbox.borrow_mut().extend_from_slice(&fresh[..arrived]);
            self.handed_over += arrived;
            if t == self.next_poll {
                let acked = self.router.flush(self.gateway.coap_mut(), t);
                self.settle(t, acked);
                self.gateway.poll_all(t.as_micros());
                self.next_poll = t + POLL;
            } else {
                self.gateway.poll_adapter(self.border.0, t.as_micros());
            }
            let refused = self.carry(t);
            self.settle(t, refused);
        }
    }

    /// Keeps the outcomes of writes issued above the gateway, settled
    /// at `t`, and traces each once, as `cloud_command`.
    fn settle(&mut self, t: SimTime, outcomes: Vec<CommandOutcome>) {
        for outcome in outcomes {
            let (tenant, ok) = (u32::from(outcome.tenant.0), outcome.ok);
            let kind = EventKind::CloudCommand { tenant, ok };
            self.cloud.record(t, outcome.tenant, kind);
            self.commands.push(outcome);
        }
    }

    /// Hands each measurement the gateway just published at `t` to the
    /// cloud and, once accepted, to its twin and the rules. Returns the
    /// firings the full downlink refused.
    fn carry(&mut self, t: SimTime) -> Vec<CommandOutcome> {
        let (cloud, tenant) = (&mut self.cloud, self.tenant);
        let mut refused = Vec::new();
        for r in self.uplink.drain() {
            if r.point.starts_with("gateway/write-failed/") {
                continue; // a diagnostic, not telemetry
            }
            let devices = &mut self.devices;
            let device = *devices
                .entry(r.point.clone())
                .or_insert_with(|| cloud.register_fleet(tenant, 1));
            if r.device == self.border.1 {
                let sampled = SimTime::from_micros(r.timestamp_us);
                self.sample_to_cloud.push(t.duration_since(sampled));
            }
            let token = cloud.registry().token(tenant, device).expect("provisioned");
            if cloud.offer(UplinkMsg {
                tenant,
                device,
                token,
                value: r.value,
                t,
            }) {
                let writer = ReplicaId(u64::from(tenant.0));
                self.twins
                    .report(tenant, device, r.timestamp_us, writer, "value", r.value);
                let fires = |rule: &&Rule| rule.input == r.point && rule.fires(r.value);
                for rule in self.rules.iter().filter(fires) {
                    let cmd = Command {
                        tenant,
                        point: rule.output.clone(),
                        value: rule.command,
                    };
                    if !self.router.submit(cmd) {
                        let (point, ok) = (rule.output.clone(), false);
                        refused.push(CommandOutcome { tenant, point, ok });
                    }
                }
            }
        }
        refused
    }
}

/// A [`Deployment`]'s root as a gateway [`Adapter`]: hands on the
/// readings put in its inbox.
#[derive(Debug)]
struct BorderAdapter {
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
        let readings = self.inbox.take();
        let mut published = Vec::with_capacity(readings.len());
        for c in readings {
            let point = format!("{}/n{}", self.prefix, c.origin.0);
            if !self.points.iter().any(|p| p.point == point) {
                self.points.push(PointInfo {
                    point: point.clone(),
                    unit: Unit::Raw,
                    writable: false,
                });
            }
            published.push(Measurement {
                point,
                value: f64::from(c.seq),
                unit: Unit::Raw,
                quality: Quality::Good,
                timestamp_us: c.sent_at.as_micros(),
                device: self.prefix.clone(),
            });
        }
        published
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
    use iiot_cloud::decode_uplink;
    use iiot_coap::{CoapEndpoint, CoapEvent, Code};

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

    /// A three-node CSMA line with a gateway of `wired` attached,
    /// whose border points are `cell/n1` and `cell/n2`.
    fn bridged_to(wired: Gateway, rules: Vec<Rule>) -> Deployment {
        let mut d = Deployment::builder(line(3))
            .mac(MacChoice::Csma)
            .seed(0xB0)
            .traffic(SimDuration::from_secs(5), 6, SimDuration::from_secs(10))
            .build();
        d.attach_gateway(wired, "cell", rules);
        d
    }

    /// [`bridged_to`] after 30 s.
    fn attached(wired: Gateway, rules: Vec<Rule>) -> Deployment {
        let mut d = bridged_to(wired, rules);
        d.run_for(SimDuration::from_secs(30));
        d
    }

    fn bridged() -> Deployment {
        attached(Gateway::new(ReplicaId(1)), Vec::new())
    }

    fn gw(d: &mut Deployment) -> &mut Gateway {
        d.north.as_mut().expect("attached").gateway_mut()
    }

    /// Carries every datagram `from` has queued to `to`.
    fn deliver(from: &mut CoapEndpoint<u64>, to: &mut CoapEndpoint<u64>) {
        for (_, dgram) in from.take_outbox() {
            to.handle_datagram(0, &dgram, SimTime::ZERO);
        }
    }

    #[test]
    fn border_points_serve_the_latest_seq_over_coap() {
        let mut d = bridged();
        let north = d.north.as_ref().expect("attached");
        let points: Vec<String> = north.gateway().inventory()[0]
            .points
            .iter()
            .map(|p| p.point.clone())
            .collect();
        assert_eq!(points, ["cell/n1", "cell/n2"], "the root is not a sensor");
        let processed = north.gateway().measurements_processed();
        assert_eq!(processed, d.collected().len() as u64, "each reading once");
        let latest = d
            .collected()
            .iter()
            .rev()
            .find(|c| c.origin == NodeId(2))
            .expect("node 2 reported")
            .clone();
        assert_eq!(latest.hops, 2, "line of 3");
        let m = north.gateway().last("cell/n2").expect("cached");
        assert_eq!(m.value, f64::from(latest.seq));
        assert_eq!(m.timestamp_us, latest.sent_at.as_micros());
        assert_eq!(
            gw(&mut d).write_direct("cell/n2", 1.0),
            Err(WriteError::ReadOnly)
        );

        let mut client: CoapEndpoint<u64> = CoapEndpoint::new(9);
        client.get(0, "cell/n2", SimTime::ZERO);
        deliver(&mut client, gw(&mut d).coap_mut());
        deliver(gw(&mut d).coap_mut(), &mut client);
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
        let mut d = bridged();
        let added = d.extend(&std::iter::once(Pos::new(60.0, 0.0)).collect());
        assert_eq!(added, [NodeId(3)]);
        d.run_for(SimDuration::from_secs(60));
        let north = d.north.as_ref().expect("attached");
        assert!(
            north.gateway().last("cell/n3").is_some(),
            "the new node reported"
        );
        // ... is listed in the gateway's inventory ...
        let border = &north.gateway().inventory()[0];
        let points: Vec<&str> = border.points.iter().map(|p| p.point.as_str()).collect();
        assert_eq!(points, ["cell/n1", "cell/n2", "cell/n3"]);
        // ... and reached the cloud's log as a device provisioned for it.
        let device = north.device("cell/n3").expect("provisioned");
        let wal = north.cloud().wal().expect("logged");
        let logged = wal.iter_from(0).filter_map(|(_, r)| decode_uplink(r));
        assert!(logged.filter(|m| m.device == device).count() >= 1);

        assert_eq!(
            gw(&mut d).write_direct("cell/n3", 1.0),
            Err(WriteError::ReadOnly),
            "a known, read-only point"
        );

        let mut client: CoapEndpoint<u64> = CoapEndpoint::new(9);
        client.get(0, "cell/n3", SimTime::ZERO);
        deliver(&mut client, gw(&mut d).coap_mut());
        deliver(gw(&mut d).coap_mut(), &mut client);
        match &client.take_events()[..] {
            [CoapEvent::Response { code, .. }] => assert_eq!(*code, Code::Content),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn border_observers_are_pushed_new_readings() {
        let mut d = bridged();
        let mut client: CoapEndpoint<u64> = CoapEndpoint::new(9);
        client.observe(0, "cell/n1", SimTime::ZERO);
        deliver(&mut client, gw(&mut d).coap_mut());
        deliver(gw(&mut d).coap_mut(), &mut client);
        client.take_events();

        // More readings arrive over the air, and reach the gateway as
        // they arrive.
        d.run_for(SimDuration::from_secs(20));
        deliver(gw(&mut d).coap_mut(), &mut client);
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
        let mut d = bridged();
        let now = d.sim.now().as_micros();
        let bus = gw(&mut d).bus().subscribe("cell/");
        assert_eq!(gw(&mut d).poll_all(now), 0, "every reading already carried");
        assert_eq!(bus.try_iter().count(), 0);
        // Thirty grid polls and one poll per arrival published each
        // reading exactly once.
        let processed = gw(&mut d).measurements_processed();
        assert_eq!(processed, d.collected().len() as u64);
    }

    /// A boiler whose valve, once closed, cools it by 5 C, and whose
    /// drain refuses every write.
    #[derive(Debug)]
    struct Boiler {
        temp: f64,
        valve: f64,
    }

    impl Adapter for Boiler {
        fn device(&self) -> &str {
            "boiler"
        }
        fn protocol(&self) -> &'static str {
            "test"
        }
        fn points(&self) -> Vec<PointInfo> {
            ["boiler/temp", "boiler/valve", "boiler/drain"]
                .map(|point| PointInfo {
                    point: point.into(),
                    unit: Unit::Raw,
                    writable: point != "boiler/temp",
                })
                .to_vec()
        }
        fn poll(&mut self, now_us: u64) -> Vec<Measurement> {
            [("boiler/temp", self.temp), ("boiler/valve", self.valve)]
                .map(|(point, value)| Measurement {
                    point: point.into(),
                    value,
                    unit: Unit::Raw,
                    quality: Quality::Good,
                    timestamp_us: now_us,
                    device: "boiler".into(),
                })
                .to_vec()
        }
        fn write(&mut self, point: &str, value: f64) -> Result<(), WriteError> {
            match point {
                "boiler/valve" => {}
                "boiler/drain" => return Err(WriteError::DeviceError),
                _ => return Err(WriteError::NoSuchPoint),
            }
            self.valve = value;
            if value == 0.0 {
                self.temp -= 5.0;
            }
            Ok(())
        }
    }

    fn boiler_gateway(temp: f64) -> Gateway {
        let mut gw = Gateway::new(ReplicaId(1));
        gw.add_adapter(Box::new(Boiler { temp, valve: 1.0 }));
        gw
    }

    fn overheat_rule() -> Rule {
        Rule {
            input: "boiler/temp".into(),
            above: true,
            threshold: 90.0,
            output: "boiler/valve".into(),
            command: 0.0,
        }
    }

    #[test]
    fn rule_predicate() {
        let r = overheat_rule();
        assert!(r.fires(95.0));
        assert!(!r.fires(85.0));
        let mut low = overheat_rule();
        low.above = false;
        assert!(low.fires(85.0));
    }

    /// `(point, ok)` of every write settled so far, in order.
    fn settled(north: &Northbound) -> Vec<(&str, bool)> {
        let commands = north.commands.iter();
        commands.map(|c| (c.point.as_str(), c.ok)).collect()
    }

    #[test]
    fn closed_loop_through_all_three_layers() {
        let d = attached(boiler_gateway(95.0), vec![overheat_rule()]);
        let north = d.north.as_ref().expect("attached");
        // The first grid poll, at 0 s, sees 95 C and fires the rule; the
        // next one, at 1 s, acks and applies its command before it
        // polls, which cools the boiler below the threshold: the rule
        // then stays quiet.
        assert_eq!(settled(north), [("boiler/valve", true)]);
        let valve = north.device("boiler/valve").expect("provisioned");
        let wal = north.cloud().wal().expect("logged");
        let logged = wal.iter_from(0).filter_map(|(_, r)| decode_uplink(r));
        let history: Vec<(u64, f64)> = logged
            .filter(|m| m.device == valve)
            .map(|m| (m.t.as_micros(), m.value))
            .take(2)
            .collect();
        assert_eq!(history, [(0, 1.0), (1_000_000, 0.0)]);
        let twin = north.twin("boiler/temp").expect("twin");
        assert_eq!(twin.reported.get(&"value".to_owned()), Some(&90.0));
    }

    /// A device that reports once and then has nothing new.
    struct OneShot(bool);

    impl Adapter for OneShot {
        fn device(&self) -> &str {
            "one-shot"
        }
        fn protocol(&self) -> &'static str {
            "test"
        }
        fn points(&self) -> Vec<PointInfo> {
            vec![PointInfo {
                point: "boiler/temp".into(),
                unit: Unit::Raw,
                writable: false,
            }]
        }
        fn poll(&mut self, now_us: u64) -> Vec<Measurement> {
            if std::mem::replace(&mut self.0, true) {
                return Vec::new();
            }
            vec![Measurement {
                point: "boiler/temp".into(),
                value: 99.0,
                unit: Unit::Raw,
                quality: Quality::Good,
                timestamp_us: now_us,
                device: "one-shot".into(),
            }]
        }
        fn write(&mut self, _: &str, _: f64) -> Result<(), WriteError> {
            Err(WriteError::ReadOnly)
        }
    }

    #[test]
    fn a_gateway_acquires_only_what_its_poll_published() {
        let mut gw = boiler_gateway(20.0);
        gw.add_adapter(Box::new(OneShot(false)));
        let d = attached(gw, vec![overheat_rule()]);
        let north = d.north.as_ref().expect("attached");
        // Thirty-one grid polls, but the one-shot reading is published,
        // seen by the rule and logged once.
        assert_eq!(settled(north), [("boiler/valve", true)]);
        let wal = north.cloud().wal().expect("logged");
        let hot = wal
            .iter_from(0)
            .filter_map(|(_, r)| decode_uplink(r))
            .filter(|m| m.value == 99.0);
        assert_eq!(hot.count(), 1);
    }

    #[test]
    fn actuation_failure_not_recorded() {
        let mut bad_rule = overheat_rule();
        bad_rule.output = "no/such/point".into();
        let mut d = bridged_to(boiler_gateway(99.0), vec![bad_rule]);
        let failed = gw(&mut d).bus().subscribe("gateway/write-failed/");
        d.run_for(SimDuration::from_secs(30));
        let north = d.north.as_ref().expect("attached");
        // Fired at every grid poll, refused at every flush from 1 s to
        // 30 s (the 30 s firing is still queued): nothing was written.
        assert_eq!(settled(north), [("no/such/point", false); 30]);
        assert_eq!(failed.try_iter().count(), 0, "no write was queued to fail");
        let twin = north.twin("boiler/temp").expect("twin");
        assert_eq!(twin.reported.get(&"value".to_owned()), Some(&99.0));
        let valve = north.gateway().last("boiler/valve").expect("polled");
        assert_eq!(valve.value, 1.0);
    }

    #[test]
    fn failed_northbound_writes_are_diagnostics_not_telemetry() {
        // A rule that would fire on any value the diagnostic carries.
        let diagnostic = Rule {
            input: "gateway/write-failed/boiler/drain".into(),
            above: false,
            threshold: f64::INFINITY,
            output: "boiler/valve".into(),
            command: 0.0,
        };
        let mut d = attached(boiler_gateway(20.0), vec![diagnostic]);
        // Accepted over CoAP, refused by the boiler at the next grid poll.
        let mut scada: CoapEndpoint<u64> = CoapEndpoint::new(9);
        scada.put(0, "boiler/drain", b"1".to_vec(), SimTime::ZERO);
        deliver(&mut scada, gw(&mut d).coap_mut());
        let failed = gw(&mut d).bus().subscribe("gateway/write-failed/");
        d.run_for(POLL);
        assert_eq!(failed.try_iter().count(), 1, "the gateway reported it");
        let north = d.north.as_ref().expect("attached");
        assert!(north.commands.is_empty(), "no rule saw it");
        assert_eq!(north.device("gateway/write-failed/boiler/drain"), None);
    }

    fn command(point: &str, value: f64) -> Command {
        Command {
            tenant: TenantId(0),
            point: point.into(),
            value,
        }
    }

    #[test]
    fn a_cloud_command_is_acked_and_applied_at_the_next_grid_poll() {
        let mut d = attached(boiler_gateway(20.0), Vec::new());
        let north = d.north.as_mut().expect("attached");
        assert!(north.command(command("boiler/valve", 0.5)));
        // Readings arrive between grid instants; none flushes the queue.
        d.run_for(POLL / 2);
        assert!(d.north.as_ref().expect("attached").commands.is_empty());
        d.run_for(POLL / 2);
        let north = d.north.as_ref().expect("attached");
        let acked: Vec<(&str, bool)> = north
            .commands
            .iter()
            .map(|c| (c.point.as_str(), c.ok))
            .collect();
        assert_eq!(acked, [("boiler/valve", true)]);
        // The 31 s poll applied it, and published the new position.
        let valve = north.gateway().last("boiler/valve").expect("polled");
        assert_eq!((valve.value, valve.timestamp_us), (0.5, 31_000_000));
        let twin = north.twin("boiler/valve").expect("twin");
        assert_eq!(twin.reported.get(&"value".to_owned()), Some(&0.5));
        let device = north.device("boiler/valve").expect("provisioned");
        let wal = north.cloud().wal().expect("logged");
        let logged = wal.iter_from(0).filter_map(|(_, r)| decode_uplink(r));
        let history: Vec<(u64, f64)> = logged
            .filter(|m| m.device == device)
            .map(|m| (m.t.as_micros(), m.value))
            .skip(30)
            .collect();
        assert_eq!(history, [(30_000_000, 1.0), (31_000_000, 0.5)]);
    }

    #[test]
    fn a_cloud_command_to_a_read_only_border_point_fails_and_writes_nothing() {
        let mut d = bridged();
        let failed = gw(&mut d).bus().subscribe("gateway/write-failed/");
        let north = d.north.as_mut().expect("attached");
        assert!(north.command(command("cell/n1", -1.0)));
        d.run_for(POLL);
        let north = d.north.as_ref().expect("attached");
        let acked: Vec<(&str, bool)> = north
            .commands
            .iter()
            .map(|c| (c.point.as_str(), c.ok))
            .collect();
        assert_eq!(acked, [("cell/n1", false)]);
        // Refused at the CoAP server: no write was queued to fail.
        assert_eq!(failed.try_iter().count(), 0);
    }

    /// A rule that fires on every reading of `cell/n1`.
    fn on_every_n1_reading() -> Rule {
        Rule {
            input: "cell/n1".into(),
            above: false,
            threshold: f64::INFINITY,
            output: "boiler/valve".into(),
            command: 0.0,
        }
    }

    #[test]
    fn a_rule_firing_into_a_full_downlink_is_refused_and_recorded() {
        let mut d = attached(boiler_gateway(20.0), vec![on_every_n1_reading()]);
        // Fill the downlink at a grid instant until a window holds a
        // reading of `cell/n1`, which arrives between grid instants.
        for _ in 0..10 {
            let start = d.sim.now();
            let north = d.north.as_mut().expect("attached");
            let before = north.commands.len();
            for i in 0..COMMAND_CAP {
                assert!(north.command(command("boiler/valve", i as f64)));
            }
            d.run_for(POLL);
            let n1 = (d.collected().iter())
                .filter(|c| c.origin == NodeId(1) && c.received_at > start)
                .filter(|c| c.received_at < d.sim.now())
                .count();
            let north = d.north.as_ref().expect("attached");
            let mut expected = vec![("boiler/valve", false); n1];
            expected.extend([("boiler/valve", true); COMMAND_CAP]);
            assert_eq!(settled(north)[before..], expected, "window at {start}");
            if n1 > 0 {
                return;
            }
        }
        panic!("no reading of cell/n1 arrived between grid instants");
    }

    #[test]
    fn commands_past_the_cap_are_refused() {
        let mut d = attached(boiler_gateway(20.0), Vec::new());
        let north = d.north.as_mut().expect("attached");
        for i in 0..COMMAND_CAP {
            assert!(north.command(command("boiler/valve", i as f64)));
        }
        assert!(!north.command(command("boiler/valve", -1.0)));
        d.run_for(POLL);
        let north = d.north.as_mut().expect("attached");
        assert_eq!(north.commands.len(), COMMAND_CAP);
        assert!(north.command(command("boiler/valve", 1.0)), "room again");
    }
}
