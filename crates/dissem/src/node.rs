//! The per-node dissemination state machine: Trickle-governed
//! advertisements, page requests and chunk transfers over any
//! [`Mac`], with flash-persistent download progress.

use crate::image::{missing_mask, Image, ImageMeta, PageStore};
use iiot_coap::block::{BlockAssembler, BlockOpt, BlockProgress};
use iiot_coap::message::{option, Code, Message};
use iiot_mac::{Mac, MacError, SendHandle, Service, Stack};
use iiot_routing::trickle::{Trickle, TrickleConfig};
use iiot_sim::obs::EventKind;
use iiot_sim::{
    Ctx, Dst, Frame, NodeId, Proto, RxInfo, SimDuration, SimTime, Timer, TimerId, TxOutcome,
};
use rand::Rng;
use std::collections::VecDeque;

/// Upper port of advertisement packets.
pub const PORT_ADV: u8 = 40;
/// Upper port of page-request packets.
pub const PORT_REQ: u8 = 41;
/// Upper port of chunk-data packets.
pub const PORT_DATA: u8 = 42;

const TAG_TRICKLE_T: u64 = 0x210;
const TAG_TRICKLE_END: u64 = 0x211;
const TAG_PUMP: u64 = 0x212;
const TAG_REQ: u64 = 0x213;

/// Retry pacing when the MAC queue is full.
pub const PUMP_PERIOD: SimDuration = SimDuration::from_millis(200);

/// Configuration of a [`DissemNode`].
#[derive(Clone, Debug)]
pub struct DissemConfig {
    /// Trickle parameters governing advertisement density.
    pub trickle: TrickleConfig,
    /// Whether the node participates in downloads from boot. Staged
    /// rollouts start nodes disabled and flip them cohort by cohort
    /// (see [`rollout::drive`](crate::rollout::drive)).
    pub enabled: bool,
    /// Send DATA chunks unicast to the requester instead of broadcast.
    /// Needed under schedules that fix each slot's receiver (TDMA);
    /// broadcast serves overhearing neighbours for free under CSMA/LPL.
    pub unicast_data: bool,
    /// Advertise by unicast to these peers instead of broadcasting.
    /// TDMA tree schedules carry no broadcast slots, so each node
    /// advertises to its tree neighbours.
    pub adv_peers: Option<Vec<NodeId>>,
    /// Base backoff before requesting a page (randomized in
    /// `[backoff, 2*backoff)`); retries every `4*backoff` of silence.
    pub req_backoff: SimDuration,
}

impl Default for DissemConfig {
    fn default() -> Self {
        DissemConfig {
            trickle: TrickleConfig {
                imin: SimDuration::from_millis(250),
                doublings: 8,
                k: 2,
            },
            enabled: true,
            unicast_data: false,
            adv_peers: None,
            req_backoff: SimDuration::from_millis(100),
        }
    }
}

/// In-progress fetch of one page (RAM: lost on crash, rebuilt from the
/// flash page bitmap on recovery).
#[derive(Clone, Debug)]
struct Fetch {
    page: u32,
    missing: u64,
    page_crc: Option<u32>,
}

/// A dissemination node: a [`Dissem`] hosted alone on a MAC, plus the
/// gateway's backbone side.
pub struct DissemNode<M: Mac> {
    stack: Stack<M>,
    dissem: Dissem,
    blk: BlockAssembler,
}

/// The dissemination protocol as a [`Service`]: advertises its image
/// state under Trickle, requests missing pages in order, serves
/// verified pages to neighbours, and persists progress in a
/// [`PageStore`] so a crash-recovered node resumes mid-image; see the
/// [crate docs](crate) for the protocol walkthrough.
pub struct Dissem {
    cfg: DissemConfig,
    /// Flash: survives `crashed`, erased by `wiped`.
    store: PageStore,
    enabled: bool,
    // --- volatile (RAM) state below ---
    trickle: Trickle,
    t_timer: TimerId,
    end_timer: TimerId,
    req_timer: TimerId,
    fetch: Option<Fetch>,
    source: Option<NodeId>,
    outq: VecDeque<(Dst, u8, Vec<u8>)>,
    queued: Vec<(u64, u32, u8)>,
    /// Oracle metric for experiments: first time this node held a
    /// verified copy. Deliberately not flash — it is measurement
    /// harness state, not protocol state.
    complete_at: Option<SimTime>,
}

fn encode_adv(meta: Option<ImageMeta>, have: u32) -> Vec<u8> {
    let m = meta.unwrap_or(ImageMeta {
        version: 0,
        len: 0,
        chunk_len: 1,
        page_chunks: 1,
        crc: 0,
    });
    let mut out = Vec::with_capacity(16);
    out.extend_from_slice(&m.version.to_be_bytes());
    out.extend_from_slice(&m.len.to_be_bytes());
    out.push(m.chunk_len);
    out.push(m.page_chunks);
    out.extend_from_slice(&m.crc.to_be_bytes());
    out.extend_from_slice(&(have as u16).to_be_bytes());
    out
}

fn decode_adv(b: &[u8]) -> Option<(ImageMeta, u32)> {
    if b.len() < 16 {
        return None;
    }
    let meta = ImageMeta {
        version: u32::from_be_bytes(b[0..4].try_into().ok()?),
        len: u32::from_be_bytes(b[4..8].try_into().ok()?),
        chunk_len: b[8].max(1),
        page_chunks: b[9].clamp(1, 64),
        crc: u32::from_be_bytes(b[10..14].try_into().ok()?),
    };
    let have = u16::from_be_bytes(b[14..16].try_into().ok()?) as u32;
    Some((meta, have))
}

fn encode_req(version: u32, page: u32, missing: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(14);
    out.extend_from_slice(&version.to_be_bytes());
    out.extend_from_slice(&(page as u16).to_be_bytes());
    out.extend_from_slice(&missing.to_be_bytes());
    out
}

fn decode_req(b: &[u8]) -> Option<(u32, u32, u64)> {
    if b.len() < 14 {
        return None;
    }
    Some((
        u32::from_be_bytes(b[0..4].try_into().ok()?),
        u16::from_be_bytes(b[4..6].try_into().ok()?) as u32,
        u64::from_be_bytes(b[6..14].try_into().ok()?),
    ))
}

fn encode_data(version: u32, page: u32, chunk: u8, page_crc: u32, bytes: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(11 + bytes.len());
    out.extend_from_slice(&version.to_be_bytes());
    out.extend_from_slice(&(page as u16).to_be_bytes());
    out.push(chunk);
    out.extend_from_slice(&page_crc.to_be_bytes());
    out.extend_from_slice(bytes);
    out
}

fn decode_data(b: &[u8]) -> Option<(u32, u32, u8, u32, &[u8])> {
    if b.len() < 11 {
        return None;
    }
    Some((
        u32::from_be_bytes(b[0..4].try_into().ok()?),
        u16::from_be_bytes(b[4..6].try_into().ok()?) as u32,
        b[6],
        u32::from_be_bytes(b[7..11].try_into().ok()?),
        &b[11..],
    ))
}

fn dst_key(dst: Dst) -> u64 {
    match dst {
        Dst::Broadcast => u64::MAX,
        Dst::Unicast(n) => n.0 as u64,
    }
}

impl<M: Mac> DissemNode<M> {
    /// Creates a node over `mac`.
    pub fn new(mac: M, cfg: DissemConfig) -> Self {
        DissemNode {
            stack: Stack::new(mac),
            dissem: Dissem::new(cfg),
            blk: BlockAssembler::new(),
        }
    }

    /// The flash image store (inspection).
    pub fn store(&self) -> &PageStore {
        &self.dissem.store
    }

    /// First time this node held a verified image, if ever. The value
    /// is an experiment oracle: it survives crashes and wipes.
    pub fn complete_at(&self) -> Option<SimTime> {
        self.dissem.complete_at
    }

    /// Whether the node currently holds a verified image.
    pub fn complete_ok(&self) -> bool {
        self.dissem.store.complete_ok()
    }

    /// Whether the node finalized a bad image (quarantined).
    pub fn poisoned(&self) -> bool {
        self.dissem.store.poisoned()
    }

    /// Whether the node participates in downloads.
    pub fn is_enabled(&self) -> bool {
        self.dissem.enabled
    }

    /// Seeds this node with a trusted image; see [`Dissem::install`].
    pub fn install(&mut self, ctx: &mut Ctx<'_>, image: &Image) {
        self.dissem.install(ctx, image);
    }

    /// Flips the node into the download-enabled state (staged-rollout
    /// cohort activation) and restarts Trickle so its out-of-date
    /// advertisement goes out promptly.
    pub fn enable(&mut self, ctx: &mut Ctx<'_>) {
        if !self.dissem.enabled {
            self.dissem.enabled = true;
            self.dissem.reset_trickle(ctx, true);
        }
    }
}

impl Dissem {
    /// Creates the service.
    pub fn new(cfg: DissemConfig) -> Self {
        let enabled = cfg.enabled;
        let trickle = Trickle::new(cfg.trickle);
        Dissem {
            cfg,
            store: PageStore::new(),
            enabled,
            trickle,
            t_timer: TimerId::NONE,
            end_timer: TimerId::NONE,
            req_timer: TimerId::NONE,
            fetch: None,
            source: None,
            outq: VecDeque::new(),
            queued: Vec::new(),
            complete_at: None,
        }
    }

    /// First time this node held a verified image, if ever.
    pub fn complete_at(&self) -> Option<SimTime> {
        self.complete_at
    }

    /// Seeds this node with a complete, *trusted* image (the gateway
    /// path: the backend vouches for its own build, which is exactly
    /// the failure mode a poisoned image exploits). Starts advertising
    /// it immediately.
    pub fn install(&mut self, ctx: &mut Ctx<'_>, image: &Image) {
        let ok = self.store.install(image);
        ctx.emit(EventKind::DissemComplete {
            version: image.meta().version,
            ok,
        });
        if self.complete_at.is_none() {
            self.complete_at = Some(ctx.now());
        }
        self.reset_trickle(ctx, true);
    }

    fn restart_interval(&mut self, ctx: &mut Ctx<'_>) {
        ctx.cancel_timer(self.t_timer);
        ctx.cancel_timer(self.end_timer);
        let iv = self.trickle.begin_interval(ctx.rng());
        self.t_timer = ctx.set_timer(iv.t, TAG_TRICKLE_T);
        self.end_timer = ctx.set_timer(iv.end, TAG_TRICKLE_END);
    }

    /// Trickle reset on inconsistency; `force` restarts the interval
    /// even when already at `Imin` (used after local state changes —
    /// new page, activation — where prompt advertisement matters).
    fn reset_trickle(&mut self, ctx: &mut Ctx<'_>, force: bool) {
        if self.trickle.inconsistent() || force {
            self.restart_interval(ctx);
        }
    }

    fn send_adv<M: Mac>(&mut self, mac: &mut M, ctx: &mut Ctx<'_>) {
        let meta = self.store.meta();
        let have = self.store.have_pages();
        let body = encode_adv(meta, have);
        ctx.emit(EventKind::DissemAdv {
            version: meta.map_or(0, |m| m.version),
            have,
        });
        match &self.cfg.adv_peers {
            None => self.enqueue(mac, ctx, Dst::Broadcast, PORT_ADV, body),
            Some(peers) => {
                for &p in &peers.clone() {
                    self.enqueue(mac, ctx, Dst::Unicast(p), PORT_ADV, body.clone());
                }
            }
        }
    }

    fn arm_req(&mut self, ctx: &mut Ctx<'_>, base: SimDuration) {
        ctx.cancel_timer(self.req_timer);
        let us = base.as_micros().max(1);
        let jitter = ctx.rng().gen_range(0..us);
        self.req_timer = ctx.set_timer(SimDuration::from_micros(us + jitter), TAG_REQ);
    }

    fn wants_pages(&self) -> bool {
        self.enabled
            && !self.store.poisoned()
            && self.store.meta().is_some()
            && self.store.first_missing_page().is_some()
    }

    fn fire_req<M: Mac>(&mut self, mac: &mut M, ctx: &mut Ctx<'_>) {
        if !self.wants_pages() {
            return;
        }
        let Some(src) = self.source else {
            // No known provider yet: wait for the next advertisement.
            return;
        };
        let meta = self.store.meta().expect("wants_pages");
        let page = self.store.first_missing_page().expect("wants_pages");
        let missing = match &self.fetch {
            Some(f) if f.page == page => f.missing,
            _ => missing_mask(&meta, page, |_| false),
        };
        ctx.emit(EventKind::DissemReq {
            version: meta.version,
            page,
        });
        self.enqueue(
            mac,
            ctx,
            Dst::Unicast(src),
            PORT_REQ,
            encode_req(meta.version, page, missing),
        );
        // Keep retrying until data flows (each accepted chunk pushes
        // the retry further out).
        self.arm_req(ctx, self.cfg.req_backoff * 4);
    }

    fn enqueue<M: Mac>(
        &mut self,
        mac: &mut M,
        ctx: &mut Ctx<'_>,
        dst: Dst,
        port: u8,
        body: Vec<u8>,
    ) {
        self.outq.push_back((dst, port, body));
        self.pump(mac, ctx);
    }

    fn pump<M: Mac>(&mut self, mac: &mut M, ctx: &mut Ctx<'_>) {
        while let Some((dst, port, body)) = self.outq.front() {
            let (dst, port, body) = (*dst, *port, body.clone());
            match mac.send(ctx, dst, port, body) {
                Ok(_) => {
                    if port == PORT_DATA {
                        ctx.emit(EventKind::DissemData {});
                    }
                    self.outq.pop_front();
                }
                Err(MacError::QueueFull) => {
                    ctx.set_timer(PUMP_PERIOD, TAG_PUMP);
                    return;
                }
                Err(MacError::TooLarge) => {
                    self.outq.pop_front();
                }
            }
        }
        // Everything queued is now owned by the MAC; chunk dedup keys
        // are only meaningful while their packet waits in our queue.
        self.queued.clear();
    }

    fn handle_adv(&mut self, ctx: &mut Ctx<'_>, src: NodeId, meta: ImageMeta, have: u32) {
        let my_v = self.store.version();
        let my_have = self.store.have_pages();
        if meta.version == my_v {
            if have == my_have {
                self.trickle.heard_consistent();
            } else if have < my_have {
                // They lag: make sure our richer advertisement goes out
                // soon so they learn where to fetch from.
                self.reset_trickle(ctx, false);
            } else {
                // They are ahead: fetch from them.
                self.source = Some(src);
                self.reset_trickle(ctx, false);
                if self.wants_pages() {
                    self.arm_req(ctx, self.cfg.req_backoff);
                }
            }
        } else if meta.version > my_v {
            if self.enabled {
                if !self.store.begin(meta) {
                    ctx.emit(EventKind::BadInput { msg: "dissem_adv" });
                    return;
                }
                self.fetch = None;
                self.source = Some(src);
                self.reset_trickle(ctx, true);
                self.arm_req(ctx, self.cfg.req_backoff);
            }
            // Disabled nodes ignore newer images entirely (staged
            // rollout): no state change, no Trickle reset.
        } else {
            // They run an older version: advertise ours promptly.
            self.reset_trickle(ctx, false);
        }
    }

    fn handle_req<M: Mac>(
        &mut self,
        mac: &mut M,
        ctx: &mut Ctx<'_>,
        src: NodeId,
        version: u32,
        page: u32,
        missing: u64,
    ) {
        // Note: a quarantined node still serves — dissemination moves
        // bits regardless of the image verdict (Deluge's separation of
        // transport from activation). Containment of a bad build is
        // the rollout controller's job, which E14c prices.
        if self.store.version() != version {
            return;
        }
        let Some(crc) = self.store.page_crc(page) else {
            return;
        };
        let meta = self.store.meta().expect("page served");
        let dst = if self.cfg.unicast_data {
            Dst::Unicast(src)
        } else {
            Dst::Broadcast
        };
        let key_dst = dst_key(dst);
        for c in 0..meta.chunks_in_page(page) {
            if missing & (1 << c) == 0 {
                continue;
            }
            if self.queued.contains(&(key_dst, page, c)) {
                // Already queued for this destination (a second REQ
                // raced the first answer): don't double-send.
                continue;
            }
            let Some(bytes) = self.store.chunk(page, c).map(<[u8]>::to_vec) else {
                continue;
            };
            self.queued.push((key_dst, page, c));
            self.enqueue(
                mac,
                ctx,
                dst,
                PORT_DATA,
                encode_data(version, page, c, crc, &bytes),
            );
        }
    }

    fn handle_data(
        &mut self,
        ctx: &mut Ctx<'_>,
        version: u32,
        page: u32,
        chunk: u8,
        page_crc: u32,
        bytes: &[u8],
    ) {
        if !self.wants_pages() || self.store.version() != version {
            return;
        }
        let meta = self.store.meta().expect("wants_pages");
        let want = self.store.first_missing_page().expect("wants_pages");
        if page != want || chunk >= meta.chunks_in_page(page) {
            // Pages are fetched strictly in order (Deluge): out-of-order
            // data is dropped, the bitmap stays one page wide.
            return;
        }
        let f = match &mut self.fetch {
            Some(f) if f.page == page => f,
            _ => {
                self.fetch = Some(Fetch {
                    page,
                    missing: missing_mask(&meta, page, |_| false),
                    page_crc: None,
                });
                self.fetch.as_mut().expect("just set")
            }
        };
        f.page_crc = Some(page_crc);
        if f.missing & (1 << chunk) == 0 {
            return;
        }
        f.missing &= !(1 << chunk);
        self.store.write_chunk(page, chunk, bytes);
        let done = f.missing == 0;
        let crc = f.page_crc;
        // Data is flowing: push the REQ retry out past the burst.
        self.arm_req(ctx, self.cfg.req_backoff);
        if !done {
            return;
        }
        self.fetch = None;
        if self.store.verify_page(page, crc.expect("set above")) {
            ctx.emit(EventKind::DissemPage {
                page,
                have: self.store.have_pages(),
            });
            if self.store.first_missing_page().is_none() {
                let ok = self.store.finalize();
                ctx.emit(EventKind::DissemComplete { version, ok });
                if ok && self.complete_at.is_none() {
                    self.complete_at = Some(ctx.now());
                }
                ctx.cancel_timer(self.req_timer);
                self.req_timer = TimerId::NONE;
            }
            // New page (or verdict): neighbours behind us need to hear.
            self.reset_trickle(ctx, true);
        }
    }
}

impl<M: Mac> Service<M> for Dissem {
    fn start(&mut self, _mac: &mut M, ctx: &mut Ctx<'_>) {
        self.restart_interval(ctx);
        if self.wants_pages() {
            // Crash recovery with partial flash: ask around once the
            // network answers our first advertisement.
            self.arm_req(ctx, self.cfg.req_backoff * 2);
        }
    }

    fn delivered(&mut self, mac: &mut M, ctx: &mut Ctx<'_>, src: NodeId, port: u8, payload: &[u8]) {
        match port {
            PORT_ADV => {
                if let Some((meta, have)) = decode_adv(payload) {
                    self.handle_adv(ctx, src, meta, have);
                }
            }
            PORT_REQ => {
                if let Some((v, page, missing)) = decode_req(payload) {
                    self.handle_req(mac, ctx, src, v, page, missing);
                }
            }
            PORT_DATA => {
                if let Some((v, page, chunk, crc, bytes)) = decode_data(payload) {
                    self.handle_data(ctx, v, page, chunk, crc, bytes);
                }
            }
            _ => {}
        }
    }

    /// Any completion frees a MAC queue slot, whoever sent it.
    fn send_done(&mut self, mac: &mut M, ctx: &mut Ctx<'_>, _: SendHandle, _acked: bool) {
        self.pump(mac, ctx);
    }

    fn timer(&mut self, mac: &mut M, ctx: &mut Ctx<'_>, timer: Timer) {
        match timer.tag {
            TAG_TRICKLE_T if timer.id == self.t_timer => {
                self.t_timer = TimerId::NONE;
                if self.trickle.should_transmit() {
                    self.send_adv(mac, ctx);
                }
            }
            TAG_TRICKLE_END if timer.id == self.end_timer => {
                self.end_timer = TimerId::NONE;
                self.trickle.interval_expired();
                self.restart_interval(ctx);
            }
            TAG_PUMP => self.pump(mac, ctx),
            TAG_REQ if timer.id == self.req_timer => {
                self.req_timer = TimerId::NONE;
                self.fire_req(mac, ctx);
            }
            _ => {}
        }
    }

    fn crashed(&mut self) {
        self.trickle = Trickle::new(self.cfg.trickle);
        self.t_timer = TimerId::NONE;
        self.end_timer = TimerId::NONE;
        self.req_timer = TimerId::NONE;
        self.fetch = None;
        self.source = None;
        self.outq.clear();
        self.queued.clear();
        // self.store survives: it is flash. self.enabled survives too —
        // cohort activation is a backend decision, not RAM.
    }
}

impl<M: Mac> Proto for DissemNode<M> {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        self.stack.start(&mut self.dissem, ctx);
    }

    fn timer(&mut self, ctx: &mut Ctx<'_>, timer: Timer) {
        self.stack.timer(&mut self.dissem, ctx, timer);
    }

    fn frame(&mut self, ctx: &mut Ctx<'_>, frame: &Frame, info: RxInfo) {
        self.stack.frame(&mut self.dissem, ctx, frame, info);
    }

    fn tx_done(&mut self, ctx: &mut Ctx<'_>, outcome: TxOutcome) {
        self.stack.tx_done(&mut self.dissem, ctx, outcome);
    }

    fn wire(&mut self, ctx: &mut Ctx<'_>, from: NodeId, payload: &[u8]) {
        // Backbone side: the gateway accepts a firmware image over CoAP
        // blockwise (Block1 PUT to /fw) and installs it as trusted.
        let Ok(msg) = Message::decode(payload) else {
            return;
        };
        if msg.code != Code::Put {
            return;
        }
        let Some(blk) = msg.option(option::BLOCK1).and_then(BlockOpt::from_bytes) else {
            return;
        };
        let reply = match self.blk.push(blk, &msg.payload) {
            BlockProgress::Continue(_) => {
                // RFC 7959 would answer 2.31 Continue; this CoAP subset
                // reuses 2.04 Changed for intermediate blocks.
                Message::response_to(&msg, Code::Changed)
                    .with_option(option::BLOCK1, blk.to_bytes())
            }
            BlockProgress::Done(bytes) => {
                if let Some(image) = Image::decode(&bytes) {
                    self.dissem.install(ctx, &image);
                    Message::response_to(&msg, Code::Changed)
                        .with_option(option::BLOCK1, blk.to_bytes())
                } else {
                    Message::response_to(&msg, Code::BadRequest)
                }
            }
            BlockProgress::Mismatch => {
                self.blk = BlockAssembler::new();
                Message::response_to(&msg, Code::RequestEntityIncomplete)
            }
        };
        ctx.wire_send(from, reply.encode());
    }

    fn crashed(&mut self) {
        self.stack.crashed(&mut self.dissem);
        self.blk = BlockAssembler::new();
    }

    fn wiped(&mut self) {
        self.crashed();
        self.dissem.store.wipe();
    }
}
