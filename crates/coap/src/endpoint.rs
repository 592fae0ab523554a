//! A transport-agnostic CoAP endpoint: client and server in one object.
//!
//! The endpoint is a sans-IO state machine: feed it datagrams with
//! [`handle_datagram`](CoapEndpoint::handle_datagram), drive its clock
//! with [`poll_timers`](CoapEndpoint::poll_timers), and drain
//! [`take_outbox`](CoapEndpoint::take_outbox) (datagrams to send) and
//! [`take_events`](CoapEndpoint::take_events) (application events).
//! This makes it equally usable over the simulator's backhaul wire, a
//! DODAG collection route, or a test harness's lossy shuttle.
//!
//! Supported: CON reliability with exponential backoff and message-id
//! deduplication, piggybacked responses, Observe (RFC 7641) with NON
//! notifications and RST-based cancellation, and Block2 (RFC 7959)
//! download transfers. Block1 uploads are answered with 4.13 (Request
//! Entity Too Large) — constrained servers commonly omit them.

use crate::block::{slice_block, BlockAssembler, BlockOpt, BlockProgress};
use crate::message::{option, Code, Message, MsgType};
use crate::observe::{NotifyOrder, ObserveRegistry};
use crate::reliability::{ConTracker, DedupCache, DueAction};
use crate::resource::{Handler, Request, ResourceMap, Response};
use iiot_sim::SimTime;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::{HashMap, VecDeque};
use std::fmt::Debug;
use std::hash::Hash;

/// Block2 block size for responses larger than one block (a power of
/// two in 16..=1024, RFC 7959).
pub const BLOCK_SIZE: usize = 64;

/// Application-visible endpoint events.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CoapEvent {
    /// A response (or observe notification) arrived for a request.
    Response {
        /// The request's token.
        token: Vec<u8>,
        /// Response code.
        code: Code,
        /// Payload (fully reassembled for blockwise transfers).
        payload: Vec<u8>,
        /// Observe sequence number for notifications.
        observe: Option<u32>,
    },
    /// A confirmable request exhausted its retransmissions or was
    /// reset by the peer.
    RequestFailed {
        /// The request's token.
        token: Vec<u8>,
    },
}

#[derive(Debug)]
struct ClientState<P> {
    peer: P,
    path: String,
    assembler: Option<BlockAssembler>,
    observing: bool,
    order: NotifyOrder,
}

/// A combined CoAP client/server endpoint; see the [module docs](self).
pub struct CoapEndpoint<P> {
    next_mid: u16,
    next_token: u32,
    tracker: ConTracker<P>,
    dedup: DedupCache<P>,
    resources: ResourceMap,
    observers: ObserveRegistry<P>,
    clients: HashMap<Vec<u8>, ClientState<P>>,
    /// Recently sent notification mids, for RST-based cancellation.
    recent_notifies: VecDeque<(u16, P, Vec<u8>)>,
    outbox: Vec<(P, Vec<u8>)>,
    events: Vec<CoapEvent>,
    retx_log: Vec<u32>,
    rng: SmallRng,
}

impl<P: Copy + Eq + Hash + Debug> CoapEndpoint<P> {
    /// Creates an endpoint; `seed` drives retransmission jitter.
    pub fn new(seed: u64) -> Self {
        CoapEndpoint {
            next_mid: 1,
            next_token: 1,
            tracker: ConTracker::default(),
            dedup: DedupCache::new(64),
            resources: ResourceMap::new(),
            observers: ObserveRegistry::new(),
            clients: HashMap::new(),
            recent_notifies: VecDeque::new(),
            outbox: Vec::new(),
            events: Vec::new(),
            retx_log: Vec::new(),
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    // ------------------------------------------------------------------
    // Server API
    // ------------------------------------------------------------------

    /// Registers a resource handler at `path`.
    pub fn add_resource(&mut self, path: &str, handler: Handler) {
        self.resources.add(path, handler);
    }

    /// Notifies every observer of `path` with the resource's current
    /// representation (non-confirmable notifications).
    pub fn notify(&mut self, path: &str, _now: SimTime) {
        let req = Request {
            method: Code::Get,
            path: path.to_owned(),
            query: vec![],
            payload: vec![],
        };
        let resp = self.resources.dispatch(&req);
        for obs in self.observers.notify(path) {
            let mid = self.alloc_mid();
            let mut msg = Message {
                mtype: MsgType::NonConfirmable,
                code: resp.code,
                message_id: mid,
                token: obs.token.clone(),
                options: Vec::new(),
                payload: resp.payload.clone(),
            };
            msg.set_observe(obs.seq);
            if self.recent_notifies.len() >= 64 {
                self.recent_notifies.pop_front();
            }
            self.recent_notifies.push_back((mid, obs.peer, obs.token));
            self.outbox.push((obs.peer, msg.encode()));
        }
    }

    /// Number of registered observers (diagnostics).
    pub fn observer_count(&self) -> usize {
        self.observers.len()
    }

    // ------------------------------------------------------------------
    // Client API
    // ------------------------------------------------------------------

    /// Sends a confirmable GET. Returns the token identifying the
    /// exchange in later events.
    pub fn get(&mut self, peer: P, path: &str, now: SimTime) -> Vec<u8> {
        self.request(peer, Code::Get, path, Vec::new(), None, now)
    }

    /// Sends a confirmable PUT.
    pub fn put(&mut self, peer: P, path: &str, payload: Vec<u8>, now: SimTime) -> Vec<u8> {
        self.request(peer, Code::Put, path, payload, None, now)
    }

    /// Sends a confirmable POST.
    pub fn post(&mut self, peer: P, path: &str, payload: Vec<u8>, now: SimTime) -> Vec<u8> {
        self.request(peer, Code::Post, path, payload, None, now)
    }

    /// Sends a confirmable DELETE.
    pub fn delete(&mut self, peer: P, path: &str, now: SimTime) -> Vec<u8> {
        self.request(peer, Code::Delete, path, Vec::new(), None, now)
    }

    /// Registers as an observer of `path`; notifications arrive as
    /// [`CoapEvent::Response`] with `observe: Some(_)`.
    pub fn observe(&mut self, peer: P, path: &str, now: SimTime) -> Vec<u8> {
        self.request(peer, Code::Get, path, Vec::new(), Some(0), now)
    }

    /// Cancels an observation established with
    /// [`observe`](CoapEndpoint::observe).
    pub fn stop_observe(&mut self, token: &[u8], now: SimTime) {
        let Some(state) = self.clients.get(token) else {
            return;
        };
        let peer = state.peer;
        let path = state.path.clone();
        self.clients.remove(token);
        let mid = self.alloc_mid();
        let mut msg = Message::request(Code::Get, mid, token.to_vec()).with_path(&path);
        msg.set_observe(1);
        self.tracker.register(peer, msg.clone(), now, &mut self.rng);
        self.outbox.push((peer, msg.encode()));
    }

    fn request(
        &mut self,
        peer: P,
        code: Code,
        path: &str,
        payload: Vec<u8>,
        observe: Option<u32>,
        now: SimTime,
    ) -> Vec<u8> {
        let mid = self.alloc_mid();
        let token = self.alloc_token();
        let mut msg = Message::request(code, mid, token.clone())
            .with_path(path)
            .with_payload(payload);
        if let Some(o) = observe {
            msg.set_observe(o);
        }
        self.clients.insert(
            token.clone(),
            ClientState {
                peer,
                path: path.to_owned(),
                assembler: None,
                observing: observe == Some(0),
                order: NotifyOrder::new(),
            },
        );
        self.tracker.register(peer, msg.clone(), now, &mut self.rng);
        self.outbox.push((peer, msg.encode()));
        token
    }

    fn alloc_mid(&mut self) -> u16 {
        let mid = self.next_mid;
        self.next_mid = self.next_mid.wrapping_add(1).max(1);
        mid
    }

    fn alloc_token(&mut self) -> Vec<u8> {
        let t = self.next_token;
        self.next_token = self.next_token.wrapping_add(1);
        t.to_be_bytes().to_vec()
    }

    // ------------------------------------------------------------------
    // I/O plumbing
    // ------------------------------------------------------------------

    /// Datagrams waiting to be sent `(peer, bytes)`.
    pub fn take_outbox(&mut self) -> Vec<(P, Vec<u8>)> {
        std::mem::take(&mut self.outbox)
    }

    /// The datagrams waiting to be sent to `peer`, in queue order; those
    /// for other peers stay queued.
    pub fn take_outbox_to(&mut self, peer: P) -> Vec<(P, Vec<u8>)> {
        let (mine, rest) = std::mem::take(&mut self.outbox)
            .into_iter()
            .partition(|(to, _)| *to == peer);
        self.outbox = rest;
        mine
    }

    /// Application events since the last call.
    pub fn take_events(&mut self) -> Vec<CoapEvent> {
        std::mem::take(&mut self.events)
    }

    /// Earliest retransmission deadline, for timer scheduling.
    pub fn next_wakeup(&self) -> Option<SimTime> {
        self.tracker.next_deadline()
    }

    /// Total confirmable retransmissions performed so far; the
    /// difference between two reads is the retransmission count of the
    /// interval, which sim drivers turn into `CoapRetx` events.
    pub fn retransmissions(&self) -> u64 {
        self.tracker.retransmissions()
    }

    /// Drains the attempt numbers of retransmissions performed since
    /// the last call (for structured-event emission).
    pub fn take_retransmissions(&mut self) -> Vec<u32> {
        std::mem::take(&mut self.retx_log)
    }

    /// Runs retransmission/give-up processing at `now`.
    pub fn poll_timers(&mut self, now: SimTime) {
        for action in self.tracker.due(now) {
            match action {
                DueAction::Retransmit(peer, msg, attempt) => {
                    self.retx_log.push(attempt);
                    self.outbox.push((peer, msg.encode()));
                }
                DueAction::GiveUp(ex) => {
                    if self.clients.remove(&ex.msg.token).is_some() {
                        self.events.push(CoapEvent::RequestFailed {
                            token: ex.msg.token.clone(),
                        });
                    }
                }
            }
        }
    }

    /// Processes one received datagram from `peer`.
    pub fn handle_datagram(&mut self, peer: P, bytes: &[u8], now: SimTime) {
        let Ok(msg) = Message::decode(bytes) else {
            return; // robustness: ignore garbage
        };
        match msg.mtype {
            MsgType::Reset => self.on_reset(peer, &msg),
            MsgType::Ack if msg.code == Code::Empty => {
                self.tracker.acked(msg.message_id);
            }
            _ if msg.code.is_request() => self.on_request(peer, msg),
            _ if msg.code.is_response() => self.on_response(peer, msg, now),
            _ => {}
        }
    }

    fn on_reset(&mut self, peer: P, msg: &Message) {
        // RST of one of our CON requests: fail it.
        if let Some(ex) = self.tracker.acked(msg.message_id) {
            if self.clients.remove(&ex.msg.token).is_some() {
                self.events.push(CoapEvent::RequestFailed {
                    token: ex.msg.token,
                });
            }
            return;
        }
        // RST of one of our notifications: cancel that observation.
        if let Some(pos) = self
            .recent_notifies
            .iter()
            .position(|(mid, p, _)| *mid == msg.message_id && *p == peer)
        {
            let (_, p, token) = self.recent_notifies.remove(pos).expect("indexed");
            self.observers.deregister(p, &token);
        }
    }

    fn on_request(&mut self, peer: P, msg: Message) {
        // Deduplicate confirmable requests.
        if msg.mtype == MsgType::Confirmable {
            match self.dedup.check(peer, msg.message_id) {
                Some(Some(cached)) => {
                    self.outbox.push((peer, cached));
                    return;
                }
                Some(None) => return,
                None => {}
            }
        }
        let req = Request {
            method: msg.code,
            path: msg.uri_path(),
            query: msg
                .option_values(option::URI_QUERY)
                .map(|v| String::from_utf8_lossy(v).into_owned())
                .collect(),
            payload: msg.payload.clone(),
        };

        // Block1 uploads are not supported.
        let mut resp = if msg.option(option::BLOCK1).is_some() {
            Response {
                code: Code::RequestEntityTooLarge,
                payload: Vec::new(),
            }
        } else {
            self.resources.dispatch(&req)
        };

        // Observe registration / cancellation on successful GETs.
        let mut observe_seq = None;
        if msg.code == Code::Get && resp.code.is_success() {
            match msg.observe() {
                Some(0) => {
                    observe_seq = Some(self.observers.register(peer, msg.token.clone(), &req.path));
                }
                Some(1) => {
                    self.observers.deregister(peer, &msg.token);
                }
                _ => {}
            }
        }

        // Block2 slicing for large representations.
        let mut block2_out = None;
        if resp.code.is_success() {
            let requested = msg.option(option::BLOCK2).and_then(BlockOpt::from_bytes);
            let szx = requested
                .map(|b| b.szx)
                .unwrap_or_else(|| BlockOpt::szx_for_size(BLOCK_SIZE));
            let block = requested.unwrap_or(BlockOpt::new(0, false, szx));
            if resp.payload.len() > block.size() || block.num > 0 {
                match slice_block(&resp.payload, block) {
                    Some((bytes, more)) => {
                        resp.payload = bytes;
                        block2_out = Some(BlockOpt::new(block.num, more, szx));
                    }
                    None => {
                        resp = Response {
                            code: Code::BadRequest,
                            payload: Vec::new(),
                        };
                    }
                }
            }
        }

        let mut out = match msg.mtype {
            MsgType::Confirmable => Message::response_to(&msg, resp.code),
            _ => Message {
                mtype: MsgType::NonConfirmable,
                code: resp.code,
                message_id: self.alloc_mid(),
                token: msg.token.clone(),
                options: Vec::new(),
                payload: Vec::new(),
            },
        };
        out.payload = resp.payload;
        if let Some(seq) = observe_seq {
            out.set_observe(seq);
        }
        if let Some(b) = block2_out {
            out.add_option(option::BLOCK2, b.to_bytes());
        }
        let encoded = out.encode();
        if msg.mtype == MsgType::Confirmable {
            self.dedup
                .store_response(peer, msg.message_id, encoded.clone());
        }
        self.outbox.push((peer, encoded));
    }

    fn on_response(&mut self, peer: P, msg: Message, now: SimTime) {
        // Piggybacked responses settle the CON exchange.
        if msg.mtype == MsgType::Ack {
            self.tracker.acked(msg.message_id);
        }
        // A separate CON response must be acknowledged.
        if msg.mtype == MsgType::Confirmable {
            self.outbox
                .push((peer, Message::empty_ack(msg.message_id).encode()));
        }
        let Some(state) = self.clients.get_mut(&msg.token) else {
            return; // stale or unknown: already handled/cancelled
        };

        // Observe notification ordering.
        if let Some(seq) = msg.observe() {
            if state.observing && !state.order.is_fresh(seq) {
                return;
            }
        }

        // Blockwise reassembly.
        if let Some(block) = msg.option(option::BLOCK2).and_then(BlockOpt::from_bytes) {
            let asm = state.assembler.get_or_insert_with(BlockAssembler::new);
            match asm.push(block, &msg.payload) {
                BlockProgress::Continue(next) => {
                    let peer = state.peer;
                    let path = state.path.clone();
                    let token = msg.token.clone();
                    let mid = self.alloc_mid();
                    let mut follow = Message::request(Code::Get, mid, token).with_path(&path);
                    follow.add_option(
                        option::BLOCK2,
                        BlockOpt::new(next, false, block.szx).to_bytes(),
                    );
                    self.tracker
                        .register(peer, follow.clone(), now, &mut self.rng);
                    self.outbox.push((peer, follow.encode()));
                    return;
                }
                BlockProgress::Done(full) => {
                    let observing = state.observing;
                    state.assembler = None;
                    self.events.push(CoapEvent::Response {
                        token: msg.token.clone(),
                        code: msg.code,
                        payload: full,
                        observe: msg.observe(),
                    });
                    if !observing {
                        self.clients.remove(&msg.token);
                    }
                    return;
                }
                BlockProgress::Mismatch => {
                    state.assembler = None;
                    self.events.push(CoapEvent::RequestFailed {
                        token: msg.token.clone(),
                    });
                    self.clients.remove(&msg.token);
                    return;
                }
            }
        }

        let observing = state.observing;
        self.events.push(CoapEvent::Response {
            token: msg.token.clone(),
            code: msg.code,
            payload: msg.payload.clone(),
            observe: msg.observe(),
        });
        if !observing {
            self.clients.remove(&msg.token);
        }
    }
}

impl<P: Copy + Eq + Hash + Debug> Debug for CoapEndpoint<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoapEndpoint")
            .field("outstanding", &self.tracker.outstanding())
            .field("observers", &self.observers.len())
            .field("pending_clients", &self.clients.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Ep = CoapEndpoint<u8>;
    const CLIENT: u8 = 1;
    const SERVER: u8 = 2;

    fn pair() -> (Ep, Ep) {
        let client = Ep::new(1);
        let mut server = Ep::new(2);
        server.add_resource("temp", Box::new(|_| Response::content(b"21.5".to_vec())));
        let big: Vec<u8> = (0..200u16).map(|i| i as u8).collect();
        server.add_resource("blob", Box::new(move |_| Response::content(big.clone())));
        let mut valve = b"closed".to_vec();
        server.add_resource(
            "valve",
            Box::new(move |req| match req.method {
                Code::Get => Response::content(valve.clone()),
                Code::Put => {
                    valve = req.payload.clone();
                    Response::changed()
                }
                _ => Response::method_not_allowed(),
            }),
        );
        (client, server)
    }

    /// Shuttle every queued datagram between the two endpoints until
    /// quiescent. `drop_nth` drops the i-th datagram overall (testing
    /// retransmission); pass `usize::MAX` to drop nothing.
    fn shuttle(client: &mut Ep, server: &mut Ep, now: SimTime, drop_nth: usize) {
        let mut n = 0;
        for _ in 0..64 {
            let mut moved = false;
            for (dst, bytes) in client.take_outbox() {
                assert_eq!(dst, SERVER);
                if n != drop_nth {
                    server.handle_datagram(CLIENT, &bytes, now);
                }
                n += 1;
                moved = true;
            }
            for (dst, bytes) in server.take_outbox() {
                assert_eq!(dst, CLIENT);
                if n != drop_nth {
                    client.handle_datagram(SERVER, &bytes, now);
                }
                n += 1;
                moved = true;
            }
            if !moved {
                return;
            }
        }
        panic!("shuttle did not quiesce");
    }

    #[test]
    fn get_round_trip() {
        let (mut c, mut s) = pair();
        let t0 = SimTime::ZERO;
        let token = c.get(SERVER, "temp", t0);
        shuttle(&mut c, &mut s, t0, usize::MAX);
        assert_eq!(
            c.take_events(),
            vec![CoapEvent::Response {
                token,
                code: Code::Content,
                payload: b"21.5".to_vec(),
                observe: None,
            }]
        );
        assert_eq!(c.next_wakeup(), None, "exchange settled");
    }

    #[test]
    fn put_changes_state() {
        let (mut c, mut s) = pair();
        let t0 = SimTime::ZERO;
        let t1 = c.put(SERVER, "valve", b"open".to_vec(), t0);
        shuttle(&mut c, &mut s, t0, usize::MAX);
        let ev = c.take_events();
        assert!(
            matches!(&ev[0], CoapEvent::Response { token, code: Code::Changed, .. } if *token == t1)
        );
        let t2 = c.get(SERVER, "valve", t0);
        shuttle(&mut c, &mut s, t0, usize::MAX);
        let ev = c.take_events();
        assert!(
            matches!(&ev[0], CoapEvent::Response { token, payload, .. } if *token == t2 && payload == b"open")
        );
    }

    #[test]
    fn missing_resource_is_4_04() {
        let (mut c, mut s) = pair();
        c.get(SERVER, "nope", SimTime::ZERO);
        shuttle(&mut c, &mut s, SimTime::ZERO, usize::MAX);
        let ev = c.take_events();
        assert!(matches!(
            &ev[0],
            CoapEvent::Response {
                code: Code::NotFound,
                ..
            }
        ));
    }

    #[test]
    fn lost_request_retransmitted() {
        let (mut c, mut s) = pair();
        let t0 = SimTime::ZERO;
        c.get(SERVER, "temp", t0);
        // Drop the first datagram (the request).
        shuttle(&mut c, &mut s, t0, 0);
        assert!(c.take_events().is_empty(), "no response yet");
        // Fire the retransmission timer and deliver everything.
        let wake = c.next_wakeup().expect("retransmission armed");
        c.poll_timers(wake);
        assert_eq!(c.retransmissions(), 1);
        assert_eq!(c.take_retransmissions(), vec![1]);
        shuttle(&mut c, &mut s, wake, usize::MAX);
        let ev = c.take_events();
        assert!(matches!(
            &ev[0],
            CoapEvent::Response {
                code: Code::Content,
                ..
            }
        ));
    }

    #[test]
    fn lost_response_answered_from_dedup_cache() {
        let (mut c, mut s) = pair();
        let t0 = SimTime::ZERO;
        // Stateful resource: the handler must run exactly once even
        // though the request is received twice.
        let mut hits = 0u32;
        s.add_resource(
            "once",
            Box::new(move |_| {
                hits += 1;
                Response::content(hits.to_string().into_bytes())
            }),
        );
        c.get(SERVER, "once", t0);
        // Drop the response (datagram #1).
        shuttle(&mut c, &mut s, t0, 1);
        let wake = c.next_wakeup().expect("armed");
        c.poll_timers(wake);
        shuttle(&mut c, &mut s, wake, usize::MAX);
        let ev = c.take_events();
        assert!(
            matches!(&ev[0], CoapEvent::Response { payload, .. } if payload == b"1"),
            "handler must not re-run on the duplicate: {ev:?}"
        );
    }

    #[test]
    fn request_fails_after_max_retransmits() {
        let (mut c, _s) = pair();
        let t0 = SimTime::ZERO;
        let token = c.get(SERVER, "temp", t0);
        c.take_outbox(); // never delivered
        let mut now = t0;
        for _ in 0..8 {
            match c.next_wakeup() {
                Some(w) => {
                    now = w;
                    c.poll_timers(now);
                    c.take_outbox();
                }
                None => break,
            }
        }
        assert_eq!(c.take_events(), vec![CoapEvent::RequestFailed { token }]);
        // Total wait spans the exponential backoff (2+4+8+16+32 = 62s
        // nominal, x1.0-1.5 jitter).
        assert!(now.as_secs_f64() > 50.0);
    }

    #[test]
    fn blockwise_download_reassembles() {
        let (mut c, mut s) = pair();
        let t0 = SimTime::ZERO;
        let token = c.get(SERVER, "blob", t0);
        shuttle(&mut c, &mut s, t0, usize::MAX);
        let ev = c.take_events();
        let expect: Vec<u8> = (0..200u16).map(|i| i as u8).collect();
        assert_eq!(
            ev,
            vec![CoapEvent::Response {
                token,
                code: Code::Content,
                payload: expect,
                observe: None,
            }]
        );
        assert_eq!(c.next_wakeup(), None, "all block exchanges settled");
    }

    #[test]
    fn observe_delivers_notifications() {
        let (mut c, mut s) = pair();
        let t0 = SimTime::ZERO;
        let token = c.observe(SERVER, "temp", t0);
        shuttle(&mut c, &mut s, t0, usize::MAX);
        let ev = c.take_events();
        assert!(
            matches!(
                &ev[0],
                CoapEvent::Response {
                    observe: Some(1),
                    ..
                }
            ),
            "registration response carries the observe seq: {ev:?}"
        );
        assert_eq!(s.observer_count(), 1);

        // Two updates -> two notifications, in order.
        s.notify("temp", t0);
        s.notify("temp", t0);
        shuttle(&mut c, &mut s, t0, usize::MAX);
        let ev = c.take_events();
        assert_eq!(ev.len(), 2);
        assert!(
            matches!(&ev[0], CoapEvent::Response { observe: Some(2), token: t, .. } if *t == token)
        );
        assert!(matches!(
            &ev[1],
            CoapEvent::Response {
                observe: Some(3),
                ..
            }
        ));
    }

    #[test]
    fn stop_observe_deregisters() {
        let (mut c, mut s) = pair();
        let t0 = SimTime::ZERO;
        let token = c.observe(SERVER, "temp", t0);
        shuttle(&mut c, &mut s, t0, usize::MAX);
        c.take_events();
        c.stop_observe(&token, t0);
        shuttle(&mut c, &mut s, t0, usize::MAX);
        assert_eq!(s.observer_count(), 0);
        s.notify("temp", t0);
        shuttle(&mut c, &mut s, t0, usize::MAX);
        assert!(c.take_events().is_empty(), "no notification after cancel");
    }

    #[test]
    fn stale_notification_suppressed() {
        let (mut c, mut s) = pair();
        let t0 = SimTime::ZERO;
        c.observe(SERVER, "temp", t0);
        shuttle(&mut c, &mut s, t0, usize::MAX);
        c.take_events();
        // Deliver notification 2 out of order after 3.
        s.notify("temp", t0); // seq 2
        let n2 = s.take_outbox();
        s.notify("temp", t0); // seq 3
        for (_, bytes) in s.take_outbox() {
            c.handle_datagram(SERVER, &bytes, t0);
        }
        for (_, bytes) in n2 {
            c.handle_datagram(SERVER, &bytes, t0);
        }
        let ev = c.take_events();
        assert_eq!(ev.len(), 1, "stale notification suppressed: {ev:?}");
        assert!(matches!(
            &ev[0],
            CoapEvent::Response {
                observe: Some(3),
                ..
            }
        ));
    }

    #[test]
    fn garbage_datagram_ignored() {
        let (_c, mut s) = pair();
        s.handle_datagram(CLIENT, &[0xDE, 0xAD], SimTime::ZERO);
        s.handle_datagram(CLIENT, &[], SimTime::ZERO);
        assert!(s.take_outbox().is_empty());
    }

    #[test]
    fn non_request_gets_non_response() {
        let (_c, mut s) = pair();
        let mut req = Message::request(Code::Get, 77, vec![9]).with_path("temp");
        req.mtype = MsgType::NonConfirmable;
        s.handle_datagram(CLIENT, &req.encode(), SimTime::ZERO);
        let out = s.take_outbox();
        assert_eq!(out.len(), 1);
        let resp = Message::decode(&out[0].1).expect("decodes");
        assert_eq!(resp.mtype, MsgType::NonConfirmable);
        assert_eq!(resp.code, Code::Content);
        assert_eq!(resp.token, vec![9]);
    }

    #[test]
    fn block1_upload_rejected_politely() {
        let (_c, mut s) = pair();
        let mut req = Message::request(Code::Put, 78, vec![8]).with_path("valve");
        req.add_option(option::BLOCK1, BlockOpt::new(0, true, 2).to_bytes());
        req.payload = vec![0; 64];
        s.handle_datagram(CLIENT, &req.encode(), SimTime::ZERO);
        let out = s.take_outbox();
        let resp = Message::decode(&out[0].1).expect("decodes");
        assert_eq!(resp.code, Code::RequestEntityTooLarge);
    }

    #[test]
    fn rst_cancels_observation() {
        let (mut c, mut s) = pair();
        let t0 = SimTime::ZERO;
        c.observe(SERVER, "temp", t0);
        shuttle(&mut c, &mut s, t0, usize::MAX);
        c.take_events();
        s.notify("temp", t0);
        let out = s.take_outbox();
        let notif = Message::decode(&out[0].1).expect("decodes");
        // Client (e.g. rebooted) resets the notification.
        s.handle_datagram(CLIENT, &Message::reset(notif.message_id).encode(), t0);
        assert_eq!(s.observer_count(), 0);
    }
}
