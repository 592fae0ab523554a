//! # iiot-coap — the Constrained Application Protocol as integration middleware
//!
//! The paper singles out CoAP (RFC 7252) as "a textbook example of a
//! middleware protocol" for industrial IoT interoperability (§III-B).
//! This crate implements it sans-IO, from the bytes up:
//!
//! * [`message`] — the RFC 7252 wire codec (header, token, delta-encoded
//!   options, payload marker);
//! * [`reliability`] — confirmable-message retransmission with binary
//!   exponential backoff, and message-id deduplication with response
//!   caching;
//! * [`observe`] — the Observe extension (RFC 7641): server registry and
//!   client-side notification ordering;
//! * [`block`] — Block2 blockwise transfers (RFC 7959);
//! * [`resource`] — the server resource tree with `/.well-known/core`
//!   discovery (RFC 6690);
//! * [`endpoint`] — a combined client/server endpoint tying it together,
//!   drivable over any datagram transport (the simulator's backhaul, a
//!   DODAG route, or a test shuttle).
//!
//! # Examples
//!
//! ```
//! use iiot_coap::endpoint::{CoapEndpoint, CoapEvent};
//! use iiot_coap::resource::Response;
//! use iiot_sim::SimTime;
//!
//! let mut server: CoapEndpoint<u8> = CoapEndpoint::new(1);
//! server.add_resource("temp", Box::new(|_| Response::content(b"21.5".to_vec())));
//! let mut client: CoapEndpoint<u8> = CoapEndpoint::new(2);
//!
//! let token = client.get(1, "temp", SimTime::ZERO);
//! // Transport: deliver client->server, then server->client.
//! for (_, dgram) in client.take_outbox() {
//!     server.handle_datagram(0, &dgram, SimTime::ZERO);
//! }
//! for (_, dgram) in server.take_outbox() {
//!     client.handle_datagram(1, &dgram, SimTime::ZERO);
//! }
//! match &client.take_events()[0] {
//!     CoapEvent::Response { token: t, payload, .. } => {
//!         assert_eq!(t, &token);
//!         assert_eq!(payload, b"21.5");
//!     }
//!     other => panic!("unexpected event {other:?}"),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod block;
pub mod endpoint;
pub mod message;
pub mod observe;
pub mod reliability;
pub mod resource;

pub use endpoint::{CoapEndpoint, CoapEvent};
pub use message::{Code, Message, MsgType};
pub use resource::{Request, Response};
