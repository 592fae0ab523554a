//! # iiot-mac — medium-access protocols for the sensing and actuation layer
//!
//! The paper's geographic-scalability analysis (§IV-B) rests on how the
//! MAC layer trades energy for latency: duty-cycled MACs sleep most of
//! the time, so "a packet may take seconds to be transmitted over few
//! wireless hops", while "highly synchronous end-to-end communication
//! involving tight coordination of multiple devices" minimizes latency.
//! This crate implements the protocol family behind those claims:
//!
//! * [`CsmaMac`](csma::CsmaMac) — always-on CSMA/CA with ACKs and
//!   retransmissions: the latency baseline (and the energy worst case);
//! * [`LplMac`](lpl::LplMac) — low-power listening with a packetized
//!   (strobed) preamble, B-MAC/X-MAC style: the classic asynchronous
//!   duty-cycled MAC;
//! * [`RimacMac`](rimac::RimacMac) — receiver-initiated probing in the
//!   style of RI-MAC;
//! * [`TdmaMac`](tdma::TdmaMac) — a synchronous, pipelined TDMA schedule
//!   in the style of Dozer/Koala, giving per-hop latencies of one slot;
//! * [`coex`] — channel-assignment strategies for co-located networks
//!   managed by different parties (administrative scalability, §IV-C).
//!
//! Every MAC implements the [`Mac`] trait so upper layers (routing,
//! aggregation) are generic over the link layer. They do not own the
//! MAC: a node holds a [`Stack`], which makes the MAC calls, and each
//! protocol is a [`Service`] the stack lends the MAC to — see [`stack`]
//! for a runnable host. The [`driver`] module is the scriptable service
//! used by tests and experiments.
//!
//! Inside, the four MACs share one private link core: the 3-byte frame
//! header, the send queue of [`QUEUE_CAP`] frames with its handles,
//! sequence numbers and completions, link-layer ACKs matched to the
//! queue head, and duplicate suppression. Each MAC keeps only its
//! channel access and its per-frame attempt state, which is where they
//! really differ in latency, reliability and energy.
//!
//! # Examples
//!
//! Administrative scalability (§IV-C): two co-located networks on a
//! per-tenant channel plan never interfere, while channel hopping
//! collides on a predictable fraction of epochs.
//!
//! ```
//! use iiot_mac::coex::{ChannelPlan, TenantId};
//!
//! let plan = ChannelPlan::PerTenant { base: 11, num_channels: 16 };
//! let (a, b) = (TenantId(0), TenantId(1));
//! assert_ne!(plan.channel_for(a, 0), plan.channel_for(b, 0));
//! assert_eq!(plan.expected_overlap(a, b), 0.0);
//!
//! let hopping = ChannelPlan::Hopping { base: 11, num_channels: 16 };
//! assert_eq!(hopping.expected_overlap(a, b), 1.0 / 16.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod coex;
pub mod csma;
pub mod driver;
mod header;
pub mod lpl;
pub mod rimac;
pub mod stack;
pub mod tdma;

pub use stack::{Service, Stack};

use iiot_sim::{Ctx, Dst, Frame, RxInfo, Timer, TxOutcome};

/// Handle identifying an accepted [`Mac::send`] request, echoed back in
/// [`MacEvent::SendDone`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SendHandle(pub u64);

/// Events a MAC reports up the stack.
#[derive(Clone, Debug, PartialEq)]
pub enum MacEvent {
    /// An upper-layer payload arrived (deduplicated, address-filtered).
    Delivered {
        /// Link-layer source.
        src: iiot_sim::NodeId,
        /// Upper-layer demultiplexing port.
        upper_port: u8,
        /// The payload bytes.
        payload: Vec<u8>,
        /// Radio-level reception metadata.
        info: RxInfo,
    },
    /// A send request finished. For unicast, `acked` means the link-layer
    /// acknowledgement arrived; for broadcast it merely means the frame
    /// was put on the air.
    SendDone {
        /// The handle returned by [`Mac::send`].
        handle: SendHandle,
        /// Whether the transfer is believed successful.
        acked: bool,
    },
}

/// Errors returned by [`Mac::send`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MacError {
    /// The MAC transmit queue is full; retry after a `SendDone`.
    QueueFull,
    /// The payload does not fit in one frame.
    TooLarge,
}

impl core::fmt::Display for MacError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MacError::QueueFull => write!(f, "mac transmit queue is full"),
            MacError::TooLarge => write!(f, "payload exceeds frame capacity"),
        }
    }
}

impl std::error::Error for MacError {}

/// Timer tags at or above this value are reserved for MAC-internal use;
/// upper layers must tag their timers below it.
pub const MAC_TAG_BASE: u64 = 1 << 63;

/// Builds a MAC-internal timer tag.
pub(crate) const fn mac_tag(x: u64) -> u64 {
    MAC_TAG_BASE | x
}

/// Whether a timer tag belongs to the MAC layer.
pub const fn is_mac_tag(tag: u64) -> bool {
    tag >= MAC_TAG_BASE
}

/// Transmit queue capacity of every MAC, in frames.
pub const QUEUE_CAP: usize = 16;

/// A medium-access protocol.
///
/// A [`Stack`] owns the `Mac` value, forwards the raw
/// [`Proto`](iiot_sim::Proto) callbacks to it, and hands the
/// [`MacEvent`]s it pushes into the `out` vector to the hosted
/// [`Service`], which calls [`Mac::send`] on the MAC it is lent. Timer
/// demultiplexing uses the tag space: tags `>=` [`MAC_TAG_BASE`] belong
/// to the MAC ([`Mac::on_timer`] returns `false` for foreign timers).
pub trait Mac: 'static {
    /// Boots the MAC (asks for the radio, arms periodic timers).
    fn start(&mut self, ctx: &mut Ctx<'_>);

    /// Queues `payload` for transmission to `dst`, demuxed at the
    /// receiver by `upper_port`.
    ///
    /// # Errors
    ///
    /// [`MacError::QueueFull`] when the queue is saturated (backpressure)
    /// and [`MacError::TooLarge`] for oversized payloads.
    fn send(
        &mut self,
        ctx: &mut Ctx<'_>,
        dst: Dst,
        upper_port: u8,
        payload: Vec<u8>,
    ) -> Result<SendHandle, MacError>;

    /// Handles a fired timer. Returns `true` if the timer belonged to
    /// the MAC, `false` if the upper layer should handle it.
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, timer: Timer, out: &mut Vec<MacEvent>) -> bool;

    /// Handles a received radio frame.
    fn on_frame(&mut self, ctx: &mut Ctx<'_>, frame: &Frame, info: RxInfo, out: &mut Vec<MacEvent>);

    /// Handles the completion of a radio transmission.
    fn on_tx_done(&mut self, ctx: &mut Ctx<'_>, outcome: TxOutcome, out: &mut Vec<MacEvent>);

    /// Clears volatile state after a crash (the next [`Mac::start`]
    /// reboots the MAC).
    fn crashed(&mut self) {}

    /// Protocol name for traces and experiment tables.
    fn name(&self) -> &'static str;

    /// The radio `port` this MAC claims; frames on other ports are
    /// ignored (they belong to other protocols or other tenants).
    fn radio_port(&self) -> u8;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_space_partitioned() {
        assert!(is_mac_tag(mac_tag(0)));
        assert!(is_mac_tag(mac_tag(42)));
        assert!(!is_mac_tag(0));
        assert!(!is_mac_tag(MAC_TAG_BASE - 1));
    }

    #[test]
    fn errors_display() {
        assert_eq!(
            MacError::QueueFull.to_string(),
            "mac transmit queue is full"
        );
        assert_eq!(
            MacError::TooLarge.to_string(),
            "payload exceeds frame capacity"
        );
    }
}
