//! # iiot-security — frame security for constrained devices
//!
//! The paper observes that "networking standards for such devices do
//! include provisions for a range of secure modes \[but\] they are hardly
//! implemented" (§V-E) — largely because of what they cost on
//! microcontroller-class hardware. This crate implements the full
//! 802.15.4-style security ladder so that cost becomes measurable
//! (experiment E10):
//!
//! * [`crypto`] — XTEA block cipher, CTR keystream, CBC-MAC
//!   (simulation-grade stand-ins for AES-CCM hardware; see the module
//!   docs for the scope disclaimer);
//! * [`frame`] — frame protection at levels `MIC-32` through
//!   `ENC-MIC-128`, with the auxiliary security header;
//! * [`replay`] — per-source frame-counter replay protection;
//! * [`cost`] — CPU/byte/energy overhead accounting per level.
//!
//! # Examples
//!
//! Protect a reading with encryption + a 64-bit MIC and recover it at a
//! receiver enforcing replay protection:
//!
//! ```
//! use iiot_security::{protect, unprotect, Key, ReplayGuard, SecLevel};
//!
//! let key = Key(*b"plant-ntwrk-key!");
//! let frame = protect(&key, SecLevel::EncMic64, 7, 1, b"temp=21.5");
//! assert_ne!(&frame[5..14], b"temp=21.5"); // payload is encrypted
//!
//! let mut replay = ReplayGuard::new();
//! let clear = unprotect(&key, SecLevel::Mic32, 7, &frame, &mut replay).unwrap();
//! assert_eq!(clear, b"temp=21.5");
//! // The same counter a second time is a replay.
//! assert!(unprotect(&key, SecLevel::Mic32, 7, &frame, &mut replay).is_err());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cost;
pub mod crypto;
pub mod frame;
pub mod replay;

pub use crypto::Key;
pub use frame::{protect, unprotect, SecError, SecLevel};
pub use replay::ReplayGuard;
