//! Frame protection: the 802.15.4-style security levels and the
//! auxiliary security header (paper §V-E).
//!
//! Wire layout of a protected frame:
//!
//! ```text
//! | level (1) | frame counter (4, BE) | payload (enc?) | MIC (0/4/8/16) |
//! ```

use crate::crypto::{cbc_mac, cbc_mac_wide, ctr_xor, mac_eq, Key};
use crate::replay::ReplayGuard;

/// 802.15.4-style security level.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SecLevel {
    /// No protection.
    None,
    /// Authentication only, 32-bit MIC.
    Mic32,
    /// Authentication only, 64-bit MIC.
    Mic64,
    /// Authentication only, 128-bit MIC.
    Mic128,
    /// Encryption only (discouraged by the standard, kept for the
    /// overhead experiment).
    Enc,
    /// Encryption + 32-bit MIC.
    EncMic32,
    /// Encryption + 64-bit MIC.
    EncMic64,
    /// Encryption + 128-bit MIC.
    EncMic128,
}

impl SecLevel {
    /// All levels, weakest to strongest (for sweeps).
    pub const ALL: [SecLevel; 8] = [
        SecLevel::None,
        SecLevel::Mic32,
        SecLevel::Mic64,
        SecLevel::Mic128,
        SecLevel::Enc,
        SecLevel::EncMic32,
        SecLevel::EncMic64,
        SecLevel::EncMic128,
    ];

    /// MIC length in bytes.
    pub fn mic_len(self) -> usize {
        match self {
            SecLevel::None | SecLevel::Enc => 0,
            SecLevel::Mic32 | SecLevel::EncMic32 => 4,
            SecLevel::Mic64 | SecLevel::EncMic64 => 8,
            SecLevel::Mic128 | SecLevel::EncMic128 => 16,
        }
    }

    /// Whether the payload is encrypted.
    pub fn encrypts(self) -> bool {
        matches!(
            self,
            SecLevel::Enc | SecLevel::EncMic32 | SecLevel::EncMic64 | SecLevel::EncMic128
        )
    }

    /// Per-frame byte overhead (auxiliary header + MIC). The auxiliary
    /// header (level + frame counter) is elided entirely at
    /// [`SecLevel::None`].
    pub fn overhead_bytes(self) -> usize {
        match self {
            SecLevel::None => 1, // just the level byte
            _ => 1 + 4 + self.mic_len(),
        }
    }

    fn to_byte(self) -> u8 {
        match self {
            SecLevel::None => 0,
            SecLevel::Mic32 => 1,
            SecLevel::Mic64 => 2,
            SecLevel::Mic128 => 3,
            SecLevel::Enc => 4,
            SecLevel::EncMic32 => 5,
            SecLevel::EncMic64 => 6,
            SecLevel::EncMic128 => 7,
        }
    }

    fn from_byte(b: u8) -> Option<SecLevel> {
        SecLevel::ALL.get(b as usize).copied()
    }
}

/// Errors from [`unprotect`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SecError {
    /// Frame shorter than its headers claim.
    Truncated,
    /// Unknown security level byte.
    BadLevel,
    /// The receiver requires at least its configured level.
    LevelTooLow,
    /// MIC verification failed.
    BadMic,
    /// Frame counter not strictly increasing (replay).
    Replayed,
}

impl core::fmt::Display for SecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SecError::Truncated => write!(f, "frame truncated"),
            SecError::BadLevel => write!(f, "unknown security level"),
            SecError::LevelTooLow => write!(f, "security level below policy"),
            SecError::BadMic => write!(f, "message integrity check failed"),
            SecError::Replayed => write!(f, "replayed frame counter"),
        }
    }
}

impl std::error::Error for SecError {}

fn nonce(src: u32, counter: u32, level: SecLevel) -> u64 {
    // Unique per (src, counter, level) under one key; mixed so CTR
    // blocks of nearby counters do not collide (simulation-grade).
    let raw = ((src as u64) << 40) | ((counter as u64) << 8) | level.to_byte() as u64;
    let mut z = raw.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z ^= z >> 29;
    z
}

/// The MIC covers the header fields and the *plaintext* payload bound
/// to the sender.
fn mic_input(src: u32, counter: u32, level: SecLevel, plaintext: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(9 + plaintext.len());
    buf.extend_from_slice(&src.to_be_bytes());
    buf.extend_from_slice(&counter.to_be_bytes());
    buf.push(level.to_byte());
    buf.extend_from_slice(plaintext);
    buf
}

/// Protects `payload` from `src` under `key` at `level`, consuming one
/// frame-counter value.
pub fn protect(key: &Key, level: SecLevel, src: u32, counter: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + level.overhead_bytes());
    out.push(level.to_byte());
    if level == SecLevel::None {
        out.extend_from_slice(payload);
        return out;
    }
    out.extend_from_slice(&counter.to_be_bytes());
    let mic = match level.mic_len() {
        0 => Vec::new(),
        16 => cbc_mac_wide(key, &mic_input(src, counter, level, payload)),
        n => cbc_mac(key, &mic_input(src, counter, level, payload), n),
    };
    let mut body = payload.to_vec();
    if level.encrypts() {
        ctr_xor(key, nonce(src, counter, level), &mut body);
    }
    out.extend_from_slice(&body);
    out.extend_from_slice(&mic);
    out
}

/// Verifies and strips protection from a received frame.
///
/// `min_level` is the receiver's policy: frames protected below it are
/// rejected (the standard's incoming-security check). The replay guard
/// enforces strictly increasing frame counters per source.
///
/// # Errors
///
/// See [`SecError`].
pub fn unprotect(
    key: &Key,
    min_level: SecLevel,
    src: u32,
    bytes: &[u8],
    replay: &mut ReplayGuard,
) -> Result<Vec<u8>, SecError> {
    let (&level_byte, rest) = bytes.split_first().ok_or(SecError::Truncated)?;
    let level = SecLevel::from_byte(level_byte).ok_or(SecError::BadLevel)?;
    if level.to_byte() < min_level.to_byte() {
        return Err(SecError::LevelTooLow);
    }
    if level == SecLevel::None {
        return Ok(rest.to_vec());
    }
    if rest.len() < 4 + level.mic_len() {
        return Err(SecError::Truncated);
    }
    let counter = u32::from_be_bytes(rest[0..4].try_into().expect("checked"));
    let body_end = rest.len() - level.mic_len();
    let mut body = rest[4..body_end].to_vec();
    let mic = &rest[body_end..];
    if level.encrypts() {
        ctr_xor(key, nonce(src, counter, level), &mut body);
    }
    if level.mic_len() > 0 {
        let expect = match level.mic_len() {
            16 => cbc_mac_wide(key, &mic_input(src, counter, level, &body)),
            n => cbc_mac(key, &mic_input(src, counter, level, &body), n),
        };
        if !mac_eq(&expect, mic) {
            return Err(SecError::BadMic);
        }
    }
    // Replay protection only after authentication succeeded.
    if !replay.accept(src, counter) {
        return Err(SecError::Replayed);
    }
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn key() -> Key {
        Key(*b"network-key-0001")
    }

    #[test]
    fn levels_round_trip() {
        for level in SecLevel::ALL {
            let mut guard = ReplayGuard::new();
            let frame = protect(&key(), level, 7, 1, b"valve=open");
            assert_eq!(
                frame.len(),
                b"valve=open".len() + level.overhead_bytes(),
                "{level:?} overhead"
            );
            let got = unprotect(&key(), SecLevel::None, 7, &frame, &mut guard)
                .unwrap_or_else(|e| panic!("{level:?}: {e}"));
            assert_eq!(got, b"valve=open");
        }
    }

    #[test]
    fn encrypted_levels_hide_plaintext() {
        for level in [SecLevel::Enc, SecLevel::EncMic32, SecLevel::EncMic128] {
            let frame = protect(&key(), level, 7, 1, b"secret");
            let window = &frame[5..5 + 6];
            assert_ne!(window, b"secret", "{level:?} left plaintext visible");
        }
        // MIC-only levels do not hide it.
        let frame = protect(&key(), SecLevel::Mic32, 7, 1, b"secret");
        assert_eq!(&frame[5..11], b"secret");
    }

    #[test]
    fn tamper_detected() {
        for level in [SecLevel::Mic32, SecLevel::Mic64, SecLevel::EncMic128] {
            let mut guard = ReplayGuard::new();
            let mut frame = protect(&key(), level, 7, 1, b"x=100");
            let k = frame.len() / 2;
            frame[k] ^= 0x40;
            assert_eq!(
                unprotect(&key(), SecLevel::None, 7, &frame, &mut guard),
                Err(SecError::BadMic),
                "{level:?}"
            );
        }
    }

    #[test]
    fn wrong_key_rejected() {
        let mut guard = ReplayGuard::new();
        let frame = protect(&key(), SecLevel::EncMic64, 7, 1, b"x");
        let other = Key(*b"network-key-0002");
        assert_eq!(
            unprotect(&other, SecLevel::None, 7, &frame, &mut guard),
            Err(SecError::BadMic)
        );
    }

    #[test]
    fn wrong_source_rejected() {
        // The MIC binds the source address: a frame replayed under a
        // different claimed source fails.
        let mut guard = ReplayGuard::new();
        let frame = protect(&key(), SecLevel::Mic64, 7, 1, b"x");
        assert_eq!(
            unprotect(&key(), SecLevel::None, 8, &frame, &mut guard),
            Err(SecError::BadMic)
        );
    }

    #[test]
    fn replay_rejected() {
        let mut guard = ReplayGuard::new();
        let frame = protect(&key(), SecLevel::Mic32, 7, 5, b"x");
        assert!(unprotect(&key(), SecLevel::None, 7, &frame, &mut guard).is_ok());
        assert_eq!(
            unprotect(&key(), SecLevel::None, 7, &frame, &mut guard),
            Err(SecError::Replayed)
        );
        // An older counter is also rejected.
        let old = protect(&key(), SecLevel::Mic32, 7, 3, b"y");
        assert_eq!(
            unprotect(&key(), SecLevel::None, 7, &old, &mut guard),
            Err(SecError::Replayed)
        );
    }

    #[test]
    fn policy_floor_enforced() {
        let mut guard = ReplayGuard::new();
        let weak = protect(&key(), SecLevel::None, 7, 1, b"x");
        assert_eq!(
            unprotect(&key(), SecLevel::EncMic32, 7, &weak, &mut guard),
            Err(SecError::LevelTooLow)
        );
        let mic_only = protect(&key(), SecLevel::Mic64, 7, 1, b"x");
        assert_eq!(
            unprotect(&key(), SecLevel::EncMic128, 7, &mic_only, &mut guard),
            Err(SecError::LevelTooLow)
        );
    }

    #[test]
    fn truncation_and_garbage() {
        let mut guard = ReplayGuard::new();
        assert_eq!(
            unprotect(&key(), SecLevel::None, 7, &[], &mut guard),
            Err(SecError::Truncated)
        );
        assert_eq!(
            unprotect(&key(), SecLevel::None, 7, &[99], &mut guard),
            Err(SecError::BadLevel)
        );
        assert_eq!(
            unprotect(&key(), SecLevel::None, 7, &[1, 0, 0], &mut guard),
            Err(SecError::Truncated)
        );
    }

    #[test]
    fn overhead_table() {
        assert_eq!(SecLevel::None.overhead_bytes(), 1);
        assert_eq!(SecLevel::Mic32.overhead_bytes(), 9);
        assert_eq!(SecLevel::Mic64.overhead_bytes(), 13);
        assert_eq!(SecLevel::Mic128.overhead_bytes(), 21);
        assert_eq!(SecLevel::Enc.overhead_bytes(), 5);
        assert_eq!(SecLevel::EncMic128.overhead_bytes(), 21);
    }

    proptest! {
        #[test]
        fn protect_unprotect_inverse(
            payload in proptest::collection::vec(any::<u8>(), 0..100),
            src in any::<u32>(),
            counter in 1u32..u32::MAX,
            level_idx in 0usize..8,
        ) {
            let level = SecLevel::ALL[level_idx];
            let mut guard = ReplayGuard::new();
            let frame = protect(&key(), level, src, counter, &payload);
            let got = unprotect(&key(), SecLevel::None, src, &frame, &mut guard)
                .expect("round trip");
            prop_assert_eq!(got, payload);
        }
    }
}
