//! Overhead accounting for frame security: the CPU, byte and energy
//! costs of each security level on a microcontroller-class device.
//! Feeds experiment E10 ("security modes are specified but hardly
//! implemented" — because they cost, §V-E).

use crate::frame::SecLevel;

/// CPU clock in MHz (16 MHz: MSP430/Cortex-M0 class).
pub const MCU_MHZ: f64 = 16.0;
/// Cycles per XTEA block operation (32 rounds, software).
pub const CYCLES_PER_BLOCK: f64 = 850.0;
/// Active-mode current draw, mA.
pub const ACTIVE_MA: f64 = 5.0;
/// Supply voltage, V.
pub const VOLTAGE_V: f64 = 3.0;

/// Number of 8-byte cipher-block operations to protect (or verify)
/// a frame of `payload_len` bytes at `level`.
pub fn blocks(level: SecLevel, payload_len: usize) -> u64 {
    let data_blocks = payload_len.div_ceil(8) as u64;
    let mac_input_blocks = (payload_len + 9).div_ceil(8) as u64 + 1; // header fields + length block
    let enc = if level.encrypts() { data_blocks } else { 0 };
    let mac = match level.mic_len() {
        0 => 0,
        16 => 2 * mac_input_blocks, // two tweaked passes
        _ => mac_input_blocks,
    };
    enc + mac
}

/// CPU time to protect a frame, in microseconds.
pub fn cpu_time_us(level: SecLevel, payload_len: usize) -> f64 {
    blocks(level, payload_len) as f64 * CYCLES_PER_BLOCK / MCU_MHZ
}

/// CPU energy to protect a frame, in microjoules.
pub fn cpu_energy_uj(level: SecLevel, payload_len: usize) -> f64 {
    // E = I * V * t; mA * V * us = nJ, so divide by 1000 for uJ.
    cpu_time_us(level, payload_len) * ACTIVE_MA * VOLTAGE_V / 1000.0
}

/// Extra on-air bytes at this level (auxiliary header + MIC),
/// relative to an unsecured frame.
pub fn extra_bytes(level: SecLevel) -> usize {
    level.overhead_bytes() - SecLevel::None.overhead_bytes()
}

/// Extra airtime in microseconds at `bitrate_bps`.
pub fn extra_airtime_us(level: SecLevel, bitrate_bps: u64) -> f64 {
    extra_bytes(level) as f64 * 8.0 * 1e6 / bitrate_bps as f64
}

/// Goodput factor: useful payload bytes / total frame bytes for a
/// frame with `payload_len` payload and `frame_overhead` unsecured
/// framing bytes.
pub fn goodput(level: SecLevel, payload_len: usize, frame_overhead: usize) -> f64 {
    payload_len as f64 / (payload_len + frame_overhead + level.overhead_bytes()) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stronger_levels_cost_more_cpu() {
        let len = 40;
        let none = cpu_time_us(SecLevel::None, len);
        let mic32 = cpu_time_us(SecLevel::Mic32, len);
        let encmic32 = cpu_time_us(SecLevel::EncMic32, len);
        let encmic128 = cpu_time_us(SecLevel::EncMic128, len);
        assert_eq!(none, 0.0);
        assert!(mic32 > 0.0);
        assert!(encmic32 > mic32);
        assert!(encmic128 > encmic32);
    }

    #[test]
    fn cost_scales_with_payload() {
        assert!(cpu_time_us(SecLevel::EncMic64, 100) > cpu_time_us(SecLevel::EncMic64, 10));
    }

    #[test]
    fn plausible_magnitudes() {
        // A 40-byte EncMic64 frame on a 16 MHz MCU should take on the
        // order of a millisecond, not micro or hundreds of ms.
        let t = cpu_time_us(SecLevel::EncMic64, 40);
        assert!((100.0..5_000.0).contains(&t), "cpu time {t} us");
        let e = cpu_energy_uj(SecLevel::EncMic64, 40);
        assert!(e > 0.0 && e < 100.0, "energy {e} uJ");
    }

    #[test]
    fn airtime_overhead() {
        assert_eq!(extra_bytes(SecLevel::None), 0);
        assert_eq!(extra_bytes(SecLevel::Mic32), 8);
        assert_eq!(extra_bytes(SecLevel::EncMic128), 20);
        // 8 extra bytes at 250 kbit/s = 256 us.
        assert!((extra_airtime_us(SecLevel::Mic32, 250_000) - 256.0).abs() < 1e-9);
    }

    #[test]
    fn goodput_monotone_in_level() {
        let g_none = goodput(SecLevel::None, 40, 17);
        let g_m32 = goodput(SecLevel::Mic32, 40, 17);
        let g_m128 = goodput(SecLevel::EncMic128, 40, 17);
        assert!(g_none > g_m32 && g_m32 > g_m128);
        assert!(g_none < 1.0);
    }
}
