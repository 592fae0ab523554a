//! Overhead accounting for frame security: the CPU, byte and energy
//! costs of each security level on a microcontroller-class device.
//! Feeds experiment E10 ("security modes are specified but hardly
//! implemented" — because they cost, §V-E).

use crate::frame::SecLevel;

/// MCU cost parameters.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// CPU clock in MHz (16 MHz: MSP430/Cortex-M0 class).
    pub mcu_mhz: f64,
    /// Cycles per XTEA block operation (32 rounds, software).
    pub cycles_per_block: f64,
    /// Active-mode current draw, mA.
    pub active_ma: f64,
    /// Supply voltage, V.
    pub voltage_v: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            mcu_mhz: 16.0,
            cycles_per_block: 850.0,
            active_ma: 5.0,
            voltage_v: 3.0,
        }
    }
}

impl CostModel {
    /// Number of 8-byte cipher-block operations to protect (or verify)
    /// a frame of `payload_len` bytes at `level`.
    pub fn blocks(&self, level: SecLevel, payload_len: usize) -> u64 {
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
    pub fn cpu_time_us(&self, level: SecLevel, payload_len: usize) -> f64 {
        self.blocks(level, payload_len) as f64 * self.cycles_per_block / self.mcu_mhz
    }

    /// CPU energy to protect a frame, in microjoules.
    pub fn cpu_energy_uj(&self, level: SecLevel, payload_len: usize) -> f64 {
        // E = I * V * t; mA * V * us = nJ, so divide by 1000 for uJ.
        self.cpu_time_us(level, payload_len) * self.active_ma * self.voltage_v / 1000.0
    }

    /// Extra on-air bytes at this level (auxiliary header + MIC),
    /// relative to an unsecured frame.
    pub fn extra_bytes(&self, level: SecLevel) -> usize {
        level.overhead_bytes() - SecLevel::None.overhead_bytes()
    }

    /// Extra airtime in microseconds at `bitrate_bps`.
    pub fn extra_airtime_us(&self, level: SecLevel, bitrate_bps: u64) -> f64 {
        self.extra_bytes(level) as f64 * 8.0 * 1e6 / bitrate_bps as f64
    }

    /// Goodput factor: useful payload bytes / total frame bytes for a
    /// frame with `payload_len` payload and `frame_overhead` unsecured
    /// framing bytes.
    pub fn goodput(&self, level: SecLevel, payload_len: usize, frame_overhead: usize) -> f64 {
        payload_len as f64 / (payload_len + frame_overhead + level.overhead_bytes()) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stronger_levels_cost_more_cpu() {
        let m = CostModel::default();
        let len = 40;
        let none = m.cpu_time_us(SecLevel::None, len);
        let mic32 = m.cpu_time_us(SecLevel::Mic32, len);
        let encmic32 = m.cpu_time_us(SecLevel::EncMic32, len);
        let encmic128 = m.cpu_time_us(SecLevel::EncMic128, len);
        assert_eq!(none, 0.0);
        assert!(mic32 > 0.0);
        assert!(encmic32 > mic32);
        assert!(encmic128 > encmic32);
    }

    #[test]
    fn cost_scales_with_payload() {
        let m = CostModel::default();
        assert!(m.cpu_time_us(SecLevel::EncMic64, 100) > m.cpu_time_us(SecLevel::EncMic64, 10));
    }

    #[test]
    fn plausible_magnitudes() {
        // A 40-byte EncMic64 frame on a 16 MHz MCU should take on the
        // order of a millisecond, not micro or hundreds of ms.
        let m = CostModel::default();
        let t = m.cpu_time_us(SecLevel::EncMic64, 40);
        assert!((100.0..5_000.0).contains(&t), "cpu time {t} us");
        let e = m.cpu_energy_uj(SecLevel::EncMic64, 40);
        assert!(e > 0.0 && e < 100.0, "energy {e} uJ");
    }

    #[test]
    fn airtime_overhead() {
        let m = CostModel::default();
        assert_eq!(m.extra_bytes(SecLevel::None), 0);
        assert_eq!(m.extra_bytes(SecLevel::Mic32), 8);
        assert_eq!(m.extra_bytes(SecLevel::EncMic128), 20);
        // 8 extra bytes at 250 kbit/s = 256 us.
        assert!((m.extra_airtime_us(SecLevel::Mic32, 250_000) - 256.0).abs() < 1e-9);
    }

    #[test]
    fn goodput_monotone_in_level() {
        let m = CostModel::default();
        let g_none = m.goodput(SecLevel::None, 40, 17);
        let g_m32 = m.goodput(SecLevel::Mic32, 40, 17);
        let g_m128 = m.goodput(SecLevel::EncMic128, 40, 17);
        assert!(g_none > g_m32 && g_m32 > g_m128);
        assert!(g_none < 1.0);
    }
}
