//! The Motion Controller as an SoC IP block: clock, SRAM capacity, and the
//! calibrated area (§5.1).
//!
//! Post-layout in 16 nm the paper reports 2.2 mW active power and a
//! negligible 35,000 µm² (0.035 mm²) — "just slightly more than a typical
//! micro-controller with SIMD support". The power is charged by the SoC
//! energy model (`EnergyModelConfig::mc_active`) and the lane count is the
//! datapath's (`SimdDatapath::lanes`). The 8 KB local SRAM is sized to
//! hold exactly one 1080p frame's packed motion vectors at a 16×16
//! macroblock size (120 × 68 blocks ≈ 8.1 KB).

use euphrates_common::error::{Error, Result};
use euphrates_common::image::Resolution;
use euphrates_common::units::{Bytes, Clock, Cycles, Picos};

/// Static Motion Controller configuration (Table 1 defaults).
#[derive(Debug, Clone, PartialEq)]
pub struct McConfig {
    /// IP clock (Table 1: 100 MHz).
    pub clock: Clock,
    /// Local MV SRAM capacity (Table 1: 8 KB).
    pub sram: Bytes,
    /// Silicon area in mm² (§5.1: 0.035 mm²).
    pub area_mm2: f64,
}

impl Default for McConfig {
    fn default() -> Self {
        McConfig {
            clock: Clock::from_mhz(100.0),
            sram: Bytes::from_kib(8),
            area_mm2: 0.035,
        }
    }
}

impl McConfig {
    /// Bytes of packed motion vectors (1 B/block for `d ≤ 7`, §2.3) for a
    /// frame at `resolution` with `mb_size` macroblocks.
    pub fn packed_mv_bytes(resolution: Resolution, mb_size: u32) -> Bytes {
        let (bx, by) = resolution.macroblocks(mb_size);
        Bytes(u64::from(bx) * u64::from(by))
    }

    /// Checks that one frame's packed MVs fit the local SRAM.
    ///
    /// # Errors
    ///
    /// Returns [`Error::CapacityExceeded`] when they do not (e.g. 1080p at
    /// an 8×8 macroblock size) — the experiment must then configure a
    /// larger SRAM, which the granularity-sensitivity bench reports as a
    /// hardware cost of small macroblocks.
    pub fn check_capacity(&self, resolution: Resolution, mb_size: u32) -> Result<()> {
        let need = Self::packed_mv_bytes(resolution, mb_size);
        if need.0 > self.sram.0 {
            return Err(Error::capacity(format!(
                "{need} of packed MVs at {resolution}/{mb_size} exceeds the {} MC SRAM",
                self.sram
            )));
        }
        Ok(())
    }

    /// Wall-clock duration of `cycles` in the MC clock domain.
    pub fn duration(&self, cycles: Cycles) -> Picos {
        self.clock.to_time(cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sram_sized_exactly_for_1080p_at_16px_blocks() {
        // The paper's design point: 120x68 = 8160 B fits the 8 KiB SRAM
        // with 32 bytes to spare.
        let need = McConfig::packed_mv_bytes(Resolution::FULL_HD, 16);
        assert_eq!(need.0, 8160);
        McConfig::default()
            .check_capacity(Resolution::FULL_HD, 16)
            .unwrap();
    }

    #[test]
    fn small_macroblocks_exceed_the_sram() {
        let err = McConfig::default()
            .check_capacity(Resolution::FULL_HD, 8)
            .unwrap_err();
        assert!(matches!(err, Error::CapacityExceeded(_)));
    }

    #[test]
    fn vga_fits_easily() {
        McConfig::default()
            .check_capacity(Resolution::VGA, 16)
            .unwrap();
        McConfig::default()
            .check_capacity(Resolution::VGA, 8)
            .unwrap();
    }

    #[test]
    fn area_matches_paper_silicon() {
        let cfg = McConfig::default();
        assert!((cfg.area_mm2 - 0.035).abs() < 1e-9);
    }

    #[test]
    fn duration_uses_the_100mhz_domain() {
        let cfg = McConfig::default();
        // 100k cycles @ 100 MHz = 1 ms.
        assert_eq!(cfg.duration(Cycles(100_000)), Picos::from_millis(1));
    }
}
