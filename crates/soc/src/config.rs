//! The modeled SoC configuration — Table 1 of the paper — as a displayable
//! summary (the `paper` bench target prints it next to the paper's
//! values).

use crate::energy::{EnergyModel, EnergyModelConfig, SchemeParams};
use crate::power::IpBlock;
use euphrates_common::units::{Bytes, MilliWatts, Picos};
use std::fmt;

/// The full Table 1 configuration plus the calibrated model constants.
#[derive(Debug, Clone, PartialEq)]
pub struct SocConfig {
    /// Camera sensor description.
    pub sensor: String,
    /// ISP description.
    pub isp: String,
    /// NNX description.
    pub nnx: String,
    /// Motion-controller description.
    pub mc: String,
    /// DRAM description.
    pub dram_desc: String,
    /// Energy-model constants.
    pub energy: EnergyModelConfig,
}

impl SocConfig {
    /// The Table 1 system. The sensor's power is the one the energy
    /// model charges: the ledger's `Sensor` term over one capture period.
    pub fn table1() -> Self {
        let energy = EnergyModelConfig::default();
        let frame = EnergyModel::new(energy)
            .evaluate(
                &SchemeParams::baseline(Picos::ZERO, Bytes::ZERO, Bytes::ZERO),
                0,
            )
            .expect("window 1 is valid");
        let sensor = MilliWatts(frame.ledger.of(IpBlock::Sensor).0 * energy.capture_fps);
        SocConfig {
            sensor: format!("AR1335-class, 1080p @ 60 FPS, {sensor}"),
            isp: "768 MHz, 1080p @ 60 FPS, 153 mW (+2.5% motion estimation)".into(),
            nnx: "24x24 systolic MAC array @ 1 GHz, 1.5 MB double-buffered SRAM, \
                  3-channel 128-bit AXI4 DMA, 651 mW (1.77 TOPS/W)"
                .into(),
            mc: "4-wide SIMD datapath @ 100 MHz, 8 KB SRAM, 3-channel 128-bit AXI4 DMA, \
                 2.2 mW, 0.035 mm2"
                .into(),
            dram_desc: "4-channel LPDDR3, 25.6 GB/s peak".into(),
            energy,
        }
    }
}

impl Default for SocConfig {
    fn default() -> Self {
        SocConfig::table1()
    }
}

impl fmt::Display for SocConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Component          Specification")?;
        writeln!(f, "{}", "-".repeat(72))?;
        writeln!(f, "Camera Sensor      {}", self.sensor)?;
        writeln!(f, "ISP                {}", self.isp)?;
        writeln!(f, "NN Accelerator     {}", self.nnx)?;
        writeln!(f, "Motion Controller  {}", self.mc)?;
        writeln!(f, "DRAM               {}", self.dram_desc)?;
        writeln!(
            f,
            "Energy model       frontend {:.0} mW, NNX {:.0}/{:.0} mW, MC {:.1} mW, \
             DRAM {:.0} pJ/B + {:.0} mW bg",
            self.energy.frontend_power.0,
            self.energy.nnx_active.0,
            self.energy.nnx_idle.0,
            self.energy.mc_active.0,
            self.energy.dram.energy_per_byte_pj,
            self.energy.dram.background_power.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_display_mentions_every_block() {
        let s = SocConfig::table1().to_string();
        for needle in [
            "1080p @ 60 FPS",
            "24x24 systolic",
            "1.5 MB",
            "4-wide SIMD",
            "8 KB SRAM",
            "LPDDR3",
            "25.6 GB/s",
        ] {
            assert!(s.contains(needle), "missing {needle:?} in:\n{s}");
        }
    }
}
