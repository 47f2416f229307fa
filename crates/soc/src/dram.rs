//! LPDDR3 main-memory energy (Table 1: 4-channel, 25.6 GB/s peak).
//!
//! An energy model in the DRAMPower spirit, reduced to an energy-per-byte
//! plus background power. Calibrated so that the always-on 1080p60
//! camera-streaming workload dissipates ≈230 mW, the paper's Jetson TX2
//! measurement (§5.1). Bandwidth is not modelled here: the NNX times its
//! spills with `SystolicConfig::dram_bandwidth`.

use euphrates_common::units::{Bytes, MilliJoules, MilliWatts, Picos};

/// DRAM configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramConfig {
    /// Access energy per byte (activate + read/write + I/O), picojoules.
    pub energy_per_byte_pj: f64,
    /// Background power (refresh, controller, PHY).
    pub background_power: MilliWatts,
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig {
            // Calibration: 38 pJ/B access + 200 mW background reproduces
            // both the TX2's ~230 mW DRAM power under 1080p60 streaming
            // (§5.1) and the Fig. 9b memory-vs-backend energy split.
            energy_per_byte_pj: 38.0,
            background_power: MilliWatts(200.0),
        }
    }
}

impl DramConfig {
    /// Access energy for `bytes` (excluding background).
    pub fn access_energy(&self, bytes: Bytes) -> MilliJoules {
        MilliJoules(bytes.0 as f64 * self.energy_per_byte_pj * 1e-12 * 1e3)
    }

    /// Background energy over `span`.
    pub fn background_energy(&self, span: Picos) -> MilliJoules {
        self.background_power.over(span)
    }

    /// Total energy for `bytes` moved during `span`.
    pub fn energy(&self, bytes: Bytes, span: Picos) -> MilliJoules {
        self.access_energy(bytes) + self.background_energy(span)
    }

    /// Average power while sustaining `bytes_per_sec` of traffic.
    pub fn average_power(&self, bytes_per_sec: f64) -> MilliWatts {
        MilliWatts(self.background_power.0 + bytes_per_sec * self.energy_per_byte_pj * 1e-12 * 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streaming_1080p60_dissipates_about_230mw() {
        // Calibration target (§5.1): camera streaming traffic at 1080p60 —
        // RAW in/out of the ISP working buffers plus the RGB frame write
        // and the backend's read — is ~11.5 MB/frame.
        let cfg = DramConfig::default();
        let bytes_per_sec = 11.5e6 * 60.0;
        let p = cfg.average_power(bytes_per_sec);
        assert!((200.0..260.0).contains(&p.0), "streaming power {p}");
    }

    #[test]
    fn energy_decomposes_into_access_plus_background() {
        let cfg = DramConfig::default();
        let span = Picos::from_millis(10);
        let bytes = Bytes::from_mib(100);
        let total = cfg.energy(bytes, span);
        let sum = cfg.access_energy(bytes) + cfg.background_energy(span);
        assert!((total.0 - sum.0).abs() < 1e-12);
        assert!(cfg.access_energy(bytes).0 > 0.0);
    }
}
