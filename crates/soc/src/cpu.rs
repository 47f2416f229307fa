//! Host CPU model — used only by the "extrapolation in software" variant
//! (the EW-N@CPU bars of Fig. 9b).
//!
//! The paper's argument for the Motion Controller IP (§4.1) is that
//! software extrapolation, though computationally trivial, forces a CPU
//! wake-up on every E-frame: the core must leave its low-power state, ramp
//! its clock/voltage, take the interrupt, run cache-cold code, and linger
//! at the governor's hold time before descending again. The energy of one
//! such episode dwarfs the ~10 K arithmetic operations involved, which is
//! why "EW-8 with CPU-based extrapolation consumes almost as much energy
//! as EW-4" (§6.1).

use euphrates_common::units::{MilliJoules, MilliWatts, Picos};

/// CPU energy/timing parameters (big-core mobile cluster).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuConfig {
    /// Power while awake and executing (a single big core with its L2 and
    /// fabric share; §2.1 notes the cluster alone can exceed 3 W).
    pub active_power: MilliWatts,
    /// Wake-up + DVFS ramp latency before useful work starts.
    pub wake_latency: Picos,
    /// Governor hold time after the work completes (the core stays up).
    pub hold_time: Picos,
    /// Sustained throughput on the extrapolation kernel, ops/second.
    pub ops_per_second: f64,
}

impl Default for CpuConfig {
    fn default() -> Self {
        CpuConfig {
            active_power: MilliWatts(2000.0),
            wake_latency: Picos::from_millis(2),
            hold_time: Picos::from_micros(2_400),
            ops_per_second: 2.0e9,
        }
    }
}

impl CpuConfig {
    /// Wall-clock time the CPU is awake to execute one extrapolation
    /// episode of `ops` operations.
    pub fn episode_time(&self, ops: u64) -> Picos {
        let work = Picos::from_secs_f64(ops as f64 / self.ops_per_second);
        self.wake_latency + work + self.hold_time
    }

    /// Energy of one wake-execute-sleep episode.
    pub fn episode_energy(&self, ops: u64) -> MilliJoules {
        self.active_power.over(self.episode_time(ops))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn episode_energy_is_dominated_by_wake_not_work() {
        let cpu = CpuConfig::default();
        // The §3.2 workload: ~10 K fixed-point ops.
        let e_work_only = MilliJoules(cpu.active_power.0 * (10_000.0 / cpu.ops_per_second));
        let e_episode = cpu.episode_energy(10_000);
        assert!(
            e_episode.0 > 100.0 * e_work_only.0,
            "episode {} vs pure work {}",
            e_episode.0,
            e_work_only.0
        );
    }

    #[test]
    fn episode_energy_matches_calibration_target() {
        // Calibrated so EW-8@CPU lands near EW-4's total energy in Fig. 9b:
        // ~8-10 mJ per E-frame episode.
        let e = CpuConfig::default().episode_energy(10_000);
        assert!((7.0..12.0).contains(&e.0), "episode energy {e}");
    }

    #[test]
    fn episode_time_scales_with_ops() {
        let cpu = CpuConfig::default();
        let small = cpu.episode_time(1_000);
        let large = cpu.episode_time(2_000_000_000);
        assert!(large > small);
        assert!(
            large.as_secs_f64() > 1.0,
            "2G ops at 2 GOPS ≈ 1 s + overhead"
        );
    }
}
