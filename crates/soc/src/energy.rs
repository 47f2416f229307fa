//! The SoC-level energy/throughput model behind Fig. 9b, Fig. 9c, and
//! Fig. 10b.
//!
//! Evaluation convention (matching §6.1): the frontend captures at a
//! constant rate (60 FPS), so *frontend energy per frame is identical
//! across schemes*; what varies is how often the expensive inference runs
//! (the extrapolation window `N`), the DRAM traffic, and the backend duty
//! cycle. Accuracy is measured offline on every frame; the FPS reported
//! here is the throughput the scheme would sustain in real time:
//!
//! ```text
//! window time  T_w = max(N / fps_capture, T_inf + T_seq)
//! fps          = N / T_w   (≤ fps_capture)
//! ```
//!
//! Per processed frame, the ledger charges:
//! * frontend: active sensor+ISP power over one capture period;
//! * NNX: one inference per window (active power over its latency) plus
//!   idle power for the remainder;
//! * MC: its (tiny) per-frame energy — or, for `@CPU` schemes, a CPU
//!   wake episode per E-frame instead;
//! * DRAM: inference traffic once per window, streaming + metadata
//!   traffic every frame, background power over the frame's share of the
//!   window.

use crate::cpu::CpuConfig;
use crate::dram::DramConfig;
use crate::power::{EnergyBreakdown, EnergyLedger, IpBlock};
use euphrates_common::error::{Error, Result};
use euphrates_common::units::{Bytes, MilliJoules, MilliWatts, Picos};

/// Who executes the extrapolation arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExtrapolationExecutor {
    /// The dedicated Motion Controller IP (the Euphrates design).
    MotionController,
    /// The host CPU, waking up on every E-frame (the §6.1 comparison).
    Cpu,
}

/// Platform-level constants of the energy model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModelConfig {
    /// Frontend capture rate (frames/second).
    pub capture_fps: f64,
    /// Combined active power of sensor + ISP.
    pub frontend_power: MilliWatts,
    /// NNX active power (§5.1: 651 mW).
    pub nnx_active: MilliWatts,
    /// NNX idle power.
    pub nnx_idle: MilliWatts,
    /// MC active power (§5.1: 2.2 mW).
    pub mc_active: MilliWatts,
    /// DRAM model.
    pub dram: DramConfig,
    /// CPU model for `@CPU` schemes.
    pub cpu: CpuConfig,
}

impl Default for EnergyModelConfig {
    fn default() -> Self {
        EnergyModelConfig {
            capture_fps: 60.0,
            // 1080p60 calibration (§5.1): sensor 205 mW + ISP 157 mW, the
            // TX2's 153 mW plus 2.5 % for in-ISP motion estimation.
            frontend_power: MilliWatts(362.0),
            nnx_active: MilliWatts(651.0),
            nnx_idle: MilliWatts(33.0),
            mc_active: MilliWatts(2.2),
            dram: DramConfig::default(),
            cpu: CpuConfig::default(),
        }
    }
}

/// Per-scheme workload parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchemeParams {
    /// Mean extrapolation window `N` (1 = baseline; fractional for the
    /// adaptive mode, `N = 1 / inference_rate`).
    pub window: f64,
    /// One inference's latency on the NNX.
    pub inference_latency: Picos,
    /// One inference's DRAM traffic (reads + writes).
    pub inference_traffic: Bytes,
    /// Always-on streaming traffic per captured frame (RAW in/out, RGB
    /// frame write, backend frame read).
    pub streaming_traffic: Bytes,
    /// Motion-vector metadata + result traffic per frame (zero for the
    /// baseline, which does not export MVs).
    pub metadata_traffic: Bytes,
    /// MC sequencer + datapath time per frame (its clock domain already
    /// applied).
    pub mc_time_per_frame: Picos,
    /// Extrapolation arithmetic per E-frame (for CPU-executed schemes).
    pub extrapolation_ops: u64,
    /// Who runs the extrapolation.
    pub executor: ExtrapolationExecutor,
}

impl SchemeParams {
    /// Baseline parameters: inference every frame, no MV export.
    pub fn baseline(inference_latency: Picos, inference_traffic: Bytes, streaming: Bytes) -> Self {
        SchemeParams {
            window: 1.0,
            inference_latency,
            inference_traffic,
            streaming_traffic: streaming,
            metadata_traffic: Bytes::ZERO,
            mc_time_per_frame: Picos::ZERO,
            extrapolation_ops: 0,
            executor: ExtrapolationExecutor::MotionController,
        }
    }
}

/// The evaluated scheme: throughput plus a per-frame energy breakdown.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchemeReport {
    /// Mean window used.
    pub window: f64,
    /// Sustained real-time throughput (≤ capture rate).
    pub fps: f64,
    /// Wall-clock time per processed frame.
    pub time_per_frame: Picos,
    /// Energy per processed frame, by IP.
    pub ledger: EnergyLedger,
    /// DRAM traffic per processed frame.
    pub traffic_per_frame: Bytes,
    /// Arithmetic operations per frame on the backend (inference share).
    pub backend_ops_per_frame: f64,
}

impl SchemeReport {
    /// Per-frame energy in the figure grouping.
    pub fn breakdown(&self) -> EnergyBreakdown {
        self.ledger.breakdown()
    }

    /// Total per-frame energy.
    pub fn energy_per_frame(&self) -> MilliJoules {
        self.ledger.total()
    }
}

/// The energy/throughput model.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyModel {
    config: EnergyModelConfig,
}

impl EnergyModel {
    /// Creates a model.
    pub fn new(config: EnergyModelConfig) -> Self {
        EnergyModel { config }
    }

    /// The configuration.
    pub fn config(&self) -> &EnergyModelConfig {
        &self.config
    }

    /// Evaluates a scheme.
    ///
    /// `inference_ops` is the arithmetic cost of one inference (for the
    /// ops-per-frame output of Fig. 9c).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for a window below 1.
    pub fn evaluate(&self, params: &SchemeParams, inference_ops: u64) -> Result<SchemeReport> {
        if params.window < 1.0 {
            return Err(Error::config(format!(
                "extrapolation window {} must be >= 1",
                params.window
            )));
        }
        let cfg = &self.config;
        let n = params.window;
        let capture_period = Picos::from_secs_f64(1.0 / cfg.capture_fps);

        // Window wall time: frontend-limited or inference-limited.
        let frontend_window = Picos::from_secs_f64(n / cfg.capture_fps);
        let inference_window = params.inference_latency + params.mc_time_per_frame;
        let window_time = frontend_window.max(inference_window);
        let time_per_frame = Picos::from_secs_f64(window_time.as_secs_f64() / n);
        let fps = (n / window_time.as_secs_f64()).min(cfg.capture_fps);

        let mut ledger = EnergyLedger::new();

        // Frontend: constant per captured frame (§6.1).
        let fe = cfg.frontend_power.over(capture_period);
        // Split sensor/ISP 56.6/43.4 per the §5.1 measurements (205/157 mW).
        ledger.add(IpBlock::Sensor, fe * 0.566);
        ledger.add(IpBlock::Isp, fe * 0.434);

        // Backend NNX: one inference per window + idle remainder.
        let nnx_active = cfg.nnx_active.over(params.inference_latency) / n;
        let idle_time = window_time.saturating_sub(params.inference_latency);
        let nnx_idle = cfg.nnx_idle.over(idle_time) / n;
        ledger.add(IpBlock::Nnx, nnx_active + nnx_idle);

        // Extrapolation executor.
        match params.executor {
            ExtrapolationExecutor::MotionController => {
                ledger.add(IpBlock::Mc, cfg.mc_active.over(params.mc_time_per_frame));
            }
            ExtrapolationExecutor::Cpu => {
                // One wake episode per E-frame: (n-1) of n frames.
                let episodes_per_frame = (n - 1.0) / n;
                let e = cfg.cpu.episode_energy(params.extrapolation_ops);
                ledger.add(IpBlock::Cpu, e * episodes_per_frame);
            }
        }

        // DRAM: inference traffic amortized over the window; streaming and
        // metadata every frame; background over the frame's time share.
        let traffic_per_frame = Bytes(
            (params.inference_traffic.0 as f64 / n).round() as u64
                + params.streaming_traffic.0
                + params.metadata_traffic.0,
        );
        let dram =
            cfg.dram.access_energy(traffic_per_frame) + cfg.dram.background_energy(time_per_frame);
        ledger.add(IpBlock::Dram, dram);

        Ok(SchemeReport {
            window: n,
            fps,
            time_per_frame,
            ledger,
            traffic_per_frame,
            backend_ops_per_frame: inference_ops as f64 / n + params.extrapolation_ops as f64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// YOLOv2-class parameters matching the calibrated nn model.
    fn yolov2_params(window: f64) -> SchemeParams {
        SchemeParams {
            window,
            inference_latency: Picos::from_micros(63_500),
            inference_traffic: Bytes(643_000_000),
            streaming_traffic: Bytes(11_500_000),
            metadata_traffic: if window > 1.0 {
                Bytes(40_000)
            } else {
                Bytes::ZERO
            },
            mc_time_per_frame: Picos::from_micros(50),
            extrapolation_ops: 10_000,
            executor: ExtrapolationExecutor::MotionController,
        }
    }

    const YOLOV2_OPS: u64 = 56_500_000_000;

    #[test]
    fn baseline_fps_matches_inference_latency() {
        let model = EnergyModel::default();
        let r = model.evaluate(&yolov2_params(1.0), YOLOV2_OPS).unwrap();
        assert!((r.fps - 15.7).abs() < 0.5, "baseline fps {}", r.fps);
    }

    #[test]
    fn ew2_saves_around_45_percent() {
        // §6.1: EW-2 reduces total energy by ~45% and reaches ~35 FPS.
        let model = EnergyModel::default();
        let base = model.evaluate(&yolov2_params(1.0), YOLOV2_OPS).unwrap();
        let ew2 = model.evaluate(&yolov2_params(2.0), YOLOV2_OPS).unwrap();
        let saving = 1.0 - ew2.energy_per_frame().0 / base.energy_per_frame().0;
        assert!((0.35..0.52).contains(&saving), "EW-2 saving {saving}");
        assert!((28.0..38.0).contains(&ew2.fps), "EW-2 fps {}", ew2.fps);
    }

    #[test]
    fn ew4_saves_around_66_percent_and_hits_60fps() {
        let model = EnergyModel::default();
        let base = model.evaluate(&yolov2_params(1.0), YOLOV2_OPS).unwrap();
        let ew4 = model.evaluate(&yolov2_params(4.0), YOLOV2_OPS).unwrap();
        let saving = 1.0 - ew4.energy_per_frame().0 / base.energy_per_frame().0;
        assert!((0.58..0.72).contains(&saving), "EW-4 saving {saving}");
        assert!(ew4.fps > 58.0, "EW-4 fps {}", ew4.fps);
    }

    #[test]
    fn savings_diminish_beyond_ew8() {
        // Fig. 9b: the frontend+memory floor limits further gains.
        let model = EnergyModel::default();
        let base = model.evaluate(&yolov2_params(1.0), YOLOV2_OPS).unwrap();
        let e8 = model.evaluate(&yolov2_params(8.0), YOLOV2_OPS).unwrap();
        let e32 = model.evaluate(&yolov2_params(32.0), YOLOV2_OPS).unwrap();
        let s8 = 1.0 - e8.energy_per_frame().0 / base.energy_per_frame().0;
        let s32 = 1.0 - e32.energy_per_frame().0 / base.energy_per_frame().0;
        assert!(s32 > s8, "monotone savings");
        assert!(s32 - s8 < 0.15, "diminishing returns: {s8} -> {s32}");
    }

    #[test]
    fn cpu_extrapolation_negates_most_of_ew8_benefit() {
        // §6.1: EW-8@CPU ≈ EW-4 total energy.
        let model = EnergyModel::default();
        let ew4 = model.evaluate(&yolov2_params(4.0), YOLOV2_OPS).unwrap();
        let mut p = yolov2_params(8.0);
        p.executor = ExtrapolationExecutor::Cpu;
        let cpu8 = model.evaluate(&p, YOLOV2_OPS).unwrap();
        let ratio = cpu8.energy_per_frame().0 / ew4.energy_per_frame().0;
        assert!(
            (0.8..1.25).contains(&ratio),
            "EW-8@CPU / EW-4 = {ratio} ({} vs {})",
            cpu8.energy_per_frame().0,
            ew4.energy_per_frame().0
        );
        // And the CPU entry is what did it.
        assert!(cpu8.ledger.of(IpBlock::Cpu).0 > 5.0);
    }

    #[test]
    fn frontend_split_reads_section_5_1_powers() {
        // Over one 1080p60 frame period the ledger's frontend terms are
        // §5.1's powers: the TX2 ISP's 153 mW plus the 2.5 % in-ISP
        // motion-estimation overhead, and the 205 mW sensor.
        let model = EnergyModel::default();
        let r = model.evaluate(&yolov2_params(4.0), YOLOV2_OPS).unwrap();
        let fps = model.config().capture_fps;
        assert_eq!(fps, 60.0);
        let isp_mw = r.ledger.of(IpBlock::Isp).0 * fps;
        let sensor_mw = r.ledger.of(IpBlock::Sensor).0 * fps;
        assert!((isp_mw - 153.0 * 1.025).abs() < 0.5, "ISP {isp_mw} mW");
        assert!((sensor_mw - 205.0).abs() < 0.5, "sensor {sensor_mw} mW");
    }

    #[test]
    fn mc_power_matches_paper_silicon() {
        let cfg = EnergyModelConfig::default();
        assert!((cfg.mc_active.0 - 2.2).abs() < 1e-9);
        // MC power is ~300x below the NNX's 651 mW — the autonomy argument.
        assert!(cfg.mc_active.0 < 651.0 / 100.0);
    }

    #[test]
    fn frontend_energy_is_scheme_invariant() {
        let model = EnergyModel::default();
        let a = model.evaluate(&yolov2_params(1.0), YOLOV2_OPS).unwrap();
        let b = model.evaluate(&yolov2_params(16.0), YOLOV2_OPS).unwrap();
        assert!(
            (a.breakdown().frontend.0 - b.breakdown().frontend.0).abs() < 1e-9,
            "frontend must not vary across schemes"
        );
    }

    #[test]
    fn traffic_per_frame_drops_with_window() {
        // Fig. 9c: E-frames avoid the inference's SRAM-spill traffic.
        let model = EnergyModel::default();
        let base = model.evaluate(&yolov2_params(1.0), YOLOV2_OPS).unwrap();
        let ew8 = model.evaluate(&yolov2_params(8.0), YOLOV2_OPS).unwrap();
        assert!(base.traffic_per_frame.0 > 5 * ew8.traffic_per_frame.0);
        assert!(
            base.backend_ops_per_frame > 7.0 * ew8.backend_ops_per_frame,
            "ops/frame must fall with the window"
        );
    }

    #[test]
    fn fractional_windows_model_adaptive_mode() {
        let model = EnergyModel::default();
        let r = model.evaluate(&yolov2_params(3.5), YOLOV2_OPS).unwrap();
        assert!(r.fps > 50.0);
        let e2 = model.evaluate(&yolov2_params(2.0), YOLOV2_OPS).unwrap();
        let e4 = model.evaluate(&yolov2_params(4.0), YOLOV2_OPS).unwrap();
        assert!(r.energy_per_frame() < e2.energy_per_frame());
        assert!(r.energy_per_frame() > e4.energy_per_frame());
    }

    #[test]
    fn invalid_window_is_rejected() {
        let model = EnergyModel::default();
        assert!(model.evaluate(&yolov2_params(0.5), YOLOV2_OPS).is_err());
    }
}
