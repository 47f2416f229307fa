//! System-level composition: maps a (network, extrapolation-window,
//! executor) triple onto the SoC energy/throughput model — the glue
//! behind Fig. 9b/9c and Fig. 10b.
//!
//! Per the paper's convention (§5/§6), the performance/power models are
//! evaluated at the Table 1 operating point (1080p60 capture) even though
//! functional accuracy runs at the Fig. 1 VGA resolution: Euphrates
//! changes *how often* the backend works, and that schedule — measured as
//! an inference rate by the functional runs — transfers directly.

use euphrates_common::error::Result;
use euphrates_common::image::Resolution;
use euphrates_common::units::{Bytes, Picos};
use euphrates_isp::motion::MotionField;
use euphrates_mc::ip::McConfig;
use euphrates_mc::policy::FrameKind;
use euphrates_mc::sequencer::McSequencer;
use euphrates_nn::engine::{InferencePlan, NnxEngine};
use euphrates_nn::layer::NetworkDescriptor;
use euphrates_soc::energy::{EnergyModel, ExtrapolationExecutor, SchemeParams, SchemeReport};

/// The assembled Table 1 platform.
#[derive(Debug, Clone)]
pub struct SystemModel {
    nnx: NnxEngine,
    energy: EnergyModel,
    mc: McConfig,
    capture: Resolution,
    mb_size: u32,
}

impl SystemModel {
    /// The paper's platform: Table 1 NNX + MC, 1080p60 capture, 16-px
    /// macroblocks.
    pub fn table1() -> Self {
        SystemModel {
            nnx: NnxEngine::default(),
            energy: EnergyModel::default(),
            mc: McConfig::default(),
            capture: Resolution::FULL_HD,
            mb_size: 16,
        }
    }

    /// The NNX engine.
    pub fn nnx(&self) -> &NnxEngine {
        &self.nnx
    }

    /// The energy model.
    pub fn energy(&self) -> &EnergyModel {
        &self.energy
    }

    /// Plans inference for a network on this platform.
    pub fn plan(&self, net: &NetworkDescriptor) -> InferencePlan {
        self.nnx.plan(net)
    }

    /// Always-on frame streaming traffic at the capture resolution: the
    /// RAW frame written by the CSI DMA and read back by the ISP, plus
    /// the processed RGB frame written to the frame buffer.
    pub fn streaming_traffic(&self) -> Bytes {
        let raw = Bytes(self.capture.pixels() * 10 / 8); // 10-bit RAW
        let rgb = Bytes(self.capture.pixels() * 3);
        Bytes(2 * raw.0 + rgb.0)
    }

    /// Motion-vector metadata + MC result traffic per frame.
    pub fn metadata_traffic(&self) -> Bytes {
        let (bx, by) = self.capture.macroblocks(self.mb_size);
        // MV+confidence metadata per block plus ~1 KiB of results.
        Bytes(u64::from(bx) * u64::from(by) * MotionField::METADATA_BYTES_PER_BLOCK + 1024)
    }

    /// Per-frame MC busy time at the capture operating point (fetch,
    /// extrapolate ~10 ROIs, write back — Table 1's sizing workload).
    pub fn mc_time_per_frame(&self) -> Picos {
        let seq = McSequencer::default();
        // 10 ROIs × 4 sub-ROIs × (~24 blocks / 4 lanes × 3 passes + 24).
        let datapath = euphrates_common::units::Cycles(10 * 4 * (18 * 3 + 24));
        let program = seq.frame_program(
            FrameKind::Extrapolation,
            self.metadata_traffic().0,
            10,
            datapath,
        );
        self.mc.duration(program.total_cycles())
    }

    /// Builds the scheme parameters for a network at mean window `window`.
    pub fn scheme(
        &self,
        plan: &InferencePlan,
        window: f64,
        executor: ExtrapolationExecutor,
    ) -> SchemeParams {
        SchemeParams {
            window,
            inference_latency: plan.latency(),
            inference_traffic: plan.dram_read() + plan.dram_write(),
            streaming_traffic: self.streaming_traffic(),
            metadata_traffic: if window > 1.0 {
                self.metadata_traffic()
            } else {
                Bytes::ZERO
            },
            mc_time_per_frame: if window > 1.0 {
                self.mc_time_per_frame()
            } else {
                Picos::ZERO
            },
            extrapolation_ops: 10_000, // §3.2's per-frame estimate
            executor,
        }
    }

    /// Evaluates a network at a window on this platform.
    ///
    /// # Errors
    ///
    /// Propagates energy-model configuration errors.
    pub fn evaluate(
        &self,
        net: &NetworkDescriptor,
        window: f64,
        executor: ExtrapolationExecutor,
    ) -> Result<SchemeReport> {
        let plan = self.plan(net);
        let params = self.scheme(&plan, window, executor);
        self.energy.evaluate(&params, net.total_ops())
    }
}

impl Default for SystemModel {
    fn default() -> Self {
        SystemModel::table1()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use euphrates_nn::zoo;

    #[test]
    fn nnx_active_power_prices_plans_and_the_ledger_alike() {
        // The NNX's active power lives in two places: `NnxConfig` prices
        // plans and TOPS/W, and the energy model charges the ledger.
        use euphrates_nn::engine::NnxConfig;
        use euphrates_soc::energy::EnergyModelConfig;
        assert_eq!(
            NnxConfig::default().active_power,
            EnergyModelConfig::default().nnx_active
        );
    }

    #[test]
    fn streaming_traffic_matches_hand_math() {
        let sys = SystemModel::table1();
        // 2 x 2.59 MB RAW + 6.22 MB RGB ≈ 11.4 MB.
        let mb = sys.streaming_traffic().0 as f64 / 1e6;
        assert!((11.0..12.0).contains(&mb), "streaming {mb} MB");
    }

    #[test]
    fn metadata_is_tens_of_kb() {
        let sys = SystemModel::table1();
        let kb = sys.metadata_traffic().0 as f64 / 1024.0;
        assert!((8.0..64.0).contains(&kb), "metadata {kb} KiB");
    }

    #[test]
    fn mc_frame_time_fits_the_frame_budget() {
        let sys = SystemModel::table1();
        let t = sys.mc_time_per_frame().as_secs_f64();
        assert!(t < 1.0 / 60.0 / 10.0, "MC time {t} s");
    }

    #[test]
    fn yolov2_scheme_sweep_reproduces_headline_numbers() {
        let sys = SystemModel::table1();
        let net = zoo::yolov2();
        let base = sys
            .evaluate(&net, 1.0, ExtrapolationExecutor::MotionController)
            .unwrap();
        let ew2 = sys
            .evaluate(&net, 2.0, ExtrapolationExecutor::MotionController)
            .unwrap();
        let ew4 = sys
            .evaluate(&net, 4.0, ExtrapolationExecutor::MotionController)
            .unwrap();
        // §6.1 headlines: ~17 -> ~35 -> 60 FPS; −45% / −66% energy.
        assert!((13.0..19.0).contains(&base.fps), "base {}", base.fps);
        assert!((27.0..38.0).contains(&ew2.fps), "ew2 {}", ew2.fps);
        assert!(ew4.fps > 58.0, "ew4 {}", ew4.fps);
        let s2 = 1.0 - ew2.energy_per_frame().0 / base.energy_per_frame().0;
        let s4 = 1.0 - ew4.energy_per_frame().0 / base.energy_per_frame().0;
        assert!((0.38..0.52).contains(&s2), "EW-2 saving {s2}");
        assert!((0.58..0.72).contains(&s4), "EW-4 saving {s4}");
    }

    #[test]
    fn mdnet_tracking_savings_match_fig10b_shape() {
        let sys = SystemModel::table1();
        let net = zoo::mdnet();
        let base = sys
            .evaluate(&net, 1.0, ExtrapolationExecutor::MotionController)
            .unwrap();
        assert!(base.fps > 55.0, "MDNet baseline must be real-time");
        let ew2 = sys
            .evaluate(&net, 2.0, ExtrapolationExecutor::MotionController)
            .unwrap();
        let s2 = 1.0 - ew2.energy_per_frame().0 / base.energy_per_frame().0;
        // §6.2: ~21% (we land within a few points).
        assert!((0.13..0.30).contains(&s2), "tracking EW-2 saving {s2}");
        assert!(ew2.fps > 58.0, "tracking never drops below 60 FPS");
    }

    #[test]
    fn cpu_executor_is_charged_for_wakeups() {
        let sys = SystemModel::table1();
        let net = zoo::yolov2();
        let mc8 = sys
            .evaluate(&net, 8.0, ExtrapolationExecutor::MotionController)
            .unwrap();
        let cpu8 = sys.evaluate(&net, 8.0, ExtrapolationExecutor::Cpu).unwrap();
        assert!(
            cpu8.energy_per_frame().0 > mc8.energy_per_frame().0 * 1.3,
            "cpu {} vs mc {}",
            cpu8.energy_per_frame().0,
            mc8.energy_per_frame().0
        );
    }
}
