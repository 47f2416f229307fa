//! The NNX accelerator IP as a planner: it prices an inference, or a
//! fused batch, on the systolic performance model at the calibrated
//! active power. Job timing lives in the SoC's discrete-event pipeline,
//! and the charged idle power in the SoC energy model.
//!
//! Per the paper's design principle (§4.1), the CNN engine is *unmodified*
//! by Euphrates: it exposes the same slave interface to the interconnect
//! and simply runs whatever job descriptors it is given. In the baseline
//! system the host CPU programs it; in Euphrates the Motion Controller
//! does (master role), with results flowing back over memory-mapped
//! registers.

use crate::layer::NetworkDescriptor;
use crate::systolic::{NetworkStats, SystolicConfig, SystolicModel};
use euphrates_common::units::{Bytes, MilliJoules, MilliWatts, Picos};

/// Static NNX configuration: the systolic array plus calibrated power
/// (§5.1: post-layout 651 mW at 1 GHz in 16 nm, 1.77 TOPS/W).
#[derive(Debug, Clone, PartialEq)]
pub struct NnxConfig {
    /// Underlying array/SRAM/dataflow configuration.
    pub systolic: SystolicConfig,
    /// Power while running a job.
    pub active_power: MilliWatts,
}

impl Default for NnxConfig {
    fn default() -> Self {
        NnxConfig {
            systolic: SystolicConfig::table1(),
            active_power: MilliWatts(651.0),
        }
    }
}

impl NnxConfig {
    /// Power efficiency at peak throughput, TOPS/W.
    pub fn tops_per_watt(&self) -> f64 {
        self.systolic.peak_ops_per_sec() / 1e12 / (self.active_power.0 / 1000.0)
    }
}

/// A planned inference: the per-network analysis reused across frames.
#[derive(Debug, Clone, PartialEq)]
pub struct InferencePlan {
    stats: NetworkStats,
    active_power: MilliWatts,
}

impl InferencePlan {
    /// Per-inference latency.
    pub fn latency(&self) -> Picos {
        self.stats.latency()
    }

    /// Per-inference accelerator energy (active power over the latency —
    /// the §5.1 measurement convention).
    pub fn energy(&self) -> MilliJoules {
        self.active_power.over(self.latency())
    }

    /// DRAM bytes read per inference.
    pub fn dram_read(&self) -> Bytes {
        self.stats.dram_read()
    }

    /// DRAM bytes written per inference.
    pub fn dram_write(&self) -> Bytes {
        self.stats.dram_write()
    }

    /// The underlying per-layer statistics.
    pub fn stats(&self) -> &NetworkStats {
        &self.stats
    }

    /// Sustained FPS for back-to-back jobs.
    pub fn fps(&self) -> f64 {
        self.stats.fps()
    }
}

/// A planned batched inference: `requests` same-network jobs fused into
/// one weight-resident pass over the array (see
/// [`SystolicModel::analyze_batch`]).
///
/// Where [`InferencePlan`] prices one request, a `BatchPlan` prices the
/// whole fused batch; the `per_request_*` accessors hand back the
/// amortized share the serving layer charges to each session.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchPlan {
    requests: u32,
    stats: NetworkStats,
    active_power: MilliWatts,
}

impl BatchPlan {
    /// Number of fused requests.
    pub fn requests(&self) -> u32 {
        self.requests
    }

    /// Latency of the whole batch.
    pub fn latency(&self) -> Picos {
        self.stats.latency()
    }

    /// Accelerator energy for the whole batch.
    pub fn energy(&self) -> MilliJoules {
        self.active_power.over(self.latency())
    }

    /// Total array cycles for the whole batch.
    pub fn compute_cycles(&self) -> u64 {
        self.stats.total_compute_cycles().0
    }

    /// DRAM bytes read by the whole batch.
    pub fn dram_read(&self) -> Bytes {
        self.stats.dram_read()
    }

    /// DRAM bytes written by the whole batch.
    pub fn dram_write(&self) -> Bytes {
        self.stats.dram_write()
    }

    /// Amortized per-request latency (batch latency / requests; the
    /// remainder is charged to request 0 so shares sum to the total).
    pub fn per_request_latency(&self) -> Picos {
        Picos(self.latency().0 / u64::from(self.requests))
    }

    /// Amortized per-request energy.
    pub fn per_request_energy(&self) -> MilliJoules {
        MilliJoules(self.energy().0 / f64::from(self.requests))
    }

    /// The underlying per-layer statistics.
    pub fn stats(&self) -> &NetworkStats {
        &self.stats
    }

    /// Compute-cycle amortization against a solo plan: batched cycles
    /// divided by `requests ×` the solo cycles. 1.0 means batching
    /// bought nothing; lower is better.
    pub fn amortization_vs(&self, solo: &InferencePlan) -> f64 {
        let solo_total =
            u128::from(self.requests) * u128::from(solo.stats.total_compute_cycles().0);
        if solo_total == 0 {
            return 1.0;
        }
        self.compute_cycles() as f64 / solo_total as f64
    }
}

/// The CNN accelerator IP: plans inferences on its systolic array.
#[derive(Debug, Clone)]
pub struct NnxEngine {
    config: NnxConfig,
    model: SystolicModel,
}

impl NnxEngine {
    /// Creates an engine.
    pub fn new(config: NnxConfig) -> Self {
        let model = SystolicModel::new(config.systolic.clone());
        NnxEngine { config, model }
    }

    /// Plans inference for a network (run once, reuse per frame).
    pub fn plan(&self, net: &NetworkDescriptor) -> InferencePlan {
        InferencePlan {
            stats: self.model.analyze(net),
            active_power: self.config.active_power,
        }
    }

    /// Plans a fused batch of `requests` same-network inferences (run
    /// once per batch size, reuse across batches).
    pub fn plan_batch(&self, net: &NetworkDescriptor, requests: u32) -> BatchPlan {
        let requests = requests.max(1);
        BatchPlan {
            requests,
            stats: self.model.analyze_batch(net, requests),
            active_power: self.config.active_power,
        }
    }
}

impl Default for NnxEngine {
    fn default() -> Self {
        NnxEngine::new(NnxConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;

    #[test]
    fn efficiency_matches_paper_silicon() {
        // §5.1: 1.77 TOPS/W.
        let eff = NnxConfig::default().tops_per_watt();
        assert!((eff - 1.77).abs() < 0.02, "TOPS/W = {eff}");
    }

    #[test]
    fn plan_energy_is_power_times_latency() {
        let engine = NnxEngine::default();
        let plan = engine.plan(&zoo::tiny_yolo());
        let expected = 651.0 * plan.latency().as_secs_f64();
        assert!((plan.energy().0 - expected).abs() < 1e-9);
    }

    #[test]
    fn yolov2_inference_energy_is_tens_of_mj() {
        let engine = NnxEngine::default();
        let plan = engine.plan(&zoo::yolov2());
        // ~651 mW × ~55-70 ms ≈ 36-46 mJ.
        assert!(
            (20.0..70.0).contains(&plan.energy().0),
            "energy {} mJ",
            plan.energy().0
        );
    }

    #[test]
    fn batch_plan_amortizes_cycles_and_energy() {
        let engine = NnxEngine::default();
        let net = zoo::mdnet();
        let solo = engine.plan(&net);
        for b in [2u32, 8, 16] {
            let batch = engine.plan_batch(&net, b);
            assert_eq!(batch.requests(), b);
            let ratio = batch.amortization_vs(&solo);
            assert!(ratio < 1.0, "B={b}: amortization ratio {ratio} not below 1");
            assert!(
                batch.per_request_energy().0 < solo.energy().0,
                "B={b}: per-request energy did not shrink"
            );
            assert!(batch.per_request_latency().0 < solo.latency().0);
        }
    }

    #[test]
    fn batch_plan_of_zero_clamps_to_one_request() {
        let engine = NnxEngine::default();
        let net = zoo::tiny_yolo();
        let zero = engine.plan_batch(&net, 0);
        assert_eq!(zero.requests(), 1);
        assert_eq!(zero, engine.plan_batch(&net, 1));
        // A single-request batch still uses the weight-resident walk, so
        // its shares are self-consistent even though it is not the solo
        // conservative walk (documented in the systolic crate docs).
        assert_eq!(zero.per_request_latency(), zero.latency());
    }

    #[test]
    fn plan_is_reusable_and_consistent() {
        let engine = NnxEngine::default();
        let a = engine.plan(&zoo::yolov2());
        let b = engine.plan(&zoo::yolov2());
        assert_eq!(a, b);
        assert_eq!(a.dram_read().0 + a.dram_write().0, a.stats().dram_total().0);
    }
}
