//! # euphrates-soc
//!
//! The mobile-SoC substrate: the performance and power models of the
//! paper's GemDroid-style in-house simulator (§5.1), calibrated against
//! its published Jetson TX2 measurements and RTL synthesis results.
//!
//! [`energy`] is the one cost model and [`sim`] its one oracle:
//!
//! * [`energy`] — the analytical SoC energy/throughput model behind
//!   Fig. 9b/9c/10b: per-frame ledgers split into frontend / memory /
//!   backend / CPU, extrapolation-window amortization, real-time FPS.
//! * [`sim`] — the Fig. 5 pipeline (sensor → ISP → MC → NNX) as one
//!   discrete-event loop with frame-drop semantics; cross-checks the
//!   analytical FPS and powers the `soc_trace` example.
//! * [`dram`] — LPDDR3 energy (DRAMPower-lite, calibrated to ≈230 mW at
//!   1080p60 streaming), charged by [`energy`].
//! * [`cpu`] — the wake/ramp/hold CPU episode model that quantifies why
//!   software extrapolation negates Euphrates' savings (the EW-N@CPU
//!   bars).
//! * [`power`] — per-IP energy ledger and the figure-style breakdown.
//! * [`config`] — the Table 1 system description.
//!
//! ## Example
//!
//! ```
//! use euphrates_soc::energy::{EnergyModel, SchemeParams};
//! use euphrates_common::units::{Bytes, Picos};
//!
//! # fn main() -> euphrates_common::Result<()> {
//! let model = EnergyModel::default();
//! let baseline = SchemeParams::baseline(
//!     Picos::from_millis(63),
//!     Bytes(643_000_000),
//!     Bytes(11_500_000),
//! );
//! let report = model.evaluate(&baseline, 56_500_000_000)?;
//! assert!(report.fps < 20.0); // YOLOv2-class inference every frame
//! # Ok(())
//! # }
//! ```

pub mod config;
pub mod cpu;
pub mod dram;
pub mod energy;
pub mod power;
pub mod sim;

pub use config::SocConfig;
pub use cpu::CpuConfig;
pub use dram::DramConfig;
pub use energy::{
    EnergyModel, EnergyModelConfig, ExtrapolationExecutor, SchemeParams, SchemeReport,
};
pub use power::{EnergyBreakdown, EnergyLedger, IpBlock, NormalizedBreakdown};
pub use sim::{run_vision_pipeline, PipelineRun, PipelineTimings};
