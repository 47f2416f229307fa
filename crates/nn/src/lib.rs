//! # euphrates-nn
//!
//! The neural-network substrate of the Euphrates reproduction:
//!
//! * [`layer`] / [`zoo`] — layer-accurate descriptors of the evaluated
//!   networks (YOLOv2, Tiny YOLO, MDNet, plus the Fig. 1 comparison
//!   points), with MAC/parameter/GOPS accounting that reproduces Table 2.
//! * [`systolic`] — a SCALE-Sim-style analytical model of the 24×24
//!   systolic-array accelerator of Table 1 (cycles, utilization, SRAM
//!   refetch, DRAM traffic — including the ~646 MB-per-YOLOv2-inference
//!   headline number).
//! * [`engine`] — the NNX planner: prices an inference (or a fused batch)
//!   on the systolic model at the calibrated 651 mW / 1.77 TOPS/W. The
//!   SoC's timing oracle (`euphrates_soc::sim`) and energy ledger
//!   (`euphrates_soc::energy`) consume its plans.
//! * [`oracle`] — functional accuracy models substituting for trained
//!   weights (the [`oracle`] module docs say why this preserves the
//!   paper's experiments); calibrated per network in [`oracle::calib`].
//! * [`classic`] — Haar/HOG sliding-window cost models for Fig. 1.
//!
//! ## Example
//!
//! ```
//! use euphrates_nn::{engine::NnxEngine, zoo};
//!
//! let engine = NnxEngine::default();
//! let plan = engine.plan(&zoo::yolov2());
//! // Baseline YOLOv2 cannot reach 60 FPS on a mobile accelerator (Fig. 1).
//! assert!(plan.fps() < 25.0);
//! ```

pub mod classic;
pub mod engine;
pub mod layer;
pub mod oracle;
pub mod systolic;
pub mod zoo;

pub use engine::{BatchPlan, InferencePlan, NnxConfig, NnxEngine};
pub use layer::{Layer, LayerKind, NetworkDescriptor, TensorShape};
pub use oracle::{
    Detection, DetectorOracle, DetectorProfile, OracleTarget, TrackerOracle, TrackerProfile,
};
pub use systolic::{Dataflow, NetworkStats, SystolicConfig, SystolicModel};
