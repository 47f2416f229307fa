//! # euphrates-core
//!
//! The Euphrates continuous-vision pipeline: the paper's primary
//! contribution assembled from the workspace's substrates.
//!
//! * [`api`] — the unified public API: the [`VisionTask`] trait, the
//!   [`Scenario`] builder, and the streaming [`Session`].
//! * [`frontend`] — the streaming frame front-end: camera/scene
//!   rendering plus ISP block matching → per-frame ground truth and
//!   motion fields, produced lazily by [`frame_source`] (O(1 frame) of
//!   memory), eagerly by [`prepare_sequence`], and shared across an
//!   evaluation grid by
//!   [`PreparedCache`]. Which search explores the block-matching window
//!   is a knob: [`MotionConfig::strategy`] names one of the four
//!   built-in walks — exhaustive, three-step, diamond, or two-level
//!   hierarchical.
//! * [`backend`] — shared backend machinery: EW scheduling, the ROI
//!   extrapolation step (reference or fixed-point datapath), MC cycle
//!   accounting.
//! * [`tracker`] / [`detector`] — the two evaluated tasks (§5.2): MDNet-
//!   class single-object tracking and YOLOv2-class multi-object
//!   detection, as [`VisionTask`] implementations.
//! * [`eval`] — deterministic parallel evaluation plumbing;
//!   [`Scenario::evaluate`] parallelizes the full *(sequence × scheme)*
//!   grid over it.
//! * [`system`] — the Table 1 platform model mapping inference rates to
//!   SoC energy, FPS, and DRAM traffic.
//!
//! ## Quickstart
//!
//! Describe an experiment with the [`Scenario`] builder — *dataset ×
//! motion config × scheme registry × platform* — and evaluate it to a
//! structured report that carries accuracy, energy, FPS, and DRAM
//! traffic together:
//!
//! ```
//! use euphrates_core::prelude::*;
//!
//! # fn main() -> euphrates_common::Result<()> {
//! // A small tracking suite at 10% scale.
//! let mut suite = euphrates_datasets::otb100_like(42, DatasetScale::fraction(0.1));
//! suite.truncate(2);
//! for s in &mut suite { s.frames = 40; }
//!
//! let scenario = Scenario::builder(TrackerTask::new(euphrates_nn::oracle::calib::mdnet()))
//!     .suite(suite)
//!     .network(euphrates_nn::zoo::mdnet())
//!     .scheme("MDNet", BackendConfig::baseline())
//!     .scheme("EW-4", BackendConfig::new(EwPolicy::Constant(4)))
//!     .build()?;
//! let report = scenario.evaluate()?;
//! assert_eq!(report.len(), 2);
//! // Extrapolation quarters the inference count ...
//! let ew4 = report.get("EW-4").unwrap();
//! assert!(ew4.outcome.inference_rate() < 0.3);
//! // ... and the same report already carries the platform numbers.
//! assert!(ew4.system.as_ref().unwrap().fps > report.schemes[0].system.as_ref().unwrap().fps);
//! # Ok(())
//! # }
//! ```
//!
//! ### Streaming
//!
//! The same schedule runs incrementally: open a [`Session`] and push
//! frames as they arrive. The frames themselves stream too —
//! [`frame_source`] renders and motion-estimates lazily, so nothing
//! materializes a whole sequence, and per-frame results bit-match the
//! offline path above. Pick the search walk through
//! [`MotionConfig::strategy`].
//!
//! ```
//! use euphrates_core::prelude::*;
//!
//! # fn main() -> euphrates_common::Result<()> {
//! let mut suite = euphrates_datasets::otb100_like(42, DatasetScale::fraction(0.1));
//! suite.truncate(1);
//! suite[0].frames = 12;
//! let motion = MotionConfig {
//!     strategy: SearchStrategy::Diamond, // or Exhaustive, ThreeStep, Hierarchical
//!     ..MotionConfig::default()
//! };
//!
//! let task = TrackerTask::new(euphrates_nn::oracle::calib::mdnet());
//! let source = frame_source(&suite[0], &motion)?;
//! let mut session = Session::new(task, BackendConfig::new(EwPolicy::Constant(4)),
//!                                source.resolution(), 0)?;
//! for frame in source {
//!     let decision: FrameDecision = session.push_frame(&frame?)?;
//!     if decision.is_inference() {
//!         // e.g. ship the fresh CNN result downstream
//!     }
//! }
//! assert_eq!(session.outcome().frames, 12);
//! assert_eq!(session.outcome().inferences, 3);
//! # Ok(())
//! # }
//! ```
//!
//! The one-call form of the same loop is
//! [`run_stream`]`(task, resolution, frames, &config, stream)`; batch
//! evaluation over many sequences and schemes belongs to
//! [`Scenario::evaluate`], which shares each sequence's prepared frames
//! across schemes through a [`PreparedCache`].
//!
//! ### Serving
//!
//! A [`Session`] is the unit of serving: it is `Send` (it moves to a
//! worker thread whole), it validates every pushed frame against the
//! resolution it was opened at, and any error *poisons* it — later
//! pushes fail fast instead of silently desynchronizing the frame
//! index and EW schedule (see the "Serving semantics" notes on
//! [`Session`]). The multi-stream layer built on those guarantees —
//! sharding ids onto workers, bounded ingress queues with
//! backpressure, per-session panic isolation, drain reports with
//! latency quantiles — is the `euphrates-serve` crate; its sessions
//! bit-match [`Scenario::evaluate`] because both are this crate's
//! per-frame scheduler.
//!
//! ## Environment
//!
//! * `EUPHRATES_THREADS` — overrides the evaluation worker-thread count
//!   (positive integer, capped at 16; see [`eval::default_threads`]).
//!   Results are thread-count independent; the knob only controls
//!   parallelism.

pub mod api;
pub mod backend;
pub mod detector;
pub mod eval;
pub mod frontend;
pub mod system;
pub mod tracker;

pub use api::{
    run_stream, run_task, EvalReport, FrameContext, FrameDecision, Scenario, ScenarioBuilder,
    SchemeId, SchemeResult, SchemeSpec, Session, SessionCheckpoint, StepStats, VisionTask,
};
pub use backend::{BackendConfig, TaskOutcome};
pub use detector::DetectorTask;
pub use eval::parallel_map;
pub use frontend::{
    frame_source, prepare_sequence, FrameData, FrameSource, MotionConfig, PreparedCache,
    PreparedSequence,
};
pub use system::SystemModel;
pub use tracker::TrackerTask;

/// Convenience re-exports for pipeline users.
pub mod prelude {
    pub use crate::api::{
        run_stream, run_task, EvalReport, FrameContext, FrameDecision, Scenario, ScenarioBuilder,
        SchemeId, SchemeResult, SchemeSpec, Session, SessionCheckpoint, StepStats, VisionTask,
    };
    pub use crate::backend::{BackendConfig, TaskOutcome};
    pub use crate::detector::DetectorTask;
    pub use crate::frontend::{
        frame_source, prepare_sequence, FrameData, FrameSource, MotionConfig, PreparedCache,
        PreparedSequence,
    };
    pub use crate::system::SystemModel;
    pub use crate::tracker::TrackerTask;
    pub use euphrates_datasets::{DatasetScale, Sequence, VisualAttribute};
    pub use euphrates_isp::motion::SearchStrategy;
    pub use euphrates_mc::policy::{AdaptiveConfig, EwPolicy, FrameKind};
    pub use euphrates_soc::energy::ExtrapolationExecutor;
}
