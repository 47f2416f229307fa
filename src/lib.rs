//! # euphrates
//!
//! A from-scratch Rust reproduction of **Euphrates: Algorithm-SoC
//! Co-Design for Low-Power Mobile Continuous Vision** (Zhu, Samajdar,
//! Mattina, Whatmough — ISCA 2018).
//!
//! Euphrates cuts the energy of continuous-vision tasks by replacing most
//! CNN inferences with *motion extrapolation*: the ISP already computes
//! block-matching motion vectors for temporal denoising, so exposing them
//! to a tiny new **Motion Controller** IP lets the SoC shift detections
//! and tracks across frames for ~10 K fixed-point operations instead of
//! tens of GOPs of convolution.
//!
//! This meta-crate re-exports the whole workspace:
//!
//! | crate | contents |
//! |---|---|
//! | [`common`] | geometry, fixed point, images, metrics, units |
//! | [`camera`] | synthetic scenes + Bayer sensor model |
//! | [`isp`] | ISP pipeline, block matching, MV metadata export |
//! | [`nn`] | systolic accelerator model, network zoo, oracles |
//! | [`mc`] | the Motion Controller IP + extrapolation algorithm |
//! | [`soc`] | SoC energy/timing models, DES, DRAM, CPU |
//! | [`datasets`] | OTB/VOT/detection-style benchmark suites |
//! | [`core`] | the assembled continuous-vision pipeline |
//! | [`serve`] | sharded concurrent session serving |
//!
//! ## Quickstart
//!
//! Describe an experiment with the [`Scenario`][core::api::Scenario]
//! builder and evaluate it to a report carrying accuracy, energy, FPS,
//! and DRAM traffic together:
//!
//! ```
//! use euphrates::core::prelude::*;
//! use euphrates::nn::{oracle::calib, zoo};
//!
//! # fn main() -> euphrates::common::Result<()> {
//! let mut suite = euphrates::datasets::otb100_like(42, DatasetScale::fraction(0.1));
//! suite.truncate(2);
//! for s in &mut suite { s.frames = 40; }
//!
//! let report = Scenario::builder(TrackerTask::new(calib::mdnet()))
//!     .suite(suite)
//!     .network(zoo::mdnet())
//!     .scheme("MDNet", BackendConfig::baseline())
//!     .scheme("EW-4", BackendConfig::new(EwPolicy::Constant(4)))
//!     .build()?
//!     .evaluate()?;
//! let (base, ew4) = (report.get("MDNet").unwrap(), report.get("EW-4").unwrap());
//! assert!(ew4.outcome.inference_rate() < 0.3); // 3 of 4 inferences replaced
//! let (base_sys, ew4_sys) = (base.system.as_ref().unwrap(), ew4.system.as_ref().unwrap());
//! assert!(ew4_sys.energy_per_frame() < base_sys.energy_per_frame());
//! # Ok(())
//! # }
//! ```
//!
//! For online serving, the same schedule runs frame by frame through a
//! [`Session`][core::api::Session], fed by the streaming
//! [`frame_source`][core::frontend::frame_source] front-end (which
//! renders and motion-estimates lazily, holding one frame at a time).
//! Frame production is a scanline pipeline: the fast path renders
//! straight to luma through fixed, reused buffers (O(1) allocations
//! per frame). Sensor noise is one model: the counter-based
//! `FastGaussian` draws its samples through a windowed lane-parallel
//! hash batch and renders the dataset-default σ=2 VGA fused-luma
//! workload in ~1.25 ms/frame single-core (the noise stage itself
//! ~1 ms) under a *statistical* contract (moments/tails/independence)
//! plus recorded determinism digests (see the "Performance notes" in
//! [`camera`] for the renderer's guarantees).
//! Motion estimation is a knob: `MotionConfig::strategy` selects
//! exhaustive, three-step, diamond, or two-level hierarchical search.
//! The evaluated default is the pyramid-cached hierarchical search
//! (within 0.008 success rate of exhaustive at ~27 probes/block,
//! asserted by the Fig. 11b sweep), the SAD kernel is a SWAR
//! micro-kernel the compiler lowers to hardware SAD instructions, and
//! the streaming front-end caches each frame's pyramid level alongside
//! the frame. An opt-in SAD lower-bound prefilter
//! (`MotionConfig::prefilter` / `BlockMatcher::with_prefilter`)
//! eliminates most candidates before any pixel loads with bit-identical
//! fields — its value is the operation-count cut (~4.8× fewer SAD ops
//! for exhaustive search on noisy frames, ~1.55× hierarchical), the
//! quantity that models a hardware ISP. The `perfbench/` benchmark
//! measures the whole frame pipeline end to end — host time per frame,
//! SoC energy per frame and accuracy at 0.5 IoU — with a per-layer
//! ledger under `--trace 1`; on a 2-vCPU x86-64 host its `otb_sweep`
//! workload (the tracking sweep over the OTB-like suite) runs
//! ~3–4 ms/frame. A session consumes the same frames one at a time:
//!
//! ```no_run
//! use euphrates::core::prelude::*;
//! use euphrates::nn::oracle::calib;
//! # fn frames() -> Vec<FrameData> { vec![] }
//!
//! # fn main() -> euphrates::common::Result<()> {
//! let task = TrackerTask::new(calib::mdnet());
//! let config = BackendConfig::new(EwPolicy::Adaptive(AdaptiveConfig::default()));
//! let mut session = Session::new(task, config, euphrates::common::image::Resolution::VGA, 0)?;
//! for frame in &frames() {
//!     let decision = session.push_frame(frame)?;
//!     println!("frame {}: {:?}, {} ROIs", decision.frame, decision.kind, decision.rois);
//! }
//! # Ok(())
//! # }
//! ```
//!
//! ## Serving many streams
//!
//! One process carries many concurrent streams through the
//! [`serve`] layer: a [`SessionServer`][serve::SessionServer] shards
//! session ids onto worker threads (each session's frames processed in
//! order by one worker — outcomes stay bit-identical to a solo
//! [`Session`][core::api::Session] or the offline evaluate), bounded
//! ingress lanes park blocked producers on a capacity gate (no
//! spin-yield; [`try_submit`][serve::SessionServer::try_submit]
//! returns [`Busy`][serve::Submit] for callers that would rather not
//! wait), and concurrent sessions' NN inferences can be fused into
//! batched systolic jobs ([`NnBatchConfig`][serve::NnBatchConfig]) that
//! amortize weight loads and array fill/drain while outcomes stay
//! bit-identical — only the charged cycle/energy cost changes. The
//! drain report carries per-session outcomes plus merged
//! submit→completion and queue-wait histograms (p50/p95/p99 via
//! [`LatencyHistogram`][common::stats::LatencyHistogram]), per-worker
//! occupancy, ingress park/wake counters, and the realized batch
//! amortization ratio. The `serve_open_loop` workload of the
//! `perfbench/` benchmark measures serving capacity and open-loop
//! latency; `examples/session_server.rs` is the runnable tour.
//!
//! Under overload the server degrades gracefully instead of queueing
//! without bound: an [`SloConfig`][serve::SloConfig] arms an
//! [`OverloadController`][serve::OverloadController] that walks a
//! declared [`DegradationLadder`][serve::DegradationLadder] with
//! hysteresis — widening the extrapolation window (trading the paper's
//! accuracy knob for compute), shrinking the batching window, switching
//! to cheaper motion search, and shedding at the last rung — with
//! every transition recorded in the drain report's
//! [`DegradationReport`][serve::DegradationReport]. A seeded
//! [`ChaosConfig`][serve::ChaosConfig] fault plan (worker stalls,
//! injected panics, corrupted frames, forced admission rejections,
//! planned pressure) drives the bit-reproducible chaos suite, and
//! [`feed_sequence`][serve::feed_sequence] producers retry `Busy`
//! admissions with deterministic jittered backoff, tripping a typed
//! circuit breaker ([`FailureKind`][serve::FailureKind]) when a
//! session stays unreachable — with an optional half-open cooldown
//! ([`FeedPolicy::breaker_cooldown`][serve::FeedPolicy]) that probes
//! the session again after a quiet period instead of tombstoning it
//! on the first bad streak.
//!
//! The server also survives its own workers dying. Arming a
//! [`SuperviseConfig`][serve::SuperviseConfig] checkpoints every
//! session ([`Session::snapshot`][core::api::Session::snapshot] /
//! [`restore`][core::api::Session::restore], property-tested
//! bit-identical at any cut in `crates/core/tests/checkpoint.rs`) on a
//! fixed arrival cadence and keeps a bounded replay log; a worker hit
//! by a chaos kill or wedge loses its session table and rebuilds it in
//! place, on its own thread, from checkpoint + replay — drained
//! outcomes stay bit-identical to the offline run, and sessions past
//! the replay budget drain as
//! [`FailureKind::Unrecovered`][serve::FailureKind] with the exact lag
//! in the error. The incident timeline (kills, wedges, replay lags,
//! MTTR in logical ticks) lands in the drain report's
//! [`RecoveryReport`][serve::RecoveryReport]. For planned restarts,
//! [`SessionServer::freeze`][serve::SessionServer::freeze] drains the
//! fleet into a [`ServerImage`][serve::ServerImage] that
//! [`thaw`][serve::SessionServer::thaw] revives at any worker count —
//! warm restart, bit-identical outcomes.
//!
//! See `examples/` for runnable end-to-end scenarios and the
//! `euphrates-bench` crate's `paper` bench target for every figure and
//! table of the paper from one evaluation run.
//!
//! ## Environment
//!
//! * `EUPHRATES_SCALE` — dataset scale (0–1) for examples and benches.
//! * `EUPHRATES_THREADS` — evaluation worker-thread count override
//!   (positive integer, capped at 16; results are thread-count
//!   independent).

pub use euphrates_camera as camera;
pub use euphrates_common as common;
pub use euphrates_core as core;
pub use euphrates_datasets as datasets;
pub use euphrates_isp as isp;
pub use euphrates_mc as mc;
pub use euphrates_nn as nn;
pub use euphrates_serve as serve;
pub use euphrates_soc as soc;
