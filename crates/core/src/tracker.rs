//! The visual-tracking task (§5.2): single-object ROI propagation with
//! MDNet-class inference on I-frames and motion extrapolation on E-frames,
//! expressed as a [`VisionTask`] implementation.
//!
//! Protocol (standard OTB): the tracker is initialized with the ground-
//! truth box of frame 0; every subsequent frame produces exactly one
//! predicted box, scored by IoU against ground truth. Frames whose ground
//! truth is empty (target fully out of view) are excluded from scoring
//! but still advance the pipeline.

use crate::api::{FrameContext, StepStats, VisionTask};
use crate::backend::{extrapolate_roi, BackendConfig, TaskOutcome, TrackState};
use crate::frontend::FrameData;
use euphrates_common::error::{Error, Result};
use euphrates_common::geom::Rect;
use euphrates_common::image::Resolution;
use euphrates_nn::oracle::{OracleTarget, TrackerOracle, TrackerProfile};

/// Single-object tracking under the I/E-frame schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrackerTask {
    /// The oracle's accuracy calibration (e.g.
    /// [`calib::mdnet`][euphrates_nn::oracle::calib::mdnet]).
    pub profile: TrackerProfile,
}

impl TrackerTask {
    /// A tracking task with the given oracle profile.
    pub fn new(profile: TrackerProfile) -> Self {
        TrackerTask { profile }
    }
}

/// Per-sequence tracker state.
#[derive(Debug, Clone)]
pub struct TrackerState {
    oracle: TrackerOracle,
    filter: TrackState,
    prediction: Rect,
    /// Scratch clone of `filter` for the I-frame probe extrapolation,
    /// reused across frames (`clone_from` recycles its allocations).
    probe: TrackState,
}

impl TrackerState {
    /// The current predicted box (unclamped; departing ROIs park at the
    /// frame edge).
    pub fn prediction(&self) -> &Rect {
        &self.prediction
    }
}

/// The frame's first oracle-visible target (a zeroed placeholder when the
/// frame has none — inference against it simply re-detects nothing).
/// Reads the cached oracle view directly; no per-frame allocation.
fn first_target(frame: &FrameData) -> OracleTarget {
    frame.targets().first().copied().unwrap_or(OracleTarget {
        id: 0,
        label: 0,
        rect: Rect::default(),
        visibility: 0.0,
        blur: 0.0,
    })
}

impl VisionTask for TrackerTask {
    type State = TrackerState;

    fn name(&self) -> &'static str {
        "tracking"
    }

    fn init(
        &self,
        _resolution: Resolution,
        first: &FrameData,
        config: &BackendConfig,
        _stream: u64,
    ) -> Result<Self::State> {
        let first_truth = first
            .truth
            .first()
            .ok_or_else(|| Error::config("sequence has no target in frame 0"))?;
        if first_truth.rect.is_empty() {
            return Err(Error::config("target starts out of view"));
        }
        Ok(TrackerState {
            oracle: TrackerOracle::new(self.profile, config.seed),
            filter: TrackState::new(&config.extrapolation),
            prediction: first_truth.rect,
            probe: TrackState::new(&config.extrapolation),
        })
    }

    fn infer(
        &self,
        ctx: &FrameContext,
        state: &mut Self::State,
        _outcome: &mut TaskOutcome,
    ) -> StepStats {
        // The adaptive controller needs the extrapolated prediction this
        // inference replaces (§3.3); compute it in the reusable probe
        // scratch so the filter state is undisturbed and no per-frame
        // allocation happens.
        state.probe.clone_from(&state.filter);
        let (extrapolated, datapath_cycles, _) = extrapolate_roi(
            &state.prediction,
            &ctx.frame.motion,
            &mut state.probe,
            &ctx.config.extrapolation,
            ctx.config.fixed_datapath,
        );
        let target = first_target(ctx.frame);
        let inferred = state
            .oracle
            .track(&state.prediction, &target, ctx.stream, ctx.index);
        let policy_feedback = Some(inferred.iou(&extrapolated));
        state.prediction = inferred;
        StepStats {
            datapath_cycles,
            rois: 1,
            policy_feedback,
        }
    }

    fn extrapolate(
        &self,
        ctx: &FrameContext,
        state: &mut Self::State,
        outcome: &mut TaskOutcome,
    ) -> StepStats {
        let (roi, datapath_cycles, ops) = extrapolate_roi(
            &state.prediction,
            &ctx.frame.motion,
            &mut state.filter,
            &ctx.config.extrapolation,
            ctx.config.fixed_datapath,
        );
        outcome.extrapolation_ops += ops;
        // Departing ROIs park at the frame edge (the MC's register file
        // holds frame-relative coordinates; see `retain_at_edge`), keeping
        // at least a quarter of the box in view so a returning target can
        // be reacquired.
        state.prediction = crate::backend::retain_at_edge(&roi, &ctx.bounds, 0.25);
        StepStats {
            datapath_cycles,
            rois: 1,
            policy_feedback: None,
        }
    }

    fn score(&self, ctx: &FrameContext, state: &Self::State, outcome: &mut TaskOutcome) {
        // Skip the given frame 0 and out-of-view frames. The emitted
        // result is the frame-clamped box.
        if ctx.index == 0 {
            return;
        }
        if let Some(gt) = ctx.frame.truth.first() {
            if !gt.rect.is_empty() {
                outcome
                    .ious
                    .push(state.prediction.clamped_to(&ctx.bounds).iou(&gt.rect));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::run_task;
    use crate::frontend::{prepare_sequence, MotionConfig, PreparedSequence};
    use euphrates_common::metrics::IouAccumulator;
    use euphrates_datasets::{otb100_like, DatasetScale, VisualAttribute};
    use euphrates_mc::policy::{AdaptiveConfig, EwPolicy};
    use euphrates_nn::oracle::calib;

    fn prepared(attr: VisualAttribute, frames: u32) -> PreparedSequence {
        let suite = otb100_like(17, DatasetScale::fraction(0.1));
        let mut seq = suite
            .into_iter()
            .find(|s| s.has_attribute(attr))
            .expect("attribute present");
        seq.frames = frames;
        prepare_sequence(&seq, &MotionConfig::default()).unwrap()
    }

    fn track(prep: &PreparedSequence, config: &BackendConfig, stream: u64) -> Result<TaskOutcome> {
        run_task(TrackerTask::new(calib::mdnet()), prep, config, stream)
    }

    fn success_at_05(outcome: &TaskOutcome) -> f64 {
        let acc: IouAccumulator = outcome.ious.iter().copied().collect();
        acc.rate_at(0.5)
    }

    #[test]
    fn baseline_tracking_succeeds_on_easy_content() {
        let prep = prepared(VisualAttribute::IlluminationVariation, 60);
        let out = track(&prep, &BackendConfig::baseline(), 0).unwrap();
        assert_eq!(out.frames, 60);
        assert_eq!(out.inferences, 60);
        assert!(
            success_at_05(&out) > 0.85,
            "baseline success {}",
            success_at_05(&out)
        );
    }

    #[test]
    fn ew2_tracks_nearly_as_well_as_baseline() {
        let prep = prepared(VisualAttribute::ScaleVariation, 80);
        let base = track(&prep, &BackendConfig::baseline(), 0).unwrap();
        let ew2 = track(&prep, &BackendConfig::new(EwPolicy::Constant(2)), 0).unwrap();
        assert!((ew2.inference_rate() - 0.5).abs() < 0.05);
        assert!(
            success_at_05(&ew2) + 0.15 > success_at_05(&base),
            "EW-2 {} vs baseline {}",
            success_at_05(&ew2),
            success_at_05(&base)
        );
    }

    #[test]
    fn accuracy_degrades_with_window_on_hard_content() {
        let prep = prepared(VisualAttribute::FastMotion, 80);
        let s2 =
            success_at_05(&track(&prep, &BackendConfig::new(EwPolicy::Constant(2)), 0).unwrap());
        let s16 =
            success_at_05(&track(&prep, &BackendConfig::new(EwPolicy::Constant(16)), 0).unwrap());
        assert!(
            s2 >= s16,
            "EW-2 ({s2}) should be at least as accurate as EW-16 ({s16}) on fast motion"
        );
    }

    #[test]
    fn adaptive_mode_modulates_inference_rate() {
        let easy = prepared(VisualAttribute::IlluminationVariation, 100);
        let hard = prepared(VisualAttribute::FastMotion, 100);
        let cfg = BackendConfig::new(EwPolicy::Adaptive(AdaptiveConfig::default()));
        let easy_out = track(&easy, &cfg, 0).unwrap();
        let hard_out = track(&hard, &cfg, 0).unwrap();
        assert!(
            easy_out.inference_rate() < hard_out.inference_rate() + 0.35,
            "easy content should not need many more inferences: easy {} hard {}",
            easy_out.inference_rate(),
            hard_out.inference_rate()
        );
        // Adaptive must actually extrapolate sometimes.
        assert!(easy_out.inference_rate() < 0.9);
    }

    #[test]
    fn tracking_is_deterministic() {
        let prep = prepared(VisualAttribute::Deformation, 40);
        let cfg = BackendConfig::new(EwPolicy::Constant(4));
        let a = track(&prep, &cfg, 3).unwrap();
        let b = track(&prep, &cfg, 3).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn mc_cycles_accumulate() {
        let prep = prepared(VisualAttribute::ScaleVariation, 40);
        let out = track(&prep, &BackendConfig::new(EwPolicy::Constant(4)), 0).unwrap();
        assert!(out.mc_cycles.0 > 0);
        assert!(out.extrapolation_ops > 0);
    }

    #[test]
    fn empty_sequence_is_rejected() {
        let prep = PreparedSequence {
            name: "empty".into(),
            resolution: euphrates_common::image::Resolution::VGA,
            frames: vec![],
        };
        assert!(track(&prep, &BackendConfig::baseline(), 0).is_err());
    }
}
