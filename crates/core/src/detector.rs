//! The object-detection task (§5.2): multi-object detection with
//! YOLOv2-class inference on I-frames and per-track motion extrapolation
//! on E-frames, expressed as a [`VisionTask`] implementation.
//!
//! On an I-frame the detector's outputs *replace* the track set (carrying
//! over filter state for tracks they overlap); on E-frames every live
//! track is extrapolated by the motion controller. Every emitted box in
//! every frame is scored against ground truth with the paper's
//! precision-style AP (greedy IoU matching; unmatched boxes are false
//! positives).

use crate::api::{FrameContext, StepStats, VisionTask};
use crate::backend::{extrapolate_roi, BackendConfig, TaskOutcome, TrackState};
use crate::frontend::FrameData;
use euphrates_common::error::Result;
use euphrates_common::geom::Rect;
use euphrates_common::image::Resolution;
use euphrates_common::metrics::match_detections;
use euphrates_common::units::Cycles;
use euphrates_nn::oracle::{DetectorOracle, DetectorProfile};

/// A live track in the detection pipeline.
#[derive(Debug, Clone)]
struct Track {
    rect: Rect,
    /// Class label carried from the originating detection (the paper's MC
    /// registers store labels alongside ROIs; scoring is class-agnostic
    /// per §5.2's IoU-only metric).
    #[allow(dead_code)]
    label: u32,
    state: TrackState,
}

/// Minimum IoU for a fresh detection to inherit an old track's filter
/// state.
const TRACK_CARRYOVER_IOU: f64 = 0.3;

/// Multi-object detection under the I/E-frame schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorTask {
    /// The oracle's accuracy calibration (e.g.
    /// [`calib::yolov2`][euphrates_nn::oracle::calib::yolov2]).
    pub profile: DetectorProfile,
}

impl DetectorTask {
    /// A detection task with the given oracle profile.
    pub fn new(profile: DetectorProfile) -> Self {
        DetectorTask { profile }
    }
}

/// Per-sequence detector state.
#[derive(Debug, Clone)]
pub struct DetectorState {
    oracle: DetectorOracle,
    tracks: Vec<Track>,
}

impl VisionTask for DetectorTask {
    type State = DetectorState;

    fn name(&self) -> &'static str {
        "detection"
    }

    fn init(
        &self,
        _resolution: Resolution,
        _first: &FrameData,
        config: &BackendConfig,
        _stream: u64,
    ) -> Result<Self::State> {
        Ok(DetectorState {
            oracle: DetectorOracle::new(self.profile, config.seed),
            tracks: Vec::new(),
        })
    }

    fn infer(
        &self,
        ctx: &FrameContext,
        state: &mut Self::State,
        outcome: &mut TaskOutcome,
    ) -> StepStats {
        let mut datapath_cycles = Cycles::ZERO;
        // Extrapolate the current tracks first: the adaptive controller
        // compares them against the fresh detections.
        let extrapolated: Vec<Rect> = state
            .tracks
            .iter_mut()
            .map(|t| {
                let (roi, cycles, ops) = extrapolate_roi(
                    &t.rect,
                    &ctx.frame.motion,
                    &mut t.state,
                    &ctx.config.extrapolation,
                    ctx.config.fixed_datapath,
                );
                datapath_cycles += cycles;
                outcome.extrapolation_ops += ops;
                roi.clamped_to(&ctx.bounds)
            })
            .collect();

        let detections =
            state
                .oracle
                .detect(ctx.frame.targets(), &ctx.bounds, ctx.stream, ctx.index);

        // Adaptive feedback: how well did extrapolation predict the
        // detector's output?
        let policy_feedback = if !extrapolated.is_empty() && !detections.is_empty() {
            let det_rects: Vec<Rect> = detections.iter().map(|d| d.rect).collect();
            let ious = match_detections(&extrapolated, &det_rects);
            Some(ious.iter().sum::<f64>() / ious.len() as f64)
        } else {
            None
        };

        // The detections become the new track set, inheriting filter
        // state from overlapping predecessors.
        let mut new_tracks = Vec::with_capacity(detections.len());
        for det in &detections {
            let mut filter = TrackState::new(&ctx.config.extrapolation);
            let mut best = (TRACK_CARRYOVER_IOU, None::<usize>);
            for (ti, t) in state.tracks.iter().enumerate() {
                let iou = t.rect.iou(&det.rect);
                if iou > best.0 {
                    best = (iou, Some(ti));
                }
            }
            if let Some(ti) = best.1 {
                filter = state.tracks[ti].state.clone();
            }
            new_tracks.push(Track {
                rect: det.rect.clamped_to(&ctx.bounds),
                label: det.label,
                state: filter,
            });
        }
        state.tracks = new_tracks;
        StepStats {
            datapath_cycles,
            rois: state.tracks.len() as u32,
            policy_feedback,
        }
    }

    fn extrapolate(
        &self,
        ctx: &FrameContext,
        state: &mut Self::State,
        outcome: &mut TaskOutcome,
    ) -> StepStats {
        let mut datapath_cycles = Cycles::ZERO;
        for t in &mut state.tracks {
            let (roi, cycles, ops) = extrapolate_roi(
                &t.rect,
                &ctx.frame.motion,
                &mut t.state,
                &ctx.config.extrapolation,
                ctx.config.fixed_datapath,
            );
            datapath_cycles += cycles;
            outcome.extrapolation_ops += ops;
            t.rect = roi.clamped_to(&ctx.bounds);
        }
        // Tracks that left the frame stop producing detections.
        state.tracks.retain(|t| !t.rect.is_empty());
        StepStats {
            datapath_cycles,
            rois: state.tracks.len() as u32,
            policy_feedback: None,
        }
    }

    fn score(&self, ctx: &FrameContext, state: &Self::State, outcome: &mut TaskOutcome) {
        // Score every emitted box against ground truth (paper AP). The
        // non-empty truth boxes are cached on the frame, shared by every
        // scheme that scores it.
        let preds: Vec<Rect> = state.tracks.iter().map(|t| t.rect).collect();
        outcome
            .ious
            .extend(match_detections(&preds, ctx.frame.truth_rects()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::run_task;
    use crate::frontend::{prepare_sequence, MotionConfig, PreparedSequence};
    use euphrates_common::metrics::IouAccumulator;
    use euphrates_datasets::{detection_suite, DatasetScale};
    use euphrates_mc::policy::EwPolicy;
    use euphrates_nn::oracle::calib;

    fn prepared(frames: u32) -> PreparedSequence {
        let mut suite = detection_suite(23, DatasetScale::fraction(0.1));
        let mut seq = suite.remove(0);
        seq.frames = frames;
        prepare_sequence(&seq, &MotionConfig::default()).unwrap()
    }

    fn detect(
        prep: &PreparedSequence,
        profile: DetectorProfile,
        config: &BackendConfig,
        stream: u64,
    ) -> Result<TaskOutcome> {
        run_task(DetectorTask::new(profile), prep, config, stream)
    }

    fn ap_at_05(outcome: &TaskOutcome) -> f64 {
        let acc: IouAccumulator = outcome.ious.iter().copied().collect();
        acc.rate_at(0.5)
    }

    #[test]
    fn baseline_detection_reaches_calibrated_precision() {
        let prep = prepared(80);
        let out = detect(&prep, calib::yolov2(), &BackendConfig::baseline(), 0).unwrap();
        let ap = ap_at_05(&out);
        assert!((0.6..0.95).contains(&ap), "baseline AP@0.5 = {ap}");
        assert_eq!(out.inferences, out.frames);
        assert!(!out.ious.is_empty());
    }

    #[test]
    fn ew2_stays_close_to_baseline() {
        let prep = prepared(80);
        let base = detect(&prep, calib::yolov2(), &BackendConfig::baseline(), 0).unwrap();
        let ew2 = detect(
            &prep,
            calib::yolov2(),
            &BackendConfig::new(EwPolicy::Constant(2)),
            0,
        )
        .unwrap();
        let (b, e) = (ap_at_05(&base), ap_at_05(&ew2));
        assert!(e + 0.12 > b, "EW-2 {e} vs baseline {b}");
        assert!((ew2.inference_rate() - 0.5).abs() < 0.05);
    }

    #[test]
    fn long_windows_cost_accuracy() {
        let prep = prepared(96);
        let ew2 = ap_at_05(
            &detect(
                &prep,
                calib::yolov2(),
                &BackendConfig::new(EwPolicy::Constant(2)),
                0,
            )
            .unwrap(),
        );
        let ew32 = ap_at_05(
            &detect(
                &prep,
                calib::yolov2(),
                &BackendConfig::new(EwPolicy::Constant(32)),
                0,
            )
            .unwrap(),
        );
        assert!(ew2 > ew32, "EW-2 {ew2} must beat EW-32 {ew32}");
    }

    #[test]
    fn tiny_yolo_is_less_precise_than_yolov2() {
        let prep = prepared(80);
        let yv2 = ap_at_05(&detect(&prep, calib::yolov2(), &BackendConfig::baseline(), 0).unwrap());
        let ty =
            ap_at_05(&detect(&prep, calib::tiny_yolo(), &BackendConfig::baseline(), 0).unwrap());
        assert!(yv2 > ty + 0.08, "YOLOv2 {yv2} vs TinyYOLO {ty}");
    }

    #[test]
    fn detection_is_deterministic() {
        let prep = prepared(40);
        let cfg = BackendConfig::new(EwPolicy::Constant(4));
        let a = detect(&prep, calib::yolov2(), &cfg, 5).unwrap();
        let b = detect(&prep, calib::yolov2(), &cfg, 5).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn e_frames_produce_predictions_without_inference() {
        let prep = prepared(40);
        let out = detect(
            &prep,
            calib::yolov2(),
            &BackendConfig::new(EwPolicy::Constant(8)),
            0,
        )
        .unwrap();
        assert!((out.inference_rate() - 0.125).abs() < 0.03);
        // Predictions exist on E-frames: scored boxes far outnumber
        // inferences x objects.
        assert!(out.ious.len() as u64 > out.inferences * 3);
    }
}
