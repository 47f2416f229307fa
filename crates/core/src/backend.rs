//! Backend-shared machinery: configuration, per-run statistics, and the
//! ROI extrapolation step in both its reference (f64) and hardware
//! (fixed-point SIMD) forms.

use euphrates_common::error::Result;
use euphrates_common::fixed::Q16;
use euphrates_common::geom::Rect;
use euphrates_common::units::Cycles;
use euphrates_isp::motion::MotionField;
use euphrates_mc::algorithm::{sub_roi_ops, ExtrapolationConfig, Extrapolator, RoiState};
use euphrates_mc::datapath::SimdDatapath;
use euphrates_mc::policy::{EwController, EwPolicy, FrameKind};
use euphrates_mc::sequencer::McSequencer;

/// Backend configuration shared by the tracking and detection tasks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackendConfig {
    /// When to extrapolate (EW policy, §3.3).
    pub policy: EwPolicy,
    /// How to extrapolate (§3.2).
    pub extrapolation: ExtrapolationConfig,
    /// Use the Motion Controller's fixed-point SIMD datapath instead of
    /// the f64 reference (bit-level hardware fidelity at ~0.2 px cost).
    pub fixed_datapath: bool,
    /// Oracle noise seed.
    pub seed: u64,
}

impl BackendConfig {
    /// The paper's default Euphrates backend with the given policy.
    pub fn new(policy: EwPolicy) -> Self {
        BackendConfig {
            policy,
            extrapolation: ExtrapolationConfig::default(),
            fixed_datapath: true,
            seed: 0xE0_F7A7E5,
        }
    }

    /// Baseline: inference on every frame.
    pub fn baseline() -> Self {
        BackendConfig::new(EwPolicy::baseline())
    }
}

/// Aggregate statistics of one task run over one sequence.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TaskOutcome {
    /// IoU of every scored prediction (one per frame for tracking, one
    /// per detection for detection).
    pub ious: Vec<f64>,
    /// Frames processed.
    pub frames: u64,
    /// CNN inferences executed.
    pub inferences: u64,
    /// Total Motion-Controller cycles (datapath + sequencer).
    pub mc_cycles: Cycles,
    /// Total extrapolation arithmetic (for the CPU-executor energy model).
    pub extrapolation_ops: u64,
}

impl TaskOutcome {
    /// Fraction of frames that ran inference.
    pub fn inference_rate(&self) -> f64 {
        if self.frames == 0 {
            0.0
        } else {
            self.inferences as f64 / self.frames as f64
        }
    }

    /// Mean extrapolation window (`1 / inference_rate`).
    pub fn mean_window(&self) -> f64 {
        let r = self.inference_rate();
        if r <= 0.0 {
            1.0
        } else {
            1.0 / r
        }
    }

    /// Merges another outcome (different sequence, same scheme).
    pub fn merge(&mut self, other: &TaskOutcome) {
        self.ious.extend_from_slice(&other.ious);
        self.frames += other.frames;
        self.inferences += other.inferences;
        self.mc_cycles += other.mc_cycles;
        self.extrapolation_ops += other.extrapolation_ops;
    }
}

/// Per-tracked-object extrapolation state covering both datapath flavors.
///
/// Carries a reusable sub-ROI scratch buffer so the per-frame
/// [`extrapolate_roi`] step performs no allocations in steady state;
/// the scratch is excluded from equality (two states with the same
/// filter history are equal regardless of what their scratch last
/// held).
#[derive(Debug, Default)]
pub struct TrackState {
    /// Reference-path filter state.
    pub reference: RoiState,
    /// Fixed-point filter state (one `(Q16, Q16)` per sub-ROI).
    pub fixed: Vec<(Q16, Q16)>,
    /// Sub-ROI scratch reused across frames (not part of the state's
    /// identity).
    subs: Vec<Rect>,
}

impl Clone for TrackState {
    fn clone(&self) -> Self {
        TrackState {
            reference: self.reference.clone(),
            fixed: self.fixed.clone(),
            subs: Vec::new(),
        }
    }

    /// Field-wise `clone_from`, reusing every destination allocation
    /// (a derived `Clone` would fall back to `*self = source.clone()`
    /// and re-allocate) — this is what makes the tracker's per-I-frame
    /// probe clone allocation-free in steady state. The scratch buffer
    /// is left as-is: it carries no state.
    fn clone_from(&mut self, source: &Self) {
        self.reference.clone_from(&source.reference);
        self.fixed.clone_from(&source.fixed);
    }
}

impl PartialEq for TrackState {
    fn eq(&self, other: &Self) -> bool {
        self.reference == other.reference && self.fixed == other.fixed
    }
}

impl TrackState {
    /// Fresh state for the given extrapolation configuration.
    pub fn new(config: &ExtrapolationConfig) -> Self {
        TrackState {
            reference: RoiState::new(config),
            fixed: vec![(Q16::ZERO, Q16::ZERO); config.sub_roi_count()],
            subs: Vec::with_capacity(config.sub_roi_count()),
        }
    }
}

/// One extrapolation step: moves `roi` forward by the motion field,
/// returning the new ROI, datapath cycles, and arithmetic-op count.
///
/// Each sub-ROI's blocks are walked once: the op count
/// ([`Extrapolator::ops_estimate`]) comes from the same pass that
/// averages them. The hardware (fixed-datapath) path runs
/// allocation-free: the sub-ROI grid goes into the state's scratch
/// buffer.
pub fn extrapolate_roi(
    roi: &Rect,
    field: &MotionField,
    state: &mut TrackState,
    config: &ExtrapolationConfig,
    fixed_datapath: bool,
) -> (Rect, Cycles, u64) {
    if !fixed_datapath {
        let (out, ops) =
            Extrapolator::new(*config).extrapolate_counted(roi, field, &mut state.reference);
        // Reference path still charges datapath-equivalent cycles so the
        // energy model is datapath-choice-independent.
        let cycles = Cycles(ops / 2);
        return (out, cycles, ops);
    }
    let dp = SimdDatapath::default();
    let (gx, gy) = config.effective_grid();
    let TrackState { fixed, subs, .. } = state;
    roi.grid_into(gx, gy, subs);
    if fixed.len() != subs.len() {
        *fixed = vec![(Q16::ZERO, Q16::ZERO); subs.len()];
    }
    let mut ops = 0u64;
    let mut merged = Rect::default();
    let mut cycles = Cycles::ZERO;
    for (i, sub) in subs.iter().enumerate() {
        let result = dp.evaluate(field, sub, fixed[i], config);
        ops += sub_roi_ops(u64::from(result.blocks));
        fixed[i] = (result.mv_x, result.mv_y);
        cycles += result.cycles;
        let mv = SimdDatapath::to_vec2f(&result);
        merged = merged.union_bbox(&sub.translated(mv));
    }
    (merged, cycles, ops)
}

/// Slides `roi` back toward the frame so that at least `frac` of its
/// width and height remain inside `bounds`.
///
/// The Motion Controller's register file holds frame-relative ROI
/// coordinates (Fig. 8): a box that has drifted entirely outside the
/// image is not representable, so the sequencer parks departing ROIs at
/// the frame edge — which is also what lets a tracker reacquire a target
/// that re-enters the view.
pub fn retain_at_edge(roi: &Rect, bounds: &Rect, frac: f64) -> Rect {
    if roi.is_empty() {
        return *roi;
    }
    let frac = frac.clamp(0.0, 1.0);
    let min_x = bounds.x - roi.w * (1.0 - frac);
    let max_x = bounds.right() - roi.w * frac;
    let min_y = bounds.y - roi.h * (1.0 - frac);
    let max_y = bounds.bottom() - roi.h * frac;
    Rect::new(
        roi.x.clamp(min_x, max_x.max(min_x)),
        roi.y.clamp(min_y, max_y.max(min_y)),
        roi.w,
        roi.h,
    )
}

/// Creates the EW controller for a backend config.
///
/// # Errors
///
/// Propagates invalid policy parameters.
pub fn controller(config: &BackendConfig) -> Result<EwController> {
    EwController::new(config.policy)
}

/// Charges the per-frame sequencer program to the outcome (total
/// cycles computed directly — the step list is never materialized).
pub fn charge_sequencer(
    outcome: &mut TaskOutcome,
    kind: FrameKind,
    field: &MotionField,
    rois: u32,
    datapath_cycles: Cycles,
) {
    let seq = McSequencer::default();
    outcome.mc_cycles += seq.frame_cycles(kind, field.metadata_bytes().0, rois, datapath_cycles);
}

#[cfg(test)]
mod tests {
    use super::*;
    use euphrates_common::image::Resolution;

    #[test]
    fn outcome_rates_and_merge() {
        let mut a = TaskOutcome {
            ious: vec![1.0, 0.5],
            frames: 4,
            inferences: 1,
            mc_cycles: Cycles(100),
            extrapolation_ops: 50,
        };
        assert!((a.inference_rate() - 0.25).abs() < 1e-12);
        assert!((a.mean_window() - 4.0).abs() < 1e-12);
        let b = a.clone();
        a.merge(&b);
        assert_eq!(a.frames, 8);
        assert_eq!(a.ious.len(), 4);
        assert_eq!(a.mc_cycles, Cycles(200));
    }

    #[test]
    fn empty_outcome_defaults() {
        let o = TaskOutcome::default();
        assert_eq!(o.inference_rate(), 0.0);
        assert_eq!(o.mean_window(), 1.0);
    }

    #[test]
    fn extrapolation_paths_agree_on_zero_motion() {
        let field = MotionField::zeroed(Resolution::VGA, 16, 7).unwrap();
        let cfg = ExtrapolationConfig::default();
        let roi = Rect::new(100.0, 100.0, 80.0, 60.0);
        let mut s1 = TrackState::new(&cfg);
        let mut s2 = TrackState::new(&cfg);
        let (r_ref, _, ops1) = extrapolate_roi(&roi, &field, &mut s1, &cfg, false);
        let (r_fix, cycles, ops2) = extrapolate_roi(&roi, &field, &mut s2, &cfg, true);
        assert!((r_ref.x - r_fix.x).abs() < 0.01);
        assert!((r_ref.center().y - r_fix.center().y).abs() < 0.01);
        assert_eq!(ops1, ops2);
        assert!(cycles.0 > 0);
    }
}
