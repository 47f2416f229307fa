//! The motion-extrapolation algorithm (§3.2) — reference implementation.
//!
//! Given the previous frame's ROI and the current frame's motion field,
//! the algorithm estimates the ROI's new position without CNN inference:
//!
//! 1. **Equ. 1** — the ROI's motion `µ` is the average of the motion
//!    vectors of all pixels it covers. Pixels inherit their macroblock's
//!    MV, so the average reduces to an overlap-area-weighted average over
//!    the blocks the ROI intersects.
//! 2. **Equ. 2** — each block's confidence `α = 1 − SAD/(255·n)` (computed
//!    by [`euphrates_isp::motion::MotionField::confidence`]); the ROI's
//!    confidence is the same weighted average.
//! 3. **Equ. 3** — a recursive filter suppresses noisy motion:
//!    `MV_F = β·µ_F + (1−β)·MV_{F−1}`, with `β = α` when `α` exceeds a
//!    threshold and `β = 0.5` otherwise.
//! 4. **Deformation** — the ROI is split into a grid of sub-ROIs, each
//!    extrapolated independently (deformable-parts style); the final ROI
//!    is the bounding box of the moved sub-ROIs.
//!
//! The fixed-point SIMD datapath in [`crate::datapath`] implements the
//! same math the way the hardware would; tests pin the two together.

use euphrates_common::geom::{Rect, Vec2f};
use euphrates_isp::motion::MotionField;

/// Algorithm configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExtrapolationConfig {
    /// Sub-ROI grid for deformation handling; `(1, 1)` disables it.
    pub sub_roi_grid: (u32, u32),
    /// Confidence threshold of the Equ. 3 piece-wise filter coefficient.
    pub confidence_threshold: f64,
    /// Enables the Equ. 3 noise filter (ablation knob; when off,
    /// `MV_F = µ_F` directly).
    pub filter: bool,
    /// Enables sub-ROI deformation handling (ablation knob; when off the
    /// grid is treated as `(1, 1)`).
    pub deformation: bool,
}

impl Default for ExtrapolationConfig {
    fn default() -> Self {
        ExtrapolationConfig {
            sub_roi_grid: (2, 2),
            confidence_threshold: 0.8,
            filter: true,
            deformation: true,
        }
    }
}

impl ExtrapolationConfig {
    /// The effective grid after the deformation toggle.
    pub fn effective_grid(&self) -> (u32, u32) {
        if self.deformation {
            self.sub_roi_grid
        } else {
            (1, 1)
        }
    }

    /// Number of sub-ROIs per object.
    pub fn sub_roi_count(&self) -> usize {
        let (gx, gy) = self.effective_grid();
        (gx * gy) as usize
    }
}

/// Per-object filter state: the previous filtered motion vector of each
/// sub-ROI (`MV_{F−1}` in Equ. 3).
#[derive(Debug, PartialEq, Default)]
pub struct RoiState {
    prev_mv: Vec<Vec2f>,
}

impl Clone for RoiState {
    fn clone(&self) -> Self {
        RoiState {
            prev_mv: self.prev_mv.clone(),
        }
    }

    /// Reuses the destination's allocation — per-frame probe clones in
    /// the task scheduler go through this, so steady-state cloning is
    /// allocation-free.
    fn clone_from(&mut self, source: &Self) {
        self.prev_mv.clone_from(&source.prev_mv);
    }
}

impl RoiState {
    /// Fresh state (zero motion history), sized for `config`.
    pub fn new(config: &ExtrapolationConfig) -> Self {
        RoiState {
            prev_mv: vec![Vec2f::ZERO; config.sub_roi_count()],
        }
    }

    /// Resets the motion history (used right after an I-frame re-anchors
    /// the ROI... the paper keeps the filter running; provided for
    /// experiments).
    pub fn reset(&mut self) {
        for v in &mut self.prev_mv {
            *v = Vec2f::ZERO;
        }
    }

    /// Previous filtered MV of sub-ROI `i`.
    pub fn prev_mv(&self, i: usize) -> Vec2f {
        self.prev_mv.get(i).copied().unwrap_or(Vec2f::ZERO)
    }
}

/// Equ. 1 + Equ. 2: overlap-area-weighted average motion vector and
/// confidence of the blocks `roi` covers. Returns `(µ, α)`;
/// `(Vec2f::ZERO, 0.0)` when the ROI covers no blocks.
pub fn roi_average_motion(field: &MotionField, roi: &Rect) -> (Vec2f, f64) {
    let (mu, alpha, _) = roi_average_and_blocks(field, roi);
    (mu, alpha)
}

/// [`roi_average_motion`] plus the number of blocks `roi` intersects,
/// from one walk over them.
fn roi_average_and_blocks(field: &MotionField, roi: &Rect) -> (Vec2f, f64, u64) {
    let mut sum = Vec2f::ZERO;
    let mut conf_sum = 0.0;
    let mut weight = 0.0;
    let mut blocks = 0;
    for (bx, by, mv, overlap) in field.roi_overlaps(roi) {
        sum += Vec2f::from(mv.v) * overlap;
        conf_sum += MotionField::block_confidence(mv.sad, field.block_pixels(bx, by)) * overlap;
        weight += overlap;
        blocks += 1;
    }
    if weight <= 0.0 {
        (Vec2f::ZERO, 0.0, blocks)
    } else {
        (sum / weight, conf_sum / weight, blocks)
    }
}

/// Fixed-point operation count of one sub-ROI step that covers `blocks`
/// blocks: two MACs per block for each of the x, y and confidence chains,
/// plus the filter/merge overhead.
pub fn sub_roi_ops(blocks: u64) -> u64 {
    blocks * 6 + 32
}

/// Equ. 3: the confidence-gated recursive motion filter.
pub fn filter_mv(mu: Vec2f, alpha: f64, prev: Vec2f, threshold: f64) -> Vec2f {
    let beta = if alpha > threshold { alpha } else { 0.5 };
    mu * beta + prev * (1.0 - beta)
}

/// The reference extrapolation engine.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Extrapolator {
    config: ExtrapolationConfig,
}

impl Extrapolator {
    /// Creates an extrapolator.
    pub fn new(config: ExtrapolationConfig) -> Self {
        Extrapolator { config }
    }

    /// The configuration.
    pub fn config(&self) -> &ExtrapolationConfig {
        &self.config
    }

    /// Extrapolates `roi` one frame forward using `field`, updating the
    /// filter state. Returns the new ROI (`R_F = R_{F−1} + MV_F` per
    /// sub-ROI, merged).
    pub fn extrapolate(&self, roi: &Rect, field: &MotionField, state: &mut RoiState) -> Rect {
        self.extrapolate_counted(roi, field, state).0
    }

    /// [`Self::extrapolate`] that also returns the step's
    /// [`Self::ops_estimate`], counted in the same walk over the blocks.
    pub fn extrapolate_counted(
        &self,
        roi: &Rect,
        field: &MotionField,
        state: &mut RoiState,
    ) -> (Rect, u64) {
        let (gx, gy) = self.config.effective_grid();
        let subs = roi.grid(gx, gy);
        if state.prev_mv.len() != subs.len() {
            state.prev_mv = vec![Vec2f::ZERO; subs.len()];
        }
        let mut merged = Rect::default();
        let mut ops = 0;
        for (i, sub) in subs.iter().enumerate() {
            let (mu, alpha, blocks) = roi_average_and_blocks(field, sub);
            ops += sub_roi_ops(blocks);
            let mv = if self.config.filter {
                filter_mv(
                    mu,
                    alpha,
                    state.prev_mv[i],
                    self.config.confidence_threshold,
                )
            } else {
                mu
            };
            state.prev_mv[i] = mv;
            merged = merged.union_bbox(&sub.translated(mv));
        }
        (merged, ops)
    }

    /// Fixed-point operation count of one ROI extrapolation (the paper's
    /// §3.2 estimate: ~10 K ops for a 100×50 ROI): [`sub_roi_ops`] of the
    /// blocks each sub-ROI covers.
    pub fn ops_estimate(&self, roi: &Rect, field: &MotionField) -> u64 {
        let (gx, gy) = self.config.effective_grid();
        roi.grid(gx, gy)
            .iter()
            .map(|sub| sub_roi_ops(field.roi_overlaps(sub).count() as u64))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use euphrates_common::image::{LumaFrame, Resolution};
    use euphrates_common::rngx;
    use euphrates_isp::motion::{BlockMatcher, SearchStrategy};

    fn textured(width: u32, height: u32, seed: u64, shift: (i64, i64)) -> LumaFrame {
        let mut f = LumaFrame::new(width, height).unwrap();
        for y in 0..height {
            for x in 0..width {
                let v = (rngx::lattice_hash(
                    seed,
                    (i64::from(x) - shift.0) / 3,
                    (i64::from(y) - shift.1) / 3,
                ) * 255.0) as u8;
                f.set(x, y, v);
            }
        }
        f
    }

    fn shifted_field(shift: (i64, i64)) -> MotionField {
        let prev = textured(128, 128, 5, (0, 0));
        let cur = textured(128, 128, 5, shift);
        BlockMatcher::new(16, 7, SearchStrategy::Exhaustive)
            .unwrap()
            .estimate(&cur, &prev)
            .unwrap()
    }

    #[test]
    fn average_motion_recovers_global_shift() {
        let field = shifted_field((4, -3));
        let roi = Rect::new(32.0, 32.0, 64.0, 64.0);
        let (mu, alpha) = roi_average_motion(&field, &roi);
        assert!((mu.x - 4.0).abs() < 0.5, "mu.x {}", mu.x);
        assert!((mu.y + 3.0).abs() < 0.5, "mu.y {}", mu.y);
        assert!(alpha > 0.8, "alpha {alpha}");
    }

    #[test]
    fn average_motion_of_out_of_frame_roi_is_zero() {
        let field = shifted_field((2, 2));
        let roi = Rect::new(1000.0, 1000.0, 50.0, 50.0);
        assert_eq!(roi_average_motion(&field, &roi), (Vec2f::ZERO, 0.0));
    }

    #[test]
    fn average_motion_weighs_by_overlap() {
        // An ROI covering 90% of a zero-motion region and 10% of a moving
        // region should report small motion.
        let field = MotionField::zeroed(Resolution::new(64, 64), 16, 7).unwrap();
        // All-zero field: any ROI gives zero.
        let (mu, _) = roi_average_motion(&field, &Rect::new(8.0, 8.0, 40.0, 40.0));
        assert_eq!(mu, Vec2f::ZERO);
    }

    #[test]
    fn filter_passes_confident_motion() {
        let mu = Vec2f::new(4.0, 0.0);
        let out = filter_mv(mu, 0.95, Vec2f::ZERO, 0.8);
        // β = 0.95: output is dominated by µ.
        assert!((out.x - 3.8).abs() < 1e-9);
    }

    #[test]
    fn filter_damps_unconfident_motion() {
        let mu = Vec2f::new(6.0, 0.0);
        let prev = Vec2f::new(1.0, 1.0);
        let out = filter_mv(mu, 0.3, prev, 0.8);
        // β = 0.5: equal blend.
        assert_eq!(out, Vec2f::new(3.5, 0.5));
    }

    #[test]
    fn filter_is_convex_combination() {
        let mu = Vec2f::new(2.0, -5.0);
        let prev = Vec2f::new(-1.0, 3.0);
        for alpha in [0.0, 0.4, 0.81, 0.99] {
            let out = filter_mv(mu, alpha, prev, 0.8);
            let lo_x = mu.x.min(prev.x) - 1e-9;
            let hi_x = mu.x.max(prev.x) + 1e-9;
            assert!((lo_x..=hi_x).contains(&out.x), "alpha {alpha}");
        }
    }

    #[test]
    fn extrapolation_moves_roi_with_the_scene() {
        let field = shifted_field((5, 2));
        let ex = Extrapolator::default();
        let mut state = RoiState::new(ex.config());
        let roi = Rect::new(40.0, 40.0, 48.0, 48.0);
        let out = ex.extrapolate(&roi, &field, &mut state);
        let c0 = roi.center();
        let c1 = out.center();
        assert!((c1.x - c0.x - 5.0).abs() < 1.5, "dx {}", c1.x - c0.x);
        assert!((c1.y - c0.y - 2.0).abs() < 1.5, "dy {}", c1.y - c0.y);
    }

    #[test]
    fn repeated_extrapolation_accumulates_motion() {
        let field = shifted_field((3, 0));
        let ex = Extrapolator::default();
        let mut state = RoiState::new(ex.config());
        let mut roi = Rect::new(24.0, 48.0, 40.0, 40.0);
        let x0 = roi.x;
        for _ in 0..3 {
            roi = ex.extrapolate(&roi, &field, &mut state);
        }
        // With the filter warming up, 3 steps of a 3 px/frame field move
        // the ROI roughly 6–9 px.
        assert!(roi.x - x0 > 5.0, "moved {}", roi.x - x0);
    }

    #[test]
    fn deformation_off_uses_single_roi() {
        let cfg = ExtrapolationConfig {
            deformation: false,
            ..ExtrapolationConfig::default()
        };
        assert_eq!(cfg.effective_grid(), (1, 1));
        assert_eq!(cfg.sub_roi_count(), 1);
        let ex = Extrapolator::new(cfg);
        let field = shifted_field((2, 2));
        let mut state = RoiState::new(&cfg);
        let roi = Rect::new(40.0, 40.0, 32.0, 32.0);
        let out = ex.extrapolate(&roi, &field, &mut state);
        // Rigid translation: size unchanged.
        assert!((out.w - roi.w).abs() < 1e-9 && (out.h - roi.h).abs() < 1e-9);
    }

    #[test]
    fn sub_rois_can_deform_the_bbox() {
        // Hand-build a field where the left half moves left and the right
        // half moves right: the union bbox must widen.
        let prev = {
            let mut f = LumaFrame::new(128, 64).unwrap();
            for y in 0..64 {
                for x in 0..128 {
                    let v =
                        (rngx::lattice_hash(9, i64::from(x) / 3, i64::from(y) / 3) * 255.0) as u8;
                    f.set(x, y, v);
                }
            }
            f
        };
        let mut cur = LumaFrame::new(128, 64).unwrap();
        for y in 0..64i64 {
            for x in 0..128i64 {
                // Left half shifts by (-3, 0); right half by (+3, 0).
                let src_x = if x < 64 { x + 3 } else { x - 3 };
                cur.set(x as u32, y as u32, prev.at_clamped(src_x, y));
            }
        }
        let field = BlockMatcher::new(16, 7, SearchStrategy::Exhaustive)
            .unwrap()
            .estimate(&cur, &prev)
            .unwrap();
        let ex = Extrapolator::new(ExtrapolationConfig {
            sub_roi_grid: (2, 1),
            ..ExtrapolationConfig::default()
        });
        let mut state = RoiState::new(ex.config());
        let roi = Rect::new(32.0, 16.0, 64.0, 32.0);
        let out = ex.extrapolate(&roi, &field, &mut state);
        assert!(
            out.w > roi.w + 3.0,
            "bbox should widen: {} -> {}",
            roi.w,
            out.w
        );
    }

    #[test]
    fn state_resizes_when_grid_changes() {
        let ex = Extrapolator::default(); // 2x2 grid
        let field = shifted_field((1, 1));
        let mut state = RoiState::default(); // empty
        let roi = Rect::new(40.0, 40.0, 32.0, 32.0);
        let _ = ex.extrapolate(&roi, &field, &mut state);
        assert_eq!(state.prev_mv.len(), 4);
        state.reset();
        assert_eq!(state.prev_mv(0), Vec2f::ZERO);
    }

    #[test]
    fn ops_estimate_matches_paper_scale() {
        // §3.2: a 100×50 ROI needs ~10 K fixed-point ops per frame. Our
        // count is per extrapolation call; with a 16-px grid a 100×50 ROI
        // covers ~28 blocks -> hundreds of MACs, well under 10 K (the
        // paper's figure includes per-pixel averaging; ours is per-block,
        // strictly cheaper).
        let field = MotionField::zeroed(Resolution::FULL_HD, 16, 7).unwrap();
        let ex = Extrapolator::default();
        let ops = ex.ops_estimate(&Rect::new(500.0, 500.0, 100.0, 50.0), &field);
        assert!((100..10_000).contains(&ops), "ops {ops}");
    }
}
