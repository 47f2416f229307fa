//! Failure injection: the pipeline must degrade gracefully — never panic,
//! never emit non-finite geometry — when its inputs are corrupted or
//! adversarial (garbage MV metadata, saturated SADs, hostile ROIs).
//!
//! This is the robustness contract of the confidence filter (Equ. 2/3):
//! garbage motion comes with high SADs, which the filter is designed to
//! suppress.

use euphrates::common::geom::{Rect, Vec2i};
use euphrates::common::image::Resolution;
use euphrates::isp::motion::{MotionField, MotionVector};
use euphrates::mc::algorithm::{roi_average_motion, ExtrapolationConfig, Extrapolator, RoiState};
use euphrates::mc::datapath::SimdDatapath;
use euphrates::mc::fusion::compensate_global;
use euphrates_common::fixed::Q16;
use euphrates_common::rngx;

/// A field filled with random garbage vectors and random SADs.
fn garbage_field(seed: u64) -> MotionField {
    let mut field = MotionField::zeroed(Resolution::VGA, 16, 7).unwrap();
    let mut rng = rngx::derived_rng(seed, 0, 0);
    for by in 0..field.blocks_y() {
        for bx in 0..field.blocks_x() {
            field.set_block(
                bx,
                by,
                MotionVector {
                    v: Vec2i::new(rng.gen_range(-7..=7), rng.gen_range(-7..=7)),
                    sad: rng.gen_range(0..=255 * 256),
                },
            );
        }
    }
    field
}

/// A field where every block claims maximal motion with *perfect* SAD —
/// the worst lie the metadata can tell.
fn lying_field() -> MotionField {
    let mut field = MotionField::zeroed(Resolution::VGA, 16, 7).unwrap();
    for by in 0..field.blocks_y() {
        for bx in 0..field.blocks_x() {
            field.set_block(
                bx,
                by,
                MotionVector {
                    v: Vec2i::new(7, -7),
                    sad: 0,
                },
            );
        }
    }
    field
}

fn assert_finite(r: &Rect) {
    assert!(
        r.x.is_finite() && r.y.is_finite() && r.w.is_finite() && r.h.is_finite(),
        "non-finite rect {r:?}"
    );
}

#[test]
fn garbage_metadata_never_panics_or_produces_nan() {
    let ex = Extrapolator::new(ExtrapolationConfig::default());
    for seed in 0..20 {
        let field = garbage_field(seed);
        let mut state = RoiState::new(ex.config());
        let mut roi = Rect::new(300.0, 200.0, 80.0, 60.0);
        for _ in 0..50 {
            roi = ex.extrapolate(&roi, &field, &mut state);
            assert_finite(&roi);
        }
    }
}

#[test]
fn garbage_metadata_drift_is_bounded_by_search_range() {
    let ex = Extrapolator::new(ExtrapolationConfig::default());
    let field = garbage_field(3);
    let mut state = RoiState::new(ex.config());
    let start = Rect::new(300.0, 200.0, 80.0, 60.0);
    let mut roi = start;
    let steps = 30;
    for _ in 0..steps {
        roi = ex.extrapolate(&roi, &field, &mut state);
    }
    let moved = (roi.center() - start.center()).norm();
    assert!(
        moved <= f64::from(steps) * 7.0 * 1.5,
        "drift {moved} exceeds physical bound"
    );
}

#[test]
fn datapath_survives_garbage_and_saturated_inputs() {
    let dp = SimdDatapath::default();
    let cfg = ExtrapolationConfig::default();
    for field in [garbage_field(7), lying_field()] {
        for roi in [
            Rect::new(0.0, 0.0, 640.0, 480.0),
            Rect::new(-100.0, -100.0, 50.0, 50.0),
            Rect::new(635.0, 475.0, 100.0, 100.0),
            Rect::new(10.0, 10.0, 0.5, 0.5),
        ] {
            let out = dp.evaluate(&field, &roi, (Q16::MAX, Q16::MIN), &cfg);
            assert!(out.mv_x.to_f64().is_finite());
            assert!(out.mv_y.to_f64().is_finite());
            assert!((0.0..=1.0).contains(&out.confidence.to_f64().max(0.0)));
        }
    }
}

#[test]
fn high_sad_vectors_are_suppressed_by_the_filter() {
    // A field whose vectors scream "7 px right" but with near-worst SAD:
    // Equ. 3 must damp the first step to ~half (beta = 0.5).
    let mut field = lying_field();
    for by in 0..field.blocks_y() {
        for bx in 0..field.blocks_x() {
            let mut mv = field.at_block(bx, by);
            mv.sad = 255 * 16 * 16 * 9 / 10; // alpha = 0.1
            field.set_block(bx, by, mv);
        }
    }
    let (mu, alpha) = roi_average_motion(&field, &Rect::new(100.0, 100.0, 64.0, 64.0));
    assert!((mu.x - 7.0).abs() < 0.5);
    assert!(alpha < 0.2, "alpha {alpha}");
    let ex = Extrapolator::new(ExtrapolationConfig::default());
    let mut state = RoiState::new(ex.config());
    let roi = Rect::new(100.0, 100.0, 64.0, 64.0);
    let out = ex.extrapolate(&roi, &field, &mut state);
    let dx = out.x - roi.x;
    assert!(
        (dx - 3.5).abs() < 0.5,
        "low-confidence first step should be damped to ~3.5, got {dx}"
    );
}

#[test]
fn extreme_global_compensation_saturates_safely() {
    let field = garbage_field(11);
    for g in [
        euphrates::common::geom::Vec2f::new(1e12, -1e12),
        euphrates::common::geom::Vec2f::new(f64::MAX / 2.0, 0.0),
    ] {
        let (out, _) = compensate_global(&field, g);
        for by in 0..out.blocks_y() {
            for bx in 0..out.blocks_x() {
                let v = out.at_block(bx, by).v;
                // i16 saturation keeps everything representable.
                let _ = v.norm_sq();
            }
        }
    }
}

#[test]
fn tracker_survives_a_sequence_of_garbage_fields() {
    use euphrates::core::backend::{extrapolate_roi, TrackState};
    let cfg = ExtrapolationConfig::default();
    let mut state = TrackState::new(&cfg);
    let mut roi = Rect::new(200.0, 150.0, 90.0, 70.0);
    for seed in 0..100u64 {
        let field = garbage_field(seed);
        let (out, _, _) = extrapolate_roi(&roi, &field, &mut state, &cfg, seed % 2 == 0);
        assert_finite(&out);
        roi = out;
    }
}
