//! # euphrates-bench
//!
//! The experiment harness. The `paper` bench target prints every figure
//! and table of the Euphrates paper in paper order, paper values next
//! to measured ones, from one shared evaluation: the [`paper`] module
//! declares which cells of the (task profile, suite, motion
//! configuration, EW scheme) grid each figure reads, and
//! [`paper::PaperRun`] evaluates each cell once. The other targets are
//! ablations of the reproduction's design choices, an extension study
//! and kernel micro-benchmarks:
//! `cargo bench -p euphrates-bench --bench paper` runs one.
//!
//! The dataset scale is `EUPHRATES_SCALE` (0–1, default
//! [`DEFAULT_SCALE`]); `EUPHRATES_SCALE=1.0` reproduces the paper-sized
//! datasets (~76k frames). Worker-thread count follows
//! `EUPHRATES_THREADS` (see [`euphrates_common::par::default_threads`]).

use euphrates_common::image::LumaFrame;
use euphrates_common::rngx;
use euphrates_core::prelude::*;
use euphrates_nn::oracle::TrackerProfile;

pub mod paper;

/// Default dataset scale for `cargo bench`.
pub const DEFAULT_SCALE: f64 = 0.25;

/// Resolves the dataset scale and announces it.
pub fn announce(experiment: &str, paper_ref: &str) -> DatasetScale {
    let scale = DatasetScale::from_env(DEFAULT_SCALE);
    println!("==========================================================");
    println!("{experiment}");
    println!("reproduces: {paper_ref}");
    println!(
        "dataset scale: {:.2} (set EUPHRATES_SCALE=1.0 for paper-sized runs)",
        scale.sequence_fraction
    );
    println!("==========================================================");
    scale
}

/// A deterministic lattice-textured luma frame (content block matching
/// can lock onto), with its texture shifted right by `shift` pixels —
/// the one workload generator shared by the kernel micro-benches, so
/// cross-bench numbers compare like for like.
pub fn textured_luma(width: u32, height: u32, seed: u64, shift: i64) -> LumaFrame {
    let mut f = LumaFrame::new(width, height).expect("positive bench dimensions");
    for y in 0..height {
        for x in 0..width {
            let v = (rngx::lattice_hash(seed, (i64::from(x) - shift) / 4, i64::from(y) / 4) * 255.0)
                as u8;
            f.set(x, y, v);
        }
    }
    f
}

/// The every-frame-inference scheme, labelled `label`.
pub fn baseline(label: &str) -> SchemeSpec {
    SchemeSpec::new(label, BackendConfig::baseline()).expect("static id is valid")
}

/// Constant extrapolation window `n`, labelled `EW-n`.
pub fn ew(n: u32) -> SchemeSpec {
    SchemeSpec::new(format!("EW-{n}"), BackendConfig::new(EwPolicy::Constant(n)))
        .expect("static id is valid")
}

/// The adaptive window (§3.3), labelled `EW-A`.
pub fn ew_adaptive() -> SchemeSpec {
    SchemeSpec::new(
        "EW-A",
        BackendConfig::new(EwPolicy::Adaptive(AdaptiveConfig::default())),
    )
    .expect("static id is valid")
}

/// The EW scheme sweep used across the figures: the baseline, then one
/// constant window each, then (optionally) the adaptive window.
pub fn ew_schemes(baseline_label: &str, windows: &[u32], adaptive: bool) -> Vec<SchemeSpec> {
    let mut schemes = vec![baseline(baseline_label)];
    schemes.extend(windows.iter().map(|&n| ew(n)));
    if adaptive {
        schemes.push(ew_adaptive());
    }
    schemes
}

/// Runs the tracking task for a scheme list over the OTB+VOT suites.
pub fn run_tracking_suite(
    suite: &[Sequence],
    motion: &MotionConfig,
    schemes: &[SchemeSpec],
    profile: TrackerProfile,
) -> Vec<SchemeResult> {
    Scenario::builder(TrackerTask::new(profile))
        .suite(suite.to_vec())
        .motion(*motion)
        .schemes(schemes.iter().cloned())
        .build()
        .expect("scheme registry is valid")
        .evaluate()
        .expect("tracking evaluation succeeds")
        .schemes
}

/// The combined OTB-100-like + VOT-2014-like tracking workload (125
/// sequences at full scale, §5.2).
pub fn tracking_workload(scale: DatasetScale) -> Vec<Sequence> {
    let mut suite = euphrates_datasets::otb100_like(42, scale);
    suite.extend(euphrates_datasets::vot2014_like(42, scale));
    suite
}

/// The detection workload (7,264 frames at full scale).
pub fn detection_workload(scale: DatasetScale) -> Vec<Sequence> {
    euphrates_datasets::detection_suite(42, scale)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schemes_include_baseline_and_windows() {
        let s = ew_schemes("YOLOv2", &[2, 4], true);
        let labels: Vec<&str> = s.iter().map(|spec| spec.id.as_str()).collect();
        assert_eq!(labels, vec!["YOLOv2", "EW-2", "EW-4", "EW-A"]);
    }

    #[test]
    fn workloads_scale() {
        let tiny = DatasetScale::fraction(0.05);
        let t = tracking_workload(tiny);
        assert!(!t.is_empty());
        let d = detection_workload(tiny);
        assert!(!d.is_empty());
    }
}
