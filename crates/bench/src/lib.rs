//! # euphrates-bench
//!
//! The experiment harness. Its one bench target, `paper`, prints every
//! figure and table of the Euphrates paper in paper order, paper values
//! next to measured ones, then the ablations of the reproduction's
//! design choices (§3.2, §3.3, §4.2, the Table 1 array, the SAD
//! prefilter) and the §7/§8 extensions, from one shared evaluation: the
//! [`paper`] module declares which cells of the (task profile, suite,
//! motion configuration, EW scheme) grid each section reads, and
//! [`paper::PaperRun`] evaluates each cell once.
//! `cargo bench -p euphrates-bench --bench paper` runs it; the run
//! `assert!`s the bounds its sections state and exits non-zero if one
//! breaks. Its stdout is deterministic: the same bytes on every run and
//! at every worker count, for a given scale. Host time per pipeline
//! stage is `perfbench/`'s traced ledger, not this crate's.
//!
//! The dataset scale is `EUPHRATES_SCALE` (0–1, default
//! [`DEFAULT_SCALE`]); `EUPHRATES_SCALE=1.0` reproduces the paper-sized
//! datasets (~76k frames). Worker-thread count follows
//! `EUPHRATES_THREADS` (see [`euphrates_common::par::default_threads`]).

use euphrates_core::prelude::*;

pub mod paper;

/// Default dataset scale for `cargo bench`.
pub const DEFAULT_SCALE: f64 = 0.25;

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
