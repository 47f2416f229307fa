//! Functional accuracy oracles — the substitution for trained CNN weights.
//!
//! Euphrates never modifies the CNN; it only changes *how often* inference
//! runs. What the reproduction therefore needs from "the CNN" is (a) a
//! baseline accuracy level matching the paper's networks, (b) realistic
//! failure responses to visual conditions (blur, occlusion, small/fast
//! objects), and (c) determinism. The oracles provide exactly that: they
//! consume exact ground truth ([`OracleTarget`]) and emit noisy results
//! whose error statistics are calibrated (module [`calib`]) so that the
//! baseline curves land where Fig. 9a / Fig. 10a put them. Timing and
//! energy of inference come from the systolic model, not from the oracle.
//!
//! Determinism: every decision derives its RNG from
//! `(seed, object/stream id, frame index)`, so results are independent of
//! evaluation order and thread count.

use euphrates_common::geom::Rect;
use euphrates_common::rngx::{self, Rng};

/// Ground-truth view handed to an oracle (decoupled from the camera crate's
/// richer scene types).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OracleTarget {
    /// Stable object id.
    pub id: u32,
    /// Class label.
    pub label: u32,
    /// True bounding box (clipped to the frame).
    pub rect: Rect,
    /// Visible fraction in `[0, 1]` (occlusion / out-of-view).
    pub visibility: f64,
    /// Motion-blur extent in pixels.
    pub blur: f64,
}

/// A detection emitted by a detector oracle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Detection {
    /// Predicted box.
    pub rect: Rect,
    /// Predicted class label.
    pub label: u32,
    /// Confidence score in `(0, 1]`.
    pub score: f64,
    /// Ground-truth object this detection arose from; `None` for false
    /// positives. (Scoring does not use this — it re-matches greedily —
    /// but the tracker seeding does.)
    pub source_id: Option<u32>,
}

/// Error-statistics profile of a detector-class network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorProfile {
    /// Display name.
    pub name: &'static str,
    /// Localization noise: center jitter sigma as a fraction of box size.
    pub sigma_frac: f64,
    /// Size (log-scale) jitter sigma.
    pub size_sigma: f64,
    /// Probability of missing a fully visible object.
    pub miss_rate: f64,
    /// Extra relative sigma per pixel of motion blur.
    pub blur_sigma_per_px: f64,
    /// Expected false positives per frame.
    pub fp_per_frame: f64,
    /// Below this visibility the object is never detected.
    pub min_visibility: f64,
}

/// Calibration constants for all modeled networks.
///
/// The accuracy targets (AP at IoU 0.5 under the paper's precision metric,
/// success rate at 0.5 for the tracker) are taken from Fig. 1 / Fig. 9a /
/// Fig. 10a; the unit tests below pin the measured detector AP bands.
pub mod calib {
    use super::{DetectorProfile, TrackerProfile};

    /// YOLOv2: AP@0.5 ≈ 0.80.
    pub fn yolov2() -> DetectorProfile {
        DetectorProfile {
            name: "YOLOv2",
            sigma_frac: 0.105,
            size_sigma: 0.06,
            miss_rate: 0.04,
            blur_sigma_per_px: 0.012,
            fp_per_frame: 0.70,
            min_visibility: 0.15,
        }
    }

    /// Tiny YOLO: AP@0.5 ≈ 0.58 (the "20 % accuracy loss" §5.2).
    pub fn tiny_yolo() -> DetectorProfile {
        DetectorProfile {
            name: "TinyYOLO",
            sigma_frac: 0.175,
            size_sigma: 0.11,
            miss_rate: 0.18,
            blur_sigma_per_px: 0.02,
            fp_per_frame: 1.5,
            min_visibility: 0.25,
        }
    }

    /// SSD: AP@0.5 ≈ 0.74 (Fig. 1).
    pub fn ssd() -> DetectorProfile {
        DetectorProfile {
            name: "SSD",
            sigma_frac: 0.12,
            size_sigma: 0.07,
            miss_rate: 0.06,
            blur_sigma_per_px: 0.014,
            fp_per_frame: 0.9,
            min_visibility: 0.18,
        }
    }

    /// Faster R-CNN: AP@0.5 ≈ 0.83 (Fig. 1).
    pub fn faster_rcnn() -> DetectorProfile {
        DetectorProfile {
            name: "FasterR-CNN",
            sigma_frac: 0.095,
            size_sigma: 0.05,
            miss_rate: 0.03,
            blur_sigma_per_px: 0.010,
            fp_per_frame: 0.5,
            min_visibility: 0.12,
        }
    }

    /// HOG+SVM: AP@0.5 ≈ 0.46 (Fig. 1, hand-crafted features).
    pub fn hog() -> DetectorProfile {
        DetectorProfile {
            name: "HOG",
            sigma_frac: 0.22,
            size_sigma: 0.15,
            miss_rate: 0.30,
            blur_sigma_per_px: 0.03,
            fp_per_frame: 2.6,
            min_visibility: 0.35,
        }
    }

    /// Haar cascade: AP@0.5 ≈ 0.33 (Fig. 1).
    pub fn haar() -> DetectorProfile {
        DetectorProfile {
            name: "Haar",
            sigma_frac: 0.27,
            size_sigma: 0.20,
            miss_rate: 0.40,
            blur_sigma_per_px: 0.04,
            fp_per_frame: 3.6,
            min_visibility: 0.45,
        }
    }

    /// MDNet: success@0.5 ≈ 0.9 on OTB-like content (the paper's Fig. 10a
    /// baseline reads ≈0.88 at IoU 0.5).
    pub fn mdnet() -> TrackerProfile {
        TrackerProfile {
            name: "MDNet",
            sigma_frac: 0.075,
            size_sigma: 0.05,
            blur_sigma_per_px: 0.012,
            relock_iou: 0.18,
            min_visibility: 0.25,
            lost_drift_sigma: 1.2,
        }
    }
}

/// A deterministic detector oracle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorOracle {
    profile: DetectorProfile,
    seed: u64,
}

impl DetectorOracle {
    /// Creates an oracle with the given profile and noise seed.
    pub fn new(profile: DetectorProfile, seed: u64) -> Self {
        DetectorOracle { profile, seed }
    }

    /// The oracle's profile.
    pub fn profile(&self) -> &DetectorProfile {
        &self.profile
    }

    /// Runs "inference" on one frame: produces detections for the given
    /// targets plus false positives. `frame_bounds` bounds false-positive
    /// placement; `stream` disambiguates multiple sequences sharing a seed.
    pub fn detect(
        &self,
        targets: &[OracleTarget],
        frame_bounds: &Rect,
        stream: u64,
        frame_index: u64,
    ) -> Vec<Detection> {
        let p = &self.profile;
        let mut out = Vec::with_capacity(targets.len() + 1);
        for t in targets {
            let mut rng = rngx::derived_rng(
                self.seed ^ (u64::from(t.id) << 32) ^ stream.rotate_left(17),
                u64::from(t.id),
                frame_index,
            );
            if t.rect.is_empty() || t.visibility < p.min_visibility {
                continue;
            }
            // Degraded visibility raises the miss probability smoothly.
            let miss_p = p.miss_rate + (1.0 - t.visibility) * 0.6;
            if rng.unit_f64() < miss_p {
                continue;
            }
            let rect = jitter_box(
                &mut rng,
                &t.rect,
                effective_sigma(p, t),
                p.size_sigma * (1.0 + 0.5 * (1.0 - t.visibility)),
            );
            out.push(Detection {
                rect,
                label: t.label,
                score: (0.55 + 0.45 * rng.unit_f64()) * t.visibility.max(0.3),
                source_id: Some(t.id),
            });
        }
        // False positives: Poisson-ish via a Bernoulli chain (cheap, and the
        // expected count matches fp_per_frame for rates < ~3).
        let mut rng = rngx::derived_rng(self.seed ^ 0x0F9E, stream, frame_index);
        let mut budget = p.fp_per_frame;
        while budget > 0.0 {
            let prob = budget.min(1.0);
            if rng.unit_f64() < prob {
                out.push(random_fp(&mut rng, frame_bounds));
            }
            budget -= 1.0;
        }
        out
    }
}

/// Error-statistics profile of a tracker-class network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrackerProfile {
    /// Display name.
    pub name: &'static str,
    /// Localization noise when locked onto the target.
    pub sigma_frac: f64,
    /// Size jitter sigma.
    pub size_sigma: f64,
    /// Extra relative sigma per pixel of motion blur.
    pub blur_sigma_per_px: f64,
    /// Minimum IoU between the previous prediction and the current truth
    /// for the tracker's local search to re-acquire the target.
    pub relock_iou: f64,
    /// Below this visibility the target cannot be re-acquired.
    pub min_visibility: f64,
    /// Random-walk sigma (pixels) of a lost tracker's box.
    pub lost_drift_sigma: f64,
}

/// A deterministic single-object tracker oracle (MDNet-class).
///
/// MDNet searches candidate windows around its previous prediction: if the
/// target still overlaps that neighborhood it re-locks (with localization
/// noise); once the target is gone — occluded, out of view, or the previous
/// box has drifted off — the tracker latches onto background and drifts.
/// This "lost is lost" dynamic is what makes long extrapolation windows
/// risky in the tracking experiments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrackerOracle {
    profile: TrackerProfile,
    seed: u64,
}

impl TrackerOracle {
    /// Creates a tracker oracle.
    pub fn new(profile: TrackerProfile, seed: u64) -> Self {
        TrackerOracle { profile, seed }
    }

    /// The oracle's profile.
    pub fn profile(&self) -> &TrackerProfile {
        &self.profile
    }

    /// One inference step: given the tracker's previous output box and the
    /// current ground truth, returns the new predicted box.
    pub fn track(&self, prev: &Rect, target: &OracleTarget, stream: u64, frame_index: u64) -> Rect {
        let p = &self.profile;
        let mut rng = rngx::derived_rng(self.seed ^ 0x7EAC, stream, frame_index);
        let locked = !target.rect.is_empty()
            && target.visibility >= p.min_visibility
            && prev.iou(&target.rect) >= p.relock_iou;
        if locked {
            let sigma = p.sigma_frac
                * (1.0 + p.blur_sigma_per_px * target.blur / p.sigma_frac.max(1e-9) * p.sigma_frac)
                * (1.0 + 0.8 * (1.0 - target.visibility))
                + p.blur_sigma_per_px * target.blur;
            jitter_box(&mut rng, &target.rect, sigma, p.size_sigma)
        } else {
            // Lost: drift on background.
            let dx = rngx::gaussian(&mut rng, 0.0, p.lost_drift_sigma);
            let dy = rngx::gaussian(&mut rng, 0.0, p.lost_drift_sigma);
            Rect::new(prev.x + dx, prev.y + dy, prev.w, prev.h)
        }
    }
}

/// Applies center + log-size jitter to a box.
fn jitter_box(rng: &mut Rng, rect: &Rect, sigma_frac: f64, size_sigma: f64) -> Rect {
    let cx = rect.x + rect.w / 2.0 + rngx::gaussian(rng, 0.0, sigma_frac * rect.w);
    let cy = rect.y + rect.h / 2.0 + rngx::gaussian(rng, 0.0, sigma_frac * rect.h);
    let kw = rngx::gaussian(rng, 0.0, size_sigma).exp();
    let kh = rngx::gaussian(rng, 0.0, size_sigma).exp();
    Rect::from_center(cx, cy, rect.w * kw, rect.h * kh)
}

/// Generates a random false-positive box within the frame.
fn random_fp(rng: &mut Rng, bounds: &Rect) -> Detection {
    let w = bounds.w * rng.gen_range(0.05..0.25);
    let h = bounds.h * rng.gen_range(0.05..0.25);
    let x = bounds.x + rng.gen_range(0.0..(bounds.w - w).max(1.0));
    let y = bounds.y + rng.gen_range(0.0..(bounds.h - h).max(1.0));
    Detection {
        rect: Rect::new(x, y, w, h),
        label: rng.gen_range(0..8),
        score: 0.3 + 0.4 * rng.unit_f64(),
        source_id: None,
    }
}

/// Convenience: the effective localization sigma for a target under the
/// profile's blur/occlusion penalties.
fn effective_sigma(p: &DetectorProfile, t: &OracleTarget) -> f64 {
    p.sigma_frac * (1.0 + 0.8 * (1.0 - t.visibility)) + p.blur_sigma_per_px * t.blur
}

#[cfg(test)]
mod tests {
    use super::*;
    use euphrates_common::metrics::{match_detections, IouAccumulator};

    fn full_vis_target(id: u32, rect: Rect) -> OracleTarget {
        OracleTarget {
            id,
            label: 1,
            rect,
            visibility: 1.0,
            blur: 0.0,
        }
    }

    fn frame() -> Rect {
        Rect::new(0.0, 0.0, 640.0, 480.0)
    }

    /// Measures AP@0.5 (paper metric) of a profile over synthetic frames.
    fn measure_ap(profile: DetectorProfile, frames: u64) -> f64 {
        let oracle = DetectorOracle::new(profile, 99);
        let mut acc = IouAccumulator::new();
        for f in 0..frames {
            // Six objects per frame, like the paper's detection dataset.
            let targets: Vec<OracleTarget> = (0..6)
                .map(|i| {
                    full_vis_target(
                        i,
                        Rect::new(
                            30.0 + f64::from(i) * 95.0,
                            40.0 + f64::from(i % 3) * 120.0,
                            70.0,
                            90.0,
                        ),
                    )
                })
                .collect();
            let dets = oracle.detect(&targets, &frame(), 0, f);
            let truths: Vec<Rect> = targets.iter().map(|t| t.rect).collect();
            let preds: Vec<Rect> = dets.iter().map(|d| d.rect).collect();
            acc.extend(match_detections(&preds, &truths));
        }
        acc.rate_at(0.5)
    }

    #[test]
    fn yolov2_ap_matches_paper_band() {
        let ap = measure_ap(calib::yolov2(), 400);
        assert!((0.74..0.87).contains(&ap), "YOLOv2 AP@0.5 = {ap}");
    }

    #[test]
    fn tiny_yolo_ap_matches_paper_band() {
        let ap = measure_ap(calib::tiny_yolo(), 400);
        assert!((0.50..0.66).contains(&ap), "TinyYOLO AP@0.5 = {ap}");
    }

    #[test]
    fn accuracy_ordering_matches_fig1() {
        let fr = measure_ap(calib::faster_rcnn(), 250);
        let yv = measure_ap(calib::yolov2(), 250);
        let ssd = measure_ap(calib::ssd(), 250);
        let ty = measure_ap(calib::tiny_yolo(), 250);
        let hog = measure_ap(calib::hog(), 250);
        let haar = measure_ap(calib::haar(), 250);
        assert!(
            fr > yv && yv > ty && ssd > ty && ty > hog && hog > haar,
            "fr={fr:.2} yv={yv:.2} ssd={ssd:.2} ty={ty:.2} hog={hog:.2} haar={haar:.2}"
        );
    }

    #[test]
    fn detection_is_deterministic() {
        let oracle = DetectorOracle::new(calib::yolov2(), 7);
        let t = vec![full_vis_target(0, Rect::new(100.0, 100.0, 60.0, 80.0))];
        let a = oracle.detect(&t, &frame(), 3, 42);
        let b = oracle.detect(&t, &frame(), 3, 42);
        assert_eq!(a, b);
        let c = oracle.detect(&t, &frame(), 3, 43);
        assert_ne!(a, c, "different frames must differ");
    }

    #[test]
    fn invisible_targets_are_never_detected() {
        let oracle = DetectorOracle::new(calib::yolov2(), 7);
        let mut t = full_vis_target(0, Rect::new(100.0, 100.0, 60.0, 80.0));
        t.visibility = 0.05;
        for f in 0..50 {
            let dets = oracle.detect(&[t], &frame(), 0, f);
            assert!(dets.iter().all(|d| d.source_id.is_none()));
        }
    }

    #[test]
    fn occlusion_increases_miss_rate() {
        let oracle = DetectorOracle::new(calib::yolov2(), 7);
        let count_hits = |vis: f64| -> usize {
            let mut t = full_vis_target(0, Rect::new(100.0, 100.0, 60.0, 80.0));
            t.visibility = vis;
            (0..300)
                .filter(|&f| {
                    oracle
                        .detect(&[t], &frame(), 0, f)
                        .iter()
                        .any(|d| d.source_id == Some(0))
                })
                .count()
        };
        let full = count_hits(1.0);
        let half = count_hits(0.45);
        assert!(full > half + 30, "full {full} vs occluded {half}");
    }

    #[test]
    fn blur_degrades_localization() {
        let oracle = DetectorOracle::new(calib::yolov2(), 7);
        let mean_iou = |blur: f64| -> f64 {
            let mut t = full_vis_target(0, Rect::new(200.0, 150.0, 80.0, 100.0));
            t.blur = blur;
            let mut acc = IouAccumulator::new();
            for f in 0..400 {
                for d in oracle.detect(&[t], &frame(), 0, f) {
                    if d.source_id == Some(0) {
                        acc.push_pair(&d.rect, &t.rect);
                    }
                }
            }
            acc.mean_iou()
        };
        let sharp = mean_iou(0.0);
        let blurred = mean_iou(8.0);
        assert!(sharp > blurred + 0.03, "sharp {sharp} vs blurred {blurred}");
    }

    #[test]
    fn fp_rate_is_roughly_calibrated() {
        let oracle = DetectorOracle::new(calib::yolov2(), 7);
        let mut fps = 0usize;
        let frames = 1000;
        for f in 0..frames {
            fps += oracle
                .detect(&[], &frame(), 0, f)
                .iter()
                .filter(|d| d.source_id.is_none())
                .count();
        }
        let rate = fps as f64 / frames as f64;
        let target = calib::yolov2().fp_per_frame;
        assert!(
            (rate - target).abs() < 0.15,
            "fp rate {rate} target {target}"
        );
    }

    #[test]
    fn tracker_locks_and_follows() {
        let oracle = TrackerOracle::new(calib::mdnet(), 5);
        let truth = Rect::new(100.0, 100.0, 50.0, 60.0);
        let t = full_vis_target(0, truth);
        let mut acc = IouAccumulator::new();
        let mut prev = truth;
        for f in 0..300 {
            prev = oracle.track(&prev, &t, 0, f);
            acc.push_pair(&prev, &truth);
        }
        let success = acc.rate_at(0.5);
        assert!(success > 0.8, "locked success {success}");
    }

    #[test]
    fn tracker_stays_lost_when_target_jumps_away() {
        let oracle = TrackerOracle::new(calib::mdnet(), 5);
        let t = full_vis_target(0, Rect::new(500.0, 400.0, 40.0, 40.0));
        // Previous prediction far from the target: no overlap, never locks.
        let mut prev = Rect::new(50.0, 50.0, 40.0, 40.0);
        for f in 0..50 {
            prev = oracle.track(&prev, &t, 0, f);
        }
        assert_eq!(prev.iou(&t.rect), 0.0, "tracker must not teleport");
    }

    #[test]
    fn tracker_loses_target_under_full_occlusion() {
        let oracle = TrackerOracle::new(calib::mdnet(), 5);
        let mut t = full_vis_target(0, Rect::new(100.0, 100.0, 50.0, 60.0));
        t.visibility = 0.05; // fully hidden
        let before = Rect::new(100.0, 100.0, 50.0, 60.0);
        let after = oracle.track(&before, &t, 0, 1);
        // Output is a drift of the previous box, not a re-lock on truth.
        assert_eq!((after.w, after.h), (before.w, before.h));
    }

    #[test]
    fn tracker_is_deterministic() {
        let oracle = TrackerOracle::new(calib::mdnet(), 5);
        let t = full_vis_target(0, Rect::new(100.0, 100.0, 50.0, 60.0));
        let p = Rect::new(98.0, 101.0, 50.0, 60.0);
        assert_eq!(oracle.track(&p, &t, 2, 9), oracle.track(&p, &t, 2, 9));
    }
}
