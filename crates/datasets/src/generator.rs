//! Seeded generators for the three benchmark suites (§5.2, Table 2):
//!
//! * [`otb100_like`] — 100 single-target tracking sequences, 10 per
//!   visual attribute (nominal 590 frames each ≈ the paper's 59,040
//!   OTB-100 frames).
//! * [`vot2014_like`] — 25 sequences with rotating/foreshortening targets
//!   whose axis-aligned boxes are "irregular" (nominal 409 frames each ≈
//!   10,213 frames).
//! * [`detection_suite`] — 16 multi-object sequences (≈ 6 objects per
//!   frame, nominal 454 frames each ≈ the paper's 7,264-frame in-house
//!   detection set).

use crate::attributes::VisualAttribute;
use crate::sequence::{DatasetScale, Sequence};
use euphrates_camera::scene::{SceneBuilder, SceneEffects, SceneObject};
use euphrates_camera::sprite::{Shape, Sprite};
use euphrates_camera::texture::Texture;
use euphrates_camera::trajectory::{Profile, Trajectory};
use euphrates_common::geom::Vec2f;
use euphrates_common::image::Resolution;
use euphrates_common::rngx::{self, Rng};

/// Evaluation resolution (the paper's Fig. 1 operating point; the
/// performance/power models run at 1080p per Table 1).
pub const EVAL_RESOLUTION: Resolution = Resolution::VGA;

fn frame_center(res: Resolution) -> Vec2f {
    Vec2f::new(f64::from(res.width) / 2.0, f64::from(res.height) / 2.0)
}

/// Base moderate-motion orbit used by most sequences: peak speed ~2–4
/// px/frame, comfortably inside the ±7 search window.
fn base_trajectory(res: Resolution, rng: &mut Rng) -> Trajectory {
    let c = frame_center(res);
    let amp = Vec2f::new(
        f64::from(res.width) * rng.gen_range(0.16..0.26),
        f64::from(res.height) * rng.gen_range(0.12..0.22),
    );
    let period = Vec2f::new(rng.gen_range(220.0..320.0), rng.gen_range(260.0..380.0));
    Trajectory::Sinusoid {
        center: c,
        amplitude: amp,
        period,
        phase: rng.gen_range(0.0..std::f64::consts::TAU),
    }
}

fn base_target(res: Resolution, seed: u64, rng: &mut Rng) -> SceneObject {
    let w = f64::from(res.width) * rng.gen_range(0.10..0.17);
    let h = f64::from(res.height) * rng.gen_range(0.14..0.24);
    let shape = if rng.gen_bool(0.5) {
        Shape::Rectangle
    } else {
        Shape::Ellipse
    };
    SceneObject {
        id: 0,
        label: rng.gen_range(0..8),
        sprite: Sprite::rigid(w, h, shape, Texture::object_noise(seed ^ 0x51)),
        trajectory: base_trajectory(res, rng),
        scale: Profile::one(),
        rotation: Profile::zero(),
        aspect: Profile::one(),
        z: 1,
        enter_frame: 0.0,
        exit_frame: f64::INFINITY,
        tracked: true,
    }
}

/// Builds one OTB-like sequence for the given primary attribute.
fn otb_sequence(attr: VisualAttribute, index: u32, frames: u32, seed: u64) -> Sequence {
    let res = EVAL_RESOLUTION;
    let seq_seed = rngx::derive_seed(seed, attr as u64, u64::from(index));
    let mut rng = rngx::derived_rng(seq_seed, 0, 0);
    let mut target = base_target(res, seq_seed, &mut rng);
    let mut effects = SceneEffects::default();
    let mut background = Texture::background_noise(seq_seed ^ 0xB6);
    let mut extra_objects: Vec<SceneObject> = Vec::new();

    match attr {
        VisualAttribute::IlluminationVariation => {
            effects.illumination = Profile::Oscillate {
                base: 1.0,
                amplitude: rng.gen_range(0.3..0.45),
                period: rng.gen_range(60.0..110.0),
                phase: 0.0,
            };
        }
        VisualAttribute::ScaleVariation => {
            target.scale = Profile::Oscillate {
                base: 1.05,
                amplitude: rng.gen_range(0.3..0.45),
                period: rng.gen_range(120.0..220.0),
                phase: 0.0,
            };
        }
        VisualAttribute::Occlusion => {
            // A tall occluding bar sweeps back and forth across the
            // target's orbit center, producing periodic partial/full
            // occlusion.
            let c = frame_center(res);
            let bar_w = target.sprite.width * rng.gen_range(0.9..1.4);
            extra_objects.push(SceneObject {
                id: 0,
                label: euphrates_camera::scene::OCCLUDER_LABEL,
                sprite: Sprite::rigid(
                    bar_w,
                    f64::from(res.height) * 0.9,
                    Shape::Rectangle,
                    Texture::background_noise(seq_seed ^ 0x0CC),
                ),
                trajectory: Trajectory::Sinusoid {
                    center: c,
                    amplitude: Vec2f::new(f64::from(res.width) * 0.3, 0.0),
                    period: Vec2f::new(rng.gen_range(90.0..150.0), 1.0),
                    phase: rng.gen_range(0.0..std::f64::consts::TAU),
                },
                scale: Profile::one(),
                rotation: Profile::zero(),
                aspect: Profile::one(),
                z: 5,
                enter_frame: 0.0,
                exit_frame: f64::INFINITY,
                tracked: false,
            });
        }
        VisualAttribute::Deformation => {
            target.sprite = Sprite::walker(
                target.sprite.width,
                target.sprite.height * 1.2,
                seq_seed ^ 0xDEF,
            );
        }
        VisualAttribute::MotionBlur => {
            effects.exposure_blur = rng.gen_range(0.6..0.9);
            // Blur needs motion: speed up the orbit moderately.
            if let Trajectory::Sinusoid { period, .. } = &mut target.trajectory {
                period.x *= 0.45;
                period.y *= 0.45;
            }
        }
        VisualAttribute::FastMotion => {
            // Peak speed beyond the ±7 px/frame search window (§7).
            let c = frame_center(res);
            let amp = f64::from(res.width) * 0.30;
            let period = rng.gen_range(55.0..75.0);
            target.trajectory = Trajectory::Sinusoid {
                center: c,
                amplitude: Vec2f::new(amp, f64::from(res.height) * 0.1),
                period: Vec2f::new(period, period * 1.7),
                phase: 0.0,
            };
        }
        VisualAttribute::InPlaneRotation => {
            target.rotation = Profile::Ramp {
                base: 0.0,
                slope: std::f64::consts::TAU / rng.gen_range(140.0..260.0),
            };
        }
        VisualAttribute::OutOfPlaneRotation => {
            target.aspect = Profile::Oscillate {
                base: 0.7,
                amplitude: 0.3,
                period: rng.gen_range(100.0..180.0),
                phase: 0.0,
            };
        }
        VisualAttribute::OutOfView => {
            // Walk out of the left edge, wait, and come back — at a fixed
            // moderate speed (well inside the ±7 px/frame search window)
            // regardless of sequence length.
            let c = frame_center(res);
            let w = f64::from(res.width);
            let speed = rng.gen_range(3.0..4.0);
            let stops = [
                Vec2f::new(w * 0.3, c.y * 0.9),
                Vec2f::new(-w * 0.18, c.y), // fully out on the left
                Vec2f::new(-w * 0.18, c.y), // linger out of view
                Vec2f::new(w * 0.5, c.y * 1.1),
                Vec2f::new(w * 0.75, c.y * 0.9),
            ];
            let mut points = Vec::with_capacity(stops.len());
            let mut t = 0.0;
            let mut prev: Option<Vec2f> = None;
            for (i, &p) in stops.iter().enumerate() {
                if let Some(q) = prev {
                    let dist = (p - q).norm();
                    // The linger stop holds position for a fixed beat.
                    t += if dist < 1.0 { 12.0 } else { dist / speed };
                }
                let _ = i;
                points.push((t, p));
                prev = Some(p);
            }
            target.trajectory = Trajectory::Waypoints { points };
        }
        VisualAttribute::BackgroundClutter => {
            // Background drawn from the same texture family as the target.
            background = Texture::object_noise(seq_seed ^ 0x51);
        }
    }

    let mut builder = SceneBuilder::new(res, seq_seed)
        .background(background)
        .effects(effects)
        .object(target);
    for obj in extra_objects {
        builder = builder.object(obj);
    }
    Sequence {
        name: format!("otb_{}_{:02}", attr.tag(), index),
        attributes: vec![attr],
        scene: builder.build(),
        frames,
    }
}

/// The OTB-100-like tracking suite: 10 sequences per attribute.
pub fn otb100_like(seed: u64, scale: DatasetScale) -> Vec<Sequence> {
    let per_attr = scale.sequences(10);
    let frames = scale.frames(590);
    let mut out = Vec::new();
    for attr in VisualAttribute::ALL {
        for i in 0..per_attr {
            out.push(otb_sequence(attr, i, frames, seed));
        }
    }
    out
}

/// The VOT-2014-like suite: 25 rotating/foreshortening targets.
pub fn vot2014_like(seed: u64, scale: DatasetScale) -> Vec<Sequence> {
    let count = scale.sequences(25);
    let frames = scale.frames(409);
    let res = EVAL_RESOLUTION;
    (0..count)
        .map(|i| {
            let seq_seed = rngx::derive_seed(seed ^ 0x07, 99, u64::from(i));
            let mut rng = rngx::derived_rng(seq_seed, 1, 0);
            let mut target = base_target(res, seq_seed, &mut rng);
            // Irregular boxes: simultaneous rotation + aspect change.
            target.rotation = Profile::Ramp {
                base: rng.gen_range(0.0..1.0),
                slope: std::f64::consts::TAU / rng.gen_range(150.0..300.0),
            };
            target.aspect = Profile::Oscillate {
                base: 0.75,
                amplitude: 0.25,
                period: rng.gen_range(90.0..200.0),
                phase: rng.gen_range(0.0..std::f64::consts::TAU),
            };
            let attrs = vec![
                VisualAttribute::InPlaneRotation,
                VisualAttribute::OutOfPlaneRotation,
            ];
            Sequence {
                name: format!("vot_{i:02}"),
                attributes: attrs,
                scene: SceneBuilder::new(res, seq_seed).object(target).build(),
                frames,
            }
        })
        .collect()
}

/// The in-house-style multi-object detection suite.
pub fn detection_suite(seed: u64, scale: DatasetScale) -> Vec<Sequence> {
    let count = scale.sequences(16);
    let frames = scale.frames(454);
    let res = EVAL_RESOLUTION;
    (0..count)
        .map(|i| {
            let seq_seed = rngx::derive_seed(seed ^ 0xDE7, 7, u64::from(i));
            let mut rng = rngx::derived_rng(seq_seed, 2, 0);
            let mut builder = SceneBuilder::new(res, seq_seed);
            let n_objects: u32 = rng.gen_range(5..=7);
            for k in 0..n_objects {
                let mut obj = base_target(res, seq_seed ^ (u64::from(k) << 8), &mut rng);
                // Spread starting phases/centers so objects don't stack.
                if let Trajectory::Sinusoid { center, .. } = &mut obj.trajectory {
                    center.x = f64::from(res.width) * rng.gen_range(0.2..0.8);
                    center.y = f64::from(res.height) * rng.gen_range(0.25..0.75);
                }
                // Smaller objects for a 6-object frame.
                obj.sprite.width *= 0.7;
                obj.sprite.height *= 0.7;
                // A third of the objects enter/exit mid-sequence.
                if rng.gen_bool(0.3) {
                    let enter = rng.gen_range(0.0..f64::from(frames) * 0.4);
                    obj.enter_frame = enter;
                    obj.exit_frame = enter + f64::from(frames) * rng.gen_range(0.4..0.6);
                }
                builder = builder.object(obj);
            }
            Sequence {
                name: format!("det_{i:02}"),
                attributes: vec![],
                scene: builder.build(),
                frames,
            }
        })
        .collect()
}

/// Total frame count of a suite (for Table 2's dataset rows).
pub fn total_frames(suite: &[Sequence]) -> u64 {
    suite.iter().map(|s| u64::from(s.frames)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> DatasetScale {
        DatasetScale {
            sequence_fraction: 0.1,
            frame_fraction: 0.08,
        }
    }

    #[test]
    fn otb_full_scale_matches_paper_frame_count() {
        // Nominal: 100 sequences x 590 frames = 59,000 ≈ paper's 59,040.
        let scale = DatasetScale::full();
        let per_attr = scale.sequences(10);
        assert_eq!(per_attr * 10, 100);
        assert_eq!(u64::from(scale.frames(590)) * 100, 59_000);
    }

    #[test]
    fn suites_have_expected_shapes() {
        let otb = otb100_like(1, tiny());
        assert_eq!(otb.len(), 10); // 1 per attribute
        for s in &otb {
            assert_eq!(s.frames, 47);
            assert_eq!(s.attributes.len(), 1);
            assert_eq!(s.ground_truth(0).len(), 1, "{}: single target", s.name);
        }
        let vot = vot2014_like(1, tiny());
        assert_eq!(vot.len(), 3);
        let det = detection_suite(1, tiny());
        assert_eq!(det.len(), 2);
        for s in &det {
            let gt = s.ground_truth(s.frames / 2);
            assert!(
                (3..=7).contains(&gt.len()),
                "{}: {} objects",
                s.name,
                gt.len()
            );
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = otb100_like(42, tiny());
        let b = otb100_like(42, tiny());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.ground_truth(5), y.ground_truth(5));
        }
        let c = otb100_like(43, tiny());
        assert_ne!(a[0].ground_truth(5), c[0].ground_truth(5));
    }

    #[test]
    fn fast_motion_sequences_exceed_the_search_range() {
        let otb = otb100_like(7, tiny());
        let fm = otb
            .iter()
            .find(|s| s.has_attribute(VisualAttribute::FastMotion))
            .unwrap();
        let base = otb
            .iter()
            .find(|s| s.has_attribute(VisualAttribute::IlluminationVariation))
            .unwrap();
        // Peak speed matters more than mean; sample maxima.
        let peak = |s: &Sequence| -> f64 {
            (0..s.frames)
                .flat_map(|f| s.ground_truth(f))
                .map(|g| g.speed)
                .fold(0.0, f64::max)
        };
        assert!(peak(fm) > 8.0, "fast-motion peak {}", peak(fm));
        assert!(peak(base) < 8.0, "baseline peak {}", peak(base));
    }

    #[test]
    fn occlusion_sequences_actually_occlude() {
        let otb = otb100_like(
            9,
            DatasetScale {
                sequence_fraction: 0.1,
                frame_fraction: 0.3,
            },
        );
        let occ = otb
            .iter()
            .find(|s| s.has_attribute(VisualAttribute::Occlusion))
            .unwrap();
        let min_vis = (0..occ.frames)
            .flat_map(|f| occ.ground_truth(f))
            .map(|g| g.visibility)
            .fold(1.0, f64::min);
        assert!(min_vis < 0.5, "minimum visibility {min_vis}");
    }

    #[test]
    fn out_of_view_sequences_leave_the_frame() {
        let otb = otb100_like(
            11,
            DatasetScale {
                sequence_fraction: 0.1,
                frame_fraction: 0.3,
            },
        );
        let ov = otb
            .iter()
            .find(|s| s.has_attribute(VisualAttribute::OutOfView))
            .unwrap();
        let fully_out = (0..ov.frames)
            .flat_map(|f| ov.ground_truth(f))
            .any(|g| g.rect.is_empty());
        assert!(fully_out, "target never left the frame");
    }

    #[test]
    fn motion_blur_sequences_have_blur_ground_truth() {
        let otb = otb100_like(13, tiny());
        let mb = otb
            .iter()
            .find(|s| s.has_attribute(VisualAttribute::MotionBlur))
            .unwrap();
        let mean_blur: f64 = (0..mb.frames)
            .flat_map(|f| mb.ground_truth(f))
            .map(|g| g.blur)
            .sum::<f64>()
            / f64::from(mb.frames);
        assert!(mean_blur > 1.0, "mean blur {mean_blur}");
    }

    #[test]
    fn total_frames_sums_the_suite() {
        let det = detection_suite(1, tiny());
        assert_eq!(
            total_frames(&det),
            det.iter().map(|s| u64::from(s.frames)).sum::<u64>()
        );
    }

    #[test]
    fn vot_targets_rotate() {
        let vot = vot2014_like(5, tiny());
        let s = &vot[0];
        let r0 = s.ground_truth(0)[0].rect;
        let aspect_changes = (1..s.frames).any(|f| {
            let r = s.ground_truth(f)[0].rect;
            (r.w / r.h - r0.w / r0.h).abs() > 0.1
        });
        assert!(aspect_changes, "box aspect never changed");
    }
}
