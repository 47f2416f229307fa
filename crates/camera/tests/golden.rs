//! Golden-output regression tests for the scanline renderer.
//!
//! The renderer refactor (row-blit background, dirty-rect blur
//! accumulation, span rasterization, gain LUT, fused luma) promises
//! *bit-identical* frames. These tests lock that promise down two ways:
//!
//! 1. **Golden hashes** — FNV-1a digests of rendered pixels for three
//!    structurally different scenes under every combination of the
//!    global effects (motion blur on/off × pixel noise on/off × camera
//!    shake on/off) — the noise-free combos *recorded from the
//!    pre-refactor per-pixel renderer*, the noisy ones from the
//!    counter-based noise model — plus the sensor's RAW capture under
//!    read noise. Any change to rendered output fails these tests.
//! 2. **Properties** — `Scene::frames(range)` must bit-match a fresh
//!    `renderer().render(i)` at every index (the incremental compose
//!    state must be invisible), `render_pixels` must agree with
//!    `render`, `render_luma_into` must agree with
//!    `rgb_to_luma(render(i).rgb)` on every finalize path, and ground
//!    truth must be unchanged.

use euphrates_camera::scene::{
    RenderedFrame, Scene, SceneBuilder, SceneEffects, SceneObject, OCCLUDER_LABEL,
};
use euphrates_camera::sensor::{ImageSensor, SensorConfig};
use euphrates_camera::sprite::{Shape, Sprite};
use euphrates_camera::texture::Texture;
use euphrates_camera::trajectory::{Profile, Trajectory};
use euphrates_common::geom::Vec2f;
use euphrates_common::image::{rgb_to_luma, Resolution, Rgb};
use euphrates_common::rngx::Fnv1a;

const RES: Resolution = Resolution::new(120, 90);

/// Frame indices hashed per combo (early, mid-swing, shake-offset).
const FRAMES: [u32; 3] = [0, 3, 9];

/// Scene A: the rigid-drift archetype — noise background, rotating
/// rectangle target (noise texture), slow scale ramp.
fn scene_a(effects: SceneEffects) -> Scene {
    SceneBuilder::new(RES, 11)
        .effects(effects)
        .object(SceneObject {
            id: 0,
            label: 1,
            sprite: Sprite::rigid(34.0, 26.0, Shape::Rectangle, Texture::object_noise(77)),
            trajectory: Trajectory::Linear {
                start: Vec2f::new(40.0, 45.0),
                velocity: Vec2f::new(1.6, 0.5),
            },
            scale: Profile::Ramp {
                base: 1.0,
                slope: 0.01,
            },
            rotation: Profile::Ramp {
                base: 0.2,
                slope: std::f64::consts::TAU / 120.0,
            },
            aspect: Profile::one(),
            z: 1,
            enter_frame: 0.0,
            exit_frame: f64::INFINITY,
            tracked: true,
        })
        .build()
}

/// Scene B: deformation + occlusion — checkerboard background, a
/// swinging walker sprite, and an untracked occluder bar.
fn scene_b(effects: SceneEffects) -> Scene {
    SceneBuilder::new(RES, 23)
        .background(Texture::Checker {
            a: Rgb::new(60, 70, 60),
            b: Rgb::new(150, 140, 150),
            cell: 11.0,
        })
        .effects(effects)
        .object(SceneObject {
            id: 0,
            label: 2,
            sprite: Sprite::walker(24.0, 44.0, 5),
            trajectory: Trajectory::Sinusoid {
                center: Vec2f::new(60.0, 45.0),
                amplitude: Vec2f::new(25.0, 8.0),
                period: Vec2f::new(40.0, 60.0),
                phase: 0.3,
            },
            scale: Profile::one(),
            rotation: Profile::zero(),
            aspect: Profile::one(),
            z: 1,
            enter_frame: 0.0,
            exit_frame: f64::INFINITY,
            tracked: true,
        })
        .object(SceneObject {
            id: 0,
            label: OCCLUDER_LABEL,
            sprite: Sprite::rigid(18.0, 80.0, Shape::Rectangle, Texture::flat_gray()),
            trajectory: Trajectory::Still(Vec2f::new(72.0, 45.0)),
            scale: Profile::one(),
            rotation: Profile::zero(),
            aspect: Profile::one(),
            z: 5,
            enter_frame: 0.0,
            exit_frame: f64::INFINITY,
            tracked: false,
        })
        .build()
}

/// Scene C: ellipse + stripes + illumination drift — exercises the
/// ellipse span solver, the stripe texture, aspect foreshortening, and
/// the gain LUT (gain ≠ 1 on every frame).
fn scene_c(effects: SceneEffects) -> Scene {
    let effects = SceneEffects {
        illumination: Profile::Oscillate {
            base: 1.0,
            amplitude: 0.35,
            period: 14.0,
            phase: 0.7,
        },
        ..effects
    };
    SceneBuilder::new(RES, 31)
        .background(Texture::Stripes {
            a: Rgb::new(40, 44, 60),
            b: Rgb::new(190, 180, 160),
            width: 7.0,
            angle: 0.6,
        })
        .effects(effects)
        .object(SceneObject {
            id: 0,
            label: 3,
            sprite: Sprite::rigid(40.0, 24.0, Shape::Ellipse, Texture::object_noise(9)),
            trajectory: Trajectory::Sinusoid {
                center: Vec2f::new(55.0, 40.0),
                amplitude: Vec2f::new(20.0, 12.0),
                period: Vec2f::new(35.0, 50.0),
                phase: 0.0,
            },
            scale: Profile::one(),
            rotation: Profile::Ramp {
                base: 0.5,
                slope: std::f64::consts::TAU / 90.0,
            },
            aspect: Profile::Oscillate {
                base: 0.7,
                amplitude: 0.25,
                period: 30.0,
                phase: 0.2,
            },
            z: 2,
            enter_frame: 0.0,
            exit_frame: f64::INFINITY,
            tracked: true,
        })
        .object(SceneObject {
            id: 0,
            label: 4,
            sprite: Sprite::rigid(16.0, 16.0, Shape::Ellipse, Texture::flat_gray()),
            trajectory: Trajectory::Linear {
                start: Vec2f::new(95.0, 70.0),
                velocity: Vec2f::new(-0.8, -0.4),
            },
            scale: Profile::one(),
            rotation: Profile::zero(),
            aspect: Profile::one(),
            z: 1,
            enter_frame: 2.0,
            exit_frame: f64::INFINITY,
            tracked: true,
        })
        .build()
}

fn scenes(effects: SceneEffects) -> [Scene; 3] {
    [
        scene_a(effects.clone()),
        scene_b(effects.clone()),
        scene_c(effects),
    ]
}

/// The 8 global-effects combinations: index bit 0 = blur, bit 1 =
/// noise, bit 2 = shake.
fn combo_effects(combo: usize) -> SceneEffects {
    SceneEffects {
        illumination: Profile::one(),
        exposure_blur: if combo & 1 != 0 { 0.8 } else { 0.0 },
        pixel_noise_sigma: if combo & 2 != 0 { 2.0 } else { 0.0 },
        shake_amplitude: if combo & 4 != 0 { 5.0 } else { 0.0 },
        shake_period: 13.0,
        ..SceneEffects::default()
    }
}

fn combo_name(combo: usize) -> String {
    format!(
        "blur={} noise={} shake={}",
        combo & 1 != 0,
        combo & 2 != 0,
        combo & 4 != 0
    )
}

fn hash_frame_pixels(h: &mut Fnv1a, frame: &RenderedFrame) {
    for px in frame.rgb.samples() {
        h.write(&[px.r, px.g, px.b]);
    }
}

fn hash_frame_truth(h: &mut Fnv1a, frame: &RenderedFrame) {
    for gt in &frame.truth {
        h.write(&gt.id.to_le_bytes());
        h.write(&gt.label.to_le_bytes());
        for v in [
            gt.rect.x,
            gt.rect.y,
            gt.rect.w,
            gt.rect.h,
            gt.visibility,
            gt.blur,
            gt.speed,
        ] {
            h.write(&v.to_le_bytes());
        }
    }
}

/// Pixel + truth digest of one scene under one combo across [`FRAMES`].
fn scene_digest(scene: &Scene) -> (u64, u64) {
    let mut renderer = scene.renderer();
    let mut pixels = Fnv1a::new();
    let mut truth = Fnv1a::new();
    for &i in &FRAMES {
        let frame = renderer.render(i);
        hash_frame_pixels(&mut pixels, &frame);
        hash_frame_truth(&mut truth, &frame);
    }
    (pixels.finish(), truth.finish())
}

// ---------------------------------------------------------------------------
// Golden digests, recorded from the pre-refactor per-pixel renderer
// (commit 9277df7) by `print_golden` below. Do not regenerate from a
// post-refactor renderer unless an output change is *intended*.
// ---------------------------------------------------------------------------

/// The combos without pixel noise (bit 1 clear).
const DET_COMBOS: [usize; 4] = [0, 1, 4, 5];

/// `PIXEL_GOLDEN[scene][i]` for [`DET_COMBOS`].
#[rustfmt::skip]
const PIXEL_GOLDEN: [[u64; 4]; 3] = [
    [0x81E9BE4FBF8B2BA3, 0xFF4D3B545074D7F1, 0x859BB69BB2EFD780, 0xC70FC6EB075D91CA],
    [0xB65DA43BD156E191, 0xA6DFF188F665FE37, 0x5790412E8E4F1690, 0x78838AAD29CEEEDD],
    [0xE509932FCAABA7C6, 0xAB118EB6E2597AD5, 0x25A4EBA7EF16BF4E, 0x1D2C3E2046BA733A],
];

/// `TRUTH_GOLDEN[scene][blur_on]` — truth depends on effects only
/// through the blur extent, so two digests per scene suffice.
#[rustfmt::skip]
const TRUTH_GOLDEN: [[u64; 2]; 3] = [
    [0xE9057D4E35CE4C3D, 0x8132065F9989A043],
    [0x1404046C44E99DC1, 0x1CCD89E0901482E4],
    [0x604F03BD1C800C3D, 0xE0F59F4BCD7B3B30],
];

/// The combos that exercise pixel noise (bit 1).
const NOISE_COMBOS: [usize; 4] = [2, 3, 6, 7];

/// `FAST_PIXEL_GOLDEN[scene][i]` for [`NOISE_COMBOS`] — the noise
/// model's *determinism* contract (its distribution is pinned
/// statistically in `tests/noise_model.rs`). Re-recorded
/// by `print_fast_golden` when the sampler moved from one SplitMix hash
/// per three-sample group to the lane-parallel counter stream: sample
/// `i` now draws lane `i & 3` of `counter_hash(key, i >> 2)`, four
/// 12-bit table indices per 64-bit hash. That is an intended
/// realization change — the per-sample stream is a different (equally
/// uniform) traversal of the same quantized Gaussian table, so the
/// digests move while the statistical contract (re-verified in
/// `tests/noise_model.rs` and `rngx` moment tests) holds. The chunk
/// batcher is pinned bit-identical to this indexing in
/// `rngx::quant_gauss_sample_at_is_chunk_invariant`, so row geometry
/// cannot shift the digests again. Sampling is pure integer
/// arithmetic; the one platform dependency is `ln` inside the table
/// build (Acklam), whose entries sit far from rounding ties in
/// practice.
#[rustfmt::skip]
const FAST_PIXEL_GOLDEN: [[u64; 4]; 3] = [
    [0x554C9EBB4E2D92A4, 0x5D90EBAECD456136, 0x117C222FCB9367B5, 0xD6BA10DEF0682F47],
    [0x3B1C5AC56E941BE0, 0xE95789DB5199A324, 0x1FF3858E1A328B71, 0x4C70F3854E144198],
    [0x0457DC5CA54B8151, 0xC7E0B0D5F41F8110, 0x9DDC7183A149644E, 0x395595827A8045BE],
];

/// Read-noise sigmas and frame indices of the sensor digest.
const SENSOR_SIGMAS: [f64; 2] = [1.5, 2.0];
const SENSOR_FRAMES: [u32; 2] = [0, 5];

/// FNV-1a digest of the RAW mosaics `ImageSensor::capture` produces from
/// scene A (noise-free render) under read noise, over [`SENSOR_SIGMAS`] ×
/// [`SENSOR_FRAMES`]. Pins the sensor's noise stream bit for bit, where
/// `tests/noise_model.rs` only checks its moments and determinism.
fn sensor_digest() -> u64 {
    let scene = scene_a(combo_effects(0));
    let mut renderer = scene.renderer();
    let mut h = Fnv1a::new();
    for sigma in SENSOR_SIGMAS {
        let sensor = ImageSensor::new(
            SensorConfig {
                resolution: RES,
                read_noise_sigma: sigma,
                ..SensorConfig::default()
            },
            42,
        );
        for frame in SENSOR_FRAMES {
            let rgb = renderer.render_pixels(frame);
            h.write(sensor.capture(&rgb, frame).unwrap().samples());
        }
    }
    h.finish()
}

/// [`sensor_digest`] of the `FastGaussian` read-noise stream (print with
/// `print_sensor_golden`). Only regenerate when a change to the stream
/// is *intended*.
const SENSOR_GOLDEN: u64 = 0x9351F1B7FF0A1A89;

/// Capture helper for [`SENSOR_GOLDEN`]: run with
/// `cargo test -p euphrates-camera --test golden --release -- --ignored --nocapture print_sensor_golden`.
#[test]
#[ignore]
fn print_sensor_golden() {
    println!("const SENSOR_GOLDEN: u64 = 0x{:016X};", sensor_digest());
}

#[test]
fn sensor_read_noise_matches_recorded_hash() {
    let got = sensor_digest();
    assert_eq!(
        got, SENSOR_GOLDEN,
        "sensor RAW digest changed (got 0x{got:016X})"
    );
}

/// One-time capture helper: run with
/// `cargo test -p euphrates-camera --test golden --release -- --ignored --nocapture print_golden`
/// and paste the output over the constants above.
#[test]
#[ignore]
fn print_golden() {
    println!("const PIXEL_GOLDEN: [[u64; 4]; 3] = [");
    for scene_idx in 0..3 {
        print!("    [");
        for combo in DET_COMBOS {
            let scene = &scenes(combo_effects(combo))[scene_idx];
            let (px, _) = scene_digest(scene);
            print!("0x{px:016X}, ");
        }
        println!("],");
    }
    println!("];");
    println!("const TRUTH_GOLDEN: [[u64; 2]; 3] = [");
    for scene_idx in 0..3 {
        print!("    [");
        for blur in 0..2 {
            let scene = &scenes(combo_effects(blur))[scene_idx];
            let (_, tr) = scene_digest(scene);
            print!("0x{tr:016X}, ");
        }
        println!("],");
    }
    println!("];");
}

/// Capture helper for [`FAST_PIXEL_GOLDEN`]: run with
/// `cargo test -p euphrates-camera --test golden --release -- --ignored --nocapture print_fast_golden`
/// and paste the output over the constant. Only regenerate when a
/// change to the fast sampler is *intended*.
#[test]
#[ignore]
fn print_fast_golden() {
    println!("const FAST_PIXEL_GOLDEN: [[u64; 4]; 3] = [");
    for scene_idx in 0..3 {
        print!("    [");
        for combo in NOISE_COMBOS {
            let scene = &scenes(combo_effects(combo))[scene_idx];
            let (px, _) = scene_digest(scene);
            print!("0x{px:016X}, ");
        }
        println!("],");
    }
    println!("];");
}

#[test]
fn pixel_output_matches_pre_refactor_golden_hashes() {
    for (i, combo) in DET_COMBOS.into_iter().enumerate() {
        let expected = PIXEL_GOLDEN.map(|row| row[i]);
        let scenes = scenes(combo_effects(combo));
        for (scene_idx, scene) in scenes.iter().enumerate() {
            let (px, _) = scene_digest(scene);
            assert_eq!(
                px,
                expected[scene_idx],
                "pixel digest changed: scene {scene_idx}, {} (got 0x{px:016X})",
                combo_name(combo)
            );
        }
    }
}

#[test]
fn ground_truth_matches_pre_refactor_golden_hashes() {
    for (blur, expected) in (0..2).map(|b| (b, TRUTH_GOLDEN.map(|row| row[b]))) {
        let scenes = scenes(combo_effects(blur));
        for (scene_idx, scene) in scenes.iter().enumerate() {
            let (_, tr) = scene_digest(scene);
            assert_eq!(
                tr, expected[scene_idx],
                "truth digest changed: scene {scene_idx}, blur={blur} (got 0x{tr:016X})"
            );
        }
    }
}

/// The fast model is deterministic: its rendered output is pinned to
/// hashes recorded from the first counter-based implementation, for
/// every noise-carrying combo.
#[test]
fn fast_noise_output_matches_recorded_hashes() {
    for (i, combo) in NOISE_COMBOS.into_iter().enumerate() {
        let scenes = scenes(combo_effects(combo));
        for (scene_idx, scene) in scenes.iter().enumerate() {
            let (px, _) = scene_digest(scene);
            assert_eq!(
                px,
                FAST_PIXEL_GOLDEN[scene_idx][i],
                "fast-noise digest changed: scene {scene_idx}, {} (got 0x{px:016X})",
                combo_name(combo)
            );
        }
    }
}

/// `Scene::frames(range)` must bit-match a *fresh* renderer at every
/// index: the iterator's incremental compose state (dirty rects, cached
/// offsets, reused accumulators) must be invisible in the output.
#[test]
fn frame_iter_bit_matches_fresh_renders_under_all_effects() {
    for combo in [0, 1, 4, 5, 7] {
        for scene in &scenes(combo_effects(combo)) {
            for frame in scene.frames(0..6) {
                let fresh = scene.renderer().render(frame.index);
                assert_eq!(
                    frame.rgb,
                    fresh.rgb,
                    "pixels diverge at frame {} ({})",
                    frame.index,
                    combo_name(combo)
                );
                assert_eq!(frame.truth, fresh.truth);
            }
        }
    }
}

/// Out-of-order rendering (the tracker's re-init path) must also be
/// independent of the compose state left by earlier frames.
#[test]
fn out_of_order_rendering_is_state_independent() {
    // Includes noisy combos: the counter-based noise model must be
    // order-independent too (it has no sequential state at all).
    for combo in [0, 4, 5, 6, 3] {
        let scene = scene_b(combo_effects(combo));
        let mut r = scene.renderer();
        let indices = [7u32, 0, 7, 3, 3, 9, 0];
        for &i in &indices {
            let warm = r.render(i);
            let fresh = scene.renderer().render(i);
            assert_eq!(
                warm.rgb, fresh.rgb,
                "frame {i} differs after out-of-order renders"
            );
        }
    }
}

#[test]
fn truth_matches_scene_ground_truth() {
    for combo in [0, 3] {
        for scene in &scenes(combo_effects(combo)) {
            let mut r = scene.renderer();
            for &i in &FRAMES {
                assert_eq!(r.render(i).truth, scene.ground_truth(i));
            }
        }
    }
}

/// The fused luma path must agree with converting the RGB render, on
/// every finalize variant (plain, gain-only LUT, noise, gain+noise).
#[test]
fn fused_luma_matches_rgb_conversion() {
    for combo in 0..8 {
        for scene in &scenes(combo_effects(combo)) {
            let mut rgb_renderer = scene.renderer();
            let mut luma_renderer = scene.renderer();
            let mut luma = euphrates_common::image::LumaFrame::new(RES.width, RES.height).unwrap();
            for &i in &FRAMES {
                let frame = rgb_renderer.render(i);
                let truth = luma_renderer.render_luma_into(i, &mut luma);
                assert_eq!(
                    luma,
                    rgb_to_luma(&frame.rgb),
                    "luma diverges at frame {i} ({})",
                    combo_name(combo)
                );
                assert_eq!(truth, frame.truth);
            }
        }
    }
}

/// `render_pixels` is `render` without the ground-truth pass.
#[test]
fn render_pixels_matches_render() {
    for combo in [0, 1, 6] {
        let scene = scene_c(combo_effects(combo));
        let mut a = scene.renderer();
        let mut b = scene.renderer();
        for &i in &FRAMES {
            assert_eq!(a.render_pixels(i), b.render(i).rgb);
        }
    }
}
