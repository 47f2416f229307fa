//! Ablation — the fused render-to-luma path under sensor noise.
//!
//! `bench_noise_models` asserts the fused-luma invariant on σ=2 VGA
//! frames (the dataset default noise): the fused render-to-luma path
//! must never do more work than rendering RGB and converting
//! separately. Renderer correctness is pinned elsewhere, against
//! hashes recorded from earlier implementations:
//! `crates/camera/tests/golden.rs` pins the noise-free effects matrix
//! (`pixel_output_matches_pre_refactor_golden_hashes`) and the
//! counter-based noise stream (`fast_noise_output_matches_recorded_hashes`).
//! Per-stage host time of the shipped frontend is the `perfbench/`
//! `--trace 1` ledger.

use criterion::{criterion_group, criterion_main, Criterion};
use euphrates_camera::scene::{Scene, SceneBuilder, SceneEffects, SceneObject};
use euphrates_camera::sprite::Shape;
use euphrates_camera::texture::Texture;
use euphrates_camera::trajectory::{Profile, Trajectory};
use euphrates_common::geom::Vec2f;
use euphrates_common::image::{LumaFrame, Resolution};
use std::hint::black_box;
use std::time::Instant;

/// A VGA scene representative of the OTB-style sequences: noise
/// background, one rotating noise-textured target, one flat occluder.
fn vga_scene(effects: SceneEffects) -> Scene {
    SceneBuilder::new(Resolution::VGA, 42)
        .effects(effects)
        .object_default()
        .object(SceneObject {
            id: 0,
            label: 7,
            sprite: euphrates_camera::sprite::Sprite::rigid(
                70.0,
                50.0,
                Shape::Ellipse,
                Texture::object_noise(9),
            ),
            trajectory: Trajectory::Sinusoid {
                center: Vec2f::new(420.0, 180.0),
                amplitude: Vec2f::new(60.0, 40.0),
                period: Vec2f::new(90.0, 70.0),
                phase: 0.5,
            },
            scale: Profile::one(),
            rotation: Profile::Ramp {
                base: 0.0,
                slope: std::f64::consts::TAU / 160.0,
            },
            aspect: Profile::one(),
            z: 2,
            enter_frame: 0.0,
            exit_frame: f64::INFINITY,
            tracked: true,
        })
        .build()
}

const FRAMES: u32 = 8;

/// The fused-luma invariant on σ=2 VGA frames (the dataset default
/// noise): the fused render-to-luma path costs no more than rendering
/// RGB and converting separately (10% timing tolerance for the shared
/// container) — the fused path must never do more work than the
/// unfused one.
fn bench_noise_models(c: &mut Criterion) {
    euphrates_bench::announce(
        "ablation: fused vs unfused luma under FastGaussian noise",
        "sensor-noise stage on the frame-preparation hot path",
    );

    let scene = vga_scene(SceneEffects::default());

    let mut g = c.benchmark_group("noise_model_vga_sigma2");
    g.sample_size(3);
    let mut luma = LumaFrame::new(640, 480).expect("VGA");
    let mut fast = scene.renderer();
    g.bench_function("fast_gaussian_luma", |b| {
        b.iter(|| {
            fast.render_luma_pixels_into(black_box(2), &mut luma);
            black_box(luma.at(0, 0))
        })
    });
    g.finish();

    // Medians (ms/frame over FRAMES frames, median of 3 passes — robust
    // against scheduler hiccups on the 1-core box).
    let median_ms = |mut pass: Box<dyn FnMut() + '_>| -> f64 {
        let mut samples: Vec<f64> = (0..3)
            .map(|_| {
                let t0 = Instant::now();
                pass();
                t0.elapsed().as_secs_f64() * 1e3 / f64::from(FRAMES)
            })
            .collect();
        samples.sort_by(f64::total_cmp);
        samples[1]
    };

    let mut r = scene.renderer();
    let fused = median_ms(Box::new(|| {
        for i in 0..FRAMES {
            r.render_luma_pixels_into(i, &mut luma);
            black_box(luma.at(0, 0));
        }
    }));
    let mut r = scene.renderer();
    let unfused = median_ms(Box::new(|| {
        for i in 0..FRAMES {
            let rgb = r.render_pixels(i);
            let luma = euphrates_common::image::rgb_to_luma(&rgb);
            black_box(luma.at(0, 0));
            r.recycle(rgb);
        }
    }));
    println!(
        "noise sigma=2 VGA: fused luma {fused:7.2} ms/frame, rgb+convert {unfused:7.2} ms/frame"
    );
    assert!(
        fused <= unfused * 1.10,
        "fused luma ({fused:.2} ms) must not exceed rgb+convert ({unfused:.2} ms)"
    );
}

criterion_group!(benches, bench_noise_models);
criterion_main!(benches);
