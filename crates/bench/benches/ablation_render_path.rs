//! Ablation — the scanline renderer and zero-copy frame plumbing.
//!
//! Quantifies the frame-production refactor: row-`memcpy` background
//! blits, dirty-rect reuse between frames, span rasterization with
//! memoized noise sampling, `u16` blur accumulation over object
//! regions, the gain LUT, and the fused render-to-luma path, against a
//! faithful reconstruction of the pre-refactor per-pixel renderer
//! (per-pixel `f64` blit rounds, circumscribed-circle raster bounds,
//! full-frame `f64` blur accumulators, per-pixel gain closures, and the
//! float RGB→luma conversion). Outputs are asserted bit-identical
//! before anything is timed; `crates/camera/tests/golden.rs` pins the
//! same property against hashes recorded from the old code itself.
//!
//! The effects matrix is reported per combination. Pixel noise is not
//! part of it: the renderer realizes σ with the counter-based
//! `FastGaussian` model, a different stream from the reconstruction's
//! Box–Muller, so there is no bit-identical old path to compare.
//! `bench_noise_models` instead asserts the fused-luma invariant on
//! σ=2 frames (the fused path must never do more work than RGB +
//! separate conversion), and `bench_lane_hash_noise` times the noise
//! kernel against the per-sample table walk it replaced.

use criterion::{criterion_group, criterion_main, Criterion};
use euphrates_camera::scene::{Scene, SceneBuilder, SceneEffects, SceneObject};
use euphrates_camera::sprite::Shape;
use euphrates_camera::texture::Texture;
use euphrates_camera::trajectory::{Profile, Trajectory};
use euphrates_common::geom::Vec2f;
use euphrates_common::image::{LumaFrame, Resolution, Rgb, RgbFrame};
use euphrates_core::frame_source;
use euphrates_core::prelude::*;
use euphrates_isp::motion::{BlockMatcher, MotionField};
use std::hint::black_box;
use std::time::Instant;

// ---------------------------------------------------------------------------
// The pre-refactor renderer, reconstructed faithfully from the public
// Scene API (commit 9277df7's `Renderer`): per-pixel background
// rounds, hypot-extent raster bounds, full-frame f64 blur
// accumulation, per-pixel illumination closure (noise-free scenes
// only).
// ---------------------------------------------------------------------------

const BG_MARGIN: u32 = 32;

struct OldRenderer<'a> {
    scene: &'a Scene,
    bg: RgbFrame,
}

impl<'a> OldRenderer<'a> {
    fn new(scene: &'a Scene) -> Self {
        let res = scene.resolution();
        let (bw, bh) = (res.width + 2 * BG_MARGIN, res.height + 2 * BG_MARGIN);
        let mut bg = RgbFrame::new(bw, bh).expect("positive dimensions");
        for y in 0..bh {
            for x in 0..bw {
                let wx = f64::from(x) - f64::from(BG_MARGIN);
                let wy = f64::from(y) - f64::from(BG_MARGIN);
                bg.set(x, y, scene.background().sample(wx, wy));
            }
        }
        OldRenderer { scene, bg }
    }

    fn render_pixels(&self, index: u32) -> RgbFrame {
        let t = f64::from(index);
        let blur = self.scene.effects().exposure_blur;
        let rgb = if blur > 0.0 {
            let taps = [t, t - blur / 2.0, t - blur];
            let mut acc: Vec<[f64; 3]> = vec![[0.0; 3]; self.scene.resolution().pixels() as usize];
            for &tt in &taps {
                let sub = self.render_instant(tt.max(0.0));
                for (a, p) in acc.iter_mut().zip(sub.samples()) {
                    a[0] += f64::from(p.r);
                    a[1] += f64::from(p.g);
                    a[2] += f64::from(p.b);
                }
            }
            let n = taps.len() as f64;
            let mut out = RgbFrame::new(
                self.scene.resolution().width,
                self.scene.resolution().height,
            )
            .expect("positive resolution");
            for (dst, a) in out.samples_mut().iter_mut().zip(&acc) {
                *dst = Rgb::new(
                    (a[0] / n).round() as u8,
                    (a[1] / n).round() as u8,
                    (a[2] / n).round() as u8,
                );
            }
            out
        } else {
            self.render_instant(t)
        };
        self.apply_illumination(rgb, index)
    }

    fn render_instant(&self, t: f64) -> RgbFrame {
        let res = self.scene.resolution();
        let shake = self.scene.effects().shake(t);
        let mut frame = RgbFrame::new(res.width, res.height).expect("positive resolution");
        let ox = (-shake.x).clamp(-f64::from(BG_MARGIN), f64::from(BG_MARGIN));
        let oy = (-shake.y).clamp(-f64::from(BG_MARGIN), f64::from(BG_MARGIN));
        for y in 0..res.height {
            for x in 0..res.width {
                let sx = (f64::from(x) + ox + f64::from(BG_MARGIN)).round() as i64;
                let sy = (f64::from(y) + oy + f64::from(BG_MARGIN)).round() as i64;
                frame.set(x, y, self.bg.at_clamped(sx, sy));
            }
        }
        let mut order: Vec<&SceneObject> = self
            .scene
            .objects()
            .iter()
            .filter(|o| o.active_at(t))
            .collect();
        order.sort_by_key(|o| o.z);
        for obj in order {
            self.draw_object(&mut frame, obj, t, shake);
        }
        frame
    }

    fn draw_object(&self, frame: &mut RgbFrame, obj: &SceneObject, t: f64, shake: Vec2f) {
        let res = self.scene.resolution();
        let c = obj.trajectory.position(t) + shake;
        let s = obj.scale.at(t).max(0.01);
        let theta = obj.rotation.at(t);
        let aspect = obj.aspect.at(t).clamp(0.05, 1.0);
        let (sw, sh) = (obj.sprite.width * s * aspect, obj.sprite.height * s);
        let (cos_t, sin_t) = (theta.cos(), theta.sin());
        for part in &obj.sprite.parts {
            let off = part.offset_at(t);
            let pc_local = Vec2f::new(off.x * sw, off.y * sh);
            let pcx = c.x + pc_local.x * cos_t - pc_local.y * sin_t;
            let pcy = c.y + pc_local.x * sin_t + pc_local.y * cos_t;
            let half = Vec2f::new(
                (part.size.x * sw / 2.0).max(0.5),
                (part.size.y * sh / 2.0).max(0.5),
            );
            // The old conservative bounds: circumscribed-circle radius.
            let ext = half.x.hypot(half.y);
            let x0 = ((pcx - ext).floor().max(0.0)) as u32;
            let y0 = ((pcy - ext).floor().max(0.0)) as u32;
            let x1 = ((pcx + ext).ceil().min(f64::from(res.width) - 1.0)).max(0.0) as u32;
            let y1 = ((pcy + ext).ceil().min(f64::from(res.height) - 1.0)).max(0.0) as u32;
            if x0 > x1 || y0 > y1 {
                continue;
            }
            for py in y0..=y1 {
                for px in x0..=x1 {
                    let dx = f64::from(px) + 0.5 - pcx;
                    let dy = f64::from(py) + 0.5 - pcy;
                    let lx = dx * cos_t + dy * sin_t;
                    let ly = -dx * sin_t + dy * cos_t;
                    let u = lx / half.x;
                    let v = ly / half.y;
                    let inside = match part.shape {
                        Shape::Rectangle => u.abs() <= 1.0 && v.abs() <= 1.0,
                        Shape::Ellipse => u * u + v * v <= 1.0,
                    };
                    if inside {
                        frame.set(px, py, part.texture.sample(lx, ly));
                    }
                }
            }
        }
    }

    fn apply_illumination(&self, mut frame: RgbFrame, index: u32) -> RgbFrame {
        let gain = self
            .scene
            .effects()
            .illumination
            .at(f64::from(index))
            .max(0.0);
        if (gain - 1.0).abs() <= 1e-9 {
            return frame;
        }
        let apply = |v: u8| (f64::from(v) * gain).round().clamp(0.0, 255.0) as u8;
        for px in frame.samples_mut() {
            *px = Rgb::new(apply(px.r), apply(px.g), apply(px.b));
        }
        frame
    }
}

/// The old float RGB→luma conversion (the pre-refactor `Rgb::luma`
/// applied per pixel into a fresh plane) — the conversion the old
/// frame-preparation path ran on every frame.
fn old_luma(rgb: &RgbFrame) -> LumaFrame {
    let mut out = LumaFrame::new(rgb.width(), rgb.height()).expect("non-empty source");
    for (dst, src) in out.samples_mut().iter_mut().zip(rgb.samples()) {
        let y = 0.299 * f64::from(src.r) + 0.587 * f64::from(src.g) + 0.114 * f64::from(src.b);
        *dst = y.round().clamp(0.0, 255.0) as u8;
    }
    out
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

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

fn combos() -> Vec<(&'static str, SceneEffects)> {
    let base = SceneEffects {
        pixel_noise_sigma: 0.0,
        ..SceneEffects::default()
    };
    vec![
        ("plain", base.clone()),
        (
            "blur",
            SceneEffects {
                exposure_blur: 0.8,
                ..base.clone()
            },
        ),
        (
            "shake",
            SceneEffects {
                shake_amplitude: 5.0,
                ..base.clone()
            },
        ),
        (
            "blur+shake",
            SceneEffects {
                exposure_blur: 0.8,
                shake_amplitude: 5.0,
                ..base.clone()
            },
        ),
        (
            "gain",
            SceneEffects {
                illumination: Profile::Oscillate {
                    base: 1.0,
                    amplitude: 0.4,
                    period: 20.0,
                    phase: 0.0,
                },
                ..base
            },
        ),
    ]
}

const FRAMES: u32 = 8;

/// Old path: render + float luma per frame (the shape of the old
/// `frame_source` fast path minus block matching).
fn old_prepare_frames(r: &OldRenderer, frames: u32) -> u64 {
    let mut sum = 0u64;
    for i in 0..frames {
        let rgb = r.render_pixels(i);
        let luma = old_luma(&rgb);
        sum += u64::from(luma.at(0, 0));
    }
    sum
}

/// New path: fused render-to-luma into a reused plane.
fn new_prepare_frames(
    r: &mut euphrates_camera::scene::Renderer,
    luma: &mut LumaFrame,
    frames: u32,
) -> u64 {
    let mut sum = 0u64;
    for i in 0..frames {
        r.render_luma_into(i, luma);
        sum += u64::from(luma.at(0, 0));
    }
    sum
}

fn bench_scanline_matrix(c: &mut Criterion) {
    euphrates_bench::announce(
        "ablation: scanline renderer vs pre-refactor per-pixel path",
        "frame-production hot path (motivation for §5.2's 60 FPS budget)",
    );

    let mut old_ms: Vec<f64> = Vec::new();
    let mut new_ms: Vec<f64> = Vec::new();

    for (name, effects) in combos() {
        let scene = vga_scene(effects);
        let old = OldRenderer::new(&scene);
        let mut new = scene.renderer();

        // Bit-identity before timing anything (pixels and luma).
        let mut luma = LumaFrame::new(scene.resolution().width, scene.resolution().height)
            .expect("positive resolution");
        for i in [0u32, 3, 9] {
            let a = old.render_pixels(i);
            let b = new.render_pixels(i);
            assert_eq!(a, b, "{name}: pixels diverge at frame {i}");
            new.render_luma_into(i, &mut luma);
            assert_eq!(
                luma,
                old_luma(&a),
                "{name}: fused luma diverges at frame {i}"
            );
            new.recycle(b);
        }

        let group_name = format!("render_vga_{name}");
        let mut g = c.benchmark_group(&group_name);
        g.sample_size(3);
        g.bench_function("old_per_pixel", |b| {
            b.iter(|| black_box(old_prepare_frames(&old, 2)))
        });
        g.bench_function("new_scanline", |b| {
            b.iter(|| black_box(new_prepare_frames(&mut new, &mut luma, 2)))
        });
        g.finish();

        // Headline numbers: median of three timed passes per path over
        // FRAMES frames each (robust against scheduler hiccups on the
        // shared 1-core container).
        let median_ms_per_frame = |mut pass: Box<dyn FnMut() + '_>| -> f64 {
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
        let o = median_ms_per_frame(Box::new(|| {
            black_box(old_prepare_frames(&old, FRAMES));
        }));
        let n = median_ms_per_frame(Box::new(|| {
            black_box(new_prepare_frames(&mut new, &mut luma, FRAMES));
        }));
        println!(
            "frame preparation ({name:<10}): old {o:7.2} ms/frame  new {n:7.2} ms/frame  -> {:.1}x (bit-identical)",
            o / n
        );
        old_ms.push(o);
        new_ms.push(n);
    }

    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let (o, n) = (mean(&old_ms), mean(&new_ms));
    println!(
        "VGA frame preparation, deterministic effects matrix: old {o:.2} ms/frame vs new {n:.2} ms/frame -> {:.1}x",
        o / n
    );
    assert!(
        o / n >= 5.0,
        "scanline renderer must be >=5x the reconstructed old path (got {:.2}x)",
        o / n
    );
}

/// End-to-end `prepare_sequence` shape: the old path (old renderer +
/// float luma + block matching) against the new streaming
/// `frame_source` on the same sequence.
fn bench_prepare_sequence(c: &mut Criterion) {
    let mut suite = euphrates_datasets::otb100_like(42, DatasetScale::fraction(0.05));
    suite.truncate(1);
    let mut seq = suite.pop().expect("non-empty suite");
    seq.frames = 10;
    // The dataset default carries pixel noise, which the old
    // reconstruction does not model; time the deterministic rendering
    // path the refactor targets by rebuilding the scene without it.
    let mut effects = seq.scene.effects().clone();
    effects.pixel_noise_sigma = 0.0;
    let mut builder = SceneBuilder::new(seq.scene.resolution(), seq.scene.seed())
        .background(seq.scene.background().clone())
        .effects(effects);
    for obj in seq.scene.objects() {
        builder = builder.object(obj.clone());
    }
    seq.scene = builder.build();
    let config = MotionConfig::default();

    let old_path = |seq: &Sequence| -> usize {
        let old = OldRenderer::new(&seq.scene);
        let matcher =
            BlockMatcher::new(config.mb_size, config.search_range, config.strategy).unwrap();
        let mut prev: Option<LumaFrame> = None;
        let mut frames = Vec::new();
        for i in 0..seq.frames {
            let rgb = old.render_pixels(i);
            let luma = old_luma(&rgb);
            let motion = match &prev {
                Some(p) => matcher.estimate(&luma, p).unwrap(),
                None => MotionField::zeroed(seq.resolution(), config.mb_size, config.search_range)
                    .unwrap(),
            };
            prev = Some(luma);
            frames.push(FrameData::new(seq.ground_truth(i), motion));
        }
        frames.len()
    };
    let new_path = |seq: &Sequence| -> usize {
        let mut n = 0;
        for frame in frame_source(seq, &config).unwrap() {
            frame.unwrap();
            n += 1;
        }
        n
    };

    let mut g = c.benchmark_group("prepare_sequence_vga");
    g.sample_size(3);
    g.bench_function("old_renderer_plus_rgb_to_luma", |b| {
        b.iter(|| black_box(old_path(&seq)))
    });
    g.bench_function("new_frame_source_fused", |b| {
        b.iter(|| black_box(new_path(&seq)))
    });
    g.finish();

    let t0 = Instant::now();
    black_box(old_path(&seq));
    let old_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    black_box(new_path(&seq));
    let new_s = t1.elapsed().as_secs_f64();
    println!(
        "prepare_sequence (VGA x {} frames, TSS): old {:.1} ms vs new streaming {:.1} ms -> {:.1}x",
        seq.frames,
        old_s * 1e3,
        new_s * 1e3,
        old_s / new_s
    );
}

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

/// The PR-7 lane-hash batch against the PR-5/6 direct-table path it
/// replaced, at kernel level: both walk the same σ=2 `QuantGauss`
/// table under the same frame key over the same rendered VGA pixels,
/// but the old path pays one `counter_hash` per *sample* (24 hashes
/// per 8-pixel chunk, then a scratch row + per-pixel `.luma()`), while
/// the new `FastGaussian::luma_row` draws the whole chunk through the
/// windowed Weyl-lane batch (6–7 hashes) and collapses an L1 tile with
/// `rgb_to_luma_row`. Kernel-vs-kernel in one process, so the ratio is
/// far more stable than absolute wall-clock on the shared container.
///
/// Asserted: bit-identical luma for the full frame, and the lane-hash
/// path ≥1.5× the direct-table path (measured ~2×).
fn bench_lane_hash_noise(_c: &mut Criterion) {
    use euphrates_camera::noise::FastGaussian;
    use euphrates_common::rngx::QuantGauss;

    euphrates_bench::announce(
        "ablation: windowed lane-hash noise batch vs per-sample direct table",
        "sigma=2 noise stage of the fused-luma hot path",
    );

    // Realistic pixel content: a clean rendered VGA frame.
    let scene = vga_scene(SceneEffects {
        pixel_noise_sigma: 0.0,
        ..SceneEffects::default()
    });
    let rgb = scene.renderer().render_pixels(2);
    let (w, h) = (rgb.width() as usize, rgb.height() as usize);
    let (base, stream, frame, sigma) = (42u64, 0xF00Du64, 2u32, 2.0f64);

    // PR-5/6 shape: per-sample table walk + scratch row + per-pixel luma.
    let q = QuantGauss::new(sigma);
    let key = euphrates_common::rngx::derive_seed(base, stream, u64::from(frame));
    let add_clamp = |v: u8, n: i16| (i16::from(v) + n).clamp(0, 255) as u8;
    let mut scratch = vec![Rgb::gray(0); w];
    let mut old_pass = |out: &mut [u8]| {
        for (y, (src, dst)) in rgb
            .samples()
            .chunks_exact(w)
            .zip(out.chunks_exact_mut(w))
            .enumerate()
        {
            let mut base3 = (y * w) as u64 * 3;
            for (d, p) in scratch.iter_mut().zip(src) {
                *d = Rgb::new(
                    add_clamp(p.r, q.sample_at(key, base3)),
                    add_clamp(p.g, q.sample_at(key, base3 + 1)),
                    add_clamp(p.b, q.sample_at(key, base3 + 2)),
                );
                base3 += 3;
            }
            for (d, p) in dst.iter_mut().zip(scratch.iter()) {
                *d = p.luma();
            }
        }
    };

    // PR-7 shape: the shipped model's fused luma row.
    let mut m = FastGaussian::new();
    m.begin_frame(base, stream, frame, 1.0, sigma);
    let new_pass = |m: &FastGaussian, out: &mut [u8]| {
        for (y, (src, dst)) in rgb
            .samples()
            .chunks_exact(w)
            .zip(out.chunks_exact_mut(w))
            .enumerate()
        {
            m.luma_row((y * w) as u64, src, dst);
        }
    };

    // Bit-identity before timing.
    let mut old_out = vec![0u8; w * h];
    let mut new_out = vec![0u8; w * h];
    old_pass(&mut old_out);
    new_pass(&m, &mut new_out);
    assert_eq!(
        old_out, new_out,
        "lane batch must replay the canonical stream"
    );

    let median_ms = |mut pass: Box<dyn FnMut() + '_>| -> f64 {
        pass(); // warm-up
        let mut samples: Vec<f64> = (0..5)
            .map(|_| {
                let t0 = Instant::now();
                for _ in 0..4 {
                    pass();
                }
                t0.elapsed().as_secs_f64() * 1e3 / 4.0
            })
            .collect();
        samples.sort_by(f64::total_cmp);
        samples[2]
    };
    let o = median_ms(Box::new(|| {
        old_pass(&mut old_out);
        black_box(old_out[0]);
    }));
    let n = median_ms(Box::new(|| {
        new_pass(&m, &mut new_out);
        black_box(new_out[0]);
    }));
    println!(
        "noise kernel sigma=2 VGA: direct-table {o:.2} ms/frame vs lane-hash {n:.2} ms/frame -> {:.2}x (bit-identical)",
        o / n
    );
    assert!(
        o / n >= 1.5,
        "lane-hash fused luma must be >=1.5x the PR-5 direct-table path (got {:.2}x)",
        o / n
    );
}

criterion_group!(
    benches,
    bench_scanline_matrix,
    bench_noise_models,
    bench_lane_hash_noise,
    bench_prepare_sequence
);
criterion_main!(benches);
