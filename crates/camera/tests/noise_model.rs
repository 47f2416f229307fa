//! The correctness contract of the counter-based `FastGaussian` noise
//! model:
//!
//! * **statistical** — rendered noise has the configured mean/σ, sane
//!   tails, and no correlation across channels, pixels, or frames
//!   (tests here);
//! * **deterministic** — `hash(seed, frame, pixel)` is a pure function,
//!   so the same sample appears regardless of render order or row
//!   chunking (tests here and the recorded `FAST_PIXEL_GOLDEN` digests
//!   in `tests/golden.rs`).

use euphrates_camera::noise::FastGaussian;
use euphrates_camera::scene::{SceneBuilder, SceneEffects};
use euphrates_camera::sensor::{ImageSensor, SensorConfig};
use euphrates_camera::texture::Texture;
use euphrates_common::image::{LumaFrame, Resolution, Rgb, RgbFrame};

const RES: Resolution = Resolution::new(160, 120);
const MID: u8 = 128;

/// A flat mid-gray scene: every deviation from 128 in a rendered frame
/// *is* the noise.
fn flat_scene(sigma: f64) -> euphrates_camera::scene::Scene {
    SceneBuilder::new(RES, 77)
        .background(Texture::flat_gray())
        .effects(SceneEffects {
            pixel_noise_sigma: sigma,
            ..SceneEffects::default()
        })
        .build()
}

/// Per-channel noise deltas of `frames` rendered frames.
fn noise_deltas(sigma: f64, frames: u32) -> Vec<[f64; 3]> {
    let scene = flat_scene(sigma);
    let mut r = scene.renderer();
    let mut out = Vec::new();
    for i in 0..frames {
        let f = r.render_pixels(i);
        for px in f.samples() {
            out.push([
                f64::from(px.r) - f64::from(MID),
                f64::from(px.g) - f64::from(MID),
                f64::from(px.b) - f64::from(MID),
            ]);
        }
    }
    out
}

fn mean(xs: impl Iterator<Item = f64> + Clone) -> f64 {
    let n = xs.clone().count() as f64;
    xs.sum::<f64>() / n
}

fn correlation(a: &[f64], b: &[f64]) -> f64 {
    let (ma, mb) = (mean(a.iter().copied()), mean(b.iter().copied()));
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (x, y) in a.iter().zip(b) {
        cov += (x - ma) * (y - mb);
        va += (x - ma) * (x - ma);
        vb += (y - mb) * (y - mb);
    }
    cov / (va.sqrt() * vb.sqrt())
}

#[test]
fn rendered_noise_has_the_configured_moments() {
    let sigma = 2.0;
    let deltas = noise_deltas(sigma, 4); // 4 × 19200 px × 3 = 230k samples
    let all: Vec<f64> = deltas.iter().flatten().copied().collect();
    let n = all.len() as f64;
    let m = all.iter().sum::<f64>() / n;
    let var = all.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / n;
    // Integer quantization adds ~1/12 to σ²; the ±3.66σ table
    // truncation removes ~0.3%.
    let expected_var = sigma * sigma + 1.0 / 12.0;
    assert!(m.abs() < 0.02, "mean {m}");
    assert!(
        (var / expected_var - 1.0).abs() < 0.03,
        "var {var}, expected ≈ {expected_var}"
    );
    // Integer-domain tails: |v| ≥ 4 means the continuous sample crossed
    // 3.5 = 1.75σ, so the reference mass is 2Φ(−1.75) ≈ 0.0801.
    let tail = all.iter().filter(|v| v.abs() >= 2.0 * sigma).count() as f64 / n;
    assert!((tail - 0.0801).abs() < 0.01, "2σ tail {tail}");
    // And noise actually perturbs most samples: P(v ≠ 0) ≈ 1 − P(|X| < 0.5) ≈ 0.80.
    let nonzero = all.iter().filter(|v| **v != 0.0).count() as f64 / n;
    assert!((nonzero - 0.80).abs() < 0.03, "nonzero fraction {nonzero}");
}

#[test]
fn channels_pixels_and_frames_are_uncorrelated() {
    let deltas = noise_deltas(2.0, 2);
    let per_frame = deltas.len() / 2;
    let r: Vec<f64> = deltas.iter().map(|d| d[0]).collect();
    let g: Vec<f64> = deltas.iter().map(|d| d[1]).collect();
    let b: Vec<f64> = deltas.iter().map(|d| d[2]).collect();
    // Across channels at the same pixel (the three 21-bit lanes of one
    // hash must act independent)…
    for (name, x, y) in [("r/g", &r, &g), ("r/b", &r, &b), ("g/b", &g, &b)] {
        let rho = correlation(&x[..per_frame], &y[..per_frame]);
        assert!(rho.abs() < 0.02, "channel correlation {name}: {rho}");
    }
    // …across frames at the same pixel (frame keys decorrelate)…
    for (name, c) in [("r", &r), ("g", &g), ("b", &b)] {
        let rho = correlation(&c[..per_frame], &c[per_frame..]);
        assert!(rho.abs() < 0.02, "frame correlation {name}: {rho}");
    }
    // …and between adjacent pixels within a frame (counter increments
    // decorrelate).
    let rho = correlation(&r[..per_frame - 1], &r[1..per_frame]);
    assert!(rho.abs() < 0.02, "adjacent-pixel correlation: {rho}");
}

#[test]
fn fast_rgb_rows_are_chunk_invariant() {
    // Same seed+frame+pixel → same sample, however the row is split:
    // the property that licenses row-parallel application.
    let src: Vec<Rgb> = (0..97)
        .map(|i| {
            Rgb::new(
                (i * 7 % 256) as u8,
                (i * 13 % 256) as u8,
                (i * 29 % 256) as u8,
            )
        })
        .collect();
    let mut m = FastGaussian::new();
    m.begin_frame(42, 0xF00D, 6, 1.0, 2.0);
    let mut whole = vec![Rgb::gray(0); src.len()];
    m.rgb_row(500, &src, &mut whole);
    for split in [1usize, 3, 48, 96] {
        let mut parts = vec![Rgb::gray(0); src.len()];
        // Apply the tail first — order must not matter either.
        m.rgb_row(500 + split as u64, &src[split..], &mut parts[split..]);
        m.rgb_row(500, &src[..split], &mut parts[..split]);
        assert_eq!(parts, whole, "split at {split}");
    }
}

#[test]
fn fast_renders_are_independent_of_render_order() {
    // Renderer-level determinism: any visit order produces the frames a
    // fresh renderer produces (the noise model holds no cross-frame
    // state). Complements the golden digests, which pin one order.
    let scene = flat_scene(2.0);
    let mut warm = scene.renderer();
    for &i in &[9u32, 2, 9, 0, 5, 2] {
        let a = warm.render_pixels(i);
        let b = scene.renderer().render_pixels(i);
        assert_eq!(a, b, "frame {i}");
    }
}

#[test]
fn noise_pass_is_bit_identical_at_any_thread_count() {
    // Banding the noise finalize pass (and the fused luma variant) over
    // worker threads must change nothing: every output equals the
    // sequential threads=1 render, which is what the golden digests in
    // `tests/golden.rs` pin.
    let scene = flat_scene(2.0);
    for frame in [0u32, 3] {
        let mut r1 = scene.renderer();
        r1.set_noise_threads(1);
        let rgb1 = r1.render_pixels(frame);
        let mut luma1 = LumaFrame::new(RES.width, RES.height).unwrap();
        r1.render_luma_pixels_into(frame, &mut luma1);
        for threads in [2usize, 4, 8] {
            let mut rn = scene.renderer();
            rn.set_noise_threads(threads);
            let rgbn = rn.render_pixels(frame);
            assert_eq!(rgbn, rgb1, "rgb frame {frame} at {threads} threads");
            let mut luman = LumaFrame::new(RES.width, RES.height).unwrap();
            rn.render_luma_pixels_into(frame, &mut luman);
            assert_eq!(luman, luma1, "luma frame {frame} at {threads} threads");
        }
    }
}

#[test]
fn sensor_read_noise_meets_the_contract() {
    // Sensor read noise: deterministic per frame, perturbs the mosaic,
    // differs across frames, with the configured moments.
    let config = SensorConfig {
        resolution: RES,
        read_noise_sigma: 1.5,
        ..SensorConfig::default()
    };
    let sensor = ImageSensor::new(config, 9);
    let mut rgb = RgbFrame::new(RES.width, RES.height).unwrap();
    for px in rgb.samples_mut() {
        *px = Rgb::gray(MID);
    }
    let a = sensor.capture(&rgb, 3).unwrap();
    let b = sensor.capture(&rgb, 3).unwrap();
    let c = sensor.capture(&rgb, 4).unwrap();
    assert_eq!(a, b);
    assert_ne!(a, c);
    let n = a.len() as f64;
    let m = a
        .samples()
        .iter()
        .map(|&v| f64::from(v) - f64::from(MID))
        .sum::<f64>()
        / n;
    let var = a
        .samples()
        .iter()
        .map(|&v| {
            let d = f64::from(v) - f64::from(MID) - m;
            d * d
        })
        .sum::<f64>()
        / n;
    assert!(m.abs() < 0.05, "sensor noise mean {m}");
    assert!(
        (var / (1.5 * 1.5 + 1.0 / 12.0) - 1.0).abs() < 0.05,
        "sensor noise var {var}"
    );
}
