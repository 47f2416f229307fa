//! Structure-aware property targets over the renderer's *effect
//! matrix* (ROADMAP item 5 slice): instead of hand-picked golden
//! combos, these sample the full cross product of scene effects —
//! illumination ramps × shake × exposure blur × pixel noise × seeds ×
//! sprite archetypes — and pin the contracts every
//! hot-path rewrite in this area must preserve:
//!
//! 1. **Construction determinism** — two scenes built from the same
//!    configuration render bit-identical frames and ground truth. This
//!    is the property that keeps the process-wide canvas memo honest:
//!    a key collision or a leaked entry would surface here as a pixel
//!    diff on some sampled seed.
//! 2. **Incremental invisibility** — `Scene::frames(0..n)` (the
//!    streaming iterator with its dirty-rect blur accumulators) must
//!    bit-match a fresh `renderer().render(i)` at its final frame for
//!    arbitrary effect combos, not just the golden three.
//! 3. **Fused-luma equivalence** — `render_luma_into` must equal
//!    `rgb_to_luma(render(i).rgb)` under every sampled combo.
//!
//! Cases are deliberately small (96×72, ≤6 frames) so the whole matrix
//! sweep stays in test-suite budget.

use euphrates_camera::scene::{Scene, SceneBuilder, SceneEffects, SceneObject};
use euphrates_camera::sprite::{Shape, Sprite};
use euphrates_camera::texture::Texture;
use euphrates_camera::trajectory::{Profile, Trajectory};
use euphrates_common::geom::Vec2f;
use euphrates_common::image::{rgb_to_luma, LumaFrame, Resolution, Rgb};
use proptest::prelude::*;

const RES: Resolution = Resolution::new(96, 72);

/// One sampled point of the effect matrix, reconstructible on demand so
/// the determinism property can build the *same* scene twice.
#[derive(Debug, Clone, Copy)]
struct MatrixPoint {
    seed: u64,
    archetype: usize,
    illum_slope: f64,
    shake_amplitude: f64,
    exposure_blur: f64,
    pixel_noise_sigma: f64,
}

fn effects_of(p: MatrixPoint) -> SceneEffects {
    SceneEffects {
        illumination: Profile::Ramp {
            base: 1.0,
            slope: p.illum_slope,
        },
        shake_amplitude: p.shake_amplitude,
        shake_period: 24.0,
        exposure_blur: p.exposure_blur,
        pixel_noise_sigma: p.pixel_noise_sigma,
        ..SceneEffects::default()
    }
}

/// Three structurally different targets: rigid drift, deforming walker,
/// rotating checker patch — the archetypes the golden suite uses, here
/// crossed with randomized effects.
fn scene_of(p: MatrixPoint) -> Scene {
    let sprite = match p.archetype % 3 {
        0 => Sprite::rigid(
            26.0,
            20.0,
            Shape::Rectangle,
            Texture::object_noise(p.seed ^ 0x5a),
        ),
        1 => Sprite::walker(18.0, 34.0, 4),
        _ => Sprite::rigid(
            22.0,
            22.0,
            Shape::Ellipse,
            Texture::Checker {
                a: Rgb::new(200, 40, 40),
                b: Rgb::new(40, 40, 200),
                cell: 5.0,
            },
        ),
    };
    SceneBuilder::new(RES, p.seed)
        .effects(effects_of(p))
        .object(SceneObject {
            id: 0,
            label: 1,
            sprite,
            trajectory: Trajectory::Linear {
                start: Vec2f::new(30.0, 28.0),
                velocity: Vec2f::new(1.3, 0.7),
            },
            scale: Profile::one(),
            rotation: Profile::Ramp {
                base: 0.0,
                slope: 0.05,
            },
            aspect: Profile::one(),
            z: 1,
            enter_frame: 0.0,
            exit_frame: f64::INFINITY,
            tracked: true,
        })
        .build()
}

fn point(
    seed: u64,
    archetype: usize,
    illum_slope: f64,
    shake_amplitude: f64,
    blur_q: usize,
    sigma_q: usize,
) -> MatrixPoint {
    MatrixPoint {
        seed,
        archetype,
        illum_slope,
        shake_amplitude,
        // Quantized so blur-off/noise-off rows of the matrix are
        // actually sampled (a continuous range almost never hits 0.0).
        exposure_blur: [0.0, 0.75, 1.5, 2.5][blur_q % 4],
        pixel_noise_sigma: [0.0, 1.0, 2.0, 5.0][sigma_q % 4],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property 1: scene construction is a pure function of its
    /// configuration — and therefore safe to memoize behind the scenes.
    #[test]
    fn equal_configs_render_identically(
        seed in 0u64..1_000_000,
        archetype in 0usize..3,
        illum_slope in -0.01f64..0.01,
        shake_amplitude in 0.0f64..3.0,
        blur_q in 0usize..4,
        sigma_q in 0usize..4,
        frame in 0u32..6,
    ) {
        let p = point(seed, archetype, illum_slope, shake_amplitude, blur_q, sigma_q);
        let (a, b) = (scene_of(p), scene_of(p));
        let fa = a.renderer().render(frame);
        let fb = b.renderer().render(frame);
        prop_assert_eq!(&fa.rgb, &fb.rgb, "{:?}", p);
        prop_assert_eq!(&fa.truth, &fb.truth, "{:?}", p);
    }

    /// Property 2: the streaming iterator's incremental compose state
    /// (dirty-rect blur accumulation, cached canvases) is invisible —
    /// its last frame equals a fresh render at that index.
    #[test]
    fn streaming_matches_fresh_render(
        seed in 0u64..1_000_000,
        archetype in 0usize..3,
        illum_slope in -0.01f64..0.01,
        shake_amplitude in 0.0f64..3.0,
        blur_q in 0usize..4,
        sigma_q in 0usize..4,
        frames in 2u32..6,
    ) {
        let p = point(seed, archetype, illum_slope, shake_amplitude, blur_q, sigma_q);
        let scene = scene_of(p);
        let last = scene
            .frames(0..frames)
            .last()
            .expect("non-empty frame range");
        let fresh = scene.renderer().render(frames - 1);
        prop_assert_eq!(&last.rgb, &fresh.rgb, "{:?}", p);
        prop_assert_eq!(&last.truth, &fresh.truth, "{:?}", p);
    }

    /// Property 3: the fused luma path equals RGB render + conversion
    /// on every sampled effect combo.
    #[test]
    fn fused_luma_matches_rgb_conversion(
        seed in 0u64..1_000_000,
        archetype in 0usize..3,
        illum_slope in -0.01f64..0.01,
        shake_amplitude in 0.0f64..3.0,
        blur_q in 0usize..4,
        sigma_q in 0usize..4,
        frame in 0u32..6,
    ) {
        let p = point(seed, archetype, illum_slope, shake_amplitude, blur_q, sigma_q);
        let scene = scene_of(p);
        let mut luma = LumaFrame::new(RES.width, RES.height).unwrap();
        let truth = scene.renderer().render_luma_into(frame, &mut luma);
        let rendered = scene.renderer().render(frame);
        prop_assert_eq!(&luma, &rgb_to_luma(&rendered.rgb), "{:?}", p);
        prop_assert_eq!(&truth, &rendered.truth, "{:?}", p);
    }
}
