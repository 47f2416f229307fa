//! # euphrates-camera
//!
//! The camera frontend substrate: procedural video scenes with exact ground
//! truth, and a Bayer image sensor model.
//!
//! The Euphrates paper evaluates on real video datasets (an in-house
//! detection set, OTB-100, VOT 2014) that are not redistributable. This
//! crate provides their synthetic stand-in: parametric scenes — textured
//! backgrounds, articulated sprites following configurable trajectories,
//! illumination/blur/occlusion effects — rendered to RGB frames along with
//! per-object ground truth (bounding box, visibility, blur, speed). The ISP
//! then runs *real* block-matching motion estimation on these frames, so the
//! motion-extrapolation experiments exercise the genuine algorithm code
//! path end to end.
//!
//! The [`sensor::ImageSensor`] models an AR1335-class mobile sensor's
//! functional readout: RGGB Bayer mosaic with read noise. Its power and
//! CSI traffic are charged by the SoC energy model (§5.1 of the paper),
//! not here.
//!
//! ## Example
//!
//! ```
//! use euphrates_camera::scene::SceneBuilder;
//! use euphrates_common::image::Resolution;
//!
//! let scene = SceneBuilder::new(Resolution::new(160, 120), 42)
//!     .object_default()
//!     .build();
//! let mut renderer = scene.renderer();
//! let frame = renderer.render(0);
//! assert_eq!(frame.rgb.width(), 160);
//! assert_eq!(frame.truth.len(), 1);
//! ```
//!
//! ## Performance notes
//!
//! [`scene::Renderer`] is a *scanline* renderer: frame production is
//! row-granular data movement over a cached background canvas, not
//! per-pixel recomputation. The moving parts, and how each preserves
//! bit-identical output:
//!
//! * **Background blit** — one `memcpy` per row at an integer offset.
//!   Provably equal to the old per-pixel `round` (`round(x + c) =
//!   x + round(c)` for integer `x` away from half-pixel boundaries; a
//!   guard routes the degenerate near-`.5` case to the exact per-pixel
//!   path).
//! * **Dirty-rect reuse** — between frames only the rectangles objects
//!   touched (or a shake-induced offset change) are restored from the
//!   canvas. Pure data movement, provably identical.
//! * **Span rasterization** — object parts draw by row spans solved
//!   from the inverse rotation with *tight* rotated extents; the
//!   per-pixel inside test and texture arithmetic are unchanged, spans
//!   are conservative (widened by one pixel), so drawn pixels are
//!   decided by the identical expressions.
//! * **Motion blur** — sub-exposures accumulate in `u16` (3 × 255
//!   fits; integer sums are exact in both the old `f64` and the new
//!   representation) and only object regions are re-rendered per tap.
//!   When shake moves the blit offset between taps, the three-tap
//!   background average is served from a small cache of *averaged
//!   canvases* keyed on the taps' relative offsets (a pure function of
//!   them, so entries never go stale): clean scanlines are one row
//!   blit — and one luma-plane blit on the fused-luma path — instead
//!   of a three-tap sum, which took `blur_shake` luma from ~2.3 to
//!   ~1.2 ms/frame. The rounded average is a 766-entry table of the
//!   old expression either way.
//! * **Illumination** — a 256-entry LUT of the old per-channel gain
//!   expression when pixel noise is off; with noise on, gain folds into
//!   the noise model's row application.
//! * **Sensor noise** — pixel noise and the sensor's read noise are
//!   both realized by [`noise::FastGaussian`], a counter-based model:
//!   sample `i` of frame `k` is `hash(seed, k, i)` indexing a σ-scaled
//!   table of pre-rounded integer offsets, so application is an `i16`
//!   add + clamp per channel (~1.0 ms/frame for the σ=2 VGA noise
//!   stage). Rows are order-independent, so the renderer bands them
//!   over worker threads with bit-identical output. The contract is
//!   **statistical** (mean/σ/tails/independence pinned by
//!   `tests/noise_model.rs`) plus recorded determinism digests.
//! * **Fused luma** — [`scene::Renderer::render_luma_into`] composes
//!   gain/noise and the RGB→luma conversion row by row (clean
//!   background pixels blit from a precomputed canvas luma; noisy rows
//!   pass through the noise model into a stack tile), so the streaming
//!   front-end never materializes an RGB frame it would immediately
//!   discard — and never does more work than the unfused RGB + convert
//!   path (`perfbench`'s `--trace 1` ledger times the fused stage as
//!   `camera.render_luma_ms`).
//! * **Shared canvases** — the sampled background canvas (and its
//!   luma) is built once per [`scene::Scene`] and shared by every
//!   renderer of that scene, so re-opening a sequence costs ~0.02 ms.
//!   The one cold sampling a scene ever does generates lattice cells
//!   row-major ([`texture::Texture::fill_row`]): the cell index
//!   advances by comparison instead of per-pixel `floor` calls (libm
//!   on x86-64 baseline), cutting cold construction from ~11.9 to
//!   ~7 ms. Unrotated object parts rasterize through the same
//!   row-walker ([`texture::Texture::row_sampler`]).
//! * **Buffer reuse** — [`scene::Renderer::render_into`],
//!   [`scene::Renderer::render_pixels_into`] and
//!   [`scene::Renderer::render_luma_into`] write into caller-owned
//!   frames, so a stream that keeps its buffers allocates no output
//!   frame per render. Callers that only need pixels should use the
//!   `*_pixels*` calls (they skip the O(objects²) ground-truth
//!   occlusion pass).
//!
//! `tests/golden.rs` pins every effects combination (blur × noise ×
//! shake, plus illumination drift) and the sensor's RAW capture to
//! FNV-1a digests: the noise-free combos against digests recorded from
//! the pre-scanline renderer, the noisy ones against digests recorded
//! from the counter-based model. Against the per-pixel renderer it
//! replaced, the scanline renderer measured ≥5× on the deterministic
//! VGA effects matrix.

pub mod imu;
pub mod noise;
pub mod scene;
pub mod sensor;
pub mod sprite;
pub mod texture;
pub mod trajectory;

pub use imu::{ImuConfig, ImuReading, ImuSensor};
pub use noise::{FastGaussian, NoiseModelKind};
pub use scene::{FrameIter, GtObject, RenderedFrame, Renderer, Scene, SceneBuilder, SceneEffects};
pub use sensor::{ImageSensor, SensorConfig};
