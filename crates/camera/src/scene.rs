//! Scene composition and rendering.
//!
//! A [`Scene`] is a deterministic, parametric description of a video clip:
//! a textured background, a set of [`SceneObject`]s with trajectories and
//! animation profiles, and global [`SceneEffects`] (illumination drift,
//! camera shake, motion blur, sensor-independent pixel noise). Rendering
//! frame `k` is a pure function of the scene and `k`, so sequences can be
//! evaluated from any offset and across threads.
//!
//! Every rendered frame carries exact ground truth ([`GtObject`]): bounding
//! box, visibility (occlusion/out-of-view fraction), blur amount, and
//! speed. The functional accuracy oracles in `euphrates-nn` consume these
//! to emulate CNN behaviour; the ISP consumes the pixels to produce real
//! motion vectors.

use crate::noise::{FastGaussian, NoiseModelKind};
use crate::sprite::{Part, Shape, Sprite};
use crate::texture::Texture;
use crate::trajectory::{Profile, Trajectory};
use euphrates_common::geom::{Rect, Vec2f};
use euphrates_common::image::{rgb_to_luma, rgb_to_luma_row, LumaFrame, Resolution, Rgb, RgbFrame};
use euphrates_common::par::{default_threads, parallel_rows};
use std::sync::{Arc, OnceLock};

/// The seed-derivation stream id of the renderer's pixel-noise stage
/// (the sensor's read noise uses its own stream).
pub(crate) const PIXEL_NOISE_STREAM: u64 = 0xF00D;

/// Label id used for objects that occlude targets but are not themselves
/// tracked or detected.
pub const OCCLUDER_LABEL: u32 = u32::MAX;

/// One animated object in a scene.
#[derive(Debug, Clone, PartialEq)]
pub struct SceneObject {
    /// Stable object identity (used by the tracker and ground truth).
    pub id: u32,
    /// Class label (dataset-defined; [`OCCLUDER_LABEL`] for occluders).
    pub label: u32,
    /// Visual appearance.
    pub sprite: Sprite,
    /// Center trajectory.
    pub trajectory: Trajectory,
    /// Scale over time (1.0 = sprite base size).
    pub scale: Profile,
    /// In-plane rotation over time, radians.
    pub rotation: Profile,
    /// Out-of-plane rotation modeled as a width squeeze (1.0 = frontal).
    pub aspect: Profile,
    /// Draw order; larger values draw on top.
    pub z: i32,
    /// First frame at which the object exists.
    pub enter_frame: f64,
    /// Frame after which the object disappears (`f64::INFINITY` = never).
    pub exit_frame: f64,
    /// Whether this object appears in ground truth (occluders do not).
    pub tracked: bool,
}

impl SceneObject {
    /// `true` if the object exists at frame `t`.
    pub fn active_at(&self, t: f64) -> bool {
        t >= self.enter_frame && t <= self.exit_frame
    }

    /// World-space bounding box at frame `t` (before frame clipping),
    /// accounting for trajectory, scale, aspect, rotation, and part swing.
    pub fn world_bbox(&self, t: f64, shake: Vec2f) -> Rect {
        let c = self.trajectory.position(t) + shake;
        let s = self.scale.at(t).max(0.01);
        let theta = self.rotation.at(t);
        let aspect = self.aspect.at(t).clamp(0.05, 1.0);
        let (sw, sh) = (self.sprite.width * s * aspect, self.sprite.height * s);
        let (cos_t, sin_t) = (theta.cos(), theta.sin());

        let mut bbox: Option<Rect> = None;
        for part in &self.sprite.parts {
            let off = part.offset_at(t);
            let pc = Vec2f::new(off.x * sw, off.y * sh);
            let half = Vec2f::new(part.size.x * sw / 2.0, part.size.y * sh / 2.0);
            // Corners of the rotated part rectangle.
            for (dx, dy) in [(-1.0, -1.0), (1.0, -1.0), (-1.0, 1.0), (1.0, 1.0)] {
                let lx = pc.x + dx * half.x;
                let ly = pc.y + dy * half.y;
                let wx = c.x + lx * cos_t - ly * sin_t;
                let wy = c.y + lx * sin_t + ly * cos_t;
                let pt = Rect::new(wx, wy, 0.0, 0.0);
                bbox = Some(match bbox {
                    None => pt,
                    Some(b) => Rect::from_corners(
                        b.x.min(wx),
                        b.y.min(wy),
                        b.right().max(wx),
                        b.bottom().max(wy),
                    ),
                });
            }
        }
        bbox.unwrap_or_default()
    }
}

/// Global rendering effects.
#[derive(Debug, Clone, PartialEq)]
pub struct SceneEffects {
    /// Illumination gain over time (1.0 = nominal).
    pub illumination: Profile,
    /// Camera shake amplitude in pixels (0 = steady).
    pub shake_amplitude: f64,
    /// Camera shake period in frames.
    pub shake_period: f64,
    /// Exposure time in frames for motion blur (0 = instantaneous shutter).
    pub exposure_blur: f64,
    /// Additive Gaussian pixel-noise sigma applied after rendering.
    pub pixel_noise_sigma: f64,
    /// Selects nothing: [`FastGaussian`] always realizes
    /// `pixel_noise_sigma`. Kept only because the `perfbench/`
    /// benchmark reads it.
    pub noise_model: NoiseModelKind,
}

impl Default for SceneEffects {
    fn default() -> Self {
        SceneEffects {
            illumination: Profile::one(),
            shake_amplitude: 0.0,
            shake_period: 48.0,
            exposure_blur: 0.0,
            pixel_noise_sigma: 2.0,
            noise_model: NoiseModelKind::FastGaussian,
        }
    }
}

impl SceneEffects {
    /// Camera shake offset at frame `t` (smooth, deterministic).
    pub fn shake(&self, t: f64) -> Vec2f {
        if self.shake_amplitude == 0.0 || self.shake_period == 0.0 {
            return Vec2f::ZERO;
        }
        let w = std::f64::consts::TAU * t / self.shake_period;
        Vec2f::new(
            self.shake_amplitude * w.sin(),
            self.shake_amplitude * (w * 0.77 + 1.3).cos(),
        )
    }
}

/// Ground truth for one tracked object in one frame.
#[derive(Debug, Clone, PartialEq)]
pub struct GtObject {
    /// Object identity (stable across frames).
    pub id: u32,
    /// Class label.
    pub label: u32,
    /// Bounding box clipped to the frame; empty if fully out of view.
    pub rect: Rect,
    /// Fraction of the box that is inside the frame and not covered by a
    /// higher-z object, in `[0, 1]`.
    pub visibility: f64,
    /// Motion-blur extent in pixels (exposure × speed).
    pub blur: f64,
    /// Speed in pixels/frame at this instant.
    pub speed: f64,
}

/// A rendered frame: pixels plus ground truth.
#[derive(Debug, Clone)]
pub struct RenderedFrame {
    /// Frame index within the sequence.
    pub index: u32,
    /// RGB pixel data.
    pub rgb: RgbFrame,
    /// Ground truth for all tracked objects active in this frame.
    pub truth: Vec<GtObject>,
}

/// A deterministic, parametric video scene.
#[derive(Debug, Clone)]
pub struct Scene {
    resolution: Resolution,
    seed: u64,
    background: Texture,
    objects: Vec<SceneObject>,
    effects: SceneEffects,
    /// Lazily rendered background canvases, shared by every renderer of
    /// this scene (and of its clones).
    canvas: CanvasCache,
}

/// The scene's sampled background canvas (and its luma), built once and
/// shared: rendering the canvas samples the column-table lattice fill
/// ([`Texture::fill_rect`]) over ~(W+64)·(H+64) pixels (milliseconds
/// at VGA), so renderers of the same scene share the result instead of
/// resampling it per construction. Cloning a [`Scene`] shares the
/// cache; the canvas is immutable once built. Scenes that are *not*
/// clones still share canvases whenever their background parameters
/// coincide, through the process-wide [`canvas_memo`].
#[derive(Debug, Clone, Default)]
struct CanvasCache {
    rgb: OnceLock<Arc<RgbFrame>>,
    luma: OnceLock<Arc<LumaFrame>>,
}

/// A canvas identity: the background texture plus canvas dimensions —
/// everything the sampled pixels are a function of.
type CanvasKey = (Texture, u32, u32);

/// One memoized canvas (see [`canvas_memo`]).
struct CanvasMemoEntry {
    key: CanvasKey,
    rgb: Arc<RgbFrame>,
    /// Derived lazily, shared across scenes like the RGB plane.
    luma: Option<Arc<LumaFrame>>,
}

/// The process-wide canvas memo: evaluation grids and benchmarks
/// construct many distinct [`Scene`] values over the *same* handful of
/// background textures (every scheme re-opens the same sequences), and
/// a sampled canvas is a pure function of its [`CanvasKey`] — so
/// re-sampling one per scene construction is pure waste. A small MRU
/// list (capacity [`CANVAS_MEMO_CAP`], ~1.5 MB per VGA canvas + luma)
/// turns every construction after a sequence's first into an `Arc`
/// clone. Canvases are built *outside* the lock (a concurrent build of
/// the same key wastes one sampling, never blocks others), and
/// eviction only drops the memo's own reference — scenes holding the
/// canvas keep it alive.
fn canvas_memo() -> &'static std::sync::Mutex<Vec<CanvasMemoEntry>> {
    static MEMO: OnceLock<std::sync::Mutex<Vec<CanvasMemoEntry>>> = OnceLock::new();
    MEMO.get_or_init(|| std::sync::Mutex::new(Vec::new()))
}

/// Canvas-memo capacity, in canvases. Eight covers every evaluation
/// fraction the tier-1 suites run (≤ 5 concurrent sequences) with room
/// for ad-hoc scenes, and bounds resident memory at a few megabytes.
const CANVAS_MEMO_CAP: usize = 8;

/// Looks up `key` in the memo, moving a hit to the MRU position.
fn canvas_memo_rgb(key: &CanvasKey) -> Option<Arc<RgbFrame>> {
    let mut memo = canvas_memo().lock().expect("canvas memo poisoned");
    let i = memo.iter().position(|e| &e.key == key)?;
    let entry = memo.remove(i);
    let rgb = entry.rgb.clone();
    memo.push(entry);
    Some(rgb)
}

/// Inserts a freshly sampled canvas, evicting the least recently used
/// entry past capacity. If another thread inserted the same key while
/// this one was sampling, the first insertion wins (so every scene
/// holding the key shares one allocation).
fn canvas_memo_insert(key: CanvasKey, rgb: Arc<RgbFrame>) -> Arc<RgbFrame> {
    let mut memo = canvas_memo().lock().expect("canvas memo poisoned");
    if let Some(e) = memo.iter().find(|e| e.key == key) {
        return e.rgb.clone();
    }
    if memo.len() >= CANVAS_MEMO_CAP {
        memo.remove(0);
    }
    memo.push(CanvasMemoEntry {
        key,
        rgb: rgb.clone(),
        luma: None,
    });
    rgb
}

/// The memoized luma for `key`, deriving and caching it on first use.
/// `rgb` must be the memo's canvas for `key` (or an identical clone of
/// it — the plane is a pure function of the key either way).
fn canvas_memo_luma(key: &CanvasKey, rgb: &RgbFrame) -> Arc<LumaFrame> {
    {
        let memo = canvas_memo().lock().expect("canvas memo poisoned");
        if let Some(l) = memo
            .iter()
            .find(|e| &e.key == key)
            .and_then(|e| e.luma.clone())
        {
            return l;
        }
    }
    let luma = Arc::new(rgb_to_luma(rgb));
    let mut memo = canvas_memo().lock().expect("canvas memo poisoned");
    if let Some(e) = memo.iter_mut().find(|e| &e.key == key) {
        match &e.luma {
            Some(l) => l.clone(),
            None => {
                e.luma = Some(luma.clone());
                luma
            }
        }
    } else {
        luma
    }
}

impl Scene {
    /// Frame resolution.
    pub fn resolution(&self) -> Resolution {
        self.resolution
    }

    /// The scene's objects.
    pub fn objects(&self) -> &[SceneObject] {
        &self.objects
    }

    /// The scene's global effects.
    pub fn effects(&self) -> &SceneEffects {
        &self.effects
    }

    /// The background texture.
    pub fn background(&self) -> &Texture {
        &self.background
    }

    /// The scene seed (used to derive all per-frame noise).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Creates a renderer with a cached background canvas.
    pub fn renderer(&self) -> Renderer<'_> {
        Renderer::new(self)
    }

    /// This scene's [`CanvasKey`]: what the canvas pixels depend on.
    fn canvas_key(&self) -> CanvasKey {
        let res = self.resolution;
        (
            self.background.clone(),
            res.width + 2 * BG_MARGIN,
            res.height + 2 * BG_MARGIN,
        )
    }

    /// The shared background canvas (resolution plus shake margin),
    /// rendered on first use — or adopted from the process-wide
    /// [`canvas_memo`] when an identically parameterized scene already
    /// sampled it.
    fn canvas_rgb(&self) -> Arc<RgbFrame> {
        self.canvas
            .rgb
            .get_or_init(|| {
                let key = self.canvas_key();
                if let Some(hit) = canvas_memo_rgb(&key) {
                    return hit;
                }
                let (bw, bh) = (key.1, key.2);
                let mut bg = RgbFrame::new(bw, bh).expect("background dimensions are positive");
                // Column-table cell generation: per-column texture
                // terms computed once, rows replayed against them —
                // the one full canvas sampling a key ever needs.
                self.background
                    .fill_rect(-f64::from(BG_MARGIN), -f64::from(BG_MARGIN), &mut bg);
                canvas_memo_insert(key, Arc::new(bg))
            })
            .clone()
    }

    /// The luma of [`canvas_rgb`][Scene::canvas_rgb], derived on first
    /// use by the fused clean-luma blit and shared through the memo
    /// like the RGB plane.
    fn canvas_luma(&self) -> Arc<LumaFrame> {
        self.canvas
            .luma
            .get_or_init(|| canvas_memo_luma(&self.canvas_key(), &self.canvas_rgb()))
            .clone()
    }

    /// Lazily renders frames `range`, one per `next()` call, borrowing
    /// the scene (no clone) and sharing one cached background canvas —
    /// the streaming front-end's way to consume a scene in O(1 frame) of
    /// memory.
    pub fn frames(&self, range: std::ops::Range<u32>) -> FrameIter<'_> {
        FrameIter {
            renderer: self.renderer(),
            next: range.start,
            end: range.end,
        }
    }

    /// Computes ground truth at frame `t` without rendering pixels
    /// (cheap; used by oracles and dataset statistics).
    pub fn ground_truth(&self, frame: u32) -> Vec<GtObject> {
        let t = f64::from(frame);
        let shake = self.effects.shake(t);
        let frame_rect = Rect::new(
            0.0,
            0.0,
            f64::from(self.resolution.width),
            f64::from(self.resolution.height),
        );

        let active: Vec<(&SceneObject, Rect)> = self
            .objects
            .iter()
            .filter(|o| o.active_at(t))
            .map(|o| (o, o.world_bbox(t, shake)))
            .collect();

        let mut out = Vec::new();
        for (obj, bbox) in &active {
            if !obj.tracked {
                continue;
            }
            let clipped = bbox.clamped_to(&frame_rect);
            let full_area = bbox.area();
            let mut visible_area = clipped.area();
            // Subtract overlap with higher-z objects (approximate: overlaps
            // between multiple occluders are not de-duplicated).
            for (other, other_box) in &active {
                if other.id != obj.id && other.z > obj.z {
                    visible_area -= clipped
                        .intersection(&other_box.clamped_to(&frame_rect))
                        .area();
                }
            }
            let visibility = if full_area > 0.0 {
                (visible_area / full_area).clamp(0.0, 1.0)
            } else {
                0.0
            };
            let speed = obj.trajectory.speed(t);
            out.push(GtObject {
                id: obj.id,
                label: obj.label,
                rect: clipped,
                visibility,
                blur: self.effects.exposure_blur * speed,
                speed,
            });
        }
        out
    }
}

/// Margin (pixels) around the cached background canvas to absorb camera
/// shake without re-rendering.
const BG_MARGIN: u32 = 32;

/// Which background canvas the renderer's `compose` buffer currently
/// mirrors (at `compose_offset`, outside the dirty rects).
///
/// A `Blur` base carries the relative tap offsets identifying its
/// canvas. Because an averaged canvas is a pure function of those
/// offsets, a matching base can always be dirty-restored — even if the
/// cache entry was evicted and rebuilt in between.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ComposeBase {
    /// The scene's shared background canvas.
    Scene,
    /// A three-tap averaged canvas ([`BlurBgCache`]) for the given
    /// relative tap offsets.
    Blur(TapRel),
}

/// Relative sub-exposure blit offsets `(o1 − o0, o2 − o0)`.
type TapRel = ((i32, i32), (i32, i32));

/// Most blur-under-shake frames cycle through a handful of relative
/// tap offsets (the taps are a fraction of a frame apart, so each
/// component is −1/0/+1 and tracks the shake phase); a small
/// most-recently-used cache makes every offset triple after the first
/// shake period a pure canvas hit.
const BLUR_BG_CACHE_CAP: usize = 8;

/// The three-tap averaged background for motion blur under shake.
///
/// When all three sub-exposure blit offsets are integral, every clean
/// pixel of a blurred frame is
/// `round((bg[o0] + bg[o1] + bg[o2]) / 3)` — a pure function of the
/// canvas and the *relative* offsets `(o1 − o0, o2 − o0)`, which shake
/// moves only every few frames (the taps are a fraction of a frame
/// apart). Caching the averaged canvas (and its luma) keyed on those
/// relative offsets turns the per-frame three-tap background sum into
/// one row blit per scanline — and a luma-plane blit on the fused-luma
/// path — with per-tap work confined to the object region, exactly like
/// the instant path. Values are bit-identical to summing per frame: the
/// same integer sums feed the same rounded third (see `rounded_third`).
#[derive(Debug)]
struct BlurBgCache {
    /// Relative tap offsets `(o1 − o0, o2 − o0)` this average is for.
    rel: TapRel,
    /// Averaged canvas (valid wherever all three taps are in range —
    /// which covers every offset triple that rounds to this `rel`).
    rgb: RgbFrame,
    /// Luma of `rgb`, for the clean-row fast path of the luma output.
    luma: LumaFrame,
}

impl BlurBgCache {
    /// Builds (or rebuilds in place) the averaged canvas for `rel`.
    fn build(bg: &RgbFrame, rel: TapRel, reuse: Option<BlurBgCache>) -> Self {
        let (bw, bh) = (bg.width(), bg.height());
        let (mut rgb, mut luma) = match reuse {
            Some(c) if c.rgb.width() == bw && c.rgb.height() == bh => (c.rgb, c.luma),
            _ => (
                RgbFrame::new(bw, bh).expect("canvas dimensions are positive"),
                LumaFrame::new(bw, bh).expect("canvas dimensions are positive"),
            ),
        };
        let ((r1x, r1y), (r2x, r2y)) = rel;
        // Valid domain: indices where all three taps stay inside the
        // canvas. Every frame read lands here by construction (frame
        // offsets o1 = o0 + r1 and o2 = o0 + r2 are themselves valid
        // canvas offsets).
        let lo_u = 0.max(-r1x).max(-r2x);
        let hi_u = i64::from(bw) - 1 + i64::from(0.min(-r1x).min(-r2x));
        let lo_v = 0.max(-r1y).max(-r2y);
        let hi_v = i64::from(bh) - 1 + i64::from(0.min(-r1y).min(-r2y));
        let lo = lo_u as usize;
        let n = (hi_u - i64::from(lo_u) + 1) as usize;
        let mut acc_row: Vec<[u16; 3]> = vec![[0u16; 3]; n];
        for v in i64::from(lo_v)..=hi_v {
            let b0 = &bg.row(v as u32)[lo..lo + n];
            let b1 = &bg.row((v + i64::from(r1y)) as u32)[(lo_u + r1x) as usize..][..n];
            let b2 = &bg.row((v + i64::from(r2y)) as u32)[(lo_u + r2x) as usize..][..n];
            let rgb_row = &mut rgb.row_mut(v as u32)[lo..lo + n];
            blur_acc_sum3(&mut acc_row, b0, b1, b2);
            blur_average_row(&acc_row, rgb_row);
            rgb_to_luma_row(
                &rgb.row(v as u32)[lo..lo + n],
                &mut luma.row_mut(v as u32)[lo..lo + n],
            );
        }
        BlurBgCache { rel, rgb, luma }
    }
}

/// An inclusive pixel rectangle, used for dirty-region tracking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PixelRect {
    x0: u32,
    x1: u32,
    y0: u32,
    y1: u32,
}

impl PixelRect {
    fn union(self, other: PixelRect) -> PixelRect {
        PixelRect {
            x0: self.x0.min(other.x0),
            x1: self.x1.max(other.x1),
            y0: self.y0.min(other.y0),
            y1: self.y1.max(other.y1),
        }
    }
}

/// Renders frames of one scene as a scanline pipeline.
///
/// The renderer caches the background canvas once (with a shake margin)
/// and then produces each frame with row-granular data movement instead
/// of per-pixel recomputation:
///
/// * the background blit is one `memcpy` per row at an integer offset
///   (provably equal to the old per-pixel `round`, with an exact
///   fallback for the degenerate half-pixel case);
/// * between frames only the *dirty rectangles* touched by objects (or
///   a shake-induced offset change) are restored from the canvas;
/// * objects rasterize by row spans solved from the inverse rotation,
///   with the decisive inside test unchanged, and procedural noise
///   textures sample through a memoized lattice-cell cache;
/// * motion blur accumulates sub-exposures in `u16` (3 × 255 fits) and
///   re-renders only object regions per tap when the shake offset is
///   tap-invariant;
/// * illumination is a 256-entry LUT when pixel noise is off, and the
///   luma path ([`render_luma_into`][Renderer::render_luma_into]) fuses
///   gain/noise and the RGB→luma conversion into one pass over the
///   composed frame, without materializing an output RGB frame.
///
/// Output is bit-identical to the pre-scanline renderer; the golden
/// tests in `tests/golden.rs` pin that across every effects
/// combination. The `*_into` calls render into caller-owned frames;
/// compose and scratch buffers are reused across calls.
#[derive(Debug)]
pub struct Renderer<'a> {
    scene: &'a Scene,
    /// Background rendered once with a margin on all sides, shared
    /// with every other renderer of this scene.
    bg: Arc<RgbFrame>,
    /// The pixel-noise model (invoked only when
    /// `pixel_noise_sigma > 0`).
    noise: FastGaussian,
    /// Worker threads for the noise finalize pass (see
    /// [`set_noise_threads`][Renderer::set_noise_threads]).
    noise_threads: usize,
    /// Composed (pre-illumination, pre-noise) frame, reused across
    /// renders.
    compose: RgbFrame,
    /// Background offset currently blitted into `compose`; `None` when
    /// the compose content is not a pure integer shift of a canvas.
    compose_offset: Option<(u32, u32)>,
    /// Which canvas `compose_offset` refers to: the scene background or
    /// the blur cache's three-tap average.
    compose_base: ComposeBase,
    /// Cached three-tap averaged backgrounds for motion blur under
    /// shake, keyed on the taps' relative offsets, most recently used
    /// last (see [`BlurBgCache`]; capped at [`BLUR_BG_CACHE_CAP`]).
    blur_bg: Vec<BlurBgCache>,
    /// Regions of `compose` that differ from the background at
    /// `compose_offset`.
    dirty: Vec<PixelRect>,
    /// Scratch rect list for per-tap object bounds.
    tap_dirty: Vec<PixelRect>,
    /// Sub-exposure scratch frame for motion blur.
    tap: Option<RgbFrame>,
    /// Motion-blur accumulator: per-channel sums of up to 3 taps.
    acc: Vec<[u16; 3]>,
}

impl<'a> Renderer<'a> {
    fn new(scene: &'a Scene) -> Self {
        let res = scene.resolution;
        Renderer {
            scene,
            bg: scene.canvas_rgb(),
            noise: FastGaussian::new(),
            noise_threads: default_threads(),
            compose: RgbFrame::new(res.width, res.height).expect("positive resolution"),
            compose_offset: None,
            compose_base: ComposeBase::Scene,
            blur_bg: Vec::new(),
            dirty: Vec::new(),
            tap_dirty: Vec::new(),
            tap: None,
            acc: Vec::new(),
        }
    }

    /// Renders frame `index`, returning pixels and ground truth.
    pub fn render(&mut self, index: u32) -> RenderedFrame {
        RenderedFrame {
            index,
            rgb: self.render_pixels(index),
            truth: self.scene.ground_truth(index),
        }
    }

    /// Renders frame `index` into a fresh frame, skipping the
    /// ground-truth pass (which walks an O(objects²) occluder loop) —
    /// the call for consumers that only need pixels.
    pub fn render_pixels(&mut self, index: u32) -> RgbFrame {
        let res = self.scene.resolution;
        let mut out = RgbFrame::new(res.width, res.height).expect("positive resolution");
        self.render_pixels_into(index, &mut out);
        out
    }

    /// Renders frame `index` into `out` (resized if needed), pixels
    /// only.
    pub fn render_pixels_into(&mut self, index: u32, out: &mut RgbFrame) {
        let res = self.scene.resolution;
        if out.width() != res.width || out.height() != res.height {
            *out = RgbFrame::new(res.width, res.height).expect("positive resolution");
        }
        self.compose_frame(index);
        self.finalize_rgb(index, out);
    }

    /// Renders frame `index` into `out` and returns its ground truth.
    pub fn render_into(&mut self, index: u32, out: &mut RgbFrame) -> Vec<GtObject> {
        self.render_pixels_into(index, out);
        self.scene.ground_truth(index)
    }

    /// Renders frame `index` directly as a luma plane (bit-identical to
    /// `rgb_to_luma` of the RGB render) and returns its ground truth.
    /// The gain/noise stage and the RGB→luma conversion are fused into
    /// one pass over the composed frame, so no full RGB output frame is
    /// materialized — the streaming front-end's fast path.
    pub fn render_luma_into(&mut self, index: u32, out: &mut LumaFrame) -> Vec<GtObject> {
        self.render_luma_pixels_into(index, out);
        self.scene.ground_truth(index)
    }

    /// [`render_luma_into`][Renderer::render_luma_into] without the
    /// ground-truth pass — the luma analogue of
    /// [`render_pixels_into`][Renderer::render_pixels_into], for
    /// consumers (and benchmarks) that only need the plane.
    pub fn render_luma_pixels_into(&mut self, index: u32, out: &mut LumaFrame) {
        let res = self.scene.resolution;
        if out.width() != res.width || out.height() != res.height {
            *out = LumaFrame::new(res.width, res.height).expect("positive resolution");
        }
        self.compose_frame(index);
        self.finalize_luma(index, out);
    }

    /// Sets the worker-thread count for the noise finalize pass
    /// (defaults to [`default_threads`]). Output is bit-identical at
    /// every thread count — the goldens are
    /// recorded sequentially and hold regardless. Benches pin this to
    /// compare 1- vs N-thread rendering without mutating the
    /// process environment.
    pub fn set_noise_threads(&mut self, threads: usize) {
        self.noise_threads = threads.max(1);
    }

    // -- compose: background + objects (pre-illumination/noise) ----------

    fn compose_frame(&mut self, index: u32) {
        let t = f64::from(index);
        let blur = self.scene.effects.exposure_blur;
        if blur > 0.0 {
            self.compose_blurred(t, blur);
        } else {
            self.compose_instant(t);
        }
    }

    /// The integer background-blit offset for a shake value, or `None`
    /// when a rounded offset is within 1e-9 of a half-pixel boundary —
    /// the one case where `round(x + c)` is not provably `x + round(c)`
    /// per pixel — which falls back to the exact per-pixel blit.
    fn blit_offset(&self, shake: Vec2f) -> Option<(u32, u32)> {
        let m = f64::from(BG_MARGIN);
        let (ox, oy) = shake_clamped(shake);
        let (cx, cy) = (ox + m, oy + m);
        let near_half = |c: f64| ((c - c.floor()) - 0.5).abs() < 1e-9;
        if near_half(cx) || near_half(cy) {
            return None;
        }
        Some((cx.round() as u32, cy.round() as u32))
    }

    /// Brings `compose` to "pure background at `shake`" state: restores
    /// dirty regions when the offset is unchanged, row-blits the whole
    /// frame when it moved, or falls back to the exact per-pixel path
    /// for degenerate offsets. Clears the dirty list.
    fn ensure_background(&mut self, shake: Vec2f) {
        match self.blit_offset(shake) {
            Some((dx, dy)) => self.ensure_background_at(dx, dy),
            None => {
                let (ox, oy) = shake_clamped(shake);
                blit_exact(&self.bg, &mut self.compose, ox, oy);
                self.compose_offset = None;
                self.compose_base = ComposeBase::Scene;
                self.dirty.clear();
            }
        }
    }

    fn ensure_background_at(&mut self, dx: u32, dy: u32) {
        self.ensure_canvas_at(ComposeBase::Scene, dx, dy);
    }

    /// Brings `compose` to "pure `base` canvas at `(dx, dy)`" state:
    /// restores dirty regions when the canvas and offset are unchanged,
    /// row-blits the whole frame otherwise. Clears the dirty list.
    fn ensure_canvas_at(&mut self, base: ComposeBase, dx: u32, dy: u32) {
        let Renderer {
            bg,
            blur_bg,
            compose,
            compose_offset,
            compose_base,
            dirty,
            ..
        } = self;
        let src: &RgbFrame = match base {
            ComposeBase::Scene => bg,
            ComposeBase::Blur(rel) => {
                &blur_bg
                    .iter()
                    .find(|c| c.rel == rel)
                    .expect("blur cache built before use")
                    .rgb
            }
        };
        if *compose_offset == Some((dx, dy)) && *compose_base == base {
            for r in dirty.iter() {
                blit_rect(src, compose, dx, dy, *r);
            }
        } else {
            blit_full(src, compose, dx, dy);
            *compose_offset = Some((dx, dy));
            *compose_base = base;
        }
        dirty.clear();
    }

    fn compose_instant(&mut self, t: f64) {
        let shake = self.scene.effects.shake(t);
        self.ensure_background(shake);
        draw_objects_at(&mut self.compose, self.scene, t, shake, &mut self.dirty);
    }

    fn compose_blurred(&mut self, t: f64, blur: f64) {
        // Average three sub-exposures across the shutter interval (the
        // old renderer's taps, clamped at the sequence start).
        let taps = [t, (t - blur / 2.0).max(0.0), (t - blur).max(0.0)];
        let shakes = taps.map(|tt| self.scene.effects.shake(tt));
        let offsets = [
            self.blit_offset(shakes[0]),
            self.blit_offset(shakes[1]),
            self.blit_offset(shakes[2]),
        ];
        let same_offset =
            offsets[0].is_some() && offsets[0] == offsets[1] && offsets[1] == offsets[2];
        if same_offset {
            let (dx, dy) = offsets[0].expect("checked is_some");
            self.compose_blurred_same_offset(taps, shakes, dx, dy);
        } else {
            self.compose_blurred_general(taps, shakes, offsets);
        }
    }

    /// Blur fast path: the background blit offset is tap-invariant (in
    /// particular whenever shake is off), so background pixels average
    /// to themselves exactly (`round(3v / 3) = v`) and only the object
    /// dirty region needs per-tap work.
    fn compose_blurred_same_offset(
        &mut self,
        taps: [f64; 3],
        shakes: [Vec2f; 3],
        dx: u32,
        dy: u32,
    ) {
        self.ensure_background_at(dx, dy);

        // Union of every tap's object bounds: the only pixels where the
        // three sub-exposures can differ from the background.
        let mut region: Option<PixelRect> = None;
        for (&tt, &shake) in taps.iter().zip(&shakes) {
            self.tap_dirty.clear();
            collect_object_bounds(self.scene, tt, shake, &mut self.tap_dirty);
            for r in &self.tap_dirty {
                region = Some(region.map_or(*r, |u| u.union(*r)));
            }
        }
        let Some(region) = region else {
            return; // pure background frame; compose is already correct
        };

        self.ensure_scratch();
        let Renderer {
            scene,
            bg,
            compose,
            tap,
            acc,
            dirty,
            tap_dirty,
            ..
        } = self;
        let tap = tap.as_mut().expect("ensure_scratch allocated the tap");
        let w = compose.width() as usize;

        // acc[region] := 3 × background.
        let n = (region.x1 - region.x0 + 1) as usize;
        for y in region.y0..=region.y1 {
            let bg_row = &bg.row(y + dy)[dx as usize + region.x0 as usize..][..n];
            let base = y as usize * w + region.x0 as usize;
            blur_acc_init3(&mut acc[base..base + n], bg_row);
        }

        // Per tap: rebuild the region over the background, draw that
        // instant's objects, and accumulate the delta against the
        // background (zero wherever the tap shows pure background).
        for (&tt, &shake) in taps.iter().zip(&shakes) {
            blit_rect(bg, tap, dx, dy, region);
            tap_dirty.clear();
            draw_objects_at(tap, scene, tt, shake, tap_dirty);
            accumulate_tap_delta(acc, w, tap, bg, dx, dy, region);
        }

        // compose[region] := rounded average (see `rounded_third`).
        for y in region.y0..=region.y1 {
            let base = y as usize * w + region.x0 as usize;
            let row = &mut compose.row_mut(y)[region.x0 as usize..region.x0 as usize + n];
            blur_average_row(&acc[base..base + n], row);
        }
        dirty.push(region);
    }

    /// Blur general path (shake moves the blit offset between taps):
    /// the three-tap background sum is served from the [`BlurBgCache`]
    /// averaged canvas — one row blit per clean scanline, rebuilt only
    /// when the taps' *relative* offsets change — and the accumulator
    /// stages only the object-region rectangle for the per-tap deltas.
    fn compose_blurred_general(
        &mut self,
        taps: [f64; 3],
        shakes: [Vec2f; 3],
        offsets: [Option<(u32, u32)>; 3],
    ) {
        let (Some(o0), Some(o1), Some(o2)) = (offsets[0], offsets[1], offsets[2]) else {
            self.compose_blurred_fallback(taps, shakes, offsets);
            return;
        };
        let rel = (
            (o1.0 as i32 - o0.0 as i32, o1.1 as i32 - o0.1 as i32),
            (o2.0 as i32 - o0.0 as i32, o2.1 as i32 - o0.1 as i32),
        );
        match self.blur_bg.iter().position(|c| c.rel == rel) {
            Some(i) => {
                // Keep most-recently-used entries at the back.
                let hit = self.blur_bg.remove(i);
                self.blur_bg.push(hit);
            }
            None => {
                let reuse = if self.blur_bg.len() >= BLUR_BG_CACHE_CAP {
                    Some(self.blur_bg.remove(0))
                } else {
                    None
                };
                let built = BlurBgCache::build(&self.bg, rel, reuse);
                self.blur_bg.push(built);
            }
        }
        self.ensure_canvas_at(ComposeBase::Blur(rel), o0.0, o0.1);

        // Union of every tap's object bounds: the only pixels where the
        // three sub-exposures can differ from the averaged background.
        let mut region: Option<PixelRect> = None;
        for (&tt, &shake) in taps.iter().zip(&shakes) {
            self.tap_dirty.clear();
            collect_object_bounds(self.scene, tt, shake, &mut self.tap_dirty);
            for r in &self.tap_dirty {
                region = Some(region.map_or(*r, |u| u.union(*r)));
            }
        }
        let Some(region) = region else {
            return; // pure averaged background; compose is already correct
        };

        self.ensure_scratch();
        let Renderer {
            scene,
            bg,
            compose,
            tap,
            acc,
            dirty,
            tap_dirty,
            ..
        } = self;
        let tap = tap.as_mut().expect("ensure_scratch allocated the tap");
        let w = compose.width() as usize;
        let n = (region.x1 - region.x0 + 1) as usize;

        // acc[region] := sum of the three shifted background taps.
        for y in region.y0..=region.y1 {
            let r0 = &bg.row(y + o0.1)[o0.0 as usize + region.x0 as usize..][..n];
            let r1 = &bg.row(y + o1.1)[o1.0 as usize + region.x0 as usize..][..n];
            let r2 = &bg.row(y + o2.1)[o2.0 as usize + region.x0 as usize..][..n];
            let base = y as usize * w + region.x0 as usize;
            blur_acc_sum3(&mut acc[base..base + n], r0, r1, r2);
        }

        // Per tap: rebuild the region over that tap's own background
        // shift, draw that instant's objects, and accumulate the delta
        // (zero wherever the tap shows pure background).
        for (k, (&tt, &shake)) in taps.iter().zip(&shakes).enumerate() {
            let (dx, dy) = [o0, o1, o2][k];
            blit_rect(bg, tap, dx, dy, region);
            tap_dirty.clear();
            draw_objects_at(tap, scene, tt, shake, tap_dirty);
            accumulate_tap_delta(acc, w, tap, bg, dx, dy, region);
        }

        // compose[region] := rounded average (see `rounded_third`).
        for y in region.y0..=region.y1 {
            let base = y as usize * w + region.x0 as usize;
            let row = &mut compose.row_mut(y)[region.x0 as usize..region.x0 as usize + n];
            blur_average_row(&acc[base..base + n], row);
        }
        dirty.push(region);
    }

    /// Last-resort blur path for degenerate half-pixel offsets: render
    /// each sub-exposure fully (exact per-pixel blit) and accumulate
    /// whole frames.
    fn compose_blurred_fallback(
        &mut self,
        taps: [f64; 3],
        shakes: [Vec2f; 3],
        offsets: [Option<(u32, u32)>; 3],
    ) {
        self.ensure_scratch();
        let Renderer {
            scene,
            bg,
            compose,
            tap,
            acc,
            tap_dirty,
            ..
        } = self;
        let tap = tap.as_mut().expect("ensure_scratch allocated the tap");
        for (k, (&tt, &shake)) in taps.iter().zip(&shakes).enumerate() {
            match offsets[k] {
                Some((dx, dy)) => blit_full(bg, tap, dx, dy),
                None => {
                    let (ox, oy) = shake_clamped(shake);
                    blit_exact(bg, tap, ox, oy);
                }
            }
            tap_dirty.clear();
            draw_objects_at(tap, scene, tt, shake, tap_dirty);
            if k == 0 {
                for (a, p) in acc.iter_mut().zip(tap.samples()) {
                    *a = [u16::from(p.r), u16::from(p.g), u16::from(p.b)];
                }
            } else {
                for (a, p) in acc.iter_mut().zip(tap.samples()) {
                    a[0] += u16::from(p.r);
                    a[1] += u16::from(p.g);
                    a[2] += u16::from(p.b);
                }
            }
        }
        average_acc(acc, compose);
        self.compose_offset = None;
        self.compose_base = ComposeBase::Scene;
        self.dirty.clear();
    }

    fn ensure_scratch(&mut self) {
        let res = self.scene.resolution;
        if self.tap.is_none() {
            self.tap = Some(RgbFrame::new(res.width, res.height).expect("positive resolution"));
        }
        if self.acc.len() != res.pixels() as usize {
            self.acc = vec![[0u16; 3]; res.pixels() as usize];
        }
    }

    // -- finalize: illumination gain + pixel noise (+ fused luma) --------

    fn gain_sigma(&self, index: u32) -> (f64, f64, bool) {
        let gain = self
            .scene
            .effects
            .illumination
            .at(f64::from(index))
            .max(0.0);
        let sigma = self.scene.effects.pixel_noise_sigma;
        let needs_gain = (gain - 1.0).abs() > 1e-9;
        (gain, sigma, needs_gain)
    }

    fn finalize_rgb(&mut self, index: u32, out: &mut RgbFrame) {
        let (gain, sigma, needs_gain) = self.gain_sigma(index);
        if !needs_gain && sigma <= 0.0 {
            out.copy_from(&self.compose);
        } else if sigma <= 0.0 {
            // Noise off: gain is a pure per-value function — one
            // 256-entry LUT instead of a million rounds.
            let lut = gain_lut(gain);
            for (dst, src) in out.samples_mut().iter_mut().zip(self.compose.samples()) {
                *dst = Rgb::new(
                    lut[src.r as usize],
                    lut[src.g as usize],
                    lut[src.b as usize],
                );
            }
        } else {
            // Noise on: the model addresses each pixel by counter, so
            // its rows band out over `noise_threads` workers with
            // bit-identical output.
            self.noise
                .begin_frame(self.scene.seed, PIXEL_NOISE_STREAM, index, gain, sigma);
            let noise = &self.noise;
            let w = self.compose.width() as usize;
            parallel_rows(
                self.compose.samples(),
                out.samples_mut(),
                w,
                w,
                self.noise_threads,
                |y, srow, drow| noise.rgb_row((y * w) as u64, srow, drow),
            );
        }
    }

    fn finalize_luma(&mut self, index: u32, out: &mut LumaFrame) {
        let (gain, sigma, needs_gain) = self.gain_sigma(index);
        if !needs_gain && sigma <= 0.0 {
            if let Some((dx, dy)) = self.compose_offset {
                // Clean background pixels have a precomputed luma: blit
                // rows from the active canvas's luma plane (the scene's
                // shared canvas, or the blur cache's averaged canvas)
                // and convert only the dirty regions.
                let scene_luma;
                let bgl: &LumaFrame = match self.compose_base {
                    ComposeBase::Scene => {
                        scene_luma = self.scene.canvas_luma();
                        &scene_luma
                    }
                    ComposeBase::Blur(rel) => {
                        &self
                            .blur_bg
                            .iter()
                            .find(|c| c.rel == rel)
                            .expect("blur base implies a cached canvas")
                            .luma
                    }
                };
                let w = out.width() as usize;
                for y in 0..out.height() {
                    out.row_mut(y)
                        .copy_from_slice(&bgl.row(y + dy)[dx as usize..dx as usize + w]);
                }
                for r in &self.dirty {
                    for y in r.y0..=r.y1 {
                        let n = (r.x1 - r.x0 + 1) as usize;
                        let src = &self.compose.row(y)[r.x0 as usize..r.x0 as usize + n];
                        let dst = &mut out.row_mut(y)[r.x0 as usize..r.x0 as usize + n];
                        for (d, s) in dst.iter_mut().zip(src) {
                            *d = s.luma();
                        }
                    }
                }
            } else {
                for (dst, src) in out.samples_mut().iter_mut().zip(self.compose.samples()) {
                    *dst = src.luma();
                }
            }
        } else if sigma <= 0.0 {
            let lut = gain_lut(gain);
            for (dst, src) in out.samples_mut().iter_mut().zip(self.compose.samples()) {
                *dst = Rgb::new(
                    lut[src.r as usize],
                    lut[src.g as usize],
                    lut[src.b as usize],
                )
                .luma();
            }
        } else {
            // Gain/noise + luma fused per row: the noisy RGB never
            // exists as a frame, so this is never more work than the
            // RGB path plus a separate full-frame conversion.
            self.noise
                .begin_frame(self.scene.seed, PIXEL_NOISE_STREAM, index, gain, sigma);
            let noise = &self.noise;
            let w = self.compose.width() as usize;
            parallel_rows(
                self.compose.samples(),
                out.samples_mut(),
                w,
                w,
                self.noise_threads,
                |y, srow, drow| noise.luma_row((y * w) as u64, srow, drow),
            );
        }
    }
}

// -- SWAR blur kernels -----------------------------------------------------
//
// The blur accumulator loops all share one shape: 3-byte `Rgb` structs
// on one side, flat `[u16; 3]` channel sums on the other. Fused
// per-pixel loops scalarize (the struct shuffling drags the lane
// arithmetic down with it), so each kernel splits into an L1 stack
// tile: one pass of pure byte shuffling, one pass of flat `u8`/`u16`
// lane arithmetic the auto-vectorizer handles at baseline SSE2 — the
// same two-pass discipline as the sensor-noise luma kernel.

/// Tile width in pixels (192 channel lanes) of the blur kernels.
const BLUR_TILE_PX: usize = 64;

/// Rounded third of a three-tap channel sum, branch-free and LUT-free:
/// for `s ≤ 765` the fraction `s/3` never lands exactly on `.5`, so
/// `round(s/3) = ⌊(2s + 3)/6⌋`, and `⌊x/6⌋ = (x · 10923) >> 16`
/// exactly for `x ≤ 32767` — eight lanes per 16-bit high multiply
/// (`pmulhuw`) when fed a flat `u16` stream, where the 766-entry LUT
/// it replaces was an unvectorizable gather.
/// `rounded_third_matches_the_rounded_lut` pins the equivalence over
/// the whole domain.
#[inline]
fn rounded_third(s: u16) -> u8 {
    ((u32::from(2 * s + 3) * 10923) >> 16) as u8
}

/// Unpacks a run of pixels into a flat channel-byte tile prefix.
#[inline]
fn unpack_rgb_tile<'t>(px: &[Rgb], tile: &'t mut [u8; 3 * BLUR_TILE_PX]) -> &'t [u8] {
    let t = &mut tile[..3 * px.len()];
    for (c, p) in t.chunks_exact_mut(3).zip(px) {
        c[0] = p.r;
        c[1] = p.g;
        c[2] = p.b;
    }
    t
}

/// `acc := 3 × bg` per channel — the same-offset blur init, where all
/// three taps read the same background pixel.
fn blur_acc_init3(acc: &mut [[u16; 3]], bg: &[Rgb]) {
    debug_assert_eq!(acc.len(), bg.len());
    let mut tile = [0u8; 3 * BLUR_TILE_PX];
    for (ac, bc) in acc.chunks_mut(BLUR_TILE_PX).zip(bg.chunks(BLUR_TILE_PX)) {
        let t = unpack_rgb_tile(bc, &mut tile);
        for (a, &v) in ac.as_flattened_mut().iter_mut().zip(t) {
            *a = 3 * u16::from(v);
        }
    }
}

/// `acc := r0 + r1 + r2` per channel — the general blur init over
/// three shifted background taps.
fn blur_acc_sum3(acc: &mut [[u16; 3]], r0: &[Rgb], r1: &[Rgb], r2: &[Rgb]) {
    debug_assert!(acc.len() == r0.len() && acc.len() == r1.len() && acc.len() == r2.len());
    let mut t0 = [0u8; 3 * BLUR_TILE_PX];
    let mut t1 = [0u8; 3 * BLUR_TILE_PX];
    let mut t2 = [0u8; 3 * BLUR_TILE_PX];
    for (((ac, c0), c1), c2) in acc
        .chunks_mut(BLUR_TILE_PX)
        .zip(r0.chunks(BLUR_TILE_PX))
        .zip(r1.chunks(BLUR_TILE_PX))
        .zip(r2.chunks(BLUR_TILE_PX))
    {
        let u0 = unpack_rgb_tile(c0, &mut t0);
        let u1 = unpack_rgb_tile(c1, &mut t1);
        let u2 = unpack_rgb_tile(c2, &mut t2);
        for (((a, &v0), &v1), &v2) in ac.as_flattened_mut().iter_mut().zip(u0).zip(u1).zip(u2) {
            *a = u16::from(v0) + u16::from(v1) + u16::from(v2);
        }
    }
}

/// `acc += add − sub` per channel — one sub-exposure's object delta
/// against its own background (see [`accumulate_tap_delta`] for the
/// `u16` range argument).
fn blur_acc_delta(acc: &mut [[u16; 3]], add: &[Rgb], sub: &[Rgb]) {
    debug_assert!(acc.len() == add.len() && acc.len() == sub.len());
    let mut ta = [0u8; 3 * BLUR_TILE_PX];
    let mut ts = [0u8; 3 * BLUR_TILE_PX];
    for ((ac, ca), cs) in acc
        .chunks_mut(BLUR_TILE_PX)
        .zip(add.chunks(BLUR_TILE_PX))
        .zip(sub.chunks(BLUR_TILE_PX))
    {
        let ua = unpack_rgb_tile(ca, &mut ta);
        let us = unpack_rgb_tile(cs, &mut ts);
        for ((a, &va), &vs) in ac.as_flattened_mut().iter_mut().zip(ua).zip(us) {
            *a = *a + u16::from(va) - u16::from(vs);
        }
    }
}

/// `out := round(acc / 3)` per channel — the compose-side rounded
/// average ([`rounded_third`] over the flat lane stream, then a pack
/// pass into the 3-byte pixels).
fn blur_average_row(acc: &[[u16; 3]], out: &mut [Rgb]) {
    debug_assert_eq!(acc.len(), out.len());
    let mut tile = [0u8; 3 * BLUR_TILE_PX];
    for (ac, oc) in acc.chunks(BLUR_TILE_PX).zip(out.chunks_mut(BLUR_TILE_PX)) {
        let t = &mut tile[..3 * oc.len()];
        for (d, &v) in t.iter_mut().zip(ac.as_flattened()) {
            *d = rounded_third(v);
        }
        for (p, c) in oc.iter_mut().zip(t.chunks_exact(3)) {
            *p = Rgb::new(c[0], c[1], c[2]);
        }
    }
}

/// Writes the rounded three-tap average into `out`.
fn average_acc(acc: &[[u16; 3]], out: &mut RgbFrame) {
    blur_average_row(acc, out.samples_mut());
}

/// 256-entry gain LUT; entry `v` equals the old per-pixel computation
/// for a channel value `v` with noise off (also the table the fast
/// noise model folds gain through, so the two paths can never
/// diverge).
pub(crate) fn gain_lut(gain: f64) -> [u8; 256] {
    let mut lut = [0u8; 256];
    for (v, out) in lut.iter_mut().enumerate() {
        *out = (v as f64 * gain).round().clamp(0.0, 255.0) as u8;
    }
    lut
}

/// The clamped fractional background offsets for a shake value — the
/// bit-identity-critical clamp from the old renderer, derived in
/// exactly one place (used by the integer fast path and both exact
/// fallbacks).
fn shake_clamped(shake: Vec2f) -> (f64, f64) {
    let m = f64::from(BG_MARGIN);
    ((-shake.x).clamp(-m, m), (-shake.y).clamp(-m, m))
}

/// Draws every object active at `t` in painter's order (stable sort by
/// `z`, insertion order on ties — the old renderer's ordering).
fn draw_objects_at(
    frame: &mut RgbFrame,
    scene: &Scene,
    t: f64,
    shake: Vec2f,
    dirty: &mut Vec<PixelRect>,
) {
    let mut order: Vec<&SceneObject> = scene.objects.iter().filter(|o| o.active_at(t)).collect();
    order.sort_by_key(|o| o.z);
    for obj in order {
        draw_object(frame, obj, t, shake, dirty);
    }
}

/// Accumulates one sub-exposure's delta against its background over
/// `region`: `acc += tap − bg` per channel. Safe in `u16`: the
/// accumulator holds at most three 255-sums (≤ 765), so the transient
/// `acc + tap` peaks at 1020 and the background term being subtracted
/// is always still contained in the sum.
fn accumulate_tap_delta(
    acc: &mut [[u16; 3]],
    w: usize,
    tap: &RgbFrame,
    bg: &RgbFrame,
    dx: u32,
    dy: u32,
    region: PixelRect,
) {
    for y in region.y0..=region.y1 {
        let n = (region.x1 - region.x0 + 1) as usize;
        let base = y as usize * w + region.x0 as usize;
        let tap_row = &tap.row(y)[region.x0 as usize..region.x0 as usize + n];
        let bg_row = &bg.row(y + dy)[dx as usize + region.x0 as usize..][..n];
        blur_acc_delta(&mut acc[base..base + n], tap_row, bg_row);
    }
}

// -- background blits ------------------------------------------------------

/// Full-frame background blit at an integer offset: one row `memcpy`
/// per scanline. `dx`/`dy` are in `[0, 2 * BG_MARGIN]`, so every source
/// index is in range by construction (no clamping needed).
fn blit_full(bg: &RgbFrame, out: &mut RgbFrame, dx: u32, dy: u32) {
    let w = out.width() as usize;
    for y in 0..out.height() {
        out.row_mut(y)
            .copy_from_slice(&bg.row(y + dy)[dx as usize..dx as usize + w]);
    }
}

/// Restores one rectangle of `out` from the background at an integer
/// offset.
fn blit_rect(bg: &RgbFrame, out: &mut RgbFrame, dx: u32, dy: u32, r: PixelRect) {
    let n = (r.x1 - r.x0 + 1) as usize;
    for y in r.y0..=r.y1 {
        let src = &bg.row(y + dy)[(dx + r.x0) as usize..(dx + r.x0) as usize + n];
        out.row_mut(y)[r.x0 as usize..r.x0 as usize + n].copy_from_slice(src);
    }
}

/// The pre-scanline per-pixel blit, kept as the exact fallback for
/// offsets within 1e-9 of a half-pixel boundary (where the row-blit
/// integer-offset identity is not provable).
fn blit_exact(bg: &RgbFrame, out: &mut RgbFrame, ox: f64, oy: f64) {
    let m = f64::from(BG_MARGIN);
    for y in 0..out.height() {
        for x in 0..out.width() {
            let sx = (f64::from(x) + ox + m).round() as i64;
            let sy = (f64::from(y) + oy + m).round() as i64;
            out.set(x, y, bg.at_clamped(sx, sy));
        }
    }
}

// -- object rasterization --------------------------------------------------

/// Per-part raster geometry: world-space part center, half extents,
/// rotation, and the clipped conservative pixel bounds.
struct PartRaster {
    pcx: f64,
    pcy: f64,
    half: Vec2f,
    cos_t: f64,
    sin_t: f64,
    rect: PixelRect,
}

/// Per-object transform constants, hoisted out of the part loop.
struct ObjectFrame {
    c: Vec2f,
    sw: f64,
    sh: f64,
    cos_t: f64,
    sin_t: f64,
}

impl ObjectFrame {
    fn new(obj: &SceneObject, t: f64, shake: Vec2f) -> ObjectFrame {
        let c = obj.trajectory.position(t) + shake;
        let s = obj.scale.at(t).max(0.01);
        let theta = obj.rotation.at(t);
        let aspect = obj.aspect.at(t).clamp(0.05, 1.0);
        ObjectFrame {
            c,
            sw: obj.sprite.width * s * aspect,
            sh: obj.sprite.height * s,
            cos_t: theta.cos(),
            sin_t: theta.sin(),
        }
    }
}

/// Computes a part's raster geometry, or `None` when its bounds clip to
/// nothing. The extents are the *tight* rotated projections (plus a
/// one-pixel margin absorbing floating-point error), not the old
/// circumscribed-circle radius — for a rotated 2:1 rectangle this alone
/// shrinks the scanned area by ~2–8×.
fn part_raster(
    of: &ObjectFrame,
    part: &Part,
    t: f64,
    width: u32,
    height: u32,
) -> Option<PartRaster> {
    let off = part.offset_at(t);
    let pc_local = Vec2f::new(off.x * of.sw, off.y * of.sh);
    let pcx = of.c.x + pc_local.x * of.cos_t - pc_local.y * of.sin_t;
    let pcy = of.c.y + pc_local.x * of.sin_t + pc_local.y * of.cos_t;
    let half = Vec2f::new(
        (part.size.x * of.sw / 2.0).max(0.5),
        (part.size.y * of.sh / 2.0).max(0.5),
    );
    let (ac, as_) = (of.cos_t.abs(), of.sin_t.abs());
    let (ex, ey) = match part.shape {
        Shape::Rectangle => (half.x * ac + half.y * as_, half.x * as_ + half.y * ac),
        Shape::Ellipse => (
            (half.x * ac).hypot(half.y * as_),
            (half.x * as_).hypot(half.y * ac),
        ),
    };
    let (ex, ey) = (ex + 1.0, ey + 1.0);
    let x0 = (pcx - ex).floor().max(0.0);
    let y0 = (pcy - ey).floor().max(0.0);
    let x1 = ((pcx + ex).ceil().min(f64::from(width) - 1.0)).max(0.0);
    let y1 = ((pcy + ey).ceil().min(f64::from(height) - 1.0)).max(0.0);
    if x0 > x1 || y0 > y1 {
        return None;
    }
    Some(PartRaster {
        pcx,
        pcy,
        half,
        cos_t: of.cos_t,
        sin_t: of.sin_t,
        rect: PixelRect {
            x0: x0 as u32,
            x1: x1 as u32,
            y0: y0 as u32,
            y1: y1 as u32,
        },
    })
}

/// Conservative column span of row `py` (inclusive, clamped to the
/// part's rect), or `None` when the row cannot intersect the shape. The
/// span is solved from the inverse rotation as an interval in `dx` and
/// widened by one pixel on each side, so it strictly contains every
/// pixel the exact inside test accepts; the test itself still runs
/// per pixel within the span, unchanged.
fn row_span(pr: &PartRaster, shape: Shape, dy_sin: f64, dy_cos: f64) -> Option<(u32, u32)> {
    let (hx, hy) = (pr.half.x, pr.half.y);
    let (c, s) = (pr.cos_t, pr.sin_t);
    // dx interval containing all inside pixels of this row.
    let (lo, hi) = match shape {
        Shape::Rectangle => {
            // |c·dx + dy_sin| ≤ hx  ∧  |−s·dx + dy_cos| ≤ hy
            let a = linear_interval(c, dy_sin, hx + 1e-7 * (hx + dy_sin.abs() + 1.0))?;
            let b = linear_interval(-s, dy_cos, hy + 1e-7 * (hy + dy_cos.abs() + 1.0))?;
            let lo = a.0.max(b.0);
            let hi = a.1.min(b.1);
            if lo > hi {
                return None;
            }
            (lo, hi)
        }
        Shape::Ellipse => {
            // (lx/hx)² + (ly/hy)² ≤ 1 is a quadratic in dx with
            // positive leading coefficient (cos² + sin² = 1).
            let qa = (c / hx) * (c / hx) + (s / hy) * (s / hy);
            let qb = 2.0 * (c * dy_sin / (hx * hx) - s * dy_cos / (hy * hy));
            let qc = (dy_sin / hx) * (dy_sin / hx) + (dy_cos / hy) * (dy_cos / hy) - 1.0 - 1e-7;
            let disc = qb * qb - 4.0 * qa * qc;
            if disc < 0.0 {
                return None;
            }
            let sq = disc.sqrt();
            ((-qb - sq) / (2.0 * qa), (-qb + sq) / (2.0 * qa))
        }
    };
    // Map dx = px + 0.5 − pcx back to pixel columns, widen by one, and
    // clamp to the part rect.
    let min_px = f64::from(pr.rect.x0);
    let max_px = f64::from(pr.rect.x1);
    let lo_px = (lo + pr.pcx - 0.5 - 1.0).floor().clamp(min_px, max_px);
    let hi_px = (hi + pr.pcx - 0.5 + 1.0).ceil().clamp(min_px, max_px);
    if lo_px > hi_px {
        return None;
    }
    Some((lo_px as u32, hi_px as u32))
}

/// Solves `|a·dx + k| ≤ h` for `dx`, returning the closed interval or
/// `None` when empty. A near-zero slope makes the constraint
/// dx-independent: always satisfied or never.
fn linear_interval(a: f64, k: f64, h: f64) -> Option<(f64, f64)> {
    if a.abs() < 1e-12 {
        if k.abs() <= h {
            Some((f64::NEG_INFINITY, f64::INFINITY))
        } else {
            None
        }
    } else {
        let p = (-h - k) / a;
        let q = (h - k) / a;
        Some((p.min(q), p.max(q)))
    }
}

/// Draws one object (painter's algorithm slot) by row spans, recording
/// each part's raster rect in `dirty`. The inside test and texture
/// arithmetic are byte-for-byte the old per-pixel renderer's; only the
/// pixels *visited* shrink.
fn draw_object(
    frame: &mut RgbFrame,
    obj: &SceneObject,
    t: f64,
    shake: Vec2f,
    dirty: &mut Vec<PixelRect>,
) {
    let of = ObjectFrame::new(obj, t, shake);
    for part in &obj.sprite.parts {
        let Some(pr) = part_raster(&of, part, t, frame.width(), frame.height()) else {
            continue;
        };
        // Axis-aligned parts (the common case: most dataset targets
        // never rotate) walk each row through a RowSampler — `lx` is
        // nondecreasing along the span when `cos θ = 1`, so noise
        // textures advance lattice cells by comparison instead of
        // calling `floor` per pixel. The coordinates fed to the sampler
        // are the very same `lx`/`ly` expressions (with `sin θ = 0` and
        // `cos θ = 1` the products are exact), so output is
        // bit-identical to the rotated path below.
        let axis_aligned = pr.sin_t == 0.0 && pr.cos_t == 1.0;
        let mut sampler = part.texture.sampler();
        for py in pr.rect.y0..=pr.rect.y1 {
            let dy = f64::from(py) + 0.5 - pr.pcy;
            let dy_sin = dy * pr.sin_t;
            let dy_cos = dy * pr.cos_t;
            let Some((cx0, cx1)) = row_span(&pr, part.shape, dy_sin, dy_cos) else {
                continue;
            };
            let row = frame.row_mut(py);
            if axis_aligned {
                let mut walker = part.texture.row_sampler(dy_cos);
                for px in cx0..=cx1 {
                    let dx = f64::from(px) + 0.5 - pr.pcx;
                    let lx = dx * pr.cos_t + dy_sin;
                    let ly = -dx * pr.sin_t + dy_cos;
                    let u = lx / pr.half.x;
                    let v = ly / pr.half.y;
                    let inside = match part.shape {
                        Shape::Rectangle => u.abs() <= 1.0 && v.abs() <= 1.0,
                        Shape::Ellipse => u * u + v * v <= 1.0,
                    };
                    if inside {
                        row[px as usize] = walker.sample(lx);
                    }
                }
                continue;
            }
            for px in cx0..=cx1 {
                let dx = f64::from(px) + 0.5 - pr.pcx;
                // Inverse rotation into part-local space (identical
                // expression tree to the old renderer: `dy_sin`/`dy_cos`
                // are the same products, hoisted).
                let lx = dx * pr.cos_t + dy_sin;
                let ly = -dx * pr.sin_t + dy_cos;
                let u = lx / pr.half.x;
                let v = ly / pr.half.y;
                let inside = match part.shape {
                    Shape::Rectangle => u.abs() <= 1.0 && v.abs() <= 1.0,
                    Shape::Ellipse => u * u + v * v <= 1.0,
                };
                if inside {
                    // Texture is sampled in part-local pixel units so it
                    // travels rigidly with the part.
                    row[px as usize] = sampler.sample(lx, ly);
                }
            }
        }
        dirty.push(pr.rect);
    }
}

/// Collects the raster rects every part of every active object would
/// touch at instant `t` — the motion-blur fast path's dirty region,
/// computed without drawing.
fn collect_object_bounds(scene: &Scene, t: f64, shake: Vec2f, out: &mut Vec<PixelRect>) {
    let res = scene.resolution;
    for obj in scene.objects.iter().filter(|o| o.active_at(t)) {
        let of = ObjectFrame::new(obj, t, shake);
        for part in &obj.sprite.parts {
            if let Some(pr) = part_raster(&of, part, t, res.width, res.height) {
                out.push(pr.rect);
            }
        }
    }
}

/// A lazy frame stream over one scene: each `next()` renders one frame
/// (pixels + ground truth). Created by [`Scene::frames`].
#[derive(Debug)]
pub struct FrameIter<'a> {
    renderer: Renderer<'a>,
    next: u32,
    end: u32,
}

impl Iterator for FrameIter<'_> {
    type Item = RenderedFrame;

    fn next(&mut self) -> Option<RenderedFrame> {
        if self.next >= self.end {
            return None;
        }
        let frame = self.renderer.render(self.next);
        self.next += 1;
        Some(frame)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.end.saturating_sub(self.next) as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for FrameIter<'_> {}

/// Builder for [`Scene`] (C-BUILDER).
#[derive(Debug, Clone)]
pub struct SceneBuilder {
    resolution: Resolution,
    seed: u64,
    background: Texture,
    objects: Vec<SceneObject>,
    effects: SceneEffects,
    next_id: u32,
}

impl SceneBuilder {
    /// Starts a scene with the given resolution and seed.
    pub fn new(resolution: Resolution, seed: u64) -> Self {
        SceneBuilder {
            resolution,
            seed,
            background: Texture::background_noise(seed),
            objects: Vec::new(),
            effects: SceneEffects::default(),
            next_id: 0,
        }
    }

    /// Replaces the background texture.
    pub fn background(mut self, texture: Texture) -> Self {
        self.background = texture;
        self
    }

    /// Replaces the global effects.
    pub fn effects(mut self, effects: SceneEffects) -> Self {
        self.effects = effects;
        self
    }

    /// Adds a fully specified object (its `id` is overwritten with the next
    /// sequential id).
    pub fn object(mut self, mut obj: SceneObject) -> Self {
        obj.id = self.next_id;
        self.next_id += 1;
        self.objects.push(obj);
        self
    }

    /// Adds a default mid-size rigid object drifting across the frame —
    /// handy for quickstarts and tests.
    pub fn object_default(self) -> Self {
        let res = self.resolution;
        let seed = self.seed;
        let start = Vec2f::new(f64::from(res.width) * 0.3, f64::from(res.height) * 0.5);
        self.object(SceneObject {
            id: 0,
            label: 1,
            sprite: Sprite::rigid(
                f64::from(res.width) * 0.15,
                f64::from(res.height) * 0.2,
                Shape::Rectangle,
                Texture::object_noise(seed.wrapping_add(11)),
            ),
            trajectory: Trajectory::Linear {
                start,
                velocity: Vec2f::new(1.2, 0.4),
            },
            scale: Profile::one(),
            rotation: Profile::zero(),
            aspect: Profile::one(),
            z: 1,
            enter_frame: 0.0,
            exit_frame: f64::INFINITY,
            tracked: true,
        })
    }

    /// Finalizes the scene.
    pub fn build(self) -> Scene {
        Scene {
            resolution: self.resolution,
            seed: self.seed,
            background: self.background,
            objects: self.objects,
            effects: self.effects,
            canvas: CanvasCache::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_scene() -> Scene {
        SceneBuilder::new(Resolution::new(128, 96), 7)
            .object_default()
            .build()
    }

    /// The blur kernels' mul-shift rounded third must equal the
    /// original `(s as f64 / 3.0).round()` LUT entry on the whole
    /// accumulator domain (three 255-sums).
    #[test]
    fn rounded_third_matches_the_rounded_lut() {
        for s in 0u16..=765 {
            let reference = (f64::from(s) / 3.0).round() as u8;
            assert_eq!(rounded_third(s), reference, "s = {s}");
        }
    }

    #[test]
    fn render_produces_frame_and_truth() {
        let scene = small_scene();
        let mut r = scene.renderer();
        let f = r.render(0);
        assert_eq!(f.rgb.width(), 128);
        assert_eq!(f.rgb.height(), 96);
        assert_eq!(f.truth.len(), 1);
        assert!(f.truth[0].visibility > 0.9);
        assert!(!f.truth[0].rect.is_empty());
    }

    /// Two scenes built from the same parameters (not clones of each
    /// other) must share one memoized canvas allocation — RGB and the
    /// derived luma — while a different seed gets its own.
    #[test]
    fn identical_scenes_share_one_memoized_canvas() {
        let a = SceneBuilder::new(Resolution::new(96, 64), 20260808)
            .object_default()
            .build();
        let b = SceneBuilder::new(Resolution::new(96, 64), 20260808)
            .object_default()
            .build();
        assert!(Arc::ptr_eq(&a.canvas_rgb(), &b.canvas_rgb()));
        assert!(Arc::ptr_eq(&a.canvas_luma(), &b.canvas_luma()));
        let c = SceneBuilder::new(Resolution::new(96, 64), 20260809)
            .object_default()
            .build();
        assert!(!Arc::ptr_eq(&a.canvas_rgb(), &c.canvas_rgb()));
    }

    #[test]
    fn rendering_is_deterministic() {
        let scene = small_scene();
        let a = scene.renderer().render(5);
        let b = scene.renderer().render(5);
        assert_eq!(a.rgb, b.rgb);
        assert_eq!(a.truth, b.truth);
    }

    #[test]
    fn frame_iter_matches_direct_rendering() {
        let scene = small_scene();
        let mut direct = scene.renderer();
        let iter = scene.frames(2..6);
        assert_eq!(iter.len(), 4);
        let mut count = 0;
        for frame in iter {
            let expected = direct.render(frame.index);
            assert_eq!(frame.rgb, expected.rgb, "frame {}", frame.index);
            assert_eq!(frame.truth, expected.truth, "frame {}", frame.index);
            count += 1;
        }
        assert_eq!(count, 4);
        assert_eq!(scene.frames(3..3).count(), 0, "empty range yields nothing");
    }

    #[test]
    fn object_moves_between_frames() {
        let scene = small_scene();
        let t0 = scene.ground_truth(0)[0].rect;
        let t10 = scene.ground_truth(10)[0].rect;
        assert!((t10.x - t0.x - 12.0).abs() < 1.0, "moved {}", t10.x - t0.x);
    }

    #[test]
    fn pixels_actually_change_with_motion() {
        let scene = small_scene();
        let mut r = scene.renderer();
        let a = r.render(0);
        let b = r.render(8);
        let diff = a
            .rgb
            .samples()
            .iter()
            .zip(b.rgb.samples())
            .filter(|(x, y)| x != y)
            .count();
        assert!(diff > 200, "only {diff} pixels changed");
    }

    #[test]
    fn occlusion_reduces_visibility() {
        let base = small_scene();
        let target = base.objects()[0].clone();
        let occluder_box = target.world_bbox(20.0, Vec2f::ZERO);
        let c = occluder_box.center();
        let scene = SceneBuilder::new(Resolution::new(128, 96), 7)
            .object(target)
            .object(SceneObject {
                id: 0,
                label: OCCLUDER_LABEL,
                sprite: Sprite::rigid(
                    occluder_box.w,
                    occluder_box.h,
                    Shape::Rectangle,
                    Texture::flat_gray(),
                ),
                trajectory: Trajectory::Still(c),
                scale: Profile::one(),
                rotation: Profile::zero(),
                aspect: Profile::one(),
                z: 5,
                enter_frame: 0.0,
                exit_frame: f64::INFINITY,
                tracked: false,
            })
            .build();
        let gt = scene.ground_truth(20);
        assert_eq!(gt.len(), 1, "occluder must not appear in ground truth");
        assert!(
            gt[0].visibility < 0.2,
            "visibility {} should be low under full occlusion",
            gt[0].visibility
        );
        // Away from the occluder, visibility recovers.
        let gt0 = scene.ground_truth(0);
        assert!(gt0[0].visibility > gt[0].visibility);
    }

    #[test]
    fn out_of_view_object_has_empty_truth_rect() {
        let scene = SceneBuilder::new(Resolution::new(128, 96), 3)
            .object(SceneObject {
                id: 0,
                label: 1,
                sprite: Sprite::rigid(20.0, 20.0, Shape::Rectangle, Texture::flat_gray()),
                trajectory: Trajectory::Linear {
                    start: Vec2f::new(64.0, 48.0),
                    velocity: Vec2f::new(10.0, 0.0),
                },
                scale: Profile::one(),
                rotation: Profile::zero(),
                aspect: Profile::one(),
                z: 1,
                enter_frame: 0.0,
                exit_frame: f64::INFINITY,
                tracked: true,
            })
            .build();
        let gt = scene.ground_truth(50); // x = 564, far out of frame
        assert!(gt[0].rect.is_empty());
        assert_eq!(gt[0].visibility, 0.0);
    }

    #[test]
    fn inactive_objects_are_not_rendered_or_reported() {
        let scene = SceneBuilder::new(Resolution::new(64, 64), 1)
            .object(SceneObject {
                id: 0,
                label: 1,
                sprite: Sprite::rigid(10.0, 10.0, Shape::Rectangle, Texture::flat_gray()),
                trajectory: Trajectory::Still(Vec2f::new(32.0, 32.0)),
                scale: Profile::one(),
                rotation: Profile::zero(),
                aspect: Profile::one(),
                z: 1,
                enter_frame: 10.0,
                exit_frame: 20.0,
                tracked: true,
            })
            .build();
        assert!(scene.ground_truth(5).is_empty());
        assert_eq!(scene.ground_truth(15).len(), 1);
        assert!(scene.ground_truth(25).is_empty());
    }

    #[test]
    fn blur_ground_truth_scales_with_speed_and_exposure() {
        let effects = SceneEffects {
            exposure_blur: 0.5,
            ..SceneEffects::default()
        };
        let scene = SceneBuilder::new(Resolution::new(128, 96), 7)
            .effects(effects)
            .object_default()
            .build();
        let gt = scene.ground_truth(5);
        let expected = 0.5 * gt[0].speed;
        assert!((gt[0].blur - expected).abs() < 1e-9);
    }

    #[test]
    fn rotation_grows_the_bbox() {
        let obj = SceneObject {
            id: 0,
            label: 1,
            sprite: Sprite::rigid(40.0, 10.0, Shape::Rectangle, Texture::flat_gray()),
            trajectory: Trajectory::Still(Vec2f::new(64.0, 48.0)),
            scale: Profile::one(),
            rotation: Profile::Ramp {
                base: 0.0,
                slope: std::f64::consts::PI / 40.0,
            },
            aspect: Profile::one(),
            z: 1,
            enter_frame: 0.0,
            exit_frame: f64::INFINITY,
            tracked: true,
        };
        let b0 = obj.world_bbox(0.0, Vec2f::ZERO);
        let b45 = obj.world_bbox(10.0, Vec2f::ZERO); // 45 degrees
        assert!(b45.h > b0.h + 5.0, "rotated bbox should be taller");
    }

    #[test]
    fn scale_profile_changes_bbox_area() {
        let scene = SceneBuilder::new(Resolution::new(256, 256), 7)
            .object(SceneObject {
                id: 0,
                label: 1,
                sprite: Sprite::rigid(30.0, 30.0, Shape::Ellipse, Texture::flat_gray()),
                trajectory: Trajectory::Still(Vec2f::new(128.0, 128.0)),
                scale: Profile::Ramp {
                    base: 1.0,
                    slope: 0.02,
                },
                rotation: Profile::zero(),
                aspect: Profile::one(),
                z: 1,
                enter_frame: 0.0,
                exit_frame: f64::INFINITY,
                tracked: true,
            })
            .build();
        let a0 = scene.ground_truth(0)[0].rect.area();
        let a50 = scene.ground_truth(50)[0].rect.area();
        assert!((a50 / a0 - 4.0).abs() < 0.2, "ratio {}", a50 / a0);
    }

    #[test]
    fn illumination_changes_brightness() {
        let effects = SceneEffects {
            pixel_noise_sigma: 0.0,
            illumination: Profile::Oscillate {
                base: 1.0,
                amplitude: 0.5,
                period: 20.0,
                phase: 0.0,
            },
            ..SceneEffects::default()
        };
        let scene = SceneBuilder::new(Resolution::new(64, 64), 9)
            .effects(effects)
            .build();
        let mut r = scene.renderer();
        let dark = r.render(15); // sin(2*pi*0.75) = -1 -> gain 0.5
        let bright = r.render(5); // sin(2*pi*0.25) = +1 -> gain 1.5
        let mean = |f: &RgbFrame| {
            f.samples().iter().map(|p| f64::from(p.luma())).sum::<f64>() / f.len() as f64
        };
        assert!(mean(&bright.rgb) > mean(&dark.rgb) * 1.5);
    }

    #[test]
    fn shake_offsets_background() {
        let effects = SceneEffects {
            pixel_noise_sigma: 0.0,
            shake_amplitude: 6.0,
            shake_period: 30.0,
            ..SceneEffects::default()
        };
        let scene = SceneBuilder::new(Resolution::new(64, 64), 11)
            .effects(effects)
            .build();
        let mut r = scene.renderer();
        let a = r.render(0);
        let b = r.render(7);
        assert_ne!(a.rgb, b.rgb, "shake must move the background");
    }
}
