//! Image containers: generic planes and the pixel formats used across the
//! vision pipeline.
//!
//! The frontend produces frames in three formats, mirroring Fig. 2 of the
//! paper:
//!
//! * [`BayerFrame`] — RAW sensor output, one color sample per photosite in
//!   an RGGB mosaic (what the camera sends over MIPI CSI).
//! * [`RgbFrame`] — demosaiced output of the ISP's RGB-domain stages.
//! * [`LumaFrame`] — the luminance plane the motion-estimation and
//!   temporal-denoise stages operate on.

use crate::error::{Error, Result};
use std::fmt;

/// A rectangular plane of samples of type `T`, stored row-major without
/// padding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plane<T> {
    width: u32,
    height: u32,
    data: Vec<T>,
}

impl<T: Copy + Default> Plane<T> {
    /// Creates a plane filled with `T::default()`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if either dimension is zero.
    pub fn new(width: u32, height: u32) -> Result<Self> {
        if width == 0 || height == 0 {
            return Err(Error::config(format!(
                "plane dimensions must be positive, got {width}x{height}"
            )));
        }
        Ok(Plane {
            width,
            height,
            data: vec![T::default(); width as usize * height as usize],
        })
    }

    /// Creates a plane from existing row-major data.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if either dimension is zero
    /// (matching [`new`][Plane::new]) or [`Error::ShapeMismatch`] if
    /// `data.len() != width * height`.
    pub fn from_vec(width: u32, height: u32, data: Vec<T>) -> Result<Self> {
        if width == 0 || height == 0 {
            return Err(Error::config(format!(
                "plane dimensions must be positive, got {width}x{height}"
            )));
        }
        if data.len() != width as usize * height as usize {
            return Err(Error::shape(format!(
                "expected {} samples for {width}x{height}, got {}",
                width as usize * height as usize,
                data.len()
            )));
        }
        Ok(Plane {
            width,
            height,
            data,
        })
    }
}

impl<T: Copy> Plane<T> {
    /// Plane width in samples.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Plane height in samples.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Total number of samples.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` only for planes that could not be constructed (never: the
    /// constructors reject zero-sized planes), provided for API completeness.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Sample at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if `(x, y)` is out of bounds. Use [`Plane::get`] for a checked
    /// variant.
    #[inline]
    pub fn at(&self, x: u32, y: u32) -> T {
        debug_assert!(x < self.width && y < self.height);
        self.data[y as usize * self.width as usize + x as usize]
    }

    /// Checked sample access.
    #[inline]
    pub fn get(&self, x: u32, y: u32) -> Option<T> {
        if x < self.width && y < self.height {
            Some(self.data[y as usize * self.width as usize + x as usize])
        } else {
            None
        }
    }

    /// Sample at `(x, y)` with clamp-to-edge semantics for out-of-range
    /// coordinates (used by stencil stages at frame borders).
    #[inline]
    pub fn at_clamped(&self, x: i64, y: i64) -> T {
        let cx = x.clamp(0, i64::from(self.width) - 1) as u32;
        let cy = y.clamp(0, i64::from(self.height) - 1) as u32;
        self.at(cx, cy)
    }

    /// Writes the sample at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, x: u32, y: u32, v: T) {
        debug_assert!(x < self.width && y < self.height);
        self.data[y as usize * self.width as usize + x as usize] = v;
    }

    /// Row `y` as a slice.
    #[inline]
    pub fn row(&self, y: u32) -> &[T] {
        let w = self.width as usize;
        &self.data[y as usize * w..(y as usize + 1) * w]
    }

    /// Row `y` as a mutable slice (the scanline renderer's write path:
    /// whole rows are blitted with `copy_from_slice`).
    #[inline]
    pub fn row_mut(&mut self, y: u32) -> &mut [T] {
        let w = self.width as usize;
        &mut self.data[y as usize * w..(y as usize + 1) * w]
    }

    /// Copies every sample from `src`, which must have the same shape.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    #[inline]
    pub fn copy_from(&mut self, src: &Plane<T>) {
        assert!(self.same_shape(src), "copy_from requires identical shapes");
        self.data.copy_from_slice(&src.data);
    }

    /// All samples, row-major.
    pub fn samples(&self) -> &[T] {
        &self.data
    }

    /// All samples, mutably.
    pub fn samples_mut(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// `true` if `other` has identical dimensions.
    pub fn same_shape<U: Copy>(&self, other: &Plane<U>) -> bool {
        self.width == other.width && self.height == other.height
    }
}

/// An 8-bit RGB pixel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct Rgb {
    /// Red channel.
    pub r: u8,
    /// Green channel.
    pub g: u8,
    /// Blue channel.
    pub b: u8,
}

impl Rgb {
    /// Creates a pixel from channel values.
    pub const fn new(r: u8, g: u8, b: u8) -> Self {
        Rgb { r, g, b }
    }

    /// Creates a gray pixel.
    pub const fn gray(v: u8) -> Self {
        Rgb { r: v, g: v, b: v }
    }

    /// BT.601 luma, rounded.
    ///
    /// Computed in integer arithmetic (`(299·r + 587·g + 114·b + 500) /
    /// 1000`) with a float fallback on exact decimal `.5` ties, which is
    /// bit-identical to the original `f64` expression over all 2²⁴
    /// inputs (the `luma_integer_path_matches_float_exhaustively` test
    /// sweeps every one) while keeping the libm `round` call off the
    /// per-pixel hot path.
    pub fn luma(self) -> u8 {
        let s = 299 * u32::from(self.r) + 587 * u32::from(self.g) + 114 * u32::from(self.b);
        if (s + 500) % 1000 == 0 {
            // Exact half: defer to the original float expression, whose
            // representation error decides the tie.
            Self::luma_f64(self)
        } else {
            ((s + 500) / 1000) as u8
        }
    }

    /// The original floating-point luma expression (reference
    /// implementation; the tie path of [`luma`][Rgb::luma]).
    fn luma_f64(self) -> u8 {
        let y = 0.299 * f64::from(self.r) + 0.587 * f64::from(self.g) + 0.114 * f64::from(self.b);
        y.round().clamp(0.0, 255.0) as u8
    }
}

impl fmt::Display for Rgb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{:02x}{:02x}{:02x}", self.r, self.g, self.b)
    }
}

/// Color filter array position in the RGGB Bayer pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CfaColor {
    /// Red photosite.
    Red,
    /// Green photosite (both rows).
    Green,
    /// Blue photosite.
    Blue,
}

/// Returns the CFA color of photosite `(x, y)` under an RGGB mosaic.
#[inline]
pub fn rggb_color(x: u32, y: u32) -> CfaColor {
    match (y & 1, x & 1) {
        (0, 0) => CfaColor::Red,
        (0, 1) | (1, 0) => CfaColor::Green,
        _ => CfaColor::Blue,
    }
}

/// A grayscale (luminance) frame: one `u8` per pixel.
pub type LumaFrame = Plane<u8>;

/// A demosaiced RGB frame.
pub type RgbFrame = Plane<Rgb>;

/// A RAW Bayer-mosaic frame: one 8-bit sample per photosite (the simulator
/// models an 8-bit readout; real sensors use 10–12 bits, which changes only
/// constants in the power/bandwidth model).
pub type BayerFrame = Plane<u8>;

/// Converts a run of RGB pixels to luma, bit-identical to per-pixel
/// [`Rgb::luma`] but cheaper: one magic multiply yields both the exact
/// `(s+500)/1000` quotient and the exact-half tie predicate.
/// `s·⌈2²⁸/1000⌉ >> 28` equals `s/1000` for every `s ≤ 255 500`, and
/// because `1000·268436 − 2²⁸ = 544`, the low 28 bits of the product
/// fall below `268 436` iff `1000 | s` — proven exhaustively over the
/// whole BT.601 dot range by the `luma_magic_divide_is_exact_*` test.
/// Ties (≈ 1/1000 pixels) defer to [`Rgb::luma`]'s f64 resolution.
pub fn rgb_to_luma_row(src: &[Rgb], dst: &mut [u8]) {
    for (d, s) in dst.iter_mut().zip(src) {
        let sum = 299 * u32::from(s.r) + 587 * u32::from(s.g) + 114 * u32::from(s.b) + 500;
        let p = u64::from(sum) * 268_436;
        *d = if (p & 0x0FFF_FFFF) < 268_436 {
            s.luma()
        } else {
            (p >> 28) as u8
        };
    }
}

/// Converts an RGB frame to its luma plane.
pub fn rgb_to_luma(rgb: &RgbFrame) -> LumaFrame {
    let mut out = Plane::new(rgb.width(), rgb.height()).expect("non-empty source plane");
    rgb_to_luma_row(rgb.samples(), out.samples_mut());
    out
}

/// The pyramid level dimensions [`downsample2`] produces for a source
/// plane: halved in each dimension, floored, clamped to at least 1.
pub fn downsample2_dims(src: &LumaFrame) -> (u32, u32) {
    ((src.width() / 2).max(1), (src.height() / 2).max(1))
}

/// Downsamples a luma plane by 2× in each dimension with a 2×2 box
/// filter (odd trailing rows/columns are dropped). This is the pyramid
/// level used by hierarchical motion search; frames smaller than 2×2 are
/// returned as a 1×1 plane holding the corner sample.
pub fn downsample2(src: &LumaFrame) -> LumaFrame {
    let (w, h) = downsample2_dims(src);
    let mut out = LumaFrame::new(w, h).expect("halved dimensions stay positive");
    downsample2_into(src, &mut out);
    out
}

/// [`downsample2`] into a caller-owned plane (resized if its shape does
/// not match [`downsample2_dims`]), so a streaming caller can reuse one
/// pyramid buffer per frame slot — O(1) allocations in steady state. The
/// hot path walks row-slice pairs; output is bit-identical to the
/// original per-sample formulation (`(a + b + c + d + 2) / 4` on the
/// same four samples).
pub fn downsample2_into(src: &LumaFrame, out: &mut LumaFrame) {
    let (w, h) = downsample2_dims(src);
    if out.width() != w || out.height() != h {
        *out = LumaFrame::new(w, h).expect("halved dimensions stay positive");
    }
    if src.width() < 2 || src.height() < 2 {
        // Degenerate 1-wide / 1-high sources: the 2×2 cell clamps onto
        // the corner sample (kept out of the sliced fast path below).
        for y in 0..h {
            for x in 0..w {
                let (x0, y0) = (2 * x, 2 * y);
                let sum = u16::from(src.at_clamped(i64::from(x0), i64::from(y0)))
                    + u16::from(src.at_clamped(i64::from(x0) + 1, i64::from(y0)))
                    + u16::from(src.at_clamped(i64::from(x0), i64::from(y0) + 1))
                    + u16::from(src.at_clamped(i64::from(x0) + 1, i64::from(y0) + 1));
                out.set(x, y, ((sum + 2) / 4) as u8);
            }
        }
        return;
    }
    for y in 0..h {
        let top = src.row(2 * y);
        let bot = src.row(2 * y + 1);
        for (x, d) in out.row_mut(y).iter_mut().enumerate() {
            let x0 = 2 * x;
            let sum = u16::from(top[x0])
                + u16::from(top[x0 + 1])
                + u16::from(bot[x0])
                + u16::from(bot[x0 + 1]);
            *d = ((sum + 2) / 4) as u8;
        }
    }
}

/// Frame resolution in pixels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Resolution {
    /// Width in pixels.
    pub width: u32,
    /// Height in pixels.
    pub height: u32,
}

impl Resolution {
    /// 640×480, the paper's Fig. 1 reference resolution.
    pub const VGA: Resolution = Resolution {
        width: 640,
        height: 480,
    };
    /// 1920×1080, the capture setting of Table 1.
    pub const FULL_HD: Resolution = Resolution {
        width: 1920,
        height: 1080,
    };

    /// Creates a resolution.
    pub const fn new(width: u32, height: u32) -> Self {
        Resolution { width, height }
    }

    /// Total pixel count.
    pub const fn pixels(&self) -> u64 {
        self.width as u64 * self.height as u64
    }

    /// Number of `mb × mb` macroblocks covering the frame (partial edge
    /// blocks are counted, matching the ISP's padding behaviour).
    pub const fn macroblocks(&self, mb: u32) -> (u32, u32) {
        (self.width.div_ceil(mb), self.height.div_ceil(mb))
    }
}

impl fmt::Display for Resolution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}", self.width, self.height)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plane_rejects_zero_dimensions() {
        assert!(Plane::<u8>::new(0, 10).is_err());
        assert!(Plane::<u8>::new(10, 0).is_err());
    }

    #[test]
    fn plane_from_vec_validates_length() {
        assert!(Plane::from_vec(2, 2, vec![0u8; 3]).is_err());
        assert!(Plane::from_vec(2, 2, vec![0u8; 4]).is_ok());
    }

    #[test]
    fn plane_indexing_is_row_major() {
        let mut p = Plane::<u8>::new(3, 2).unwrap();
        p.set(2, 1, 99);
        assert_eq!(p.samples()[5], 99);
        assert_eq!(p.at(2, 1), 99);
        assert_eq!(p.get(3, 0), None);
        assert_eq!(p.get(0, 2), None);
    }

    #[test]
    fn clamped_access_extends_edges() {
        let mut p = Plane::<u8>::new(2, 2).unwrap();
        p.set(0, 0, 10);
        p.set(1, 1, 20);
        assert_eq!(p.at_clamped(-5, -5), 10);
        assert_eq!(p.at_clamped(10, 10), 20);
    }

    #[test]
    fn row_slices_have_plane_width() {
        let p = Plane::<u8>::new(7, 3).unwrap();
        assert_eq!(p.row(2).len(), 7);
    }

    #[test]
    fn rggb_pattern_layout() {
        assert_eq!(rggb_color(0, 0), CfaColor::Red);
        assert_eq!(rggb_color(1, 0), CfaColor::Green);
        assert_eq!(rggb_color(0, 1), CfaColor::Green);
        assert_eq!(rggb_color(1, 1), CfaColor::Blue);
        // Pattern repeats with period 2.
        assert_eq!(rggb_color(2, 2), CfaColor::Red);
    }

    #[test]
    fn luma_weights_sum_to_white() {
        assert_eq!(Rgb::new(255, 255, 255).luma(), 255);
        assert_eq!(Rgb::new(0, 0, 0).luma(), 0);
        // Green dominates the luma.
        assert!(Rgb::new(0, 255, 0).luma() > Rgb::new(255, 0, 0).luma());
        assert!(Rgb::new(255, 0, 0).luma() > Rgb::new(0, 0, 255).luma());
    }

    #[test]
    fn luma_integer_path_matches_float_exhaustively() {
        // Debug builds sample the space; release builds (tier-1 runs
        // `cargo test --release` in CI) sweep all 2^24 inputs.
        let step: u32 = if cfg!(debug_assertions) { 7 } else { 1 };
        let mut checked = 0u64;
        for r in (0..=255u32).step_by(step as usize) {
            for g in (0..=255u32).step_by(step as usize) {
                for b in (0..=255u32).step_by(step as usize) {
                    let px = Rgb::new(r as u8, g as u8, b as u8);
                    assert_eq!(px.luma(), px.luma_f64(), "diverged at {px}");
                    checked += 1;
                }
            }
        }
        // 0..=255 step 7 visits ceil(256/7) = 37 values per axis.
        let per_axis = u64::from(256u32.div_ceil(step));
        assert_eq!(checked, per_axis * per_axis * per_axis);
    }

    #[test]
    fn luma_magic_divide_is_exact_over_the_whole_dot_range() {
        // `rgb_to_luma_row` computes (s+500)/1000 and the s+500 ≡ 0
        // (mod 1000) tie predicate from one multiply by ⌈2²⁸/1000⌉.
        // The BT.601 dot is bounded by 255 000, so checking every s in
        // the range is a complete proof of both identities.
        for s in 0u32..=255_000 {
            let sp = s + 500;
            let p = u64::from(sp) * 268_436;
            assert_eq!((p >> 28) as u32, sp / 1000, "quotient at s = {s}");
            assert_eq!(
                (p & 0x0FFF_FFFF) < 268_436,
                sp % 1000 == 0,
                "tie predicate at s = {s}"
            );
        }
    }

    #[test]
    fn rgb_to_luma_row_matches_per_pixel_including_ties() {
        // A dense pseudo-random sweep plus one pixel engineered to hit
        // the exact-half tie path.
        let mut src: Vec<Rgb> = (0..4096u32)
            .map(|i| {
                Rgb::new(
                    (i.wrapping_mul(97) >> 3) as u8,
                    (i.wrapping_mul(193) >> 5) as u8,
                    (i.wrapping_mul(31)) as u8,
                )
            })
            .collect();
        // (0, 0, 250): 114·250 = 28 500, +500 divisible by 1000 — a
        // guaranteed exact-half tie.
        src.push(Rgb::new(0, 0, 250));
        let mut fast = vec![0u8; src.len()];
        rgb_to_luma_row(&src, &mut fast);
        for (f, s) in fast.iter().zip(&src) {
            assert_eq!(*f, s.luma(), "diverged at {s}");
        }
    }

    #[test]
    fn rgb_to_luma_matches_per_pixel() {
        let mut rgb = RgbFrame::new(2, 1).unwrap();
        rgb.set(0, 0, Rgb::new(10, 20, 30));
        rgb.set(1, 0, Rgb::new(200, 100, 50));
        let luma = rgb_to_luma(&rgb);
        assert_eq!(luma.at(0, 0), Rgb::new(10, 20, 30).luma());
        assert_eq!(luma.at(1, 0), Rgb::new(200, 100, 50).luma());
    }

    #[test]
    fn downsample2_box_filters_and_halves() {
        let mut p = LumaFrame::new(4, 4).unwrap();
        for y in 0..4 {
            for x in 0..4 {
                p.set(x, y, (y * 4 + x) as u8 * 10);
            }
        }
        let d = downsample2(&p);
        assert_eq!((d.width(), d.height()), (2, 2));
        // Top-left 2x2 cell: (0 + 10 + 40 + 50 + 2) / 4 = 25.
        assert_eq!(d.at(0, 0), 25);
        // Odd dimensions drop the trailing row/column.
        let odd = LumaFrame::new(5, 3).unwrap();
        let d = downsample2(&odd);
        assert_eq!((d.width(), d.height()), (2, 1));
        // Degenerate 1x1 input stays 1x1.
        let one = LumaFrame::new(1, 1).unwrap();
        assert_eq!(downsample2(&one).len(), 1);
    }

    #[test]
    fn downsample2_into_reuses_and_resizes_buffers() {
        let mut src = LumaFrame::new(9, 7).unwrap();
        for (i, s) in src.samples_mut().iter_mut().enumerate() {
            *s = (i * 37 % 256) as u8;
        }
        // Mis-shaped buffer is resized; values match the allocating form.
        let mut out = LumaFrame::new(3, 3).unwrap();
        downsample2_into(&src, &mut out);
        assert_eq!(out, downsample2(&src));
        assert_eq!((out.width(), out.height()), downsample2_dims(&src));
        // Reuse with a matching shape also matches (stale content is
        // fully overwritten).
        for s in src.samples_mut() {
            *s = s.wrapping_add(91);
        }
        downsample2_into(&src, &mut out);
        assert_eq!(out, downsample2(&src));
        // Degenerate 1-wide source goes through the clamped path.
        let thin = LumaFrame::new(1, 5).unwrap();
        let mut t = LumaFrame::new(1, 1).unwrap();
        downsample2_into(&thin, &mut t);
        assert_eq!(t, downsample2(&thin));
    }

    #[test]
    fn resolution_macroblock_counts_round_up() {
        let r = Resolution::FULL_HD;
        // 1920/16 = 120, 1080/16 = 67.5 -> 68 (paper's 8,100 uses 120x67.5;
        // with edge padding we count 120x68 = 8160 blocks).
        assert_eq!(r.macroblocks(16), (120, 68));
        assert_eq!(Resolution::VGA.macroblocks(16), (40, 30));
    }

    #[test]
    fn resolution_display_and_pixels() {
        assert_eq!(Resolution::VGA.to_string(), "640x480");
        assert_eq!(Resolution::VGA.pixels(), 307_200);
    }
}
