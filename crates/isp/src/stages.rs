//! The classic ISP pipeline stages of Fig. 2: dead-pixel correction and
//! demosaicing in the Bayer domain, then white balance in the RGB domain,
//! and finally motion-compensated temporal denoising.
//!
//! Each stage is a small struct with a `process` method and an
//! operations-per-pixel estimate that feeds the ISP compute model. The
//! stages the pipeline's motion step runs into its own buffers also have
//! a `process_into` form, which `process` wraps. The
//! stages are deliberately simple, standard algorithms — the paper's
//! contribution is not the ISP internals but *exporting* the temporal-
//! denoise stage's motion vectors (§4.2), which [`crate::pipeline`] wires
//! up.

use crate::motion::MotionField;
use euphrates_common::error::{Error, Result};
use euphrates_common::fixed::round_to_u8;
use euphrates_common::image::{
    rgb_to_luma_pixel, rggb_color, BayerFrame, CfaColor, LumaFrame, Rgb, RgbFrame,
};

/// The border dead-pixel correction reads: same-color neighbors in the
/// Bayer mosaic are 2 apart.
const PAD: usize = 2;

/// Dead-pixel correction: replaces samples that deviate strongly from the
/// median of their same-color neighbors (stuck/hot photosites).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeadPixelCorrection {
    /// Deviation (0–255) beyond which a sample is considered dead.
    pub threshold: u8,
}

impl Default for DeadPixelCorrection {
    fn default() -> Self {
        DeadPixelCorrection { threshold: 60 }
    }
}

impl DeadPixelCorrection {
    /// Corrects dead pixels in place, returning the number of corrections.
    pub fn process(&self, raw: &mut BayerFrame) -> u32 {
        let mut padded = Vec::new();
        Self::pad(raw, &mut padded);
        self.correct(&padded, raw)
    }

    /// Writes `raw` with its dead pixels corrected into `out`, returning
    /// the number of corrections. `padded` is scratch, reused across calls
    /// so a stream makes no per-frame allocation.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] if `out` differs from `raw` in
    /// size.
    pub fn process_into(
        &self,
        raw: &BayerFrame,
        out: &mut BayerFrame,
        padded: &mut Vec<u8>,
    ) -> Result<u32> {
        if !out.same_shape(raw) {
            return Err(Error::shape(
                "dead-pixel output differs from the RAW frame in size",
            ));
        }
        Self::pad(raw, padded);
        Ok(self.correct(padded, out))
    }

    /// Writes `raw` with a `PAD`-sample replicated border into `padded`.
    /// Clamp-to-edge is edge replication, so the border gives every pixel
    /// the exact neighbors `at_clamped` would read and leaves no separate
    /// border loop.
    fn pad(raw: &BayerFrame, padded: &mut Vec<u8>) {
        let (w, h) = (raw.width() as usize, raw.height() as usize);
        let pw = w + 2 * PAD;
        padded.resize(pw * (h + 2 * PAD), 0);
        for (py, prow) in padded.chunks_exact_mut(pw).enumerate() {
            let src = raw.row(py.saturating_sub(PAD).min(h - 1) as u32);
            prow[..PAD].fill(src[0]);
            prow[PAD..PAD + w].copy_from_slice(src);
            prow[PAD + w..].fill(src[w - 1]);
        }
    }

    /// The correction kernel: reads the padded frame, writes `out` (of the
    /// unpadded shape).
    fn correct(&self, padded: &[u8], out: &mut BayerFrame) -> u32 {
        let (w, h) = (out.width() as usize, out.height() as usize);
        let pw = w + 2 * PAD;
        let mut corrected = 0u32;
        for y in 0..h {
            let above = &padded[y * pw + PAD..][..w];
            let mid = &padded[(y + PAD) * pw..][..pw];
            let below = &padded[(y + 2 * PAD) * pw + PAD..][..w];
            let (left, centre, right) = (&mid[..w], &mid[PAD..PAD + w], &mid[2 * PAD..]);
            let out = out.row_mut(y as u32);
            for (((o, &v), (&l, &r)), (&a, &b)) in out
                .iter_mut()
                .zip(centre)
                .zip(left.iter().zip(right))
                .zip(above.iter().zip(below))
            {
                // The median of four is the midpoint of the middle two,
                // whose sum is the total less the extremes.
                let lo = l.min(r).min(a.min(b));
                let hi = l.max(r).max(a.max(b));
                let sum = u16::from(l) + u16::from(r) + u16::from(a) + u16::from(b);
                let median = ((sum - u16::from(lo) - u16::from(hi)) >> 1) as u8;
                let dead = v.abs_diff(median) > self.threshold;
                *o = if dead { median } else { v };
                corrected += u32::from(dead);
            }
        }
        corrected
    }

    /// Arithmetic operations per pixel (4 loads, sort network, compare).
    pub fn ops_per_pixel(&self) -> u64 {
        12
    }
}

/// Bilinear demosaicing of the RGGB mosaic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Demosaic;

impl Demosaic {
    /// Reconstructs a full RGB frame from the Bayer mosaic.
    ///
    /// # Errors
    ///
    /// Propagates plane-construction failures (zero-sized frames cannot be
    /// constructed, so in practice this does not fail).
    pub fn process(&self, raw: &BayerFrame) -> Result<RgbFrame> {
        let mut rgb = RgbFrame::new(raw.width(), raw.height())?;
        self.process_into(raw, &mut rgb)?;
        Ok(rgb)
    }

    /// Reconstructs the Bayer mosaic into `rgb`, overwriting every pixel.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] if `rgb` differs from `raw` in
    /// size.
    pub fn process_into(&self, raw: &BayerFrame, rgb: &mut RgbFrame) -> Result<()> {
        if !rgb.same_shape(raw) {
            return Err(Error::shape(
                "demosaic output differs from the RAW frame in size",
            ));
        }
        let (w, h) = (raw.width(), raw.height());
        // Interior: the whole 3×3 stencil is in frame, so every neighbor
        // the RGGB pattern names is present and the averages divide by a
        // fixed 4 (cross, diagonal) or 2 (horizontal, vertical).
        for y in 1..h.saturating_sub(1) {
            let (above, mid, below) = (raw.row(y - 1), raw.row(y), raw.row(y + 1));
            let even_row = y & 1 == 0;
            let out = rgb.row_mut(y);
            for x in 1..(w as usize).saturating_sub(1) {
                let v = mid[x];
                let (left, right) = (u16::from(mid[x - 1]), u16::from(mid[x + 1]));
                let (up, down) = (u16::from(above[x]), u16::from(below[x]));
                let cross = ((left + right + up + down) >> 2) as u8;
                let diag = ((u16::from(above[x - 1])
                    + u16::from(above[x + 1])
                    + u16::from(below[x - 1])
                    + u16::from(below[x + 1]))
                    >> 2) as u8;
                let horiz = ((left + right) >> 1) as u8;
                let vert = ((up + down) >> 1) as u8;
                out[x] = match (even_row, x & 1 == 0) {
                    (true, true) => Rgb::new(v, cross, diag),
                    (true, false) => Rgb::new(horiz, v, vert),
                    (false, true) => Rgb::new(vert, v, horiz),
                    (false, false) => Rgb::new(diag, cross, v),
                };
            }
        }
        // Border: the clamped stencil repeats samples and can change which
        // colors it reaches, so these keep the general averaging. The
        // first and last rows are visited whole, the others at their
        // first and last column.
        for y in 0..h {
            let step = if y == 0 || y + 1 == h {
                1
            } else {
                (w - 1).max(1)
            };
            for x in (0..w).step_by(step as usize) {
                rgb.set(x, y, Self::border_pixel(raw, x, y));
            }
        }
        Ok(())
    }

    /// One output pixel from the clamp-to-edge stencil: each missing
    /// channel averages the clamped neighbor samples of that CFA color.
    fn border_pixel(raw: &BayerFrame, x: u32, y: u32) -> Rgb {
        let (w, h) = (raw.width(), raw.height());
        let avg = |c: CfaColor, offsets: &[(i64, i64)]| -> u8 {
            let mut sum = 0u32;
            let mut n = 0u32;
            for &(dx, dy) in offsets {
                let cx = (i64::from(x) + dx).clamp(0, i64::from(w) - 1) as u32;
                let cy = (i64::from(y) + dy).clamp(0, i64::from(h) - 1) as u32;
                if rggb_color(cx, cy) == c {
                    sum += u32::from(raw.at(cx, cy));
                    n += 1;
                }
            }
            sum.checked_div(n).unwrap_or(0) as u8
        };
        type Offsets = [(i64, i64)];
        const CROSS: &Offsets = &[(-1, 0), (1, 0), (0, -1), (0, 1)];
        const DIAG: &Offsets = &[(-1, -1), (1, -1), (-1, 1), (1, 1)];
        const HORIZ: &Offsets = &[(-1, 0), (1, 0)];
        const VERT: &Offsets = &[(0, -1), (0, 1)];
        let v = raw.at(x, y);
        match rggb_color(x, y) {
            CfaColor::Red => Rgb::new(v, avg(CfaColor::Green, CROSS), avg(CfaColor::Blue, DIAG)),
            CfaColor::Blue => Rgb::new(avg(CfaColor::Red, DIAG), avg(CfaColor::Green, CROSS), v),
            CfaColor::Green => {
                // Red neighbors are horizontal on even rows,
                // vertical on odd rows (RGGB).
                let (r_off, b_off) = if y & 1 == 0 {
                    (HORIZ, VERT)
                } else {
                    (VERT, HORIZ)
                };
                Rgb::new(avg(CfaColor::Red, r_off), v, avg(CfaColor::Blue, b_off))
            }
        }
    }

    /// Arithmetic operations per pixel.
    pub fn ops_per_pixel(&self) -> u64 {
        10
    }
}

/// Gray-world auto white balance: scales R and B so the channel means match
/// the green mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WhiteBalance {
    /// Maximum per-channel gain (guards against division blow-up on
    /// pathological frames).
    pub max_gain: f64,
}

impl Default for WhiteBalance {
    fn default() -> Self {
        WhiteBalance { max_gain: 4.0 }
    }
}

impl WhiteBalance {
    /// Returns the gray-world `(r, b)` gains and balances the frame in
    /// place with them. When both gains are within 1e-3 of 1 they are
    /// still returned, but the frame is left as it is.
    pub fn process(&self, rgb: &mut RgbFrame) -> (f64, f64) {
        let gains = self.gains(rgb);
        if let Some(tables) = WbTables::for_gains(gains) {
            tables.apply(rgb);
        }
        gains
    }

    /// The gray-world `(r, b)` gains of a frame: the green channel sum
    /// over each other channel's, clamped to `[1/max_gain, max_gain]`.
    pub(crate) fn gains(&self, rgb: &RgbFrame) -> (f64, f64) {
        // Exact integer channel sums. Every partial sum stays below 2⁵³,
        // so their f64 values equal a running f64 accumulation's.
        let mut sums = [0u64; 3];
        for p in rgb.samples() {
            sums[0] += u64::from(p.r);
            sums[1] += u64::from(p.g);
            sums[2] += u64::from(p.b);
        }
        let sums = sums.map(|s| s as f64);
        let gain = |target: f64, actual: f64| -> f64 {
            if actual <= 0.0 {
                1.0
            } else {
                (target / actual).clamp(1.0 / self.max_gain, self.max_gain)
            }
        };
        (gain(sums[1], sums[0]), gain(sums[1], sums[2]))
    }

    /// Arithmetic operations per pixel.
    pub fn ops_per_pixel(&self) -> u64 {
        5
    }
}

/// The two tables one frame's white-balance gains apply through: red and
/// blue each map through their gain's 256 rounded values, and green
/// passes through.
pub(crate) struct WbTables {
    r: [u8; 256],
    b: [u8; 256],
}

impl WbTables {
    /// The tables for `(r, b)` gains, or `None` when both are within 1e-3
    /// of 1, where white balance leaves the frame as it is.
    pub(crate) fn for_gains((rg, bg): (f64, f64)) -> Option<Self> {
        let applied = (rg - 1.0).abs() > 1e-3 || (bg - 1.0).abs() > 1e-3;
        let lut = |g: f64| -> [u8; 256] {
            std::array::from_fn(|v| (f64::from(v as u8) * g).round().clamp(0.0, 255.0) as u8)
        };
        applied.then(|| WbTables {
            r: lut(rg),
            b: lut(bg),
        })
    }

    /// One pixel, balanced.
    #[inline]
    fn balance(&self, p: Rgb) -> Rgb {
        Rgb::new(self.r[usize::from(p.r)], p.g, self.b[usize::from(p.b)])
    }

    /// Balances a frame in place.
    fn apply(&self, rgb: &mut RgbFrame) {
        for p in rgb.samples_mut() {
            *p = self.balance(*p);
        }
    }

    /// The luma of `src`'s balanced pixels: bit-equal to
    /// [`rgb_to_luma_row`][euphrates_common::image::rgb_to_luma_row] over
    /// the row [`apply`][WbTables::apply] would leave, without writing it.
    pub(crate) fn luma_row(&self, src: &[Rgb], dst: &mut [u8]) {
        for (d, &s) in dst.iter_mut().zip(src) {
            *d = rgb_to_luma_pixel(self.balance(s));
        }
    }
}

/// Motion-compensated temporal denoising — the stage that *generates* the
/// motion vectors Euphrates exposes (Fig. 7).
///
/// Each pixel is blended with its motion-compensated counterpart from the
/// previous frame; the blend weight scales with the block confidence so
/// badly matched blocks fall back to the noisy current pixel rather than
/// ghosting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TemporalDenoise {
    /// Maximum blend weight toward the previous frame (0.5 = equal blend).
    pub strength: f64,
}

impl Default for TemporalDenoise {
    fn default() -> Self {
        TemporalDenoise { strength: 0.5 }
    }
}

impl TemporalDenoise {
    /// Denoises `cur` against the previous denoised luma using the motion
    /// field, returning the denoised luma plane.
    ///
    /// # Errors
    ///
    /// Returns a shape error if the field's resolution differs from the
    /// frames'.
    pub fn process(
        &self,
        cur: &LumaFrame,
        prev_denoised: &LumaFrame,
        field: &MotionField,
    ) -> Result<LumaFrame> {
        let mut out = LumaFrame::new(cur.width(), cur.height())?;
        self.process_into(cur, prev_denoised, field, &mut out)?;
        Ok(out)
    }

    /// [`process`][TemporalDenoise::process] into `out`, overwriting every
    /// pixel.
    ///
    /// # Errors
    ///
    /// Returns a shape error if the previous frame, the field's
    /// resolution or `out` differs from `cur` in size.
    pub fn process_into(
        &self,
        cur: &LumaFrame,
        prev_denoised: &LumaFrame,
        field: &MotionField,
        out: &mut LumaFrame,
    ) -> Result<()> {
        if !cur.same_shape(prev_denoised) {
            return Err(Error::shape("current and previous frames differ in size"));
        }
        if field.resolution().width != cur.width() || field.resolution().height != cur.height() {
            return Err(Error::shape("motion field resolution differs from frame"));
        }
        if !out.same_shape(cur) {
            return Err(Error::shape(
                "denoise output differs from the frame in size",
            ));
        }
        let (w, h) = (i64::from(cur.width()), i64::from(cur.height()));
        for by in 0..field.blocks_y() {
            for bx in 0..field.blocks_x() {
                let mv = field.at_block(bx, by);
                let conf = field.confidence(bx, by);
                let weight = self.strength * conf;
                let keep = 1.0 - weight;
                let rect = field.block_rect(bx, by);
                let (x0, y0) = (rect.x as usize, rect.y as usize);
                let (bw, bh) = (rect.w as usize, rect.h as usize);
                let blend = |c: u8, p: u8| round_to_u8(f64::from(c) * keep + f64::from(p) * weight);
                // Column of the displaced block's left edge in `prev`. Rows
                // clamp to the frame; only a block displaced past a side
                // edge clamps per pixel.
                let sx = x0 as i64 - i64::from(mv.v.x);
                let inside = sx >= 0 && sx + bw as i64 <= w;
                for y in y0..y0 + bh {
                    let sy = (y as i64 - i64::from(mv.v.y)).clamp(0, h - 1);
                    let p_row = prev_denoised.row(sy as u32);
                    let c_row = &cur.row(y as u32)[x0..x0 + bw];
                    let o_row = &mut out.row_mut(y as u32)[x0..x0 + bw];
                    if inside {
                        let p_row = &p_row[sx as usize..sx as usize + bw];
                        for ((o, &c), &p) in o_row.iter_mut().zip(c_row).zip(p_row) {
                            *o = blend(c, p);
                        }
                    } else {
                        for (i, (o, &c)) in o_row.iter_mut().zip(c_row).enumerate() {
                            *o = blend(c, p_row[(sx + i as i64).clamp(0, w - 1) as usize]);
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Arithmetic operations per pixel (blend only; motion estimation is
    /// accounted separately by the block matcher's cost model).
    pub fn ops_per_pixel(&self) -> u64 {
        4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::motion::{BlockMatcher, SearchStrategy};
    use euphrates_common::image::Resolution;
    use euphrates_common::rngx;

    fn noisy_gray(width: u32, height: u32, base: u8, sigma: f64, seed: u64) -> LumaFrame {
        let mut rng = rngx::derived_rng(seed, 1, 1);
        let mut f = LumaFrame::new(width, height).unwrap();
        for px in f.samples_mut() {
            *px = (f64::from(base) + rngx::gaussian(&mut rng, 0.0, sigma))
                .round()
                .clamp(0.0, 255.0) as u8;
        }
        f
    }

    #[test]
    fn dead_pixel_correction_fixes_hot_pixels() {
        let mut raw = BayerFrame::new(16, 16).unwrap();
        for px in raw.samples_mut() {
            *px = 100;
        }
        raw.set(8, 8, 255); // hot
        raw.set(4, 4, 0); // dead
        let dpc = DeadPixelCorrection::default();
        let fixed = dpc.process(&mut raw);
        assert_eq!(fixed, 2);
        assert_eq!(raw.at(8, 8), 100);
        assert_eq!(raw.at(4, 4), 100);
    }

    #[test]
    fn dead_pixel_correction_leaves_clean_frames_alone() {
        let mut raw = BayerFrame::new(16, 16).unwrap();
        for (i, px) in raw.samples_mut().iter_mut().enumerate() {
            *px = 90 + (i % 16) as u8; // gentle gradient
        }
        let before = raw.clone();
        let fixed = DeadPixelCorrection::default().process(&mut raw);
        assert_eq!(fixed, 0);
        assert_eq!(raw, before);
    }

    #[test]
    fn demosaic_recovers_solid_color() {
        // A solid color mosaiced then demosaiced should come back exactly.
        let color = Rgb::new(180, 120, 60);
        let mut raw = BayerFrame::new(16, 16).unwrap();
        for y in 0..16 {
            for x in 0..16 {
                let v = match rggb_color(x, y) {
                    CfaColor::Red => color.r,
                    CfaColor::Green => color.g,
                    CfaColor::Blue => color.b,
                };
                raw.set(x, y, v);
            }
        }
        let rgb = Demosaic.process(&raw).unwrap();
        for y in 0..16 {
            for x in 0..16 {
                assert_eq!(rgb.at(x, y), color, "at ({x},{y})");
            }
        }
    }

    #[test]
    fn demosaic_preserves_native_samples() {
        let mut raw = BayerFrame::new(8, 8).unwrap();
        for (i, px) in raw.samples_mut().iter_mut().enumerate() {
            *px = (i * 3 % 251) as u8;
        }
        let rgb = Demosaic.process(&raw).unwrap();
        // Each photosite's own channel passes through unchanged.
        assert_eq!(rgb.at(0, 0).r, raw.at(0, 0));
        assert_eq!(rgb.at(1, 0).g, raw.at(1, 0));
        assert_eq!(rgb.at(1, 1).b, raw.at(1, 1));
    }

    #[test]
    fn white_balance_equalizes_channel_means() {
        let mut rgb = RgbFrame::new(32, 32).unwrap();
        for p in rgb.samples_mut() {
            *p = Rgb::new(50, 100, 200); // strong blue cast
        }
        let (rg, bg) = WhiteBalance::default().process(&mut rgb);
        assert!(rg > 1.5, "red gain {rg}");
        assert!(bg < 0.75, "blue gain {bg}");
        let p = rgb.at(0, 0);
        assert!(p.r.abs_diff(p.g) <= 2);
        assert!(p.b.abs_diff(p.g) <= 2);
    }

    #[test]
    fn white_balance_is_noop_on_neutral_frames() {
        let mut rgb = RgbFrame::new(8, 8).unwrap();
        for p in rgb.samples_mut() {
            *p = Rgb::gray(128);
        }
        let before = rgb.clone();
        let (rg, bg) = WhiteBalance::default().process(&mut rgb);
        assert!((rg - 1.0).abs() < 1e-9 && (bg - 1.0).abs() < 1e-9);
        assert_eq!(rgb, before);
    }

    #[test]
    fn white_balance_clamps_extreme_gains() {
        let mut rgb = RgbFrame::new(8, 8).unwrap();
        for p in rgb.samples_mut() {
            *p = Rgb::new(1, 200, 200);
        }
        let (rg, _) = WhiteBalance::default().process(&mut rgb);
        assert!(rg <= 4.0);
    }

    #[test]
    fn temporal_denoise_reduces_noise_variance() {
        let res = Resolution::new(64, 64);
        let clean = 128u8;
        let a = noisy_gray(64, 64, clean, 8.0, 1);
        let b = noisy_gray(64, 64, clean, 8.0, 2);
        let matcher = BlockMatcher::new(16, 7, SearchStrategy::ThreeStep).unwrap();
        let field = matcher.estimate(&b, &a).unwrap();
        let _ = res;
        let out = TemporalDenoise::default().process(&b, &a, &field).unwrap();
        let var = |f: &LumaFrame| {
            let mean = f.samples().iter().map(|&v| f64::from(v)).sum::<f64>() / f.len() as f64;
            f.samples()
                .iter()
                .map(|&v| (f64::from(v) - mean).powi(2))
                .sum::<f64>()
                / f.len() as f64
        };
        assert!(
            var(&out) < var(&b) * 0.8,
            "denoised variance {} vs input {}",
            var(&out),
            var(&b)
        );
    }

    #[test]
    fn temporal_denoise_rejects_mismatched_shapes() {
        let a = LumaFrame::new(64, 64).unwrap();
        let b = LumaFrame::new(32, 32).unwrap();
        let field = MotionField::zeroed(Resolution::new(64, 64), 16, 7).unwrap();
        assert!(TemporalDenoise::default().process(&a, &b, &field).is_err());
        let field32 = MotionField::zeroed(Resolution::new(32, 32), 16, 7).unwrap();
        assert!(TemporalDenoise::default()
            .process(&a, &a, &field32)
            .is_err());
    }

    #[test]
    fn into_forms_reject_wrong_size_outputs() {
        let raw = BayerFrame::new(16, 16).unwrap();
        let mut small = BayerFrame::new(16, 8).unwrap();
        let dpc = DeadPixelCorrection::default();
        assert!(dpc.process_into(&raw, &mut small, &mut Vec::new()).is_err());
        let mut rgb = RgbFrame::new(8, 16).unwrap();
        assert!(Demosaic.process_into(&raw, &mut rgb).is_err());
        let field = MotionField::zeroed(Resolution::new(16, 16), 16, 7).unwrap();
        let td = TemporalDenoise::default();
        assert!(td.process_into(&raw, &raw, &field, &mut small).is_err());
    }

    #[test]
    fn ops_estimates_are_positive() {
        assert!(DeadPixelCorrection::default().ops_per_pixel() > 0);
        assert!(Demosaic.ops_per_pixel() > 0);
        assert!(WhiteBalance::default().ops_per_pixel() > 0);
        assert!(TemporalDenoise::default().ops_per_pixel() > 0);
    }
}
