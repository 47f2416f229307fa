//! The sensor-noise model.
//!
//! Additive Gaussian noise appears twice in the frontend: as
//! scene-level pixel noise applied by the [`Renderer`][crate::scene::Renderer]
//! after composition (stream `0xF00D`), and as read noise on the
//! [`ImageSensor`][crate::sensor::ImageSensor]'s RAW mosaic (stream
//! `0x5E45`). Both are realized by [`FastGaussian`], a counter-based
//! model: sample `i` of frame `k` is a pure function `hash(seed, k, i)`
//! fed through a σ-scaled fixed-point inverse-CDF table
//! ([`QuantGauss`]), quantized to the integer pixel domain so
//! application is an `i16` add + clamp per channel. There is no libm on
//! the hot path and no sequential state, so noisy rows are
//! order-independent and the renderer bands them over worker threads
//! with bit-identical output. The model's contract is *statistical*
//! (moments, tails, independence — see
//! `crates/camera/tests/noise_model.rs`) plus determinism golden hashes
//! (`crates/camera/tests/golden.rs`).

use euphrates_common::image::Rgb;
use euphrates_common::rngx::{self, QuantGauss};

/// The noise model that realizes a Gaussian sigma. It has one variant
/// and selects nothing: it is kept only because the `perfbench/`
/// benchmark names [`SensorConfig::noise_model`][crate::sensor::SensorConfig].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NoiseModelKind {
    /// Counter-based inverse-CDF sampling ([`FastGaussian`]).
    #[default]
    FastGaussian,
}

/// Counter-based Gaussian noise addressed at *sample* granularity
/// (sample index = 3 · pixel + channel for RGB rows, the raw linear
/// index for RAW rows), fed through a σ-scaled [`QuantGauss`]
/// inverse-CDF table to an integer offset; application is an `i16`
/// add-and-clamp. Samples are drawn through the windowed lane batch
/// [`QuantGauss::samples24`] — Weyl counters advanced by constant
/// offsets, two SplitMix multiplies each, four 12-bit table lanes per
/// hash — so a chunk of eight RGB pixels costs six hashes (12
/// multiplies) on the aligned fast path, seven when the chunk base
/// straddles a hash, plus 24 check-free table loads; a per-sample walk
/// would pay 24 hashes. Illumination gain folds in through the same 256-entry
/// LUT the noise-free path uses; the common gain = 1 frame skips the
/// LUT entirely so the apply loop is pure add/clamp.
///
/// Call [`begin_frame`][FastGaussian::begin_frame] once per frame, then
/// any row method per scanline. Rows are addressed by `row0`, the
/// linear sample index of the row's first element (`y · width` for
/// pixel rows). The row methods take `&self`, so disjoint rows of one
/// frame can be applied concurrently, in any order (see
/// [`parallel_rows`][euphrates_common::par::parallel_rows]).
///
/// The σ-quantized table is cached across frames (σ is fixed per
/// scene/sensor); `begin_frame` only refreshes the frame key and the
/// gain LUT.
#[derive(Debug)]
pub struct FastGaussian {
    /// σ-scaled table, rebuilt only when σ changes.
    quant: Option<QuantGauss>,
    /// `derive_seed(base, stream, frame)` — the frame's hash key.
    key: u64,
    /// Gain LUT (identity when this frame's gain is 1).
    gain_lut: [u8; 256],
    /// Whether this frame's gain is exactly the identity — selects the
    /// LUT-free apply loops.
    unit_gain: bool,
}

/// The identity gain table.
fn identity_lut() -> [u8; 256] {
    let mut lut = [0u8; 256];
    for (v, out) in lut.iter_mut().enumerate() {
        *out = v as u8;
    }
    lut
}

/// `clamp(v + n)` on the integer pixel domain.
#[inline]
fn add_clamp(v: u8, n: i16) -> u8 {
    (i16::from(v) + n).clamp(0, 255) as u8
}

impl FastGaussian {
    /// Creates the model (idle until [`begin_frame`][Self::begin_frame]).
    pub fn new() -> Self {
        FastGaussian {
            quant: None,
            key: 0,
            gain_lut: identity_lut(),
            unit_gain: true,
        }
    }

    /// Starts a frame: noise is keyed on `(base, stream, frame)` and
    /// applied with the given illumination `gain` (1.0 = none) and
    /// Gaussian `sigma` (callers only invoke the row methods when
    /// `sigma > 0`).
    pub fn begin_frame(&mut self, base: u64, stream: u64, frame: u32, gain: f64, sigma: f64) {
        self.key = rngx::derive_seed(base, stream, u64::from(frame));
        if self.quant.as_ref().is_none_or(|q| q.sigma() != sigma) {
            self.quant = Some(QuantGauss::new(sigma));
        }
        self.unit_gain = (gain - 1.0).abs() <= 1e-9;
        self.gain_lut = if self.unit_gain {
            identity_lut()
        } else {
            crate::scene::gain_lut(gain)
        };
    }

    /// Applies gain + noise to one row of composed RGB pixels.
    #[inline]
    pub fn rgb_row(&self, row0: u64, src: &[Rgb], dst: &mut [Rgb]) {
        if self.unit_gain {
            self.rgb_row_impl::<false>(row0, src, dst);
        } else {
            self.rgb_row_impl::<true>(row0, src, dst);
        }
    }

    /// The row kernel behind [`rgb_row`][Self::rgb_row].
    ///
    /// Eight pixels at a time: deinterleave the chunk into a flat
    /// 24-byte array (gain-free frames skip the LUT load, `GAIN` is a
    /// compile-time split), add/clamp the whole array in one
    /// fixed-width loop, reassemble. The flat loops are what LLVM
    /// vectorizes; values are identical to the per-pixel form.
    #[inline]
    fn rgb_row_impl<const GAIN: bool>(&self, row0: u64, src: &[Rgb], dst: &mut [Rgb]) {
        let q = self.quant.as_ref().expect("begin_frame before rows");
        let key = self.key;
        let lut = &self.gain_lut;
        let mut db = dst.chunks_exact_mut(8);
        let mut sb = src.chunks_exact(8);
        let mut base3 = row0 * 3;
        for (dc, sc) in db.by_ref().zip(sb.by_ref()) {
            let n = q.samples24(key, base3);
            let mut v = [0u8; 24];
            for (k, s) in sc.iter().enumerate() {
                if GAIN {
                    v[3 * k] = lut[s.r as usize];
                    v[3 * k + 1] = lut[s.g as usize];
                    v[3 * k + 2] = lut[s.b as usize];
                } else {
                    v[3 * k] = s.r;
                    v[3 * k + 1] = s.g;
                    v[3 * k + 2] = s.b;
                }
            }
            for (vj, nj) in v.iter_mut().zip(n) {
                *vj = add_clamp(*vj, nj);
            }
            for (k, d) in dc.iter_mut().enumerate() {
                *d = Rgb::new(v[3 * k], v[3 * k + 1], v[3 * k + 2]);
            }
            base3 += 24;
        }
        for (d, s) in db.into_remainder().iter_mut().zip(sb.remainder()) {
            *d = Rgb::new(
                add_clamp(lut[s.r as usize], q.sample_at(key, base3)),
                add_clamp(lut[s.g as usize], q.sample_at(key, base3 + 1)),
                add_clamp(lut[s.b as usize], q.sample_at(key, base3 + 2)),
            );
            base3 += 3;
        }
    }

    /// Gain + noise + BT.601 luma over one row: `dst[i]` equals
    /// `rgb_row(src)[i].luma()` bit for bit, by construction — the
    /// noisy RGB is produced by the same chunk kernel into a 64-pixel
    /// stack tile, which
    /// [`rgb_to_luma_row`][euphrates_common::image::rgb_to_luma_row]
    /// then collapses with its single-multiply exact ÷1000. The noisy
    /// RGB row never exists in full. Keeping the two stages as separate
    /// loops over an L1-resident tile measures *faster* than a
    /// per-pixel fused loop here: fused, LLVM folds the scalar table
    /// loads into the pixel arithmetic and scalarizes the
    /// otherwise-packed add/clamp passes; split, each loop compiles to
    /// its best form (the apply pass to `paddw`/`packuswb`, the luma
    /// pass to a lean scalar magic-multiply walk).
    #[inline]
    pub fn luma_row(&self, row0: u64, src: &[Rgb], dst: &mut [u8]) {
        let mut tile = [Rgb::gray(0); 64];
        for (i, (sc, dc)) in src.chunks(64).zip(dst.chunks_mut(64)).enumerate() {
            let t = &mut tile[..sc.len()];
            self.rgb_row(row0 + (i * 64) as u64, sc, t);
            euphrates_common::image::rgb_to_luma_row(t, dc);
        }
    }

    /// Applies noise in place over one row of single-channel samples
    /// (the sensor RAW path; `row0` is the linear sample index, gain
    /// does not apply).
    pub fn raw_row(&self, row0: u64, dst: &mut [u8]) {
        let q = self.quant.as_ref().expect("begin_frame before rows");
        let key = self.key;
        let mut it = dst.chunks_exact_mut(24);
        let mut base = row0;
        for c in it.by_ref() {
            let n = q.samples24(key, base);
            for (d, nj) in c.iter_mut().zip(n) {
                *d = add_clamp(*d, nj);
            }
            base += 24;
        }
        for d in it.into_remainder() {
            *d = add_clamp(*d, q.sample_at(key, base));
            base += 1;
        }
    }
}

impl Default for FastGaussian {
    fn default() -> Self {
        FastGaussian::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(vals: &[(u8, u8, u8)]) -> Vec<Rgb> {
        vals.iter().map(|&(r, g, b)| Rgb::new(r, g, b)).collect()
    }

    #[test]
    fn fast_rows_are_order_independent() {
        let src = row(&[(50, 60, 70), (80, 90, 100), (1, 2, 3)]);
        let mut m = FastGaussian::new();
        m.begin_frame(7, 0xF00D, 1, 1.0, 3.0);
        let mut a = vec![Rgb::gray(0); 3];
        let mut b = vec![Rgb::gray(0); 3];
        // Same row applied twice, then after an unrelated row, then as
        // a fresh model: all identical.
        m.rgb_row(30, &src, &mut a);
        m.rgb_row(999, &src, &mut b);
        m.rgb_row(30, &src, &mut b);
        assert_eq!(a, b);
        let mut m2 = FastGaussian::new();
        m2.begin_frame(7, 0xF00D, 1, 1.0, 3.0);
        m2.rgb_row(30, &src, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn fast_gain_folds_through_the_lut() {
        // gain 1.3 on channel v must equal the noise-free LUT value
        // plus this pixel's noise offset (sources kept away from the
        // 0/255 clamp so the offset is recoverable from the ungained
        // application).
        let src = row(&[(20, 34, 56), (120, 100, 60)]);
        let mut gained = vec![Rgb::gray(0); 2];
        let mut plain = vec![Rgb::gray(0); 2];
        let mut m = FastGaussian::new();
        m.begin_frame(9, 0xF00D, 2, 1.3, 2.0);
        m.rgb_row(12, &src, &mut gained);
        m.begin_frame(9, 0xF00D, 2, 1.0, 2.0);
        m.rgb_row(12, &src, &mut plain);
        let lut_gain = |v: u8| (f64::from(v) * 1.3).round().clamp(0.0, 255.0) as u8;
        for ((g, p), s) in gained.iter().zip(&plain).zip(&src) {
            for (gc, pc, sc) in [(g.r, p.r, s.r), (g.g, p.g, s.g), (g.b, p.b, s.b)] {
                let n = i16::from(pc) - i16::from(sc);
                assert_eq!(
                    i16::from(gc),
                    (i16::from(lut_gain(sc)) + n).clamp(0, 255),
                    "channel {sc} with noise {n}"
                );
            }
        }
    }

    #[test]
    fn fast_raw_row_is_chunk_invariant() {
        // Splitting a row at any boundary must not change the stream —
        // the property that makes sensor rows independently applicable.
        let base: Vec<u8> = (0..64).map(|i| (i * 3 % 256) as u8).collect();
        let mut whole = base.clone();
        let mut m = FastGaussian::new();
        m.begin_frame(11, 0x5E45, 5, 1.0, 1.5);
        m.raw_row(100, &mut whole);
        for split in [1usize, 2, 3, 31, 63] {
            let mut parts = base.clone();
            m.raw_row(100, &mut parts[..split]);
            m.raw_row(100 + split as u64, &mut parts[split..]);
            assert_eq!(parts, whole, "split at {split}");
        }
    }

    #[test]
    fn luma_row_matches_rgb_row_then_luma() {
        // The tiled luma kernel must equal rgb_row + .luma() bit for
        // bit, across a tile boundary and a ragged chunk tail.
        let src: Vec<Rgb> = (0..101)
            .map(|i| Rgb::new((i * 7) as u8, (i * 13 + 5) as u8, (255 - i * 3) as u8))
            .collect();
        let mut m = FastGaussian::new();
        m.begin_frame(21, 0xF00D, 4, 1.2, 2.5);
        let mut rgb = vec![Rgb::gray(0); src.len()];
        let mut luma = vec![0u8; src.len()];
        m.rgb_row(640, &src, &mut rgb);
        m.luma_row(640, &src, &mut luma);
        let expect: Vec<u8> = rgb.iter().map(|p| p.luma()).collect();
        assert_eq!(luma, expect);
    }
}
