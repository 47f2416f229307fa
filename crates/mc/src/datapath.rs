//! The Motion Controller's 4-wide SIMD fixed-point datapath (Fig. 8).
//!
//! The hardware evaluates Equations 1–3 in Q-format arithmetic: motion
//! vectors arrive as packed 4+4-bit bytes from the MV SRAM, are weighted
//! by integer pixel-overlap counts and accumulated four blocks at a time,
//! divided by the coverage count, and filtered in Q8.8. This module
//! mirrors that datapath operation-for-operation, with a cycle count per
//! call, and is verified against the `f64` reference in
//! [`crate::algorithm`].
//!
//! Each sub-ROI is one pass over [`MotionField::roi_overlaps`]: the
//! weighted sums accumulate as plain integers and become the Q16.16
//! accumulator once, before the divide, and the same pass counts the
//! blocks the op model charges. Rounding (overlap weights, Q8.8
//! confidences) needs no libm call.

use crate::algorithm::ExtrapolationConfig;
use euphrates_common::fixed::{round_half_away, Q16, Q16_FRAC_BITS, Q32, Q32_FRAC_BITS};
use euphrates_common::geom::{Rect, Vec2f};
use euphrates_common::units::Cycles;
use euphrates_isp::motion::MotionField;

/// Packs a motion vector into the 4+4-bit SRAM byte (search range d ≤ 7).
/// Components saturate at ±7.
pub fn pack_mv(vx: i16, vy: i16) -> u8 {
    let cx = vx.clamp(-7, 7) as i8;
    let cy = vy.clamp(-7, 7) as i8;
    (((cx as u8) & 0x0F) << 4) | ((cy as u8) & 0x0F)
}

/// Unpacks a 4+4-bit motion-vector byte.
pub fn unpack_mv(b: u8) -> (i16, i16) {
    // Sign-extend each nibble.
    let sx = ((b >> 4) as i8) << 4 >> 4;
    let sy = ((b & 0x0F) as i8) << 4 >> 4;
    (i16::from(sx), i16::from(sy))
}

/// Q8.8 confidence of a block of `pixels` pixels whose best match scored
/// `sad`: `Q16::from_f64(MotionField::block_confidence(sad, pixels))`
/// bit for bit, rounded without libm (the confidence lies in `[0, 1]`,
/// so the scaled value needs no clamp).
fn confidence_q8(sad: u32, pixels: u32) -> Q16 {
    let scaled = MotionField::block_confidence(sad, pixels) * f64::from(1u32 << Q16_FRAC_BITS);
    Q16::from_raw(round_half_away(scaled) as i16)
}

/// Result of one sub-ROI datapath evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatapathResult {
    /// Filtered motion vector (Q8.8).
    pub mv_x: Q16,
    /// Filtered motion vector (Q8.8).
    pub mv_y: Q16,
    /// ROI confidence (Q8.8, in `[0, 1]`).
    pub confidence: Q16,
    /// Datapath cycles consumed.
    pub cycles: Cycles,
    /// Blocks the sub-ROI intersects (the basis of the op count, which
    /// also charges blocks whose overlap rounds to zero pixels).
    pub blocks: u32,
}

/// The SIMD datapath model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimdDatapath {
    /// SIMD lane count (Table 1: 4).
    pub lanes: u32,
    /// Fixed per-sub-ROI overhead cycles (setup, divide, filter, merge).
    pub overhead_cycles: u32,
}

impl Default for SimdDatapath {
    fn default() -> Self {
        SimdDatapath {
            lanes: 4,
            overhead_cycles: 24,
        }
    }
}

impl SimdDatapath {
    /// Evaluates Equ. 1–3 for one sub-ROI in fixed point, in one pass
    /// over the blocks it covers.
    ///
    /// Block MVs pass through the 4-bit packing (exactly representable for
    /// d ≤ 7); weights are integer pixel-overlap counts; the average runs
    /// in Q16.16; the filter in Q8.8 — matching a realistic RTL datapath.
    ///
    /// The weighted sums are exact integers. A Q8.8 value `v` widened to
    /// Q16.16 and multiplied by the Q16.16 weight `ov` is
    /// `((v·2⁸)·(ov·2¹⁶) + 2¹⁵) >> 16 = v·ov·2⁸` exactly, so the datapath
    /// sums `v·ov` in an `i64` and forms the Q16.16 accumulator once,
    /// before the divide. That equals the per-block saturating Q16.16
    /// sum because nothing saturates: `|v| ≤ 2¹⁵` and each weight is at
    /// most its block's pixel count, so over a frame of up to 2³² pixels
    /// `|Σ v·ov·2⁸| ≤ 2¹⁵·2³²·2⁸ = 2⁵⁵ < 2⁶³`.
    pub fn evaluate(
        &self,
        field: &MotionField,
        sub_roi: &Rect,
        prev_mv: (Q16, Q16),
        config: &ExtrapolationConfig,
    ) -> DatapathResult {
        let packed = field.search_range() <= 7;
        let (mut sum_x, mut sum_y, mut sum_conf) = (0i64, 0i64, 0i64);
        let mut weight: u32 = 0;
        let mut blocks: u32 = 0;
        let mut weighted_blocks: u32 = 0;
        field.roi_overlaps(sub_roi).for_each(|(bx, by, mv, area)| {
            blocks += 1;
            // Integer pixel-overlap weight (hardware counts covered pixels).
            let overlap = round_half_away(area) as u32;
            if overlap == 0 {
                return;
            }
            // Pack/unpack models the 4-bit SRAM storage. For search ranges
            // beyond ±7 the datapath stores full bytes instead; we saturate
            // identically to hardware.
            let (vx, vy) = if packed {
                unpack_mv(pack_mv(mv.v.x, mv.v.y))
            } else {
                (mv.v.x, mv.v.y)
            };
            let ov = i64::from(overlap);
            sum_x += i64::from(Q16::from_int(i32::from(vx)).raw()) * ov;
            sum_y += i64::from(Q16::from_int(i32::from(vy)).raw()) * ov;
            let conf = confidence_q8(mv.sad, field.block_pixels(bx, by));
            sum_conf += i64::from(conf.raw()) * ov;
            weight += overlap;
            weighted_blocks += 1;
        });

        // Q8.8·integer sums → Q16.16, then Equ. 1's divide (zero when the
        // sub-ROI covers no pixel).
        let average = |sum: i64| {
            Q32::from_raw(sum << (Q32_FRAC_BITS - Q16_FRAC_BITS))
                .div_count(weight)
                .narrow()
        };
        let (mu_x, mu_y, alpha) = (average(sum_x), average(sum_y), average(sum_conf));

        // Equ. 3 in Q8.8.
        let threshold = Q16::from_f64(config.confidence_threshold);
        let beta = if alpha > threshold { alpha } else { Q16::HALF };
        let one_minus_beta = Q16::ONE - beta;
        let (mv_x, mv_y) = if config.filter {
            (
                mu_x * beta + prev_mv.0 * one_minus_beta,
                mu_y * beta + prev_mv.1 * one_minus_beta,
            )
        } else {
            (mu_x, mu_y)
        };

        // Cycle model: blocks processed `lanes` at a time, two MAC chains
        // (x, y) plus the confidence chain share the SIMD unit over three
        // passes; plus fixed overhead.
        let groups = u64::from(weighted_blocks).div_ceil(u64::from(self.lanes));
        let cycles = Cycles(3 * groups + u64::from(self.overhead_cycles));

        DatapathResult {
            mv_x,
            mv_y,
            confidence: alpha,
            cycles,
            blocks,
        }
    }

    /// Converts a datapath MV to the `f64` vector used by the pipeline.
    pub fn to_vec2f(result: &DatapathResult) -> Vec2f {
        Vec2f::new(result.mv_x.to_f64(), result.mv_y.to_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::{filter_mv, roi_average_motion};
    use euphrates_common::geom::Vec2i;
    use euphrates_common::image::{LumaFrame, Resolution};
    use euphrates_common::rngx;
    use euphrates_isp::motion::{BlockMatcher, MotionVector, SearchStrategy};

    #[test]
    fn pack_unpack_roundtrips_search_range_7() {
        for vx in -7..=7i16 {
            for vy in -7..=7i16 {
                assert_eq!(unpack_mv(pack_mv(vx, vy)), (vx, vy), "({vx},{vy})");
            }
        }
    }

    #[test]
    fn confidence_q8_matches_q16_from_f64_at_every_reachable_sad() {
        // Block (1, 1) of a (16 + w)×(16 + h) field at mb 16 is w×h pixels:
        // every block size a 16-px field can hold, each SAD from a perfect
        // match to past the 255·n ceiling.
        for w in 1..=16 {
            for h in 1..=16 {
                let mut field =
                    MotionField::zeroed(Resolution::new(16 + w, 16 + h), 16, 7).unwrap();
                let n = field.block_pixels(1, 1);
                assert_eq!(n, w * h);
                for sad in 0..=255 * n + 2 {
                    field.set_block(
                        1,
                        1,
                        MotionVector {
                            v: Vec2i::ZERO,
                            sad,
                        },
                    );
                    assert_eq!(
                        confidence_q8(sad, n),
                        Q16::from_f64(field.confidence(1, 1)),
                        "sad {sad} n {n}"
                    );
                }
            }
        }
    }

    #[test]
    fn pack_saturates_beyond_range() {
        assert_eq!(unpack_mv(pack_mv(100, -100)), (7, -7));
    }

    fn real_field(shift: (i64, i64)) -> MotionField {
        let mk = |s: (i64, i64)| {
            let mut f = LumaFrame::new(128, 128).unwrap();
            for y in 0..128 {
                for x in 0..128 {
                    let v =
                        (rngx::lattice_hash(21, (i64::from(x) - s.0) / 3, (i64::from(y) - s.1) / 3)
                            * 255.0) as u8;
                    f.set(x, y, v);
                }
            }
            f
        };
        BlockMatcher::new(16, 7, SearchStrategy::Exhaustive)
            .unwrap()
            .estimate(&mk(shift), &mk((0, 0)))
            .unwrap()
    }

    #[test]
    fn datapath_matches_reference_within_fixed_point_tolerance() {
        let field = real_field((4, -2));
        let config = ExtrapolationConfig::default();
        let dp = SimdDatapath::default();
        for roi in [
            Rect::new(32.0, 32.0, 48.0, 48.0),
            Rect::new(10.0, 60.0, 70.0, 30.0),
            Rect::new(0.0, 0.0, 128.0, 128.0),
            Rect::new(100.0, 100.0, 28.0, 28.0),
        ] {
            let (mu, alpha) = roi_average_motion(&field, &roi);
            let ref_mv = filter_mv(mu, alpha, Vec2f::ZERO, config.confidence_threshold);
            let got = dp.evaluate(&field, &roi, (Q16::ZERO, Q16::ZERO), &config);
            let gv = SimdDatapath::to_vec2f(&got);
            // Integer-rounded overlap weights + Q8.8 keep us within ~0.2 px.
            assert!(
                (gv.x - ref_mv.x).abs() < 0.25,
                "roi {roi}: x {} vs {}",
                gv.x,
                ref_mv.x
            );
            assert!(
                (gv.y - ref_mv.y).abs() < 0.25,
                "roi {roi}: y {} vs {}",
                gv.y,
                ref_mv.y
            );
            assert!((got.confidence.to_f64() - alpha).abs() < 0.05);
        }
    }

    #[test]
    fn datapath_with_filter_uses_previous_mv() {
        let field = real_field((0, 0)); // zero motion, full confidence
        let config = ExtrapolationConfig::default();
        let dp = SimdDatapath::default();
        let prev = (Q16::from_f64(4.0), Q16::from_f64(-4.0));
        let got = dp.evaluate(&field, &Rect::new(32.0, 32.0, 48.0, 48.0), prev, &config);
        // alpha = 1 > threshold, so beta = 1: output = µ = 0 despite prev.
        assert!(SimdDatapath::to_vec2f(&got).norm() < 0.1);
        // With a low-confidence field (empty ROI -> alpha 0 -> beta 0.5),
        // prev contributes half.
        let got2 = dp.evaluate(&field, &Rect::new(500.0, 500.0, 10.0, 10.0), prev, &config);
        let v2 = SimdDatapath::to_vec2f(&got2);
        assert!((v2.x - 2.0).abs() < 0.05 && (v2.y + 2.0).abs() < 0.05);
    }

    #[test]
    fn cycle_count_scales_with_coverage() {
        let field = real_field((1, 0));
        let dp = SimdDatapath::default();
        let config = ExtrapolationConfig::default();
        let small = dp.evaluate(
            &field,
            &Rect::new(32.0, 32.0, 16.0, 16.0),
            (Q16::ZERO, Q16::ZERO),
            &config,
        );
        let large = dp.evaluate(
            &field,
            &Rect::new(0.0, 0.0, 128.0, 128.0),
            (Q16::ZERO, Q16::ZERO),
            &config,
        );
        assert!(large.cycles > small.cycles);
        // 64 blocks at 4 lanes, 3 passes = 48 + 24 overhead.
        assert_eq!(large.cycles, Cycles(3 * 16 + 24));
    }

    #[test]
    fn filter_disabled_outputs_raw_average() {
        let field = real_field((3, 3));
        let config = ExtrapolationConfig {
            filter: false,
            ..ExtrapolationConfig::default()
        };
        let dp = SimdDatapath::default();
        let prev = (Q16::from_f64(100.0), Q16::from_f64(100.0));
        let got = dp.evaluate(&field, &Rect::new(32.0, 32.0, 48.0, 48.0), prev, &config);
        let v = SimdDatapath::to_vec2f(&got);
        assert!((v.x - 3.0).abs() < 0.3 && (v.y - 3.0).abs() < 0.3, "{v}");
    }
}
