//! Pins the one-pass ROI walk, the integer-accumulating SIMD datapath and
//! `extrapolate_roi` to a frozen copy of their two-pass predecessor: the
//! block walk that re-derived each block's intersection rectangle, the
//! per-block saturating Q16.16 multiply-accumulate with libm rounding, and
//! the op count taken from a second walk over every sub-ROI.
//!
//! Every comparison is on bits: raw Q8.8 values, cycles, op counts, both
//! filter states and the output rectangle's `f64` bit patterns.

use euphrates_common::fixed::{Q16, Q32};
use euphrates_common::geom::{Rect, Vec2f, Vec2i};
use euphrates_common::image::Resolution;
use euphrates_common::rngx::counter_hash;
use euphrates_common::units::Cycles;
use euphrates_core::backend::{extrapolate_roi, TrackState};
use euphrates_isp::motion::{MotionField, MotionVector};
use euphrates_mc::algorithm::{filter_mv, ExtrapolationConfig};
use euphrates_mc::datapath::{pack_mv, unpack_mv, SimdDatapath};

// ---------------------------------------------------------------------------
// The frozen two-pass oracle
// ---------------------------------------------------------------------------

fn oracle_blocks_in_roi(field: &MotionField, roi: &Rect) -> Vec<(u32, u32, MotionVector)> {
    let mb = f64::from(field.mb_size());
    let bx0 = (roi.x / mb).floor().max(0.0) as u32;
    let by0 = (roi.y / mb).floor().max(0.0) as u32;
    let bx1 = ((roi.right() / mb).ceil() as i64).clamp(0, i64::from(field.blocks_x())) as u32;
    let by1 = ((roi.bottom() / mb).ceil() as i64).clamp(0, i64::from(field.blocks_y())) as u32;
    let mut out = Vec::new();
    for by in by0..by1 {
        for bx in bx0..bx1 {
            if field.block_rect(bx, by).intersection(roi).area() > 0.0 {
                out.push((bx, by, field.at_block(bx, by)));
            }
        }
    }
    out
}

/// `(mv_x, mv_y, confidence, cycles)` of one sub-ROI.
fn oracle_evaluate(
    field: &MotionField,
    sub_roi: &Rect,
    prev_mv: (Q16, Q16),
    config: &ExtrapolationConfig,
) -> (Q16, Q16, Q16, Cycles) {
    let mut sum_x = Q32::ZERO;
    let mut sum_y = Q32::ZERO;
    let mut sum_conf = Q32::ZERO;
    let mut weight: u32 = 0;
    let mut blocks: u32 = 0;
    for (bx, by, mv) in oracle_blocks_in_roi(field, sub_roi) {
        let overlap = field
            .block_rect(bx, by)
            .intersection(sub_roi)
            .area()
            .round() as u32;
        if overlap == 0 {
            continue;
        }
        let (vx, vy) = if field.search_range() <= 7 {
            unpack_mv(pack_mv(mv.v.x, mv.v.y))
        } else {
            (mv.v.x, mv.v.y)
        };
        let w = Q32::from_f64(f64::from(overlap));
        sum_x = sum_x + Q16::from_int(i32::from(vx)).widen() * w;
        sum_y = sum_y + Q16::from_int(i32::from(vy)).widen() * w;
        let conf = Q16::from_f64(field.confidence(bx, by));
        sum_conf = sum_conf + conf.widen() * w;
        weight += overlap;
        blocks += 1;
    }
    let (mu_x, mu_y, alpha) = if weight == 0 {
        (Q16::ZERO, Q16::ZERO, Q16::ZERO)
    } else {
        (
            sum_x.div_count(weight).narrow(),
            sum_y.div_count(weight).narrow(),
            sum_conf.div_count(weight).narrow(),
        )
    };
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
    let dp = SimdDatapath::default();
    let groups = u64::from(blocks).div_ceil(u64::from(dp.lanes));
    (
        mv_x,
        mv_y,
        alpha,
        Cycles(3 * groups + u64::from(dp.overhead_cycles)),
    )
}

fn oracle_average_motion(field: &MotionField, roi: &Rect) -> (Vec2f, f64) {
    let mut sum = Vec2f::ZERO;
    let mut conf_sum = 0.0;
    let mut weight = 0.0;
    for (bx, by, mv) in oracle_blocks_in_roi(field, roi) {
        let overlap = field.block_rect(bx, by).intersection(roi).area();
        if overlap <= 0.0 {
            continue;
        }
        sum += Vec2f::from(mv.v) * overlap;
        conf_sum += field.confidence(bx, by) * overlap;
        weight += overlap;
    }
    if weight <= 0.0 {
        (Vec2f::ZERO, 0.0)
    } else {
        (sum / weight, conf_sum / weight)
    }
}

/// Both filter states of one tracked object, as the oracle keeps them.
struct OracleState {
    fixed: Vec<(Q16, Q16)>,
    reference: Vec<Vec2f>,
}

impl OracleState {
    fn new(config: &ExtrapolationConfig) -> Self {
        OracleState {
            fixed: vec![(Q16::ZERO, Q16::ZERO); config.sub_roi_count()],
            reference: vec![Vec2f::ZERO; config.sub_roi_count()],
        }
    }
}

fn oracle_extrapolate_roi(
    roi: &Rect,
    field: &MotionField,
    state: &mut OracleState,
    config: &ExtrapolationConfig,
    fixed_datapath: bool,
) -> (Rect, Cycles, u64) {
    let (gx, gy) = config.effective_grid();
    let subs = roi.grid(gx, gy);
    let mut ops = 0u64;
    for sub in &subs {
        ops += oracle_blocks_in_roi(field, sub).len() as u64 * 6 + 32;
    }
    let mut merged = Rect::default();
    if !fixed_datapath {
        for (i, sub) in subs.iter().enumerate() {
            let (mu, alpha) = oracle_average_motion(field, sub);
            let mv = if config.filter {
                filter_mv(mu, alpha, state.reference[i], config.confidence_threshold)
            } else {
                mu
            };
            state.reference[i] = mv;
            merged = merged.union_bbox(&sub.translated(mv));
        }
        return (merged, Cycles(ops / 2), ops);
    }
    let mut cycles = Cycles::ZERO;
    for (i, sub) in subs.iter().enumerate() {
        let (mv_x, mv_y, _, c) = oracle_evaluate(field, sub, state.fixed[i], config);
        state.fixed[i] = (mv_x, mv_y);
        cycles += c;
        let mv = Vec2f::new(mv_x.to_f64(), mv_y.to_f64());
        merged = merged.union_bbox(&sub.translated(mv));
    }
    (merged, cycles, ops)
}

// ---------------------------------------------------------------------------
// Adversarial inputs
// ---------------------------------------------------------------------------

/// Deterministic draws from one `(key, counter)` stream.
struct Draw {
    key: u64,
    counter: u64,
}

impl Draw {
    fn new(key: u64) -> Self {
        Draw { key, counter: 0 }
    }

    fn next(&mut self) -> u64 {
        self.counter += 1;
        counter_hash(self.key, self.counter)
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % (hi - lo + 1) as u64) as i64
    }

    fn coin(&mut self) -> bool {
        self.next() & 1 == 0
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A coordinate that lands on the cases the walk must get exactly
    /// right: block boundaries and their ulp neighbours, half and
    /// quarter pixels (overlap areas that tie under rounding), plain
    /// fractions, negative and far off-frame values.
    fn coordinate(&mut self, mb: u32, extent: u32) -> f64 {
        let mb = f64::from(mb);
        let boundary = mb * self.range(-2, i64::from(extent) / mb as i64 + 2) as f64;
        match self.range(0, 7) {
            0 => boundary,
            1 => boundary.next_up(),
            2 => boundary.next_down(),
            3 => boundary + self.range(-8, 8) as f64 * 0.25,
            4 => boundary + self.range(-4, 4) as f64 + 0.5,
            5 => self.unit() * f64::from(extent),
            6 => -self.unit() * 3.0 * mb,
            _ => f64::from(extent) + self.unit() * 3.0 * mb,
        }
    }

    /// A width or height: zero, sub-pixel, half-integer, block multiples
    /// or arbitrary spans up to the frame and beyond.
    fn size(&mut self, mb: u32, extent: u32) -> f64 {
        match self.range(0, 5) {
            0 => 0.0,
            1 => self.unit(),
            2 => self.range(1, 2 * i64::from(mb)) as f64 + 0.5,
            3 => f64::from(mb) * self.range(1, 4) as f64,
            4 => self.unit() * 1.5 * f64::from(extent),
            _ => self.unit() * 4.0 * f64::from(mb),
        }
    }

    fn roi(&mut self, field: &MotionField) -> Rect {
        let (mb, res) = (field.mb_size(), field.resolution());
        let x = self.coordinate(mb, res.width);
        let y = self.coordinate(mb, res.height);
        Rect::new(x, y, self.size(mb, res.width), self.size(mb, res.height))
    }

    fn q16(&mut self) -> Q16 {
        Q16::from_raw(self.next() as i16)
    }

    fn config(&mut self) -> ExtrapolationConfig {
        let grids = [(2, 2), (1, 1), (3, 2), (1, 4)];
        ExtrapolationConfig {
            sub_roi_grid: grids[self.range(0, 3) as usize],
            confidence_threshold: [0.8, 0.0, 0.5, 1.0, self.unit()][self.range(0, 4) as usize],
            filter: self.coin(),
            deformation: self.coin(),
        }
    }
}

/// A field with arbitrary vectors (beyond the packable ±7 and beyond
/// Q8.8's ±127 now and then) and SADs across and past `[0, 255·n]`.
fn random_field(draw: &mut Draw, res: Resolution, mb: u32, search_range: u32) -> MotionField {
    let mut field = MotionField::zeroed(res, mb, search_range).unwrap();
    let d = i64::from(search_range) + 2;
    for by in 0..field.blocks_y() {
        for bx in 0..field.blocks_x() {
            let span = if draw.range(0, 15) == 0 { 300 } else { d };
            let v = Vec2i::new(
                draw.range(-span, span) as i16,
                draw.range(-span, span) as i16,
            );
            let max_sad = 255 * i64::from(field.block_pixels(bx, by));
            let sad = draw.range(0, max_sad + max_sad / 8) as u32;
            field.set_block(bx, by, MotionVector { v, sad });
        }
    }
    field
}

/// Resolutions with partial edge blocks, at power-of-two and other
/// macroblock sizes, and both MV storage paths.
const FIELDS: [(u32, u32, u32, u32); 6] = [
    (100, 70, 16, 7),
    (100, 70, 16, 15),
    (64, 48, 16, 7),
    (77, 53, 8, 7),
    (90, 61, 12, 15),
    (33, 17, 32, 7),
];

fn rect_bits(r: &Rect) -> [u64; 4] {
    [r.x.to_bits(), r.y.to_bits(), r.w.to_bits(), r.h.to_bits()]
}

fn vec_bits(v: Vec2f) -> [u64; 2] {
    [v.x.to_bits(), v.y.to_bits()]
}

// ---------------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------------

#[test]
fn roi_walk_matches_the_two_pass_intersection_walk() {
    for (k, &(w, h, mb, d)) in FIELDS.iter().enumerate() {
        let mut draw = Draw::new(0x0A11 + k as u64);
        let field = random_field(&mut draw, Resolution::new(w, h), mb, d);
        for case in 0..2_000 {
            let roi = draw.roi(&field);
            let want: Vec<_> = oracle_blocks_in_roi(&field, &roi)
                .into_iter()
                .map(|(bx, by, mv)| {
                    let area = field.block_rect(bx, by).intersection(&roi).area();
                    (bx, by, mv, area.to_bits())
                })
                .collect();
            let got: Vec<_> = field
                .roi_overlaps(&roi)
                .map(|(bx, by, mv, area)| (bx, by, mv, area.to_bits()))
                .collect();
            assert_eq!(got, want, "field {k} case {case}: roi {roi:?}");
        }
    }
}

#[test]
fn datapath_evaluate_matches_the_two_pass_oracle() {
    let dp = SimdDatapath::default();
    for (k, &(w, h, mb, d)) in FIELDS.iter().enumerate() {
        let mut draw = Draw::new(0xDA7A + k as u64);
        let field = random_field(&mut draw, Resolution::new(w, h), mb, d);
        for case in 0..2_000 {
            let roi = draw.roi(&field);
            let config = draw.config();
            let prev = (draw.q16(), draw.q16());
            let got = dp.evaluate(&field, &roi, prev, &config);
            let (mv_x, mv_y, confidence, cycles) = oracle_evaluate(&field, &roi, prev, &config);
            let blocks = oracle_blocks_in_roi(&field, &roi).len() as u32;
            let ctx = format!("field {k} case {case}: roi {roi:?} prev {prev:?} {config:?}");
            assert_eq!(
                (got.mv_x.raw(), got.mv_y.raw(), got.confidence.raw()),
                (mv_x.raw(), mv_y.raw(), confidence.raw()),
                "{ctx}"
            );
            assert_eq!((got.cycles, got.blocks), (cycles, blocks), "{ctx}");
        }
    }
}

#[test]
fn extrapolate_roi_matches_the_two_pass_oracle_over_sequences() {
    for (k, &(w, h, mb, d)) in FIELDS.iter().enumerate() {
        let mut draw = Draw::new(0xE0 + k as u64);
        let frames: Vec<MotionField> = (0..4)
            .map(|_| random_field(&mut draw, Resolution::new(w, h), mb, d))
            .collect();
        for case in 0..300 {
            let config = draw.config();
            let fixed_datapath = draw.coin();
            let mut state = TrackState::new(&config);
            let mut oracle = OracleState::new(&config);
            let mut roi = draw.roi(&frames[0]);
            // Arbitrary filter history, the same on both sides.
            for (i, slot) in oracle.fixed.iter_mut().enumerate() {
                *slot = (draw.q16(), draw.q16());
                state.fixed[i] = *slot;
            }
            for step in 0..6 {
                let field = &frames[(case + step) % frames.len()];
                let got = extrapolate_roi(&roi, field, &mut state, &config, fixed_datapath);
                let want =
                    oracle_extrapolate_roi(&roi, field, &mut oracle, &config, fixed_datapath);
                let ctx = format!(
                    "field {k} case {case} step {step}: roi {roi:?} {config:?} fixed {fixed_datapath}"
                );
                assert_eq!(rect_bits(&got.0), rect_bits(&want.0), "{ctx}");
                assert_eq!((got.1, got.2), (want.1, want.2), "{ctx}");
                assert_eq!(state.fixed, oracle.fixed, "{ctx}");
                for (i, &mv) in oracle.reference.iter().enumerate() {
                    assert_eq!(vec_bits(state.reference.prev_mv(i)), vec_bits(mv), "{ctx}");
                }
                // Feed the output back (or a fresh ROI now and then) so the
                // filter state carries across steps.
                roi = if draw.range(0, 4) == 0 {
                    draw.roi(field)
                } else {
                    got.0
                };
            }
        }
    }
}
