//! Q-format fixed-point arithmetic mirroring the Motion Controller datapath.
//!
//! The paper's motion controller is a micro-controller-class IP whose
//! extrapolation step runs in a few thousand *fixed-point* operations per
//! frame (§3.2: "about 10 K 4-bit fixed-point operations"). To model the
//! hardware faithfully, `euphrates-mc` evaluates Equations 1–3 in Q-format
//! arithmetic and the test suite checks it against the `f64` reference.
//!
//! Two types are provided:
//!
//! * [`Q16`] — Q8.8: 8 integer bits, 8 fractional bits in an `i16`.
//!   Wide enough for filtered motion vectors (search range ±127 px).
//! * [`Q32`] — Q16.16: accumulator format used for averaging many MVs and
//!   SADs without overflow.
//!
//! All operations are *saturating*: real datapaths clamp instead of wrapping,
//! and saturation keeps extrapolated ROIs finite even with adversarial
//! inputs.
//!
//! Two rounding helpers, [`round_half_away`] and [`round_to_u8`], give
//! `f64::round`'s results without its libm call; the Motion Controller
//! datapath and the ISP's pixel stages round through them.

use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

/// 2⁵²: from here up every `f64` is an integer, and below it adding 2⁵²
/// lands a non-negative value where the `f64` spacing is exactly 1.
const TWO_52: f64 = 4_503_599_627_370_496.0;

/// `x.round()` (halfway cases away from zero), bit for bit, without the
/// libm `round` call baseline x86-64 makes for it (no `roundsd` before
/// SSE4.1).
///
/// For `|x| < 2⁵²` the sum `|x| + 2⁵²` rounds `|x|` to the nearest
/// integer, ties to even, and subtracting 2⁵² again is exact. That
/// differs from `f64::round` only when the exact remainder is +½, which
/// the exact subtraction `|x| − r` detects. Larger magnitudes and
/// infinities are already integral and pass through, NaN stays NaN, and
/// the sign is copied back so `-0.3` rounds to `-0.0` as `f64::round`
/// does.
#[inline]
pub fn round_half_away(x: f64) -> f64 {
    let a = x.abs();
    if a >= TWO_52 {
        return x;
    }
    let nearest_even = (a + TWO_52) - TWO_52;
    let r = if a - nearest_even == 0.5 {
        nearest_even + 1.0
    } else {
        nearest_even
    };
    r.copysign(x)
}

/// `x.round().clamp(0.0, 255.0) as u8`, exactly, without the libm
/// `round` call or a float-to-int conversion — the pixel quantiser of
/// the ISP's colour-correction and temporal-denoise stages.
///
/// The clamped value plus 2⁵² lands where the f64 spacing is 1, so the
/// addition rounds it to the nearest integer (ties to even), which then
/// sits in the sum's low mantissa bits. That differs from `f64::round`'s
/// ties-away-from-zero only when the exact remainder is +½, which the
/// exact subtraction `x − r` detects. The clamp maps NaN to 0, as the
/// saturating cast does.
#[inline]
pub fn round_to_u8(x: f64) -> u8 {
    let x = if x > 0.0 { x } else { 0.0 };
    let x = if x < 255.0 { x } else { 255.0 };
    let shifted = x + TWO_52;
    let nearest_even = shifted - TWO_52;
    shifted.to_bits() as u8 + u8::from(x - nearest_even == 0.5)
}

/// Number of fractional bits in [`Q16`].
pub const Q16_FRAC_BITS: u32 = 8;
/// Number of fractional bits in [`Q32`].
pub const Q32_FRAC_BITS: u32 = 16;

/// Q8.8 signed fixed-point value stored in an `i16`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Q16(i16);

impl Q16 {
    /// Smallest representable value (−128.0).
    pub const MIN: Q16 = Q16(i16::MIN);
    /// Largest representable value (≈ 127.996).
    pub const MAX: Q16 = Q16(i16::MAX);
    /// Zero.
    pub const ZERO: Q16 = Q16(0);
    /// One.
    pub const ONE: Q16 = Q16(1 << Q16_FRAC_BITS);
    /// One half.
    pub const HALF: Q16 = Q16(1 << (Q16_FRAC_BITS - 1));

    /// Creates a value from its raw bit pattern.
    pub const fn from_raw(raw: i16) -> Self {
        Q16(raw)
    }

    /// Returns the raw bit pattern.
    pub const fn raw(self) -> i16 {
        self.0
    }

    /// Converts from `f64`, saturating at the representable range.
    pub fn from_f64(v: f64) -> Self {
        let scaled = (v * f64::from(1i32 << Q16_FRAC_BITS)).round();
        Q16(scaled.clamp(f64::from(i16::MIN), f64::from(i16::MAX)) as i16)
    }

    /// Converts from an integer, saturating.
    pub fn from_int(v: i32) -> Self {
        let shifted = (v << Q16_FRAC_BITS).clamp(i32::from(i16::MIN), i32::from(i16::MAX));
        // A large |v| overflows the i32 shift only beyond ±2^23, far outside
        // any pixel coordinate this simulator produces; clamp defensively.
        if v > 127 {
            Q16::MAX
        } else if v < -128 {
            Q16::MIN
        } else {
            Q16(shifted as i16)
        }
    }

    /// Converts to `f64` exactly.
    pub fn to_f64(self) -> f64 {
        f64::from(self.0) / f64::from(1i32 << Q16_FRAC_BITS)
    }

    /// Saturating addition.
    pub fn saturating_add(self, rhs: Q16) -> Q16 {
        Q16(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: Q16) -> Q16 {
        Q16(self.0.saturating_sub(rhs.0))
    }

    /// Saturating multiplication (Q8.8 × Q8.8 → Q8.8 with rounding).
    pub fn saturating_mul(self, rhs: Q16) -> Q16 {
        let wide = i32::from(self.0) * i32::from(rhs.0);
        let rounded = (wide + (1 << (Q16_FRAC_BITS - 1))) >> Q16_FRAC_BITS;
        Q16(rounded.clamp(i32::from(i16::MIN), i32::from(i16::MAX)) as i16)
    }

    /// Widens to the accumulator format.
    pub fn widen(self) -> Q32 {
        Q32(i64::from(self.0) << (Q32_FRAC_BITS - Q16_FRAC_BITS))
    }

    /// Absolute value, saturating at [`Q16::MAX`] for [`Q16::MIN`].
    pub fn abs(self) -> Q16 {
        if self.0 == i16::MIN {
            Q16::MAX
        } else {
            Q16(self.0.abs())
        }
    }
}

impl Add for Q16 {
    type Output = Q16;
    fn add(self, rhs: Q16) -> Q16 {
        self.saturating_add(rhs)
    }
}

impl Sub for Q16 {
    type Output = Q16;
    fn sub(self, rhs: Q16) -> Q16 {
        self.saturating_sub(rhs)
    }
}

impl Mul for Q16 {
    type Output = Q16;
    fn mul(self, rhs: Q16) -> Q16 {
        self.saturating_mul(rhs)
    }
}

impl Neg for Q16 {
    type Output = Q16;
    fn neg(self) -> Q16 {
        Q16(self.0.saturating_neg())
    }
}

impl fmt::Display for Q16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4}q8.8", self.to_f64())
    }
}

/// Q16.16 signed fixed-point accumulator stored in an `i64`.
///
/// The wide storage lets thousands of Q8.8 terms be accumulated without
/// saturation before the final divide in the ROI-average step (Equ. 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Q32(i64);

impl Q32 {
    /// Zero.
    pub const ZERO: Q32 = Q32(0);
    /// One.
    pub const ONE: Q32 = Q32(1 << Q32_FRAC_BITS);

    /// Creates a value from its raw bit pattern.
    pub const fn from_raw(raw: i64) -> Self {
        Q32(raw)
    }

    /// Returns the raw bit pattern.
    pub const fn raw(self) -> i64 {
        self.0
    }

    /// Converts from `f64`, saturating.
    pub fn from_f64(v: f64) -> Self {
        let scaled = (v * (1i64 << Q32_FRAC_BITS) as f64).round();
        if scaled >= i64::MAX as f64 {
            Q32(i64::MAX)
        } else if scaled <= i64::MIN as f64 {
            Q32(i64::MIN)
        } else {
            Q32(scaled as i64)
        }
    }

    /// Converts to `f64`.
    pub fn to_f64(self) -> f64 {
        self.0 as f64 / f64::from(1i32 << Q32_FRAC_BITS)
    }

    /// Saturating addition.
    pub fn saturating_add(self, rhs: Q32) -> Q32 {
        Q32(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: Q32) -> Q32 {
        Q32(self.0.saturating_sub(rhs.0))
    }

    /// Saturating multiplication (Q16.16 × Q16.16 → Q16.16 with rounding).
    pub fn saturating_mul(self, rhs: Q32) -> Q32 {
        let wide = i128::from(self.0) * i128::from(rhs.0);
        let rounded = (wide + (1 << (Q32_FRAC_BITS - 1))) >> Q32_FRAC_BITS;
        if rounded > i128::from(i64::MAX) {
            Q32(i64::MAX)
        } else if rounded < i128::from(i64::MIN) {
            Q32(i64::MIN)
        } else {
            Q32(rounded as i64)
        }
    }

    /// Division by an unsigned integer count (the `N` in Equ. 1), rounding
    /// to nearest. Returns zero when `n == 0`.
    pub fn div_count(self, n: u32) -> Q32 {
        if n == 0 {
            return Q32::ZERO;
        }
        let n = i64::from(n);
        let half = if self.0 >= 0 { n / 2 } else { -(n / 2) };
        Q32((self.0 + half) / n)
    }

    /// Narrows to Q8.8, saturating.
    pub fn narrow(self) -> Q16 {
        let shifted = self.0 >> (Q32_FRAC_BITS - Q16_FRAC_BITS);
        if shifted > i64::from(i16::MAX) {
            Q16::MAX
        } else if shifted < i64::from(i16::MIN) {
            Q16::MIN
        } else {
            Q16::from_raw(shifted as i16)
        }
    }
}

impl Add for Q32 {
    type Output = Q32;
    fn add(self, rhs: Q32) -> Q32 {
        self.saturating_add(rhs)
    }
}

impl Sub for Q32 {
    type Output = Q32;
    fn sub(self, rhs: Q32) -> Q32 {
        self.saturating_sub(rhs)
    }
}

impl Mul for Q32 {
    type Output = Q32;
    fn mul(self, rhs: Q32) -> Q32 {
        self.saturating_mul(rhs)
    }
}

impl Neg for Q32 {
    type Output = Q32;
    fn neg(self) -> Q32 {
        Q32(self.0.saturating_neg())
    }
}

impl From<Q16> for Q32 {
    fn from(q: Q16) -> Q32 {
        q.widen()
    }
}

impl fmt::Display for Q32 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}q16.16", self.to_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q16_roundtrip_of_exact_values() {
        for v in [-128.0, -1.5, -0.25, 0.0, 0.5, 1.0, 64.25, 127.0] {
            assert_eq!(Q16::from_f64(v).to_f64(), v, "value {v}");
        }
    }

    #[test]
    fn q16_rounds_to_nearest_step() {
        // Step size is 1/256; 0.001 rounds to 0.00390625 (1/256)? No:
        // 0.001 * 256 = 0.256 -> rounds to 0 raw.
        assert_eq!(Q16::from_f64(0.001).raw(), 0);
        assert_eq!(Q16::from_f64(0.002).raw(), 1); // 0.512 -> 1
    }

    #[test]
    fn q16_saturates_instead_of_wrapping() {
        let big = Q16::from_f64(120.0);
        assert_eq!(big + big, Q16::MAX);
        assert_eq!(-big - big, Q16::MIN.saturating_add(Q16::from_raw(0)));
        assert_eq!(Q16::from_f64(1e9), Q16::MAX);
        assert_eq!(Q16::from_f64(-1e9), Q16::MIN);
    }

    #[test]
    fn q16_multiplication_matches_float_within_lsb() {
        let a = Q16::from_f64(3.25);
        let b = Q16::from_f64(-2.5);
        let got = (a * b).to_f64();
        assert!((got - (-8.125)).abs() <= 1.0 / 256.0);
    }

    #[test]
    fn q16_from_int_saturates() {
        assert_eq!(Q16::from_int(5).to_f64(), 5.0);
        assert_eq!(Q16::from_int(1000), Q16::MAX);
        assert_eq!(Q16::from_int(-1000), Q16::MIN);
    }

    #[test]
    fn q16_abs_of_min_saturates() {
        assert_eq!(Q16::MIN.abs(), Q16::MAX);
        assert_eq!(Q16::from_f64(-2.0).abs().to_f64(), 2.0);
    }

    #[test]
    fn q32_accumulates_many_terms_without_saturating() {
        // 10_000 terms of 7.5 = 75_000, far beyond Q16 range but fine in Q32.
        let term = Q16::from_f64(7.5).widen();
        let mut acc = Q32::ZERO;
        for _ in 0..10_000 {
            acc = acc + term;
        }
        assert!((acc.to_f64() - 75_000.0).abs() < 1e-6);
        let avg = acc.div_count(10_000);
        assert!((avg.to_f64() - 7.5).abs() < 1e-9);
    }

    #[test]
    fn q32_div_count_rounds_to_nearest() {
        let v = Q32::from_f64(1.0);
        // 1.0 / 3 = 0.3333...; Q16.16 nearest is 21845/65536.
        let third = v.div_count(3);
        assert!((third.to_f64() - 1.0 / 3.0).abs() < 1.0 / 65536.0);
        // Negative values round symmetrically.
        let neg = Q32::from_f64(-1.0).div_count(3);
        assert!((neg.to_f64() + 1.0 / 3.0).abs() < 1.0 / 65536.0);
    }

    #[test]
    fn q32_div_by_zero_returns_zero() {
        assert_eq!(Q32::ONE.div_count(0), Q32::ZERO);
    }

    #[test]
    fn widen_narrow_roundtrip() {
        for v in [-100.5, -0.25, 0.0, 0.5, 88.875] {
            let q = Q16::from_f64(v);
            assert_eq!(q.widen().narrow(), q, "value {v}");
        }
    }

    #[test]
    fn narrow_saturates_out_of_range() {
        assert_eq!(Q32::from_f64(5000.0).narrow(), Q16::MAX);
        assert_eq!(Q32::from_f64(-5000.0).narrow(), Q16::MIN);
    }

    #[test]
    fn q32_mul_matches_float() {
        let a = Q32::from_f64(123.456);
        let b = Q32::from_f64(-0.015625);
        let got = (a * b).to_f64();
        assert!((got - 123.456 * -0.015625).abs() < 1e-3);
    }

    #[test]
    fn round_to_u8_matches_f64_round_at_every_half() {
        let reference = |x: f64| x.round().clamp(0.0, 255.0) as u8;
        for k in -10..=520 {
            let half = f64::from(k) / 2.0;
            for x in [half.next_down(), half, half.next_up()] {
                assert_eq!(round_to_u8(x), reference(x), "diverged at {x:e}");
            }
        }
        for x in [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            1e300,
            -1e300,
        ] {
            assert_eq!(round_to_u8(x), reference(x), "diverged at {x:e}");
        }
    }

    #[test]
    fn round_half_away_matches_f64_round_bit_for_bit() {
        let check = |x: f64| {
            let (got, want) = (round_half_away(x), x.round());
            assert!(
                got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                "diverged at {x:e}: {got:e} vs {want:e}"
            );
        };
        // Every half-integer up to 2^17 in magnitude and both neighbours,
        // which covers every overlap area of a block up to 256×256 px and
        // every scaled Q8.8 value.
        for k in -(1i64 << 18)..=(1 << 18) {
            let half = k as f64 / 2.0;
            for x in [half.next_down(), half, half.next_up()] {
                check(x);
                check(-x);
            }
        }
        // Around 2^52 and 2^53, where the spacing reaches 1 and 2.
        for base in [TWO_52, 2.0 * TWO_52] {
            let mut x = base;
            for _ in 0..8 {
                x = x.next_down();
            }
            for _ in 0..16 {
                check(x);
                check(-x);
                x = x.next_up();
            }
        }
        for x in [
            0.0,
            -0.0,
            0.49999999999999994,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
        ] {
            check(x);
            check(-x);
        }
    }

    #[test]
    fn display_formats_are_nonempty() {
        assert!(!format!("{}", Q16::ONE).is_empty());
        assert!(!format!("{}", Q32::ONE).is_empty());
    }
}
