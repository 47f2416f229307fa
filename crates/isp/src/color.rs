//! RGB-domain finishing stages: color-correction matrix and gamma — the
//! remaining "…" boxes of Fig. 2's RGB domain.
//!
//! These stages complete the ISP's photographic path. They matter to
//! Euphrates only indirectly: gamma changes the luma statistics that
//! block matching sees, so the pipeline applies motion estimation before
//! gamma (as real ISPs do — ME runs in the linear domain).

use euphrates_common::fixed::round_to_u8;
use euphrates_common::image::{Rgb, RgbFrame};

/// A 3×3 color-correction matrix applied to linear RGB.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColorCorrection {
    /// Row-major 3×3 matrix; rows must roughly sum to 1 to preserve
    /// neutral tones.
    pub matrix: [[f64; 3]; 3],
}

impl Default for ColorCorrection {
    fn default() -> Self {
        // A mild sensor-to-sRGB matrix: boosts saturation slightly while
        // keeping grays neutral (rows sum to 1).
        ColorCorrection {
            matrix: [
                [1.35, -0.25, -0.10],
                [-0.15, 1.40, -0.25],
                [-0.05, -0.30, 1.35],
            ],
        }
    }
}

impl ColorCorrection {
    /// Identity (bypass) matrix.
    pub fn identity() -> Self {
        ColorCorrection {
            matrix: [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        }
    }

    /// Applies the matrix in place.
    pub fn process(&self, rgb: &mut RgbFrame) {
        // products[j][v][i] = m[i][j]·v: the same f64 products the per-
        // pixel dot product forms, one entry per input channel value. The
        // fourth lane pads each entry so the three outputs share vector
        // arithmetic.
        let mut products = [[[0.0f64; 4]; 256]; 3];
        for (j, table) in products.iter_mut().enumerate() {
            for (v, entry) in table.iter_mut().enumerate() {
                for (e, row) in entry.iter_mut().zip(&self.matrix) {
                    *e = row[j] * f64::from(v as u8);
                }
            }
        }
        let [pr, pg, pb] = &products;
        for p in rgb.samples_mut() {
            let (r, g, b) = (
                &pr[usize::from(p.r)],
                &pg[usize::from(p.g)],
                &pb[usize::from(p.b)],
            );
            // Summed in the dot product's order: (m₀r + m₁g) + m₂b.
            let out: [u8; 4] = std::array::from_fn(|i| round_to_u8(r[i] + g[i] + b[i]));
            *p = Rgb::new(out[0], out[1], out[2]);
        }
    }

    /// Arithmetic operations per pixel (9 multiplies + 6 adds + clamps).
    pub fn ops_per_pixel(&self) -> u64 {
        18
    }
}

/// Display gamma encoding (power law over normalized channels).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gamma {
    /// Encoding exponent (sRGB-class displays use ≈1/2.2).
    pub encode_exponent: f64,
}

impl Default for Gamma {
    fn default() -> Self {
        Gamma {
            encode_exponent: 1.0 / 2.2,
        }
    }
}

impl Gamma {
    /// Applies gamma encoding in place via a 256-entry lookup table — the
    /// way ISP hardware implements it.
    pub fn process(&self, rgb: &mut RgbFrame) {
        let lut = self.lut();
        for p in rgb.samples_mut() {
            *p = Rgb::new(lut[p.r as usize], lut[p.g as usize], lut[p.b as usize]);
        }
    }

    /// The 256-entry encoding table.
    pub fn lut(&self) -> [u8; 256] {
        let mut lut = [0u8; 256];
        for (i, v) in lut.iter_mut().enumerate() {
            let x = i as f64 / 255.0;
            *v = (x.powf(self.encode_exponent) * 255.0).round() as u8;
        }
        lut
    }

    /// Arithmetic operations per pixel (three table lookups).
    pub fn ops_per_pixel(&self) -> u64 {
        3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solid(px: Rgb) -> RgbFrame {
        let mut f = RgbFrame::new(8, 8).unwrap();
        for p in f.samples_mut() {
            *p = px;
        }
        f
    }

    #[test]
    fn identity_matrix_is_a_noop() {
        let mut f = solid(Rgb::new(120, 80, 200));
        let before = f.clone();
        ColorCorrection::identity().process(&mut f);
        assert_eq!(f, before);
    }

    #[test]
    fn default_ccm_preserves_neutral_gray() {
        let mut f = solid(Rgb::gray(128));
        ColorCorrection::default().process(&mut f);
        let p = f.at(0, 0);
        assert!(p.r.abs_diff(128) <= 1, "r {}", p.r);
        assert!(p.g.abs_diff(128) <= 1, "g {}", p.g);
        assert!(p.b.abs_diff(128) <= 1, "b {}", p.b);
    }

    #[test]
    fn default_ccm_increases_saturation() {
        let mut f = solid(Rgb::new(180, 90, 90));
        ColorCorrection::default().process(&mut f);
        let p = f.at(0, 0);
        // Red channel separates further from green/blue.
        assert!(p.r > 180, "r {}", p.r);
        assert!(p.g < 90, "g {}", p.g);
    }

    /// The f64 expression the tabulated kernel replaced.
    fn reference_ccm(m: &[[f64; 3]; 3], px: Rgb) -> Rgb {
        let (r, g, b) = (f64::from(px.r), f64::from(px.g), f64::from(px.b));
        let out = |row: &[f64; 3]| -> u8 {
            (row[0] * r + row[1] * g + row[2] * b)
                .round()
                .clamp(0.0, 255.0) as u8
        };
        Rgb::new(out(&m[0]), out(&m[1]), out(&m[2]))
    }

    #[test]
    fn default_ccm_matches_float_reference_exhaustively() {
        // All 2²⁴ inputs, one 256×256 (g, b) plane per red value.
        let ccm = ColorCorrection::default();
        let mut plane = RgbFrame::new(256, 256).unwrap();
        for r in 0..=255u8 {
            for (i, p) in plane.samples_mut().iter_mut().enumerate() {
                *p = Rgb::new(r, (i >> 8) as u8, i as u8);
            }
            let input = plane.clone();
            ccm.process(&mut plane);
            for (&inp, &out) in input.samples().iter().zip(plane.samples()) {
                assert_eq!(out, reference_ccm(&ccm.matrix, inp), "diverged at {inp}");
            }
        }
    }

    #[test]
    fn gamma_preserves_black_and_white() {
        let lut = Gamma::default().lut();
        assert_eq!(lut[0], 0);
        assert_eq!(lut[255], 255);
    }

    #[test]
    fn gamma_brightens_midtones() {
        let mut f = solid(Rgb::gray(64));
        Gamma::default().process(&mut f);
        assert!(f.at(0, 0).r > 120, "encoded {}", f.at(0, 0).r);
    }

    #[test]
    fn gamma_lut_is_monotone() {
        let lut = Gamma::default().lut();
        for pair in lut.windows(2) {
            assert!(pair[0] <= pair[1]);
        }
    }

    #[test]
    fn ops_estimates_are_positive() {
        assert!(ColorCorrection::default().ops_per_pixel() > 0);
        assert!(Gamma::default().ops_per_pixel() > 0);
    }
}
