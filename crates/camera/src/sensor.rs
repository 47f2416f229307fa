//! Image sensor model (AR1335-class, §5.1 of the paper).
//!
//! The sensor converts rendered RGB frames to RAW Bayer mosaics with read
//! noise — the format the ISP ingests. It is functional only: the sensor
//! power the SoC charges is `euphrates_soc::energy`'s frontend ledger, and
//! the CSI traffic is the core `SystemModel`'s streaming traffic.

use crate::noise::{FastGaussian, NoiseModelKind};
use euphrates_common::error::Result;
use euphrates_common::image::{rggb_color, BayerFrame, CfaColor, Resolution, RgbFrame};

/// The seed-derivation stream id of the sensor's read-noise stage.
const READ_NOISE_STREAM: u64 = 0x5E45;

/// Static sensor configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SensorConfig {
    /// Capture resolution.
    pub resolution: Resolution,
    /// Read-noise sigma on the 8-bit RAW samples.
    pub read_noise_sigma: f64,
    /// Selects nothing: [`FastGaussian`] always realizes
    /// `read_noise_sigma`. Kept only because the `perfbench/`
    /// benchmark sets it.
    pub noise_model: NoiseModelKind,
}

impl Default for SensorConfig {
    fn default() -> Self {
        SensorConfig {
            resolution: Resolution::FULL_HD,
            read_noise_sigma: 1.5,
            noise_model: NoiseModelKind::FastGaussian,
        }
    }
}

/// The camera sensor: functional Bayer capture with read noise.
#[derive(Debug, Clone)]
pub struct ImageSensor {
    config: SensorConfig,
    seed: u64,
}

impl ImageSensor {
    /// Creates a sensor with the given configuration and noise seed.
    pub fn new(config: SensorConfig, seed: u64) -> Self {
        ImageSensor { config, seed }
    }

    /// Captures an RGB scene rendering into a RAW Bayer frame, applying the
    /// RGGB color filter array and read noise.
    ///
    /// # Errors
    ///
    /// Returns an error if the input resolution differs from the
    /// configured capture resolution.
    pub fn capture(&self, rgb: &RgbFrame, frame_index: u32) -> Result<BayerFrame> {
        let mut raw = BayerFrame::new(rgb.width(), rgb.height())?;
        self.capture_into(rgb, frame_index, &mut raw)?;
        Ok(raw)
    }

    /// [`capture`][ImageSensor::capture] into a caller-provided frame,
    /// so a streaming pipeline can reuse one RAW buffer across frames
    /// (`out` is resized if its shape differs).
    ///
    /// # Errors
    ///
    /// Returns an error if the input resolution differs from the
    /// configured capture resolution.
    pub fn capture_into(
        &self,
        rgb: &RgbFrame,
        frame_index: u32,
        out: &mut BayerFrame,
    ) -> Result<()> {
        if rgb.width() != self.config.resolution.width
            || rgb.height() != self.config.resolution.height
        {
            return Err(euphrates_common::Error::shape(format!(
                "sensor configured for {} but got {}x{}",
                self.config.resolution,
                rgb.width(),
                rgb.height()
            )));
        }
        if !out.same_shape(rgb) {
            *out = BayerFrame::new(rgb.width(), rgb.height())?;
        }
        let sigma = self.config.read_noise_sigma;
        let noise = (sigma > 0.0).then(|| {
            let mut m = FastGaussian::new();
            m.begin_frame(self.seed, READ_NOISE_STREAM, frame_index, 1.0, sigma);
            m
        });
        let w = u64::from(rgb.width());
        for y in 0..rgb.height() {
            // Row-sliced mosaic: even rows alternate R/G photosites,
            // odd rows G/B (same values `rggb_color` dispatches to).
            let src = rgb.row(y);
            let dst = out.row_mut(y);
            for (x, (d, px)) in dst.iter_mut().zip(src).enumerate() {
                *d = match rggb_color(x as u32, y) {
                    CfaColor::Red => px.r,
                    CfaColor::Green => px.g,
                    CfaColor::Blue => px.b,
                };
            }
            if let Some(noise) = &noise {
                noise.raw_row(u64::from(y) * w, dst);
            }
        }
        Ok(())
    }
}

impl Default for ImageSensor {
    fn default() -> Self {
        ImageSensor::new(SensorConfig::default(), 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use euphrates_common::image::Rgb;

    fn vga_sensor(noise: f64) -> ImageSensor {
        ImageSensor::new(
            SensorConfig {
                resolution: Resolution::VGA,
                read_noise_sigma: noise,
                ..SensorConfig::default()
            },
            42,
        )
    }

    fn solid_rgb(res: Resolution, px: Rgb) -> RgbFrame {
        let mut f = RgbFrame::new(res.width, res.height).unwrap();
        for p in f.samples_mut() {
            *p = px;
        }
        f
    }

    #[test]
    fn capture_applies_rggb_mosaic() {
        let sensor = vga_sensor(0.0);
        let rgb = solid_rgb(Resolution::VGA, Rgb::new(200, 100, 50));
        let raw = sensor.capture(&rgb, 0).unwrap();
        assert_eq!(raw.at(0, 0), 200); // R site
        assert_eq!(raw.at(1, 0), 100); // G site
        assert_eq!(raw.at(0, 1), 100); // G site
        assert_eq!(raw.at(1, 1), 50); // B site
    }

    #[test]
    fn capture_into_reuses_buffer_and_matches_capture() {
        let sensor = vga_sensor(2.0);
        let rgb = solid_rgb(Resolution::VGA, Rgb::new(90, 160, 40));
        let fresh = sensor.capture(&rgb, 5).unwrap();
        // Wrong-shaped buffer is replaced; right-shaped buffer is reused.
        let mut reused = BayerFrame::new(2, 2).unwrap();
        sensor.capture_into(&rgb, 5, &mut reused).unwrap();
        assert_eq!(fresh, reused);
        let ptr = reused.samples().as_ptr();
        sensor.capture_into(&rgb, 6, &mut reused).unwrap();
        assert_eq!(reused.samples().as_ptr(), ptr, "buffer must be reused");
        assert_eq!(reused, sensor.capture(&rgb, 6).unwrap());
    }

    #[test]
    fn capture_rejects_wrong_resolution() {
        let sensor = vga_sensor(0.0);
        let rgb = solid_rgb(Resolution::new(320, 240), Rgb::gray(0));
        assert!(sensor.capture(&rgb, 0).is_err());
    }

    #[test]
    fn read_noise_is_deterministic_per_frame() {
        let sensor = vga_sensor(2.0);
        let rgb = solid_rgb(Resolution::VGA, Rgb::gray(128));
        let a = sensor.capture(&rgb, 3).unwrap();
        let b = sensor.capture(&rgb, 3).unwrap();
        let c = sensor.capture(&rgb, 4).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn read_noise_perturbs_samples() {
        let sensor = vga_sensor(3.0);
        let rgb = solid_rgb(Resolution::VGA, Rgb::gray(128));
        let raw = sensor.capture(&rgb, 0).unwrap();
        let changed = raw.samples().iter().filter(|&&v| v != 128).count();
        assert!(changed > raw.len() / 4, "only {changed} samples perturbed");
    }
}
