//! Image sensor model (AR1335-class, §5.1 of the paper).
//!
//! The sensor converts rendered RGB frames to RAW Bayer mosaics with read
//! noise — the format the ISP ingests — and provides the power and MIPI CSI
//! bandwidth figures the SoC energy model charges to the frontend.
//!
//! Power calibration: the AR1335 datasheet figure used in the paper is
//! 180 mW at 1080p60. We scale with pixel rate relative to that operating
//! point, with a small static floor, which also covers the 480p evaluation
//! setting.

use crate::noise::{FastGaussian, NoiseModelKind};
use euphrates_common::error::Result;
use euphrates_common::image::{rggb_color, BayerFrame, CfaColor, Resolution, RgbFrame};
use euphrates_common::units::{Bytes, MilliWatts};

/// The seed-derivation stream id of the sensor's read-noise stage.
const READ_NOISE_STREAM: u64 = 0x5E45;

/// Static sensor configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SensorConfig {
    /// Capture resolution.
    pub resolution: Resolution,
    /// Capture rate in frames per second.
    pub fps: f64,
    /// Read-noise sigma on the 8-bit RAW samples.
    pub read_noise_sigma: f64,
    /// Selects nothing: [`FastGaussian`] always realizes
    /// `read_noise_sigma`. Kept only because the `perfbench/`
    /// benchmark sets it.
    pub noise_model: NoiseModelKind,
    /// Bits per RAW sample on the CSI link (the AR1335 streams 10-bit; the
    /// functional model quantizes to 8).
    pub csi_bits_per_sample: u32,
    /// Active power at the 1080p60 reference operating point.
    pub reference_power: MilliWatts,
    /// Static (pixel-rate-independent) power floor.
    pub static_power: MilliWatts,
}

impl Default for SensorConfig {
    fn default() -> Self {
        SensorConfig {
            resolution: Resolution::FULL_HD,
            fps: 60.0,
            read_noise_sigma: 1.5,
            noise_model: NoiseModelKind::FastGaussian,
            csi_bits_per_sample: 10,
            reference_power: MilliWatts(180.0),
            static_power: MilliWatts(25.0),
        }
    }
}

/// The camera sensor: functional Bayer capture + power/bandwidth model.
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

    /// The sensor configuration.
    pub fn config(&self) -> &SensorConfig {
        &self.config
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

    /// Active power at the configured operating point, scaled by pixel rate
    /// from the 1080p60 reference.
    pub fn power(&self) -> MilliWatts {
        let ref_rate = Resolution::FULL_HD.pixels() as f64 * 60.0;
        let rate = self.config.resolution.pixels() as f64 * self.config.fps;
        MilliWatts(self.config.static_power.0 + self.config.reference_power.0 * rate / ref_rate)
    }

    /// RAW bytes per frame on the MIPI CSI link.
    pub fn csi_bytes_per_frame(&self) -> Bytes {
        let bits = self.config.resolution.pixels() * u64::from(self.config.csi_bits_per_sample);
        Bytes(bits.div_ceil(8))
    }

    /// CSI link bandwidth in bytes/second at the configured rate.
    pub fn csi_bandwidth(&self) -> f64 {
        self.csi_bytes_per_frame().0 as f64 * self.config.fps
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
                fps: 60.0,
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

    #[test]
    fn power_scales_with_pixel_rate() {
        let hd = ImageSensor::default();
        let vga = vga_sensor(0.0);
        assert!((hd.power().0 - 205.0).abs() < 1.0); // 25 static + 180 dynamic
                                                     // VGA at 60 FPS is ~14.8% of the 1080p pixel rate.
        assert!(vga.power().0 < 60.0);
        assert!(vga.power().0 > 25.0);
    }

    #[test]
    fn csi_bandwidth_matches_datasheet_math() {
        let s = ImageSensor::default();
        // 1920*1080 * 10 bits = 2.59 MB/frame.
        let per_frame = s.csi_bytes_per_frame().0;
        assert_eq!(per_frame, 1920 * 1080 * 10 / 8);
        assert!((s.csi_bandwidth() - per_frame as f64 * 60.0).abs() < 1.0);
    }
}
