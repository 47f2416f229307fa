//! Synthetic inertial measurement unit — the §7 future-work direction
//! ("it is critical to incorporate non-vision sensors such as an Inertial
//! Measurement Unit as alternative sources for motion, … as exemplified in
//! the video stabilization feature in the Google Pixel 2").
//!
//! The modeled gyroscope observes the *camera's* angular motion, which in
//! the scene model is the [`SceneEffects::shake`] trajectory. Readings
//! carry white noise and a slowly drifting bias, the two canonical MEMS
//! error terms. The Motion Controller's fusion helper
//! (`euphrates_mc::fusion`) converts readings to pixel-domain global
//! motion and subtracts it from the block-matched field, recovering
//! object-relative motion under heavy shake.

use crate::scene::SceneEffects;
use euphrates_common::geom::Vec2f;
use euphrates_common::rngx;
use euphrates_common::units::MilliWatts;

/// IMU error model parameters (MPU-9250-class MEMS gyro).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImuConfig {
    /// White-noise sigma on each reading, in pixels/frame equivalent.
    pub noise_sigma: f64,
    /// Bias random-walk sigma per frame (pixels/frame equivalent).
    pub bias_walk_sigma: f64,
    /// Sampling rate relative to frames (readings per frame; IMUs run at
    /// hundreds of Hz, so per-frame aggregates are averages of several
    /// raw samples — modeled directly as one aggregated reading).
    pub readings_per_frame: u32,
    /// Active power (datasheet-class: ~10 mW including the companion
    /// sensor-hub duty cycle).
    pub power: MilliWatts,
}

impl Default for ImuConfig {
    fn default() -> Self {
        ImuConfig {
            noise_sigma: 0.15,
            bias_walk_sigma: 0.01,
            readings_per_frame: 8,
            power: MilliWatts(10.0),
        }
    }
}

/// One per-frame aggregated IMU reading: estimated global camera motion
/// in pixels since the previous frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImuReading {
    /// Estimated camera translation in pixel units.
    pub motion: Vec2f,
    /// Frame index the reading belongs to.
    pub frame: u32,
}

/// The synthetic gyro.
#[derive(Debug, Clone)]
pub struct ImuSensor {
    config: ImuConfig,
    seed: u64,
}

impl ImuSensor {
    /// Creates an IMU with the given error model and noise seed.
    pub fn new(config: ImuConfig, seed: u64) -> Self {
        ImuSensor { config, seed }
    }

    /// Produces the frame-`index` reading for a scene's camera motion:
    /// the true shake delta plus noise and accumulated bias.
    ///
    /// Deterministic in `(seed, frame)`; the bias random walk is
    /// reconstructed from the seed so readings are order-independent.
    pub fn read(&self, effects: &SceneEffects, frame: u32) -> ImuReading {
        let t = f64::from(frame);
        let true_delta = if frame == 0 {
            Vec2f::ZERO
        } else {
            effects.shake(t) - effects.shake(t - 1.0)
        };
        // Bias: a deterministic random walk replayed up to this frame.
        // (Frames are small integers in this simulator; O(frame) replay
        // keeps readings order-independent without shared state.)
        let mut bias = Vec2f::ZERO;
        for k in 0..=frame {
            let mut rng = rngx::derived_rng(self.seed ^ 0x1110, 1, u64::from(k));
            bias += Vec2f::new(
                rngx::gaussian(&mut rng, 0.0, self.config.bias_walk_sigma),
                rngx::gaussian(&mut rng, 0.0, self.config.bias_walk_sigma),
            );
        }
        let mut rng = rngx::derived_rng(self.seed ^ 0x1111, 2, u64::from(frame));
        let sigma = self.config.noise_sigma / f64::from(self.config.readings_per_frame).sqrt();
        let noise = Vec2f::new(
            rngx::gaussian(&mut rng, 0.0, sigma),
            rngx::gaussian(&mut rng, 0.0, sigma),
        );
        ImuReading {
            motion: true_delta + bias + noise,
            frame,
        }
    }
}

impl Default for ImuSensor {
    fn default() -> Self {
        ImuSensor::new(ImuConfig::default(), 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shaky_effects() -> SceneEffects {
        SceneEffects {
            shake_amplitude: 6.0,
            shake_period: 40.0,
            pixel_noise_sigma: 0.0,
            ..SceneEffects::default()
        }
    }

    #[test]
    fn readings_track_true_camera_motion() {
        let effects = shaky_effects();
        let imu = ImuSensor::new(ImuConfig::default(), 7);
        let mut err_sum = 0.0;
        for f in 1..60u32 {
            let t = f64::from(f);
            let truth = effects.shake(t) - effects.shake(t - 1.0);
            let r = imu.read(&effects, f);
            err_sum += (r.motion - truth).norm();
        }
        let mean_err = err_sum / 59.0;
        assert!(mean_err < 0.5, "mean IMU error {mean_err} px/frame");
    }

    #[test]
    fn readings_are_deterministic_and_order_independent() {
        let effects = shaky_effects();
        let imu = ImuSensor::new(ImuConfig::default(), 9);
        let late_first = imu.read(&effects, 30);
        let _ = imu.read(&effects, 5);
        let late_again = imu.read(&effects, 30);
        assert_eq!(late_first, late_again);
    }

    #[test]
    fn steady_camera_reads_near_zero() {
        let effects = SceneEffects::default(); // no shake
        let imu = ImuSensor::new(ImuConfig::default(), 11);
        for f in 1..20u32 {
            let r = imu.read(&effects, f);
            assert!(r.motion.norm() < 1.0, "frame {f}: {}", r.motion);
        }
    }

    #[test]
    fn bias_accumulates_over_time() {
        let effects = SceneEffects::default();
        let cfg = ImuConfig {
            noise_sigma: 0.0,
            bias_walk_sigma: 0.05,
            ..ImuConfig::default()
        };
        let imu = ImuSensor::new(cfg, 13);
        let early = imu.read(&effects, 1).motion.norm();
        let late = imu.read(&effects, 400).motion.norm();
        // A random walk grows like sqrt(t); allow generous slack but
        // demand growth.
        assert!(late > early, "bias must accumulate: {early} -> {late}");
    }

    #[test]
    fn frame_zero_reads_only_noise() {
        let effects = shaky_effects();
        let imu = ImuSensor::new(ImuConfig::default(), 15);
        let r = imu.read(&effects, 0);
        assert!(r.motion.norm() < 1.0);
    }
}
