//! The end-to-end ISP pipeline (Fig. 2 / Fig. 7).
//!
//! [`IspPipeline`] is stateful: it keeps the previous frame's denoised luma
//! so the temporal-denoise stage can estimate motion against it. Per frame
//! it produces an [`IspOutput`] containing the processed RGB frame, the
//! denoised luma plane, and — the Euphrates augmentation — the
//! [`MotionField`] that a stock ISP would have discarded (§2.2).

use crate::color::{ColorCorrection, Gamma};
use crate::motion::{BlockMatcher, MotionField, SearchStrategy};
use crate::stages::{DeadPixelCorrection, Demosaic, TemporalDenoise, WhiteBalance};
use euphrates_common::error::{Error, Result};
use euphrates_common::image::{rgb_to_luma, BayerFrame, LumaFrame, Resolution, RgbFrame};

/// Static ISP configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct IspConfig {
    /// Input resolution; all frames must match.
    pub resolution: Resolution,
    /// Macroblock size for motion estimation (Table 1 default: 16).
    pub mb_size: u32,
    /// Block-matching search range `d` (default 7, §2.3).
    pub search_range: u32,
    /// Block-matching strategy (default TSS, the efficient choice).
    pub strategy: SearchStrategy,
}

impl IspConfig {
    /// The Table 1 configuration at the given resolution.
    pub fn standard(resolution: Resolution) -> Self {
        IspConfig {
            resolution,
            mb_size: 16,
            search_range: 7,
            strategy: SearchStrategy::ThreeStep,
        }
    }
}

/// One frame's worth of ISP output.
#[derive(Debug, Clone)]
pub struct IspOutput {
    /// Frame index within the stream (0-based).
    pub frame_index: u64,
    /// Processed RGB frame (what gets written to the frame buffer).
    pub rgb: RgbFrame,
    /// Denoised luma plane (input to next frame's motion estimation).
    pub luma: LumaFrame,
    /// Motion metadata exported to the frame buffer (zero for frame 0,
    /// which has no predecessor).
    pub motion: MotionField,
    /// Number of dead pixels corrected this frame.
    pub dead_pixels_corrected: u32,
}

/// The stateful ISP pipeline.
#[derive(Debug, Clone)]
pub struct IspPipeline {
    config: IspConfig,
    dpc: DeadPixelCorrection,
    demosaic: Demosaic,
    wb: WhiteBalance,
    td: TemporalDenoise,
    ccm: ColorCorrection,
    gamma: Gamma,
    matcher: BlockMatcher,
    prev_luma: Option<LumaFrame>,
    frame_count: u64,
}

impl IspPipeline {
    /// Creates a pipeline for the given configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for invalid block-matching
    /// parameters.
    pub fn new(config: IspConfig) -> Result<Self> {
        let matcher = BlockMatcher::new(config.mb_size, config.search_range, config.strategy)?;
        Ok(IspPipeline {
            config,
            dpc: DeadPixelCorrection::default(),
            demosaic: Demosaic,
            wb: WhiteBalance::default(),
            td: TemporalDenoise::default(),
            ccm: ColorCorrection::default(),
            gamma: Gamma::default(),
            matcher,
            prev_luma: None,
            frame_count: 0,
        })
    }

    /// Drops temporal state (previous frame); the next frame becomes frame
    /// 0 of a new stream.
    pub fn reset(&mut self) {
        self.prev_luma = None;
        self.frame_count = 0;
    }

    /// Processes one RAW frame through the full pipeline.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] if `raw` does not match the
    /// configured resolution.
    pub fn process(&mut self, raw: &BayerFrame) -> Result<IspOutput> {
        if raw.width() != self.config.resolution.width
            || raw.height() != self.config.resolution.height
        {
            return Err(Error::shape(format!(
                "ISP configured for {} but frame is {}x{}",
                self.config.resolution,
                raw.width(),
                raw.height()
            )));
        }

        // Bayer domain.
        let mut raw = raw.clone();
        let dead_pixels_corrected = self.dpc.process(&mut raw);

        // Conversion + RGB domain.
        let mut rgb = self.demosaic.process(&raw)?; // stays mutable through finishing
        self.wb.process(&mut rgb);
        let noisy_luma = rgb_to_luma(&rgb);

        // Temporal-denoise stage: motion estimation against the previous
        // denoised frame, then motion compensation (Fig. 7).
        let (motion, luma) = match &self.prev_luma {
            Some(prev) => {
                let field = self.matcher.estimate(&noisy_luma, prev)?;
                let denoised = self.td.process(&noisy_luma, prev, &field)?;
                (field, denoised)
            }
            None => (
                MotionField::zeroed(
                    self.config.resolution,
                    self.config.mb_size,
                    self.config.search_range,
                )?,
                noisy_luma,
            ),
        };

        // RGB-domain finishing on the output frame (linear-domain data —
        // including the luma used for ME — is already captured above).
        self.ccm.process(&mut rgb);
        self.gamma.process(&mut rgb);

        self.prev_luma = Some(luma.clone());
        let frame_index = self.frame_count;
        self.frame_count += 1;
        Ok(IspOutput {
            frame_index,
            rgb,
            luma,
            motion,
            dead_pixels_corrected,
        })
    }

    /// Total arithmetic operations per frame for the compute model: stencil
    /// stages at ops/pixel plus the block-matching cost (§2.3 formulas).
    pub fn ops_per_frame(&self) -> u64 {
        let px = self.config.resolution.pixels();
        let per_pixel = self.demosaic.ops_per_pixel()
            + self.dpc.ops_per_pixel()
            + self.wb.ops_per_pixel()
            + self.td.ops_per_pixel()
            + self.ccm.ops_per_pixel()
            + self.gamma.ops_per_pixel();
        per_pixel * px + self.matcher.ops_per_frame(self.config.resolution)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use euphrates_common::rngx;

    fn textured_raw(res: Resolution, seed: u64, shift: i64) -> BayerFrame {
        let mut f = BayerFrame::new(res.width, res.height).unwrap();
        for y in 0..res.height {
            for x in 0..res.width {
                let v = (rngx::lattice_hash(seed, (i64::from(x) - shift) / 4, i64::from(y) / 4)
                    * 255.0) as u8;
                f.set(x, y, v);
            }
        }
        f
    }

    #[test]
    fn first_frame_has_zero_motion() {
        let res = Resolution::new(64, 48);
        let mut isp = IspPipeline::new(IspConfig::standard(res)).unwrap();
        let out = isp.process(&textured_raw(res, 1, 0)).unwrap();
        assert_eq!(out.frame_index, 0);
        assert_eq!(out.motion.mean_magnitude(), 0.0);
        assert_eq!(out.rgb.width(), 64);
    }

    #[test]
    fn motion_is_detected_across_frames() {
        let res = Resolution::new(96, 96);
        let mut isp = IspPipeline::new(IspConfig::standard(res)).unwrap();
        isp.process(&textured_raw(res, 2, 0)).unwrap();
        let out = isp.process(&textured_raw(res, 2, 4)).unwrap();
        assert_eq!(out.frame_index, 1);
        // The dominant horizontal motion should be ~4 px.
        let mv = out.motion.at_block(2, 2);
        assert!(
            (i32::from(mv.v.x) - 4).abs() <= 1,
            "detected {:?} expected ~(4,0)",
            mv.v
        );
    }

    #[test]
    fn reset_clears_temporal_state() {
        let res = Resolution::new(64, 48);
        let mut isp = IspPipeline::new(IspConfig::standard(res)).unwrap();
        isp.process(&textured_raw(res, 3, 0)).unwrap();
        isp.process(&textured_raw(res, 3, 2)).unwrap();
        isp.reset();
        let out = isp.process(&textured_raw(res, 3, 4)).unwrap();
        assert_eq!(out.frame_index, 0);
        assert_eq!(out.motion.mean_magnitude(), 0.0);
    }

    #[test]
    fn wrong_resolution_is_rejected() {
        let mut isp = IspPipeline::new(IspConfig::standard(Resolution::new(64, 48))).unwrap();
        let raw = BayerFrame::new(32, 32).unwrap();
        assert!(isp.process(&raw).is_err());
    }

    #[test]
    fn ops_per_frame_is_dominated_by_stencils_at_16x16() {
        // §5.1: ME is ~2.5% overhead on a research ISP; our stencil ops
        // estimate should keep ME a small fraction at TSS.
        let isp = IspPipeline::new(IspConfig::standard(Resolution::FULL_HD)).unwrap();
        let total = isp.ops_per_frame() as f64;
        let me = BlockMatcher::new(16, 7, SearchStrategy::ThreeStep)
            .unwrap()
            .ops_per_frame(Resolution::FULL_HD) as f64;
        let frac = me / total;
        assert!(
            (0.2..0.6).contains(&frac),
            "ME fraction {frac} (me={me}, total={total})"
        );
    }

    #[test]
    fn pipeline_is_deterministic() {
        let res = Resolution::new(64, 48);
        let run = || {
            let mut isp = IspPipeline::new(IspConfig::standard(res)).unwrap();
            isp.process(&textured_raw(res, 5, 0)).unwrap();
            isp.process(&textured_raw(res, 5, 3)).unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.rgb, b.rgb);
        assert_eq!(a.motion, b.motion);
    }
}
