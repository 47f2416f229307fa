//! The end-to-end ISP pipeline (Fig. 2 / Fig. 7).
//!
//! [`IspPipeline`] is stateful: it keeps the previous frame's denoised luma
//! so the temporal-denoise stage can estimate motion against it. Each
//! frame runs in two parts:
//!
//! * the **motion step** ([`IspPipeline::motion_step`]): dead-pixel
//!   correction → demosaic → gray-world gains → the noisy luma of the
//!   white-balanced pixels → block search → temporal denoise. It exports
//!   the [`MotionField`] a stock ISP would have discarded (§2.2), runs
//!   into buffers the pipeline owns, and never writes the white-balanced
//!   RGB frame.
//! * the **finishing tail**: white balance applied to the RGB frame,
//!   color correction and gamma. Only [`IspPipeline::process`] runs it; it
//!   returns the finished frame, the denoised luma and the motion field
//!   as an [`IspOutput`]. A caller that reads only the motion (the
//!   full-ISP frame source in `euphrates-core`) calls the motion step.

use crate::color::{ColorCorrection, Gamma};
use crate::motion::{BlockMatcher, MotionField, SearchStrategy};
use crate::stages::{DeadPixelCorrection, Demosaic, TemporalDenoise, WbTables, WhiteBalance};
use euphrates_common::error::{Error, Result};
use euphrates_common::image::{rgb_to_luma_row, BayerFrame, LumaFrame, Resolution, RgbFrame};

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
    /// The finished RGB frame: white-balanced, color-corrected and
    /// gamma-encoded by [`IspPipeline::process`]'s finishing tail.
    pub rgb: RgbFrame,
    /// Denoised luma plane (input to next frame's motion estimation).
    pub luma: LumaFrame,
    /// Motion metadata exported to the frame buffer (zero for frame 0,
    /// which has no predecessor).
    pub motion: MotionField,
    /// Number of dead pixels corrected this frame.
    pub dead_pixels_corrected: u32,
}

/// What one frame's motion step exports.
#[derive(Debug, Clone)]
pub struct IspMotion {
    /// Frame index within the stream (0-based).
    pub frame_index: u64,
    /// The temporal-denoise stage's motion field (zero for frame 0).
    pub motion: MotionField,
    /// Number of dead pixels corrected this frame.
    pub dead_pixels_corrected: u32,
}

/// The stateful ISP pipeline: a motion step plus a finishing tail (see
/// the module docs).
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
    /// Dead-pixel correction's edge-replicated scratch.
    padded: Vec<u8>,
    /// Dead-pixel-corrected RAW frame.
    raw: BayerFrame,
    /// Demosaiced frame, not white-balanced.
    rgb: RgbFrame,
    /// Noisy luma of the white-balanced pixels.
    noisy: LumaFrame,
    /// Denoise target, swapped with `prev` each frame.
    denoised: LumaFrame,
    /// The last frame's denoised luma (valid when `have_prev`).
    prev: LumaFrame,
    have_prev: bool,
    frame_count: u64,
}

impl IspPipeline {
    /// Creates a pipeline for the given configuration, with its frame
    /// buffers allocated at the configured resolution.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for invalid block-matching
    /// parameters or a zero-sized resolution.
    pub fn new(config: IspConfig) -> Result<Self> {
        let matcher = BlockMatcher::new(config.mb_size, config.search_range, config.strategy)?;
        let Resolution { width, height } = config.resolution;
        let luma = LumaFrame::new(width, height)?;
        Ok(IspPipeline {
            config,
            dpc: DeadPixelCorrection::default(),
            demosaic: Demosaic,
            wb: WhiteBalance::default(),
            td: TemporalDenoise::default(),
            ccm: ColorCorrection::default(),
            gamma: Gamma::default(),
            matcher,
            padded: Vec::new(),
            raw: luma.clone(),
            rgb: RgbFrame::new(width, height)?,
            noisy: luma.clone(),
            denoised: luma.clone(),
            prev: luma,
            have_prev: false,
            frame_count: 0,
        })
    }

    /// Drops temporal state (previous frame); the next frame becomes frame
    /// 0 of a new stream.
    pub fn reset(&mut self) {
        self.have_prev = false;
        self.frame_count = 0;
    }

    /// Runs one RAW frame through the motion step: dead-pixel correction,
    /// demosaic, gray-world gains, the noisy luma of the white-balanced
    /// pixels, block search against the previous denoised luma, and
    /// temporal denoise. The white-balanced RGB frame is never written;
    /// the finishing tail of [`process`][IspPipeline::process] is skipped.
    /// Every frame buffer is the pipeline's own. Under a single-level
    /// search a stream allocates only the returned motion field per
    /// frame; a pyramid strategy also builds its coarse planes inside
    /// the matcher.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] if `raw` does not match the
    /// configured resolution.
    pub fn motion_step(&mut self, raw: &BayerFrame) -> Result<IspMotion> {
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
        let dead_pixels_corrected = self
            .dpc
            .process_into(raw, &mut self.raw, &mut self.padded)?;

        // Conversion + RGB domain: the luma is taken through the white-
        // balance tables (linear-domain data, as ME wants).
        self.demosaic.process_into(&self.raw, &mut self.rgb)?;
        let (rgb, noisy) = (self.rgb.samples(), self.noisy.samples_mut());
        match WbTables::for_gains(self.wb.gains(&self.rgb)) {
            Some(tables) => tables.luma_row(rgb, noisy),
            None => rgb_to_luma_row(rgb, noisy),
        }

        // Temporal-denoise stage: motion estimation against the previous
        // denoised frame, then motion compensation (Fig. 7). Frame 0's
        // noisy luma is its denoised luma.
        let motion = if self.have_prev {
            let field = self.matcher.estimate(&self.noisy, &self.prev)?;
            self.td
                .process_into(&self.noisy, &self.prev, &field, &mut self.denoised)?;
            std::mem::swap(&mut self.denoised, &mut self.prev);
            field
        } else {
            let field = MotionField::zeroed(
                self.config.resolution,
                self.config.mb_size,
                self.config.search_range,
            )?;
            std::mem::swap(&mut self.noisy, &mut self.prev);
            field
        };
        self.have_prev = true;
        let frame_index = self.frame_count;
        self.frame_count += 1;
        Ok(IspMotion {
            frame_index,
            motion,
            dead_pixels_corrected,
        })
    }

    /// Processes one RAW frame through the full pipeline: the
    /// [`motion_step`][IspPipeline::motion_step], then the finishing tail
    /// (white balance applied, color correction, gamma) on a copy of the
    /// demosaiced frame.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] if `raw` does not match the
    /// configured resolution.
    pub fn process(&mut self, raw: &BayerFrame) -> Result<IspOutput> {
        let step = self.motion_step(raw)?;
        let mut rgb = self.rgb.clone();
        self.wb.process(&mut rgb);
        self.ccm.process(&mut rgb);
        self.gamma.process(&mut rgb);
        Ok(IspOutput {
            frame_index: step.frame_index,
            rgb,
            luma: self.prev.clone(),
            motion: step.motion,
            dead_pixels_corrected: step.dead_pixels_corrected,
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
