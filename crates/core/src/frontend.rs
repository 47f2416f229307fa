//! Frontend execution: turning a dataset sequence into per-frame ground
//! truth + motion metadata, the inputs the Euphrates backend consumes.
//!
//! The frontend is *streaming*: [`frame_source`] returns an iterator that
//! renders, (optionally) sensor-models, and block-matches one frame at a
//! time, holding O(1 frame) of state — exactly the shape a serving
//! [`Session`][crate::api::Session] needs. The eager [`prepare_sequence`]
//! is a thin `collect()` over the same iterator, so the two paths are
//! bit-identical by construction. Batch evaluation
//! ([`Scenario::evaluate`][crate::api::Scenario::evaluate]) streams too:
//! it opens one source per sequence and pushes each frame into every
//! scheme's session as it is produced.
//!
//! Two configurations produce identical *kinds* of data:
//!
//! * [`MotionConfig::full_isp`] = `false` (default for large evaluations):
//!   the frames are rendered straight to luma and block-matched
//!   directly. This skips the sensor and the Bayer mosaic/demosaic round
//!   trip, which perturbs the motion field only marginally (the
//!   `frontend_paths_agree` test quantifies it) but costs time.
//! * `full_isp = true`: frames pass through the image sensor model (RGGB
//!   mosaic + read noise) and the ISP's motion step
//!   ([`IspPipeline::motion_step`]: dead-pixel correction → demosaic →
//!   gray-world gains → luma of the white-balanced pixels → block search
//!   → temporal denoise), with the motion field taken from the
//!   temporal-denoise stage exactly as in Fig. 7. Nothing downstream
//!   reads the finished RGB frame, so the source skips the ISP's
//!   finishing tail (white balance applied, color correction, gamma);
//!   [`IspPipeline::process`] exports the same motion field.

use euphrates_camera::scene::{GtObject, Renderer};
use euphrates_camera::sensor::{ImageSensor, SensorConfig};
use euphrates_common::error::Result;
use euphrates_common::geom::Rect;
use euphrates_common::image::{
    downsample2_dims, downsample2_into, BayerFrame, LumaFrame, Resolution, RgbFrame,
};
use euphrates_datasets::Sequence;
use euphrates_isp::motion::{BlockMatcher, CachedPlanes, MotionField, RowPrefix, SearchStrategy};
use euphrates_isp::pipeline::{IspConfig, IspPipeline};
use euphrates_nn::oracle::OracleTarget;

/// Motion-estimation configuration for an evaluation run.
///
/// `Eq + Hash`: it is part of what identifies an evaluated cell (two
/// runs under equal configs see bit-identical frames).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MotionConfig {
    /// Macroblock size (paper default 16).
    pub mb_size: u32,
    /// Search range `d` (paper default 7).
    pub search_range: u32,
    /// Block-matching strategy. The evaluated default is
    /// [`SearchStrategy::Hierarchical`] — the pyramid-cached two-level
    /// search, which the Fig. 11b sweep pins within 0.008 success rate
    /// of exhaustive search at a fraction of the probes (the paper's
    /// modelled ISP stage, TSS, remains selectable as
    /// [`SearchStrategy::ThreeStep`]), as do exhaustive and diamond
    /// search.
    pub strategy: SearchStrategy,
    /// Run the full sensor + ISP pipeline instead of the fast luma path.
    pub full_isp: bool,
    /// Enables the matcher's SAD lower-bound prefilter
    /// ([`BlockMatcher::with_prefilter`]) on the fast luma path, with
    /// its [`RowPrefix`] tables double-buffered alongside the pyramid
    /// (each frame's table is built exactly once and travels through
    /// the swap). Motion fields are bit-identical either way; the
    /// prefilter trades bound arithmetic for candidate evaluations, so
    /// it pays when evaluation is expensive (hardware models) and stays
    /// off by default on the SWAR host kernel — see the `euphrates-isp`
    /// module docs for the measured trade.
    pub prefilter: bool,
}

impl Default for MotionConfig {
    fn default() -> Self {
        MotionConfig {
            mb_size: 16,
            search_range: 7,
            strategy: SearchStrategy::Hierarchical,
            full_isp: false,
            prefilter: false,
        }
    }
}

/// One frame's backend-visible data.
///
/// Construct through [`FrameData::new`], which also caches the two
/// derived views every scheme used to recompute per frame — the
/// oracle-facing target list and the non-empty truth rectangles. One
/// frame is pushed into every scheme's session, so deriving them once
/// at production time removes a per-(frame × scheme) allocation from
/// both task hot loops. Treat a `FrameData` as
/// immutable once built: mutating `truth` in place would desync the
/// cached views.
#[derive(Debug, Clone)]
pub struct FrameData {
    /// Ground truth (consumed by the oracles and the scorer).
    pub truth: Vec<GtObject>,
    /// The ISP-exported motion field (zeroed for frame 0).
    pub motion: MotionField,
    /// Cached oracle view of `truth` (same order).
    targets: Vec<OracleTarget>,
    /// Cached non-empty ground-truth boxes (the scorer's view).
    truth_rects: Vec<Rect>,
}

impl FrameData {
    /// Bundles one frame's ground truth and motion field, deriving the
    /// cached oracle/scorer views.
    pub fn new(truth: Vec<GtObject>, motion: MotionField) -> Self {
        let targets = truth
            .iter()
            .map(|g| OracleTarget {
                id: g.id,
                label: g.label,
                rect: g.rect,
                visibility: g.visibility,
                blur: g.blur,
            })
            .collect();
        let truth_rects = truth
            .iter()
            .filter(|g| !g.rect.is_empty())
            .map(|g| g.rect)
            .collect();
        FrameData {
            truth,
            motion,
            targets,
            truth_rects,
        }
    }

    /// The oracle view of this frame's ground truth (one
    /// [`OracleTarget`] per truth object, same order).
    pub fn targets(&self) -> &[OracleTarget] {
        &self.targets
    }

    /// The non-empty ground-truth boxes (what detection scoring matches
    /// against).
    pub fn truth_rects(&self) -> &[Rect] {
        &self.truth_rects
    }
}

/// A sequence reduced to backend inputs, reusable across schemes.
#[derive(Debug, Clone)]
pub struct PreparedSequence {
    /// Sequence name.
    pub name: String,
    /// Frame resolution.
    pub resolution: Resolution,
    /// Per-frame data.
    pub frames: Vec<FrameData>,
}

impl PreparedSequence {
    /// Number of frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// `true` if the sequence has no frames.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }
}

/// The streaming frontend: renders and motion-estimates one frame per
/// `next()` call, holding only the previous luma plane (fast path) or the
/// ISP's temporal state (full path) between frames.
///
/// The source drives the scene's scanline [`Renderer`] directly through
/// fixed, reused buffers: the fast path renders straight to luma
/// ([`Renderer::render_luma_into`], which fuses illumination/noise and
/// the RGB→luma conversion, so no intermediate RGB frame is ever
/// materialized) and double-buffers the current/previous planes; the
/// full-ISP path reuses one RGB render target and one RAW capture, and
/// the ISP's motion step runs in the pipeline's own buffers. Once warm,
/// the fast path at its defaults and the full-ISP path under TSS make no
/// allocation of 64 KiB or more per frame (`tests/frame_allocations.rs`
/// pins both). A pyramid strategy on the full-ISP path still builds its
/// two coarse planes inside the matcher each frame.
///
/// Created by [`frame_source`]; consumed by
/// [`run_stream`][crate::api::run_stream], a
/// [`Session`][crate::api::Session] feeding loop, or `collect()`ed by
/// [`prepare_sequence`].
pub struct FrameSource<'a> {
    renderer: Renderer<'a>,
    next: u32,
    end: u32,
    resolution: Resolution,
    state: SourceState,
}

enum SourceState {
    /// Fast path: luma-domain block matching against the previous frame.
    Luma {
        matcher: BlockMatcher,
        config: MotionConfig,
        /// Current / previous luma planes, swapped each frame.
        cur: LumaFrame,
        prev: LumaFrame,
        /// Cached 2×-downsampled pyramid planes for `cur`/`prev`,
        /// double-buffered alongside them (present only when the
        /// matcher's strategy wants a pyramid). Each frame's coarse
        /// plane is built exactly once, in a reused buffer — where a
        /// bare `estimate` call would rebuild both levels per frame
        /// pair — so the pyramid travels with the frame through the
        /// swap.
        pyramid: Option<(LumaFrame, LumaFrame)>,
        /// Double-buffered [`RowPrefix`] tables of the fine planes
        /// (and, with a pyramid, the coarse planes), present only when
        /// [`MotionConfig::prefilter`] is set — same lifecycle as the
        /// pyramid: rebuilt for `cur` each frame, consumed as the
        /// reference side next frame after the swap. Boxed — the
        /// tables are prefilter-only, and the common prefilter-off
        /// source shouldn't carry their footprint in the enum.
        prefix: Option<Box<(RowPrefix, RowPrefix)>>,
        coarse_prefix: Option<Box<(RowPrefix, RowPrefix)>>,
        have_prev: bool,
    },
    /// Full path: sensor capture + the ISP's motion step per frame.
    FullIsp {
        sensor: ImageSensor,
        isp: Box<IspPipeline>,
        /// Reused render target and RAW capture buffer.
        rgb: RgbFrame,
        raw: BayerFrame,
    },
}

impl FrameSource<'_> {
    /// Frame resolution of the stream.
    pub fn resolution(&self) -> Resolution {
        self.resolution
    }
}

impl Iterator for FrameSource<'_> {
    type Item = Result<FrameData>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.next >= self.end {
            return None;
        }
        let index = self.next;
        self.next += 1;
        let renderer = &mut self.renderer;
        let mut produce = |state: &mut SourceState| -> Result<FrameData> {
            match state {
                SourceState::Luma {
                    matcher,
                    config,
                    cur,
                    prev,
                    pyramid,
                    prefix,
                    coarse_prefix,
                    have_prev,
                } => {
                    let truth = renderer.render_luma_into(index, cur);
                    if let Some((pcur, _)) = pyramid.as_mut() {
                        downsample2_into(cur, pcur);
                    }
                    if let Some(p) = prefix.as_deref_mut() {
                        p.0.rebuild(cur);
                    }
                    if let (Some(p), Some((pcur, _))) =
                        (coarse_prefix.as_deref_mut(), pyramid.as_ref())
                    {
                        p.0.rebuild(pcur);
                    }
                    let motion = if *have_prev {
                        let planes = CachedPlanes {
                            pyramid: pyramid.as_ref().map(|(pc, pp)| (pc, pp)),
                            prefix_prev: prefix.as_deref().map(|(_, xp)| xp),
                            coarse_prefix_prev: coarse_prefix.as_deref().map(|(_, xp)| xp),
                        };
                        matcher.estimate_cached(cur, prev, planes)?.0
                    } else {
                        MotionField::zeroed(
                            Resolution::new(cur.width(), cur.height()),
                            config.mb_size,
                            config.search_range,
                        )?
                    };
                    std::mem::swap(cur, prev);
                    if let Some((pcur, pprev)) = pyramid.as_mut() {
                        std::mem::swap(pcur, pprev);
                    }
                    if let Some(p) = prefix.as_deref_mut() {
                        let (xcur, xprev) = p;
                        std::mem::swap(xcur, xprev);
                    }
                    if let Some(p) = coarse_prefix.as_deref_mut() {
                        let (xcur, xprev) = p;
                        std::mem::swap(xcur, xprev);
                    }
                    *have_prev = true;
                    Ok(FrameData::new(truth, motion))
                }
                SourceState::FullIsp {
                    sensor,
                    isp,
                    rgb,
                    raw,
                } => {
                    let truth = renderer.render_into(index, rgb);
                    sensor.capture_into(rgb, index, raw)?;
                    let step = isp.motion_step(raw)?;
                    Ok(FrameData::new(truth, step.motion))
                }
            }
        };
        Some(produce(&mut self.state))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.end.saturating_sub(self.next) as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for FrameSource<'_> {}

/// Opens a streaming frame source over `seq`: frames are rendered and
/// motion-estimated lazily, one per `next()`, without materializing the
/// sequence. The scene is borrowed, not cloned.
///
/// # Errors
///
/// Propagates invalid motion-estimation configurations and ISP errors.
pub fn frame_source<'a>(seq: &'a Sequence, config: &MotionConfig) -> Result<FrameSource<'a>> {
    let res = seq.resolution();
    let state = if config.full_isp {
        let sensor = ImageSensor::new(
            SensorConfig {
                resolution: res,
                ..SensorConfig::default()
            },
            seq.scene.seed(),
        );
        let mut isp_cfg = IspConfig::standard(res);
        isp_cfg.mb_size = config.mb_size;
        isp_cfg.search_range = config.search_range;
        isp_cfg.strategy = config.strategy;
        SourceState::FullIsp {
            sensor,
            isp: Box::new(IspPipeline::new(isp_cfg)?),
            rgb: RgbFrame::new(res.width, res.height)?,
            raw: BayerFrame::new(res.width, res.height)?,
        }
    } else {
        let matcher = BlockMatcher::new(config.mb_size, config.search_range, config.strategy)?
            .with_prefilter(config.prefilter);
        let cur = LumaFrame::new(res.width, res.height)?;
        let pyramid = if matcher.wants_pyramid() {
            let (pw, ph) = downsample2_dims(&cur);
            Some((LumaFrame::new(pw, ph)?, LumaFrame::new(pw, ph)?))
        } else {
            None
        };
        let prefix = config
            .prefilter
            .then(|| Box::new((RowPrefix::build(&cur), RowPrefix::build(&cur))));
        let coarse_prefix = match (config.prefilter, pyramid.as_ref()) {
            (true, Some((pc, _))) => Some(Box::new((RowPrefix::build(pc), RowPrefix::build(pc)))),
            _ => None,
        };
        SourceState::Luma {
            matcher,
            config: *config,
            prev: cur.clone(),
            cur,
            pyramid,
            prefix,
            coarse_prefix,
            have_prev: false,
        }
    };
    Ok(FrameSource {
        renderer: seq.scene.renderer(),
        next: 0,
        end: seq.frames,
        resolution: res,
        state,
    })
}

/// Renders a sequence and runs motion estimation on it, eagerly — a
/// `collect()` over [`frame_source`], so the result is bit-identical to
/// the streaming path.
///
/// # Errors
///
/// Propagates invalid motion-estimation configurations and ISP errors.
pub fn prepare_sequence(seq: &Sequence, config: &MotionConfig) -> Result<PreparedSequence> {
    let source = frame_source(seq, config)?;
    let resolution = source.resolution();
    let frames = source.collect::<Result<Vec<FrameData>>>()?;
    Ok(PreparedSequence {
        name: seq.name.clone(),
        resolution,
        frames,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use euphrates_datasets::{otb100_like, DatasetScale};

    fn tiny_seq() -> Sequence {
        let mut suite = otb100_like(3, DatasetScale::fraction(0.05));
        suite.truncate(1);
        let mut s = suite.pop().unwrap();
        s.frames = 12;
        s
    }

    #[test]
    fn prepare_produces_one_frame_data_per_frame() {
        let seq = tiny_seq();
        let prep = prepare_sequence(&seq, &MotionConfig::default()).unwrap();
        assert_eq!(prep.len(), 12);
        assert!(!prep.is_empty());
        assert_eq!(prep.frames[0].motion.mean_magnitude(), 0.0);
        assert_eq!(prep.frames[0].truth.len(), 1);
    }

    #[test]
    fn motion_fields_reflect_target_motion() {
        let seq = tiny_seq();
        let prep = prepare_sequence(&seq, &MotionConfig::default()).unwrap();
        // Some later frame must show non-zero motion under the target.
        let moving = prep.frames[1..]
            .iter()
            .any(|f| f.motion.mean_magnitude() > 0.01);
        assert!(moving, "no motion detected across the sequence");
    }

    #[test]
    fn streaming_source_bit_matches_eager_preparation() {
        let seq = tiny_seq();
        for config in [
            MotionConfig::default(),
            MotionConfig {
                full_isp: true,
                ..MotionConfig::default()
            },
        ] {
            let eager = prepare_sequence(&seq, &config).unwrap();
            let mut streamed = 0usize;
            for (i, frame) in frame_source(&seq, &config).unwrap().enumerate() {
                let frame = frame.unwrap();
                assert_eq!(frame.motion, eager.frames[i].motion, "frame {i}");
                assert_eq!(frame.truth, eager.frames[i].truth, "frame {i}");
                streamed += 1;
            }
            assert_eq!(streamed, eager.len());
        }
    }

    #[test]
    fn fused_luma_source_matches_rgb_conversion_path() {
        // The streaming fast path renders straight to luma; its output
        // must bit-match the pre-refactor shape: render RGB, convert
        // with `rgb_to_luma`, then block-match against the previous
        // plane.
        let seq = tiny_seq();
        let config = MotionConfig::default();
        let matcher =
            BlockMatcher::new(config.mb_size, config.search_range, config.strategy).unwrap();
        let mut source = frame_source(&seq, &config).unwrap();
        assert_eq!(source.len(), seq.frames as usize);
        let mut prev: Option<LumaFrame> = None;
        for rendered in seq.render_iter() {
            let luma = euphrates_common::image::rgb_to_luma(&rendered.rgb);
            let expected = match &prev {
                Some(p) => matcher.estimate(&luma, p).unwrap(),
                None => MotionField::zeroed(seq.resolution(), config.mb_size, config.search_range)
                    .unwrap(),
            };
            let got = source.next().unwrap().unwrap();
            assert_eq!(got.motion, expected, "frame {}", rendered.index);
            assert_eq!(got.truth, rendered.truth, "frame {}", rendered.index);
            prev = Some(luma);
        }
        assert!(source.next().is_none());
    }

    #[test]
    fn prefiltered_streaming_is_bit_identical() {
        // Turning on the SAD lower-bound prefilter must not change a
        // single motion vector — it only reorders which candidates get
        // fully evaluated. Exercise both the hierarchical default
        // (fine + coarse prefix tables double-buffered with the
        // pyramid) and exhaustive search (fine table only).
        let seq = tiny_seq();
        for strategy in [SearchStrategy::Hierarchical, SearchStrategy::Exhaustive] {
            let base_cfg = MotionConfig {
                strategy,
                ..MotionConfig::default()
            };
            let pre_cfg = MotionConfig {
                prefilter: true,
                ..base_cfg
            };
            assert_ne!(base_cfg, pre_cfg, "prefilter is part of config identity");
            let base = frame_source(&seq, &base_cfg).unwrap();
            let pre = frame_source(&seq, &pre_cfg).unwrap();
            for (i, (a, b)) in base.zip(pre).enumerate() {
                let (a, b) = (a.unwrap(), b.unwrap());
                assert_eq!(a.motion, b.motion, "{strategy:?} frame {i}");
                assert_eq!(a.truth, b.truth, "{strategy:?} frame {i}");
            }
        }
    }

    #[test]
    fn frontend_paths_agree() {
        // The fast luma path and the full sensor+ISP path must yield
        // closely matching per-ROI average motion.
        let seq = tiny_seq();
        let fast = prepare_sequence(&seq, &MotionConfig::default()).unwrap();
        let full = prepare_sequence(
            &seq,
            &MotionConfig {
                full_isp: true,
                ..MotionConfig::default()
            },
        )
        .unwrap();
        for (i, (a, b)) in fast.frames.iter().zip(&full.frames).enumerate().skip(2) {
            let roi = &a.truth[0].rect;
            if roi.is_empty() {
                continue;
            }
            let (ma, _) = euphrates_mc::algorithm::roi_average_motion(&a.motion, roi);
            let (mb, _) = euphrates_mc::algorithm::roi_average_motion(&b.motion, roi);
            assert!(
                (ma.x - mb.x).abs() < 1.5 && (ma.y - mb.y).abs() < 1.5,
                "frame {i}: fast {ma} vs full {mb}"
            );
        }
    }

    #[test]
    fn invalid_motion_config_is_rejected() {
        let seq = tiny_seq();
        let bad = MotionConfig {
            mb_size: 0,
            ..MotionConfig::default()
        };
        assert!(prepare_sequence(&seq, &bad).is_err());
        assert!(frame_source(&seq, &bad).is_err());
    }
}
