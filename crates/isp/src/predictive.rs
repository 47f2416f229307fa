//! Predictive block matching — the codec-style motion search of the §7
//! discussion.
//!
//! The paper notes that fast motion beyond the ±d search window is
//! fundamentally unrecoverable for memoryless block matching, and that
//! "enlarging the search window might improve the accuracy, but has
//! significant overhead". Video codecs solve this cheaply with *predicted
//! motion vectors*: each block's search is centered on its own motion in
//! the previous frame, so a constant-velocity object stays matchable at
//! any speed while the per-block arithmetic stays that of a small window.
//! This module implements that scheme as the future-work extension the
//! paper sketches for codec/vision co-design.
//!
//! The predictive matcher is a [`BlockMatcher`] whose windows are centred
//! on each block's predictor instead of on zero: it runs the same
//! strategy walk, SAD kernel, `(SAD, |v|², (vy, vx))` tie-break and
//! metering, so [`SearchStrategy::probes_per_block`] bounds its measured
//! probes exactly as it bounds the plain matcher's.

use crate::motion::{BlockMatcher, CachedPlanes, MotionField, SearchStats, SearchStrategy};
use euphrates_common::error::Result;
use euphrates_common::geom::Vec2i;
use euphrates_common::image::{LumaFrame, Resolution};

/// A block matcher whose per-block search window is re-centered on the
/// block's previous motion (codec-style PMV search).
#[derive(Debug, Clone)]
pub struct PredictiveBlockMatcher {
    matcher: BlockMatcher,
    /// Cap on the predictor magnitude (bounds worst-case memory access
    /// strides in hardware; MVs stay representable in one byte).
    max_predictor: i16,
    prev_field: Option<MotionField>,
}

impl PredictiveBlockMatcher {
    /// Creates a predictive matcher with the same parameters as
    /// [`BlockMatcher::new`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`](euphrates_common::error::Error::InvalidConfig)
    /// for invalid block parameters.
    pub fn new(mb_size: u32, search_range: u32, strategy: SearchStrategy) -> Result<Self> {
        Ok(PredictiveBlockMatcher {
            matcher: BlockMatcher::new(mb_size, search_range, strategy)?,
            max_predictor: 64,
            prev_field: None,
        })
    }

    /// Drops the motion history (start of a new stream).
    pub fn reset(&mut self) {
        self.prev_field = None;
    }

    /// `predictor` clamped to `±max_predictor` per axis: the window centre.
    fn centre(&self, predictor: Vec2i) -> Vec2i {
        Vec2i::new(
            predictor.x.clamp(-self.max_predictor, self.max_predictor),
            predictor.y.clamp(-self.max_predictor, self.max_predictor),
        )
    }

    /// Stateless variant: searches every block around one externally
    /// supplied global predictor (e.g. an IMU's camera-motion estimate —
    /// the §7 sensor-fusion direction). Unlike post-hoc compensation,
    /// re-centering the *search window* lets block matching measure
    /// motion whose global component exceeds ±d.
    ///
    /// # Errors
    ///
    /// Propagates shape mismatches.
    pub fn estimate_with_global_predictor(
        &self,
        cur: &LumaFrame,
        prev: &LumaFrame,
        predictor: Vec2i,
    ) -> Result<MotionField> {
        let centre = self.centre(predictor);
        self.matcher
            .estimate_inner(cur, prev, CachedPlanes::default(), |_, _| centre)
            .map(|(field, _)| field)
    }

    /// Estimates motion, centring every block's window on its previous
    /// MV (zero on the first frame, or after a resolution change).
    ///
    /// # Errors
    ///
    /// Propagates shape mismatches.
    pub fn estimate(&mut self, cur: &LumaFrame, prev: &LumaFrame) -> Result<MotionField> {
        self.estimate_with_stats(cur, prev).map(|(field, _)| field)
    }

    /// [`estimate`][PredictiveBlockMatcher::estimate], also returning the
    /// measured search-effort counters, like
    /// [`BlockMatcher::estimate_with_stats`].
    ///
    /// # Errors
    ///
    /// Propagates shape mismatches.
    pub fn estimate_with_stats(
        &mut self,
        cur: &LumaFrame,
        prev: &LumaFrame,
    ) -> Result<(MotionField, SearchStats)> {
        let res = Resolution::new(cur.width(), cur.height());
        let history = self.prev_field.as_ref().filter(|f| f.resolution() == res);
        let (field, stats) =
            self.matcher
                .estimate_inner(cur, prev, CachedPlanes::default(), |bx, by| {
                    history.map_or(Vec2i::ZERO, |f| self.centre(f.at_block(bx, by).v))
                })?;
        self.prev_field = Some(field.clone());
        Ok((field, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use euphrates_common::rngx;

    fn textured(width: u32, height: u32, seed: u64, shift: i64) -> LumaFrame {
        let mut f = LumaFrame::new(width, height).unwrap();
        for y in 0..height {
            for x in 0..width {
                let v = (rngx::lattice_hash(seed, (i64::from(x) - shift) / 4, i64::from(y) / 4)
                    * 255.0) as u8;
                f.set(x, y, v);
            }
        }
        f
    }

    #[test]
    fn first_frame_behaves_like_plain_matching() {
        let prev = textured(96, 96, 1, 0);
        let cur = textured(96, 96, 1, 4);
        let mut pm = PredictiveBlockMatcher::new(16, 7, SearchStrategy::Exhaustive).unwrap();
        let field = pm.estimate(&cur, &prev).unwrap();
        assert_eq!(i32::from(field.at_block(2, 2).v.x), 4);
    }

    #[test]
    fn predictor_tracks_motion_beyond_the_window() {
        // 12 px/frame: unreachable for d=7 memoryless matching, trivially
        // tracked once the predictor locks on.
        let mut pm = PredictiveBlockMatcher::new(16, 7, SearchStrategy::Exhaustive).unwrap();
        let speed = 12i64;
        let mut found = Vec::new();
        for step in 1..5i64 {
            let prev = textured(160, 96, 2, speed * (step - 1));
            let cur = textured(160, 96, 2, speed * step);
            let field = pm.estimate(&cur, &prev).unwrap();
            found.push(i32::from(field.at_block(4, 3).v.x));
        }
        // First frame saturates at <= 7; later frames converge to 12.
        assert!(found[0] <= 7, "first estimate {found:?}");
        assert_eq!(*found.last().unwrap(), 12, "history {found:?}");
    }

    #[test]
    fn plain_matcher_cannot_do_this() {
        let prev = textured(160, 96, 2, 0);
        let cur = textured(160, 96, 2, 12);
        let m = BlockMatcher::new(16, 7, SearchStrategy::Exhaustive).unwrap();
        let field = m.estimate(&cur, &prev).unwrap();
        assert!(i32::from(field.at_block(4, 3).v.x) <= 7);
    }

    #[test]
    fn reset_clears_the_predictor() {
        let mut pm = PredictiveBlockMatcher::new(16, 7, SearchStrategy::Exhaustive).unwrap();
        let prev = textured(96, 96, 3, 0);
        let cur = textured(96, 96, 3, 6);
        pm.estimate(&cur, &prev).unwrap();
        pm.reset();
        // After reset the next estimate starts from zero predictors: a
        // static pair must return zero motion.
        let field = pm.estimate(&prev, &prev).unwrap();
        assert_eq!(field.mean_magnitude(), 0.0);
    }

    #[test]
    fn resolution_changes_invalidate_the_predictor() {
        let mut pm = PredictiveBlockMatcher::new(16, 7, SearchStrategy::ThreeStep).unwrap();
        let a = textured(96, 96, 4, 0);
        pm.estimate(&a, &a).unwrap();
        let b = textured(64, 64, 4, 0);
        let field = pm.estimate(&b, &b).unwrap();
        assert_eq!(field.resolution(), Resolution::new(64, 64));
        assert_eq!(field.mean_magnitude(), 0.0);
    }

    /// Digest of every block's `(vx, vy, sad)` over the 12 px/frame
    /// lock-on sequence and global predictors −20..=20 at `Exhaustive`,
    /// recorded before the predictive matcher moved onto the shared
    /// search walk: the refactor must not move a single vector.
    #[test]
    fn exhaustive_fields_match_recorded_digest() {
        fn absorb(h: &mut rngx::Fnv1a, field: &MotionField) {
            for by in 0..field.blocks_y() {
                for bx in 0..field.blocks_x() {
                    let mv = field.at_block(bx, by);
                    h.write(&mv.v.x.to_le_bytes());
                    h.write(&mv.v.y.to_le_bytes());
                    h.write(&mv.sad.to_le_bytes());
                }
            }
        }
        let mut h = rngx::Fnv1a::new();
        let mut pm = PredictiveBlockMatcher::new(16, 7, SearchStrategy::Exhaustive).unwrap();
        for step in 1..5i64 {
            let prev = textured(160, 96, 2, 12 * (step - 1));
            let cur = textured(160, 96, 2, 12 * step);
            absorb(&mut h, &pm.estimate(&cur, &prev).unwrap());
        }
        let prev = textured(160, 96, 2, 0);
        let cur = textured(160, 96, 2, 12);
        for p in -20i16..=20 {
            let predictor = Vec2i::new(p, -p / 2);
            absorb(
                &mut h,
                &pm.estimate_with_global_predictor(&cur, &prev, predictor)
                    .unwrap(),
            );
        }
        assert_eq!(
            h.finish(),
            0xAA5C_1F16_111E_C232,
            "digest {:#018X}",
            h.finish()
        );
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let mut pm = PredictiveBlockMatcher::new(16, 7, SearchStrategy::ThreeStep).unwrap();
        let a = textured(96, 96, 5, 0);
        let b = textured(64, 96, 5, 0);
        assert!(pm.estimate(&a, &b).is_err());
    }
}
