//! Sequences: named, attributed video clips with deterministic rendering.

use crate::attributes::VisualAttribute;
use euphrates_camera::scene::{GtObject, Scene};
use euphrates_common::image::Resolution;

pub use euphrates_camera::scene::FrameIter;

/// A benchmark sequence: a scene plus its metadata.
#[derive(Debug, Clone)]
pub struct Sequence {
    /// Sequence name (e.g. `"otb_fm_03"`).
    pub name: String,
    /// Visual attributes the sequence exhibits.
    pub attributes: Vec<VisualAttribute>,
    /// The underlying scene.
    pub scene: Scene,
    /// Number of frames.
    pub frames: u32,
}

impl Sequence {
    /// Frame resolution.
    pub fn resolution(&self) -> Resolution {
        self.scene.resolution()
    }

    /// `true` if the sequence carries the attribute.
    pub fn has_attribute(&self, attr: VisualAttribute) -> bool {
        self.attributes.contains(&attr)
    }

    /// Lazily renders the sequence's frames, one per `next()` call,
    /// borrowing the scene — the streaming front-end's entry point.
    pub fn render_iter(&self) -> FrameIter<'_> {
        self.scene.frames(0..self.frames)
    }

    /// Ground truth only (cheap; no pixel rendering).
    pub fn ground_truth(&self, frame: u32) -> Vec<GtObject> {
        self.scene.ground_truth(frame)
    }

    /// Mean target speed across the sequence (diagnostic; used to verify
    /// the fast-motion attribute actually exceeds the search range).
    pub fn mean_target_speed(&self) -> f64 {
        let mut sum = 0.0;
        let mut n = 0u32;
        for f in 0..self.frames {
            for gt in self.ground_truth(f) {
                sum += gt.speed;
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / f64::from(n)
        }
    }
}

/// Scaling knobs for CI-fast runs: fractions of sequences and of frames
/// per sequence (floors keep statistics meaningful).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetScale {
    /// Fraction of sequences generated.
    pub sequence_fraction: f64,
    /// Fraction of each sequence's frames.
    pub frame_fraction: f64,
}

impl DatasetScale {
    /// Full paper-scale datasets.
    pub fn full() -> Self {
        DatasetScale {
            sequence_fraction: 1.0,
            frame_fraction: 1.0,
        }
    }

    /// Uniform scaling of both knobs.
    pub fn fraction(f: f64) -> Self {
        let f = f.clamp(0.01, 1.0);
        DatasetScale {
            sequence_fraction: f,
            frame_fraction: f,
        }
    }

    /// Reads `EUPHRATES_SCALE` (0–1, default `default`) from the
    /// environment — the bench harness knob.
    pub fn from_env(default: f64) -> Self {
        let f = std::env::var("EUPHRATES_SCALE")
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .unwrap_or(default);
        DatasetScale::fraction(f)
    }

    /// Applies the sequence fraction to a nominal count (≥ 1).
    pub fn sequences(&self, nominal: u32) -> u32 {
        ((f64::from(nominal) * self.sequence_fraction).round() as u32).clamp(1, nominal)
    }

    /// Applies the frame fraction to a nominal length (≥ 24 frames so the
    /// temporal dynamics — occlusion crossings, EW-32 windows — survive).
    pub fn frames(&self, nominal: u32) -> u32 {
        ((f64::from(nominal) * self.frame_fraction).round() as u32).clamp(24.min(nominal), nominal)
    }
}

impl Default for DatasetScale {
    fn default() -> Self {
        DatasetScale::full()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_floors_protect_statistics() {
        let s = DatasetScale::fraction(0.01);
        assert_eq!(s.sequences(100), 1);
        assert_eq!(s.frames(590), 24);
        let full = DatasetScale::full();
        assert_eq!(full.sequences(100), 100);
        assert_eq!(full.frames(590), 590);
    }

    #[test]
    fn fraction_is_clamped() {
        let s = DatasetScale::fraction(5.0);
        assert_eq!(s.sequence_fraction, 1.0);
        let s = DatasetScale::fraction(-1.0);
        assert!(s.sequence_fraction > 0.0);
    }

    #[test]
    fn short_nominal_lengths_are_not_inflated() {
        let s = DatasetScale::fraction(0.1);
        assert_eq!(s.frames(10), 10);
    }
}
