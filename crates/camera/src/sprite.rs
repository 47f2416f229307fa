//! Sprites: the visual objects that populate a scene.
//!
//! A sprite is a set of [`Part`]s positioned relative to the object center.
//! A rigid object is a single static part; a deformable object (the paper's
//! "running athlete" example, §3.2) has several parts that swing
//! independently — exactly the case the sub-ROI extrapolation is designed
//! to handle.

use crate::texture::Texture;
use euphrates_common::geom::Vec2f;

/// The geometric footprint of a part.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Axis-aligned rectangle (before object rotation).
    Rectangle,
    /// Inscribed ellipse.
    Ellipse,
}

/// One rigid piece of a sprite.
///
/// Geometry is expressed in *object units*: offsets and sizes are fractions
/// of the sprite's base size, so the same part layout works at any scale.
#[derive(Debug, Clone, PartialEq)]
pub struct Part {
    /// Part center relative to the object center, in object units.
    pub offset: Vec2f,
    /// Part size, in object units (1.0 = the sprite's full extent).
    pub size: Vec2f,
    /// Footprint shape.
    pub shape: Shape,
    /// Surface texture.
    pub texture: Texture,
    /// Swing amplitude in object units (deformation), zero for rigid parts.
    pub swing_amplitude: Vec2f,
    /// Swing period in frames (ignored when the amplitude is zero).
    pub swing_period: f64,
    /// Swing phase in radians.
    pub swing_phase: f64,
}

impl Part {
    /// A rigid full-size part with the given shape and texture.
    pub fn rigid(shape: Shape, texture: Texture) -> Part {
        Part {
            offset: Vec2f::ZERO,
            size: Vec2f::new(1.0, 1.0),
            shape,
            texture,
            swing_amplitude: Vec2f::ZERO,
            swing_period: 1.0,
            swing_phase: 0.0,
        }
    }

    /// The part's offset at frame `t`, including swing.
    pub fn offset_at(&self, t: f64) -> Vec2f {
        if self.swing_amplitude == Vec2f::ZERO || self.swing_period == 0.0 {
            return self.offset;
        }
        let w = std::f64::consts::TAU * t / self.swing_period + self.swing_phase;
        Vec2f::new(
            self.offset.x + self.swing_amplitude.x * w.sin(),
            self.offset.y + self.swing_amplitude.y * w.cos(),
        )
    }
}

/// A multi-part visual object.
#[derive(Debug, Clone, PartialEq)]
pub struct Sprite {
    /// Base width in pixels (at scale 1.0).
    pub width: f64,
    /// Base height in pixels (at scale 1.0).
    pub height: f64,
    /// The sprite's parts; must be non-empty.
    pub parts: Vec<Part>,
}

impl Sprite {
    /// A rigid single-part sprite.
    pub fn rigid(width: f64, height: f64, shape: Shape, texture: Texture) -> Sprite {
        Sprite {
            width,
            height,
            parts: vec![Part::rigid(shape, texture)],
        }
    }

    /// An articulated "walker": a torso plus two swinging limbs, the
    /// deformable-object archetype from §3.2 of the paper.
    pub fn walker(width: f64, height: f64, seed: u64) -> Sprite {
        let torso = Part {
            offset: Vec2f::new(0.0, -0.1),
            size: Vec2f::new(0.55, 0.7),
            shape: Shape::Rectangle,
            texture: Texture::object_noise(seed),
            swing_amplitude: Vec2f::ZERO,
            swing_period: 1.0,
            swing_phase: 0.0,
        };
        let limb = |side: f64, phase: f64, seed: u64| Part {
            offset: Vec2f::new(side * 0.3, 0.32),
            size: Vec2f::new(0.25, 0.42),
            shape: Shape::Rectangle,
            texture: Texture::object_noise(seed),
            swing_amplitude: Vec2f::new(0.12, 0.04),
            swing_period: 24.0,
            swing_phase: phase,
        };
        Sprite {
            width,
            height,
            parts: vec![
                torso,
                limb(-1.0, 0.0, seed.wrapping_add(1)),
                limb(1.0, std::f64::consts::PI, seed.wrapping_add(2)),
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rigid_part_never_swings() {
        let p = Part::rigid(Shape::Rectangle, Texture::flat_gray());
        assert_eq!(p.offset_at(0.0), p.offset_at(123.0));
    }

    #[test]
    fn swing_is_periodic() {
        let mut p = Part::rigid(Shape::Ellipse, Texture::flat_gray());
        p.swing_amplitude = Vec2f::new(0.2, 0.1);
        p.swing_period = 24.0;
        let a = p.offset_at(3.0);
        let b = p.offset_at(3.0 + 24.0);
        assert!((a.x - b.x).abs() < 1e-9 && (a.y - b.y).abs() < 1e-9);
        // And actually moves within the period.
        let c = p.offset_at(9.0);
        assert!((a.x - c.x).abs() > 1e-6 || (a.y - c.y).abs() > 1e-6);
    }

    #[test]
    fn zero_period_swing_is_ignored() {
        let mut p = Part::rigid(Shape::Ellipse, Texture::flat_gray());
        p.swing_amplitude = Vec2f::new(0.2, 0.1);
        p.swing_period = 0.0;
        assert_eq!(p.offset_at(5.0), p.offset);
    }
}
