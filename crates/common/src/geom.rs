//! 2-D geometry: vectors, axis-aligned rectangles, and IoU.
//!
//! Rectangles are stored as `(x, y, w, h)` in pixel units with `f64`
//! components. The vision pipeline treats boxes as continuous quantities
//! (extrapolation produces sub-pixel offsets); rasterization to macroblock
//! indices happens at the point of use.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub};

/// A 2-D vector with `f64` components, used for motion vectors and offsets.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec2f {
    /// Horizontal component (positive = rightward).
    pub x: f64,
    /// Vertical component (positive = downward, image convention).
    pub y: f64,
}

impl Vec2f {
    /// The zero vector.
    pub const ZERO: Vec2f = Vec2f { x: 0.0, y: 0.0 };

    /// Creates a vector from its components.
    pub const fn new(x: f64, y: f64) -> Self {
        Vec2f { x, y }
    }

    /// Euclidean length.
    pub fn norm(self) -> f64 {
        self.x.hypot(self.y)
    }

    /// Squared Euclidean length (avoids the square root).
    pub fn norm_sq(self) -> f64 {
        self.x * self.x + self.y * self.y
    }

    /// Component-wise scaling.
    pub fn scaled(self, k: f64) -> Self {
        Vec2f::new(self.x * k, self.y * k)
    }

    /// Linear interpolation: `self` at `t = 0`, `other` at `t = 1`.
    pub fn lerp(self, other: Vec2f, t: f64) -> Self {
        Vec2f::new(
            self.x + (other.x - self.x) * t,
            self.y + (other.y - self.y) * t,
        )
    }
}

impl Add for Vec2f {
    type Output = Vec2f;
    fn add(self, rhs: Vec2f) -> Vec2f {
        Vec2f::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl AddAssign for Vec2f {
    fn add_assign(&mut self, rhs: Vec2f) {
        self.x += rhs.x;
        self.y += rhs.y;
    }
}

impl Sub for Vec2f {
    type Output = Vec2f;
    fn sub(self, rhs: Vec2f) -> Vec2f {
        Vec2f::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Mul<f64> for Vec2f {
    type Output = Vec2f;
    fn mul(self, k: f64) -> Vec2f {
        self.scaled(k)
    }
}

impl Div<f64> for Vec2f {
    type Output = Vec2f;
    fn div(self, k: f64) -> Vec2f {
        Vec2f::new(self.x / k, self.y / k)
    }
}

impl Neg for Vec2f {
    type Output = Vec2f;
    fn neg(self) -> Vec2f {
        Vec2f::new(-self.x, -self.y)
    }
}

impl fmt::Display for Vec2f {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{:.2}, {:.2}>", self.x, self.y)
    }
}

impl From<Vec2i> for Vec2f {
    fn from(v: Vec2i) -> Vec2f {
        Vec2f::new(v.x as f64, v.y as f64)
    }
}

/// An integer 2-D vector, used for macroblock-granular motion vectors.
///
/// The paper (§2.3) encodes each component in `ceil(log2(2d+1))` bits; with
/// the typical search range `d = 7` a motion vector fits in one byte. `i16`
/// here comfortably covers any configurable search range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Vec2i {
    /// Horizontal component in pixels.
    pub x: i16,
    /// Vertical component in pixels.
    pub y: i16,
}

impl Vec2i {
    /// The zero vector.
    pub const ZERO: Vec2i = Vec2i { x: 0, y: 0 };

    /// Creates a vector from its components.
    pub const fn new(x: i16, y: i16) -> Self {
        Vec2i { x, y }
    }

    /// Squared Euclidean length.
    pub fn norm_sq(self) -> i32 {
        let (x, y) = (self.x as i32, self.y as i32);
        x * x + y * y
    }
}

impl Add for Vec2i {
    type Output = Vec2i;
    fn add(self, rhs: Vec2i) -> Vec2i {
        Vec2i::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Vec2i {
    type Output = Vec2i;
    fn sub(self, rhs: Vec2i) -> Vec2i {
        Vec2i::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl fmt::Display for Vec2i {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{}, {}>", self.x, self.y)
    }
}

/// An axis-aligned rectangle (`x`, `y` = top-left corner; `w`, `h` ≥ 0).
///
/// Used for regions of interest (ROIs), ground-truth boxes, and detector
/// outputs. Rectangles with non-positive width or height are *empty*: they
/// have zero area and zero IoU with everything.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Rect {
    /// Left edge.
    pub x: f64,
    /// Top edge.
    pub y: f64,
    /// Width (≥ 0 for non-empty rectangles).
    pub w: f64,
    /// Height (≥ 0 for non-empty rectangles).
    pub h: f64,
}

impl Rect {
    /// Creates a rectangle from its top-left corner and size.
    pub const fn new(x: f64, y: f64, w: f64, h: f64) -> Self {
        Rect { x, y, w, h }
    }

    /// Creates a rectangle from its center point and size.
    pub fn from_center(cx: f64, cy: f64, w: f64, h: f64) -> Self {
        Rect::new(cx - w / 2.0, cy - h / 2.0, w, h)
    }

    /// Creates the smallest rectangle containing both corner points.
    pub fn from_corners(x0: f64, y0: f64, x1: f64, y1: f64) -> Self {
        let (xa, xb) = if x0 <= x1 { (x0, x1) } else { (x1, x0) };
        let (ya, yb) = if y0 <= y1 { (y0, y1) } else { (y1, y0) };
        Rect::new(xa, ya, xb - xa, yb - ya)
    }

    /// Right edge (`x + w`).
    pub fn right(&self) -> f64 {
        self.x + self.w
    }

    /// Bottom edge (`y + h`).
    pub fn bottom(&self) -> f64 {
        self.y + self.h
    }

    /// Center point.
    pub fn center(&self) -> Vec2f {
        Vec2f::new(self.x + self.w / 2.0, self.y + self.h / 2.0)
    }

    /// Area; zero for empty rectangles.
    pub fn area(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.w * self.h
        }
    }

    /// `true` if the rectangle has non-positive width or height.
    pub fn is_empty(&self) -> bool {
        self.w <= 0.0 || self.h <= 0.0
    }

    /// The rectangle shifted by `v`.
    #[must_use]
    pub fn translated(&self, v: Vec2f) -> Rect {
        Rect::new(self.x + v.x, self.y + v.y, self.w, self.h)
    }

    /// The rectangle scaled by `k` about its own center (size changes,
    /// center stays).
    #[must_use]
    pub fn scaled_about_center(&self, k: f64) -> Rect {
        let c = self.center();
        Rect::from_center(c.x, c.y, self.w * k, self.h * k)
    }

    /// Intersection with `other`; an empty [`Rect`] if they do not overlap.
    #[must_use]
    pub fn intersection(&self, other: &Rect) -> Rect {
        let x0 = self.x.max(other.x);
        let y0 = self.y.max(other.y);
        let x1 = self.right().min(other.right());
        let y1 = self.bottom().min(other.bottom());
        Rect::new(x0, y0, (x1 - x0).max(0.0), (y1 - y0).max(0.0))
    }

    /// The smallest rectangle containing both `self` and `other`.
    ///
    /// If either rectangle is empty the other is returned unchanged; this is
    /// what the sub-ROI merge step of the extrapolation algorithm needs.
    #[must_use]
    pub fn union_bbox(&self, other: &Rect) -> Rect {
        if self.is_empty() {
            return *other;
        }
        if other.is_empty() {
            return *self;
        }
        let x0 = self.x.min(other.x);
        let y0 = self.y.min(other.y);
        let x1 = self.right().max(other.right());
        let y1 = self.bottom().max(other.bottom());
        Rect::new(x0, y0, x1 - x0, y1 - y0)
    }

    /// Intersection-over-Union with `other`, in `[0, 1]`.
    ///
    /// This is the accuracy metric of the paper (§5.2). Empty rectangles
    /// yield `0.0`.
    pub fn iou(&self, other: &Rect) -> f64 {
        let inter = self.intersection(other).area();
        if inter <= 0.0 {
            return 0.0;
        }
        let union = self.area() + other.area() - inter;
        if union <= 0.0 {
            0.0
        } else {
            inter / union
        }
    }

    /// Clamps the rectangle to lie inside `bounds`; may become empty if it
    /// is entirely outside.
    #[must_use]
    pub fn clamped_to(&self, bounds: &Rect) -> Rect {
        self.intersection(bounds)
    }

    /// `true` if the point `(px, py)` lies inside (closed on the top-left
    /// edges, open on the bottom-right, matching pixel coverage).
    pub fn contains(&self, px: f64, py: f64) -> bool {
        px >= self.x && px < self.right() && py >= self.y && py < self.bottom()
    }

    /// Splits the rectangle into an `nx × ny` grid of equal sub-rectangles,
    /// row-major. Used for deformation handling (§3.2): each sub-ROI is
    /// extrapolated independently.
    ///
    /// # Panics
    ///
    /// Panics if `nx` or `ny` is zero.
    pub fn grid(&self, nx: u32, ny: u32) -> Vec<Rect> {
        let mut out = Vec::with_capacity((nx * ny) as usize);
        self.grid_into(nx, ny, &mut out);
        out
    }

    /// [`grid`][Rect::grid] into a caller-owned vector (cleared first),
    /// so per-frame extrapolation loops can reuse one scratch buffer
    /// instead of allocating a sub-ROI list per call.
    ///
    /// # Panics
    ///
    /// Panics if `nx` or `ny` is zero.
    pub fn grid_into(&self, nx: u32, ny: u32, out: &mut Vec<Rect>) {
        assert!(nx > 0 && ny > 0, "grid dimensions must be positive");
        out.clear();
        out.reserve((nx * ny) as usize);
        let (sw, sh) = (self.w / nx as f64, self.h / ny as f64);
        for j in 0..ny {
            for i in 0..nx {
                out.push(Rect::new(
                    self.x + i as f64 * sw,
                    self.y + j as f64 * sh,
                    sw,
                    sh,
                ));
            }
        }
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:.1}, {:.1}; {:.1}x{:.1}]",
            self.x, self.y, self.w, self.h
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iou_identity_is_one() {
        let r = Rect::new(5.0, 5.0, 10.0, 20.0);
        assert!((r.iou(&r) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn iou_disjoint_is_zero() {
        let a = Rect::new(0.0, 0.0, 10.0, 10.0);
        let b = Rect::new(20.0, 20.0, 10.0, 10.0);
        assert_eq!(a.iou(&b), 0.0);
    }

    #[test]
    fn iou_half_overlap() {
        // Two 10x10 boxes overlapping by 5x10 => inter 50, union 150.
        let a = Rect::new(0.0, 0.0, 10.0, 10.0);
        let b = Rect::new(5.0, 0.0, 10.0, 10.0);
        assert!((a.iou(&b) - 50.0 / 150.0).abs() < 1e-12);
    }

    #[test]
    fn iou_empty_rect_is_zero() {
        let a = Rect::new(0.0, 0.0, 0.0, 10.0);
        let b = Rect::new(0.0, 0.0, 10.0, 10.0);
        assert_eq!(a.iou(&b), 0.0);
        assert_eq!(b.iou(&a), 0.0);
    }

    #[test]
    fn union_bbox_covers_both() {
        let a = Rect::new(0.0, 0.0, 4.0, 4.0);
        let b = Rect::new(10.0, 10.0, 2.0, 2.0);
        let u = a.union_bbox(&b);
        assert_eq!(u, Rect::new(0.0, 0.0, 12.0, 12.0));
    }

    #[test]
    fn union_bbox_with_empty_returns_other() {
        let a = Rect::new(1.0, 2.0, 3.0, 4.0);
        let empty = Rect::new(0.0, 0.0, 0.0, 0.0);
        assert_eq!(a.union_bbox(&empty), a);
        assert_eq!(empty.union_bbox(&a), a);
    }

    #[test]
    fn grid_partitions_area() {
        let r = Rect::new(0.0, 0.0, 100.0, 50.0);
        let cells = r.grid(2, 2);
        assert_eq!(cells.len(), 4);
        let total: f64 = cells.iter().map(Rect::area).sum();
        assert!((total - r.area()).abs() < 1e-9);
        // Row-major: the second cell is the top-right one.
        assert_eq!(cells[1], Rect::new(50.0, 0.0, 50.0, 25.0));
    }

    #[test]
    fn translated_preserves_size() {
        let r = Rect::new(0.0, 0.0, 10.0, 5.0);
        let t = r.translated(Vec2f::new(3.0, -1.0));
        assert_eq!((t.w, t.h), (10.0, 5.0));
        assert_eq!((t.x, t.y), (3.0, -1.0));
    }

    #[test]
    fn scaled_about_center_keeps_center() {
        let r = Rect::new(10.0, 10.0, 20.0, 10.0);
        let s = r.scaled_about_center(2.0);
        let (c0, c1) = (r.center(), s.center());
        assert!((c0.x - c1.x).abs() < 1e-12 && (c0.y - c1.y).abs() < 1e-12);
        assert!((s.area() - 4.0 * r.area()).abs() < 1e-9);
    }

    #[test]
    fn clamp_outside_becomes_empty() {
        let bounds = Rect::new(0.0, 0.0, 100.0, 100.0);
        let r = Rect::new(200.0, 200.0, 10.0, 10.0);
        assert!(r.clamped_to(&bounds).is_empty());
    }

    #[test]
    fn contains_respects_half_open_edges() {
        let r = Rect::new(0.0, 0.0, 10.0, 10.0);
        assert!(r.contains(0.0, 0.0));
        assert!(!r.contains(10.0, 0.0));
        assert!(!r.contains(0.0, 10.0));
    }

    #[test]
    fn from_corners_normalizes_order() {
        let r = Rect::from_corners(10.0, 12.0, 2.0, 4.0);
        assert_eq!(r, Rect::new(2.0, 4.0, 8.0, 8.0));
    }

    #[test]
    fn vec2f_arithmetic() {
        let a = Vec2f::new(1.0, 2.0);
        let b = Vec2f::new(3.0, -4.0);
        assert_eq!(a + b, Vec2f::new(4.0, -2.0));
        assert_eq!(b - a, Vec2f::new(2.0, -6.0));
        assert_eq!(a * 2.0, Vec2f::new(2.0, 4.0));
        assert_eq!(-a, Vec2f::new(-1.0, -2.0));
        assert!((Vec2f::new(3.0, 4.0).norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn vec2i_conversion_roundtrip() {
        let v = Vec2i::new(-7, 5);
        let f: Vec2f = v.into();
        assert_eq!((f.x, f.y), (-7.0, 5.0));
        assert_eq!(v.norm_sq(), 74);
    }

    #[test]
    fn lerp_endpoints() {
        let a = Vec2f::new(0.0, 0.0);
        let b = Vec2f::new(10.0, -10.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Vec2f::new(5.0, -5.0));
    }
}
