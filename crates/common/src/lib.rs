//! # euphrates-common
//!
//! Shared substrate types for the Euphrates continuous-vision simulator:
//! geometry ([`Rect`], [`Vec2f`], IoU), Q-format fixed-point arithmetic
//! ([`fixed::Q16`], [`fixed::Q32`]), image planes ([`image::LumaFrame`],
//! [`image::RgbFrame`], [`image::BayerFrame`]), accuracy metrics
//! ([`metrics`]), descriptive statistics ([`stats`]), physical-unit newtypes
//! ([`units`]), deterministic parallel-execution plumbing ([`par`]), the
//! seeded random source and digests ([`rngx`]), and plain-text table
//! rendering ([`table`]) used by the experiment harness.
//!
//! Every other crate in the workspace depends on this one; it has no
//! dependencies of its own outside the standard library.
//!
//! ## Example
//!
//! ```
//! use euphrates_common::geom::{Rect, Vec2f};
//!
//! let roi = Rect::new(10.0, 20.0, 100.0, 50.0);
//! let shifted = roi.translated(Vec2f::new(3.0, -2.0));
//! assert!(roi.iou(&shifted) > 0.8);
//! ```

pub mod error;
pub mod fixed;
pub mod geom;
pub mod image;
pub mod metrics;
pub mod par;
pub mod rngx;
pub mod stats;
pub mod table;
pub mod units;

pub use error::{Error, Result};
pub use geom::{Rect, Vec2f, Vec2i};
