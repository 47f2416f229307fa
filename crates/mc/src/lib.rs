//! # euphrates-mc
//!
//! The **Motion Controller** — the new hardware IP proposed by the
//! Euphrates paper (§4.3) — and the motion-extrapolation algorithm it
//! executes (§3).
//!
//! * [`algorithm`] — reference implementation of Equations 1–3 (ROI-average
//!   motion, SAD-derived confidence, the recursive noise filter) and the
//!   sub-ROI deformation handling.
//! * [`datapath`] — the 4-wide SIMD fixed-point datapath (Q8.8/Q16.16,
//!   4-bit packed MVs) with per-call cycle counts, verified against the
//!   reference. Each sub-ROI is one pass over the motion field's shared
//!   overlap walk ([`MotionField::roi_overlaps`]): overlap-weighted sums
//!   accumulate as exact integers, become Q16.16 once before the divide,
//!   and the same pass counts the blocks the op model charges.
//!
//! The reference [`algorithm`] reads the same walk, so both paths see
//! the same blocks and overlap areas, bit for bit.
//!
//! [`MotionField::roi_overlaps`]: euphrates_isp::motion::MotionField::roi_overlaps
//! * [`policy`] — extrapolation-window control: constant EW-N and the
//!   adaptive mode (§3.3).
//! * [`registers`] — the memory-mapped register file the CPU configures
//!   and the CNN engine's results land in (Fig. 8).
//! * [`sequencer`] — the FSM that autonomously walks each frame through
//!   fetch → extrapolate → (program NNX → wait → compare) → write-back,
//!   keeping the CPU asleep.
//! * [`ip`] — clock/SRAM/area parameters calibrated to the paper's
//!   post-layout results (0.035 mm², 8 KB SRAM); its 2.2 mW is charged by
//!   the SoC energy model.
//!
//! ## Example
//!
//! ```
//! use euphrates_mc::algorithm::{Extrapolator, RoiState};
//! use euphrates_isp::motion::MotionField;
//! use euphrates_common::geom::Rect;
//! use euphrates_common::image::Resolution;
//!
//! # fn main() -> euphrates_common::Result<()> {
//! let field = MotionField::zeroed(Resolution::VGA, 16, 7)?;
//! let extrapolator = Extrapolator::default();
//! let mut state = RoiState::new(extrapolator.config());
//! let roi = Rect::new(100.0, 100.0, 80.0, 60.0);
//! // A zero-motion field leaves the ROI in place.
//! let out = extrapolator.extrapolate(&roi, &field, &mut state);
//! assert!((out.x - roi.x).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

pub mod algorithm;
pub mod datapath;
pub mod fusion;
pub mod ip;
pub mod policy;
pub mod registers;
pub mod sequencer;

pub use algorithm::{ExtrapolationConfig, Extrapolator, RoiState};
pub use datapath::SimdDatapath;
pub use fusion::FusedExtrapolator;
pub use ip::McConfig;
pub use policy::{AdaptiveConfig, EwController, EwPolicy, FrameKind};
pub use registers::RegisterFile;
pub use sequencer::{McSequencer, SeqState};
