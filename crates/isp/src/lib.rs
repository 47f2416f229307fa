//! # euphrates-isp
//!
//! The Image Signal Processor substrate: the pipeline of Fig. 2/Fig. 7 of
//! the Euphrates paper, including the temporal-denoise stage whose
//! block-matching motion estimation produces the motion vectors that the
//! whole system is built around.
//!
//! The crate has two faces:
//!
//! * **Functional** — [`pipeline::IspPipeline`] turns RAW Bayer frames into
//!   RGB frames and, per frame, a [`motion::MotionField`]: one motion
//!   vector, SAD, and confidence (Equ. 2) per macroblock, computed by a
//!   real [`motion::BlockMatcher`] driving one of four
//!   [`motion::SearchStrategy`] walks (exhaustive, three-step, diamond,
//!   or two-level hierarchical).
//! * **Architectural** — [`linebuffer::TdSramModel`] models the
//!   temporal-denoise SRAM with single vs. double buffering (the §4.2
//!   design choice that keeps MV write-back off the ISP critical path).
//!   The ISP's power and DRAM traffic are charged by the one SoC model,
//!   `euphrates_soc::energy`.
//!
//! ## Performance notes
//!
//! Block matching is the frontend's arithmetic hot path; the matcher
//! keeps it as fast as one core allows without ever changing results:
//!
//! * **SWAR SAD micro-kernel** — [`motion`]'s SAD evaluates rows as
//!   8-pixel lanes in fixed-width reductions the compiler lowers to the
//!   hardware SAD instruction (`psadbw` on x86-64), addressed by
//!   running offsets into the flat sample storage with the ubiquitous
//!   16-px block width fully unrolled (two rows per early-exit check).
//!   `tests/search_properties.rs` checks it bit-identical to a scalar
//!   per-pixel reference (it measured ~2× the scalar kernel it
//!   replaced on VGA exhaustive search).
//! * **Total-order tie-break** — the best match is the minimum under
//!   (SAD, |v|², vy, vx), so the winner is independent of probe order.
//!   That lets the exhaustive walk probe the window in center-out
//!   rings: the incumbent drops early and the kernel's early exit
//!   abandons losing candidates after a row or two (~40 % fewer
//!   absolute-difference ops at VGA, identical fields).
//! * **Pyramid caching** — strategies that want the 2×-downsampled
//!   level ([`motion::BlockMatcher::wants_pyramid`]) can be fed
//!   caller-cached planes via
//!   [`motion::BlockMatcher::estimate_cached`]; the streaming
//!   frontend in `euphrates-core` builds each frame's coarse plane
//!   once (reused buffer, O(1) allocations) and double-buffers it
//!   alongside the fine plane, where a bare `estimate` call rebuilds
//!   both levels per frame pair. Since PR 5 the *evaluated default*
//!   strategy is [`motion::SearchStrategy::Hierarchical`] — the
//!   Fig. 11b sweep pins every built-in strategy within 0.008 success
//!   rate of exhaustive search, and hierarchical runs ~27 measured
//!   probes/block against ES's 225 (the paper's modelled ISP stage,
//!   TSS, stays selectable).
//! * **ISP stage kernels** — the [`stages`] and [`color`] kernels run
//!   over `Plane::row` slices and give the same bits as the per-pixel
//!   `at_clamped` code they replaced. Only pixels whose stencil leaves
//!   the frame take a clamped path: demosaic's one-pixel border, and
//!   denoise blocks displaced past a side edge. Dead-pixel correction
//!   reads a 2-sample edge-replicated copy, which is exactly clamp-to-
//!   edge, and takes its median of four as the sum less the extremes,
//!   halved. White balance sums channels as exact `u64` and applies
//!   its gains through two 256-entry tables. The color matrix reads
//!   its nine `m·v` products from tables, and it and the denoise blend
//!   round through an exact replacement for `f64::round` (the 2⁵²
//!   shift with a ties-away fix). `tests/stage_golden.rs` pins every
//!   stage's output digest, recorded from the old code, at sizes from
//!   1×1 to VGA. `color.rs` checks the rounding at every half-integer
//!   and its neighbours, and the default matrix over all 2²⁴ inputs.
//!   On perfbench's `detect_full_isp` (`--trace 1`, seed 42, 2-vCPU
//!   VM) the five stages fell from 12.0 to 2.1 ms/frame.
//!
//! ## Example
//!
//! ```
//! use euphrates_isp::motion::{BlockMatcher, SearchStrategy};
//! use euphrates_common::image::LumaFrame;
//!
//! # fn main() -> euphrates_common::Result<()> {
//! let prev = LumaFrame::new(64, 64)?;
//! let mut cur = LumaFrame::new(64, 64)?;
//! cur.set(32, 32, 255);
//! let matcher = BlockMatcher::new(16, 7, SearchStrategy::ThreeStep)?;
//! let field = matcher.estimate(&cur, &prev)?;
//! assert_eq!(field.blocks_x(), 4);
//! # Ok(())
//! # }
//! ```

pub mod color;
pub mod interpolate;
pub mod linebuffer;
pub mod motion;
pub mod pipeline;
pub mod predictive;
pub mod raw_motion;
pub mod stages;

pub use motion::{
    BlockMatcher, CachedPlanes, MotionField, MotionVector, RowPrefix, SearchStats, SearchStrategy,
};
pub use pipeline::{IspOutput, IspPipeline};
pub use predictive::PredictiveBlockMatcher;
pub use raw_motion::RawBlockMatcher;
