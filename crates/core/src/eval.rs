//! Suite-level evaluation plumbing: the deterministic parallel map used
//! by [`Scenario::evaluate`][crate::api::Scenario::evaluate] (re-exported
//! from [`euphrates_common::par`], where it is shared with the ISP's
//! intra-frame macroblock parallelism).
//!
//! Accuracy evaluation is offline (every frame of every sequence, §5.2),
//! so (sequence × scheme) pairs are embarrassingly parallel. All oracle
//! noise derives from `(seed, sequence index, frame)`, making results
//! independent of thread count and execution order.

pub use euphrates_common::par::{default_threads, parallel_map};
