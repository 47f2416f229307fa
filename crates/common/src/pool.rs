//! Reusable frame buffers for the streaming front-end.
//!
//! Rendering wants a fresh full-resolution output frame per call;
//! allocating and dropping those (0.9 MB each at VGA) on every frame
//! puts the allocator on the hot path of a pipeline that otherwise
//! moves rows with `memcpy`. A [`FramePool`] recycles the backing
//! `Vec`s instead: acquiring a frame of a size the pool has seen before
//! reuses the old allocation, so a steady-state streaming session
//! performs O(1) allocations per frame. (Luma and Bayer planes don't
//! need a pool: the front-end double-buffers its luma planes and reuses
//! one RAW capture buffer for the stream's lifetime.)
//!
//! # Thread story
//!
//! [`FramePool`] is deliberately lock-free and single-owner: every
//! method takes `&mut self`, so the compiler already enforces exclusive
//! use, and the pool is `Send` — a serving worker can own one and carry
//! it across its lifetime (the per-worker-pool pattern
//! `euphrates-serve` uses). It is deliberately not shared between
//! threads: one pool per worker keeps the frame path free of atomics
//! entirely.

use crate::image::{Plane, Resolution, Rgb};

/// How many buffers a pool retains. Streaming uses at most a handful
/// in flight; anything beyond this is freed rather than hoarded.
const MAX_POOLED: usize = 8;

/// A recycling pool of RGB frames.
#[derive(Debug, Default)]
pub struct FramePool {
    rgb: Vec<Vec<Rgb>>,
}

impl FramePool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        FramePool::default()
    }

    /// Hands out an RGB frame of the given resolution, reusing a
    /// recycled buffer when one is available. Samples are
    /// default-initialized only where the buffer grows; callers are
    /// expected to overwrite every pixel (the renderer's background
    /// blit does).
    pub fn acquire_rgb(&mut self, res: Resolution) -> Plane<Rgb> {
        let n = res.width as usize * res.height as usize;
        let mut buf = self.rgb.pop().unwrap_or_default();
        buf.resize(n, Rgb::default());
        Plane::from_vec(res.width, res.height, buf)
            .expect("pooled buffer resized to exactly width * height")
    }

    /// Returns an RGB frame's storage to the pool.
    pub fn recycle_rgb(&mut self, frame: Plane<Rgb>) {
        if self.rgb.len() < MAX_POOLED {
            self.rgb.push(frame.into_vec());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The compile-time thread contract: a `FramePool` can move to a
    /// worker.
    #[allow(dead_code)]
    fn thread_contract() {
        fn is_send<T: Send>() {}
        is_send::<FramePool>();
    }

    #[test]
    fn acquire_reuses_recycled_storage() {
        let mut pool = FramePool::new();
        let res = Resolution::new(64, 48);
        let frame = pool.acquire_rgb(res);
        let ptr = frame.samples().as_ptr();
        pool.recycle_rgb(frame);
        let again = pool.acquire_rgb(res);
        assert_eq!(again.samples().as_ptr(), ptr, "storage must be reused");
        assert_eq!((again.width(), again.height()), (64, 48));
    }

    #[test]
    fn acquire_adapts_buffer_size() {
        let mut pool = FramePool::new();
        let big = pool.acquire_rgb(Resolution::new(32, 32));
        pool.recycle_rgb(big);
        let small = pool.acquire_rgb(Resolution::new(8, 4));
        assert_eq!(small.len(), 32);
        pool.recycle_rgb(small);
        let big = pool.acquire_rgb(Resolution::new(16, 16));
        assert_eq!(big.len(), 256);
        let zero = Rgb::default();
        assert!(
            big.samples().iter().all(|&p| p == zero),
            "grown area is default-initialized"
        );
    }

    #[test]
    fn pool_depth_is_bounded() {
        let mut pool = FramePool::new();
        let res = Resolution::new(4, 4);
        let frames: Vec<_> = (0..2 * MAX_POOLED).map(|_| pool.acquire_rgb(res)).collect();
        for f in frames {
            pool.recycle_rgb(f);
        }
        assert!(pool.rgb.len() <= MAX_POOLED);
    }
}
