//! Counts the large allocations of the frame sources. A counting
//! global allocator tallies, per thread, every allocation of at least
//! [`LARGE`] bytes, so tests running in parallel cannot disturb a count.
//! Once the stream is warm, each `FrameSource::next` must make none: the
//! renderer, the sensor and the ISP's motion step all run in buffers the
//! source owns.

use euphrates_core::frontend::{frame_source, MotionConfig};
use euphrates_datasets::{detection_suite, DatasetScale};
use euphrates_isp::motion::SearchStrategy;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// 64 KiB: a fifth of a VGA luma plane, far above any per-frame list or
/// motion field at VGA.
const LARGE: usize = 64 * 1024;

thread_local! {
    static LARGE_ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    if size >= LARGE {
        // `try_with`: allocations during thread teardown go uncounted.
        let _ = LARGE_ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting only reads the size and
// touches a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's guarantees for `alloc` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's guarantees for `alloc_zeroed` pass through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller's guarantees for `realloc` pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's guarantees for `dealloc` pass through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns its result with the large allocations it made on
/// this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = LARGE_ALLOCS.with(Cell::get);
    let out = f();
    (out, LARGE_ALLOCS.with(Cell::get) - before)
}

#[test]
fn warm_frame_sources_make_no_large_allocation_per_frame() {
    let mut seq = detection_suite(42, DatasetScale::fraction(0.1)).swap_remove(0);
    seq.frames = 6;
    // The fast luma path at its defaults, and the benchmarked full-ISP
    // configuration: TSS, which builds no pyramid inside the matcher.
    let fast = MotionConfig::default();
    let full = MotionConfig {
        full_isp: true,
        strategy: SearchStrategy::ThreeStep,
        ..MotionConfig::default()
    };
    for config in [fast, full] {
        let (mut source, setup) = counted(|| frame_source(&seq, &config).unwrap());
        // The count is live: opening the source allocates its VGA frames.
        assert!(setup > 0, "opening the source made no large allocation");
        for index in 0..seq.frames {
            let (frame, large) = counted(|| source.next().unwrap().unwrap());
            drop(frame);
            if index >= 2 {
                assert_eq!(
                    large, 0,
                    "full_isp {}: frame {index} made {large} allocations of ≥ 64 KiB",
                    config.full_isp
                );
            }
        }
    }
}
