//! Deterministic parallel execution primitives shared across the
//! workspace: a panic-safe ordered [`parallel_map`] and the single
//! thread-sizing policy ([`default_threads`]).
//!
//! This lives in `euphrates-common` so both ends of the pipeline can use
//! it — `euphrates-core` evaluates the sequences of a suite in parallel,
//! while `euphrates-isp` parallelizes macroblock rows inside one
//! frame. Results are always independent of thread count and execution
//! order: workers only decide *who* computes an item, never *what* the
//! item's result is.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Maps `f` over `items` on up to `threads` worker threads, preserving
/// input order in the output.
///
/// # Panics
///
/// If `f` panics for some item, the panic is caught on the worker,
/// remaining work is abandoned, and the panic is re-raised on the calling
/// thread with the offending item's index prepended — one bad sequence
/// reports *which* sequence instead of poisoning the result mutex and
/// aborting opaquely.
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = threads.max(1).min(items.len().max(1));
    if threads <= 1 || items.len() <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let next = AtomicUsize::new(0);
    let bailed = AtomicBool::new(false);
    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    // One coarse mutex over the slot vector: workers compute `f` outside
    // the lock and only store under it, and `catch_unwind` guarantees no
    // worker can panic while holding it.
    let slots_mutex = Mutex::new(&mut slots);
    let first_panic: Mutex<Option<(usize, Box<dyn std::any::Any + Send>)>> = Mutex::new(None);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                if bailed.load(Ordering::Relaxed) {
                    break;
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                match catch_unwind(AssertUnwindSafe(|| f(i, &items[i]))) {
                    Ok(r) => {
                        let mut guard = slots_mutex.lock().expect("slot store never poisons");
                        guard[i] = Some(r);
                    }
                    Err(payload) => {
                        bailed.store(true, Ordering::Relaxed);
                        let mut guard = first_panic.lock().expect("panic store never poisons");
                        // Keep the lowest item index for a deterministic
                        // message when several workers fail at once.
                        match *guard {
                            Some((j, _)) if j <= i => {}
                            _ => *guard = Some((i, payload)),
                        }
                    }
                }
            });
        }
    });
    if let Some((index, payload)) = first_panic.into_inner().expect("panic store never poisons") {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "<non-string panic payload>".to_string());
        panic!("parallel_map worker panicked on item {index}: {msg}");
    }
    slots
        .into_iter()
        .map(|s| s.expect("every slot filled"))
        .collect()
}

/// Maps `f` over corresponding rows of a source and a destination
/// slice, spreading contiguous row *bands* over up to `threads` scoped
/// worker threads.
///
/// `src` is read in rows of `src_stride` elements, `dst` written in rows
/// of `dst_stride`; row `y` of one corresponds to row `y` of the other.
/// Each output row is produced by exactly one `f(y, src_row, dst_row)`
/// call, so the result is identical at any thread count — `f` must
/// derive everything from `y` and the row contents, never from call
/// order (the renderer's counter-addressed noise pass is the canonical
/// user). With `threads <= 1` (or a single row) everything runs inline
/// on the caller.
///
/// # Panics
///
/// Panics if either slice length is not a whole number of rows, if the
/// row counts differ, or if `f` panics (propagated on join).
pub fn parallel_rows<S, D, F>(
    src: &[S],
    dst: &mut [D],
    src_stride: usize,
    dst_stride: usize,
    threads: usize,
    f: F,
) where
    S: Sync,
    D: Send,
    F: Fn(usize, &[S], &mut [D]) + Sync,
{
    assert!(src_stride > 0 && dst_stride > 0, "strides must be positive");
    assert_eq!(src.len() % src_stride, 0, "src is whole rows");
    assert_eq!(dst.len() % dst_stride, 0, "dst is whole rows");
    let rows = dst.len() / dst_stride;
    assert_eq!(src.len() / src_stride, rows, "row counts must match");
    let threads = threads.max(1).min(rows.max(1));
    if threads <= 1 {
        for (y, (drow, srow)) in dst
            .chunks_mut(dst_stride)
            .zip(src.chunks(src_stride))
            .enumerate()
        {
            f(y, srow, drow);
        }
        return;
    }
    let band = rows.div_ceil(threads);
    std::thread::scope(|scope| {
        for (b, (dband, sband)) in dst
            .chunks_mut(band * dst_stride)
            .zip(src.chunks(band * src_stride))
            .enumerate()
        {
            let f = &f;
            scope.spawn(move || {
                let y0 = b * band;
                for (i, (drow, srow)) in dband
                    .chunks_mut(dst_stride)
                    .zip(sband.chunks(src_stride))
                    .enumerate()
                {
                    f(y0 + i, srow, drow);
                }
            });
        }
    });
}

/// Hard ceiling on the worker-thread count (shared-runner etiquette).
const MAX_THREADS: usize = 16;

/// Default worker-thread count.
///
/// Honors the `EUPHRATES_THREADS` environment variable when it parses as
/// a positive integer; otherwise the available parallelism. Both are
/// capped at 16. This is the single thread-sizing policy for the whole
/// workspace — call it instead of re-deriving a cap.
pub fn default_threads() -> usize {
    threads_from(
        std::env::var("EUPHRATES_THREADS").ok().as_deref(),
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4),
    )
}

/// The pure sizing rule behind [`default_threads`]: a parsed positive
/// override wins, anything else falls back; both sides are capped.
pub fn threads_from(var: Option<&str>, fallback: usize) -> usize {
    var.and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(fallback)
        .min(MAX_THREADS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..50).collect();
        let out = parallel_map(&items, 8, |i, v| (i as u64) * 1000 + v);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (i as u64) * 1000 + i as u64);
        }
    }

    #[test]
    fn parallel_map_single_thread_fallback() {
        let items = vec![1, 2, 3];
        let out = parallel_map(&items, 1, |_, v| v * 2);
        assert_eq!(out, vec![2, 4, 6]);
        let empty: Vec<i32> = vec![];
        assert!(parallel_map(&empty, 4, |_, v| *v).is_empty());
    }

    #[test]
    fn parallel_map_reports_panicking_item() {
        let items: Vec<u32> = (0..32).collect();
        let err = catch_unwind(AssertUnwindSafe(|| {
            parallel_map(&items, 4, |_, v| {
                if *v == 7 {
                    panic!("sequence exploded");
                }
                *v
            })
        }))
        .expect_err("worker panic must propagate");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .expect("formatted panic message");
        assert!(msg.contains("item 7"), "missing index context: {msg}");
        assert!(msg.contains("sequence exploded"), "missing payload: {msg}");
    }

    #[test]
    fn parallel_rows_matches_sequential_at_any_thread_count() {
        let (w_src, w_dst, rows) = (6usize, 3usize, 37usize);
        let src: Vec<u32> = (0..(w_src * rows) as u32).collect();
        let mut expect = vec![0u32; w_dst * rows];
        let f = |y: usize, s: &[u32], d: &mut [u32]| {
            for (i, out) in d.iter_mut().enumerate() {
                *out = s[2 * i] + s[2 * i + 1] + y as u32;
            }
        };
        parallel_rows(&src, &mut expect, w_src, w_dst, 1, f);
        for threads in [2, 3, 4, 8, 64] {
            let mut got = vec![0u32; w_dst * rows];
            parallel_rows(&src, &mut got, w_src, w_dst, threads, f);
            assert_eq!(got, expect, "threads = {threads}");
        }
    }

    #[test]
    fn parallel_rows_handles_degenerate_shapes() {
        // Zero rows: nothing to do, no panic.
        let src: Vec<u8> = vec![];
        let mut dst: Vec<u8> = vec![];
        parallel_rows(&src, &mut dst, 4, 4, 8, |_, _, _| panic!("no rows"));
        // One row stays inline.
        let src = vec![1u8, 2, 3, 4];
        let mut dst = vec![0u8; 4];
        parallel_rows(&src, &mut dst, 4, 4, 8, |y, s, d| {
            assert_eq!(y, 0);
            d.copy_from_slice(s);
        });
        assert_eq!(dst, src);
    }

    #[test]
    fn thread_sizing_honors_override_and_caps() {
        // The pure rule (no process-global env mutation: tests in this
        // binary read the variable concurrently, and the harness may run
        // with EUPHRATES_THREADS already set).
        assert_eq!(threads_from(Some("2"), 8), 2);
        assert_eq!(threads_from(Some(" 3 "), 8), 3, "whitespace is trimmed");
        assert_eq!(threads_from(Some("99"), 8), 16, "override is capped");
        assert_eq!(
            threads_from(Some("not-a-number"), 8),
            8,
            "garbage falls back"
        );
        assert_eq!(threads_from(Some("0"), 8), 8, "zero falls back");
        assert_eq!(threads_from(None, 8), 8);
        assert_eq!(threads_from(None, 64), 16, "fallback is capped");
        // The env-reading wrapper stays within the cap whatever the
        // ambient environment says.
        assert!((1..=16).contains(&default_threads()));
    }
}
