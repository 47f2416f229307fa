//! Ablation — the motion-search front-end's shipped cost knobs.
//!
//! 1. `bench_sad_prefilter`: the opt-in SAD lower-bound prefilter on
//!    noisy rendered frames, asserted on deterministic operation counts
//!    with wall-clock printed for context — the host evidence behind
//!    the prefilter's default-off setting in `euphrates_isp::motion`.
//! 2. `bench_streaming_source`: eager `prepare_sequence` + `run_task`
//!    against the streaming `frame_source` + `run_stream` path.
//!
//! Kernel and walk correctness are pinned by tests, not here:
//! `crates/isp/tests/search_properties.rs` checks the SWAR SAD kernel
//! against a scalar per-pixel reference
//! (`swar_sad_kernel_bit_matches_scalar_reference`) and pyramid caching
//! against per-call pyramids; `crates/core/tests/api.rs` checks that the
//! grid evaluation and the streaming path bit-match the offline ones.

use criterion::{criterion_group, criterion_main, Criterion};
use euphrates_common::image::LumaFrame;
use euphrates_core::prelude::*;
use euphrates_core::{frame_source, run_stream};
use euphrates_isp::motion::BlockMatcher;
use euphrates_nn::oracle::calib;
use std::hint::black_box;
use std::time::Instant;

/// The opt-in SAD lower-bound prefilter on real noisy rendered frames —
/// the content that defeats the SWAR kernel's early exit and motivated
/// the bound. Asserted contracts are *deterministic operation counts*
/// (this container's wall-clock jitters ±30–50%, but `SearchStats` is
/// exact and identical in CI):
///
/// * motion fields and probe counts bit-identical with the prefilter on
///   (skipped candidates are still charged as probes);
/// * hierarchical: ≥1.3× fewer row-SAD reductions (`sad_ops`, measured
///   ~1.55×) and ≥40% of probes eliminated before any pixel loads
///   (measured ~58%);
/// * exhaustive: ≥2× fewer `sad_ops` (measured ~4.8×) and ≥70% of
///   probes eliminated (measured ~86%).
///
/// Wall-clock is printed for context only: on this host the SWAR early
/// exit already floors a losing candidate at roughly the bound's own
/// cost, so the prefilter's value is the op-count cut — the quantity
/// that models a hardware ISP, where every SAD op is a pixel fetch.
fn bench_sad_prefilter(_c: &mut Criterion) {
    euphrates_bench::announce(
        "ablation: SAD lower-bound prefilter on noisy rendered frames",
        "candidate elimination for the block-matching stage (op counts)",
    );

    // Two consecutive σ=2 noisy VGA frames from the dataset generator —
    // the kind of content the `otb_sweep` benchmark workload searches.
    let mut suite = euphrates_datasets::otb100_like(42, DatasetScale::fraction(0.05));
    let seq = suite.remove(0);
    let mut renderer = seq.scene.renderer();
    let mut prev = LumaFrame::new(640, 480).unwrap();
    let mut cur = LumaFrame::new(640, 480).unwrap();
    renderer.render_luma_pixels_into(2, &mut prev);
    renderer.render_luma_pixels_into(3, &mut cur);

    for (name, strategy, min_ops_ratio, min_skip_rate) in [
        ("hierarchical", SearchStrategy::Hierarchical, 1.3, 0.40),
        ("exhaustive", SearchStrategy::Exhaustive, 2.0, 0.70),
    ] {
        let off = BlockMatcher::new(16, 7, strategy).unwrap();
        let on = BlockMatcher::new(16, 7, strategy)
            .unwrap()
            .with_prefilter(true);

        let t0 = Instant::now();
        let (f_off, s_off) = off.estimate_with_stats(&cur, &prev).unwrap();
        let off_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let (f_on, s_on) = on.estimate_with_stats(&cur, &prev).unwrap();
        let on_s = t1.elapsed().as_secs_f64();

        // Bit-identity legs: same field, same probe accounting, and the
        // unfiltered walk never reports a bound skip.
        assert_eq!(f_off, f_on, "{name}: prefilter changed the motion field");
        assert_eq!(
            s_off.probes, s_on.probes,
            "{name}: prefilter changed probe accounting"
        );
        assert_eq!(s_off.lb_skips, 0, "{name}: unfiltered walk reported skips");

        let ops_ratio = s_off.sad_ops as f64 / s_on.sad_ops as f64;
        let skip_rate = s_on.lb_skips as f64 / s_on.probes as f64;
        println!(
            "prefilter ({name}): sad_ops {} -> {} ({ops_ratio:.2}x fewer), {:.0}% of {} probes \
             eliminated pre-load; wall-clock {:.1} -> {:.1} ms (informational)",
            s_off.sad_ops,
            s_on.sad_ops,
            skip_rate * 100.0,
            s_on.probes,
            off_s * 1e3,
            on_s * 1e3,
        );
        assert!(
            ops_ratio >= min_ops_ratio,
            "{name}: prefilter must cut sad_ops >= {min_ops_ratio}x on noisy content, got {ops_ratio:.2}x"
        );
        assert!(
            skip_rate >= min_skip_rate,
            "{name}: prefilter must eliminate >= {:.0}% of probes, got {:.0}%",
            min_skip_rate * 100.0,
            skip_rate * 100.0
        );
    }
}

/// One OTB-like sequence (16 frames) under exhaustive search: the
/// strategy where block matching is a material share of preparation.
fn streaming_sequence() -> (Sequence, MotionConfig) {
    let mut suite = euphrates_datasets::otb100_like(42, DatasetScale::fraction(0.05));
    let mut seq = suite.remove(0);
    seq.frames = 16;
    let motion = MotionConfig {
        strategy: SearchStrategy::Exhaustive,
        ..MotionConfig::default()
    };
    (seq, motion)
}

fn bench_streaming_source(c: &mut Criterion) {
    let (seq, motion) = streaming_sequence();
    let config = BackendConfig::new(EwPolicy::Constant(4));
    let mut g = c.benchmark_group("frontend_paths");
    g.sample_size(3);
    g.bench_function("eager_prepare_then_run", |b| {
        b.iter(|| {
            let prep = prepare_sequence(&seq, &motion).unwrap();
            black_box(run_task(TrackerTask::new(calib::mdnet()), &prep, &config, 0).unwrap())
        })
    });
    g.bench_function("streaming_run_stream", |b| {
        b.iter(|| {
            let source = frame_source(&seq, &motion).unwrap();
            black_box(
                run_stream(
                    TrackerTask::new(calib::mdnet()),
                    source.resolution(),
                    source,
                    &config,
                    0,
                )
                .unwrap(),
            )
        })
    });
    g.finish();
}

criterion_group!(benches, bench_sad_prefilter, bench_streaming_source);
criterion_main!(benches);
