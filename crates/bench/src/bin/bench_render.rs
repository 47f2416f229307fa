//! Perf-trajectory recorder for the frame-production hot paths.
//!
//! Times the scanline renderer (RGB and fused-luma paths across the
//! effects matrix, with the σ=2 noise stage under the counter-based
//! `FastGaussian` model), renderer construction (cold and with the
//! scene-shared canvas), the block-matching stage on real rendered
//! frames (the pyramid-cached hierarchical default and the paper's
//! TSS), streaming sequence preparation, and a small end-to-end
//! evaluate, then writes `BENCH_render.json` (schema 5) with median
//! per-frame timings and machine info — the recorded baseline future
//! PRs diff against.
//!
//! Schema 3 (PR 5) adds the `estimate_*` motion metrics and re-records
//! everything after the post-noise-floor work: the SWAR SAD kernel +
//! center-out exhaustive walk, hierarchical as the evaluated default
//! with the pyramid cached per streamed frame, the direct-table
//! `FastGaussian` sampler, the rel-keyed blur+shake background cache,
//! and row-major canvas generation.
//!
//! Schema 4 (PR 6) pins the fused noise pass to explicit thread counts:
//! the `render_*_noise_fast_t{1,4}_*` rows time the row-parallel
//! `FastGaussian` path (bit-identical at any thread count) under
//! [`set_noise_threads`][euphrates_camera::scene::Renderer::set_noise_threads]
//! 1 and 4, so the 4-thread speedup is recorded rather than inherited
//! from whatever `EUPHRATES_THREADS` happened to be.
//!
//! Schema 5 (PR 7) re-records after the lane-hash noise engine, the
//! SWAR blur/luma tile kernels, and the canvas memo, and adds
//! per-stage rows: `construction_cold_ns` now draws a *distinct seed
//! per sample* (the process-wide canvas memo would otherwise turn
//! every sample after the first into a hit) next to the new
//! `construction_memo_hit_ns`; `noise_stage_t1_ns_per_frame` isolates
//! the σ=2 noise pass (fused-luma t1 minus the noise-free luma row);
//! and the deterministic `prefilter_*`/`unfiltered_*` op counters
//! record what the opt-in SAD lower-bound prefilter buys on real noisy
//! frames (operation counts, not wall-clock — this box's timer noise
//! swamps sub-ms effects, while `sad_ops`/`lb_skips` are exact).
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p euphrates-bench --bin bench_render [-- --quick] [--out PATH]
//! ```
//!
//! `--quick` (or `EUPHRATES_BENCH_QUICK=1`) cuts samples for CI; the
//! JSON notes which mode produced it.

use euphrates_camera::scene::{Scene, SceneBuilder, SceneEffects};
use euphrates_common::image::{LumaFrame, Resolution};
use euphrates_core::prelude::*;
use euphrates_core::{frame_source, prepare_sequence};
use euphrates_nn::oracle::calib;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

struct Config {
    quick: bool,
    out: String,
}

fn parse_args() -> Config {
    let mut quick = std::env::var("EUPHRATES_BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty());
    let mut out = "BENCH_render.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => {
                out = args
                    .next()
                    .unwrap_or_else(|| panic!("--out requires a path"))
            }
            other => panic!("unknown argument {other} (expected --quick / --out PATH)"),
        }
    }
    Config { quick, out }
}

/// Median of per-iteration wall-clock nanoseconds over `samples` runs.
fn median_ns<F: FnMut()>(samples: usize, mut f: F) -> u64 {
    // One warm-up pass (fills caches, builds lazy canvases).
    f();
    let mut ns: Vec<u64> = (0..samples.max(1))
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    ns.sort_unstable();
    ns[ns.len() / 2]
}

fn vga_scene(effects: SceneEffects) -> Scene {
    SceneBuilder::new(Resolution::VGA, 42)
        .effects(effects)
        .object_default()
        .build()
}

fn main() {
    let cfg = parse_args();
    let samples = if cfg.quick { 3 } else { 9 };
    let frames: u32 = if cfg.quick { 4 } else { 12 };
    println!(
        "bench_render: {} mode, {samples} samples x {frames} frames",
        if cfg.quick { "quick" } else { "full" }
    );

    let mut metrics: Vec<(String, u64)> = Vec::new();

    // Renderer construction. Cold = a never-before-seen background
    // (distinct seed per sample, so the canvas memo can't help);
    // memo_hit = a fresh scene whose (texture, dims) key is already
    // memoized process-wide; shared = another renderer of an
    // already-canvased scene (the common case in the evaluation grid,
    // where every scheme re-opens the same sequences).
    let plain = SceneEffects {
        pixel_noise_sigma: 0.0,
        ..SceneEffects::default()
    };
    let mut cold_seed = 10_000u64;
    metrics.push((
        "construction_cold_ns".into(),
        median_ns(samples, || {
            cold_seed += 1;
            let scene = SceneBuilder::new(Resolution::VGA, cold_seed)
                .effects(plain.clone())
                .object_default()
                .build();
            black_box(scene.renderer());
        }),
    ));
    metrics.push((
        "construction_memo_hit_ns".into(),
        median_ns(samples, || {
            let scene = vga_scene(plain.clone());
            black_box(scene.renderer());
        }),
    ));
    let scene = vga_scene(plain.clone());
    metrics.push((
        "renderer_new_shared_ns".into(),
        median_ns(samples, || {
            black_box(scene.renderer());
        }),
    ));

    // Per-frame rendering across the effects matrix (ns/frame);
    // `noise_fast` is the dataset default σ=2 noise.
    let matrix = [
        ("plain", plain.clone()),
        (
            "blur_shake",
            SceneEffects {
                exposure_blur: 0.8,
                shake_amplitude: 5.0,
                ..plain.clone()
            },
        ),
        ("noise_fast", SceneEffects::default()),
    ];
    for (name, effects) in &matrix {
        let scene = vga_scene(effects.clone());
        let mut renderer = scene.renderer();
        let mut luma = LumaFrame::new(640, 480).expect("VGA");
        metrics.push((
            format!("render_rgb_{name}_ns_per_frame"),
            median_ns(samples, || {
                for i in 0..frames {
                    let f = renderer.render_pixels(i);
                    renderer.recycle(f);
                }
            }) / u64::from(frames),
        ));
        metrics.push((
            format!("render_luma_{name}_ns_per_frame"),
            median_ns(samples, || {
                for i in 0..frames {
                    black_box(renderer.render_luma_into(i, &mut luma));
                }
            }) / u64::from(frames),
        ));
    }

    // The fused noise pass at pinned thread counts (the matrix rows
    // above use the env-derived default). Same scene, same model; only
    // the row-banding fan-out differs — outputs are bit-identical.
    for noise_threads in [1usize, 4] {
        let scene = vga_scene(SceneEffects::default());
        let mut renderer = scene.renderer();
        renderer.set_noise_threads(noise_threads);
        let mut luma = LumaFrame::new(640, 480).expect("VGA");
        metrics.push((
            format!("render_rgb_noise_fast_t{noise_threads}_ns_per_frame"),
            median_ns(samples, || {
                for i in 0..frames {
                    let f = renderer.render_pixels(i);
                    renderer.recycle(f);
                }
            }) / u64::from(frames),
        ));
        metrics.push((
            format!("render_luma_noise_fast_t{noise_threads}_ns_per_frame"),
            median_ns(samples, || {
                for i in 0..frames {
                    black_box(renderer.render_luma_into(i, &mut luma));
                }
            }) / u64::from(frames),
        ));
    }

    // Isolated σ=2 noise-stage cost at one thread: the fused-luma t1
    // row minus the noise-free luma row (same renderer shape, the only
    // delta is the lane-hash noise pass).
    {
        let find = |key: &str| {
            metrics
                .iter()
                .find(|(n, _)| n == key)
                .map(|(_, v)| *v)
                .expect("recorded above")
        };
        let stage = find("render_luma_noise_fast_t1_ns_per_frame")
            .saturating_sub(find("render_luma_plain_ns_per_frame"));
        metrics.push(("noise_stage_t1_ns_per_frame".into(), stage));
    }

    // Block matching on real (noisy) consecutive rendered frames:
    // the evaluated default (pyramid-cached hierarchical) next to the
    // paper's TSS.
    let mut suite = euphrates_datasets::otb100_like(42, DatasetScale::fraction(0.05));
    suite.truncate(1);
    let mut seq = suite.pop().expect("non-empty suite");
    seq.frames = frames.max(8);
    {
        use euphrates_isp::motion::BlockMatcher;
        let mut renderer = seq.scene.renderer();
        let mut prev = LumaFrame::new(640, 480).expect("VGA");
        let mut cur = LumaFrame::new(640, 480).expect("VGA");
        renderer.render_luma_pixels_into(2, &mut prev);
        renderer.render_luma_pixels_into(3, &mut cur);
        for (name, strategy) in [
            ("hierarchical", SearchStrategy::Hierarchical),
            ("three_step", SearchStrategy::ThreeStep),
        ] {
            let m = BlockMatcher::new(16, 7, strategy).expect("built-in strategy");
            metrics.push((
                format!("estimate_{name}_ns_per_frame"),
                median_ns(samples, || {
                    for _ in 0..frames {
                        black_box(m.estimate(&cur, &prev).expect("same shape"));
                    }
                }) / u64::from(frames),
            ));
        }

        // Deterministic prefilter op counters on the same noisy frame
        // pair (exact — immune to timer noise). `sad_ops` is the count
        // of row-SAD reductions the search actually performed,
        // `lb_skips` the candidates the lower bound eliminated before
        // any pixel loads; the fields are bit-identical either way.
        for (name, strategy) in [
            ("hier", SearchStrategy::Hierarchical),
            ("es", SearchStrategy::Exhaustive),
        ] {
            let off = BlockMatcher::new(16, 7, strategy).expect("built-in strategy");
            let on = BlockMatcher::new(16, 7, strategy)
                .expect("built-in strategy")
                .with_prefilter(true);
            let (f_off, s_off) = off.estimate_with_stats(&cur, &prev).expect("same shape");
            let (f_on, s_on) = on.estimate_with_stats(&cur, &prev).expect("same shape");
            assert_eq!(f_off, f_on, "prefilter must be bit-identical ({name})");
            metrics.push((format!("unfiltered_{name}_sad_ops"), s_off.sad_ops));
            metrics.push((format!("prefilter_{name}_sad_ops"), s_on.sad_ops));
            metrics.push((format!("prefilter_{name}_lb_skips"), s_on.lb_skips));
        }
    }

    // Streaming preparation (render + default block matching), ns/frame.
    let config = MotionConfig::default();
    metrics.push((
        "prepare_stream_ns_per_frame".into(),
        median_ns(samples, || {
            let mut n = 0u32;
            for frame in frame_source(&seq, &config).expect("valid config") {
                frame.expect("frame");
                n += 1;
            }
            assert_eq!(n, seq.frames);
        }) / u64::from(seq.frames),
    ));

    // Small end-to-end evaluate (ms scale; recorded in ns).
    let eval_samples = if cfg.quick { 1 } else { 3 };
    metrics.push((
        "evaluate_tracking_ns".into(),
        median_ns(eval_samples, || {
            let prep = prepare_sequence(&seq, &config).expect("prepare succeeds");
            black_box(
                run_task(
                    TrackerTask::new(calib::mdnet()),
                    &prep,
                    &BackendConfig::new(EwPolicy::Constant(4)),
                    0,
                )
                .expect("run succeeds"),
            );
        }),
    ));

    // Render the JSON by hand (no serde in the tree).
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"schema\": 5,");
    let _ = writeln!(json, "  \"bench\": \"render_path\",");
    let _ = writeln!(json, "  \"quick\": {},", cfg.quick);
    let _ = writeln!(
        json,
        "  \"machine\": {{ \"os\": \"{}\", \"arch\": \"{}\", \"threads\": {} }},",
        std::env::consts::OS,
        std::env::consts::ARCH,
        threads
    );
    json.push_str("  \"metrics\": {\n");
    for (i, (name, ns)) in metrics.iter().enumerate() {
        let comma = if i + 1 == metrics.len() { "" } else { "," };
        let _ = writeln!(json, "    \"{name}\": {ns}{comma}");
    }
    json.push_str("  }\n}\n");

    std::fs::write(&cfg.out, &json).expect("writable output path");
    for (name, ns) in &metrics {
        if name.contains("_ns") {
            println!("{name:<36} {:>12.3} ms", *ns as f64 / 1e6);
        } else {
            println!("{name:<36} {ns:>12} ops");
        }
    }
    println!("wrote {}", cfg.out);
}
