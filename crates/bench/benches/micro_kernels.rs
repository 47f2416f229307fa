//! Criterion micro-benchmarks of the hot kernels: block matching (ES and
//! TSS), the extrapolation datapath, the systolic-array analysis, and
//! scene rendering. These quantify the *simulator's* throughput — useful
//! when sizing full-scale (EUPHRATES_SCALE=1.0) runs.

use criterion::{criterion_group, criterion_main, Criterion};
use euphrates_bench::textured_luma;
use euphrates_camera::scene::SceneBuilder;
use euphrates_common::geom::Rect;
use euphrates_common::image::Resolution;
use euphrates_isp::motion::{BlockMatcher, SearchStrategy};
use euphrates_mc::algorithm::{Extrapolator, RoiState};
use euphrates_mc::datapath::SimdDatapath;
use euphrates_mc::ExtrapolationConfig;
use euphrates_nn::systolic::SystolicModel;
use euphrates_nn::zoo;
use std::hint::black_box;

fn bench_block_matching(c: &mut Criterion) {
    let prev = textured_luma(640, 480, 1, 0);
    let cur = textured_luma(640, 480, 1, 4);
    let mut g = c.benchmark_group("block_matching_vga");
    g.sample_size(20);
    for strategy in SearchStrategy::BUILTIN {
        let m = BlockMatcher::new(16, 7, strategy).unwrap();
        g.bench_function(strategy.name(), |b| {
            b.iter(|| black_box(m.estimate(&cur, &prev).unwrap()))
        });
    }
    g.finish();
}

fn bench_extrapolation(c: &mut Criterion) {
    let prev = textured_luma(640, 480, 2, 0);
    let cur = textured_luma(640, 480, 2, 3);
    let field = BlockMatcher::new(16, 7, SearchStrategy::ThreeStep)
        .unwrap()
        .estimate(&cur, &prev)
        .unwrap();
    let roi = Rect::new(200.0, 150.0, 100.0, 50.0);
    let config = ExtrapolationConfig::default();
    let mut g = c.benchmark_group("extrapolation");
    g.bench_function("reference_f64", |b| {
        let ex = Extrapolator::new(config);
        let mut state = RoiState::new(&config);
        b.iter(|| black_box(ex.extrapolate(&roi, &field, &mut state)))
    });
    g.bench_function("fixed_point_simd", |b| {
        let dp = SimdDatapath::default();
        b.iter(|| {
            black_box(dp.evaluate(
                &field,
                &roi,
                (
                    euphrates_common::fixed::Q16::ZERO,
                    euphrates_common::fixed::Q16::ZERO,
                ),
                &config,
            ))
        })
    });
    g.finish();
}

fn bench_systolic_analysis(c: &mut Criterion) {
    let model = SystolicModel::default();
    let net = zoo::yolov2();
    c.bench_function("systolic_analyze_yolov2", |b| {
        b.iter(|| black_box(model.analyze(&net)))
    });
}

fn bench_scene_render(c: &mut Criterion) {
    let scene = SceneBuilder::new(Resolution::VGA, 9)
        .object_default()
        .build();
    let mut renderer = scene.renderer();
    let mut frame = 0u32;
    c.bench_function("scene_render_vga", |b| {
        b.iter(|| {
            frame = frame.wrapping_add(1);
            black_box(renderer.render(frame))
        })
    });
}

criterion_group!(
    benches,
    bench_block_matching,
    bench_extrapolation,
    bench_systolic_analysis,
    bench_scene_render
);
criterion_main!(benches);
