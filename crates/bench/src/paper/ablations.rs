//! Ablations of the reproduction's design choices: TD-SRAM double
//! buffering (A, §4.2), the extrapolation algorithm's pieces (B, §3.2),
//! the accelerator design space around Table 1 and cross-request
//! batching (C), the adaptive window's hyper-parameters (D, §3.3), and
//! the block-matching SAD prefilter. B and D read Fig. 10a's
//! default-motion tracking scenario; the others are model- or
//! kernel-only. Every bound a section states is an `assert!` on
//! deterministic counts, never on wall-clock.

use super::{attribute_rate, banner, tracking, PaperRun, Read, Suite};
use crate::ew;
use euphrates_common::image::{LumaFrame, Resolution};
use euphrates_common::table::{fnum, percent, Table};
use euphrates_common::units::Bytes;
use euphrates_core::prelude::*;
use euphrates_isp::linebuffer::{TdSramConfig, TdSramModel};
use euphrates_isp::motion::BlockMatcher;
use euphrates_mc::ExtrapolationConfig;
use euphrates_nn::engine::NnxEngine;
use euphrates_nn::layer::NetworkDescriptor;
use euphrates_nn::systolic::{SystolicConfig, SystolicModel};
use euphrates_nn::zoo;

/// Ablation A (§4.2 design choice): double-buffering the temporal-
/// denoise SRAM vs. reusing it as the DMA staging buffer. The paper's
/// argument: a single-buffered design stalls the ISP pipeline on MV
/// write-back (SRAM contention); double-buffering takes the traffic off
/// the critical path "at a slight cost in area overhead".
pub(super) fn double_buffer(_: &PaperRun, _: &[Read]) {
    banner("Ablation A (§4.2): TD-SRAM double buffering (ISP MV write-back)");
    let single = TdSramModel::new(TdSramConfig {
        double_buffered: false,
        ..TdSramConfig::default()
    });
    let double = TdSramModel::default();

    let mut table = Table::new([
        "design",
        "resolution/mb",
        "stall cycles",
        "stall %",
        "meets 60 FPS",
        "SRAM",
        "SRAM area",
    ])
    .with_title("single vs double buffer");
    for (res, mb) in [
        (Resolution::FULL_HD, 16u32),
        (Resolution::FULL_HD, 8),
        (Resolution::VGA, 16),
    ] {
        for (name, model) in [("single", &single), ("double", &double)] {
            let t = model.frame_timing(res, mb);
            table.row([
                name.to_string(),
                format!("{res}/{mb}"),
                t.stall_cycles.0.to_string(),
                fnum(t.stall_fraction() * 100.0, 2) + "%",
                if model.meets_rate(res, mb, 60.0) {
                    "yes".to_string()
                } else {
                    "NO".to_string()
                },
                format!("{}", model.provisioned_sram_bytes(res, mb)),
                format!("{:.4} mm2", model.sram_area_mm2(res, mb)),
            ]);
        }
    }
    println!("{table}");
    let t = single.frame_timing(Resolution::FULL_HD, 16);
    println!(
        "verdict: single buffering injects {} stall cycles/frame into an",
        t.stall_cycles.0
    );
    println!("otherwise deterministic pipeline; double buffering removes them for");
    println!(
        "{:.4} mm2 of extra SRAM — the paper's design choice.",
        double.sram_area_mm2(Resolution::FULL_HD, 16)
            - single.sram_area_mm2(Resolution::FULL_HD, 16)
    );
}

/// EW-8 with the Equ. 3 filter and the sub-ROI deformation handling
/// toggled.
fn ew8_with(filter: bool, deformation: bool) -> BackendConfig {
    let mut cfg = BackendConfig::new(EwPolicy::Constant(8));
    cfg.extrapolation = ExtrapolationConfig {
        filter,
        deformation,
        ..ExtrapolationConfig::default()
    };
    cfg
}

/// Ablation B's cells; the full algorithm is Fig. 10a's EW-8.
pub(super) fn algorithm_pieces_reads() -> Vec<Read> {
    let schemes = [
        ("full algorithm", ew8_with(true, true)),
        ("no filter", ew8_with(false, true)),
        ("no deformation", ew8_with(true, false)),
        ("neither", ew8_with(false, false)),
    ]
    .into_iter()
    .map(|(id, cfg)| SchemeSpec::new(id, cfg).expect("id is valid"))
    .collect();
    vec![tracking(Suite::Tracking, MotionConfig::default(), schemes)]
}

/// Ablation B (§3.2): what each piece of the extrapolation algorithm
/// buys: the confidence-gated noise filter (Equ. 3) and the sub-ROI
/// deformation handling, toggled independently at EW-8.
pub(super) fn algorithm_pieces(run: &PaperRun, reads: &[Read]) {
    banner("Ablation B (§3.2): filter (Equ. 3) and sub-ROI deformation at EW-8");
    let results = run.results(&reads[0]);
    let mut table = Table::new(["variant", "success@0.5", "AUC", "Δ vs full"])
        .with_title("Ablation B results (EW-8)");
    let full = results[0].1.rate_at_05();
    for (label, r) in &results {
        table.row([
            label.to_string(),
            percent(r.rate_at_05()),
            percent(r.accuracy().auc()),
            format!("{:+.1}pp", (r.rate_at_05() - full) * 100.0),
        ]);
    }
    println!("{table}");

    // Per-attribute view of the deformation toggle: it should matter most
    // on Deformation sequences.
    let suite = reads[0].suite.generate(run.scale);
    let deformation = VisualAttribute::Deformation;
    if suite.iter().any(|s| s.has_attribute(deformation)) {
        println!(
            "on Deformation sequences only: full {} vs no-deformation {}",
            percent(attribute_rate(&suite, results[0].1, deformation)),
            percent(attribute_rate(&suite, results[2].1, deformation))
        );
    }
}

/// Sweeps fused-batch sizes for one network, printing the amortization
/// ratio (batched cycles / B× solo cycles) and asserting it lands
/// inside the declared band at the serving batch size (B = 16):
/// * below `floor_hi` — batching must actually pay (batched cycles ≤ a
///   declared fraction of B× solo);
/// * above `floor_lo` — the model never claims impossible savings
///   (MACs are conserved; only fill/drain and ragged tiles amortize).
fn batching_sweep(
    table: &mut Table,
    engine: &NnxEngine,
    net: &NetworkDescriptor,
    floors: (f64, f64),
) {
    let (floor_lo, floor_hi) = floors;
    let solo = engine.plan(net);
    for b in [1u32, 2, 4, 8, 16] {
        let plan = engine.plan_batch(net, b);
        let ratio = plan.amortization_vs(&solo);
        table.row([
            net.name.clone(),
            format!("{b}"),
            fnum(plan.compute_cycles() as f64 / 1e6, 2),
            fnum(ratio, 4),
            fnum(plan.per_request_energy().0, 2),
        ]);
        assert!(
            ratio < 1.0,
            "{} B={b}: batching must never cost extra",
            net.name
        );
        if b == 16 {
            assert!(
                ratio <= floor_hi,
                "{} B=16: amortization {ratio} worse than declared {floor_hi}",
                net.name
            );
            assert!(
                ratio >= floor_lo,
                "{} B=16: amortization {ratio} suspiciously good (< {floor_lo})",
                net.name
            );
        }
    }
}

/// Ablation C: the accelerator design space around the Table 1 point,
/// array size × SRAM capacity on YOLOv2 (the SCALE-Sim-style sweep the
/// paper's open-sourced simulator enables), then the cross-request
/// batching sweep behind `euphrates-serve`'s batch collector: fused-
/// batch cycles vs `B ×` solo, with declared amortization floors
/// asserted on op counts.
pub(super) fn systolic_design(_: &PaperRun, _: &[Read]) {
    banner("Ablation C: systolic array design sweep (YOLOv2)");
    let net = zoo::yolov2();
    let mut table = Table::new([
        "array",
        "SRAM",
        "peak TOPS",
        "fps",
        "utilization",
        "DRAM/frame",
    ])
    .with_title("array size x SRAM sweep");
    for (rows, cols) in [(16u32, 16u32), (24, 24), (32, 32), (48, 48)] {
        for sram_kib in [768u64, 1536, 3072] {
            let cfg = SystolicConfig {
                rows,
                cols,
                weight_sram: Bytes::from_kib(sram_kib / 6),
                ifmap_sram: Bytes::from_kib(sram_kib / 3),
                ofmap_sram: Bytes::from_kib(sram_kib / 2),
                ..SystolicConfig::table1()
            };
            let model = SystolicModel::new(cfg.clone());
            let stats = model.analyze(&net);
            table.row([
                format!("{rows}x{cols}"),
                format!("{} KiB", sram_kib),
                fnum(cfg.peak_ops_per_sec() / 1e12, 2),
                fnum(stats.fps(), 1),
                fnum(stats.mean_utilization(&cfg), 2),
                format!("{}", stats.dram_total()),
            ]);
        }
    }
    println!("{table}");
    println!("observations: throughput scales sub-linearly with array area (fill/");
    println!("drain overhead and memory-bound layers); SRAM mostly buys DRAM");
    println!("traffic, not speed — which is why Euphrates attacks the *rate* of");
    println!("inference instead of the accelerator's microarchitecture.\n");

    println!("== Ablation C2: cross-request batching (Table 1 array) ==\n");
    let engine = NnxEngine::default();
    let mut batch_table = Table::new([
        "network",
        "B",
        "Mcycles/batch",
        "cycles vs Bx solo",
        "mJ/request",
    ])
    .with_title("fused-batch amortization sweep");
    // Declared floors at B = 16, measured on this model and pinned so a
    // regression in the batched walk (or an accidental "free lunch")
    // fails the run. MDNet amortizes hard — its FC layers are M = 36
    // rows deep, so solo runs waste most of each 24-row fill — while
    // YOLOv2's huge-K conv layers leave only the per-tile fill/drain to
    // save.
    batching_sweep(&mut batch_table, &engine, &zoo::mdnet(), (0.60, 0.95));
    batching_sweep(&mut batch_table, &engine, &zoo::yolov2(), (0.90, 0.9999));
    println!("{batch_table}");
    println!("observations: batching pays where fill/drain and ragged M-tiles");
    println!("dominate (MDNet's 36-candidate FC stack) and fades where K is huge");
    println!("(YOLOv2 convs) — exactly the jobs `euphrates-serve` fuses across");
    println!("sessions. Ratios are pure op counts; wall-clock never appears.");
}

/// The adaptive policy at one IoU disagreement threshold and growth
/// streak.
fn adaptive(iou_threshold: f64, grow_streak: u32) -> SchemeSpec {
    let policy = EwPolicy::Adaptive(AdaptiveConfig {
        iou_threshold,
        grow_streak,
        ..AdaptiveConfig::default()
    });
    SchemeSpec::new(
        format!("thr={iou_threshold} streak={grow_streak}"),
        BackendConfig::new(policy),
    )
    .expect("id is valid")
}

/// Ablation D's cells: the threshold × streak grid, then EW-2 and EW-4.
/// The default (thr=0.5, streak=2), EW-2 and EW-4 are Fig. 10a's EW-A,
/// EW-2 and EW-4.
pub(super) fn adaptive_policy_reads() -> Vec<Read> {
    let mut schemes = Vec::new();
    for threshold in [0.3, 0.5, 0.7] {
        for streak in [1u32, 2, 4] {
            schemes.push(adaptive(threshold, streak));
        }
    }
    schemes.extend([ew(2), ew(4)]);
    vec![tracking(Suite::Tracking, MotionConfig::default(), schemes)]
}

/// Ablation D (§3.3): the adaptive window's IoU disagreement threshold
/// and growth streak, swept on the tracking workload: the
/// accuracy-vs-inference-rate frontier the default sits on.
pub(super) fn adaptive_policy(run: &PaperRun, reads: &[Read]) {
    banner("Ablation D (§3.3): adaptive-EW hyper-parameters");
    let results = run.results(&reads[0]);
    let mut table = Table::new(["policy", "success@0.5", "AUC", "inference rate"])
        .with_title("adaptive policy sweep");
    for (label, r) in &results {
        table.row([
            label.to_string(),
            percent(r.rate_at_05()),
            percent(r.accuracy().auc()),
            percent(r.outcome.inference_rate()),
        ]);
    }
    println!("{table}");
    let at = |label: &str| {
        let (_, r) = results
            .iter()
            .find(|(l, _)| *l == label)
            .expect("the sweep reads it");
        (r.rate_at_05(), r.outcome.inference_rate())
    };
    let (default, ew2, ew4) = (at("thr=0.5 streak=2"), at("EW-2"), at("EW-4"));
    println!("reading: lower thresholds / shorter streaks grow the window more");
    println!("aggressively (fewer inferences, more accuracy risk); the default");
    println!(
        "(thr=0.5, streak=2) reads {} at a {} inference rate: {:+.1}pp vs EW-2",
        percent(default.0),
        percent(default.1),
        (default.0 - ew2.0) * 100.0
    );
    println!(
        "({} at {}), {:+.1}pp vs EW-4 ({} at {}). Paper: EW-A matches EW-2's",
        percent(ew2.0),
        percent(ew2.1),
        (default.0 - ew4.0) * 100.0,
        percent(ew4.0),
        percent(ew4.1)
    );
    println!("accuracy near EW-4's inference rate.");
}

/// The opt-in SAD lower-bound prefilter on real noisy rendered frames —
/// the content that defeats the SWAR kernel's early exit and motivated
/// the bound. Asserted contracts are deterministic operation counts
/// (`SearchStats` is exact and identical on every host):
///
/// * motion fields and probe counts bit-identical with the prefilter on
///   (skipped candidates are still charged as probes);
/// * hierarchical: ≥1.3× fewer absolute-difference ops (`sad_ops`,
///   measured ~1.55×) and ≥40% of probes eliminated before any pixel
///   loads (measured ~58%);
/// * exhaustive: ≥2× fewer `sad_ops` (measured ~4.8×) and ≥70% of
///   probes eliminated (measured ~86%).
///
/// On the host the SWAR early exit already floors a losing candidate at
/// roughly the bound's own cost, so the prefilter's value is the
/// op-count cut — the quantity that models a hardware ISP, where every
/// SAD op is a pixel fetch — and it stays off by default.
pub(super) fn sad_prefilter(_: &PaperRun, _: &[Read]) {
    banner("Ablation: SAD lower-bound prefilter on noisy rendered frames (op counts)");
    // Two consecutive σ=2 noisy VGA frames from the dataset generator —
    // the kind of content the `otb_sweep` benchmark workload searches.
    let mut suite = euphrates_datasets::otb100_like(42, DatasetScale::fraction(0.05));
    let seq = suite.remove(0);
    let mut renderer = seq.scene.renderer();
    let mut prev = LumaFrame::new(640, 480).expect("VGA");
    let mut cur = LumaFrame::new(640, 480).expect("VGA");
    renderer.render_luma_pixels_into(2, &mut prev);
    renderer.render_luma_pixels_into(3, &mut cur);

    for (name, strategy, min_ops_ratio, min_skip_rate) in [
        ("hierarchical", SearchStrategy::Hierarchical, 1.3, 0.40),
        ("exhaustive", SearchStrategy::Exhaustive, 2.0, 0.70),
    ] {
        let off = BlockMatcher::new(16, 7, strategy).expect("built-in strategy");
        let on = BlockMatcher::new(16, 7, strategy)
            .expect("built-in strategy")
            .with_prefilter(true);
        let (f_off, s_off) = off.estimate_with_stats(&cur, &prev).expect("same shape");
        let (f_on, s_on) = on.estimate_with_stats(&cur, &prev).expect("same shape");

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
             eliminated pre-load",
            s_off.sad_ops,
            s_on.sad_ops,
            skip_rate * 100.0,
            s_on.probes,
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
