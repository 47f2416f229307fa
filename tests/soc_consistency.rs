//! Consistency checks between the analytical SoC model, the
//! discrete-event simulator, and the paper's headline numbers.

use euphrates::common::rngx::Fnv1a;
use euphrates::common::units::Picos;
use euphrates::core::prelude::*;
use euphrates::nn::zoo;
use euphrates::soc::sim::{run_vision_pipeline, PipelineTimings};

fn timings(system: &SystemModel, window: u32) -> PipelineTimings {
    let plan = system.plan(&zoo::yolov2());
    PipelineTimings {
        frame_period: Picos::from_micros(16_667),
        sensor_latency: Picos::from_millis(4),
        isp_latency: Picos::from_millis(3),
        mc_e_frame: system.mc_time_per_frame(),
        mc_i_frame: Picos::from_micros(20),
        nnx_latency: plan.latency(),
        window,
    }
}

#[test]
fn des_and_analytical_fps_agree() {
    let system = SystemModel::table1();
    for window in [1u32, 2, 4, 8] {
        let analytical = system
            .evaluate(
                &zoo::yolov2(),
                f64::from(window),
                ExtrapolationExecutor::MotionController,
            )
            .unwrap()
            .fps;
        let (run, _) = run_vision_pipeline(timings(&system, window), 360, false);
        let des = run.achieved_fps();
        // The DES quantizes to frame boundaries; allow 15%.
        let rel = (des - analytical).abs() / analytical;
        assert!(
            rel < 0.15,
            "window {window}: DES {des:.1} vs analytical {analytical:.1}"
        );
    }
}

#[test]
fn energy_breakdown_sums_to_total() {
    let system = SystemModel::table1();
    for window in [1.0, 3.0, 16.0] {
        let r = system
            .evaluate(
                &zoo::yolov2(),
                window,
                ExtrapolationExecutor::MotionController,
            )
            .unwrap();
        let b = r.breakdown();
        assert!(
            (b.total().0 - r.energy_per_frame().0).abs() < 1e-9,
            "window {window}"
        );
        assert!(b.frontend.0 > 0.0 && b.memory.0 > 0.0 && b.backend.0 > 0.0);
    }
}

#[test]
fn energy_decreases_monotonically_with_window() {
    let system = SystemModel::table1();
    let mut last = f64::INFINITY;
    for window in [1.0, 2.0, 4.0, 8.0, 16.0, 32.0] {
        let e = system
            .evaluate(
                &zoo::yolov2(),
                window,
                ExtrapolationExecutor::MotionController,
            )
            .unwrap()
            .energy_per_frame()
            .0;
        assert!(e < last, "window {window}: {e} !< {last}");
        last = e;
    }
}

#[test]
fn paper_headline_detection_results_hold() {
    // §6.1 / abstract: doubles the detection rate, 45%/66% energy saving,
    // up to 4x for the vision computations.
    let system = SystemModel::table1();
    let base = system
        .evaluate(&zoo::yolov2(), 1.0, ExtrapolationExecutor::MotionController)
        .unwrap();
    let ew2 = system
        .evaluate(&zoo::yolov2(), 2.0, ExtrapolationExecutor::MotionController)
        .unwrap();
    let ew4 = system
        .evaluate(&zoo::yolov2(), 4.0, ExtrapolationExecutor::MotionController)
        .unwrap();

    // "doubles the object detection rate"
    assert!(ew2.fps > 1.8 * base.fps, "{} vs {}", ew2.fps, base.fps);
    // "reducing the SoC energy by 66%" (EW-4)
    let s4 = 1.0 - ew4.energy_per_frame().0 / base.energy_per_frame().0;
    assert!((0.58..0.74).contains(&s4), "EW-4 saving {s4}");
    // "4x for the vision computations" — backend energy reduction at EW-4.
    let backend_ratio = base.breakdown().backend.0 / ew4.breakdown().backend.0;
    assert!(backend_ratio > 3.5, "backend reduction {backend_ratio}x");
}

#[test]
fn tracking_headline_results_hold() {
    // §6.2: 21% SoC energy saving at EW-2 without dropping 60 FPS (we
    // land within a few points; the band below pins how many).
    let system = SystemModel::table1();
    let base = system
        .evaluate(&zoo::mdnet(), 1.0, ExtrapolationExecutor::MotionController)
        .unwrap();
    let ew2 = system
        .evaluate(&zoo::mdnet(), 2.0, ExtrapolationExecutor::MotionController)
        .unwrap();
    assert!(base.fps > 59.0 && ew2.fps > 59.0);
    let saving = 1.0 - ew2.energy_per_frame().0 / base.energy_per_frame().0;
    assert!(
        (0.12..0.32).contains(&saving),
        "EW-2 tracking saving {saving}"
    );
}

#[test]
fn des_trace_orders_pipeline_stages() {
    let system = SystemModel::table1();
    let (_, trace) = run_vision_pipeline(timings(&system, 4), 6, true);
    // For every frame, sensor < isp < mc timestamps.
    for f in 0..6u64 {
        let t = |comp: &str| {
            trace
                .iter()
                .find(|e| e.component == comp && e.message.contains(&format!("frame {f}")))
                .map(|e| e.time)
        };
        if let (Some(s), Some(i), Some(m)) = (t("sensor"), t("isp"), t("mc")) {
            assert!(s < i && i < m, "frame {f}: {s:?} {i:?} {m:?}");
        }
    }
}

#[test]
fn cpu_scheme_undoes_most_savings_at_ew8() {
    let system = SystemModel::table1();
    let ew4 = system
        .evaluate(&zoo::yolov2(), 4.0, ExtrapolationExecutor::MotionController)
        .unwrap();
    let ew8cpu = system
        .evaluate(&zoo::yolov2(), 8.0, ExtrapolationExecutor::Cpu)
        .unwrap();
    let ratio = ew8cpu.energy_per_frame().0 / ew4.energy_per_frame().0;
    assert!((0.75..1.3).contains(&ratio), "EW-8@CPU / EW-4 = {ratio}");
}

/// Folds a DES run and its trace into one FNV-1a digest: every trace
/// line's time, component and message, then each result, the drop count
/// and the inference count.
fn des_digest(timings: PipelineTimings, frames: u64) -> u64 {
    let (run, trace) = run_vision_pipeline(timings, frames, true);
    let mut h = Fnv1a::new();
    for entry in &trace {
        h.write(&entry.time.0.to_le_bytes());
        h.write(entry.component.as_bytes());
        h.write(&[0]);
        h.write(entry.message.as_bytes());
        h.write(&[0]);
    }
    for (frame, time) in &run.results {
        h.write(&frame.to_le_bytes());
        h.write(&time.0.to_le_bytes());
    }
    h.write(&run.dropped.to_le_bytes());
    h.write(&run.inferences.to_le_bytes());
    h.finish()
}

#[test]
fn des_trace_and_run_match_recorded_digests() {
    let system = SystemModel::table1();
    let yolo = system.plan(&zoo::yolov2()).latency();
    // (window, NNX latency, digest) over 120 traced frames.
    let cases: [(u32, Picos, u64); 8] = [
        (1, Picos::from_millis(12), 0xdf6d_d968_b0de_023b),
        (2, Picos::from_millis(12), 0x6bba_24a9_ad07_7efb),
        (4, Picos::from_millis(12), 0xe231_34fd_8531_913c),
        (8, Picos::from_millis(12), 0xeea8_9afa_a6b7_f3c4),
        (1, yolo, 0x7d5f_0dcd_15db_96dc),
        (2, yolo, 0x9c55_4c61_3ae6_a382),
        (4, yolo, 0xea24_7ce1_5164_349c),
        (8, yolo, 0xe604_d9bb_d2b5_1358),
    ];
    for (window, nnx_latency, want) in cases {
        let t = PipelineTimings {
            nnx_latency,
            ..timings(&system, window)
        };
        assert_eq!(
            des_digest(t, 120),
            want,
            "window {window}, NNX {nnx_latency}"
        );
    }
}
