//! Integration tests for the unified API: the `Scenario` builder
//! round-trip, streaming-vs-offline equivalence, and scheme-registry
//! validation.

use euphrates_core::prelude::*;
use euphrates_nn::oracle::calib;
use euphrates_nn::zoo;

fn tracking_suite(seed: u64, n: usize, frames: u32) -> Vec<Sequence> {
    let mut suite = euphrates_datasets::otb100_like(seed, DatasetScale::fraction(0.1));
    suite.truncate(n);
    for s in &mut suite {
        s.frames = frames;
    }
    suite
}

#[test]
fn scenario_round_trips_builder_to_report() {
    let suite = tracking_suite(5, 2, 32);
    let scenario = Scenario::builder(TrackerTask::new(calib::mdnet()))
        .suite(suite)
        .motion(MotionConfig::default())
        .platform(SystemModel::table1())
        .network(zoo::mdnet())
        .scheme("MDNet", BackendConfig::baseline())
        .scheme("EW-4", BackendConfig::new(EwPolicy::Constant(4)))
        .scheme_on(
            "EW-4-cpu",
            BackendConfig::new(EwPolicy::Constant(4)),
            ExtrapolationExecutor::Cpu,
        )
        .build()
        .unwrap();
    assert_eq!(scenario.schemes().len(), 3);
    assert_eq!(scenario.scheme("EW-4").unwrap().id.as_str(), "EW-4");

    let report = scenario.evaluate().unwrap();
    assert_eq!(report.len(), 3);
    // Registration order is preserved and ids survive the round trip.
    let labels: Vec<&str> = report.iter().map(|r| r.label()).collect();
    assert_eq!(labels, vec!["MDNet", "EW-4", "EW-4-cpu"]);
    // Accuracy, schedule, and platform numbers arrive together.
    let base = report.get("MDNet").unwrap();
    let ew4 = report.get("EW-4").unwrap();
    assert_eq!(base.outcome.inference_rate(), 1.0);
    assert!((ew4.outcome.inference_rate() - 0.25).abs() < 0.05);
    assert_eq!(ew4.per_sequence.len(), 2);
    assert!(base.rate_at_05() > 0.5);
    let base_sys = base.system.as_ref().expect("network set → system report");
    let ew4_sys = ew4.system.as_ref().unwrap();
    assert!(ew4_sys.fps >= base_sys.fps);
    assert!(ew4_sys.energy_per_frame() < base_sys.energy_per_frame());
    assert!(ew4_sys.traffic_per_frame.0 > 0);
    // The CPU executor pays for its wakeups relative to the MC at the
    // same schedule.
    let cpu_sys = report.get("EW-4-cpu").unwrap().system.as_ref().unwrap();
    assert!(cpu_sys.energy_per_frame() > ew4_sys.energy_per_frame());
}

#[test]
fn scenario_without_network_reports_accuracy_only() {
    let suite = tracking_suite(9, 1, 16);
    let report = Scenario::builder(TrackerTask::new(calib::mdnet()))
        .suite(suite)
        .scheme("base", BackendConfig::baseline())
        .build()
        .unwrap()
        .evaluate()
        .unwrap();
    assert!(report.schemes[0].system.is_none());
    assert!(!report.schemes[0].outcome.ious.is_empty());
}

#[test]
fn evaluate_rejects_an_empty_suite() {
    // A suite-less scenario is valid to build (it can still serve
    // streaming sessions) but must not "succeed" at offline evaluation
    // with zero frames.
    let scenario = Scenario::builder(TrackerTask::new(calib::mdnet()))
        .scheme("base", BackendConfig::baseline())
        .build()
        .unwrap();
    assert!(scenario.evaluate().is_err());
    assert!(scenario
        .session("base", euphrates_common::image::Resolution::VGA, 0)
        .is_ok());
}

/// The acceptance-criteria equivalence: pushing frames one at a time
/// through `Session` must produce bit-identical `TaskOutcome`s to the
/// offline `Scenario::evaluate` path on the same seed — for both tasks.
#[test]
fn session_streaming_bit_matches_offline_evaluate() {
    // Tracking.
    let suite = tracking_suite(11, 3, 40);
    let scenario = Scenario::builder(TrackerTask::new(calib::mdnet()))
        .suite(suite.clone())
        .scheme("EW-4", BackendConfig::new(EwPolicy::Constant(4)))
        .scheme(
            "EW-A",
            BackendConfig::new(EwPolicy::Adaptive(AdaptiveConfig::default())),
        )
        .build()
        .unwrap();
    let report = scenario.evaluate().unwrap();
    for (si, seq) in suite.iter().enumerate() {
        let prep = prepare_sequence(seq, scenario.motion()).unwrap();
        for result in report.iter() {
            let mut session = scenario
                .session(result.label(), prep.resolution, si as u64)
                .unwrap();
            for frame in &prep.frames {
                session.push_frame(frame).unwrap();
            }
            assert_eq!(
                session.finish(),
                result.per_sequence[si],
                "tracking {} sequence {si} diverged",
                result.label()
            );
        }
    }

    // Detection.
    let mut det_suite = euphrates_datasets::detection_suite(23, DatasetScale::fraction(0.1));
    det_suite.truncate(2);
    for s in &mut det_suite {
        s.frames = 32;
    }
    let scenario = Scenario::builder(DetectorTask::new(calib::yolov2()))
        .suite(det_suite.clone())
        .scheme("EW-8", BackendConfig::new(EwPolicy::Constant(8)))
        .build()
        .unwrap();
    let report = scenario.evaluate().unwrap();
    for (si, seq) in det_suite.iter().enumerate() {
        let prep = prepare_sequence(seq, scenario.motion()).unwrap();
        let mut session = scenario
            .session("EW-8", prep.resolution, si as u64)
            .unwrap();
        for frame in &prep.frames {
            session.push_frame(frame).unwrap();
        }
        assert_eq!(
            session.finish(),
            report.schemes[0].per_sequence[si],
            "detection sequence {si} diverged"
        );
    }
}

/// The streaming front-end satellite: running a task over the lazy
/// `frame_source` (O(1 frame) of memory) must produce bit-identical
/// outcomes to the eager `prepare_sequence` + `run_task` path, and to
/// what grid-parallel `Scenario::evaluate` reports for the same cell.
#[test]
fn run_stream_bit_matches_prepared_run_task() {
    let suite = tracking_suite(17, 2, 28);
    let motion = MotionConfig::default();
    let config = BackendConfig::new(EwPolicy::Constant(4));
    let scenario = Scenario::builder(TrackerTask::new(calib::mdnet()))
        .suite(suite.clone())
        .motion(motion)
        .scheme("EW-4", config)
        .build()
        .unwrap();
    let report = scenario.evaluate().unwrap();
    for (si, seq) in suite.iter().enumerate() {
        let prep = prepare_sequence(seq, &motion).unwrap();
        let eager = run_task(TrackerTask::new(calib::mdnet()), &prep, &config, si as u64).unwrap();
        let source = frame_source(seq, &motion).unwrap();
        let streamed = run_stream(
            TrackerTask::new(calib::mdnet()),
            source.resolution(),
            source,
            &config,
            si as u64,
        )
        .unwrap();
        assert_eq!(streamed, eager, "sequence {si} diverged from run_task");
        assert_eq!(
            streamed, report.schemes[0].per_sequence[si],
            "sequence {si} diverged from Scenario::evaluate"
        );
    }
}

#[test]
fn run_stream_rejects_empty_streams() {
    let err = run_stream(
        TrackerTask::new(calib::mdnet()),
        euphrates_common::image::Resolution::VGA,
        std::iter::empty(),
        &BackendConfig::baseline(),
        0,
    );
    assert!(err.is_err());
}

/// Grid-flattened evaluation must stay deterministic under any thread
/// count: 1 worker, many workers, and the default all agree.
#[test]
fn grid_parallel_evaluate_is_thread_count_invariant() {
    let suite = tracking_suite(19, 2, 24);
    let build = |threads: usize| {
        Scenario::builder(TrackerTask::new(calib::mdnet()))
            .suite(suite.clone())
            .threads(threads)
            .scheme("base", BackendConfig::baseline())
            .scheme("EW-2", BackendConfig::new(EwPolicy::Constant(2)))
            .scheme("EW-8", BackendConfig::new(EwPolicy::Constant(8)))
            .build()
            .unwrap()
            .evaluate()
            .unwrap()
    };
    let serial = build(1);
    let wide = build(12);
    assert_eq!(serial.len(), wide.len());
    for (a, b) in serial.iter().zip(wide.iter()) {
        assert_eq!(a.label(), b.label());
        assert_eq!(a.outcome, b.outcome, "{} diverged across pools", a.label());
        assert_eq!(a.per_sequence, b.per_sequence);
    }
}

/// A scheme's per-sequence outcomes must not depend on which other
/// schemes share its `Scenario`: evaluating the registry together and
/// each scheme alone agree bit for bit, serially and with workers. A
/// paper run that evaluates the union of several figures' schemes in
/// one scenario relies on this.
#[test]
fn multi_scheme_evaluate_matches_single_scheme_runs() {
    let suite = tracking_suite(29, 3, 26);
    let schemes = [
        ("base", BackendConfig::baseline()),
        ("EW-2", BackendConfig::new(EwPolicy::Constant(2))),
        ("EW-8", BackendConfig::new(EwPolicy::Constant(8))),
        (
            "EW-A",
            BackendConfig::new(EwPolicy::Adaptive(AdaptiveConfig::default())),
        ),
    ];
    let evaluate = |threads: usize, registry: &[(&str, BackendConfig)]| {
        let mut builder = Scenario::builder(TrackerTask::new(calib::mdnet()))
            .suite(suite.clone())
            .threads(threads);
        for (id, backend) in registry {
            builder = builder.scheme(*id, *backend);
        }
        builder.build().unwrap().evaluate().unwrap()
    };
    for threads in [1, 4] {
        let together = evaluate(threads, &schemes);
        assert_eq!(together.len(), schemes.len());
        for (k, scheme) in schemes.iter().enumerate() {
            let alone = evaluate(threads, std::slice::from_ref(scheme));
            assert_eq!(together.schemes[k].label(), scheme.0);
            assert_eq!(
                together.schemes[k].per_sequence, alone.schemes[0].per_sequence,
                "{} at {threads} threads depends on its neighbours",
                scheme.0
            );
            assert_eq!(together.schemes[k].outcome, alone.schemes[0].outcome);
        }
    }
}

/// A sequence without frames has nothing to score: evaluation must
/// fail (naming the task) instead of reporting an empty outcome.
#[test]
fn evaluate_rejects_a_zero_frame_sequence() {
    let mut suite = tracking_suite(31, 2, 16);
    suite[1].frames = 0;
    let err = Scenario::builder(TrackerTask::new(calib::mdnet()))
        .suite(suite)
        .scheme("EW-4", BackendConfig::new(EwPolicy::Constant(4)))
        .build()
        .unwrap()
        .evaluate()
        .unwrap_err();
    assert!(
        err.to_string().contains("tracking"),
        "error does not name the task: {err}"
    );
}

#[test]
fn frame_decisions_expose_the_schedule() {
    let suite = tracking_suite(13, 1, 16);
    let prep = prepare_sequence(&suite[0], &MotionConfig::default()).unwrap();
    let task = TrackerTask::new(calib::mdnet());
    let mut session = Session::new(
        task,
        BackendConfig::new(EwPolicy::Constant(4)),
        prep.resolution,
        0,
    )
    .unwrap();
    let mut decisions = Vec::new();
    for frame in &prep.frames {
        decisions.push(session.push_frame(frame).unwrap());
    }
    assert_eq!(decisions.len(), 16);
    // Constant EW-4: I E E E repeating.
    for (i, d) in decisions.iter().enumerate() {
        assert_eq!(d.frame, i as u64);
        let expect_inference = i % 4 == 0;
        assert_eq!(d.is_inference(), expect_inference, "frame {i}");
        assert_eq!(d.rois, 1);
        // Only inference frames feed the adaptive comparison.
        assert_eq!(d.policy_feedback.is_some(), expect_inference);
        // Frame 0 is the given box; every later frame scores one IoU.
        assert_eq!(d.new_scores, usize::from(i > 0));
    }
    assert_eq!(session.frames(), 16);
    assert_eq!(session.outcome().inferences, 4);
}

#[test]
fn tracker_session_rejects_targetless_first_frame() {
    let task = TrackerTask::new(calib::mdnet());
    let mut session = Session::new(
        task,
        BackendConfig::baseline(),
        euphrates_common::image::Resolution::VGA,
        0,
    )
    .unwrap();
    let frame = FrameData::new(
        vec![],
        euphrates_isp::motion::MotionField::zeroed(euphrates_common::image::Resolution::VGA, 16, 7)
            .unwrap(),
    );
    assert!(session.push_frame(&frame).is_err());
}

#[test]
fn scheme_id_validation_rejects_empty_and_duplicates() {
    assert!(SchemeId::new("EW-4").is_ok());
    assert!(SchemeId::new("").is_err());
    assert!(SchemeId::new("   ").is_err());
    assert_eq!(SchemeId::new("EW-4").unwrap().to_string(), "EW-4");

    let dup = Scenario::builder(TrackerTask::new(calib::mdnet()))
        .scheme("EW-4", BackendConfig::baseline())
        .scheme("EW-4", BackendConfig::new(EwPolicy::Constant(4)))
        .build();
    assert!(dup.is_err(), "duplicate ids must be rejected");

    let empty_id = Scenario::builder(TrackerTask::new(calib::mdnet()))
        .scheme("", BackendConfig::baseline())
        .build();
    assert!(empty_id.is_err(), "empty ids must be rejected");

    let no_schemes = Scenario::builder(TrackerTask::new(calib::mdnet())).build();
    assert!(no_schemes.is_err(), "a scenario needs schemes");

    // Pre-validated specs flow through `schemes(...)` unchanged.
    let specs = vec![
        SchemeSpec::new("a", BackendConfig::baseline()).unwrap(),
        SchemeSpec::new("b", BackendConfig::new(EwPolicy::Constant(2)))
            .unwrap()
            .with_executor(ExtrapolationExecutor::Cpu),
    ];
    let scenario = Scenario::builder(TrackerTask::new(calib::mdnet()))
        .schemes(specs)
        .build()
        .unwrap();
    assert_eq!(scenario.schemes()[1].executor, ExtrapolationExecutor::Cpu);
    assert!(scenario
        .session("nope", euphrates_common::image::Resolution::VGA, 0)
        .is_err());
}
