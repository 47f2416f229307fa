//! The two batch workloads: `otb_sweep` (fast luma frontend, tracking)
//! and `detect_full_isp` (sensor + full ISP frontend, detection).
//!
//! Untraced, each repeats `Scenario::evaluate` over its suite at one
//! worker thread and reports the median wall time per prepared frame,
//! with a streaming pass (`frame_source` + one EW-4 `Session`) between
//! evaluations for per-frame latency. Traced, it rebuilds the same
//! frontend loop from public calls — renderer, sensor, pyramid, block
//! matcher, ISP stage structs, `Session::push_frame` — with a span
//! around each call, and checks the rebuilt motion fields bit for bit
//! against `frame_source`.

use crate::report::{median, median_of, quantile, Checks, Metrics};
use crate::trace::Tracer;
use crate::{ms, same_outcome, set_threads, Budget, RunArgs, RunResult};
use euphrates_camera::scene::Renderer;
use euphrates_camera::sensor::{ImageSensor, SensorConfig};
use euphrates_common::error::Result;
use euphrates_common::image::{
    downsample2_dims, downsample2_into, rgb_to_luma, BayerFrame, LumaFrame, Resolution, RgbFrame,
};
use euphrates_core::prelude::*;
use euphrates_isp::color::{ColorCorrection, Gamma};
use euphrates_isp::motion::{BlockMatcher, CachedPlanes, MotionField, SearchStats};
use euphrates_isp::stages::{DeadPixelCorrection, Demosaic, TemporalDenoise, WhiteBalance};
use euphrates_nn::layer::NetworkDescriptor;
use euphrates_nn::oracle::calib;
use std::time::Instant;

/// The scheme whose accuracy and energy the end-to-end metrics report.
const HEADLINE: &str = "EW-4";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sweep {
    Otb,
    DetectFullIsp,
}

impl Sweep {
    /// The suite for a dataset seed. OTB: 10 sequences × 30 VGA frames,
    /// one per visual attribute. Detection: 2 sequences × 45 VGA frames
    /// of 5–7 objects entering and leaving.
    fn suite(self, seed: u64) -> Vec<Sequence> {
        match self {
            Sweep::Otb => euphrates_datasets::otb100_like(seed, DatasetScale::fraction(0.05)),
            Sweep::DetectFullIsp => {
                euphrates_datasets::detection_suite(seed, DatasetScale::fraction(0.1))
            }
        }
    }

    fn motion(self) -> MotionConfig {
        match self {
            Sweep::Otb => MotionConfig::default(),
            Sweep::DetectFullIsp => MotionConfig {
                full_isp: true,
                strategy: SearchStrategy::ThreeStep,
                ..MotionConfig::default()
            },
        }
    }

    fn network(self) -> NetworkDescriptor {
        match self {
            Sweep::Otb => euphrates_nn::zoo::mdnet(),
            Sweep::DetectFullIsp => euphrates_nn::zoo::yolov2(),
        }
    }

    fn schemes(self) -> [(&'static str, BackendConfig); 3] {
        let ew = |n| BackendConfig::new(EwPolicy::Constant(n));
        match self {
            Sweep::Otb => [
                ("base", BackendConfig::baseline()),
                ("EW-4", ew(4)),
                ("EW-16", ew(16)),
            ],
            Sweep::DetectFullIsp => [
                ("YOLOv2", BackendConfig::baseline()),
                ("EW-2", ew(2)),
                ("EW-4", ew(4)),
            ],
        }
    }
}

/// One (re)built suite plus how long building it took: dataset
/// generation, renderer construction (the background canvas) and one
/// warm-up render per sequence.
fn set_up(kind: Sweep, seed: u64) -> (Vec<Sequence>, f64) {
    let t0 = Instant::now();
    let suite = kind.suite(seed);
    for seq in &suite {
        let res = seq.resolution();
        let mut renderer = seq.scene.renderer();
        if kind.motion().full_isp {
            let mut rgb = RgbFrame::new(res.width, res.height).expect("VGA frame");
            renderer.render_into(0, &mut rgb);
        } else {
            let mut luma = LumaFrame::new(res.width, res.height).expect("VGA frame");
            renderer.render_luma_into(0, &mut luma);
        }
    }
    (suite, t0.elapsed().as_secs_f64())
}

fn evaluate<T: VisionTask + Clone + Sync>(
    task: &T,
    kind: Sweep,
    suite: &[Sequence],
    threads: usize,
) -> Result<EvalReport> {
    let mut builder = Scenario::builder(task.clone())
        .suite(suite.to_vec())
        .motion(kind.motion())
        .network(kind.network())
        .threads(threads);
    for (id, backend) in kind.schemes() {
        builder = builder.scheme(id, backend);
    }
    builder.build()?.evaluate()
}

/// Whether two evaluations agree bit for bit: every scheme's merged and
/// per-sequence outcome and its modelled SoC report.
fn same_report(a: &EvalReport, b: &EvalReport) -> bool {
    a.len() == b.len()
        && a.iter().zip(b.iter()).all(|(x, y)| {
            x.id == y.id
                && same_outcome(&x.outcome, &y.outcome)
                && x.per_sequence.len() == y.per_sequence.len()
                && x.per_sequence
                    .iter()
                    .zip(&y.per_sequence)
                    .all(|(p, q)| same_outcome(p, q))
                && x.system == y.system
        })
}

fn headline(report: &EvalReport) -> &SchemeResult {
    report.get(HEADLINE).expect("headline scheme registered")
}

/// The headline scheme's accuracy and modelled energy per frame.
fn headline_values(report: &EvalReport) -> (f64, f64) {
    let ew = headline(report);
    let system = ew.system.as_ref().expect("sweeps name a network");
    (ew.rate_at_05(), system.energy_per_frame().0)
}

/// Streams one sequence through `frame_source` into an EW-4 session,
/// timing each frame from the request for it to its decision.
fn stream_one<T: VisionTask + Clone + Sync>(
    task: &T,
    kind: Sweep,
    seq: &Sequence,
    stream: u64,
    latencies_us: &mut Vec<f64>,
) -> Result<TaskOutcome> {
    let (_, backend) = kind
        .schemes()
        .into_iter()
        .find(|(id, _)| *id == HEADLINE)
        .expect("every sweep registers the headline scheme");
    let mut source = frame_source(seq, &kind.motion())?;
    let mut session = Session::new(task.clone(), backend, source.resolution(), stream)?;
    loop {
        let t0 = Instant::now();
        let Some(frame) = source.next() else {
            break;
        };
        session.push_frame(&frame?)?;
        latencies_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
    }
    Ok(session.finish())
}

/// Buffers of the rebuilt fast luma frontend (the state `frame_source`
/// keeps between frames).
struct LumaPath {
    matcher: BlockMatcher,
    cur: LumaFrame,
    prev: LumaFrame,
    pyramid: Option<(LumaFrame, LumaFrame)>,
}

/// Buffers of the rebuilt sensor + ISP frontend: `frame_source` runs
/// `IspConfig::standard` (every stage on, default stage parameters) with
/// the motion config's block matcher.
struct IspPath {
    sensor: ImageSensor,
    rgb: RgbFrame,
    raw: BayerFrame,
    matcher: BlockMatcher,
    prev_luma: Option<LumaFrame>,
}

enum Path {
    Luma(LumaPath),
    Isp(Box<IspPath>),
}

impl Path {
    /// The state `frame_source(seq, motion)` starts from.
    fn new(seq: &Sequence, motion: &MotionConfig) -> Result<Path> {
        let res = seq.resolution();
        let matcher = BlockMatcher::new(motion.mb_size, motion.search_range, motion.strategy)?;
        if motion.full_isp {
            let sensor = ImageSensor::new(
                SensorConfig {
                    resolution: res,
                    noise_model: seq.scene.effects().noise_model,
                    ..SensorConfig::default()
                },
                seq.scene.seed(),
            );
            Ok(Path::Isp(Box::new(IspPath {
                sensor,
                rgb: RgbFrame::new(res.width, res.height)?,
                raw: BayerFrame::new(res.width, res.height)?,
                matcher,
                prev_luma: None,
            })))
        } else {
            let cur = LumaFrame::new(res.width, res.height)?;
            let pyramid = if matcher.wants_pyramid() {
                let (pw, ph) = downsample2_dims(&cur);
                Some((LumaFrame::new(pw, ph)?, LumaFrame::new(pw, ph)?))
            } else {
                None
            };
            Ok(Path::Luma(LumaPath {
                matcher,
                prev: cur.clone(),
                cur,
                pyramid,
            }))
        }
    }
}

/// Counters the traced pass sums over every frame.
#[derive(Default)]
struct PassCounts {
    frames: u64,
    pushes: u64,
    rois: u64,
    search: SearchStats,
}

fn add_stats(sum: &mut SearchStats, s: &SearchStats) {
    sum.blocks += s.blocks;
    sum.probes += s.probes;
    sum.sad_ops += s.sad_ops;
    sum.lb_skips += s.lb_skips;
}

/// Produces frame `index`: the rebuilt body of `FrameSource::next`.
fn produce(
    tr: &mut Tracer,
    renderer: &mut Renderer<'_>,
    path: &mut Path,
    motion: &MotionConfig,
    res: Resolution,
    index: u32,
    counts: &mut PassCounts,
) -> Result<FrameData> {
    let req = u64::from(index);
    let span = tr.begin("core.frontend", req);
    let (truth, field) = match path {
        Path::Luma(p) => {
            let truth = tr.leaf("camera.render_luma", req, || {
                renderer.render_luma_into(index, &mut p.cur)
            });
            if let Some((pcur, _)) = p.pyramid.as_mut() {
                tr.leaf("common.pyramid", req, || downsample2_into(&p.cur, pcur));
            }
            let field = if index > 0 {
                let planes = CachedPlanes {
                    pyramid: p.pyramid.as_ref().map(|(c, v)| (c, v)),
                    ..CachedPlanes::default()
                };
                let (field, stats) = tr.leaf("isp.search", req, || {
                    p.matcher.estimate_cached(&p.cur, &p.prev, planes)
                })?;
                add_stats(&mut counts.search, &stats);
                field
            } else {
                MotionField::zeroed(res, motion.mb_size, motion.search_range)?
            };
            std::mem::swap(&mut p.cur, &mut p.prev);
            if let Some((pcur, pprev)) = p.pyramid.as_mut() {
                std::mem::swap(pcur, pprev);
            }
            (truth, field)
        }
        Path::Isp(p) => {
            let truth = tr.leaf("camera.render_rgb", req, || {
                renderer.render_into(index, &mut p.rgb)
            });
            tr.leaf("camera.sensor", req, || {
                p.sensor.capture_into(&p.rgb, index, &mut p.raw)
            })?;
            // `IspPipeline::process`, stage by stage.
            let process = tr.begin("isp.process", req);
            let mut raw = p.raw.clone();
            tr.leaf("isp.dpc", req, || {
                DeadPixelCorrection::default().process(&mut raw)
            });
            let mut rgb = tr.leaf("isp.demosaic", req, || Demosaic.process(&raw))?;
            tr.leaf("isp.wb", req, || WhiteBalance::default().process(&mut rgb));
            let noisy = tr.leaf("isp.luma", req, || rgb_to_luma(&rgb));
            let (field, luma) = match &p.prev_luma {
                Some(prev) => {
                    let (field, stats) = tr.leaf("isp.search", req, || {
                        p.matcher.estimate_with_stats(&noisy, prev)
                    })?;
                    add_stats(&mut counts.search, &stats);
                    let denoised = tr.leaf("isp.denoise", req, || {
                        TemporalDenoise::default().process(&noisy, prev, &field)
                    })?;
                    (field, denoised)
                }
                None => (
                    MotionField::zeroed(res, motion.mb_size, motion.search_range)?,
                    noisy,
                ),
            };
            tr.leaf("isp.finish", req, || {
                ColorCorrection::default().process(&mut rgb);
                Gamma::default().process(&mut rgb);
            });
            p.prev_luma = Some(luma.clone());
            drop((rgb, luma));
            tr.end(process);
            (truth, field)
        }
    };
    let frame = FrameData::new(truth, field);
    tr.end(span);
    counts.frames += 1;
    Ok(frame)
}

/// What one traced pass produced.
struct PassOutput {
    /// Per scheme, per sequence.
    outcomes: Vec<Vec<TaskOutcome>>,
    /// Per sequence, every produced frame (empty unless kept).
    frames: Vec<Vec<FrameData>>,
    counts: PassCounts,
}

/// One traced pass over the suite: every frame produced once and pushed
/// into one session per scheme, as `Scenario::evaluate` does. With
/// `keep`, every produced frame is kept for the bit-equality check.
fn traced_pass<T: VisionTask + Clone + Sync>(
    task: &T,
    kind: Sweep,
    suite: &[Sequence],
    tr: &mut Tracer,
    pass: u64,
    keep: bool,
) -> Result<PassOutput> {
    let motion = kind.motion();
    let schemes = kind.schemes();
    let mut counts = PassCounts::default();
    let mut outcomes: Vec<Vec<TaskOutcome>> = schemes.iter().map(|_| Vec::new()).collect();
    let mut kept = Vec::new();
    let root = tr.begin("core.evaluate", pass);
    for (si, seq) in suite.iter().enumerate() {
        let res = seq.resolution();
        let mut sessions = schemes
            .iter()
            .map(|(_, b)| Session::new(task.clone(), *b, res, si as u64))
            .collect::<Result<Vec<_>>>()?;
        let mut renderer = seq.scene.renderer();
        let mut path = Path::new(seq, &motion)?;
        let mut frames = Vec::new();
        for index in 0..seq.frames {
            let frame = produce(
                tr,
                &mut renderer,
                &mut path,
                &motion,
                res,
                index,
                &mut counts,
            )?;
            for (k, session) in sessions.iter_mut().enumerate() {
                let span = tr.begin("core.push_frame", k as u64);
                let decision = session.push_frame(&frame);
                let layer = match &decision {
                    Ok(d) if d.is_inference() => "core.infer",
                    _ => "core.extrapolate",
                };
                tr.end_as(span, layer);
                let decision = decision?;
                counts.pushes += 1;
                counts.rois += u64::from(decision.rois);
            }
            if keep {
                frames.push(frame);
            }
        }
        for (k, session) in sessions.into_iter().enumerate() {
            outcomes[k].push(session.finish());
        }
        kept.push(frames);
    }
    tr.end(root);
    Ok(PassOutput {
        outcomes,
        frames: kept,
        counts,
    })
}

/// The per-layer metrics of one traced pass.
fn pass_metrics(tr: &Tracer, from: usize, counts: &PassCounts) -> Metrics {
    let totals = tr.totals_since(from);
    let frames = counts.frames as f64;
    let per_frame_ms = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |t| t.self_ns as f64 / 1e6 / frames)
    };
    let mut m = Metrics::default();
    for (metric, span) in [
        ("camera.render_luma_ms", "camera.render_luma"),
        ("camera.render_rgb_ms", "camera.render_rgb"),
        ("camera.sensor_ms", "camera.sensor"),
        ("common.pyramid_ms", "common.pyramid"),
        ("isp.search_ms", "isp.search"),
        ("isp.process_ms", "isp.process"),
        ("isp.dpc_ms", "isp.dpc"),
        ("isp.demosaic_ms", "isp.demosaic"),
        ("isp.wb_ms", "isp.wb"),
        ("isp.luma_ms", "isp.luma"),
        ("isp.denoise_ms", "isp.denoise"),
        ("isp.finish_ms", "isp.finish"),
        ("core.frontend_ms", "core.frontend"),
    ] {
        m.set(metric, per_frame_ms(span));
    }
    m.set("core.infer_us", per_frame_ms("core.infer") * 1e3);
    m.set(
        "core.extrapolate_us",
        per_frame_ms("core.extrapolate") * 1e3,
    );
    let root = totals["core.evaluate"];
    m.set(
        "trace.traced_ms_per_frame",
        root.total_ns as f64 / 1e6 / frames,
    );
    m.set(
        "trace.covered_ms_per_frame",
        (root.total_ns - root.self_ns) as f64 / 1e6 / frames,
    );
    m.set("isp.search_probes", counts.search.probes as f64 / frames);
    m.set("isp.search_sad_ops", counts.search.sad_ops as f64 / frames);
    m.set(
        "core.rois_per_frame",
        counts.rois as f64 / counts.pushes as f64,
    );
    m
}

pub fn run(kind: Sweep, args: &RunArgs) -> RunResult {
    match kind {
        Sweep::Otb => run_task(&TrackerTask::new(calib::mdnet()), kind, args),
        Sweep::DetectFullIsp => run_task(&DetectorTask::new(calib::yolov2()), kind, args),
    }
}

fn run_task<T: VisionTask + Clone + Sync>(task: &T, kind: Sweep, args: &RunArgs) -> RunResult {
    let mut checks = Checks::default();
    set_threads(1);

    // Set-up, several times over distinct dataset seeds (the process-wide
    // canvas memo would turn repeats of one seed into cache hits); the
    // run seed's suite is the one measured.
    let mut setups = Vec::new();
    let mut suite = Vec::new();
    for k in 0..crate::SETUP_REPEATS {
        let seed = crate::setup_seed(args.seed, k);
        let (s, secs) = set_up(kind, seed);
        setups.push(secs);
        if k == 0 {
            suite = s;
        }
    }
    let frames: u64 = suite.iter().map(|s| u64::from(s.frames)).sum();
    let cells = (suite.len() * kind.schemes().len()) as u64;
    eprintln!(
        "{}: {} sequences, {frames} frames, {cells} (sequence x scheme) cells",
        args.workload,
        suite.len()
    );

    // The reference evaluation: warm-up, and the exact values every
    // later evaluation must reproduce.
    let reference = evaluate(task, kind, &suite, 1).expect("reference evaluation succeeds");
    let (accuracy, energy) = headline_values(&reference);

    let mut attempted = cells;
    let mut failed = 0u64;
    let mut eval_ms = Vec::new();
    // One timed evaluation, checked against the reference after the
    // clock stops; `None` if it failed.
    let timed_evaluation = |checks: &mut Checks| -> Option<f64> {
        let t0 = Instant::now();
        let report = evaluate(task, kind, &suite, 1);
        let wall = t0.elapsed();
        match report {
            Ok(report) => {
                checks.check(same_report(&report, &reference), || {
                    "a repeated evaluation differs from the reference".into()
                });
                Some(ms(wall) / frames as f64)
            }
            Err(e) => {
                checks.check(false, || format!("evaluation failed: {e}"));
                None
            }
        }
    };

    let mut metrics = Metrics::default();
    if !args.trace {
        let budget = Budget::new(args.seconds, 1.0, 5);
        let mut latencies_us = Vec::new();
        let mut reps = 0usize;
        while budget.more(reps) {
            attempted += cells;
            match timed_evaluation(&mut checks) {
                Some(m) => eval_ms.push(m),
                None => failed += cells,
            }
            let si = reps % suite.len();
            reps += 1;
            attempted += 1;
            match stream_one(task, kind, &suite[si], si as u64, &mut latencies_us) {
                Ok(outcome) => {
                    let expected = &headline(&reference).per_sequence[si];
                    checks.check(same_outcome(&outcome, expected), || {
                        format!("streamed sequence {si} differs from its evaluation")
                    });
                }
                Err(e) => {
                    failed += 1;
                    checks.check(false, || format!("streaming sequence {si} failed: {e}"));
                }
            }
        }
        if eval_ms.is_empty() || latencies_us.is_empty() {
            return RunResult::failed(checks, attempted, failed);
        }
        metrics.set("setup_s", median(&setups));
        metrics.set("ms_per_frame", median(&eval_ms));
        metrics.set(
            "capacity_fps",
            median(&eval_ms.iter().map(|m| 1e3 / m).collect::<Vec<_>>()),
        );
        metrics.set("latency_p50_us", quantile(&latencies_us, 0.5));
        metrics.set("latency_p90_us", quantile(&latencies_us, 0.90));
        metrics.set("accuracy_at_05", accuracy);
        metrics.set("energy_mj_per_frame", energy);
        eprintln!(
            "{}: {} streamed frames; ms/frame per evaluation: {:.3?}",
            args.workload,
            latencies_us.len(),
            eval_ms
        );
    } else {
        // Untraced evaluations alternate with traced passes, so both see
        // the same host conditions; their difference is the overhead.
        let budget = Budget::new(args.seconds, 1.0, 3);
        let mut tr = Tracer::new();
        let mut passes = Vec::new();
        while budget.more(passes.len()) {
            attempted += cells;
            match timed_evaluation(&mut checks) {
                Some(m) => eval_ms.push(m),
                None => failed += cells,
            }
            let from = tr.len();
            let first = passes.is_empty();
            attempted += cells;
            match traced_pass(task, kind, &suite, &mut tr, passes.len() as u64, first) {
                Ok(pass) => {
                    passes.push(pass_metrics(&tr, from, &pass.counts));
                    for (k, per_seq) in pass.outcomes.iter().enumerate() {
                        let want = &reference.schemes[k].per_sequence;
                        checks.check(
                            per_seq.len() == want.len()
                                && per_seq.iter().zip(want).all(|(a, b)| same_outcome(a, b)),
                            || {
                                format!(
                                    "traced scheme {} differs from evaluate",
                                    reference.schemes[k].id
                                )
                            },
                        );
                    }
                    if first {
                        verify_frames(kind, &suite, &pass.frames, &mut checks);
                    }
                }
                Err(e) => {
                    // A failed pass leaves its spans open: stop tracing.
                    failed += cells;
                    checks.check(false, || format!("traced pass failed: {e}"));
                    return RunResult::failed(checks, attempted, failed);
                }
            }
        }
        if eval_ms.is_empty() {
            return RunResult::failed(checks, attempted, failed);
        }
        let untraced_ms = median(&eval_ms);
        metrics = median_of(&passes);
        let ew = headline(&reference);
        let system = ew.system.as_ref().expect("sweeps name a network");
        crate::model_metrics(&mut metrics, &kind.network(), &ew.outcome, system);
        let traced_ms = metrics.get("trace.traced_ms_per_frame").unwrap_or(0.0);
        let covered_ms = metrics.get("trace.covered_ms_per_frame").unwrap_or(0.0);
        metrics.set(
            "trace.overhead_pct",
            (traced_ms - untraced_ms) / untraced_ms * 100.0,
        );
        metrics.set("core.evaluate_residual_ms", untraced_ms - covered_ms);
        eprintln!(
            "{}: {} traced passes; layer spans cover {:.1}% of the traced loop \
             ({covered_ms:.3} of {traced_ms:.3} ms/frame); untraced evaluate {untraced_ms:.3} ms/frame",
            args.workload,
            passes.len(),
            100.0 * covered_ms / traced_ms
        );
        crate::write_trace(args, &tr);
    }

    // Exactness across runs and thread counts, outside the timed region:
    // the recorded seed, evaluated at every available core, must
    // reproduce `golden.txt` (recorded at one thread) bit for bit, and
    // when it is this run's seed, the whole one-thread reference too.
    let nproc = crate::nproc();
    let own = args.seed == crate::RECORDED_SEED;
    let recorded_suite = if own {
        suite
    } else {
        set_up(kind, crate::RECORDED_SEED).0
    };
    set_threads(nproc);
    let wide = evaluate(task, kind, &recorded_suite, nproc);
    set_threads(1);
    match wide {
        Ok(wide) => {
            crate::check_recorded(&mut checks, &args.workload, headline_values(&wide));
            checks.check(!own || same_report(&wide, &reference), || {
                format!("evaluation at {nproc} threads differs from 1 thread")
            });
        }
        Err(e) => checks.check(false, || format!("recorded-seed evaluation failed: {e}")),
    }
    metrics.set("failed_share", failed as f64 / attempted as f64);
    RunResult {
        checks,
        attempted,
        failed,
        metrics,
    }
}

/// Checks the traced pass's rebuilt frames bit for bit against
/// `frame_source` (whose full-ISP path is `IspPipeline::process`).
fn verify_frames(kind: Sweep, suite: &[Sequence], kept: &[Vec<FrameData>], checks: &mut Checks) {
    for (seq, frames) in suite.iter().zip(kept) {
        let source = match frame_source(seq, &kind.motion()) {
            Ok(s) => s,
            Err(e) => {
                checks.check(false, || {
                    format!("frame_source failed on {}: {e}", seq.name)
                });
                continue;
            }
        };
        let mut n = 0usize;
        for (i, want) in source.enumerate() {
            let same = want.as_ref().is_ok_and(|w| {
                frames
                    .get(i)
                    .is_some_and(|got| got.motion == w.motion && got.truth == w.truth)
            });
            checks.check(same, || {
                format!(
                    "{} frame {i}: traced frontend differs from frame_source",
                    seq.name
                )
            });
            n += 1;
        }
        checks.check(n == frames.len(), || {
            format!(
                "{}: traced {} frames, frame_source {n}",
                seq.name,
                frames.len()
            )
        });
    }
}
