//! `serve_open_loop`: one `SessionServer` worker with cross-session NN
//! batching, fed prepared VGA frames of OTB-like sequences by one
//! generator thread.
//!
//! * Phase A (closed loop, capacity): rounds of `SESSIONS` EW-4 sessions;
//!   one producer submits every frame with `submit_blocking`, so the
//!   worker is never idle for lack of work. Served frames per second is
//!   the capacity.
//! * Phase B (open loop, latency): windows of `WINDOW_S` seconds, each
//!   on a fresh server. The generator offers frame `k` at `k / RATE`
//!   seconds with `try_submit`, whatever the server's state; a refused
//!   frame is a failure. `LIVE` sessions stream at once, each for its
//!   sequence's frames, then closes and a new session takes its slot.
//!
//! Frames are prepared once, in set-up, so the frontend is bypassed:
//! `push_frame`, the lanes and the batch collector do all the work.
//! After the timed phases, every drained session is replayed through a
//! standalone `Session` fed the frames it accepted, and must match the
//! server's outcome bit for bit.

use crate::report::{interquartile_mean, median, median_of, Checks, Metrics};
use crate::trace::Tracer;
use crate::{ms, same_outcome, set_threads, Budget, RunArgs, RunResult};
use euphrates_common::image::Resolution;
use euphrates_common::stats::LatencyHistogram;
use euphrates_core::prelude::*;
use euphrates_nn::oracle::calib;
use euphrates_serve::{DrainReport, NnBatchConfig, ServeConfig, SessionServer, Submit};
use euphrates_soc::energy::SchemeReport;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SCHEME: &str = "EW-4";
/// Sessions per closed-loop round.
const SESSIONS: u64 = 256;
/// Concurrently streaming sessions in the open loop.
const LIVE: u64 = 64;
/// Offered rate of the open loop, frames per second.
const RATE: f64 = 40_000.0;
/// Length of one open-loop window.
const WINDOW_S: f64 = 0.25;
/// Lane bound, in messages: deep enough for a whole closed-loop round
/// (opens, frames, closes), so the capacity producer never parks and the
/// worker never waits on a wake-up while work is pending.
const QUEUE_DEPTH: usize = 8192;

type Frames = Vec<Vec<Arc<FrameData>>>;

fn backend() -> BackendConfig {
    BackendConfig::new(EwPolicy::Constant(4))
}

fn task() -> TrackerTask {
    TrackerTask::new(calib::mdnet())
}

fn server(workers: usize) -> SessionServer<TrackerTask> {
    let config = ServeConfig::sized(workers, QUEUE_DEPTH).with_nn_batching(NnBatchConfig {
        network: euphrates_nn::zoo::mdnet(),
        max_batch: 16,
        max_wait: Duration::from_micros(200),
    });
    let spec = SchemeSpec::new(SCHEME, backend()).expect("valid scheme id");
    SessionServer::new(task(), vec![spec], config).expect("valid server config")
}

/// Generates and prepares the serving suite (the `otb_sweep` suite:
/// 10 sequences × 30 VGA frames), rendered and block-matched once.
fn set_up(seed: u64) -> (Frames, f64) {
    let t0 = Instant::now();
    let suite = euphrates_datasets::otb100_like(seed, DatasetScale::fraction(0.05));
    let frames = suite
        .iter()
        .map(|seq| {
            prepare_sequence(seq, &MotionConfig::default())
                .expect("serving sequences prepare")
                .frames
                .into_iter()
                .map(Arc::new)
                .collect()
        })
        .collect();
    (frames, t0.elapsed().as_secs_f64())
}

/// The closed loop's merged outcome and its modelled SoC report.
fn headline(served: &BTreeMap<u64, TaskOutcome>) -> (TaskOutcome, SchemeReport) {
    let mut merged = TaskOutcome::default();
    for o in served.values() {
        merged.merge(o);
    }
    let system = SystemModel::table1()
        .evaluate(
            &euphrates_nn::zoo::mdnet(),
            merged.mean_window(),
            ExtrapolationExecutor::MotionController,
        )
        .expect("EW-4 window is valid");
    (merged, system)
}

fn frames_of(frames: &Frames, id: u64) -> &[Arc<FrameData>] {
    &frames[(id % frames.len() as u64) as usize]
}

/// Per-session outcomes of a drain; a failed session is a check
/// failure and is left out.
fn outcomes(report: &DrainReport, checks: &mut Checks) -> BTreeMap<u64, TaskOutcome> {
    let mut out = BTreeMap::new();
    for (id, outcome) in report.iter() {
        match outcome {
            Ok(o) => {
                out.insert(*id, o.clone());
            }
            Err(e) => checks.check(false, || format!("session {id} failed: {e}")),
        }
    }
    out
}

struct Round {
    wall: Duration,
    report: DrainReport,
}

/// One closed-loop round on a fresh server.
fn closed_round(workers: usize, frames: &Frames) -> Round {
    let server = server(workers);
    let per_session = frames[0].len();
    let t0 = Instant::now();
    for id in 0..SESSIONS {
        server
            .open(id, SCHEME, Resolution::VGA)
            .expect("scheme registered");
    }
    for j in 0..per_session {
        for id in 0..SESSIONS {
            let frame = Arc::clone(&frames_of(frames, id)[j]);
            server.submit_blocking(id, frame).expect("worker alive");
        }
    }
    for id in 0..SESSIONS {
        server.close(id).expect("worker alive");
    }
    let report = server.drain();
    Round {
        wall: t0.elapsed(),
        report,
    }
}

/// Frames offered per open-loop window.
const OFFERED: u64 = (RATE * WINDOW_S) as u64;

/// One open-loop window: what the generator offered and what the server
/// reported.
struct Window {
    report: DrainReport,
    /// `(session, frame index)` of every refused frame.
    refused: Vec<(u64, usize)>,
    /// Generator lateness against the schedule, nanoseconds.
    lag: LatencyHistogram,
}

/// The session and frame index of offer `k`: `LIVE` lanes take offers in
/// turn, and each lane runs one session after another (ids above the
/// closed loop's, so no id is reused within a process).
fn schedule(k: u64, per_session: u64) -> (u64, usize) {
    let (round, lane) = (k / LIVE, k % LIVE);
    let id = SESSIONS + (round / per_session) * LIVE + lane;
    (id, (round % per_session) as usize)
}

fn open_window(frames: &Frames) -> Window {
    let server = server(1);
    let per_session = frames[0].len() as u64;
    let mut refused = Vec::new();
    let mut lag = LatencyHistogram::new();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut open = [None; LIVE as usize];
            let start = Instant::now();
            for k in 0..OFFERED {
                let due = start + Duration::from_secs_f64(k as f64 / RATE);
                let mut now = Instant::now();
                while now < due {
                    std::hint::spin_loop();
                    now = Instant::now();
                }
                lag.record((now - due).as_nanos() as u64);
                let (id, j) = schedule(k, per_session);
                let lane = &mut open[(k % LIVE) as usize];
                if j == 0 {
                    server
                        .open(id, SCHEME, Resolution::VGA)
                        .expect("scheme registered");
                    *lane = Some(id);
                }
                let frame = Arc::clone(&frames_of(frames, id)[j]);
                if let Submit::Busy(_) = server.try_submit(id, frame) {
                    refused.push((id, j));
                }
                if j as u64 + 1 == per_session {
                    server.close(id).expect("worker alive");
                    *lane = None;
                }
            }
            // Close the sessions the window cut short.
            for id in open.into_iter().flatten() {
                server.close(id).expect("worker alive");
            }
        });
    });
    Window {
        report: server.drain(),
        refused,
        lag,
    }
}

/// The frames each session of a window accepted, in order.
fn accepted(w: &Window, per_session: u64) -> BTreeMap<u64, Vec<usize>> {
    let mut out: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for k in 0..OFFERED {
        let (id, j) = schedule(k, per_session);
        if !w.refused.contains(&(id, j)) {
            out.entry(id).or_default().push(j);
        }
    }
    out
}

/// Replays one session through a standalone `Session`, optionally
/// tracing each `push_frame`.
fn replay(
    id: u64,
    frames: &[Arc<FrameData>],
    indices: &[usize],
    mut tr: Option<&mut Tracer>,
    rois: &mut u64,
) -> euphrates_common::Result<TaskOutcome> {
    let mut session = Session::new(task(), backend(), Resolution::VGA, id)?;
    for &j in indices {
        let decision = match tr.as_deref_mut() {
            Some(tr) => {
                let span = tr.begin("core.push_frame", id);
                let d = session.push_frame(&frames[j]);
                let layer = match &d {
                    Ok(d) if d.is_inference() => "core.infer",
                    _ => "core.extrapolate",
                };
                tr.end_as(span, layer);
                d?
            }
            None => session.push_frame(&frames[j])?,
        };
        *rois += u64::from(decision.rois);
    }
    Ok(session.finish())
}

/// Replays every session of a closed-loop round and compares outcomes;
/// returns the replay's wall time.
fn replay_round(
    frames: &Frames,
    served: &BTreeMap<u64, TaskOutcome>,
    tr: Option<&mut Tracer>,
    rois: &mut u64,
    checks: &mut Checks,
) -> Duration {
    let all: Vec<usize> = (0..frames[0].len()).collect();
    let mut tr = tr;
    let t0 = Instant::now();
    let root = tr.as_deref_mut().map(|t| t.begin("core.evaluate", 0));
    for (id, want) in served {
        let got = replay(*id, frames_of(frames, *id), &all, tr.as_deref_mut(), rois);
        checks.check(got.is_ok_and(|g| same_outcome(&g, want)), || {
            format!("closed-loop session {id} differs from its standalone replay")
        });
    }
    if let (Some(tr), Some(root)) = (tr, root) {
        tr.end(root);
    }
    t0.elapsed()
}

fn accounting(w: &Window, checks: &mut Checks) -> u64 {
    let r = &w.report;
    let refused = w.refused.len() as u64;
    checks.check(r.frames == r.served + r.dropped + r.shed, || {
        format!(
            "worker accounting: {} received != {} served + {} dropped + {} shed",
            r.frames, r.served, r.dropped, r.shed
        )
    });
    checks.check(OFFERED == r.frames + refused, || {
        format!(
            "offered {OFFERED} != {} received + {refused} refused",
            r.frames
        )
    });
    checks.check(r.ingress.busy_rejections == refused, || {
        format!(
            "server counted {} rejections, generator {refused}",
            r.ingress.busy_rejections
        )
    });
    refused + r.dropped + r.shed
}

/// A latency quantile over every offered frame, counting refused frames
/// as slower than any served one: the served histogram's quantile at
/// the matching rank, or its maximum once the refused tail reaches the
/// rank.
fn offered_quantile(w: &Window, q: f64) -> f64 {
    let served = w.report.latency.count();
    let rank = q * OFFERED as f64;
    let q_served = (rank / served as f64).min(1.0);
    w.report.latency.quantile(q_served) as f64
}

pub fn run(args: &RunArgs) -> RunResult {
    let mut checks = Checks::default();
    set_threads(1);
    let mut setups = Vec::new();
    let mut frames = Frames::new();
    for k in 0..crate::SETUP_REPEATS {
        let (f, secs) = set_up(crate::setup_seed(args.seed, k));
        setups.push(secs);
        if k == 0 {
            frames = f;
        }
    }
    let per_session = frames[0].len() as u64;
    let mut attempted = 0u64;
    let mut failed = 0u64;

    // Phase A: closed loop.
    let share_a = if args.trace { 0.2 } else { 0.35 };
    let budget = Budget::new(args.seconds, share_a, 5);
    let mut rounds: Vec<Round> = Vec::new();
    while budget.more(rounds.len()) {
        rounds.push(closed_round(1, &frames));
    }
    let mut reference = BTreeMap::new();
    let mut frame_ms = Vec::new();
    let mut parked = Vec::new();
    for (i, round) in rounds.iter().enumerate() {
        let r = &round.report;
        let want = SESSIONS * per_session;
        attempted += want;
        failed += want - r.served;
        checks.check(r.frames == want && r.served == want, || {
            format!("closed round {i}: served {} of {want}", r.served)
        });
        let got = outcomes(r, &mut checks);
        if i == 0 {
            reference = got;
        } else {
            checks.check(
                got.len() == reference.len()
                    && got
                        .iter()
                        .zip(&reference)
                        .all(|((a, x), (b, y))| a == b && same_outcome(x, y)),
                || format!("closed round {i} differs from round 0"),
            );
        }
        frame_ms.push(ms(round.wall) / r.served.max(1) as f64);
        parked.push(r.ingress.parked as f64);
    }

    // Phase B: open loop.
    let share_b = if args.trace { 0.5 } else { 0.65 };
    let windows_n = ((args.seconds * share_b / WINDOW_S).floor() as usize).max(3);
    let windows: Vec<Window> = (0..windows_n).map(|_| open_window(&frames)).collect();

    let mut p50 = Vec::new();
    let mut p90 = Vec::new();
    let mut p99 = Vec::new();
    let mut layer = Vec::new();
    let mut samples = 0u64;
    let mut busy_rejections = 0u64;
    for w in &windows {
        attempted += OFFERED;
        failed += accounting(w, &mut checks);
        p50.push(offered_quantile(w, 0.50) / 1e3);
        p90.push(offered_quantile(w, 0.90) / 1e3);
        p99.push(offered_quantile(w, 0.99) / 1e3);
        samples += w.report.latency.count();
        busy_rejections += w.report.ingress.busy_rejections;
        let worker = &w.report.per_worker[0];
        let mut m = Metrics::default();
        m.set(
            "serve.queue_wait_p50_us",
            w.report.queue_wait.quantile(0.5) as f64 / 1e3,
        );
        m.set(
            "serve.queue_wait_p99_us",
            w.report.queue_wait.quantile(0.99) as f64 / 1e3,
        );
        m.set("serve.occupancy", worker.occupancy());
        m.set(
            "serve.busy_us_per_frame",
            worker.busy_ns as f64 / 1e3 / worker.frames.max(1) as f64,
        );
        if let Some(nn) = &w.report.nn {
            m.set("serve.batch_mean", nn.mean_batch());
            m.set("serve.amortization", nn.amortization());
        }
        m.set(
            "serve.generator_lag_p99_us",
            w.lag.quantile(0.99) as f64 / 1e3,
        );
        layer.push(m);
    }

    // Replays, outside the timed phases: every open-loop session against
    // the frames it accepted, and every closed-loop session of round 0.
    let mut rois = 0u64;
    for w in &windows {
        let served = outcomes(&w.report, &mut checks);
        let offered = accepted(w, per_session);
        checks.check(served.len() == offered.len(), || {
            format!(
                "{} sessions drained, {} opened",
                served.len(),
                offered.len()
            )
        });
        for (id, want) in served {
            let indices = offered.get(&id).map_or(&[][..], Vec::as_slice);
            let got = replay(id, frames_of(&frames, id), indices, None, &mut rois);
            checks.check(got.is_ok_and(|g| same_outcome(&g, &want)), || {
                format!("open-loop session {id} differs from its standalone replay")
            });
        }
    }
    let replay_frames = (reference.len() as u64 * per_session) as f64;
    let untraced_replay = replay_round(&frames, &reference, None, &mut 0, &mut checks);

    // Thread-count invariance: the same round on one worker per core.
    let nproc = crate::nproc();
    let wide = closed_round(nproc, &frames);
    let wide = outcomes(&wide.report, &mut checks);
    checks.check(
        wide.len() == reference.len()
            && wide
                .iter()
                .zip(&reference)
                .all(|((a, x), (b, y))| a == b && same_outcome(x, y)),
        || format!("closed round on {nproc} workers differs from 1 worker"),
    );

    let (merged, system) = headline(&reference);
    let accuracy = crate::accuracy_at_05(&merged);
    let energy = system.energy_per_frame().0;
    let recorded = if args.seed == crate::RECORDED_SEED {
        (accuracy, energy)
    } else {
        let (frames, _) = set_up(crate::RECORDED_SEED);
        let (merged, system) =
            headline(&outcomes(&closed_round(nproc, &frames).report, &mut checks));
        (crate::accuracy_at_05(&merged), system.energy_per_frame().0)
    };
    crate::check_recorded(&mut checks, &args.workload, recorded);

    let mut metrics = Metrics::default();
    if !args.trace {
        metrics.set("setup_s", median(&setups));
        metrics.set("ms_per_frame", median(&frame_ms));
        metrics.set(
            "capacity_fps",
            median(&frame_ms.iter().map(|m| 1e3 / m).collect::<Vec<_>>()),
        );
        metrics.set("latency_p50_us", interquartile_mean(&p50));
        metrics.set("latency_p90_us", interquartile_mean(&p90));
        metrics.set("accuracy_at_05", accuracy);
        metrics.set("energy_mj_per_frame", energy);
    } else {
        metrics = median_of(&layer);
        let mut tr = Tracer::new();
        let mut traced_rois = 0u64;
        let traced = replay_round(
            &frames,
            &reference,
            Some(&mut tr),
            &mut traced_rois,
            &mut checks,
        );
        let totals = tr.totals_since(0);
        let per_frame_us = |name: &str| {
            totals
                .get(name)
                .map_or(0.0, |t| t.self_ns as f64 / 1e3 / replay_frames)
        };
        metrics.set("core.infer_us", per_frame_us("core.infer"));
        metrics.set("core.extrapolate_us", per_frame_us("core.extrapolate"));
        let root = totals["core.evaluate"];
        let covered_ms = (root.total_ns - root.self_ns) as f64 / 1e6 / replay_frames;
        metrics.set(
            "core.evaluate_residual_ms",
            ms(untraced_replay) / replay_frames - covered_ms,
        );
        metrics.set("core.rois_per_frame", traced_rois as f64 / replay_frames);
        metrics.set("trace.traced_ms_per_frame", ms(traced) / replay_frames);
        metrics.set("trace.covered_ms_per_frame", covered_ms);
        metrics.set(
            "trace.overhead_pct",
            (traced.as_secs_f64() / untraced_replay.as_secs_f64() - 1.0) * 100.0,
        );
        metrics.set("serve.parked", median(&parked));
        metrics.set("serve.busy_rejections", busy_rejections as f64);
        metrics.set("serve.latency_samples", samples as f64);
        metrics.set("serve.latency_p99_us", interquartile_mean(&p99));
        crate::model_metrics(&mut metrics, &euphrates_nn::zoo::mdnet(), &merged, &system);
        crate::write_trace(args, &tr);
    }
    eprintln!(
        "serve_open_loop: {} closed rounds, {} open windows at {RATE} frames/s, \
         {samples} latency samples, {} refused",
        rounds.len(),
        windows.len(),
        windows.iter().map(|w| w.refused.len()).sum::<usize>()
    );
    metrics.set("failed_share", failed as f64 / attempted as f64);
    RunResult {
        checks,
        attempted,
        failed,
        metrics,
    }
}
