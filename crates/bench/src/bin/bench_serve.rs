//! Serving-trajectory recorder for the sharded session server.
//!
//! The paper's deployment target is continuous vision for "millions of
//! users"; `euphrates-serve` is the repo's serving layer (ROADMAP item
//! 1). This binary measures it the way an inference server is measured:
//! a fixed population of concurrent sessions streams pre-prepared
//! frames (ground truth + ISP motion fields — what the ISP ships to the
//! backend) through `SessionServer`, and we record sessions/sec,
//! frames/sec, and the submit→completion latency distribution
//! (p50/p95/p99 from the merged per-worker histograms) at **1 worker**
//! and **4 workers**, each **with and without cross-session NN
//! batching**, writing `BENCH_serve.json` (schema 4).
//!
//! Schema 2 adds the PR-8 quantities: the batched-vs-solo systolic
//! amortization ratio (charged cycles over `jobs ×` the per-inference
//! plan — an op-count ratio, asserted `< 1`, wall-clock-free), the
//! realized batch-size p50/p99, and the parked/woken ingress counters
//! (producers sleep on a capacity gate instead of spin-yielding).
//!
//! Schema 3 adds the overload section: the same serving path under a
//! planned 2× overload (two producer threads, one worker), nominal vs
//! degraded — the degraded run carries an [`SloConfig`] plus a chaos
//! [`PressurePlan`] burst, so the overload controller walks the
//! standard degradation ladder deterministically (widened EW window,
//! cheaper motion search, shedding at the last rung). Reported:
//! nominal vs degraded throughput and queue-wait p99, shed rate, and
//! the inference buy-back. Only counter-derived quantities are
//! asserted (shed counts, rung timeline, inference totals); wall-clock
//! is reported, never asserted.
//!
//! Schema 4 adds the recovery section (PR-10 crash recovery): the same
//! serving path under seeded worker-kill chaos with supervision, over a
//! kill-rate × checkpoint-cadence grid. Each kill costs its worker the
//! session table, which the worker rebuilds in place from checkpoint +
//! replay. Reported per cell: kills landed, sessions resurrected vs
//! drained `Unrecovered`, frames replayed from the write-ahead log, and
//! the deterministic MTTR proxy (worst replay distance, in logical
//! arrival ticks). The fixed replay budget deliberately under-covers the wide
//! cadence, so the grid shows the cadence-vs-replay-memory trade-off:
//! tight checkpoints recover everything with short replays, sparse
//! checkpoints trade replay length for losses.
//!
//! Frames are prepared once up front (a handful of unique mini scenes
//! shared across sessions; oracle streams still differ per session id),
//! so the numbers isolate the serving path — sharding, the gated lanes,
//! the batch collector, and the per-frame I/E schedule — from
//! client-side rendering. A single producer thread submits round-robin
//! across sessions with `submit_blocking` (parked backpressure).
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p euphrates-bench --bin bench_serve [-- --quick] [--out PATH]
//! ```
//!
//! `--quick` (or `EUPHRATES_BENCH_QUICK=1`) shrinks the session
//! population for CI; the JSON notes which mode produced it.

use euphrates_camera::scene::SceneBuilder;
use euphrates_camera::texture::Texture;
use euphrates_common::image::Resolution;
use euphrates_core::prelude::*;
use euphrates_core::prepare_sequence;
use euphrates_nn::oracle::calib;
use euphrates_serve::{
    ChaosConfig, NnBatchConfig, PressurePlan, ServeConfig, SessionServer, SloConfig,
    SuperviseConfig,
};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

const RES: Resolution = Resolution::new(160, 120);
const SCHEME: &str = "EW-4";
const UNIQUE_SCENES: u64 = 8;
const MAX_BATCH: usize = 16;
const MAX_WAIT: Duration = Duration::from_micros(200);

struct Config {
    quick: bool,
    out: String,
}

fn parse_args() -> Config {
    let mut quick = std::env::var("EUPHRATES_BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty());
    let mut out = "BENCH_serve.json".to_string();
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

/// A tiny tracking sequence (160×120, drifting rigid target) — cheap
/// enough that hundreds of sessions fit in one bench run.
fn mini_sequence(i: u64, frames: u32) -> Sequence {
    let seed = 9000 + i;
    let scene = SceneBuilder::new(RES, seed)
        .background(Texture::background_noise(seed ^ 0xB6))
        .object_default()
        .build();
    Sequence {
        name: format!("serve_mini_{i}"),
        attributes: vec![],
        scene,
        frames,
    }
}

struct RunStats {
    wall_ns: u64,
    served: u64,
    p50_ns: u64,
    p95_ns: u64,
    p99_ns: u64,
    mean_ns: u64,
    parked: u64,
    woken: u64,
    /// `None` on unbatched runs.
    nn: Option<NnStats>,
}

struct NnStats {
    jobs: u64,
    batches: u64,
    amortization: f64,
    batch_p50: u64,
    batch_p99: u64,
    mean_batch: f64,
}

/// Streams `sessions` concurrent sessions (interleaved round-robin, one
/// frame per session per round) through a fresh server and reports the
/// merged drain statistics.
fn run_serve(
    workers: usize,
    sessions: u64,
    frames: &[Vec<Arc<FrameData>>],
    batching: bool,
) -> RunStats {
    let mut config = ServeConfig::sized(workers, 64);
    if batching {
        config = config.with_nn_batching(NnBatchConfig {
            network: euphrates_nn::zoo::mdnet(),
            max_batch: MAX_BATCH,
            max_wait: MAX_WAIT,
        });
    }
    let server = SessionServer::new(
        TrackerTask::new(calib::mdnet()),
        vec![SchemeSpec::new(SCHEME, BackendConfig::new(EwPolicy::Constant(4))).expect("valid id")],
        config,
    )
    .expect("valid server config");

    let frames_per_session = frames[0].len();
    let t0 = Instant::now();
    for id in 0..sessions {
        server.open(id, SCHEME, RES).expect("open succeeds");
    }
    // `j` walks frame positions round-robin across sessions; it indexes
    // the *inner* per-scene vectors, which the iterator lint can't see.
    #[allow(clippy::needless_range_loop)]
    for j in 0..frames_per_session {
        for id in 0..sessions {
            let frame = Arc::clone(&frames[(id % UNIQUE_SCENES) as usize][j]);
            server.submit_blocking(id, frame).expect("worker alive");
        }
    }
    for id in 0..sessions {
        server.close(id).expect("close succeeds");
    }
    let report = server.drain();
    let wall_ns = t0.elapsed().as_nanos() as u64;

    assert_eq!(report.sessions() as u64, sessions, "every session reported");
    assert_eq!(report.failed_sessions(), 0, "no session died");
    assert_eq!(report.dropped, 0, "no frame dropped");
    assert_eq!(report.served, sessions * frames_per_session as u64);

    let nn = report.nn.as_ref().map(|nn| {
        // Op-count criterion (1-core container: wall-clock is reported,
        // never asserted): the fused batches cost strictly fewer array
        // cycles than the same jobs priced solo.
        assert!(
            nn.batched_cycles < nn.solo_cycles,
            "batched {} !< solo {}",
            nn.batched_cycles,
            nn.solo_cycles
        );
        NnStats {
            jobs: nn.jobs,
            batches: nn.batches,
            amortization: nn.amortization(),
            batch_p50: nn.batch_sizes.quantile(0.50),
            batch_p99: nn.batch_sizes.quantile(0.99),
            mean_batch: nn.mean_batch(),
        }
    });

    RunStats {
        wall_ns,
        served: report.served,
        p50_ns: report.latency.quantile(0.50),
        p95_ns: report.latency.quantile(0.95),
        p99_ns: report.latency.quantile(0.99),
        mean_ns: report.latency.mean() as u64,
        parked: report.ingress.parked,
        woken: report.ingress.woken,
        nn,
    }
}

/// Overload-section rounds per session: fixed (not shrunk by `--quick`)
/// so the standard ladder's shedding rung is always reached.
const OVERLOAD_ROUNDS: usize = 16;

struct OverloadStats {
    wall_ns: u64,
    frames: u64,
    served: u64,
    shed: u64,
    queue_p99_ns: u64,
    inferences: u64,
    transitions: usize,
    final_rung: usize,
}

/// Streams `sessions` EW-1 sessions through **one** worker from **two**
/// producer threads — a planned 2× overload. The degraded run adds an
/// SLO (4-frame epochs, degrade after one bad epoch) plus a chaos
/// pressure burst, so every session walks the standard ladder on a
/// deterministic schedule: rung 1 before arrival 0, rung 2 at arrival
/// 4, shedding from arrival 8.
fn run_overload(sessions: u64, frames: &[Vec<Arc<FrameData>>], degraded: bool) -> OverloadStats {
    let mut config = ServeConfig::sized(1, 256);
    if degraded {
        let slo = SloConfig::new(Duration::from_millis(1), Duration::from_millis(5))
            .with_epoch(4)
            .with_hysteresis(1, 8);
        let chaos = ChaosConfig::seeded(0xBE7C).with_pressure(PressurePlan::Burst {
            from: 0,
            until: 1_000,
        });
        config = config.with_slo(slo).with_chaos(chaos);
    }
    let server = Arc::new(
        SessionServer::new(
            TrackerTask::new(calib::mdnet()),
            vec![
                SchemeSpec::new("EW-1", BackendConfig::new(EwPolicy::Constant(1)))
                    .expect("valid id"),
            ],
            config,
        )
        .expect("valid server config"),
    );
    let per_session = frames[0].len();
    let t0 = Instant::now();
    for id in 0..sessions {
        server.open(id, "EW-1", RES).expect("open succeeds");
    }
    let producers: Vec<_> = (0..2u64)
        .map(|p| {
            let server = Arc::clone(&server);
            let frames = frames.to_vec();
            std::thread::spawn(move || {
                for j in 0..OVERLOAD_ROUNDS {
                    for id in (p..sessions).step_by(2) {
                        let frame =
                            Arc::clone(&frames[(id % UNIQUE_SCENES) as usize][j % per_session]);
                        server.submit_blocking(id, frame).expect("worker alive");
                    }
                }
            })
        })
        .collect();
    for h in producers {
        h.join().expect("producer survives");
    }
    for id in 0..sessions {
        server.close(id).expect("close succeeds");
    }
    let server = Arc::into_inner(server).expect("producers joined");
    let report = server.drain();
    let wall_ns = t0.elapsed().as_nanos() as u64;

    assert_eq!(report.frames, sessions * OVERLOAD_ROUNDS as u64);
    assert_eq!(report.frames, report.served + report.dropped + report.shed);
    assert_eq!(report.failed_sessions(), 0, "no session died");
    let inferences: u64 = report
        .iter()
        .map(|(_, o)| o.as_ref().expect("healthy session").inferences)
        .sum();
    let (transitions, final_rung) = if degraded {
        // The planned walk, exactly: 8 frames served then 8 shed per
        // session, one surviving I-frame each under the widened window.
        assert_eq!(report.served, sessions * 8);
        assert_eq!(report.shed, sessions * 8);
        assert_eq!(
            inferences, sessions,
            "window widening must buy back inferences"
        );
        let walk = report.degradation.as_ref().expect("slo armed");
        let timeline: Vec<(u64, usize, usize)> = walk
            .timeline
            .iter()
            .map(|t| (t.epoch, t.from, t.to))
            .collect();
        assert_eq!(timeline, vec![(0, 0, 1), (1, 1, 2), (2, 2, 3)]);
        (walk.timeline.len(), walk.final_rung)
    } else {
        assert_eq!(report.served, report.frames);
        assert_eq!(report.shed, 0);
        assert_eq!(inferences, report.frames, "EW-1 infers every frame");
        (0, 0)
    };
    OverloadStats {
        wall_ns,
        frames: report.frames,
        served: report.served,
        shed: report.shed,
        queue_p99_ns: report.queue_wait.quantile(0.99),
        inferences,
        transitions,
        final_rung,
    }
}

/// The recovery grid's fixed replay budget: covers the tight cadence
/// (4) with room to spare, deliberately under-covers the sparse one
/// (16) so the unrecovered band is visible in the numbers.
const REPLAY_BUDGET: u64 = 8;

struct RecoveryStats {
    wall_ns: u64,
    frames: u64,
    served: u64,
    kills: u64,
    resurrected: u64,
    replayed_frames: u64,
    unrecovered: u64,
    mttr_ticks: u64,
}

/// Streams `sessions` sessions through two supervised workers under
/// seeded worker-kill chaos and reports the recovery counters. All
/// asserted quantities are logical (kill draws key on `(session,
/// arrival)`, MTTR is a replay distance) — wall-clock is reported,
/// never asserted.
fn run_recovery(
    sessions: u64,
    frames: &[Vec<Arc<FrameData>>],
    kill_every: u64,
    checkpoint_every: u64,
) -> RecoveryStats {
    let config = ServeConfig::sized(2, 64)
        .with_chaos(ChaosConfig::seeded(0x4EC0).with_worker_kills(kill_every))
        .with_supervision(SuperviseConfig::every(checkpoint_every, REPLAY_BUDGET));
    let server = SessionServer::new(
        TrackerTask::new(calib::mdnet()),
        vec![SchemeSpec::new(SCHEME, BackendConfig::new(EwPolicy::Constant(4))).expect("valid id")],
        config,
    )
    .expect("valid server config");
    let per_session = frames[0].len();
    let t0 = Instant::now();
    for id in 0..sessions {
        server.open(id, SCHEME, RES).expect("open succeeds");
    }
    #[allow(clippy::needless_range_loop)]
    for j in 0..per_session {
        for id in 0..sessions {
            let frame = Arc::clone(&frames[(id % UNIQUE_SCENES) as usize][j]);
            server.submit_blocking(id, frame).expect("worker alive");
        }
    }
    for id in 0..sessions {
        server.close(id).expect("close succeeds");
    }
    let report = server.drain();
    let wall_ns = t0.elapsed().as_nanos() as u64;

    assert_eq!(report.frames, sessions * per_session as u64);
    assert_eq!(report.frames, report.served + report.dropped + report.shed);
    let recovery = report.recovery.clone().expect("supervision armed");
    let kills = report.chaos.expect("chaos armed").kills;
    assert_eq!(kills as usize, recovery.detections());
    assert_eq!(
        report.failure_breakdown().unrecovered as u64,
        recovery.unrecovered,
        "every loss must be a typed Unrecovered outcome"
    );
    if checkpoint_every <= REPLAY_BUDGET + 1 {
        assert_eq!(
            recovery.unrecovered, 0,
            "budget {REPLAY_BUDGET} covers cadence {checkpoint_every}"
        );
    }
    assert!(
        recovery.mttr_ticks() < checkpoint_every,
        "replay distance {} must stay under the cadence {checkpoint_every}",
        recovery.mttr_ticks()
    );
    RecoveryStats {
        wall_ns,
        frames: report.frames,
        served: report.served,
        kills,
        resurrected: recovery.resurrected,
        replayed_frames: recovery.replayed_frames,
        unrecovered: recovery.unrecovered,
        mttr_ticks: recovery.mttr_ticks(),
    }
}

fn main() {
    let cfg = parse_args();
    let sessions: u64 = if cfg.quick { 32 } else { 256 };
    let frames_per_session: u32 = if cfg.quick { 6 } else { 16 };
    println!(
        "bench_serve: {} mode, {sessions} sessions x {frames_per_session} frames",
        if cfg.quick { "quick" } else { "full" }
    );

    // Prepare the frame streams once (client-side rendering + block
    // matching), outside the timed region.
    let motion = MotionConfig::default();
    let frames: Vec<Vec<Arc<FrameData>>> = (0..UNIQUE_SCENES)
        .map(|u| {
            let prep = prepare_sequence(&mini_sequence(u, frames_per_session), &motion)
                .expect("mini sequence prepares");
            prep.frames.into_iter().map(Arc::new).collect()
        })
        .collect();

    let mut metrics: Vec<(String, String)> = vec![
        ("sessions".into(), sessions.to_string()),
        ("frames_per_session".into(), frames_per_session.to_string()),
        ("queue_depth".into(), "64".into()),
        ("max_batch".into(), MAX_BATCH.to_string()),
        ("max_wait_us".into(), MAX_WAIT.as_micros().to_string()),
    ];

    for workers in [1usize, 4] {
        for batching in [false, true] {
            let stats = run_serve(workers, sessions, &frames, batching);
            let tag = if batching { "batched" } else { "unbatched" };
            let key = format!("w{workers}_{tag}");
            let wall_s = stats.wall_ns as f64 / 1e9;
            let sessions_per_sec = sessions as f64 / wall_s;
            let frames_per_sec = stats.served as f64 / wall_s;
            print!(
                "{key}: {sessions_per_sec:.1} sessions/s, {frames_per_sec:.0} frames/s, \
                 p50 {:.3} ms, p99 {:.3} ms, {} parked / {} woken",
                stats.p50_ns as f64 / 1e6,
                stats.p99_ns as f64 / 1e6,
                stats.parked,
                stats.woken,
            );
            if let Some(nn) = &stats.nn {
                print!(
                    ", amortization {:.3} over {} batches (mean {:.1})",
                    nn.amortization, nn.batches, nn.mean_batch
                );
            }
            println!();
            metrics.push((format!("{key}_wall_ns"), stats.wall_ns.to_string()));
            metrics.push((
                format!("{key}_sessions_per_sec"),
                format!("{sessions_per_sec:.2}"),
            ));
            metrics.push((
                format!("{key}_frames_per_sec"),
                format!("{frames_per_sec:.1}"),
            ));
            metrics.push((format!("{key}_latency_p50_ns"), stats.p50_ns.to_string()));
            metrics.push((format!("{key}_latency_p95_ns"), stats.p95_ns.to_string()));
            metrics.push((format!("{key}_latency_p99_ns"), stats.p99_ns.to_string()));
            metrics.push((format!("{key}_latency_mean_ns"), stats.mean_ns.to_string()));
            metrics.push((format!("{key}_parked"), stats.parked.to_string()));
            metrics.push((format!("{key}_woken"), stats.woken.to_string()));
            if let Some(nn) = &stats.nn {
                metrics.push((format!("{key}_nn_jobs"), nn.jobs.to_string()));
                metrics.push((format!("{key}_nn_batches"), nn.batches.to_string()));
                metrics.push((
                    format!("{key}_amortization"),
                    format!("{:.4}", nn.amortization),
                ));
                metrics.push((format!("{key}_batch_p50"), nn.batch_p50.to_string()));
                metrics.push((format!("{key}_batch_p99"), nn.batch_p99.to_string()));
                metrics.push((format!("{key}_batch_mean"), format!("{:.2}", nn.mean_batch)));
            }
        }
    }

    // Overload section (schema 3): 2× overload into one worker,
    // nominal vs SLO-degraded.
    let overload_sessions: u64 = if cfg.quick { 16 } else { 64 };
    metrics.push(("overload_sessions".into(), overload_sessions.to_string()));
    metrics.push(("overload_rounds".into(), OVERLOAD_ROUNDS.to_string()));
    for degraded in [false, true] {
        let stats = run_overload(overload_sessions, &frames, degraded);
        let key = if degraded {
            "overload_degraded"
        } else {
            "overload_nominal"
        };
        let wall_s = stats.wall_ns as f64 / 1e9;
        let frames_per_sec = stats.served as f64 / wall_s;
        let shed_rate = stats.shed as f64 / stats.frames as f64;
        println!(
            "{key}: {frames_per_sec:.0} served frames/s, queue-wait p99 {:.3} ms, \
             shed rate {shed_rate:.2}, {} inferences, {} rung transitions",
            stats.queue_p99_ns as f64 / 1e6,
            stats.inferences,
            stats.transitions,
        );
        metrics.push((format!("{key}_wall_ns"), stats.wall_ns.to_string()));
        metrics.push((
            format!("{key}_frames_per_sec"),
            format!("{frames_per_sec:.1}"),
        ));
        metrics.push((
            format!("{key}_queue_wait_p99_ns"),
            stats.queue_p99_ns.to_string(),
        ));
        metrics.push((format!("{key}_served"), stats.served.to_string()));
        metrics.push((format!("{key}_shed"), stats.shed.to_string()));
        metrics.push((format!("{key}_shed_rate"), format!("{shed_rate:.4}")));
        metrics.push((format!("{key}_inferences"), stats.inferences.to_string()));
        metrics.push((
            format!("{key}_rung_transitions"),
            stats.transitions.to_string(),
        ));
        metrics.push((format!("{key}_final_rung"), stats.final_rung.to_string()));
    }

    // Recovery section (schema 4): kill rate × checkpoint cadence under
    // supervision, fixed replay budget.
    let recovery_sessions: u64 = if cfg.quick { 16 } else { 64 };
    metrics.push(("recovery_sessions".into(), recovery_sessions.to_string()));
    metrics.push(("recovery_replay_budget".into(), REPLAY_BUDGET.to_string()));
    for kill_every in [64u64, 16] {
        for checkpoint_every in [4u64, 16] {
            let stats = run_recovery(recovery_sessions, &frames, kill_every, checkpoint_every);
            let key = format!("recovery_k{kill_every}_c{checkpoint_every}");
            let wall_s = stats.wall_ns as f64 / 1e9;
            let frames_per_sec = stats.served as f64 / wall_s;
            println!(
                "{key}: {frames_per_sec:.0} served frames/s, {} kills, \
                 {} resurrected, {} unrecovered, {} replayed, mttr {} ticks",
                stats.kills,
                stats.resurrected,
                stats.unrecovered,
                stats.replayed_frames,
                stats.mttr_ticks,
            );
            metrics.push((format!("{key}_wall_ns"), stats.wall_ns.to_string()));
            metrics.push((
                format!("{key}_frames_per_sec"),
                format!("{frames_per_sec:.1}"),
            ));
            metrics.push((format!("{key}_frames"), stats.frames.to_string()));
            metrics.push((format!("{key}_served"), stats.served.to_string()));
            metrics.push((format!("{key}_kills"), stats.kills.to_string()));
            metrics.push((format!("{key}_resurrected"), stats.resurrected.to_string()));
            metrics.push((
                format!("{key}_replayed_frames"),
                stats.replayed_frames.to_string(),
            ));
            metrics.push((format!("{key}_unrecovered"), stats.unrecovered.to_string()));
            metrics.push((format!("{key}_mttr_ticks"), stats.mttr_ticks.to_string()));
        }
    }

    // Render the JSON by hand (no serde in the tree).
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"schema\": 4,");
    let _ = writeln!(json, "  \"bench\": \"serve_sessions\",");
    let _ = writeln!(json, "  \"quick\": {},", cfg.quick);
    let _ = writeln!(
        json,
        "  \"machine\": {{ \"os\": \"{}\", \"arch\": \"{}\", \"threads\": {} }},",
        std::env::consts::OS,
        std::env::consts::ARCH,
        threads
    );
    json.push_str("  \"metrics\": {\n");
    for (i, (name, value)) in metrics.iter().enumerate() {
        let comma = if i + 1 == metrics.len() { "" } else { "," };
        let _ = writeln!(json, "    \"{name}\": {value}{comma}");
    }
    json.push_str("  }\n}\n");

    std::fs::write(&cfg.out, &json).expect("writable output path");
    println!("wrote {}", cfg.out);
}
