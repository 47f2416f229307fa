//! The supervision suite: crash recovery under deterministic fault
//! injection. The invariants:
//!
//! * worker kills are survivable — every killed worker is detected,
//!   respawned, and its sessions resurrect from checkpoint + replay to
//!   the *bit-identical* outcome a fault-free run produces;
//! * the replay budget is a hard, typed boundary — a session whose
//!   write-ahead log outgrew it drains as
//!   [`FailureKind::Unrecovered`] with the exact arithmetic in the
//!   error, never as a silently-wrong outcome;
//! * recovery timelines are logical — incidents carry arrival ticks and
//!   replay distances, identical at 1 and 4 workers, never wall-clock;
//! * wedged workers (heartbeat frozen mid-message) are deposed and
//!   respawned without losing a single frame;
//! * freeze/thaw round-trips hundreds of concurrent sessions
//!   bit-identically, including across a worker-count change.

use euphrates_camera::scene::SceneBuilder;
use euphrates_camera::texture::Texture;
use euphrates_common::image::Resolution;
use euphrates_core::prelude::*;
use euphrates_isp::motion::MotionField;
use euphrates_nn::oracle::calib;
use euphrates_serve::{
    ChaosConfig, DrainReport, FailureKind, IncidentKind, RecoveryReport, ServeConfig,
    SessionServer, SuperviseConfig,
};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

const RES: Resolution = Resolution::new(80, 60);

fn frame_at(res: Resolution) -> Arc<FrameData> {
    Arc::new(FrameData::new(
        vec![],
        MotionField::zeroed(res, 16, 7).expect("valid field"),
    ))
}

/// A deterministic no-op task: every fault in these tests comes from
/// the chaos plan, never from the tenant.
#[derive(Debug, Clone)]
struct CalmTask;

impl VisionTask for CalmTask {
    type State = ();

    fn name(&self) -> &'static str {
        "calm"
    }

    fn init(
        &self,
        _resolution: Resolution,
        _first: &FrameData,
        _config: &BackendConfig,
        _stream: u64,
    ) -> euphrates_common::Result<()> {
        Ok(())
    }

    fn infer(&self, _ctx: &FrameContext, _state: &mut (), _outcome: &mut TaskOutcome) -> StepStats {
        StepStats::default()
    }

    fn extrapolate(
        &self,
        _ctx: &FrameContext,
        _state: &mut (),
        _outcome: &mut TaskOutcome,
    ) -> StepStats {
        StepStats::default()
    }

    fn score(&self, _ctx: &FrameContext, _state: &(), _outcome: &mut TaskOutcome) {}
}

const SESSIONS: u64 = 8;
const FRAMES: u64 = 24;

/// Round-robin single-producer run: per-session arrival order is fixed,
/// so every kill draw is a pure function of `(id, arrival)` and the
/// recovery timeline must be identical at any worker count.
fn calm_run(workers: usize, config: ServeConfig) -> DrainReport {
    let server = SessionServer::new(
        CalmTask,
        vec![SchemeSpec::new("ew4", BackendConfig::new(EwPolicy::Constant(4))).unwrap()],
        config.clone(),
    )
    .unwrap();
    assert_eq!(config.workers, workers);
    for id in 0..SESSIONS {
        server.open(id, "ew4", RES).unwrap();
    }
    for _ in 0..FRAMES {
        for id in 0..SESSIONS {
            server.submit_blocking(id, frame_at(RES)).unwrap();
        }
    }
    for id in 0..SESSIONS {
        server.close(id).unwrap();
    }
    server.drain()
}

fn outcome_map(report: &DrainReport) -> BTreeMap<u64, String> {
    report
        .iter()
        .map(|(id, outcome)| (*id, format!("{outcome:?}")))
        .collect()
}

fn assert_exact_accounting(report: &DrainReport) {
    assert_eq!(
        report.frames,
        report.served + report.dropped + report.shed,
        "served/dropped/shed do not partition the intake"
    );
}

// ---------------------------------------------------------------------------
// Kills with a covering replay budget: every session recovers
// bit-identically, and the recovery timeline is worker-count invariant.
// ---------------------------------------------------------------------------

fn killed_config(workers: usize) -> ServeConfig {
    ServeConfig::sized(workers, 64)
        .with_chaos(ChaosConfig::seeded(21).with_worker_kills(5))
        .with_supervision(
            // Budget 16 >= checkpoint cadence 4: every kill is within
            // replay distance, nothing may drain Unrecovered.
            SuperviseConfig::every(4, 16).with_watchdog(Duration::from_millis(1), 4),
        )
}

#[test]
fn worker_kills_recover_bit_identically_across_worker_counts() {
    let baseline = calm_run(1, ServeConfig::sized(1, 64));
    let one = calm_run(1, killed_config(1));
    let four = calm_run(4, killed_config(4));

    for report in [&baseline, &one, &four] {
        assert_eq!(report.frames, SESSIONS * FRAMES);
        assert_exact_accounting(report);
    }
    assert!(
        baseline.recovery.is_none(),
        "unsupervised run has no report"
    );

    let want = outcome_map(&baseline);
    assert_eq!(
        outcome_map(&one),
        want,
        "1-worker recovery diverged from the fault-free run"
    );
    assert_eq!(
        outcome_map(&four),
        want,
        "4-worker recovery diverged from the fault-free run"
    );

    let r1 = one.recovery.clone().expect("supervised run reports");
    let r4 = four.recovery.clone().expect("supervised run reports");
    assert_eq!(
        r1.incidents, r4.incidents,
        "recovery timelines diverged across worker counts (logical ticks must not \
         depend on thread scheduling)"
    );
    assert_eq!((r1.respawns, r1.unrecovered), (r4.respawns, r4.unrecovered));
    assert_eq!(r1.mttr_ticks(), r4.mttr_ticks());
    assert!(r1.detections() > 0, "seed 21 must land kills: {r1:?}");
    assert_eq!(r1.respawns as usize, r1.detections());
    assert_eq!(r1.unrecovered, 0, "budget 16 covers cadence 4: {r1:?}");
    // Collateral-rebuild counters are placement-dependent: a 1-worker
    // death rebuilds all 8 sessions, a 4-worker death only its shard.
    assert!(r1.resurrected > r4.resurrected);
    assert!(r1.replayed_frames > r4.replayed_frames);
    assert!(r4.resurrected > 0, "kills resurrect sessions");
    assert!(
        r1.mttr_ticks() < 4,
        "replay distance must stay under the checkpoint cadence: {r1:?}"
    );
    for incident in &r1.incidents {
        assert_eq!(incident.kind, IncidentKind::WorkerKill);
        assert!(incident.recovered, "covered kill marked lost: {incident:?}");
        assert_eq!(
            incident.replay_lag,
            incident.tick % 4,
            "replay lag must be the arrival's distance to its checkpoint: {incident:?}"
        );
    }
    let kills = one.chaos.as_ref().expect("chaos armed").kills;
    assert_eq!(kills as usize, r1.detections());
    assert_eq!(four.chaos.as_ref().expect("chaos armed").kills, kills);
}

// ---------------------------------------------------------------------------
// Kills past the replay budget: the session drains as Unrecovered with
// the exact arithmetic in the reason — never as a wrong answer.
// ---------------------------------------------------------------------------

fn starved_config(workers: usize) -> ServeConfig {
    ServeConfig::sized(workers, 64)
        .with_chaos(ChaosConfig::seeded(21).with_worker_kills(5))
        .with_supervision(
            // Budget 2 under-covers cadence 8: kills at lag 3..=7 are
            // deliberately unrecoverable.
            SuperviseConfig::every(8, 2).with_watchdog(Duration::from_millis(1), 4),
        )
}

#[test]
fn over_budget_kills_drain_unrecovered_with_exact_reason() {
    let baseline = calm_run(1, ServeConfig::sized(1, 64));
    let one = calm_run(1, starved_config(1));
    let four = calm_run(4, starved_config(4));
    assert_exact_accounting(&one);
    assert_exact_accounting(&four);

    // In the under-budget regime the timeline itself is placement-
    // dependent: a dead session draws no further kills, and which
    // sessions died collaterally depends on who shared the worker. At 1
    // worker the first over-budget kill strands every session, so its
    // timeline is a prefix of the 4-worker one (deterministic for this
    // seed) — and where both have incidents, they agree tick-for-tick.
    let r1 = one.recovery.clone().expect("supervised run reports");
    let r4 = four.recovery.clone().expect("supervised run reports");
    assert!(
        r4.incidents.starts_with(&r1.incidents),
        "shared timeline prefix diverged:\n 1 worker: {:?}\n 4 workers: {:?}",
        r1.incidents,
        r4.incidents
    );
    assert!(!r1.incidents.is_empty());

    // Every session — at both worker counts — either matches the
    // fault-free run bit-for-bit or is a typed Unrecovered with the
    // budget arithmetic spelled out.
    let want = outcome_map(&baseline);
    for (report, recovery) in [(&one, &r1), (&four, &r4)] {
        assert!(
            recovery.unrecovered > 0,
            "budget 2 under cadence 8 with kills every ~5 must strand sessions: {recovery:?}"
        );
        assert_eq!(
            report.failure_breakdown().unrecovered as u64,
            recovery.unrecovered,
            "breakdown and recovery report disagree"
        );
        let mut unrecovered = 0u64;
        for (id, outcome) in report.iter() {
            match report.failure_kind(*id) {
                Some(FailureKind::Unrecovered) => {
                    unrecovered += 1;
                    let text = outcome.as_ref().unwrap_err().to_string();
                    assert!(
                        text.contains("over the replay budget of 2"),
                        "session {id}: reason lacks the budget arithmetic: {text}"
                    );
                }
                _ => assert_eq!(
                    format!("{outcome:?}"),
                    want[id],
                    "recovered session {id} diverged from the fault-free run"
                ),
            }
        }
        assert_eq!(unrecovered, recovery.unrecovered);
    }
    // Lost triggering sessions are flagged in the timeline too, and the
    // flag is exactly the budget comparison.
    assert!(r1.incidents.iter().any(|i| !i.recovered));
    for incident in &r1.incidents {
        assert_eq!(incident.recovered, incident.replay_lag <= 2, "{incident:?}");
    }
}

// ---------------------------------------------------------------------------
// Wedge: a worker whose heartbeat freezes mid-message is deposed and
// respawned; the in-flight frame is redelivered, so nothing is lost.
// ---------------------------------------------------------------------------

#[test]
fn wedged_worker_is_deposed_and_respawned_without_frame_loss() {
    let baseline = calm_run(1, ServeConfig::sized(1, 64));
    let config = ServeConfig::sized(1, 64)
        .with_chaos(ChaosConfig::seeded(9).with_wedges(40, Duration::from_millis(20)))
        .with_supervision(SuperviseConfig::every(4, 16).with_watchdog(Duration::from_millis(1), 3));
    let report = calm_run(1, config);
    assert_eq!(report.frames, SESSIONS * FRAMES);
    assert_exact_accounting(&report);
    assert_eq!(
        outcome_map(&report),
        outcome_map(&baseline),
        "a wedge must not change any session's outcome"
    );

    let recovery = report.recovery.as_ref().expect("supervised run reports");
    assert!(
        recovery.detections() > 0,
        "seed 9 must wedge at least once: {recovery:?}"
    );
    assert_eq!(recovery.unrecovered, 0);
    assert!(recovery
        .incidents
        .iter()
        .all(|i| i.kind == IncidentKind::Wedge && i.recovered));
    let wedges = report.chaos.as_ref().expect("chaos armed").wedges;
    assert_eq!(wedges as usize, recovery.detections());
}

// ---------------------------------------------------------------------------
// Supervision with no faults armed is inert: same outcomes, an empty
// recovery report, zero checkpoint-induced drift.
// ---------------------------------------------------------------------------

#[test]
fn supervision_without_faults_is_inert() {
    let baseline = calm_run(2, ServeConfig::sized(2, 64));
    let supervised = calm_run(
        2,
        ServeConfig::sized(2, 64).with_supervision(SuperviseConfig::every(4, 16)),
    );
    assert_eq!(outcome_map(&supervised), outcome_map(&baseline));
    assert_eq!(
        supervised.recovery,
        Some(RecoveryReport::default()),
        "no faults => an empty report, not a missing one"
    );
}

// ---------------------------------------------------------------------------
// Kills and wedges require supervision — rejected at construction, not
// discovered as a hang.
// ---------------------------------------------------------------------------

#[test]
fn chaos_kills_without_supervision_are_rejected() {
    for chaos in [
        ChaosConfig::seeded(1).with_worker_kills(8),
        ChaosConfig::seeded(1).with_wedges(8, Duration::from_millis(1)),
    ] {
        let err = SessionServer::new(
            CalmTask,
            vec![SchemeSpec::new("s", BackendConfig::baseline()).unwrap()],
            ServeConfig::sized(1, 8).with_chaos(chaos),
        )
        .err()
        .expect("kill/wedge chaos without supervision must not construct");
        assert!(
            err.to_string().contains("supervision"),
            "undirected error: {err}"
        );
    }
}

// ---------------------------------------------------------------------------
// Freeze/thaw: 256 concurrent sessions round-trip bit-identically, even
// across a worker-count change, with pre-freeze statistics carried.
// ---------------------------------------------------------------------------

fn rendered_frames(n: u32) -> (Resolution, Vec<Arc<FrameData>>) {
    let scene = SceneBuilder::new(RES, 11)
        .background(Texture::background_noise(0x5EED))
        .object_default()
        .build();
    let seq = euphrates_datasets::Sequence {
        name: "freeze".to_string(),
        attributes: vec![],
        scene,
        frames: n,
    };
    let source = frame_source(&seq, &MotionConfig::default()).unwrap();
    let res = source.resolution();
    let frames = source.map(|f| Arc::new(f.unwrap())).collect();
    (res, frames)
}

#[test]
fn freeze_thaw_roundtrips_256_sessions_bit_identically() {
    const MANY: u64 = 256;
    const CUT: usize = 7; // deliberately not a checkpoint-cadence multiple
    let (res, frames) = rendered_frames(16);
    let schemes =
        || vec![SchemeSpec::new("ew4", BackendConfig::new(EwPolicy::Constant(4))).unwrap()];
    let task = TrackerTask::new(calib::mdnet());

    // The uninterrupted reference.
    let server = SessionServer::new(task, schemes(), ServeConfig::sized(4, 64)).unwrap();
    for id in 0..MANY {
        server.open(id, "ew4", res).unwrap();
    }
    for frame in &frames {
        for id in 0..MANY {
            server.submit_blocking(id, Arc::clone(frame)).unwrap();
        }
    }
    for id in 0..MANY {
        server.close(id).unwrap();
    }
    let want = server.drain();
    assert_eq!(want.frames, MANY * frames.len() as u64);

    // Same workload with a freeze/thaw in the middle and a different
    // worker count on the far side.
    let server = SessionServer::new(task, schemes(), ServeConfig::sized(4, 64)).unwrap();
    for id in 0..MANY {
        server.open(id, "ew4", res).unwrap();
    }
    for frame in &frames[..CUT] {
        for id in 0..MANY {
            server.submit_blocking(id, Arc::clone(frame)).unwrap();
        }
    }
    let image = server.freeze();
    assert_eq!(image.sessions(), MANY as usize);
    assert_eq!(image.live_sessions(), MANY as usize);
    assert_eq!(image.carried().frames, MANY * CUT as u64);

    let server = SessionServer::thaw(image, ServeConfig::sized(3, 64)).unwrap();
    for frame in &frames[CUT..] {
        for id in 0..MANY {
            server.submit_blocking(id, Arc::clone(frame)).unwrap();
        }
    }
    for id in 0..MANY {
        server.close(id).unwrap();
    }
    let report = server.drain();

    assert_eq!(
        report.frames, want.frames,
        "carried statistics must cover the pre-freeze half"
    );
    assert_exact_accounting(&report);
    assert_eq!(
        outcome_map(&report),
        outcome_map(&want),
        "thawed sessions diverged from the uninterrupted run"
    );
}

// ---------------------------------------------------------------------------
// Freeze under supervision composes with kill recovery: resurrect, then
// freeze, then thaw — still bit-identical.
// ---------------------------------------------------------------------------

#[test]
fn freeze_after_kill_recovery_still_roundtrips() {
    let baseline = calm_run(1, ServeConfig::sized(1, 64));

    let server = SessionServer::new(
        CalmTask,
        vec![SchemeSpec::new("ew4", BackendConfig::new(EwPolicy::Constant(4))).unwrap()],
        killed_config(2),
    )
    .unwrap();
    for id in 0..SESSIONS {
        server.open(id, "ew4", RES).unwrap();
    }
    const CUT: u64 = 11;
    for _ in 0..CUT {
        for id in 0..SESSIONS {
            server.submit_blocking(id, frame_at(RES)).unwrap();
        }
    }
    let image = server.freeze();
    assert_eq!(image.live_sessions(), SESSIONS as usize);

    let server = SessionServer::thaw(image, killed_config(3)).unwrap();
    for _ in CUT..FRAMES {
        for id in 0..SESSIONS {
            server.submit_blocking(id, frame_at(RES)).unwrap();
        }
    }
    for id in 0..SESSIONS {
        server.close(id).unwrap();
    }
    let report = server.drain();
    assert_eq!(report.frames, SESSIONS * FRAMES);
    assert_exact_accounting(&report);
    assert_eq!(
        outcome_map(&report),
        outcome_map(&baseline),
        "kill + freeze + thaw + kill diverged from the fault-free run"
    );
    let recovery = report.recovery.as_ref().expect("supervised");
    assert_eq!(recovery.unrecovered, 0);
}
