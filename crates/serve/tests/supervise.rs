//! The supervision suite: crash recovery under deterministic fault
//! injection. The invariants:
//!
//! * worker kills are survivable — every killed worker is detected,
//!   recovers in place, and its sessions resurrect from checkpoint + replay to
//!   the *bit-identical* outcome a fault-free run produces;
//! * the replay budget is a hard, typed boundary — a session whose
//!   write-ahead log outgrew it drains as
//!   [`FailureKind::Unrecovered`] with the exact arithmetic in the
//!   error, never as a silently-wrong outcome;
//! * recovery timelines are logical — incidents carry arrival ticks and
//!   replay distances, identical at 1 and 4 workers, never wall-clock;
//! * wedged workers (a logical fault at a dequeue tick) recover in
//!   place without losing a single frame;
//! * every kill and wedge point of a small script recovers
//!   bit-identically at 1, 2 and 4 workers;
//! * tombstones survive recovery — a session killed by a chaos panic,
//!   corruption or a tripped breaker stays dead, with its typed reason,
//!   through every worker fault that follows;
//! * freeze/thaw round-trips hundreds of concurrent sessions
//!   bit-identically, including across a worker-count change, and
//!   carries the degradation accounting across the restart, the
//!   measured walk included;
//! * a thawed session follows the new server's SLO, ladder and plan.

use euphrates_camera::scene::SceneBuilder;
use euphrates_camera::texture::Texture;
use euphrates_common::image::Resolution;
use euphrates_core::prelude::*;
use euphrates_isp::motion::MotionField;
use euphrates_nn::oracle::calib;
use euphrates_serve::{
    ChaosConfig, DrainReport, FailureKind, IncidentKind, PressurePlan, RecoveryReport, ServeConfig,
    SessionServer, SloConfig, SuperviseConfig,
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
    script_run(workers, config, SESSIONS, FRAMES)
}

/// [`calm_run`] over `sessions` sessions of `frames` frames each.
fn script_run(workers: usize, config: ServeConfig, sessions: u64, frames: u64) -> DrainReport {
    let server = SessionServer::new(
        CalmTask,
        vec![SchemeSpec::new("ew4", BackendConfig::new(EwPolicy::Constant(4))).unwrap()],
        config.clone(),
    )
    .unwrap();
    assert_eq!(config.workers, workers);
    for id in 0..sessions {
        server.open(id, "ew4", RES).unwrap();
    }
    for _ in 0..frames {
        for id in 0..sessions {
            server.submit_blocking(id, frame_at(RES)).unwrap();
        }
    }
    for id in 0..sessions {
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

/// A recovery timeline as `(tick, session, replay_lag)` triples, for
/// pinning whole (each test asserts `kind` and `recovered` on its own).
fn timeline(r: &RecoveryReport) -> Vec<(u64, u64, u64)> {
    r.incidents
        .iter()
        .map(|i| (i.tick, i.session, i.replay_lag))
        .collect()
}

/// `(frames, served, dropped, shed)` of a drain.
fn counts(r: &DrainReport) -> (u64, u64, u64, u64) {
    (r.frames, r.served, r.dropped, r.shed)
}

/// `(kills, wedges)` the chaos plan landed, counted by incident kind.
fn faults(r: &DrainReport) -> (u64, u64) {
    let incidents = &r.recovery.as_ref().expect("supervised").incidents;
    let count = |kind| incidents.iter().filter(|i| i.kind == kind).count() as u64;
    (count(IncidentKind::WorkerKill), count(IncidentKind::Wedge))
}

/// Seed 21's kill timeline at rate 1/5 over [`calm_run`]'s script. The
/// pinned figures in this suite were recorded when recovery still ran
/// on a separate watchdog thread, so they show in-place recovery is
/// bit-equal to it.
#[rustfmt::skip]
const KILL_TIMELINE: [(u64, u64, u64); 45] = [
    (0, 0, 0), (0, 3, 0), (0, 5, 0), (1, 2, 1), (1, 4, 1), (1, 6, 1), (2, 1, 2), (2, 2, 2),
    (3, 3, 3), (4, 1, 0), (5, 2, 1), (5, 6, 1), (6, 0, 2), (8, 5, 0), (8, 6, 0), (9, 0, 1),
    (9, 1, 1), (9, 4, 1), (9, 7, 1), (11, 1, 3), (11, 3, 3), (12, 0, 0), (13, 4, 1), (14, 2, 2),
    (14, 3, 2), (14, 4, 2), (14, 5, 2), (15, 2, 3), (16, 1, 0), (17, 0, 1), (17, 7, 1), (18, 1, 2),
    (18, 2, 2), (18, 5, 2), (18, 6, 2), (19, 3, 3), (19, 6, 3), (20, 2, 0), (20, 4, 0), (20, 5, 0),
    (21, 2, 1), (21, 3, 1), (22, 3, 2), (22, 4, 2), (23, 7, 3),
];

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
            SuperviseConfig::every(4, 16),
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
    assert_eq!(
        (r1.detections(), r1.unrecovered),
        (r4.detections(), r4.unrecovered)
    );
    assert_eq!(r1.mttr_ticks(), r4.mttr_ticks());
    assert!(r1.detections() > 0, "seed 21 must land kills: {r1:?}");
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
    // Pinned bit-for-bit: the whole report at both worker counts.
    assert_eq!(timeline(&r1), KILL_TIMELINE);
    assert_eq!((faults(&one), faults(&four)), ((45, 0), (45, 0)));
    assert_eq!(counts(&one), (192, 192, 0, 0));
    assert_eq!(counts(&four), (192, 192, 0, 0));
    assert_eq!(
        (r1.resurrected, r1.replayed_frames, r1.unrecovered),
        (360, 531, 0)
    );
    assert_eq!(
        (r4.resurrected, r4.replayed_frames, r4.unrecovered),
        (127, 185, 0)
    );
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
            SuperviseConfig::every(8, 2),
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
            report.failures(FailureKind::Unrecovered) as u64,
            recovery.unrecovered,
            "failure kinds and recovery report disagree"
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

    // Pinned bit-for-bit: the whole report at both worker counts.
    assert!(r4
        .incidents
        .iter()
        .all(|i| i.kind == IncidentKind::WorkerKill));
    assert_eq!(timeline(&r1), KILL_TIMELINE[..9]);
    #[rustfmt::skip]
    let starved4 = [
        (0, 0, 0), (0, 3, 0), (0, 5, 0), (1, 2, 1), (1, 4, 1), (1, 6, 1), (2, 1, 2), (2, 2, 2),
        (3, 3, 3), (5, 2, 5), (8, 5, 0), (9, 4, 1), (13, 4, 5), (14, 5, 6),
    ];
    assert_eq!(timeline(&r4), starved4);
    assert_eq!((faults(&one), faults(&four)), ((9, 0), (14, 0)));
    assert_eq!(counts(&one), (192, 25, 167, 0));
    assert_eq!(counts(&four), (192, 49, 143, 0));
    assert_eq!(
        (r1.resurrected, r1.replayed_frames, r1.unrecovered),
        (61, 70, 8)
    );
    assert_eq!(
        (r4.resurrected, r4.replayed_frames, r4.unrecovered),
        (23, 25, 8)
    );
}

// ---------------------------------------------------------------------------
// Wedge: a worker stuck at a dequeue loses its session table, rebuilds
// it in place, then processes the dequeued message, so nothing is lost.
// ---------------------------------------------------------------------------

#[test]
fn wedged_worker_is_deposed_and_respawned_without_frame_loss() {
    let baseline = calm_run(1, ServeConfig::sized(1, 64));
    let config = ServeConfig::sized(1, 64)
        .with_chaos(ChaosConfig::seeded(9).with_wedges(40))
        .with_supervision(SuperviseConfig::every(4, 16));
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
    // Pinned bit-for-bit: the whole report.
    assert_eq!(
        timeline(recovery),
        [(84, 4, 0), (128, 0, 0), (154, 2, 0), (197, 5, 0)]
    );
    assert_eq!(faults(&report), (0, 4));
    assert_eq!(counts(&report), (192, 192, 0, 0));
    assert_eq!((recovery.resurrected, recovery.replayed_frames), (32, 63));
}

// ---------------------------------------------------------------------------
// Exhaustive fault points: a kill at every arrival and a wedge at every
// dequeue of a 3-session × 4-frame script, at 1, 2 and 4 workers.
// ---------------------------------------------------------------------------

#[test]
fn every_kill_and_wedge_point_recovers_bit_identically() {
    const SCRIPT_SESSIONS: u64 = 3;
    const SCRIPT_FRAMES: u64 = 4;
    // Opens, frames and closes: every message is one dequeue.
    const DEQUEUES: u64 = SCRIPT_SESSIONS * (SCRIPT_FRAMES + 2);
    let baseline = script_run(1, ServeConfig::sized(1, 64), SCRIPT_SESSIONS, SCRIPT_FRAMES);
    let mut kill_timeline = None;
    for workers in [1usize, 2, 4] {
        let config = ServeConfig::sized(workers, 64)
            .with_chaos(ChaosConfig::seeded(3).with_worker_kills(1).with_wedges(1))
            // Budget 3 >= cadence 4 - 1: every fault point is covered.
            .with_supervision(SuperviseConfig::every(4, 3));
        let report = script_run(workers, config, SCRIPT_SESSIONS, SCRIPT_FRAMES);
        assert_eq!(
            outcome_map(&report),
            outcome_map(&baseline),
            "{workers} workers: a fault point changed an outcome"
        );
        assert_exact_accounting(&report);
        assert_eq!(report.frames, SCRIPT_SESSIONS * SCRIPT_FRAMES);
        assert_eq!(faults(&report), (SCRIPT_SESSIONS * SCRIPT_FRAMES, DEQUEUES));

        let recovery = report.recovery.as_ref().expect("supervised run reports");
        assert_eq!(recovery.unrecovered, 0, "{workers} workers: {recovery:?}");
        assert!(recovery.incidents.iter().all(|i| i.recovered));
        let (kills, wedges): (Vec<_>, Vec<_>) = recovery
            .incidents
            .iter()
            .partition(|i| i.kind == IncidentKind::WorkerKill);
        assert_eq!(kills.len() as u64, SCRIPT_SESSIONS * SCRIPT_FRAMES);
        assert_eq!(wedges.len() as u64, DEQUEUES);
        let kills: Vec<_> = kills.into_iter().cloned().collect();
        match &kill_timeline {
            None => kill_timeline = Some(kills),
            Some(want) => assert_eq!(&kills, want, "{workers} workers: kill timeline moved"),
        }
    }
}

// ---------------------------------------------------------------------------
// Tombstones through recovery: sessions killed by chaos panics,
// corruption and a tripped breaker stay dead across every worker fault.
// ---------------------------------------------------------------------------

/// The session whose circuit breaker trips, and the round before which
/// it trips.
const BROKEN: u64 = 6;
const BREAK_AT: u64 = 10;

/// [`tombstone_run`]'s figures, recorded when tombstones were still
/// mirrored into a separate recovery ledger.
const PINNED_KINDS: [Option<FailureKind>; SESSIONS as usize] = [
    Some(FailureKind::ChaosInjected),
    Some(FailureKind::ChaosInjected),
    Some(FailureKind::ChaosInjected),
    None,
    None,
    None,
    Some(FailureKind::CircuitBroken),
    Some(FailureKind::ChaosInjected),
];
/// `(chaos_injected, circuit_broken, total)` failures.
const PINNED_BREAKDOWN: (usize, usize, usize) = (4, 1, 5);
const PINNED_COUNTS: (u64, u64, u64, u64) = (192, 128, 64, 0);
const PINNED_DIGEST: u64 = 0x970a_85b9_df51_a7c2;

/// [`calm_run`] with per-session faults and one breaker trip layered on
/// worker kills: every kill after a death must rebuild the tombstone.
fn tombstone_run(workers: usize) -> DrainReport {
    let config = ServeConfig::sized(workers, 64)
        .with_chaos(
            ChaosConfig::seeded(21)
                .with_worker_kills(5)
                .with_panics(40)
                .with_corruption(40),
        )
        .with_supervision(SuperviseConfig::every(4, 16));
    let server = SessionServer::new(
        CalmTask,
        vec![SchemeSpec::new("ew4", BackendConfig::new(EwPolicy::Constant(4))).unwrap()],
        config,
    )
    .unwrap();
    for id in 0..SESSIONS {
        server.open(id, "ew4", RES).unwrap();
    }
    for round in 0..FRAMES {
        if round == BREAK_AT {
            server.break_session(BROKEN, "breaker tripped").unwrap();
        }
        for id in 0..SESSIONS {
            server.submit_blocking(id, frame_at(RES)).unwrap();
        }
    }
    for id in 0..SESSIONS {
        server.close(id).unwrap();
    }
    server.drain()
}

/// Each session's failure kind, in id order.
fn failure_kinds(report: &DrainReport) -> Vec<Option<FailureKind>> {
    (0..SESSIONS).map(|id| report.failure_kind(id)).collect()
}

/// A stable 64-bit FNV-1a digest of a drain's outcome map.
fn outcome_digest(report: &DrainReport) -> u64 {
    format!("{:?}", outcome_map(report))
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

#[test]
fn tombstones_survive_worker_recovery_at_any_worker_count() {
    let one = tombstone_run(1);
    for workers in [2usize, 4] {
        let report = tombstone_run(workers);
        assert_exact_accounting(&report);
        assert_eq!(report.frames, SESSIONS * FRAMES);
        assert_eq!(
            outcome_map(&report),
            outcome_map(&one),
            "{workers} workers: outcomes moved"
        );
        assert_eq!(failure_kinds(&report), failure_kinds(&one));
        assert_eq!(report.dropped, one.dropped, "{workers} workers");
        let recovery = report.recovery.as_ref().expect("supervised run reports");
        assert_eq!(recovery.unrecovered, 0, "budget 16 covers cadence 4");
        assert!(recovery.detections() > 0, "seed 21 must land kills");
    }

    assert_exact_accounting(&one);
    assert_eq!(one.frames, SESSIONS * FRAMES);

    // Pinned: which sessions died and why, the accounting, and the
    // survivors' outcomes.
    assert_eq!(failure_kinds(&one), PINNED_KINDS);
    assert_eq!(
        (
            one.failures(FailureKind::ChaosInjected),
            one.failures(FailureKind::CircuitBroken),
            one.failed_sessions()
        ),
        PINNED_BREAKDOWN
    );
    assert_eq!(counts(&one), PINNED_COUNTS);
    let chaos = one.chaos.as_ref().expect("chaos armed");
    let (kills, _) = faults(&one);
    assert_eq!((chaos.panics, chaos.corrupted, kills), (3, 1, 32));
    assert_eq!(outcome_digest(&one), PINNED_DIGEST);
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
        ChaosConfig::seeded(1).with_wedges(8),
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

// ---------------------------------------------------------------------------
// Degradation accounting across freeze/thaw: the split run's walk and
// counters equal the uninterrupted run's.
// ---------------------------------------------------------------------------

const BURST_SESSIONS: u64 = 8;
const BURST_FRAMES: u64 = 16;

/// A server under a planned burst that never lets up: 4-frame epochs,
/// one step down per overloaded epoch, so every session walks to the
/// shedding rung by its ninth arrival.
fn burst_config(workers: usize) -> ServeConfig {
    ServeConfig::sized(workers, 64)
        .with_slo(
            SloConfig::new(Duration::from_millis(1))
                .with_epoch(4)
                .with_hysteresis(1, 8),
        )
        .with_chaos(ChaosConfig::seeded(1).with_pressure(PressurePlan::Burst {
            from: 0,
            until: 1_000,
        }))
}

/// Feeds rounds `rounds` of the burst script, one frame per session per
/// round.
fn feed_rounds(server: &SessionServer<CalmTask>, rounds: std::ops::Range<u64>) {
    for _ in rounds {
        for id in 0..BURST_SESSIONS {
            server.submit_blocking(id, frame_at(RES)).unwrap();
        }
    }
}

fn burst_server() -> SessionServer<CalmTask> {
    let server = SessionServer::new(
        CalmTask,
        vec![SchemeSpec::new("ew1", BackendConfig::new(EwPolicy::Constant(1))).unwrap()],
        burst_config(2),
    )
    .unwrap();
    for id in 0..BURST_SESSIONS {
        server.open(id, "ew1", RES).unwrap();
    }
    server
}

fn close_and_drain(server: SessionServer<CalmTask>) -> DrainReport {
    for id in 0..BURST_SESSIONS {
        server.close(id).unwrap();
    }
    server.drain()
}

#[test]
fn degradation_accounting_carries_across_freeze_and_thaw() {
    const CUT: u64 = 12;
    let server = burst_server();
    feed_rounds(&server, 0..BURST_FRAMES);
    let want = close_and_drain(server);

    let server = burst_server();
    feed_rounds(&server, 0..CUT);
    let server = SessionServer::thaw(server.freeze(), burst_config(3)).unwrap();
    feed_rounds(&server, CUT..BURST_FRAMES);
    let split = close_and_drain(server);

    assert_eq!(outcome_map(&split), outcome_map(&want));
    assert_eq!(counts(&split), counts(&want));
    let walk = want.degradation.as_ref().expect("slo armed");
    assert_eq!(walk.frames_per_rung, vec![0, 32, 32, 64]);
    assert_eq!((want.shed, walk.reconfigs), (64, 24));
    let carried = split.degradation.as_ref().expect("slo armed");
    assert_eq!(
        carried, walk,
        "the split run's degradation report must cover both incarnations"
    );
}

// ---------------------------------------------------------------------------
// The thaw rule: a thawed session follows the new server's SLO and plan.
// Its rung at every arrival comes from that server's walk, never from
// state carried in its slot.
// ---------------------------------------------------------------------------

/// An EW-1 server under `config` with sessions `ids` open.
fn ew1_server(config: ServeConfig, ids: std::ops::Range<u64>) -> SessionServer<CalmTask> {
    let server = SessionServer::new(
        CalmTask,
        vec![SchemeSpec::new("ew1", BackendConfig::new(EwPolicy::Constant(1))).unwrap()],
        config,
    )
    .unwrap();
    for id in ids {
        server.open(id, "ew1", RES).unwrap();
    }
    server
}

/// Feeds `frames` rounds of one frame to each of `ids`.
fn feed(server: &SessionServer<CalmTask>, ids: std::ops::Range<u64>, frames: u64) {
    for _ in 0..frames {
        for id in ids.clone() {
            server.submit_blocking(id, frame_at(RES)).unwrap();
        }
    }
}

#[test]
fn thaw_into_a_shorter_ladder_reads_only_the_new_ladder() {
    // Frozen at arrival 14, mid-epoch and on the standard ladder's
    // shedding rung 3, which the two-rung ladder does not have.
    let server = ew1_server(burst_config(2), 0..1);
    feed(&server, 0..1, 14);
    let mut config = burst_config(2);
    config
        .slo
        .as_mut()
        .expect("slo armed")
        .ladder
        .rungs
        .truncate(2);
    let server = SessionServer::thaw(server.freeze(), config).unwrap();
    feed(&server, 0..1, 8);
    server.close(0).unwrap();
    let report = server.drain();

    assert_eq!(report.frames, 22);
    assert_exact_accounting(&report);
    // Arrivals 8..14 were shed on the old ladder; the new one sheds
    // nothing.
    assert_eq!((report.served, report.shed), (16, 6));
    let walk = report.degradation.as_ref().expect("slo armed");
    // The carried 4 + 4 + 6 arrivals at old rungs 1-3 land on the new
    // last rung, with the 8 thawed arrivals at rung 1.
    assert_eq!(walk.frames_per_rung, vec![0, 22]);
    assert_eq!(walk.final_rung, 1);
    assert!(report.outcome(0).expect("closed").is_ok());
}

#[test]
fn session_frozen_without_an_slo_walks_the_plan_after_thaw() {
    let run = |workers: usize| {
        let server = ew1_server(ServeConfig::sized(2, 64), 0..1);
        feed(&server, 0..1, 4);
        let server = SessionServer::thaw(server.freeze(), burst_config(workers)).unwrap();
        // A fresh session beside the thawed one: each follows its own
        // arrival index, not the other's progress.
        server.open(1, "ew1", RES).unwrap();
        feed(&server, 0..2, 16);
        for id in 0..2 {
            server.close(id).unwrap();
        }
        server.drain()
    };
    let one = run(1);
    let three = run(3);
    for report in [&one, &three] {
        assert_eq!(report.frames, 36);
        assert_exact_accounting(report);
        assert!(report.iter().all(|(_, outcome)| outcome.is_ok()));
    }
    assert_eq!(counts(&one), counts(&three));
    assert_eq!(outcome_map(&one), outcome_map(&three));
    let walk = one.degradation.as_ref().expect("slo armed");
    assert_eq!(
        Some(walk),
        three.degradation.as_ref(),
        "the thawed walk diverged across worker counts"
    );
    // A session planned from the start sits at rung 1 for arrivals
    // 0..4, rung 2 for 4..8 and the shedding rung 3 from 8 on. The
    // thawed session's arrivals 4..20 land as that session's do: 4 at
    // rung 2, 12 shed at rung 3. The fresh one's 16 arrivals: 4, 4, 8.
    assert_eq!(walk.frames_per_rung, vec![0, 4, 8, 20]);
    assert_eq!(one.shed, 12 + 8);
    let timeline: Vec<(u64, usize, usize)> = walk
        .timeline
        .iter()
        .map(|t| (t.epoch, t.from, t.to))
        .collect();
    assert_eq!(timeline, vec![(0, 0, 1), (1, 1, 2), (2, 2, 3)]);
    assert_eq!((walk.epochs, walk.final_rung), (5, 3));
    // Thawed: rung 0 → 2 → 3; fresh: 0 → 1 → 2 → 3.
    assert_eq!(walk.reconfigs, 2 + 3);
}

#[test]
fn thaw_under_another_ladder_applies_the_new_rungs_policy() {
    // Rung 1 pins EW-8 on the standard ladder and EW-2 on this one.
    let mut ew2 = SloConfig::new(Duration::from_millis(1))
        .with_epoch(4)
        .with_hysteresis(1, 8);
    ew2.ladder.rungs.truncate(2);
    ew2.ladder.rungs[1].ew_window = Some(2);
    let burst = ChaosConfig::seeded(1).with_pressure(PressurePlan::Burst {
        from: 0,
        until: 1_000,
    });
    let ew2_config = ServeConfig::sized(2, 64).with_slo(ew2).with_chaos(burst);

    // Frozen at arrival 2, on rung 1 of both ladders.
    let server = ew1_server(burst_config(2), 0..1);
    feed(&server, 0..1, 2);
    let server = SessionServer::thaw(server.freeze(), ew2_config.clone()).unwrap();
    feed(&server, 0..1, 16);
    server.close(0).unwrap();
    let thawed = server.drain();

    let server = ew1_server(ew2_config, 0..1);
    feed(&server, 0..1, 18);
    server.close(0).unwrap();
    let fresh = server.drain();

    let inferences = |r: &DrainReport| r.outcome(0).unwrap().as_ref().unwrap().inferences;
    assert_eq!(inferences(&fresh), 9, "EW-2 infers every other frame");
    assert_eq!(
        inferences(&thawed),
        inferences(&fresh),
        "the thawed session kept the old ladder's EW-8"
    );
    let reconfigs = |r: &DrainReport| r.degradation.as_ref().unwrap().reconfigs;
    assert_eq!((reconfigs(&thawed), reconfigs(&fresh)), (2, 1));
}

#[test]
fn measured_walk_carries_across_freeze_and_thaw() {
    // No pressure plan: each incarnation's controller observes its own
    // pooled queue waits. A 1 ns budget puts every frame over it, so
    // each incarnation steps 0 → 1 → 2 over its two 4-frame epochs.
    let config = || {
        ServeConfig::sized(1, 64).with_slo(SloConfig::new(Duration::from_nanos(1)).with_epoch(4))
    };
    let server = ew1_server(config(), 0..1);
    feed(&server, 0..1, 8);
    let server = SessionServer::thaw(server.freeze(), config()).unwrap();
    feed(&server, 0..1, 8);
    server.close(0).unwrap();
    let report = server.drain();

    assert_eq!(counts(&report), (16, 16, 0, 0));
    let walk = report.degradation.as_ref().expect("slo armed");
    assert_eq!(walk.epochs, 4, "both incarnations' epochs");
    // The carried walk, the reset to nominal the thawed server starts
    // at, then the thawed server's walk, its epochs following the carry's.
    let timeline: Vec<(u64, usize, usize)> = walk
        .timeline
        .iter()
        .map(|t| (t.epoch, t.from, t.to))
        .collect();
    assert_eq!(
        timeline,
        vec![(0, 0, 1), (1, 1, 2), (2, 2, 0), (2, 0, 1), (3, 1, 2)]
    );
    // One connected walk: each step starts where the last one ended,
    // and the last ends on the final rung.
    let mut rung = 0;
    for t in &walk.timeline {
        assert_eq!(t.from, rung, "gap before epoch {}", t.epoch);
        rung = t.to;
    }
    assert_eq!(rung, walk.final_rung);
    assert_eq!(walk.frames_per_rung, vec![6, 8, 2, 0]);
    assert_eq!((walk.reconfigs, walk.final_rung), (5, 2));
}
