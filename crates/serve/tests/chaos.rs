//! The chaos suite: deterministic fault injection against the session
//! server. The invariants under fault storms:
//!
//! * no deadlock — every drain completes;
//! * no panic escape — injected panics surface as typed session
//!   failures, never as a dead worker;
//! * exact accounting — `frames == accepted == served + dropped + shed`
//!   even while stalls, panics, corruption, and forced rejections fire;
//! * determinism — the degradation rung timeline and every per-session
//!   outcome are a pure function of `(seed, config)`: identical at
//!   `EUPHRATES_THREADS`-style worker counts 1 and 4.

use euphrates_camera::scene::SceneBuilder;
use euphrates_camera::texture::Texture;
use euphrates_common::image::Resolution;
use euphrates_common::rngx;
use euphrates_core::prelude::*;
use euphrates_isp::motion::MotionField;
use euphrates_nn::oracle::calib;
use euphrates_serve::{
    ChaosConfig, DegradationReport, FailureKind, FeedPolicy, PressurePlan, ServeConfig,
    SessionServer, SloConfig,
};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
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

/// A fast-degrading SLO over the standard ladder: 4-frame epochs, step
/// down after one overloaded epoch, recover only after `upgrade` calm
/// ones.
fn fast_slo(upgrade: u32) -> SloConfig {
    SloConfig::new(Duration::from_millis(1))
        .with_epoch(4)
        .with_hysteresis(1, upgrade)
}

// ---------------------------------------------------------------------------
// Storm: every fault channel at once, multi-producer, exact accounting.
// ---------------------------------------------------------------------------

#[test]
fn chaos_storm_keeps_exact_accounting_without_deadlock() {
    const PRODUCERS: u64 = 4;
    let chaos = ChaosConfig::seeded(0xC4A05)
        .with_stalls(6, Duration::from_micros(100))
        .with_panics(6)
        .with_corruption(6)
        .with_rejections(8);
    let server = Arc::new(
        SessionServer::new(
            CalmTask,
            vec![SchemeSpec::new("s", BackendConfig::baseline()).unwrap()],
            ServeConfig::sized(2, 4).with_chaos(chaos),
        )
        .unwrap(),
    );
    for id in 0..8u64 {
        server.open(id, "s", RES).unwrap();
    }
    let accepted = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let server = Arc::clone(&server);
            let accepted = Arc::clone(&accepted);
            let ids: Vec<u64> = (p * 2..p * 2 + 2).collect();
            std::thread::spawn(move || {
                let mut mine = 0u64;
                for step in 0..300u64 {
                    let roll = rngx::counter_hash(0x57021 + p, step);
                    let id = ids[(roll % ids.len() as u64) as usize];
                    match roll % 16 {
                        0..=10 => {
                            let ok = match roll % 3 {
                                0 => server.try_submit(id, frame_at(RES)).is_enqueued(),
                                1 => server
                                    .submit_deadline(id, frame_at(RES), Duration::from_millis(50))
                                    .is_enqueued(),
                                _ => {
                                    server.submit_blocking(id, frame_at(RES)).unwrap();
                                    true
                                }
                            };
                            if ok {
                                mine += 1;
                            }
                        }
                        11 | 12 => {
                            let _ = server.close(id);
                        }
                        _ => {
                            let _ = server.open(id, "s", RES);
                        }
                    }
                }
                accepted.fetch_add(mine, Ordering::SeqCst);
            })
        })
        .collect();
    for h in handles {
        h.join().expect("producer panicked (server misbehaved)");
    }

    let server = Arc::into_inner(server).expect("producers joined");
    let report = server.drain(); // completing at all = no deadlock
    let accepted = accepted.load(Ordering::SeqCst);
    assert_eq!(
        report.frames, accepted,
        "accepted frames lost or double-counted"
    );
    assert_eq!(
        report.frames,
        report.served + report.dropped + report.shed,
        "served/dropped/shed do not partition the intake"
    );
    assert_eq!(report.shed, 0, "no SLO configured, nothing may shed");
    assert_eq!(report.queue_wait.count(), report.frames);
    let chaos = report.chaos.expect("chaos armed");
    assert!(chaos.stalls > 0, "stall channel never fired: {chaos:?}");
    assert!(
        chaos.panics + chaos.corrupted > 0,
        "no fatal fault fired: {chaos:?}"
    );
    assert!(
        chaos.rejections > 0,
        "rejection channel never fired: {chaos:?}"
    );
    // Classification is consistent with each failure's actual shape.
    // (Presence of ChaosInjected in the final map is asserted by the
    // deterministic test below — here the reopen churn can let a
    // chaos-killed id finish its *next* life cleanly.)
    for (id, outcome) in report.iter() {
        if let Err(e) = outcome {
            let text = e.to_string();
            let kind = report
                .failure_kind(*id)
                .expect("typed kind for every failure");
            assert!(
                text.contains("chaos: injected")
                    || text.contains("session was opened at")
                    || text.contains("close of unknown session")
                    || text.contains("poisoned"),
                "session {id}: unexpected failure shape: {text}"
            );
            if text.contains("chaos: injected") {
                assert_eq!(kind, FailureKind::ChaosInjected, "session {id}: {text}");
            }
            if text.contains("close of unknown session") {
                assert_eq!(kind, FailureKind::Protocol, "session {id}: {text}");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Determinism: same seed + ChaosConfig + SloConfig => identical rung
// timeline and per-session outcomes at 1 and 4 workers.
// ---------------------------------------------------------------------------

struct RunResult {
    outcomes: BTreeMap<u64, String>,
    kinds: BTreeMap<u64, FailureKind>,
    degradation: DegradationReport,
    panics: u64,
    corrupted: u64,
}

fn deterministic_run(workers: usize) -> RunResult {
    let chaos = ChaosConfig::seeded(7)
        .with_panics(20)
        .with_corruption(20)
        .with_pressure(PressurePlan::Burst { from: 1, until: 3 });
    let server = SessionServer::new(
        CalmTask,
        vec![SchemeSpec::new("ew4", BackendConfig::new(EwPolicy::Constant(4))).unwrap()],
        ServeConfig::sized(workers, 64)
            .with_slo(fast_slo(4))
            .with_chaos(chaos),
    )
    .unwrap();
    const SESSIONS: u64 = 12;
    const FRAMES: u64 = 16;
    for id in 0..SESSIONS {
        server.open(id, "ew4", RES).unwrap();
    }
    // One producer, round-robin: per-session arrival order is fixed, so
    // every fault and rung decision is a function of (id, arrival).
    for _ in 0..FRAMES {
        for id in 0..SESSIONS {
            server.submit_blocking(id, frame_at(RES)).unwrap();
        }
    }
    for id in 0..SESSIONS {
        server.close(id).unwrap();
    }
    let report = server.drain();
    assert_eq!(report.frames, SESSIONS * FRAMES);
    assert_eq!(report.frames, report.served + report.dropped + report.shed);
    let chaos = report.chaos.expect("chaos armed");
    let mut outcomes = BTreeMap::new();
    let mut kinds = BTreeMap::new();
    for (id, outcome) in report.iter() {
        outcomes.insert(*id, format!("{outcome:?}"));
        if let Some(kind) = report.failure_kind(*id) {
            kinds.insert(*id, kind);
        }
    }
    RunResult {
        outcomes,
        kinds,
        degradation: report.degradation.expect("slo armed"),
        panics: chaos.panics,
        corrupted: chaos.corrupted,
    }
}

#[test]
fn fault_and_degradation_schedule_is_worker_count_invariant() {
    let one = deterministic_run(1);
    let four = deterministic_run(4);
    assert_eq!(
        one.outcomes, four.outcomes,
        "per-session outcomes diverged across worker counts"
    );
    assert_eq!(one.kinds, four.kinds, "failure kinds diverged");
    assert_eq!(
        one.degradation, four.degradation,
        "degradation walk diverged across worker counts"
    );
    assert_eq!((one.panics, one.corrupted), (four.panics, four.corrupted));
    // And the walk is the declared one: healthy epoch 0, burst over
    // epochs 1-2, recovery too short to climb back.
    let timeline: Vec<(u64, usize, usize)> = one
        .degradation
        .timeline
        .iter()
        .map(|t| (t.epoch, t.from, t.to))
        .collect();
    assert_eq!(timeline, vec![(1, 0, 1), (2, 1, 2)]);
    assert_eq!(one.degradation.final_rung, 2);
    assert_eq!(one.degradation.epochs, 4);
    assert!(one.kinds.values().all(|k| *k == FailureKind::ChaosInjected));
    assert!(!one.kinds.is_empty(), "seed 7 must claim casualties");
}

// ---------------------------------------------------------------------------
// Planned overload: the ladder walks exactly as declared, shedding at
// the last rung, and buys back real compute (fewer inferences).
// ---------------------------------------------------------------------------

#[test]
fn planned_overload_walks_the_declared_ladder_and_sheds() {
    const SESSIONS: u64 = 8;
    const FRAMES: u64 = 16;
    let run = |slo: Option<SloConfig>, pressure: bool| {
        let mut config = ServeConfig::sized(2, 64);
        if let Some(slo) = slo {
            config = config.with_slo(slo);
        }
        if pressure {
            config = config.with_chaos(ChaosConfig::seeded(1).with_pressure(PressurePlan::Burst {
                from: 0,
                until: 1_000,
            }));
        }
        let server = SessionServer::new(
            CalmTask,
            vec![SchemeSpec::new("ew1", BackendConfig::new(EwPolicy::Constant(1))).unwrap()],
            config,
        )
        .unwrap();
        for id in 0..SESSIONS {
            server.open(id, "ew1", RES).unwrap();
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
    };

    let control = run(None, false);
    assert_eq!(control.served, SESSIONS * FRAMES);
    assert_eq!(control.shed, 0);
    let control_inferences: u64 = control
        .iter()
        .map(|(_, o)| o.as_ref().expect("calm run").inferences)
        .sum();
    assert_eq!(
        control_inferences,
        SESSIONS * FRAMES,
        "EW-1 infers every frame"
    );

    let degraded = run(Some(fast_slo(8)), true);
    // Per session: epoch 0 steps to rung 1 before arrival 0 is pushed,
    // rung 2 at arrival 4, the shedding rung at arrival 8 — so 8 frames
    // served, 8 shed, and the EW window never narrows back.
    assert_eq!(degraded.frames, SESSIONS * FRAMES);
    assert_eq!(degraded.served, SESSIONS * 8);
    assert_eq!(degraded.shed, SESSIONS * 8);
    assert_eq!(
        degraded.frames,
        degraded.served + degraded.dropped + degraded.shed
    );
    let walk = degraded.degradation.as_ref().expect("slo armed");
    let timeline: Vec<(u64, usize, usize)> = walk
        .timeline
        .iter()
        .map(|t| (t.epoch, t.from, t.to))
        .collect();
    assert_eq!(timeline, vec![(0, 0, 1), (1, 1, 2), (2, 2, 3)]);
    assert_eq!(walk.final_rung, 3);
    assert_eq!(
        walk.frames_per_rung,
        vec![0, SESSIONS * 4, SESSIONS * 4, SESSIONS * 8],
        "every frame lands on its scheduled rung"
    );
    assert_eq!(
        walk.reconfigs,
        SESSIONS * 3,
        "one live re-config per step per session"
    );
    let degraded_inferences: u64 = degraded
        .iter()
        .map(|(_, o)| o.as_ref().expect("shedding is not failure").inferences)
        .sum();
    assert_eq!(
        degraded_inferences, SESSIONS,
        "widened windows leave one I-frame per session"
    );
    assert!(degraded_inferences < control_inferences);
    // Wall-clock is reported, never asserted (1-core CI box).
    println!(
        "degraded queue-wait p99 = {} ns (target {} ns), shed rate = {:.2}",
        degraded.queue_wait.quantile(0.99),
        Duration::from_millis(5).as_nanos(),
        degraded.shed as f64 / degraded.frames as f64,
    );
}

// ---------------------------------------------------------------------------
// Measured overload: with no pressure plan the server's one controller
// observes the pooled queue waits. A 1 ns budget puts every frame over
// it, so the walk does not depend on timing.
// ---------------------------------------------------------------------------

#[test]
fn measured_overload_walks_the_ladder_on_pooled_queue_waits() {
    const FRAMES: u64 = 16;
    let server = SessionServer::new(
        CalmTask,
        vec![SchemeSpec::new("ew1", BackendConfig::new(EwPolicy::Constant(1))).unwrap()],
        ServeConfig::sized(1, 64).with_slo(
            SloConfig::new(Duration::from_nanos(1))
                .with_epoch(4)
                .with_hysteresis(1, 8),
        ),
    )
    .unwrap();
    server.open(0, "ew1", RES).unwrap();
    for _ in 0..FRAMES {
        server.submit_blocking(0, frame_at(RES)).unwrap();
    }
    server.close(0).unwrap();
    let report = server.drain();
    assert_eq!(report.frames, FRAMES);
    assert_eq!(report.frames, report.served + report.dropped + report.shed);
    let walk = report.degradation.as_ref().expect("slo armed");
    let timeline: Vec<(u64, usize, usize)> = walk
        .timeline
        .iter()
        .map(|t| (t.epoch, t.from, t.to))
        .collect();
    assert_eq!(timeline, vec![(0, 0, 1), (1, 1, 2), (2, 2, 3)]);
    // Each epoch's fourth frame closes it, and that frame already runs
    // at the new rung: 3 nominal frames, then 4, 4 and 5.
    assert_eq!(walk.frames_per_rung, vec![3, 4, 4, 5]);
    assert_eq!(report.shed, 5);
    assert_eq!(walk.reconfigs, 3);
    assert_eq!((walk.epochs, walk.final_rung), (4, 3));
    assert!(report.outcome(0).expect("closed").is_ok());
}

// ---------------------------------------------------------------------------
// Circuit breaker: forced saturation trips the producer's breaker and
// tombstones the session with a typed reason.
// ---------------------------------------------------------------------------

#[test]
fn forced_saturation_trips_the_circuit_breaker() {
    let seed = 9;
    let scene = SceneBuilder::new(RES, seed)
        .background(Texture::background_noise(seed ^ 0xB6))
        .object_default()
        .build();
    let seq = Sequence {
        name: "breaker".to_string(),
        attributes: vec![],
        scene,
        frames: 8,
    };
    let server = SessionServer::new(
        TrackerTask::new(calib::mdnet()),
        vec![SchemeSpec::new("ew4", BackendConfig::new(EwPolicy::Constant(4))).unwrap()],
        // reject_every = 1: every deadline admission is forcibly Busy.
        ServeConfig::sized(1, 8).with_chaos(ChaosConfig::seeded(3).with_rejections(1)),
    )
    .unwrap();
    let policy = FeedPolicy {
        attempts: 2,
        base_backoff: Duration::from_micros(50),
        max_backoff: Duration::from_micros(200),
        jitter_seed: 1,
        park_after_retries: false,
        breaker_threshold: 3,
        breaker_cooldown: 0,
    };
    let feed = euphrates_serve::feed_sequence_with(
        &server,
        0,
        "ew4",
        &seq,
        &MotionConfig::default(),
        &policy,
    )
    .expect("feed survives a tripped breaker");
    assert!(feed.tripped, "breaker never tripped: {feed:?}");
    assert_eq!(feed.submitted, 0);
    assert_eq!(feed.rejected, 3, "threshold consecutive rejections trip");
    assert_eq!(feed.retries, 6, "two attempts per rejected frame");

    let report = server.drain();
    assert_eq!(report.frames, 0, "every admission was forcibly rejected");
    assert_eq!(report.failure_kind(0), Some(FailureKind::CircuitBroken));
    assert_eq!(report.failures(FailureKind::CircuitBroken), 1);
    let err = report.outcome(0).unwrap().as_ref().unwrap_err().to_string();
    assert!(err.contains("circuit breaker"), "untyped reason: {err}");
    assert_eq!(report.chaos.expect("chaos armed").rejections, 6);
    // Legacy terminal breaker: one trip, nothing short-circuited or
    // reclosed (the feed stops at the trip).
    assert_eq!((feed.trips, feed.short_circuited, feed.reclosed), (1, 0, 0));
}

// ---------------------------------------------------------------------------
// Half-open breaker: a nonzero cooldown turns the trip into open →
// skip-N → probe cycles instead of a tombstone.
// ---------------------------------------------------------------------------

fn breaker_sequence(frames: u32) -> Sequence {
    let scene = SceneBuilder::new(RES, 5)
        .background(Texture::background_noise(0x5B))
        .object_default()
        .build();
    Sequence {
        name: "half-open".to_string(),
        attributes: vec![],
        scene,
        frames,
    }
}

fn half_open_feed(reject_every: u64) -> (euphrates_serve::FeedReport, DrainProbe) {
    let server = SessionServer::new(
        CalmTask,
        vec![SchemeSpec::new("s", BackendConfig::baseline()).unwrap()],
        ServeConfig::sized(1, 32).with_chaos(ChaosConfig::seeded(3).with_rejections(reject_every)),
    )
    .unwrap();
    let policy = FeedPolicy {
        attempts: 1,
        base_backoff: Duration::from_micros(50),
        max_backoff: Duration::from_micros(200),
        jitter_seed: 1,
        park_after_retries: false,
        breaker_threshold: 2,
        breaker_cooldown: 3,
    };
    let feed = euphrates_serve::feed_sequence_with(
        &server,
        0,
        "s",
        &breaker_sequence(16),
        &MotionConfig::default(),
        &policy,
    )
    .expect("half-open feed never hard-fails");
    let report = server.drain();
    let probe = DrainProbe {
        circuit_broken: report.failures(FailureKind::CircuitBroken),
        frames: report.frames,
        submitted_match: report.frames == feed.submitted,
    };
    (feed, probe)
}

struct DrainProbe {
    circuit_broken: usize,
    frames: u64,
    submitted_match: bool,
}

#[test]
fn half_open_breaker_cycles_open_probe_reopen_under_total_rejection() {
    // reject_every = 1: every admission is forcibly Busy, so every
    // half-open probe fails and the breaker never recloses. The whole
    // timeline is a pure function of the policy: trip at frame 1
    // (threshold 2), skip 3, probe-and-retrip at frames 5, 9, 13.
    let (feed, probe) = half_open_feed(1);
    assert_eq!(feed.submitted, 0);
    assert_eq!(feed.rejected, 5, "2 tripping frames + 3 failed probes");
    assert_eq!(feed.retries, 5, "one attempt per admitted frame");
    assert_eq!(feed.trips, 4, "initial trip + 3 failed probes");
    assert_eq!(feed.short_circuited, 11, "3 per cooldown, 2 at the tail");
    assert_eq!(feed.reclosed, 0);
    assert!(!feed.tripped, "half-open mode never tombstones");
    // The session survives: no CircuitBroken tombstone, clean close.
    assert_eq!(probe.circuit_broken, 0);
    assert_eq!(probe.frames, 0);
    assert!(probe.submitted_match);
}

#[test]
fn half_open_breaker_recloses_on_a_surviving_probe() {
    // reject_every = 2 fires on roughly half the admissions: probes can
    // survive, so the breaker must both trip and reclose at least once,
    // and the whole timeline must be bit-identical across runs.
    let (feed, probe) = half_open_feed(2);
    let (again, _) = half_open_feed(2);
    assert_eq!(feed, again, "breaker timeline must be pure");
    assert!(feed.trips >= 1, "never tripped: {feed:?}");
    assert!(feed.reclosed >= 1, "no probe ever reclosed: {feed:?}");
    assert!(!feed.tripped);
    assert_eq!(probe.circuit_broken, 0);
    assert!(probe.submitted_match, "accepted frames lost");
    assert_eq!(
        feed.submitted + feed.rejected + feed.short_circuited,
        16,
        "verdicts must partition the sequence: {feed:?}"
    );
}

// ---------------------------------------------------------------------------
// Backoff: pure, bounded, growing to the cap, decorrelated per session.
// ---------------------------------------------------------------------------

#[test]
fn feed_backoff_is_pure_bounded_and_decorrelated() {
    let policy = FeedPolicy::default();
    let base = policy.base_backoff.as_nanos() as u64;
    let cap = policy.max_backoff.as_nanos() as u64;
    for id in 0..8u64 {
        for frame in 0..32u64 {
            for attempt in 0..8u32 {
                let d = policy.backoff(id, frame, attempt).as_nanos() as u64;
                assert_eq!(
                    d,
                    policy.backoff(id, frame, attempt).as_nanos() as u64,
                    "backoff must be pure"
                );
                let exp = (base << attempt).min(cap);
                assert!(
                    d >= exp / 2 && d <= exp + 1,
                    "backoff {d} outside [{}, {}] at attempt {attempt}",
                    exp / 2,
                    exp + 1
                );
            }
        }
    }
    // Exponential growth reaches the cap's window.
    let late = policy.backoff(1, 0, 7).as_nanos() as u64;
    assert!(late >= cap / 2, "late attempts must reach the cap window");
    // Sessions decorrelate: not every (frame, attempt) agrees.
    let a: Vec<u64> = (0..64)
        .map(|f| policy.backoff(1, f, 1).as_nanos() as u64)
        .collect();
    let b: Vec<u64> = (0..64)
        .map(|f| policy.backoff(2, f, 1).as_nanos() as u64)
        .collect();
    assert_ne!(a, b, "jitter must decorrelate sessions");
}

// ---------------------------------------------------------------------------
// Config validation.
// ---------------------------------------------------------------------------

#[test]
fn chaos_and_slo_configs_validate_at_server_construction() {
    let schemes = || vec![SchemeSpec::new("s", BackendConfig::baseline()).unwrap()];
    // A pressure plan without an SLO has nothing to drive.
    let err = SessionServer::new(
        CalmTask,
        schemes(),
        ServeConfig::sized(1, 8).with_chaos(
            ChaosConfig::seeded(1).with_pressure(PressurePlan::Burst { from: 0, until: 1 }),
        ),
    )
    .err()
    .expect("pressure plan without SLO must be rejected");
    assert!(err.to_string().contains("SLO"));
    // Invalid SLO configs are rejected up front.
    let mut slo = fast_slo(1);
    slo.eval_every = 0;
    assert!(
        SessionServer::new(CalmTask, schemes(), ServeConfig::sized(1, 8).with_slo(slo)).is_err()
    );
    // A valid pairing constructs (and drains clean when unused).
    let server = SessionServer::new(
        CalmTask,
        schemes(),
        ServeConfig::sized(1, 8)
            .with_slo(fast_slo(1))
            .with_chaos(ChaosConfig::seeded(1)),
    )
    .unwrap();
    assert_eq!(server.current_rung(), 0);
    let report = server.drain();
    assert_eq!(report.frames, 0);
    assert_eq!(
        report.chaos.expect("armed").total(),
        0,
        "unarmed channels stay silent"
    );
}
