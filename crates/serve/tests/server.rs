//! The serving contract of `SessionServer`: sharded sessions bit-match
//! standalone `Session` runs and the offline `Scenario::evaluate` (with
//! and without cross-session NN batching), backpressure parks producers
//! at the configured bound without spinning, drain flushes every
//! in-flight session, and a panicking session is isolated to itself.

use euphrates_camera::scene::SceneBuilder;
use euphrates_camera::texture::Texture;
use euphrates_common::image::Resolution;
use euphrates_common::par::parallel_map;
use euphrates_core::prelude::*;
use euphrates_isp::motion::MotionField;
use euphrates_nn::oracle::calib;
use euphrates_serve::{feed_sequence, NnBatchConfig, ServeConfig, SessionServer, Submit};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

const MINI_RES: Resolution = Resolution::new(80, 60);

/// A tiny tracking sequence (80×60, drifting rigid target) — small
/// enough that hundreds of sessions stay cheap in debug builds.
fn mini_sequence(i: u64, frames: u32) -> Sequence {
    let seed = 1000 + i;
    let scene = SceneBuilder::new(MINI_RES, seed)
        .background(Texture::background_noise(seed ^ 0xB6))
        .object_default()
        .build();
    Sequence {
        name: format!("mini_{i}"),
        attributes: vec![],
        scene,
        frames,
    }
}

fn zeroed_frame(res: Resolution) -> Arc<FrameData> {
    Arc::new(FrameData::new(
        vec![],
        MotionField::zeroed(res, 16, 7).expect("valid field"),
    ))
}

// ---------------------------------------------------------------------------
// Test tasks: a gate that blocks every step, and a step that panics on
// one chosen (session, frame).
// ---------------------------------------------------------------------------

/// Blocks every I/E step until `release()` — makes queue occupancy
/// deterministic for the backpressure tests.
#[derive(Debug, Clone)]
struct GateTask {
    gate: Arc<(Mutex<bool>, Condvar)>,
}

impl GateTask {
    fn new() -> Self {
        GateTask {
            gate: Arc::new((Mutex::new(false), Condvar::new())),
        }
    }

    fn release(&self) {
        let (lock, cv) = &*self.gate;
        *lock.lock().unwrap() = true;
        cv.notify_all();
    }

    fn wait_open(&self) {
        let (lock, cv) = &*self.gate;
        let mut open = lock.lock().unwrap();
        while !*open {
            open = cv.wait(open).unwrap();
        }
    }
}

impl VisionTask for GateTask {
    type State = ();

    fn name(&self) -> &'static str {
        "gate"
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
        self.wait_open();
        StepStats::default()
    }

    fn extrapolate(
        &self,
        _ctx: &FrameContext,
        _state: &mut (),
        _outcome: &mut TaskOutcome,
    ) -> StepStats {
        self.wait_open();
        StepStats::default()
    }

    fn score(&self, _ctx: &FrameContext, _state: &(), _outcome: &mut TaskOutcome) {}
}

/// Panics inside the task step of one chosen session at one chosen
/// frame — the hostile tenant of the isolation test.
#[derive(Debug, Clone)]
struct PanicTask {
    victim_stream: u64,
    panic_at: u64,
}

impl VisionTask for PanicTask {
    type State = ();

    fn name(&self) -> &'static str {
        "panicky"
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

    fn infer(&self, ctx: &FrameContext, _state: &mut (), _outcome: &mut TaskOutcome) -> StepStats {
        if ctx.stream == self.victim_stream && ctx.index == self.panic_at {
            panic!("tenant exploded at frame {}", ctx.index);
        }
        StepStats::default()
    }

    fn extrapolate(
        &self,
        ctx: &FrameContext,
        state: &mut (),
        outcome: &mut TaskOutcome,
    ) -> StepStats {
        self.infer(ctx, state, outcome)
    }

    fn score(&self, _ctx: &FrameContext, _state: &(), _outcome: &mut TaskOutcome) {}
}

// ---------------------------------------------------------------------------
// Bit-identity
// ---------------------------------------------------------------------------

/// The acceptance criterion: ≥ 256 concurrently served sessions whose
/// per-session outcomes are bit-identical to the offline
/// `Scenario::evaluate` over the same suite (session id = suite index =
/// oracle stream) — through BOTH the plain server and the
/// batching-enabled server, since batching defers only cost
/// attribution, never decisions.
#[test]
fn serves_256_sessions_bit_identical_to_offline_evaluate() {
    const SESSIONS: u64 = 256;
    let suite: Vec<Sequence> = (0..SESSIONS).map(|i| mini_sequence(i, 5)).collect();
    let motion = MotionConfig::default();
    let scenario = Scenario::builder(TrackerTask::new(calib::mdnet()))
        .suite(suite.clone())
        .motion(motion)
        .scheme("EW-4", BackendConfig::new(EwPolicy::Constant(4)))
        .build()
        .unwrap();
    let offline = scenario.evaluate().unwrap();

    let configs = [
        ServeConfig::sized(4, 8),
        ServeConfig::sized(4, 8).with_nn_batching(NnBatchConfig {
            network: euphrates_nn::zoo::mdnet(),
            max_batch: 16,
            max_wait: Duration::from_micros(200),
        }),
    ];
    for config in configs {
        let batching = config.nn_batching.is_some();
        let server = SessionServer::new(
            TrackerTask::new(calib::mdnet()),
            vec![SchemeSpec::new("EW-4", BackendConfig::new(EwPolicy::Constant(4))).unwrap()],
            config,
        )
        .unwrap();
        // Concurrent producers: 8 feeder threads × 256 sessions, frames
        // rendered client-side and submitted with parked backpressure.
        let ids: Vec<u64> = (0..SESSIONS).collect();
        let fed: Vec<euphrates_common::Result<()>> = parallel_map(&ids, 8, |_, &id| {
            feed_sequence(&server, id, "EW-4", &suite[id as usize], &motion)
        });
        assert!(fed.iter().all(|r| r.is_ok()));

        let report = server.drain();
        assert_eq!(report.sessions(), SESSIONS as usize);
        assert_eq!(report.dropped, 0);
        assert_eq!(report.served, SESSIONS * 5);
        assert_eq!(report.latency.count(), report.served);
        assert_eq!(report.queue_wait.count(), report.frames);
        // Every shard carried some of the load, and says so twice.
        assert!(report.per_worker_frames.iter().all(|&f| f > 0));
        assert_eq!(report.per_worker.len(), 4);
        for (w, stats) in report.per_worker.iter().enumerate() {
            assert_eq!(stats.frames, report.per_worker_frames[w]);
            assert!(stats.occupancy() <= 1.0);
        }
        let mut inferences = 0u64;
        for (si, offline_outcome) in offline.schemes[0].per_sequence.iter().enumerate() {
            let served = report
                .outcome(si as u64)
                .expect("session reported")
                .as_ref()
                .expect("session healthy");
            assert_eq!(
                served, offline_outcome,
                "session {si} diverged (batching={batching})"
            );
            inferences += served.inferences;
        }
        // The batching server charges every I-frame inference through a
        // batch, and the fused cost amortizes below jobs × solo.
        match &report.nn {
            Some(nn) => {
                assert!(batching);
                assert_eq!(nn.jobs, inferences);
                assert!(nn.batches >= 1);
                assert_eq!(nn.batch_sizes.count(), nn.batches);
                assert!(nn.amortization() < 1.0, "ratio {}", nn.amortization());
                assert!(nn.energy_mj > 0.0);
                assert!(nn.dram_bytes > 0);
            }
            None => assert!(!batching),
        }
    }
}

/// The satellite's interleaving shape: N sessions fed round-robin from
/// one producer (frame j of every session before frame j+1 of any) must
/// bit-match N independent `Session` runs.
#[test]
fn interleaved_sessions_bit_match_independent_runs() {
    const N: u64 = 8;
    const FRAMES: u32 = 6;
    let motion = MotionConfig::default();
    let preps: Vec<PreparedSequence> = (0..N)
        .map(|i| prepare_sequence(&mini_sequence(100 + i, FRAMES), &motion).unwrap())
        .collect();
    let backend = BackendConfig::new(EwPolicy::Constant(4));

    let server = SessionServer::new(
        TrackerTask::new(calib::mdnet()),
        vec![SchemeSpec::new("EW-4", backend).unwrap()],
        ServeConfig::sized(3, 4),
    )
    .unwrap();
    for (i, prep) in preps.iter().enumerate() {
        server.open(i as u64, "EW-4", prep.resolution).unwrap();
    }
    for j in 0..FRAMES as usize {
        for (i, prep) in preps.iter().enumerate() {
            server
                .submit_blocking(i as u64, Arc::new(prep.frames[j].clone()))
                .unwrap();
        }
    }
    let report = server.drain();

    for (i, prep) in preps.iter().enumerate() {
        let mut solo = Session::new(
            TrackerTask::new(calib::mdnet()),
            backend,
            prep.resolution,
            i as u64,
        )
        .unwrap();
        for frame in &prep.frames {
            solo.push_frame(frame).unwrap();
        }
        let served = report
            .outcome(i as u64)
            .expect("session reported")
            .as_ref()
            .expect("session healthy");
        assert_eq!(served, &solo.finish(), "session {i} diverged");
    }
}

// ---------------------------------------------------------------------------
// Backpressure / parking / drain / isolation
// ---------------------------------------------------------------------------

#[test]
fn backpressure_triggers_at_the_configured_bound() {
    const DEPTH: usize = 4;
    let gate = GateTask::new();
    let server = SessionServer::new(
        gate.clone(),
        vec![SchemeSpec::new("g", BackendConfig::baseline()).unwrap()],
        ServeConfig::sized(1, DEPTH),
    )
    .unwrap();
    server.open(7, "g", MINI_RES).unwrap();

    // The worker blocks inside the first frame's task step; the lane
    // can then hold at most DEPTH more messages, so Busy must appear
    // after at most DEPTH + 1 acceptances (and no earlier than
    // DEPTH − 1: the Open control message may still occupy a slot) —
    // the memory bound.
    let mut enqueued = 0u32;
    let mut saw_busy = false;
    for _ in 0..DEPTH + 8 {
        match server.try_submit(7, zeroed_frame(MINI_RES)) {
            Submit::Enqueued => enqueued += 1,
            Submit::Busy(frame) => {
                // The frame comes back to the caller intact.
                assert_eq!(frame.truth.len(), 0);
                saw_busy = true;
                break;
            }
        }
    }
    assert!(saw_busy, "lane never reported Busy past its bound");
    assert!(
        (DEPTH as u32 - 1..=DEPTH as u32 + 1).contains(&enqueued),
        "accepted {enqueued} frames on a depth-{DEPTH} lane"
    );
    assert!(server.ingress_snapshot().busy_rejections >= 1);

    // Releasing the gate lets the queue drain; everything accepted is
    // served and nothing is lost.
    gate.release();
    let report = server.drain();
    assert_eq!(report.served, u64::from(enqueued));
    assert_eq!(report.dropped, 0);
    let outcome = report.outcome(7).unwrap().as_ref().unwrap();
    assert_eq!(outcome.frames, u64::from(enqueued));
}

/// The tentpole's ingress criterion: under saturation, blocked
/// producers PARK (wakeup counters grow) while the server still drains
/// every accepted frame.
#[test]
fn saturated_producers_park_without_spinning() {
    const DEPTH: usize = 2;
    const FRAMES: u64 = 8;
    let gate = GateTask::new();
    let server = Arc::new(
        SessionServer::new(
            gate.clone(),
            vec![SchemeSpec::new("g", BackendConfig::baseline()).unwrap()],
            ServeConfig::sized(1, DEPTH),
        )
        .unwrap(),
    );
    server.open(1, "g", MINI_RES).unwrap();

    let accepted = Arc::new(AtomicU64::new(0));
    let producer = {
        let server = Arc::clone(&server);
        let accepted = Arc::clone(&accepted);
        std::thread::spawn(move || {
            for _ in 0..FRAMES {
                server.submit_blocking(1, zeroed_frame(MINI_RES)).unwrap();
                accepted.fetch_add(1, Ordering::SeqCst);
            }
        })
    };

    // The worker is stuck inside frame 1's task step, so once the lane
    // fills the producer MUST park — wait until the gate has seen it.
    while server.ingress_snapshot().parked == 0 {
        std::thread::yield_now();
    }
    gate.release();
    producer.join().unwrap();
    assert_eq!(accepted.load(Ordering::SeqCst), FRAMES);

    let server = Arc::into_inner(server).expect("producer joined");
    let report = server.drain();
    assert!(report.ingress.parked > 0, "no producer ever parked");
    assert!(report.ingress.woken > 0, "no parked producer was woken");
    assert_eq!(report.served, FRAMES);
    assert_eq!(report.dropped, 0);
    // Per-worker stats carry the same parking counters.
    assert_eq!(
        report.per_worker.iter().map(|w| w.parked).sum::<u64>(),
        report.ingress.parked
    );
}

/// `submit_deadline` hands the frame back when the lane stays full past
/// the deadline, and counts the rejection.
#[test]
fn deadline_submit_returns_the_frame_on_timeout() {
    let gate = GateTask::new();
    let server = SessionServer::new(
        gate.clone(),
        vec![SchemeSpec::new("g", BackendConfig::baseline()).unwrap()],
        ServeConfig::sized(1, 1),
    )
    .unwrap();
    server.open(3, "g", MINI_RES).unwrap();
    // Frame 1 is dequeued and blocks the worker; frame 2 occupies the
    // single slot; frame 3 must park until the deadline and come back.
    server.submit_blocking(3, zeroed_frame(MINI_RES)).unwrap();
    server.submit_blocking(3, zeroed_frame(MINI_RES)).unwrap();
    match server.submit_deadline(3, zeroed_frame(MINI_RES), Duration::from_millis(10)) {
        Submit::Busy(frame) => assert_eq!(frame.truth.len(), 0),
        Submit::Enqueued => panic!("a blocked lane accepted a third frame"),
    }
    assert!(server.ingress_snapshot().busy_rejections >= 1);

    gate.release();
    let report = server.drain();
    assert_eq!(report.served, 2);
}

#[test]
fn drain_flushes_unclosed_sessions() {
    let server = SessionServer::new(
        TrackerTask::new(calib::mdnet()),
        vec![SchemeSpec::new("base", BackendConfig::baseline()).unwrap()],
        ServeConfig::sized(2, 8),
    )
    .unwrap();
    let motion = MotionConfig::default();
    for i in 0..4u64 {
        let prep = prepare_sequence(&mini_sequence(200 + i, 3), &motion).unwrap();
        server.open(i, "base", prep.resolution).unwrap();
        for frame in &prep.frames {
            server.submit_blocking(i, Arc::new(frame.clone())).unwrap();
        }
        // No close: drain must flush it.
    }
    let report = server.drain();
    assert_eq!(report.sessions(), 4);
    assert_eq!(report.served, 12);
    for i in 0..4u64 {
        let outcome = report.outcome(i).unwrap().as_ref().unwrap();
        assert_eq!(outcome.frames, 3, "session {i}");
    }
}

#[test]
fn panicking_session_is_isolated_and_reported() {
    // One worker ⇒ both sessions share a shard; the victim's panic must
    // not disturb its neighbour.
    let server = SessionServer::new(
        PanicTask {
            victim_stream: 13,
            panic_at: 2,
        },
        vec![SchemeSpec::new("p", BackendConfig::baseline()).unwrap()],
        ServeConfig::sized(1, 32),
    )
    .unwrap();
    server.open(13, "p", MINI_RES).unwrap();
    server.open(26, "p", MINI_RES).unwrap();
    for _ in 0..5 {
        for id in [13u64, 26] {
            server.submit_blocking(id, zeroed_frame(MINI_RES)).unwrap();
        }
    }
    let report = server.drain();
    // Victim: 2 healthy frames, then the panic (dropped), then 2 more
    // frames refused by the dead slot.
    let err = report.outcome(13).unwrap().as_ref().unwrap_err();
    assert!(err.to_string().contains("panicked"), "{err}");
    assert!(err.to_string().contains("exploded"), "{err}");
    assert_eq!(report.dropped, 3);
    // Neighbour: untouched.
    let ok = report.outcome(26).unwrap().as_ref().unwrap();
    assert_eq!(ok.frames, 5);
    assert_eq!(report.served, 5 + 2);
}

// ---------------------------------------------------------------------------
// Configuration / misc contract
// ---------------------------------------------------------------------------

#[test]
fn server_is_shareable_across_producers() {
    fn is_sync<T: Sync>() {}
    fn is_send<T: Send>() {}
    is_sync::<SessionServer<TrackerTask>>();
    is_send::<SessionServer<TrackerTask>>();
}

#[test]
fn config_validation_rejects_nonsense() {
    let mk = |schemes: Vec<SchemeSpec>, workers, queue_depth| {
        SessionServer::new(
            TrackerTask::new(calib::mdnet()),
            schemes,
            ServeConfig::sized(workers, queue_depth),
        )
    };
    assert!(mk(vec![], 2, 8).is_err(), "no schemes");
    let dup = vec![
        SchemeSpec::new("a", BackendConfig::baseline()).unwrap(),
        SchemeSpec::new("a", BackendConfig::baseline()).unwrap(),
    ];
    assert!(mk(dup, 2, 8).is_err(), "duplicate ids");
    let one = || vec![SchemeSpec::new("a", BackendConfig::baseline()).unwrap()];
    assert!(mk(one(), 0, 8).is_err(), "zero workers");
    assert!(mk(one(), 2, 0).is_err(), "zero depth");
    assert!(
        SessionServer::new(
            TrackerTask::new(calib::mdnet()),
            one(),
            ServeConfig::sized(1, 4).with_nn_batching(NnBatchConfig {
                network: euphrates_nn::zoo::mdnet(),
                max_batch: 0,
                max_wait: Duration::from_micros(100),
            }),
        )
        .is_err(),
        "zero max_batch"
    );

    let server = mk(one(), 2, 8).unwrap();
    assert_eq!(server.workers(), 2);
    assert!(server.open(0, "nope", MINI_RES).is_err(), "unknown scheme");
    let report = server.drain();
    assert_eq!(report.sessions(), 0);
    assert_eq!(report.frames, 0);
    assert!(report.nn.is_none());
}

#[test]
fn frames_for_unopened_sessions_are_dropped_not_fatal() {
    let server = SessionServer::new(
        TrackerTask::new(calib::mdnet()),
        vec![SchemeSpec::new("a", BackendConfig::baseline()).unwrap()],
        ServeConfig::sized(1, 8),
    )
    .unwrap();
    assert!(server.try_submit(99, zeroed_frame(MINI_RES)).is_enqueued());
    let report = server.drain();
    assert_eq!(report.dropped, 1);
    assert_eq!(report.served, 0);
    assert!(report.outcome(99).is_none());
}
