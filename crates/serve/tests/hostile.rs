//! Hostile-ingress property tests: deterministic pseudo-random
//! interleavings of malformed submits, poisoned/tombstoned sessions,
//! re-opens, frames for unknown ids, and worker-panic storms, driven
//! from several producer threads at once. The server's invariants under
//! abuse:
//!
//! * no deadlock — every drain completes;
//! * no panic escape — task panics surface as session errors, never as
//!   a dead worker or a propagated unwind;
//! * exact accounting — every accepted frame is counted exactly once
//!   (`frames == served + dropped + shed`, and `frames` equals what
//!   producers saw accepted).

use euphrates_common::image::Resolution;
use euphrates_common::rngx;
use euphrates_core::prelude::*;
use euphrates_isp::motion::MotionField;
use euphrates_serve::{ServeConfig, SessionServer};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const RES_A: Resolution = Resolution::new(80, 60);
const RES_B: Resolution = Resolution::new(64, 48); // the malformed one

fn frame_at(res: Resolution) -> Arc<FrameData> {
    Arc::new(FrameData::new(
        vec![],
        MotionField::zeroed(res, 16, 7).expect("valid field"),
    ))
}

/// Panics on a pseudo-random ~1/7 of its steps — a storm of hostile
/// tenants rather than one chosen victim.
#[derive(Debug, Clone)]
struct StormTask;

impl VisionTask for StormTask {
    type State = ();

    fn name(&self) -> &'static str {
        "storm"
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
        if rngx::counter_hash(0x570_12A, ctx.stream ^ (ctx.index << 8)).is_multiple_of(7) {
            panic!("storm tenant {} blew up at frame {}", ctx.stream, ctx.index);
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

/// One producer's walk through hostile action space, seeded so every
/// run replays the same interleaving. Returns the number of frames the
/// server ACCEPTED (enqueued) — the quantity the drain report must
/// account for exactly.
fn hostile_producer(server: &SessionServer<StormTask>, seed: u64, sessions: &[u64]) -> u64 {
    let mut accepted = 0u64;
    for step in 0..200u64 {
        let roll = rngx::counter_hash(seed, step);
        let id = sessions[(roll % sessions.len() as u64) as usize];
        match roll % 16 {
            // Mostly: an honest frame, via a pseudo-randomly chosen
            // ingress flavor.
            0..=9 => {
                let ok = match roll % 3 {
                    0 => server.try_submit(id, frame_at(RES_A)).is_enqueued(),
                    1 => server
                        .submit_deadline(id, frame_at(RES_A), Duration::from_millis(50))
                        .is_enqueued(),
                    _ => {
                        server.submit_blocking(id, frame_at(RES_A)).unwrap();
                        true
                    }
                };
                if ok {
                    accepted += 1;
                }
            }
            // A malformed frame: wrong resolution poisons the session
            // (a client bug, not a server crash); later frames to the
            // poisoned id must be dropped, not fatal.
            10 | 11 => {
                if server.try_submit(id, frame_at(RES_B)).is_enqueued() {
                    accepted += 1;
                }
            }
            // A frame for an id nobody ever opened (tombstone space).
            12 => {
                if server
                    .try_submit(id | 0x1000, frame_at(RES_A))
                    .is_enqueued()
                {
                    accepted += 1;
                }
            }
            // Close — possibly of an already-closed (tombstoned) id.
            13 => {
                let _ = server.close(id);
            }
            // Re-open, replacing whatever state the id had.
            _ => {
                let _ = server.open(id, "s", RES_A);
            }
        }
    }
    accepted
}

#[test]
fn hostile_interleavings_keep_exact_accounting() {
    const PRODUCERS: u64 = 4;
    for trial in 0..3u64 {
        let server = Arc::new(
            SessionServer::new(
                StormTask,
                vec![SchemeSpec::new("s", BackendConfig::baseline()).unwrap()],
                ServeConfig::sized(2, 4), // small lanes: saturation is common
            )
            .unwrap(),
        );
        // Pre-open a base population so early frames have live targets.
        for id in 0..8u64 {
            server.open(id, "s", RES_A).unwrap();
        }
        let accepted = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let server = Arc::clone(&server);
                let accepted = Arc::clone(&accepted);
                // Disjoint id ranges per producer keep per-session frame
                // order deterministic; the *interleaving* across
                // sessions is the hostile part.
                let ids: Vec<u64> = (p * 2..p * 2 + 2).collect();
                std::thread::spawn(move || {
                    let n = hostile_producer(&server, trial * 1000 + p, &ids);
                    accepted.fetch_add(n, Ordering::SeqCst);
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
            "trial {trial}: accepted frames lost or double-counted"
        );
        assert_eq!(
            report.frames,
            report.served + report.dropped + report.shed,
            "trial {trial}: served/dropped/shed do not partition the intake"
        );
        assert_eq!(report.shed, 0, "trial {trial}: no SLO, nothing to shed");
        assert_eq!(report.queue_wait.count(), report.frames);
        // The storm guarantees casualties; every one must be a reported
        // error (captured panic or poison), never an escaped unwind.
        assert!(
            report.failed_sessions() > 0,
            "trial {trial}: storm too calm"
        );
        for (id, outcome) in report.iter() {
            if let Err(e) = outcome {
                assert!(
                    report.failure_kind(*id).is_some(),
                    "trial {trial}: session {id} failed without a typed kind"
                );
                let text = e.to_string();
                assert!(
                    text.contains("panicked")
                        || text.contains("poisoned")
                        || text.contains("session was opened at")
                        || text.contains("close of unknown session"),
                    "session {id}: unexpected failure shape: {text}"
                );
            }
        }
    }
}

/// A storm of panics on a single shard must leave the worker alive and
/// the survivors' accounting exact.
#[test]
fn panic_storm_never_kills_a_worker() {
    let server = SessionServer::new(
        StormTask,
        vec![SchemeSpec::new("s", BackendConfig::baseline()).unwrap()],
        ServeConfig::sized(1, 8),
    )
    .unwrap();
    const SESSIONS: u64 = 24;
    const FRAMES: u64 = 6;
    for id in 0..SESSIONS {
        server.open(id, "s", RES_A).unwrap();
    }
    for _ in 0..FRAMES {
        for id in 0..SESSIONS {
            server.submit_blocking(id, frame_at(RES_A)).unwrap();
        }
    }
    let report = server.drain();
    assert_eq!(report.frames, SESSIONS * FRAMES);
    assert_eq!(report.frames, report.served + report.dropped + report.shed);
    assert_eq!(report.sessions(), SESSIONS as usize);
    assert!(report.failed_sessions() > 0, "storm hash never fired");
    assert!(
        report.failed_sessions() < SESSIONS as usize,
        "every session died — isolation is meaningless"
    );
    // Dead sessions drop their post-panic frames; live ones serve all.
    for (id, outcome) in report.iter() {
        if let Ok(out) = outcome {
            assert_eq!(out.frames, FRAMES, "survivor {id} lost frames");
        }
    }
}
