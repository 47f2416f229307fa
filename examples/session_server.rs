//! Concurrent serving path: many client streams share one sharded
//! `SessionServer`, each session's frames processed in order by the
//! worker its id hashes to, with bounded ingress queues pushing back on
//! fast producers — the shape of the paper's "millions of users"
//! deployment, scaled down to one process.
//!
//! Also demonstrates the serving equivalence guarantee: every session's
//! drained outcome bit-matches an offline `run_task` over the same
//! frames, because workers only decide *where* a session runs, never
//! *what* it computes.
//!
//! Act two replays the same streams under seeded worker-kill chaos with
//! supervision armed: each kill costs its worker the whole session
//! table, and the worker rebuilds it in place from the last checkpoints
//! plus a bounded replay log — the drained outcomes *still* bit-match
//! the offline runs, and the `RecoveryReport` shows the incident
//! timeline in logical ticks.
//!
//! ```text
//! cargo run --release --example session_server
//! ```

use euphrates::core::prelude::*;
use euphrates::nn::oracle::calib;
use euphrates::serve::{
    feed_sequence, ChaosConfig, FailureKind, NnBatchConfig, ServeConfig, SessionServer,
    SuperviseConfig,
};
use std::time::Duration;

fn main() -> euphrates::common::Result<()> {
    // A small suite standing in for independent client streams; a real
    // deployment would feed each client's ISP output directly.
    let mut suite = euphrates::datasets::otb100_like(7, DatasetScale::fraction(0.1));
    for seq in &mut suite {
        seq.frames = 16;
    }
    let motion = MotionConfig::default();

    // Cross-session NN batching: concurrent sessions' I-frame
    // inferences are fused into one systolic job per bounded window,
    // amortizing weight loads and array fill/drain — functional
    // outcomes stay bit-identical (asserted below).
    let config = ServeConfig::sized(4, 16).with_nn_batching(NnBatchConfig {
        network: euphrates::nn::zoo::mdnet(),
        max_batch: 16,
        max_wait: Duration::from_micros(200),
    });
    let server = SessionServer::new(
        TrackerTask::new(calib::mdnet()),
        vec![
            SchemeSpec::new("EW-4", BackendConfig::new(EwPolicy::Constant(4)))?,
            SchemeSpec::new(
                "adaptive",
                BackendConfig::new(EwPolicy::Adaptive(AdaptiveConfig::default())),
            )?,
        ],
        config,
    )?;
    println!(
        "serving {} streams across {} workers (queue depth 16):\n",
        suite.len(),
        server.workers()
    );

    // Stream every sequence through the server. `feed_sequence` renders
    // client-side via the O(1)-memory frame source and parks (sleeps on
    // the lane's condvar, no spinning) when its session's lane is
    // at the bound. Session id doubles as the oracle stream index, so
    // the offline re-run below can reproduce the exact same noise
    // streams.
    for (id, seq) in suite.iter().enumerate() {
        let scheme = if id % 2 == 0 { "EW-4" } else { "adaptive" };
        feed_sequence(&server, id as u64, scheme, seq, &motion)?;
    }

    // One doomed stream: a producer that gives up on its session (lost
    // client, tripped retry breaker) tombstones it with a typed reason
    // instead of leaving it half-open — the drain report classifies it
    // separately from healthy streams.
    let doomed = suite.len() as u64;
    server.open(
        doomed,
        "EW-4",
        euphrates::common::image::Resolution::new(80, 60),
    )?;
    server.break_session(doomed, "client heartbeat lost; circuit breaker opened")?;

    let report = server.drain();
    let mut offline_outcomes = Vec::new();
    println!("session  scheme    frames  inferences  rate");
    for (id, seq) in suite.iter().enumerate() {
        let scheme = if id % 2 == 0 { "EW-4" } else { "adaptive" };
        let outcome = report
            .outcome(id as u64)
            .expect("every opened session is reported")
            .as_ref()
            .expect("healthy streams finish cleanly");
        println!(
            "{id:>7}  {scheme:<8}  {:>6}  {:>10}  {:>4.1}%",
            outcome.frames,
            outcome.inferences,
            outcome.inference_rate() * 100.0
        );

        // The offline path is built on the same per-frame scheduler, so
        // each served outcome is bit-identical to a solo run.
        let prep = prepare_sequence(seq, &motion)?;
        let backend = if id % 2 == 0 {
            BackendConfig::new(EwPolicy::Constant(4))
        } else {
            BackendConfig::new(EwPolicy::Adaptive(AdaptiveConfig::default()))
        };
        let offline = run_task(TrackerTask::new(calib::mdnet()), &prep, &backend, id as u64)?;
        assert_eq!(*outcome, offline);
        offline_outcomes.push(offline);
    }

    println!(
        "\nserved {} frames ({} sessions), p50 {:.3} ms / p99 {:.3} ms submit-to-done",
        report.served,
        report.sessions(),
        report.latency.quantile(0.50) as f64 / 1e6,
        report.latency.quantile(0.99) as f64 / 1e6,
    );
    println!(
        "ingress: {} immediate, {} parked, {} woken",
        report.ingress.immediate, report.ingress.parked, report.ingress.woken,
    );
    if let Some(nn) = &report.nn {
        println!(
            "nn batching: {} jobs in {} batches (mean {:.1}/batch), \
             {:.3}x the solo cycle cost, {:.1} mJ charged",
            nn.jobs,
            nn.batch_sizes.count(),
            nn.mean_batch(),
            nn.amortization(),
            nn.energy_mj,
        );
    }
    // Failed sessions carry a typed kind, not just an error string —
    // an operator can tell tenant bugs (poisoned/panicked) from
    // producer give-ups (circuit-broken) at a glance.
    println!(
        "failures: {} poisoned, {} panicked, {} circuit-broken, {} chaos, \
         {} protocol, {} unrecovered",
        report.failures(FailureKind::Poisoned),
        report.failures(FailureKind::Panicked),
        report.failures(FailureKind::CircuitBroken),
        report.failures(FailureKind::ChaosInjected),
        report.failures(FailureKind::Protocol),
        report.failures(FailureKind::Unrecovered),
    );
    assert_eq!(
        report.failure_kind(doomed),
        Some(FailureKind::CircuitBroken)
    );
    assert_eq!(report.failed_sessions(), 1, "only the doomed stream fails");
    println!("offline re-runs are bit-identical: OK");

    // Act two: the same streams, but workers are killed out from under
    // them (seeded chaos, ~1 kill per 8 arrivals per session) with
    // supervision armed: checkpoint every 4 arrivals, replay budget 16.
    // A killed worker resurrects its sessions in place from checkpoint
    // + replay, then carries on with the frame it was killed on.
    println!("\n-- crash recovery under worker-kill chaos --");
    let config = ServeConfig::sized(2, 16)
        .with_chaos(ChaosConfig::seeded(13).with_worker_kills(8))
        .with_supervision(SuperviseConfig::every(4, 16));
    let server = SessionServer::new(
        TrackerTask::new(calib::mdnet()),
        vec![
            SchemeSpec::new("EW-4", BackendConfig::new(EwPolicy::Constant(4)))?,
            SchemeSpec::new(
                "adaptive",
                BackendConfig::new(EwPolicy::Adaptive(AdaptiveConfig::default())),
            )?,
        ],
        config,
    )?;
    for (id, seq) in suite.iter().enumerate() {
        let scheme = if id % 2 == 0 { "EW-4" } else { "adaptive" };
        feed_sequence(&server, id as u64, scheme, seq, &motion)?;
    }
    let report = server.drain();
    let recovery = report.recovery.as_ref().expect("supervision armed");
    println!(
        "{} worker kills recovered, {} sessions resurrected, \
         {} frames replayed, {} unrecovered, MTTR {} logical ticks",
        recovery.detections(),
        recovery.resurrected,
        recovery.replayed_frames,
        recovery.unrecovered,
        recovery.mttr_ticks(),
    );
    for incident in &recovery.incidents {
        println!(
            "  {:?} at tick {} (session {}): replay lag {}, {}",
            incident.kind,
            incident.tick,
            incident.session,
            incident.replay_lag,
            if incident.recovered {
                "recovered"
            } else {
                "lost"
            },
        );
    }
    // The recovery guarantee, end to end: every session drains
    // bit-identical to its offline run despite the kills.
    assert_eq!(recovery.unrecovered, 0, "budget 16 covers cadence 4");
    for (id, offline) in offline_outcomes.iter().enumerate() {
        let outcome = report
            .outcome(id as u64)
            .expect("every session reported")
            .as_ref()
            .expect("resurrected sessions finish cleanly");
        assert_eq!(outcome, offline, "session {id} diverged after recovery");
    }
    println!("post-recovery outcomes are bit-identical: OK");
    Ok(())
}
