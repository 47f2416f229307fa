//! Sharded concurrent session serving for the Euphrates pipeline.
//!
//! The paper's deployment target is "millions of users" of continuous
//! vision (§1): the per-frame schedule that `euphrates_core::Session`
//! implements is cheap enough that one machine should carry hundreds of
//! concurrent streams. This crate is that serving layer, shaped like an
//! inference server:
//!
//! * **Sharding** — every session id is hashed onto one of N worker
//!   threads, so a session's frames are processed *in order by a single
//!   worker*. Per-session outcomes are therefore bit-identical to
//!   running the same frames through a standalone [`Session`] (or the
//!   offline `Scenario::evaluate`, which is built on sessions): workers
//!   only decide *where* a session runs, never *what* it computes.
//! * **Backpressure** — each worker has a bounded ingress queue guarded
//!   by a [`CapacityGate`]. [`try_submit`][SessionServer::try_submit]
//!   never blocks and never buffers beyond the bound: a full lane
//!   returns [`Submit::Busy`] handing the frame back to the caller
//!   (admission control instead of unbounded growth — memory is
//!   `O(workers × queue_depth)` frames).
//! * **Shared read-only state** — one scheme registry (the validated
//!   [`SchemeSpec`] list, the same registry an offline
//!   `Scenario::evaluate` opens one session per scheme from) lives
//!   behind an [`Arc`] shared by all workers;
//!   per-worker state (the session table, latency histograms, counters)
//!   is owned, unsynchronized scratch.
//! * **Instrumentation** — every frame's submit→completion latency and
//!   submit→dequeue queue wait are recorded into per-worker
//!   [`LatencyHistogram`]s (O(1) record, ~6% quantile error), merged at
//!   drain; [`DrainReport::per_worker`] additionally carries each
//!   shard's occupancy and parking counters so the batching window can
//!   be tuned from data.
//! * **Isolation** — a panicking task step kills *its* session (the
//!   drain report carries the error), never the worker: the other
//!   sessions sharded onto the same lane keep streaming.
//!
//! # Batching & backpressure
//!
//! **Parked producers, not spin loops.** Each lane pairs its bounded
//! channel with a [`CapacityGate`] whose permits mirror the channel's
//! bound: *every* message — open, frame, close — takes a permit before
//! it is sent, and the worker returns the permit as it dequeues. A
//! holder of a permit therefore always completes its send without
//! blocking, and a producer that finds the lane full has three choices:
//!
//! * [`try_submit`][SessionServer::try_submit] — never waits; hands the
//!   frame back as [`Submit::Busy`] (admission control).
//! * [`submit_blocking`][SessionServer::submit_blocking] — sleeps on the
//!   gate's condvar and is woken exactly when its lane drains a slot
//!   (counted in [`IngressReport::parked`]).
//! * [`submit_deadline`][SessionServer::submit_deadline] — parks for at
//!   most a deadline, then hands the frame back.
//!
//! **Cross-session NN batching.** On silicon, the systolic array earns
//! its efficiency by amortizing weight loads and array fill/drain
//! across work; one session's I-frame at a time cannot exploit that.
//! With [`ServeConfig::with_nn_batching`] each worker runs a
//! `BatchCollector`: I-frame inference jobs from *different sessions*
//! sharded onto the worker are gathered within a bounded window
//! (`max_batch` jobs or `max_wait`, whichever first) and charged as one
//! fused job via `SystolicModel::analyze_batch` — weights stream once,
//! fill/drain is paid per weight block instead of per request. The
//! batch is an *accounting* fusion: the NN itself is a modeled oracle
//! whose functional decisions are produced synchronously inside
//! `Session::push_frame`, so batching defers only the cycle/energy
//! attribution and per-session outcomes (decisions, accuracy, fields)
//! stay **bit-identical** to the unbatched path — the equivalence tests
//! assert exactly that. The amortized cost lands in
//! [`DrainReport::nn`]: batched vs `N×` solo cycles, energy, DRAM
//! traffic, and the realized batch-size histogram.
//!
//! # Overload, degradation & chaos
//!
//! A server that can only fail closed under pressure wastes the
//! paper's central knob: the EW window *is* a quality/compute dial, so
//! overload should turn the dial before it drops frames. With
//! [`ServeConfig::with_slo`] the server watches the same queue-wait
//! measurements that feed its histograms and walks a declared
//! [`DegradationLadder`] with two-sided hysteresis (the
//! [`OverloadController`] in [`degrade`]): widen live sessions' EW
//! windows (via the core runtime re-config `Session::reconfigure_policy`),
//! shrink the NN batching window, recommend a cheaper motion search to
//! producers ([`degraded_motion`][SessionServer::degraded_motion]), and
//! — last resort — shed frames that have already blown their budget.
//! Every transition lands in the [`DegradationReport`] merged into
//! [`DrainReport::degradation`], and shed frames get their own counter:
//! `frames == served + dropped + shed`, exactly.
//!
//! [`ServeConfig::with_chaos`] arms a seeded, bit-reproducible fault
//! plan ([`ChaosConfig`] in [`chaos`]): worker stalls, injected session
//! panics, corrupted (wrong-resolution) frames, and forced admission
//! rejections, all derived from [`rngx::counter_hash`] over logical
//! counters — never wall-clock. A chaos
//! [`PressurePlan`] replaces the measured pressure signal with a pure
//! function of the epoch, advanced per-session by arrival index, which
//! makes the entire degradation walk — rung timeline *and* per-session
//! outcomes — a deterministic function of `(seed, config)` at any
//! worker count. The chaos suite asserts exactly that, plus exact frame
//! accounting under fault storms.
//!
//! On the producer side, [`feed_sequence_with`] hardens the feed loop:
//! bounded deadline-submit retries with deterministic jittered backoff
//! ([`FeedPolicy::backoff`], pure in `(seed, session, frame, attempt)`),
//! then either parks (frame never lost) or sheds client-side; repeated
//! rejections can trip a circuit breaker that tombstones the session
//! with a typed reason ([`FailureKind::CircuitBroken`] in
//! [`DrainReport::failure_breakdown`]). With a non-zero
//! [`FeedPolicy::breaker_cooldown`] the breaker is *half-open* instead
//! of terminal: after a deterministic cooldown it admits one probe
//! frame and either re-closes or re-trips
//! ([`FeedReport::trips`]/[`FeedReport::reclosed`]).
//!
//! # Recovery & supervision
//!
//! [`ServeConfig::with_supervision`] arms crash recovery (the
//! [`supervise`] module). Every live session slot then carries its own
//! recovery ledger: a checkpoint taken via [`Session::snapshot`] on a
//! fixed arrival cadence, plus a bounded write-ahead log of the frames
//! since. A dead session is a tombstone slot, so the session table is
//! the one record of every session's state. Two chaos fault channels
//! take a worker's whole table down: kills
//! ([`ChaosConfig::with_worker_kills`], keyed on a session's arrival
//! index) and wedges ([`ChaosConfig::with_wedges`], a logical fault at
//! the worker's dequeue tick). The worker recovers **in place**, on its
//! own thread, rebuilding the table where it stands: tombstones are
//! kept, and each live slot is restored from its checkpoint and its log
//! replayed through the same arrival path live frames take —
//! bit-identical to a fault-free run, or turned into a
//! [`FailureKind::Unrecovered`] tombstone with the exact budget
//! arithmetic when the log outgrew [`SuperviseConfig::replay_budget`].
//! Then it processes the faulting message. Supervised or not, a server
//! runs exactly `workers` threads. Kill draws key on the same logical
//! counters as every other fault, so the kill timeline in
//! [`DrainReport::recovery`] is identical at any worker count.
//!
//! **Checkpoint cadence vs replay memory.** A ledger holds up to
//! `checkpoint_every + replay_budget` `Arc`-shared frames per session:
//! a tight cadence means cheap, short replays (low MTTR in logical
//! ticks) but frequent snapshot work; a loose cadence amortizes
//! snapshots but lengthens replays — and a `replay_budget` below
//! `checkpoint_every - 1` deliberately caps the memory by making the
//! tail of each checkpoint interval unrecoverable. The supervise suite
//! (`tests/supervise.rs`) pins both sides: budget 16 over cadence 4
//! recovers every kill, budget 2 under cadence 8 strands sessions as
//! typed `Unrecovered` drains.
//!
//! The whole server also restarts warm: [`SessionServer::freeze`]
//! shuts down with every session slot — live or tombstoned — moved
//! into a [`ServerImage`], and [`SessionServer::thaw`] rebuilds a
//! running server — at any worker count — whose sessions continue
//! bit-exactly where they froze; under supervision each live slot
//! restarts its ledger from a fresh checkpoint. Every worker's counters
//! take the shape of a one-worker [`DrainReport`], and one merge folds
//! the workers at shutdown and the pre-freeze report carried through
//! the image, so the final [`DrainReport`] — degradation accounting
//! included — covers both incarnations.
//!
//! Frames enter as [`Arc<FrameData>`] — ground truth plus the
//! ISP-exported motion field, i.e. what the paper's ISP ships to the
//! vision backend. Producing them (rendering, sensor, ISP) stays on the
//! client side of the ingress queue, e.g. via [`feed_sequence`], which
//! streams a synthetic [`Sequence`] through the O(1)-memory
//! `frame_source` pipeline with parked-producer backpressure. Each
//! feeder owns its renderer (and thus its `FramePool`) — the
//! per-worker-pool pattern documented in `euphrates_common::pool`.
//!
//! ```no_run
//! use euphrates_core::prelude::*;
//! use euphrates_nn::oracle::calib;
//! use euphrates_serve::{NnBatchConfig, ServeConfig, SessionServer};
//! use std::time::Duration;
//!
//! let schemes = vec![SchemeSpec::new("EW-4", BackendConfig::new(EwPolicy::Constant(4))).unwrap()];
//! let config = ServeConfig::default().with_nn_batching(NnBatchConfig {
//!     network: euphrates_nn::zoo::mdnet(),
//!     max_batch: 16,
//!     max_wait: Duration::from_micros(200),
//! });
//! let server = SessionServer::new(TrackerTask::new(calib::mdnet()), schemes, config).unwrap();
//! let suite = euphrates_datasets::otb100_like(42, DatasetScale::fraction(0.1));
//! for (id, seq) in suite.iter().enumerate() {
//!     euphrates_serve::feed_sequence(&server, id as u64, "EW-4", seq, &MotionConfig::default()).unwrap();
//! }
//! let report = server.drain();
//! println!("p99 = {} ns over {} frames", report.latency.quantile(0.99), report.served);
//! if let Some(nn) = &report.nn {
//!     println!("amortization = {:.3} over {} batches", nn.amortization(), nn.batches);
//! }
//! ```

pub mod chaos;
pub mod degrade;
pub mod supervise;

pub use chaos::{ChaosConfig, ChaosReport, PressurePlan};
pub use degrade::{
    DegradationLadder, DegradationReport, OverloadController, Rung, RungTransition, SloConfig,
};
pub use supervise::{IncidentKind, RecoveryIncident, RecoveryReport, SuperviseConfig};

use crate::supervise::{Ledger, SlotCheckpoint};
use euphrates_common::error::{Error, Result};
use euphrates_common::gate::CapacityGate;
use euphrates_common::image::Resolution;
use euphrates_common::par::default_threads;
use euphrates_common::rngx;
use euphrates_common::stats::LatencyHistogram;
use euphrates_core::api::{FrameDecision, SchemeSpec, Session, VisionTask};
use euphrates_core::backend::TaskOutcome;
use euphrates_core::frontend::{frame_source, FrameData, MotionConfig};
use euphrates_datasets::Sequence;
use euphrates_isp::motion::MotionField;
use euphrates_mc::policy::EwPolicy;
use euphrates_nn::engine::{BatchPlan, InferencePlan, NnxEngine};
use euphrates_nn::layer::NetworkDescriptor;
use std::collections::{BTreeSet, HashMap};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Client-chosen session identifier. Doubles as the session's oracle
/// stream index (the `stream` argument of [`Session::new`]), so serving
/// sequence `i` of a suite under id `i` reproduces the offline
/// evaluation's noise streams exactly.
pub type SessionId = u64;

/// Hash salt for the id → worker shard (any fixed key works; a mixed
/// hash keeps structured id spaces — 0, 1, 2, … — balanced).
const SHARD_STREAM: u64 = 0x5E4E;

/// Cross-session NN batching configuration (see the crate docs'
/// "Batching & backpressure" section).
#[derive(Debug, Clone)]
pub struct NnBatchConfig {
    /// The network whose I-frame inferences are fused.
    pub network: NetworkDescriptor,
    /// Jobs per fused batch at most; a full batch flushes immediately.
    pub max_batch: usize,
    /// How long a worker holds an open batch waiting for more jobs
    /// before flushing it short.
    pub max_wait: Duration,
}

/// Server sizing.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads (shards). Default: [`default_threads`], which
    /// honors `EUPHRATES_THREADS`.
    pub workers: usize,
    /// Per-worker ingress bound, in messages. Bounds server memory at
    /// `workers × queue_depth` in-flight frames; beyond it,
    /// [`try_submit`][SessionServer::try_submit] reports
    /// [`Submit::Busy`] and [`submit_blocking`][SessionServer::submit_blocking]
    /// parks.
    pub queue_depth: usize,
    /// Cross-session NN batching; `None` charges every inference solo.
    pub nn_batching: Option<NnBatchConfig>,
    /// SLO-aware graceful degradation (see the crate docs' "Overload,
    /// degradation & chaos" section); `None` never degrades.
    pub slo: Option<SloConfig>,
    /// Deterministic fault injection; `None` (the default) means the
    /// chaos hooks cost one `Option` check per event.
    pub chaos: Option<ChaosConfig>,
    /// Crash recovery (see the crate docs' "Recovery & supervision"
    /// section): `None` keeps no checkpoints; `Some` checkpoints
    /// sessions so a worker recovers in place from chaos kills and
    /// wedges.
    pub supervise: Option<SuperviseConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: default_threads(),
            queue_depth: 64,
            nn_batching: None,
            slo: None,
            chaos: None,
            supervise: None,
        }
    }
}

impl ServeConfig {
    /// An explicitly sized server without NN batching.
    pub fn sized(workers: usize, queue_depth: usize) -> Self {
        ServeConfig {
            workers,
            queue_depth,
            ..ServeConfig::default()
        }
    }

    /// Enables cross-session NN batching.
    pub fn with_nn_batching(mut self, batching: NnBatchConfig) -> Self {
        self.nn_batching = Some(batching);
        self
    }

    /// Enables SLO-aware graceful degradation.
    pub fn with_slo(mut self, slo: SloConfig) -> Self {
        self.slo = Some(slo);
        self
    }

    /// Arms deterministic fault injection.
    pub fn with_chaos(mut self, chaos: ChaosConfig) -> Self {
        self.chaos = Some(chaos);
        self
    }

    /// Enables crash recovery: session checkpointing plus in-place
    /// recovery from worker faults.
    pub fn with_supervision(mut self, supervise: SuperviseConfig) -> Self {
        self.supervise = Some(supervise);
        self
    }
}

/// The verdict of a non-blocking or deadline-bounded submit.
#[derive(Debug)]
#[must_use = "a Busy frame must be retried or dropped deliberately"]
pub enum Submit {
    /// The frame was accepted onto its session's lane.
    Enqueued,
    /// The lane is at its bound (or the deadline passed); the frame is
    /// handed back so the caller can retry, shed load, or slow the
    /// producer.
    Busy(Arc<FrameData>),
}

impl Submit {
    /// `true` if the frame was accepted.
    pub fn is_enqueued(&self) -> bool {
        matches!(self, Submit::Enqueued)
    }
}

/// One message on a worker's lane.
enum Msg {
    /// Open session `id` under scheme index `scheme` (re-opening an
    /// existing id flushes the old session into the report first).
    Open {
        id: SessionId,
        scheme: usize,
        resolution: Resolution,
    },
    /// One frame for session `id`; `at` is its submit timestamp.
    Frame {
        id: SessionId,
        frame: Arc<FrameData>,
        at: Instant,
    },
    /// Finish session `id` and stash its outcome.
    Close { id: SessionId },
    /// Tombstone session `id` with `error` (circuit breaker): late
    /// frames drop, the eventual close reports the typed reason.
    Fail { id: SessionId, error: Error },
}

impl Msg {
    /// The session this message addresses.
    fn session(&self) -> SessionId {
        match self {
            Msg::Open { id, .. }
            | Msg::Frame { id, .. }
            | Msg::Close { id }
            | Msg::Fail { id, .. } => *id,
        }
    }
}

/// Pre-planned batched-inference costs shared by all workers: one
/// [`BatchPlan`] per realizable batch size, plus the solo plan the
/// amortization ratio is defined against.
struct BatchRuntime {
    max_batch: usize,
    max_wait: Duration,
    /// `plans[b - 1]` prices a fused `b`-request batch.
    plans: Vec<BatchPlan>,
    solo: InferencePlan,
}

/// The overload-control state shared by all workers when an SLO is
/// configured. Two operating modes:
///
/// * **Measured** (`plan: None`): workers pool per-epoch pressure in
///   the atomics; whichever worker closes an epoch locks the global
///   controller, observes, and publishes the new rung in `current`.
///   Real, but epoch composition depends on thread interleaving.
/// * **Planned** (`plan: Some`): each session carries its own clone of
///   `template` advanced by *arrival index* against the pure pressure
///   plan, so per-session rung schedules (and outcomes) are identical
///   at any worker count; `current` mirrors the latest advance for the
///   worker-level knobs (batch window, motion hint).
struct OverloadRuntime {
    slo: SloConfig,
    plan: Option<PressurePlan>,
    template: OverloadController,
    /// The rung driving worker-level knobs right now.
    current: AtomicUsize,
    /// Frames observed in measured mode (monotonic; an epoch closes
    /// every `eval_every`-th frame).
    epoch_frames: AtomicU64,
    /// Over-budget frames in the current measured epoch.
    epoch_over: AtomicU64,
    /// The measured-mode controller (locked once per epoch, never per
    /// frame).
    controller: Mutex<OverloadController>,
}

impl OverloadRuntime {
    /// Measured-mode pressure pooling: every received frame contributes;
    /// the worker that completes an epoch locks the controller once and
    /// publishes the rung. A no-op under a pressure plan.
    fn pool_pressure(&self, wait_ns: u64) {
        if self.plan.is_some() {
            return;
        }
        if wait_ns > self.slo.frame_budget.as_nanos() as u64 {
            self.epoch_over.fetch_add(1, Ordering::Relaxed);
        }
        let n = self.epoch_frames.fetch_add(1, Ordering::Relaxed) + 1;
        if n.is_multiple_of(self.slo.eval_every) {
            let over = self.epoch_over.swap(0, Ordering::Relaxed);
            let mut ctl = self.controller.lock().unwrap_or_else(|p| p.into_inner());
            let rung = ctl.observe(over as f64 / self.slo.eval_every as f64);
            self.current.store(rung, Ordering::Relaxed);
        }
    }
}

/// Read-only state shared by all workers (plus the one write-once
/// `freeze` latch the warm-restart path flips before shutdown).
struct Shared<T> {
    task: T,
    schemes: Vec<SchemeSpec>,
    batching: Option<BatchRuntime>,
    overload: Option<OverloadRuntime>,
    chaos: Option<ChaosConfig>,
    supervise: Option<SuperviseConfig>,
    /// Set by [`SessionServer::freeze`]: workers hand their open
    /// session slots to the image instead of finishing them.
    freeze: AtomicBool,
}

/// Why a session failed — the typed classification behind
/// [`DrainReport::failure_breakdown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailureKind {
    /// The session poisoned itself (invalid frame, task error) through
    /// its own validation path.
    Poisoned,
    /// The task panicked mid-frame; the worker isolated it.
    Panicked,
    /// A producer's circuit breaker tombstoned the session
    /// ([`SessionServer::break_session`]).
    CircuitBroken,
    /// A chaos fault (injected panic or corrupted frame) killed it.
    ChaosInjected,
    /// Protocol misuse: the session never opened cleanly or was closed
    /// without being known.
    Protocol,
    /// A worker fault found this session further from its last
    /// checkpoint than the supervision replay budget allows; the error
    /// carries the exact budget arithmetic. Only reachable with
    /// supervision armed.
    Unrecovered,
}

/// Session failures counted by [`FailureKind`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FailureBreakdown {
    /// Self-poisoned sessions.
    pub poisoned: usize,
    /// Panic-killed sessions.
    pub panicked: usize,
    /// Circuit-broken sessions.
    pub circuit_broken: usize,
    /// Chaos casualties.
    pub chaos_injected: usize,
    /// Protocol misuse.
    pub protocol: usize,
    /// Sessions lost past the supervision replay budget.
    pub unrecovered: usize,
}

impl FailureBreakdown {
    /// Total failed sessions.
    pub fn total(&self) -> usize {
        self.poisoned
            + self.panicked
            + self.circuit_broken
            + self.chaos_injected
            + self.protocol
            + self.unrecovered
    }
}

/// A live session plus the serving-side state that rides along: its
/// scheme index (to restore the declared EW policy at rung 0), the
/// arrival counter the deterministic fault/pressure schedules key on,
/// the rung currently applied to it, under a pressure plan its own
/// controller replica, and under supervision its recovery ledger.
struct LiveSlot<T: VisionTask> {
    session: Session<T>,
    scheme: usize,
    arrivals: u64,
    applied_rung: usize,
    walk: Option<OverloadController>,
    /// The write-ahead recovery state: the last checkpoint plus the
    /// frames since. `None` when supervision is off.
    ledger: Option<Ledger<T>>,
}

/// A worker's session slot: a live session, or the error that killed it
/// (kept so late frames are counted as dropped, not "unknown session",
/// and so close/drain can report *why* the session died — including the
/// typed [`FailureKind`]). Sessions are boxed so a mostly-dead table
/// stays small.
enum Slot<T: VisionTask> {
    Live(Box<LiveSlot<T>>),
    Dead { error: Error, kind: FailureKind },
}

/// One worker shard's drained statistics.
#[derive(Debug)]
pub struct WorkerStats {
    /// Frames this shard received (served + dropped + shed).
    pub frames: u64,
    /// Frames pushed through a live session successfully.
    pub served: u64,
    /// Frames discarded (dead or never-opened session).
    pub dropped: u64,
    /// Frames shed by the degradation ladder's last-resort rung.
    pub shed: u64,
    /// Submit→dequeue wait per frame, nanoseconds.
    pub queue_wait: LatencyHistogram,
    /// Nanoseconds spent processing messages.
    pub busy_ns: u64,
    /// Nanoseconds from worker start to drain completion.
    pub wall_ns: u64,
    /// Producers that parked on this shard's gate.
    pub parked: u64,
    /// Wake-ups this shard's drains delivered.
    pub woken: u64,
}

impl WorkerStats {
    /// Fraction of the worker's wall time spent processing (`0..=1`).
    pub fn occupancy(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            (self.busy_ns as f64 / self.wall_ns as f64).min(1.0)
        }
    }
}

/// Cross-session NN batching outcome, merged over all workers.
#[derive(Debug, Default)]
pub struct NnServeReport {
    /// I-frame inference jobs charged through batches.
    pub jobs: u64,
    /// Fused batches flushed.
    pub batches: u64,
    /// Array cycles actually charged (batched walk).
    pub batched_cycles: u64,
    /// Array cycles the same jobs would cost solo (`jobs ×` the
    /// per-inference plan).
    pub solo_cycles: u64,
    /// Accelerator energy charged, millijoules.
    pub energy_mj: f64,
    /// DRAM traffic charged, bytes.
    pub dram_bytes: u64,
    /// Realized batch sizes (p50/p99 of this histogram tune
    /// `max_batch`/`max_wait`).
    pub batch_sizes: LatencyHistogram,
}

impl NnServeReport {
    /// Charged cycles over solo cycles: 1.0 means batching bought
    /// nothing; lower is better.
    pub fn amortization(&self) -> f64 {
        if self.solo_cycles == 0 {
            1.0
        } else {
            self.batched_cycles as f64 / self.solo_cycles as f64
        }
    }

    /// Mean realized batch size.
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.jobs as f64 / self.batches as f64
        }
    }

    fn merge(&mut self, other: &NnServeReport) {
        self.jobs += other.jobs;
        self.batches += other.batches;
        self.batched_cycles += other.batched_cycles;
        self.solo_cycles += other.solo_cycles;
        self.energy_mj += other.energy_mj;
        self.dram_bytes += other.dram_bytes;
        self.batch_sizes.merge(&other.batch_sizes);
    }
}

/// How frames got in: parked-producer and admission-control counters,
/// summed over all lanes.
#[derive(Debug, Default, Clone, Copy)]
pub struct IngressReport {
    /// Producers that slept on a full lane.
    pub parked: u64,
    /// Wake-ups delivered by worker dequeues.
    pub woken: u64,
    /// Sends that found capacity immediately.
    pub immediate: u64,
    /// Frames handed back by [`try_submit`][SessionServer::try_submit]
    /// or an expired [`submit_deadline`][SessionServer::submit_deadline].
    pub busy_rejections: u64,
}

/// The merged result of [`SessionServer::drain`]: every session's
/// outcome (keyed by id), cross-worker latency/queue-wait histograms,
/// the frame counters the throughput numbers derive from, per-shard
/// statistics, ingress counters, and (when batching is on) the NN
/// batching report.
#[derive(Debug)]
pub struct DrainReport {
    /// Per-session outcomes plus (for failures) the typed kind, one
    /// entry per opened session.
    outcomes: HashMap<SessionId, (Result<TaskOutcome>, Option<FailureKind>)>,
    /// Submit→completion latency over every successfully served frame.
    pub latency: LatencyHistogram,
    /// Submit→dequeue wait over every received frame.
    pub queue_wait: LatencyHistogram,
    /// Frames received by workers (served + dropped + shed).
    pub frames: u64,
    /// Frames pushed through a live session successfully.
    pub served: u64,
    /// Frames discarded: sent to a dead or never-opened session.
    pub dropped: u64,
    /// Frames shed by the degradation ladder (SLO servers only).
    pub shed: u64,
    /// Per-shard statistics, in worker order (shard balance is
    /// `per_worker[i].frames`).
    pub per_worker: Vec<WorkerStats>,
    /// Ingress counters summed over all lanes.
    pub ingress: IngressReport,
    /// Cross-session NN batching outcome; `None` when batching is off.
    pub nn: Option<NnServeReport>,
    /// The degradation walk and its accounting; `None` without an SLO.
    pub degradation: Option<DegradationReport>,
    /// Faults injected; `None` when chaos is unarmed.
    pub chaos: Option<ChaosReport>,
    /// Worker faults and resurrection accounting; `None` without
    /// supervision.
    pub recovery: Option<RecoveryReport>,
}

impl DrainReport {
    /// Number of sessions that reached the report.
    pub fn sessions(&self) -> usize {
        self.outcomes.len()
    }

    /// One session's outcome (or the error that killed it).
    pub fn outcome(&self, id: SessionId) -> Option<&Result<TaskOutcome>> {
        self.outcomes.get(&id).map(|(outcome, _)| outcome)
    }

    /// Iterates `(id, outcome)` in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&SessionId, &Result<TaskOutcome>)> {
        self.outcomes.iter().map(|(id, (outcome, _))| (id, outcome))
    }

    /// Number of sessions whose outcome is an error.
    pub fn failed_sessions(&self) -> usize {
        self.outcomes.values().filter(|(o, _)| o.is_err()).count()
    }

    /// Why session `id` failed, if it did.
    pub fn failure_kind(&self, id: SessionId) -> Option<FailureKind> {
        self.outcomes
            .get(&id)
            .and_then(|(outcome, kind)| if outcome.is_err() { *kind } else { None })
    }

    /// Failed sessions classified by [`FailureKind`];
    /// `breakdown.total() == failed_sessions()`.
    pub fn failure_breakdown(&self) -> FailureBreakdown {
        let mut b = FailureBreakdown::default();
        for (outcome, kind) in self.outcomes.values() {
            if outcome.is_ok() {
                continue;
            }
            match kind.unwrap_or(FailureKind::Protocol) {
                FailureKind::Poisoned => b.poisoned += 1,
                FailureKind::Panicked => b.panicked += 1,
                FailureKind::CircuitBroken => b.circuit_broken += 1,
                FailureKind::ChaosInjected => b.chaos_injected += 1,
                FailureKind::Protocol => b.protocol += 1,
                FailureKind::Unrecovered => b.unrecovered += 1,
            }
        }
        b
    }

    /// An empty report with a section for every feature `shared` arms.
    fn empty<T>(shared: &Shared<T>) -> Self {
        DrainReport {
            outcomes: HashMap::new(),
            latency: LatencyHistogram::new(),
            queue_wait: LatencyHistogram::new(),
            frames: 0,
            served: 0,
            dropped: 0,
            shed: 0,
            per_worker: Vec::new(),
            ingress: IngressReport::default(),
            nn: shared.batching.as_ref().map(|_| NnServeReport::default()),
            degradation: shared.overload.as_ref().map(|rt| DegradationReport {
                timeline: Vec::new(),
                frames_per_rung: vec![0; rt.slo.ladder.len()],
                shed: 0,
                reconfigs: 0,
                epochs: 0,
                final_rung: 0,
            }),
            chaos: shared.chaos.as_ref().map(|_| ChaosReport::default()),
            recovery: shared.supervise.as_ref().map(|_| RecoveryReport::default()),
        }
    }

    /// Folds `other` into this report: histograms merge, counters add,
    /// `per_worker` concatenates, each section merges (or is taken when
    /// this report lacks it), and outcome maps union with this report's
    /// entry winning on an id conflict — so a post-thaw report keeps the
    /// outcome of the incarnation that saw the session last.
    fn merge(&mut self, other: DrainReport) {
        self.latency.merge(&other.latency);
        self.queue_wait.merge(&other.queue_wait);
        self.frames += other.frames;
        self.served += other.served;
        self.dropped += other.dropped;
        self.shed += other.shed;
        self.per_worker.extend(other.per_worker);
        self.ingress.parked += other.ingress.parked;
        self.ingress.woken += other.ingress.woken;
        self.ingress.immediate += other.ingress.immediate;
        self.ingress.busy_rejections += other.ingress.busy_rejections;
        merge_section(&mut self.nn, other.nn, NnServeReport::merge);
        merge_section(
            &mut self.degradation,
            other.degradation,
            DegradationReport::merge,
        );
        merge_section(&mut self.chaos, other.chaos, ChaosReport::merge);
        merge_section(&mut self.recovery, other.recovery, RecoveryReport::merge);
        for (id, entry) in other.outcomes {
            self.outcomes.entry(id).or_insert(entry);
        }
    }
}

/// Merges an optional report section into another, taking it whole
/// when the target has none.
fn merge_section<R>(into: &mut Option<R>, from: Option<R>, merge: fn(&mut R, &R)) {
    if let Some(part) = from {
        match into {
            Some(total) => merge(total, &part),
            None => *into = Some(part),
        }
    }
}

/// One worker's ingress lane: the bounded transport plus the capacity
/// gate whose permits mirror its bound.
struct Lane {
    tx: SyncSender<Msg>,
    gate: Arc<CapacityGate>,
}

/// A sharded, backpressured session server over `N` worker threads.
///
/// See the [crate docs](self) for the serving model. The server is
/// `Sync`: [`open`][SessionServer::open],
/// [`try_submit`][SessionServer::try_submit],
/// [`submit_blocking`][SessionServer::submit_blocking] and
/// [`close`][SessionServer::close] take `&self` and may be called from
/// any number of producer threads concurrently (each call resolves one
/// lane, takes one permit, and performs one channel operation).
/// [`drain`][SessionServer::drain] consumes the server.
pub struct SessionServer<T: VisionTask> {
    shared: Arc<Shared<T>>,
    lanes: Vec<Lane>,
    /// One thread per lane, in lane order.
    workers: Vec<JoinHandle<Drained<T>>>,
    /// Pre-freeze statistics carried through [`thaw`][Self::thaw],
    /// merged into the final drain.
    carry: Option<Box<DrainReport>>,
    busy_rejections: AtomicU64,
    /// Admission sequence number (only advanced while the chaos
    /// rejection channel is armed — keeps the fault schedule a pure
    /// function of the submit order).
    submit_seq: AtomicU64,
    chaos_rejections: AtomicU64,
}

impl<T> SessionServer<T>
where
    T: VisionTask + Clone + Send + Sync + 'static,
    T::State: Send + Clone,
{
    /// Starts a server: `config.workers` threads, each with a bounded,
    /// gated lane, all sharing one read-only scheme registry (and, when
    /// batching is enabled, one table of pre-planned batch costs).
    ///
    /// # Errors
    ///
    /// Rejects an empty or duplicate-id scheme registry, zero-sized
    /// worker pools or queues, a zero `max_batch`, an invalid
    /// [`SloConfig`], and a chaos pressure plan without an SLO to
    /// drive.
    pub fn new(
        task: T,
        schemes: impl IntoIterator<Item = SchemeSpec>,
        config: ServeConfig,
    ) -> Result<Self> {
        Self::boot(
            task,
            schemes.into_iter().collect(),
            config,
            Vec::new(),
            None,
        )
    }

    /// The shared construction path behind [`new`][Self::new] and
    /// [`thaw`][Self::thaw]: validates, shards any thawed sessions onto
    /// their lanes, and spawns one worker thread per lane.
    fn boot(
        task: T,
        schemes: Vec<SchemeSpec>,
        config: ServeConfig,
        initial: Vec<(SessionId, Slot<T>)>,
        carry: Option<Box<DrainReport>>,
    ) -> Result<Self> {
        if schemes.is_empty() {
            return Err(Error::config("server needs at least one scheme"));
        }
        let mut seen = BTreeSet::new();
        for spec in &schemes {
            if !seen.insert(spec.id.clone()) {
                return Err(Error::config(format!("duplicate scheme id `{}`", spec.id)));
            }
        }
        if config.workers == 0 || config.queue_depth == 0 {
            return Err(Error::config(
                "server needs at least one worker and a positive queue depth",
            ));
        }
        let batching = match config.nn_batching {
            Some(nb) => {
                if nb.max_batch == 0 {
                    return Err(Error::config("nn batching needs max_batch >= 1"));
                }
                let engine = NnxEngine::default();
                let plans = (1..=nb.max_batch)
                    .map(|b| engine.plan_batch(&nb.network, b as u32))
                    .collect();
                Some(BatchRuntime {
                    max_batch: nb.max_batch,
                    max_wait: nb.max_wait,
                    plans,
                    solo: engine.plan(&nb.network),
                })
            }
            None => None,
        };
        if let Some(chaos) = &config.chaos {
            if chaos.pressure.is_some() && config.slo.is_none() {
                return Err(Error::config(
                    "a chaos pressure plan needs an SLO (ServeConfig::with_slo) to drive",
                ));
            }
            if (chaos.kill_every != 0 || chaos.wedge_every != 0) && config.supervise.is_none() {
                return Err(Error::config(
                    "chaos worker kills/wedges need supervision \
                     (ServeConfig::with_supervision) to recover from",
                ));
            }
        }
        if let Some(sup) = &config.supervise {
            sup.validate()?;
        }
        let overload = match config.slo {
            Some(slo) => {
                let template = OverloadController::new(slo.clone())?;
                Some(OverloadRuntime {
                    slo,
                    plan: config.chaos.as_ref().and_then(|c| c.pressure),
                    controller: Mutex::new(template.clone()),
                    template,
                    current: AtomicUsize::new(0),
                    epoch_frames: AtomicU64::new(0),
                    epoch_over: AtomicU64::new(0),
                })
            }
            None => None,
        };
        let shared = Arc::new(Shared {
            task,
            schemes,
            batching,
            overload,
            chaos: config.chaos,
            supervise: config.supervise.clone(),
            freeze: AtomicBool::new(false),
        });
        // Thawed sessions land on the lane their id hashes to — the
        // same shard function live traffic uses, at whatever worker
        // count *this* incarnation runs.
        let mut tables: Vec<HashMap<SessionId, Slot<T>>> =
            (0..config.workers).map(|_| HashMap::new()).collect();
        for (id, slot) in initial {
            let lane = (rngx::counter_hash(SHARD_STREAM, id) % config.workers as u64) as usize;
            tables[lane].insert(id, slot);
        }
        let mut lanes = Vec::with_capacity(config.workers);
        let mut workers = Vec::with_capacity(config.workers);
        for (windex, table) in tables.into_iter().enumerate() {
            let (tx, rx) = sync_channel(config.queue_depth);
            let gate = Arc::new(CapacityGate::new(config.queue_depth));
            lanes.push(Lane {
                tx,
                gate: Arc::clone(&gate),
            });
            let shared = Arc::clone(&shared);
            workers.push(std::thread::spawn(move || {
                worker_loop(Worker::new(shared, windex as u64, table), rx, gate)
            }));
        }
        Ok(SessionServer {
            shared,
            lanes,
            workers,
            carry,
            busy_rejections: AtomicU64::new(0),
            submit_seq: AtomicU64::new(0),
            chaos_rejections: AtomicU64::new(0),
        })
    }

    /// The worker (shard) count.
    pub fn workers(&self) -> usize {
        self.lanes.len()
    }

    /// The registered schemes, in registration order.
    pub fn schemes(&self) -> &[SchemeSpec] {
        &self.shared.schemes
    }

    /// Which worker serves `id`.
    fn shard(&self, id: SessionId) -> usize {
        (rngx::counter_hash(SHARD_STREAM, id) % self.lanes.len() as u64) as usize
    }

    /// Opens session `id` under the named scheme at `resolution`,
    /// parking if the lane is momentarily full (control messages are
    /// rare relative to frames and the lane is guaranteed to drain);
    /// re-opening a live id flushes the old session into the drain
    /// report and starts fresh.
    ///
    /// # Errors
    ///
    /// Rejects unknown scheme ids.
    pub fn open(&self, id: SessionId, scheme: &str, resolution: Resolution) -> Result<()> {
        let idx = self
            .shared
            .schemes
            .iter()
            .position(|s| s.id.as_str() == scheme)
            .ok_or_else(|| Error::config(format!("unknown scheme id `{scheme}`")))?;
        self.send_parked(
            self.shard(id),
            Msg::Open {
                id,
                scheme: idx,
                resolution,
            },
        )
    }

    /// Offers one frame to session `id`'s lane without blocking:
    /// [`Submit::Enqueued`] on success, [`Submit::Busy`] (frame handed
    /// back) when the lane is at its bound. Frames for ids that were
    /// never opened are accepted here and counted as dropped by the
    /// worker — admission control is per-lane, not per-session.
    pub fn try_submit(&self, id: SessionId, frame: Arc<FrameData>) -> Submit {
        if self.chaos_reject() {
            return Submit::Busy(frame);
        }
        let lane = self.shard(id);
        if !self.lanes[lane].gate.try_acquire() {
            self.busy_rejections.fetch_add(1, Ordering::Relaxed);
            return Submit::Busy(frame);
        }
        self.send_frame_with_permit(lane, id, frame)
    }

    /// The chaos forced-saturation channel: pretends the lane is full
    /// for a deterministic subset of non-blocking/deadline admissions.
    /// [`submit_blocking`][SessionServer::submit_blocking] is exempt —
    /// it has no `Busy` verdict to fake.
    fn chaos_reject(&self) -> bool {
        let Some(chaos) = self.shared.chaos.as_ref() else {
            return false;
        };
        if chaos.reject_every == 0 {
            return false;
        }
        let seq = self.submit_seq.fetch_add(1, Ordering::Relaxed);
        if chaos.reject_at(seq) {
            self.chaos_rejections.fetch_add(1, Ordering::Relaxed);
            self.busy_rejections.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Submits one frame, **parking** until its lane has capacity: the
    /// producer sleeps on the lane's condvar and is woken exactly when
    /// the worker drains a slot — never a spin-yield retry.
    ///
    /// # Errors
    ///
    /// Returns an error only if the worker has vanished (a server bug;
    /// workers isolate session panics).
    pub fn submit_blocking(&self, id: SessionId, frame: Arc<FrameData>) -> Result<()> {
        let lane = self.shard(id);
        self.lanes[lane].gate.acquire();
        match self.send_frame_with_permit(lane, id, frame) {
            Submit::Enqueued => Ok(()),
            Submit::Busy(_) => Err(Error::config(format!("serve worker {lane} is gone"))),
        }
    }

    /// Submits one frame, parking for at most `timeout`:
    /// [`Submit::Busy`] hands the frame back when the deadline passes
    /// with the lane still full.
    pub fn submit_deadline(
        &self,
        id: SessionId,
        frame: Arc<FrameData>,
        timeout: Duration,
    ) -> Submit {
        if self.chaos_reject() {
            return Submit::Busy(frame);
        }
        let lane = self.shard(id);
        if !self.lanes[lane].gate.acquire_timeout(timeout) {
            self.busy_rejections.fetch_add(1, Ordering::Relaxed);
            return Submit::Busy(frame);
        }
        self.send_frame_with_permit(lane, id, frame)
    }

    /// Completes a frame send under an already-held permit. A held
    /// permit guarantees a free channel slot (permits mirror the
    /// bound), so the send never blocks; a vanished worker hands the
    /// frame back.
    fn send_frame_with_permit(&self, lane: usize, id: SessionId, frame: Arc<FrameData>) -> Submit {
        let msg = Msg::Frame {
            id,
            frame,
            at: Instant::now(),
        };
        match self.lanes[lane].tx.send(msg) {
            Ok(()) => Submit::Enqueued,
            Err(back) => {
                self.lanes[lane].gate.release();
                let Msg::Frame { frame, .. } = back.0 else {
                    unreachable!("frame sends only carry frames")
                };
                Submit::Busy(frame)
            }
        }
    }

    /// Finishes session `id`: its outcome (or the error that killed it)
    /// becomes part of the drain report. Like
    /// [`open`][SessionServer::open], parks briefly on a momentarily
    /// full lane.
    ///
    /// # Errors
    ///
    /// Currently infallible for live servers; returns an error only if
    /// the worker has vanished.
    pub fn close(&self, id: SessionId) -> Result<()> {
        self.send_parked(self.shard(id), Msg::Close { id })
    }

    /// Trips the circuit breaker on session `id`: the session is
    /// tombstoned with `reason` as a typed
    /// [`FailureKind::CircuitBroken`] failure, late frames for it are
    /// dropped, and the eventual close/drain reports the reason. Used
    /// by [`feed_sequence_with`] when a producer gives up on a session;
    /// callable directly by any supervisor.
    ///
    /// # Errors
    ///
    /// Returns an error only if the worker has vanished.
    pub fn break_session(&self, id: SessionId, reason: impl Into<String>) -> Result<()> {
        self.send_parked(
            self.shard(id),
            Msg::Fail {
                id,
                error: Error::state(reason.into()),
            },
        )
    }

    /// The degradation rung currently driving the worker-level knobs
    /// (0 — nominal — when no SLO is configured).
    pub fn current_rung(&self) -> usize {
        self.shared
            .overload
            .as_ref()
            .map_or(0, |rt| rt.current.load(Ordering::Relaxed))
    }

    /// `base` with the current rung's cheaper motion-search
    /// recommendation applied (identity at nominal or without an SLO).
    /// Motion estimation runs client-side, so the server can only
    /// advise: producers that re-render under pressure should route
    /// their [`MotionConfig`] through this before building frames.
    pub fn degraded_motion(&self, base: &MotionConfig) -> MotionConfig {
        let mut config = *base;
        if let Some(rt) = self.shared.overload.as_ref() {
            let rung = &rt.slo.ladder.rungs[rt.current.load(Ordering::Relaxed)];
            if let Some(hint) = rung.motion_hint {
                config.strategy = hint;
            }
        }
        config
    }

    /// Shuts down gracefully: closes every lane, lets each worker
    /// finish its queued messages and flush all still-open sessions,
    /// then merges the per-worker reports.
    pub fn drain(self) -> DrainReport {
        self.shutdown().0
    }

    /// Warm-restart half one: shuts the server down with every open
    /// session slot moved into the image instead of finished. The
    /// returned [`ServerImage`] plus [`thaw`][Self::thaw] rebuilds a
    /// server whose sessions continue bit-exactly where they froze.
    /// Statistics accumulated so far ride inside the image and are
    /// merged into the final drain.
    pub fn freeze(self) -> ServerImage<T> {
        self.shared.freeze.store(true, Ordering::Relaxed);
        let task = self.shared.task.clone();
        let schemes = self.shared.schemes.clone();
        let (carry, mut sessions) = self.shutdown();
        // Deterministic image: session order is id order, not the
        // worker-join order of whatever incarnation froze.
        sessions.sort_by_key(|(id, _)| *id);
        ServerImage {
            task,
            schemes,
            sessions,
            carry,
        }
    }

    /// Warm-restart half two: rebuilds a running server from a
    /// [`freeze`][Self::freeze] image under a fresh `config` (any
    /// worker count — sessions re-shard by id). Scheme registry and
    /// task come from the image; pre-freeze statistics carry into the
    /// final [`DrainReport`].
    ///
    /// # Errors
    ///
    /// Same validation as [`new`][Self::new].
    pub fn thaw(image: ServerImage<T>, config: ServeConfig) -> Result<Self> {
        let ServerImage {
            task,
            schemes,
            sessions,
            carry,
        } = image;
        Self::boot(task, schemes, config, sessions, Some(Box::new(carry)))
    }

    /// The common teardown behind [`drain`][Self::drain] and
    /// [`freeze`][Self::freeze]: close lanes, join the workers, fold
    /// their reports and the thaw carry, then derive the degradation
    /// walk once.
    fn shutdown(self) -> Drained<T> {
        drop(self.lanes);
        let mut report = DrainReport::empty(&self.shared);
        let mut frozen = Vec::new();
        for handle in self.workers {
            let (part, slots) = handle
                .join()
                .expect("serve workers isolate session panics and never die");
            report.merge(part);
            frozen.extend(slots);
        }
        report.ingress.busy_rejections += self.busy_rejections.load(Ordering::Relaxed);
        if let Some(chaos) = report.chaos.as_mut() {
            chaos.rejections += self.chaos_rejections.load(Ordering::Relaxed);
        }
        if let Some(carry) = self.carry {
            // `per_worker` stays per-incarnation: the worker count may
            // have changed across the restart.
            let mut carry = *carry;
            carry.per_worker.clear();
            report.merge(carry);
        }
        if let (Some(rt), Some(walk)) = (self.shared.overload.as_ref(), report.degradation.as_mut())
        {
            // Planned mode: the canonical (thread-count-independent)
            // walk is the template replayed over the pure pressure plan
            // for as many epochs as any session reached, in any
            // incarnation. Measured mode: the global controller's own
            // history (a poisoned lock just means a worker died
            // mid-epoch; its state is still valid).
            let ctl = match &rt.plan {
                Some(plan) => {
                    let mut ctl = rt.template.clone();
                    for epoch in 0..walk.epochs {
                        ctl.observe(plan.over_frac(epoch));
                    }
                    ctl
                }
                None => rt
                    .controller
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .clone(),
            };
            walk.timeline = ctl.timeline().to_vec();
            walk.epochs = ctl.epochs();
            walk.final_rung = ctl.rung();
        }
        (report, frozen)
    }

    /// A live snapshot of the ingress counters (the same numbers
    /// [`drain`][SessionServer::drain] reports, sampled mid-flight) —
    /// lets saturation tests and monitors observe parking as it
    /// happens.
    pub fn ingress_snapshot(&self) -> IngressReport {
        let mut report = IngressReport {
            busy_rejections: self.busy_rejections.load(Ordering::Relaxed),
            ..IngressReport::default()
        };
        for lane in &self.lanes {
            let gs = lane.gate.stats();
            report.parked += gs.parked;
            report.woken += gs.woken;
            report.immediate += gs.immediate;
        }
        report
    }

    /// Parked send for rare control messages; maps a vanished worker to
    /// a clean error instead of a panic (drain will surface it).
    fn send_parked(&self, lane: usize, msg: Msg) -> Result<()> {
        self.lanes[lane].gate.acquire();
        self.lanes[lane].tx.send(msg).map_err(|_| {
            self.lanes[lane].gate.release();
            Error::config(format!("serve worker {lane} is gone"))
        })
    }
}

/// Per-worker accumulator for the cross-session batch window: counts
/// pending I-frame jobs (decisions are produced synchronously by the
/// session — only *cost attribution* is deferred) and remembers when
/// the window opened.
struct BatchCollector {
    pending: usize,
    opened_at: Option<Instant>,
}

impl BatchCollector {
    fn new() -> Self {
        BatchCollector {
            pending: 0,
            opened_at: None,
        }
    }

    /// Registers one inference job; returns `true` when the batch hit
    /// `max_batch` and must flush now.
    fn add(&mut self, max_batch: usize) -> bool {
        if self.pending == 0 {
            self.opened_at = Some(Instant::now());
        }
        self.pending += 1;
        self.pending >= max_batch
    }

    /// The instant the open window expires, if one is open.
    fn deadline(&self, max_wait: Duration) -> Option<Instant> {
        self.opened_at.map(|at| at + max_wait)
    }

    /// Closes the window, returning the fused batch size.
    fn take(&mut self) -> Option<usize> {
        self.opened_at = None;
        let n = std::mem::take(&mut self.pending);
        (n > 0).then_some(n)
    }
}

/// Charges one flushed batch of `jobs` inferences into the worker's NN
/// report using the pre-planned batch costs.
fn charge_batch(report: &mut NnServeReport, runtime: &BatchRuntime, jobs: usize) {
    let plan = &runtime.plans[jobs - 1];
    report.jobs += jobs as u64;
    report.batches += 1;
    report.batched_cycles += plan.compute_cycles();
    report.solo_cycles += jobs as u64 * runtime.solo.stats().total_compute_cycles().0;
    report.energy_mj += plan.energy().0;
    report.dram_bytes += plan.dram_read().0 + plan.dram_write().0;
    report.batch_sizes.record(jobs as u64);
}

/// What a worker hands back at drain: its report, plus the slots it
/// kept for the image when the server is freezing.
type Drained<T> = (DrainReport, Vec<(SessionId, Slot<T>)>);

/// One worker thread: the receive with the batch deadline, the permit
/// release — the other half of the parked-producer protocol — the
/// dequeue tick, and busy-time accounting. Everything else is the
/// [`Worker`]'s. Runs until every sender is dropped.
fn worker_loop<T>(mut worker: Worker<T>, rx: Receiver<Msg>, gate: Arc<CapacityGate>) -> Drained<T>
where
    T: VisionTask + Clone,
    T::State: Clone,
{
    let started = Instant::now();
    let mut busy_ns = 0u64;
    let mut dequeues = 0u64;
    loop {
        // While a batch window is open, wait only until its deadline;
        // otherwise block for the next message.
        let msg = match worker.batch_deadline() {
            Some(deadline) => {
                match rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
                    Ok(msg) => msg,
                    Err(RecvTimeoutError::Timeout) => {
                        worker.flush();
                        continue;
                    }
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            }
            None => match rx.recv() {
                Ok(msg) => msg,
                Err(_) => break,
            },
        };
        gate.release();
        worker.inject_faults(&msg, dequeues);
        dequeues += 1;
        let busy_from = Instant::now();
        worker.handle(msg);
        busy_ns += busy_from.elapsed().as_nanos() as u64;
    }
    worker.finish(started, busy_ns, &gate)
}

/// Everything one worker owns: its session table (each live slot with
/// its own recovery ledger), its batch collector, and its counters in
/// the shape of a one-worker [`DrainReport`].
struct Worker<T: VisionTask> {
    shared: Arc<Shared<T>>,
    windex: u64,
    sessions: HashMap<SessionId, Slot<T>>,
    collector: BatchCollector,
    /// The chaos corruption channel's substitute: a tiny frame of the
    /// wrong resolution, so the corruption travels the same validation
    /// (and poison) path a malformed client frame would.
    corrupt_frame: Option<FrameData>,
    report: DrainReport,
}

impl<T> Worker<T>
where
    T: VisionTask + Clone,
    T::State: Clone,
{
    /// A worker born with `sessions` (a thawed table): under
    /// supervision each live slot's ledger restarts from a genesis
    /// checkpoint under this server's config.
    fn new(shared: Arc<Shared<T>>, windex: u64, mut sessions: HashMap<SessionId, Slot<T>>) -> Self {
        for slot in sessions.values_mut() {
            if let Slot::Live(live) = slot {
                live.restart_ledger(shared.supervise.is_some());
            }
        }
        let corrupt_frame = shared
            .chaos
            .as_ref()
            .filter(|c| c.corrupt_every != 0)
            .map(|_| {
                FrameData::new(
                    Vec::new(),
                    MotionField::zeroed(Resolution::new(2, 2), 2, 1)
                        .expect("a 2x2 zero field is always constructible"),
                )
            });
        Worker {
            report: DrainReport::empty(&shared),
            shared,
            windex,
            sessions,
            collector: BatchCollector::new(),
            corrupt_frame,
        }
    }

    /// When the open batch window must flush: `max_wait` after it
    /// opened, shrunk by the current rung's shift (degraded servers
    /// trade amortization for latency). `None` while no window is open.
    fn batch_deadline(&self) -> Option<Instant> {
        let batching = self.shared.batching.as_ref()?;
        let max_wait = match self.shared.overload.as_ref() {
            Some(rt) => {
                let rung = rt.current.load(Ordering::Relaxed);
                let shift = rt.slo.ladder.rungs[rung].max_wait_shift.min(63);
                Duration::from_nanos((batching.max_wait.as_nanos() as u64) >> shift)
            }
            None => batching.max_wait,
        };
        self.collector.deadline(max_wait)
    }

    /// The worker-level chaos faults drawn at dequeue `tick`: a stall
    /// sleeps, a wedge costs the worker its session table, which it
    /// rebuilds in place before handling `msg`.
    fn inject_faults(&mut self, msg: &Msg, tick: u64) {
        let Some(chaos) = self.shared.chaos.as_ref() else {
            return;
        };
        if chaos.stall_at(self.windex, tick) {
            self.report.chaos.get_or_insert_default().stalls += 1;
            std::thread::sleep(chaos.stall);
        }
        if chaos.wedge_at(self.windex, tick) {
            self.report.chaos.get_or_insert_default().wedges += 1;
            self.recover(IncidentKind::Wedge, msg.session(), tick);
        }
    }

    /// Processes one message.
    fn handle(&mut self, msg: Msg) {
        match msg {
            Msg::Open {
                id,
                scheme,
                resolution,
            } => self.open(id, scheme, resolution),
            Msg::Frame { id, frame, at } => self.frame(id, frame, at),
            Msg::Close { id } => {
                let entry = match self.sessions.remove(&id) {
                    Some(slot) => finish_slot(slot),
                    None => (
                        Err(Error::config(format!("close of unknown session {id}"))),
                        Some(FailureKind::Protocol),
                    ),
                };
                self.report.outcomes.insert(id, entry);
            }
            // The tombstone replaces whatever was there; a live
            // session's partial outcome is deliberately discarded — the
            // breaker reason is the record.
            Msg::Fail { id, error } => {
                let kind = FailureKind::CircuitBroken;
                self.sessions.insert(id, Slot::Dead { error, kind });
            }
        }
    }

    fn open(&mut self, id: SessionId, scheme: usize, resolution: Resolution) {
        let shared = &*self.shared;
        let backend = shared.schemes[scheme].backend;
        let slot = match Session::new(shared.task.clone(), backend, resolution, id) {
            Ok(session) => {
                let mut live = LiveSlot {
                    session,
                    scheme,
                    arrivals: 0,
                    applied_rung: 0,
                    walk: shared
                        .overload
                        .as_ref()
                        .filter(|rt| rt.plan.is_some())
                        .map(|rt| rt.template.clone()),
                    ledger: None,
                };
                live.restart_ledger(shared.supervise.is_some());
                Slot::Live(Box::new(live))
            }
            Err(error) => Slot::Dead {
                error,
                kind: FailureKind::Protocol,
            },
        };
        if let Some(old) = self.sessions.insert(id, slot) {
            self.report.outcomes.insert(id, finish_slot(old));
        }
    }

    fn frame(&mut self, id: SessionId, frame: Arc<FrameData>, at: Instant) {
        // Chaos worker kill: keyed on the target session's next arrival
        // index (worker-count invariant), drawn *before* any counter so
        // the frame is counted exactly once — by the rebuilt table.
        let kill = self
            .shared
            .chaos
            .as_ref()
            .filter(|c| c.kill_every != 0)
            .and_then(|chaos| match self.sessions.get(&id) {
                Some(Slot::Live(slot)) if chaos.kill_at(id, slot.arrivals) => Some(slot.arrivals),
                _ => None,
            });
        if let Some(arrival) = kill {
            self.report.chaos.get_or_insert_default().kills += 1;
            self.recover(IncidentKind::WorkerKill, id, arrival);
        }
        self.report.frames += 1;
        let wait_ns = at.elapsed().as_nanos() as u64;
        self.report.queue_wait.record(wait_ns);
        let shared = &*self.shared;
        if let Some(rt) = shared.overload.as_ref() {
            rt.pool_pressure(wait_ns);
        }
        let Some(Slot::Live(slot)) = self.sessions.get_mut(&id) else {
            self.report.dropped += 1;
            return;
        };
        // Write-ahead: log the frame *before* processing — shed frames
        // included, since they still advance the arrival counter and the
        // planned walk and must be re-shed identically on replay.
        if let (Some(ledger), Some(sup)) = (slot.ledger.as_mut(), shared.supervise.as_ref()) {
            ledger.log(&frame, sup.replay_budget);
        }
        let (inject_panic, corrupt) = match shared.chaos.as_ref() {
            Some(c) => (
                c.panic_at(id, slot.arrivals),
                c.corrupt_at(id, slot.arrivals),
            ),
            None => (false, false),
        };
        let substitute = if corrupt {
            self.corrupt_frame.as_ref()
        } else {
            None
        };
        let arrival = slot.arrive(
            shared,
            &frame,
            Some(wait_ns),
            self.report.degradation.as_mut(),
            inject_panic,
            substitute,
        );
        if !matches!(arrival, Arrival::Shed) {
            if let Some(c) = self.report.chaos.as_mut() {
                c.corrupted += u64::from(corrupt);
                c.panics += u64::from(inject_panic);
            }
        }
        let inference = match arrival {
            Arrival::Shed => {
                self.report.shed += 1;
                false
            }
            Arrival::Pushed(decision) => {
                self.report.served += 1;
                self.report.latency.record(at.elapsed().as_nanos() as u64);
                decision.is_inference()
            }
            Arrival::Failed(error, kind) => {
                self.report.dropped += 1;
                self.sessions.insert(id, Slot::Dead { error, kind });
                return;
            }
        };
        // Checkpoint refresh on the arrival cadence. Cadence points are
        // pure arrival multiples, so a session's replay distance at any
        // fault is `arrival % checkpoint_every` at every worker count.
        if let Some(sup) = shared.supervise.as_ref() {
            if slot.arrivals % sup.checkpoint_every == 0 {
                slot.restart_ledger(true);
            }
        }
        if let Some(rt) = shared.batching.as_ref() {
            if inference && self.collector.add(rt.max_batch) {
                self.flush();
            }
        }
    }

    /// Flushes the open batch window into the NN report (on a window
    /// timeout, a full batch, a recovery, and drain).
    fn flush(&mut self) {
        if let Some(rt) = self.shared.batching.as_ref() {
            if let (Some(nn), Some(jobs)) = (self.report.nn.as_mut(), self.collector.take()) {
                charge_batch(nn, rt, jobs);
            }
        }
    }

    /// In-place recovery from a chaos kill or wedge. The fault costs the
    /// worker its session table, as a thread death would: this flushes
    /// the open batch window, records the incident, and rebuilds the
    /// table ([`resurrect`][Self::resurrect]). The caller then
    /// processes the faulting message with no new fault drawn for the
    /// same tick.
    fn recover(&mut self, kind: IncidentKind, session: SessionId, tick: u64) {
        self.flush();
        // A kill strands the triggering session's replay log; a wedge
        // strikes between messages, so it charges no replay distance.
        let (replay_lag, recovered) = match (kind, self.sessions.get(&session)) {
            (IncidentKind::WorkerKill, Some(Slot::Live(slot))) => {
                slot.ledger.as_ref().map_or((0, true), |l| (l.lag, !l.lost))
            }
            _ => (0, true),
        };
        let incident = RecoveryIncident {
            kind,
            session,
            tick,
            replay_lag,
            recovered,
        };
        self.report
            .recovery
            .get_or_insert_default()
            .incidents
            .push(incident);
        self.resurrect();
    }

    /// Rebuilds the session table in place from the slots' own ledgers.
    /// Tombstones are kept. A slot whose log outgrew the replay budget
    /// becomes an [`FailureKind::Unrecovered`] tombstone with the exact
    /// arithmetic in its error. Every other live slot is restored from
    /// its checkpoint and its log replayed through
    /// [`LiveSlot::arrive`], counter-free. Replay draws no chaos: a
    /// frame only enters the log after surviving its kill draw, and a
    /// frame whose injected panic or corruption killed the session left
    /// a tombstone, so logged frames are exactly the fault-free ones.
    fn resurrect(&mut self) {
        let shared = &*self.shared;
        let budget = shared.supervise.as_ref().map_or(0, |s| s.replay_budget);
        let recovery = self.report.recovery.get_or_insert_default();
        for (id, slot) in self.sessions.iter_mut() {
            let Slot::Live(live) = slot else {
                continue;
            };
            let ledger = live
                .ledger
                .take()
                .expect("faults are gated on supervision, which ledgers every live slot");
            let error = if ledger.lost {
                Error::state(format!(
                    "unrecovered session {id}: worker died {} frames past the last \
                     checkpoint, over the replay budget of {budget}",
                    ledger.lag,
                ))
            } else {
                let mut restored = LiveSlot::restore(ledger.checkpoint.clone());
                let mut diverged = None;
                for frame in &ledger.replay {
                    recovery.replayed_frames += 1;
                    if let Arrival::Failed(e, _) =
                        restored.arrive(shared, frame, None, None, false, None)
                    {
                        diverged = Some(e);
                        break;
                    }
                }
                match diverged {
                    None => {
                        restored.ledger = Some(ledger);
                        **live = restored;
                        recovery.resurrected += 1;
                        continue;
                    }
                    Some(e) => {
                        Error::state(format!("unrecovered session {id}: replay diverged: {e}"))
                    }
                }
            };
            recovery.unrecovered += 1;
            *slot = Slot::Dead {
                error,
                kind: FailureKind::Unrecovered,
            };
        }
    }

    /// Lanes closed: flushes the open batch, then settles everything
    /// still open — as outcomes normally, as slots for the image when
    /// the server is freezing for a warm restart — and returns the
    /// worker's one-entry report.
    fn finish(mut self, started: Instant, busy_ns: u64, gate: &CapacityGate) -> Drained<T> {
        self.flush();
        let wall_ns = started.elapsed().as_nanos() as u64;
        let mut report = self.report;
        let frozen = if self.shared.freeze.load(Ordering::Relaxed) {
            self.sessions.into_iter().collect()
        } else {
            for (id, slot) in self.sessions {
                report.outcomes.insert(id, finish_slot(slot));
            }
            Vec::new()
        };
        let gs = gate.stats();
        report.ingress.parked = gs.parked;
        report.ingress.woken = gs.woken;
        report.ingress.immediate = gs.immediate;
        if let Some(walk) = report.degradation.as_mut() {
            walk.shed = report.shed;
        }
        report.per_worker.push(WorkerStats {
            frames: report.frames,
            served: report.served,
            dropped: report.dropped,
            shed: report.shed,
            queue_wait: report.queue_wait.clone(),
            busy_ns,
            wall_ns,
            parked: gs.parked,
            woken: gs.woken,
        });
        (report, frozen)
    }
}

/// What one arrival did to its session.
enum Arrival {
    /// The degradation ladder shed the frame.
    Shed,
    /// The session processed the frame.
    Pushed(FrameDecision),
    /// The frame killed the session: the error and its typed kind.
    Failed(Error, FailureKind),
}

impl<T> LiveSlot<T>
where
    T: VisionTask + Clone,
    T::State: Clone,
{
    /// One arrival, the single path of live frames and recovery replay:
    /// advances the arrival counter, resolves the degradation decision
    /// ([`schedule_arrival`]), and unless shed pushes the frame — or
    /// the chaos `substitute` — with an injected panic when
    /// `inject_panic`. The push runs under an unwind guard: one
    /// session's panic, organic or injected, must not take down the
    /// worker or the other sessions on its shard.
    fn arrive(
        &mut self,
        shared: &Shared<T>,
        frame: &FrameData,
        wait_ns: Option<u64>,
        degradation: Option<&mut DegradationReport>,
        inject_panic: bool,
        substitute: Option<&FrameData>,
    ) -> Arrival {
        let arrival = self.arrivals;
        self.arrivals += 1;
        if schedule_arrival(shared, self, arrival, wait_ns, degradation) {
            return Arrival::Shed;
        }
        let pushed = substitute.unwrap_or(frame);
        match std::panic::catch_unwind(AssertUnwindSafe(|| {
            if inject_panic {
                panic!("chaos: injected task panic");
            }
            self.session.push_frame(pushed)
        })) {
            Ok(Ok(decision)) => Arrival::Pushed(decision),
            Ok(Err(error)) => {
                let kind = if substitute.is_some() {
                    FailureKind::ChaosInjected
                } else {
                    FailureKind::Poisoned
                };
                Arrival::Failed(error, kind)
            }
            Err(payload) => {
                let kind = if inject_panic {
                    FailureKind::ChaosInjected
                } else {
                    FailureKind::Panicked
                };
                let error =
                    Error::config(format!("session task panicked: {}", panic_text(payload)));
                Arrival::Failed(error, kind)
            }
        }
    }

    /// Captures the slot (core session snapshot + serve-side schedule
    /// state) into a checkpoint.
    fn checkpoint(&self) -> SlotCheckpoint<T> {
        SlotCheckpoint {
            session: self.session.snapshot(),
            scheme: self.scheme,
            arrivals: self.arrivals,
            applied_rung: self.applied_rung,
            walk: self.walk.clone(),
        }
    }

    /// Rebuilds a slot from a checkpoint, with no ledger.
    fn restore(cp: SlotCheckpoint<T>) -> Self {
        LiveSlot {
            session: Session::restore(cp.session),
            scheme: cp.scheme,
            arrivals: cp.arrivals,
            applied_rung: cp.applied_rung,
            walk: cp.walk,
            ledger: None,
        }
    }

    /// Restarts the slot's ledger at a checkpoint of its current state
    /// when `supervised`; drops it otherwise.
    fn restart_ledger(&mut self, supervised: bool) {
        self.ledger = supervised.then(|| Ledger::new(self.checkpoint()));
    }
}

/// Resolves one arrival's degradation decision for a session slot: in
/// planned mode advances the slot's own controller replica on the
/// arrival index, in measured mode reads the global rung; applies the
/// rung's EW policy via `Session::reconfigure_policy` when it changes,
/// and returns whether the frame is shed.
///
/// The live path passes `Some` for both `wait_ns` and `report`; the
/// recovery **replay** path passes `None` for both — replay rebuilds
/// session *state* (walk, policy, arrivals) without touching any
/// counter or the global rung, because every replayed frame was already
/// counted when it was first processed. Under a planned pressure plan
/// the shed decision is a pure function of the arrival index, so replay
/// re-sheds exactly the frames the live path shed; in measured mode
/// replay never sheds (documented best-effort — measured rungs are
/// wall-clock-driven and not replayable).
fn schedule_arrival<T>(
    shared: &Shared<T>,
    slot: &mut LiveSlot<T>,
    arrival: u64,
    wait_ns: Option<u64>,
    mut report: Option<&mut DegradationReport>,
) -> bool
where
    T: VisionTask + Clone,
{
    let Some(rt) = shared.overload.as_ref() else {
        return false;
    };
    let rung = match (&rt.plan, slot.walk.as_mut()) {
        (Some(plan), Some(walk)) => {
            if arrival.is_multiple_of(rt.slo.eval_every) {
                let epoch = arrival / rt.slo.eval_every;
                let r = walk.observe(plan.over_frac(epoch));
                if let Some(report) = report.as_deref_mut() {
                    report.epochs = report.epochs.max(epoch + 1);
                    rt.current.store(r, Ordering::Relaxed);
                }
            }
            walk.rung()
        }
        _ => rt.current.load(Ordering::Relaxed),
    };
    if let Some(report) = report.as_deref_mut() {
        report.frames_per_rung[rung] += 1;
    }
    if rung != slot.applied_rung {
        let policy = match rt.slo.ladder.rungs[rung].ew_window {
            Some(n) => EwPolicy::Constant(n),
            None => shared.schemes[slot.scheme].backend.policy,
        };
        if slot.session.reconfigure_policy(policy).is_ok() {
            if let Some(report) = report {
                report.reconfigs += 1;
            }
        }
        slot.applied_rung = rung;
    }
    // Last-resort rung: planned mode sheds every frame (deterministic);
    // measured mode sheds only frames already over budget (a stale
    // frame's result is worthless).
    rt.slo.ladder.rungs[rung].shed
        && (rt.plan.is_some() || wait_ns.is_some_and(|w| w > rt.slo.frame_budget.as_nanos() as u64))
}

/// A frozen server: the task, the scheme registry, every session's
/// slot (live or tombstoned) in id order, and the statistics
/// accumulated before the freeze. Produced by
/// [`SessionServer::freeze`], consumed by [`SessionServer::thaw`] —
/// the thawed server's sessions continue bit-exactly where they froze,
/// at any worker count.
pub struct ServerImage<T: VisionTask> {
    task: T,
    schemes: Vec<SchemeSpec>,
    sessions: Vec<(SessionId, Slot<T>)>,
    carry: DrainReport,
}

impl<T: VisionTask> ServerImage<T> {
    /// Sessions captured in the image (live sessions + tombstones).
    pub fn sessions(&self) -> usize {
        self.sessions.len()
    }

    /// Sessions frozen live (restorable).
    pub fn live_sessions(&self) -> usize {
        self.sessions
            .iter()
            .filter(|(_, slot)| matches!(slot, Slot::Live(_)))
            .count()
    }

    /// The statistics accumulated before the freeze (merged into the
    /// thawed server's final drain).
    pub fn carried(&self) -> &DrainReport {
        &self.carry
    }
}

fn finish_slot<T: VisionTask>(slot: Slot<T>) -> (Result<TaskOutcome>, Option<FailureKind>) {
    match slot {
        Slot::Live(live) => (Ok(live.session.finish()), None),
        Slot::Dead { error, kind } => (Err(error), Some(kind)),
    }
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "<non-string panic payload>".to_string())
}

/// Hash key for [`FeedPolicy::backoff`]'s jitter stream.
const BACKOFF_STREAM: u64 = 0xFEED_B0FF;

/// Producer-side retry/backoff hardening for the feed loop.
///
/// Each frame gets up to `attempts` deadline-bounded submits whose
/// timeouts grow exponentially with a deterministic jitter
/// ([`backoff`][FeedPolicy::backoff] — pure in
/// `(jitter_seed, session, frame, attempt)`, so retry schedules
/// decorrelate across sessions without a wall clock). A frame still
/// `Busy` after the last attempt either parks until capacity
/// (`park_after_retries`, the lossless default) or is shed
/// client-side; `breaker_threshold` consecutive shed frames trip a
/// circuit breaker. With `breaker_cooldown == 0` the trip is terminal:
/// [`SessionServer::break_session`] tombstones the session and the feed
/// stops. With a nonzero cooldown the breaker is *half-open*: the next
/// `breaker_cooldown` frames are skipped client-side without touching
/// the lane ([`FeedReport::short_circuited`]), then one probe frame is
/// let through — an accepted probe re-closes the breaker
/// ([`FeedReport::reclosed`]), a rejected one re-opens it for another
/// cooldown. Every transition is a pure function of the submit
/// verdicts, so breaker timelines replay bit-for-bit.
#[derive(Debug, Clone)]
pub struct FeedPolicy {
    /// Deadline-bounded submit attempts per frame before the fallback
    /// (0 = pure [`submit_blocking`][SessionServer::submit_blocking]).
    pub attempts: u32,
    /// First attempt's backoff window.
    pub base_backoff: Duration,
    /// Ceiling for the exponential growth.
    pub max_backoff: Duration,
    /// Seed of the deterministic jitter stream.
    pub jitter_seed: u64,
    /// After `attempts` Busy verdicts: `true` parks (the frame is never
    /// lost), `false` sheds the frame client-side and counts it in
    /// [`FeedReport::rejected`].
    pub park_after_retries: bool,
    /// Consecutive client-side rejections that trip the circuit breaker
    /// (0 disables it; only reachable with `park_after_retries =
    /// false`).
    pub breaker_threshold: u32,
    /// Frames skipped client-side after a trip before one half-open
    /// probe is let through. `0` keeps the legacy terminal breaker: the
    /// first trip tombstones the session and stops the feed.
    pub breaker_cooldown: u64,
}

impl Default for FeedPolicy {
    fn default() -> Self {
        FeedPolicy {
            attempts: 3,
            base_backoff: Duration::from_micros(200),
            max_backoff: Duration::from_millis(5),
            jitter_seed: 0xFEED,
            park_after_retries: true,
            breaker_threshold: 0,
            breaker_cooldown: 0,
        }
    }
}

impl FeedPolicy {
    /// The pre-retry behavior: park on a full lane immediately, never
    /// reject, never trip.
    pub fn blocking() -> Self {
        FeedPolicy {
            attempts: 0,
            ..FeedPolicy::default()
        }
    }

    /// The deadline for retry `attempt` of `frame` on session `id`:
    /// exponential in the attempt, capped at `max_backoff`, with a
    /// deterministic jitter in the upper half of the window. A pure
    /// function — the chaos suite replays schedules bit-for-bit.
    pub fn backoff(&self, id: SessionId, frame: u64, attempt: u32) -> Duration {
        let base = self.base_backoff.as_nanos() as u64;
        let cap = self.max_backoff.as_nanos() as u64;
        let exp = base.saturating_mul(1u64 << attempt.min(20)).min(cap).max(1);
        let jitter = rngx::jitter(
            self.jitter_seed ^ BACKOFF_STREAM ^ id,
            rngx::counter_hash(frame, u64::from(attempt)),
            exp / 2 + 1,
        );
        Duration::from_nanos(exp / 2 + jitter)
    }
}

/// What one [`feed_sequence_with`] call did.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FeedReport {
    /// Frames accepted onto the lane (including after retries or a
    /// park).
    pub submitted: u64,
    /// Frames shed client-side after exhausting the retry budget.
    pub rejected: u64,
    /// Busy verdicts that led to another attempt.
    pub retries: u64,
    /// `true` if the circuit breaker tombstoned the session (only with
    /// [`FeedPolicy::breaker_cooldown`]` == 0`).
    pub tripped: bool,
    /// Closed/half-open → open transitions.
    pub trips: u64,
    /// Frames skipped client-side while the breaker was open.
    pub short_circuited: u64,
    /// Half-open probes that re-closed the breaker.
    pub reclosed: u64,
}

/// The feed loop's half-open circuit breaker (see
/// [`FeedPolicy::breaker_cooldown`]). Transitions are pure in the
/// sequence of submit verdicts: closed → open after
/// `breaker_threshold` consecutive rejections, open counts down
/// `breaker_cooldown` skipped frames, the frame after the countdown is
/// the half-open probe, and the probe's verdict either re-closes or
/// re-opens.
struct CircuitBreaker {
    state: BreakerState,
    consecutive: u32,
    threshold: u32,
    cooldown: u64,
}

enum BreakerState {
    Closed,
    Open { remaining: u64 },
    HalfOpen,
}

impl CircuitBreaker {
    fn new(policy: &FeedPolicy) -> Self {
        CircuitBreaker {
            state: BreakerState::Closed,
            consecutive: 0,
            threshold: policy.breaker_threshold,
            cooldown: policy.breaker_cooldown,
        }
    }

    /// Whether the next frame may touch the lane. Counts down the open
    /// cooldown; the frame that finds it exhausted is admitted as the
    /// half-open probe.
    fn admits(&mut self) -> bool {
        match &mut self.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open { remaining } => {
                if *remaining > 0 {
                    *remaining -= 1;
                    false
                } else {
                    self.state = BreakerState::HalfOpen;
                    true
                }
            }
        }
    }

    /// Records an accepted frame; returns `true` when it was the probe
    /// that re-closed the breaker.
    fn on_accepted(&mut self) -> bool {
        self.consecutive = 0;
        if matches!(self.state, BreakerState::HalfOpen) {
            self.state = BreakerState::Closed;
            true
        } else {
            false
        }
    }

    /// Records a client-side rejection; returns `true` when it tripped
    /// the breaker open (a failed probe trips unconditionally).
    fn on_rejected(&mut self) -> bool {
        self.consecutive += 1;
        let trip = match self.state {
            BreakerState::HalfOpen => true,
            BreakerState::Closed => self.threshold != 0 && self.consecutive >= self.threshold,
            // Open frames never reach the lane, so never reject.
            BreakerState::Open { .. } => false,
        };
        if trip {
            self.state = BreakerState::Open {
                remaining: self.cooldown,
            };
        }
        trip
    }
}

/// Streams one synthetic sequence into the server under session `id`
/// with an explicit [`FeedPolicy`]: opens, renders frames lazily
/// through the O(1)-memory `frame_source` pipeline (client-side, with
/// the renderer's own frame pool), submits each frame under the
/// policy's retry/backoff/breaker rules, and closes (the close still
/// runs after a breaker trip — it is what surfaces the typed
/// [`FailureKind::CircuitBroken`] outcome at drain).
///
/// # Errors
///
/// Propagates open/render errors; a lost worker surfaces as an error
/// from the open, submit, or close.
pub fn feed_sequence_with<T>(
    server: &SessionServer<T>,
    id: SessionId,
    scheme: &str,
    seq: &Sequence,
    motion: &MotionConfig,
    policy: &FeedPolicy,
) -> Result<FeedReport>
where
    T: VisionTask + Clone + Send + Sync + 'static,
    T::State: Send + Clone,
{
    let source = frame_source(seq, motion)?;
    server.open(id, scheme, source.resolution())?;
    let mut report = FeedReport::default();
    let mut breaker = CircuitBreaker::new(policy);
    for (index, frame) in source.enumerate() {
        let frame = Arc::new(frame?);
        if !breaker.admits() {
            report.short_circuited += 1;
            continue;
        }
        if policy.attempts == 0 {
            server.submit_blocking(id, frame)?;
            report.submitted += 1;
            continue;
        }
        // `pending` holds the frame while it is still ours; an accepted
        // submit leaves it `None`.
        let mut pending = Some(frame);
        for attempt in 0..policy.attempts {
            let frame = pending
                .take()
                .expect("pending frame present while retrying");
            match server.submit_deadline(id, frame, policy.backoff(id, index as u64, attempt)) {
                Submit::Enqueued => break,
                Submit::Busy(back) => {
                    report.retries += 1;
                    pending = Some(back);
                }
            }
        }
        let mut accepted = pending.is_none();
        if let Some(frame) = pending.take() {
            if policy.park_after_retries {
                server.submit_blocking(id, frame)?;
                accepted = true;
            }
        }
        if accepted {
            report.submitted += 1;
            if breaker.on_accepted() {
                report.reclosed += 1;
            }
            continue;
        }
        report.rejected += 1;
        if breaker.on_rejected() {
            report.trips += 1;
            if policy.breaker_cooldown == 0 {
                report.tripped = true;
                server.break_session(
                    id,
                    format!(
                        "circuit breaker: {} consecutive frames rejected \
                         (last at frame {index} of session {id})",
                        breaker.consecutive
                    ),
                )?;
                break;
            }
        }
    }
    server.close(id)?;
    Ok(report)
}

/// Streams one synthetic sequence into the server under session `id`
/// with the default [`FeedPolicy`]: a few jittered-backoff retries on
/// a full lane, then parked-producer backpressure
/// ([`submit_blocking`][SessionServer::submit_blocking] — the feeder
/// sleeps, not spins) so no frame is ever lost.
///
/// # Errors
///
/// Propagates open/render errors; a lost worker surfaces as an error
/// from the open, submit, or close.
pub fn feed_sequence<T>(
    server: &SessionServer<T>,
    id: SessionId,
    scheme: &str,
    seq: &Sequence,
    motion: &MotionConfig,
) -> Result<()>
where
    T: VisionTask + Clone + Send + Sync + 'static,
    T::State: Send + Clone,
{
    feed_sequence_with(server, id, scheme, seq, motion, &FeedPolicy::default()).map(|_| ())
}
