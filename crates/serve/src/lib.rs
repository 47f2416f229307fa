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
//! * **Backpressure** — each worker has one bounded ingress lane.
//!   [`try_submit`][SessionServer::try_submit] never blocks and never
//!   buffers beyond the bound: a full lane returns [`Submit::Busy`]
//!   handing the frame back to the caller (admission control instead of
//!   unbounded growth — memory is `O(workers × queue_depth)` frames).
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
//!   shard's occupancy, and [`DrainReport::ingress`] the lanes' parking
//!   counters, so the batching window can be tuned from data.
//! * **Isolation** — a panicking task step kills *its* session (the
//!   drain report carries the error), never the worker: the other
//!   sessions sharded onto the same lane keep streaming.
//!
//! # Batching & backpressure
//!
//! **Parked producers, not spin loops.** Each lane is one bounded FIFO
//! under one mutex, with a condvar producers park on while it is full
//! and one its worker parks on while it is empty. *Every* message —
//! open, frame, close — is one push, and a producer that finds the lane
//! full has three choices:
//!
//! * [`try_submit`][SessionServer::try_submit] — never waits; hands the
//!   frame back as [`Submit::Busy`] (admission control).
//! * [`submit_blocking`][SessionServer::submit_blocking] — sleeps on the
//!   lane's condvar and is woken when its worker dequeues a message.
//! * [`submit_deadline`][SessionServer::submit_deadline] — parks for at
//!   most a deadline, then hands the frame back.
//!
//! The lane keeps the [`IngressReport`] counters under its lock:
//! `immediate` counts pushes that found space, `parked` pushes that
//! slept, `woken` parked pushes that then got a slot (a deadline that
//! expires counts in `parked` but not `woken`), and `busy_rejections`
//! frames handed back. A frame's submit stamp is taken once its slot is
//! secured, so time spent parked counts in neither `queue_wait` nor
//! `latency`. [`drain`][SessionServer::drain] closes every lane: each
//! worker handles what is already queued, then exits. Dropping the
//! server closes them too, and a worker that exits any other way closes
//! its own, so producers get `Busy` or an error instead of parking.
//!
//! **Cross-session NN batching.** On silicon, the systolic array earns
//! its efficiency by amortizing weight loads and array fill/drain
//! across work; one session's I-frame at a time cannot exploit that.
//! With [`ServeConfig::with_nn_batching`] each worker gathers I-frame
//! inference jobs from *different sessions* sharded onto it within a
//! bounded window (`max_batch` jobs or `max_wait`, whichever first) and
//! charges them as one fused job via `SystolicModel::analyze_batch` —
//! weights stream once, fill/drain is paid per weight block instead of
//! per request. The batch is an *accounting* fusion: the NN itself is a
//! modeled oracle whose functional decisions are produced synchronously
//! inside `Session::push_frame`, so batching defers only the
//! cycle/energy attribution and per-session outcomes (decisions,
//! accuracy, fields) stay **bit-identical** to the unbatched path — the
//! equivalence tests assert exactly that. The amortized cost lands in
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
//! shrink the NN batching window, and — last resort — shed frames that
//! have already blown their budget. Every transition lands in the
//! [`DegradationReport`] merged into [`DrainReport::degradation`], and
//! shed frames get their own counter, [`DrainReport::shed`]: `frames ==
//! served + dropped + shed`, exactly.
//!
//! A server runs **one** degradation walk, owned by [`degrade`]: no
//! session slot or checkpoint carries a copy, and the report's timeline,
//! epochs and final rung are read off it at shutdown.
//!
//! [`ServeConfig::with_chaos`] arms a seeded, bit-reproducible fault
//! plan ([`ChaosConfig`] in [`chaos`]): worker stalls, injected session
//! panics, corrupted (wrong-resolution) frames, and forced admission
//! rejections, all derived from [`rngx::counter_hash`] over logical
//! counters — never wall-clock. A chaos [`PressurePlan`] replaces the
//! measured pressure signal with a pure function of the epoch: the walk
//! is extended over the plan as arrivals reach new epochs, and each
//! frame's rung is the walk's rung at its session's arrival epoch. That
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
//! with a typed reason ([`FailureKind::CircuitBroken`], counted by
//! [`DrainReport::failures`]). With a non-zero
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
//! [`DrainReport::recovery`] is identical at any worker count. Its
//! `incidents` are the one count of worker faults, told apart by
//! [`IncidentKind`].
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
//! restarts its ledger from a fresh checkpoint. A thawed session follows
//! the new server's SLO and plan: its rungs come from the new server's
//! walk at its own arrival index, whether or not the frozen server had
//! an SLO or the same ladder. Every worker's counters
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
//! feeder owns its renderer and frame buffers.
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
//!     println!("amortization = {:.3} over {} batches", nn.amortization(), nn.batch_sizes.count());
//! }
//! ```

pub mod chaos;
pub mod degrade;
mod lane;
pub mod supervise;

pub use chaos::{ChaosConfig, ChaosReport, PressurePlan};
pub use degrade::{
    DegradationLadder, DegradationReport, OverloadController, Rung, RungTransition, SloConfig,
};
pub use supervise::{IncidentKind, RecoveryIncident, RecoveryReport, SuperviseConfig};

use crate::degrade::OverloadRuntime;
use crate::lane::{Lane, LaneEnd, Pop, Wait};
use crate::supervise::{Ledger, SlotCheckpoint};
use euphrates_common::error::{Error, Result};
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
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
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
    /// existing id replaces its session: the drain keeps the last life).
    Open {
        id: SessionId,
        scheme: usize,
        resolution: Resolution,
    },
    /// One frame for session `id`; `at` is when its lane took it.
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

/// A frame submission becomes a message once its lane has space, so the
/// `at` stamp keeps time spent parked out of `queue_wait` and `latency`.
impl From<(SessionId, Arc<FrameData>)> for Msg {
    fn from((id, frame): (SessionId, Arc<FrameData>)) -> Self {
        Msg::Frame {
            id,
            frame,
            at: Instant::now(),
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
/// [`DrainReport::failures`].
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

/// A live session plus the serving-side state that rides along: its
/// scheme index (to restore the declared EW policy at rung 0), the
/// arrival counter the deterministic fault/pressure schedules key on,
/// the rung whose EW policy the session has, and under supervision its
/// recovery ledger.
struct LiveSlot<T: VisionTask> {
    session: Session<T>,
    scheme: usize,
    arrivals: u64,
    applied_rung: usize,
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
    /// Nanoseconds spent processing messages.
    pub busy_ns: u64,
    /// Nanoseconds from worker start to drain completion.
    pub wall_ns: u64,
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
    /// Array cycles actually charged (batched walk).
    pub batched_cycles: u64,
    /// Array cycles the same jobs would cost solo (`jobs ×` the
    /// per-inference plan).
    pub solo_cycles: u64,
    /// Accelerator energy charged, millijoules.
    pub energy_mj: f64,
    /// DRAM traffic charged, bytes.
    pub dram_bytes: u64,
    /// Realized batch sizes, one sample per fused batch flushed (p50/p99
    /// of this histogram tune `max_batch`/`max_wait`).
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
        match self.batch_sizes.count() {
            0 => 0.0,
            batches => self.jobs as f64 / batches as f64,
        }
    }

    fn merge(&mut self, other: &NnServeReport) {
        self.jobs += other.jobs;
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
    /// Messages whose producer slept on a full lane.
    pub parked: u64,
    /// Parked messages that went onto the lane once a dequeue freed a
    /// slot (the rest timed out or met a closed lane).
    pub woken: u64,
    /// Messages that found space without sleeping.
    pub immediate: u64,
    /// Frames handed back by [`try_submit`][SessionServer::try_submit]
    /// or an expired [`submit_deadline`][SessionServer::submit_deadline].
    pub busy_rejections: u64,
}

impl IngressReport {
    fn merge(&mut self, other: &IngressReport) {
        self.parked += other.parked;
        self.woken += other.woken;
        self.immediate += other.immediate;
        self.busy_rejections += other.busy_rejections;
    }
}

/// The merged result of [`SessionServer::drain`]: every session's
/// outcome (keyed by id), cross-worker latency/queue-wait histograms,
/// the frame counters the throughput numbers derive from, per-shard
/// statistics, ingress counters, and (when batching is on) the NN
/// batching report.
#[derive(Debug)]
pub struct DrainReport {
    /// Per-session outcomes plus (for failures) the typed kind, one
    /// entry per opened id: the last life of a re-opened one.
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

    /// Number of sessions that failed with `kind`.
    pub fn failures(&self, kind: FailureKind) -> usize {
        self.outcomes
            .values()
            .filter(|(outcome, k)| outcome.is_err() && *k == Some(kind))
            .count()
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
            degradation: shared.overload.as_ref().map(OverloadRuntime::empty_report),
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
        self.ingress.merge(&other.ingress);
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

/// A sharded, backpressured session server over `N` worker threads.
///
/// See the [crate docs](self) for the serving model. The server is
/// `Sync`: [`open`][SessionServer::open],
/// [`try_submit`][SessionServer::try_submit],
/// [`submit_blocking`][SessionServer::submit_blocking] and
/// [`close`][SessionServer::close] take `&self` and may be called from
/// any number of producer threads concurrently (each call resolves one
/// lane and makes one push onto it).
/// [`drain`][SessionServer::drain] consumes the server.
pub struct SessionServer<T: VisionTask> {
    shared: Arc<Shared<T>>,
    lanes: Vec<LaneEnd<Msg>>,
    /// One thread per lane, in lane order.
    workers: Vec<JoinHandle<Drained<T>>>,
    /// Pre-freeze statistics carried through [`thaw`][Self::thaw],
    /// merged into the final drain.
    carry: Option<Box<DrainReport>>,
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
    /// Starts a server: `config.workers` threads, each with a bounded
    /// lane, all sharing one read-only scheme registry (and, when
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
        let plan = config.chaos.as_ref().and_then(|c| c.pressure);
        let overload = config
            .slo
            .map(|slo| OverloadRuntime::new(slo, plan))
            .transpose()?;
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
            let lane = Arc::new(Lane::new(config.queue_depth));
            lanes.push(LaneEnd(Arc::clone(&lane)));
            let shared = Arc::clone(&shared);
            workers.push(std::thread::spawn(move || {
                worker_loop(Worker::new(shared, windex as u64, table), LaneEnd(lane))
            }));
        }
        Ok(SessionServer {
            shared,
            lanes,
            workers,
            carry,
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
    /// rare relative to frames and the lane is guaranteed to drain).
    /// Re-opening an id starts a fresh session in its place: the drain
    /// reports each id's last life, while the frames of every life stay
    /// counted in `frames`, `served` and `dropped`.
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
        self.send(
            id,
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
        self.offer(id, frame, Wait::Never)
    }

    /// The non-blocking and deadline-bounded submits: one push, after
    /// the chaos forced-saturation channel, which pretends the lane is
    /// full for a deterministic subset of these admissions.
    /// [`submit_blocking`][SessionServer::submit_blocking] is exempt —
    /// it has no `Busy` verdict to fake.
    fn offer(&self, id: SessionId, frame: Arc<FrameData>, wait: Wait) -> Submit {
        let lane = &self.lanes[self.shard(id)].0;
        if let Some(chaos) = self.shared.chaos.as_ref().filter(|c| c.reject_every != 0) {
            if chaos.reject_at(self.submit_seq.fetch_add(1, Ordering::Relaxed)) {
                self.chaos_rejections.fetch_add(1, Ordering::Relaxed);
                lane.reject();
                return Submit::Busy(frame);
            }
        }
        match lane.push((id, frame), wait) {
            Ok(()) => Submit::Enqueued,
            Err((_, frame)) => Submit::Busy(frame),
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
        self.send(id, (id, frame))
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
        self.offer(id, frame, Wait::Until(Instant::now() + timeout))
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
        self.send(id, Msg::Close { id })
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
        self.send(
            id,
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
            .map_or(0, OverloadRuntime::rung)
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
    /// final [`DrainReport`]. Thawed sessions follow `config`'s SLO and
    /// pressure plan from their next arrival on.
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
    /// their reports and the thaw carry, then settle the degradation
    /// report from the server's one walk.
    fn shutdown(self) -> Drained<T> {
        for lane in &self.lanes {
            lane.0.close();
        }
        let mut report = DrainReport::empty(&self.shared);
        let mut frozen = Vec::new();
        for (handle, lane) in self.workers.into_iter().zip(&self.lanes) {
            let (mut part, slots) = handle
                .join()
                .expect("serve workers isolate session panics and never die");
            part.ingress = lane.0.counters();
            report.merge(part);
            frozen.extend(slots);
        }
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
            rt.settle(walk);
        }
        (report, frozen)
    }

    /// A live snapshot of the ingress counters (the same numbers
    /// [`drain`][SessionServer::drain] reports, sampled mid-flight) —
    /// lets saturation tests and monitors observe parking as it
    /// happens.
    pub fn ingress_snapshot(&self) -> IngressReport {
        let mut report = IngressReport::default();
        for lane in &self.lanes {
            report.merge(&lane.0.counters());
        }
        report
    }

    /// Parks until `id`'s lane takes `item`. A closed lane means its
    /// worker is gone: a clean error instead of a panic (drain will
    /// surface it).
    fn send(&self, id: SessionId, item: impl Into<Msg>) -> Result<()> {
        let lane = self.shard(id);
        self.lanes[lane]
            .0
            .push(item, Wait::Forever)
            .map_err(|_| Error::config(format!("serve worker {lane} is gone")))
    }
}

/// Charges one flushed batch of `jobs` inferences into the worker's NN
/// report using the pre-planned batch costs.
fn charge_batch(report: &mut NnServeReport, runtime: &BatchRuntime, jobs: usize) {
    let plan = &runtime.plans[jobs - 1];
    report.jobs += jobs as u64;
    report.batched_cycles += plan.compute_cycles();
    report.solo_cycles += jobs as u64 * runtime.solo.stats().total_compute_cycles().0;
    report.energy_mj += plan.energy().0;
    report.dram_bytes += plan.dram_read().0 + plan.dram_write().0;
    report.batch_sizes.record(jobs as u64);
}

/// What a worker hands back at drain: its report, plus the slots it
/// kept for the image when the server is freezing.
type Drained<T> = (DrainReport, Vec<(SessionId, Slot<T>)>);

/// One worker thread: the pop with the batch deadline, the dequeue
/// tick, and busy-time accounting. Everything else is the [`Worker`]'s.
/// Runs until its lane is closed and drained, and closes the lane on the
/// way out, unwinding included.
fn worker_loop<T>(mut worker: Worker<T>, lane: LaneEnd<Msg>) -> Drained<T>
where
    T: VisionTask + Clone,
    T::State: Clone,
{
    let started = Instant::now();
    let mut busy_ns = 0u64;
    let mut dequeues = 0u64;
    loop {
        // While a batch window is open, wait only until its deadline;
        // otherwise park for the next message.
        let msg = match lane.0.pop(worker.batch_deadline()) {
            Pop::Msg(msg) => msg,
            Pop::Timeout => {
                worker.flush();
                continue;
            }
            Pop::Closed => break,
        };
        worker.inject_faults(&msg, dequeues);
        dequeues += 1;
        let busy_from = Instant::now();
        worker.handle(msg);
        busy_ns += busy_from.elapsed().as_nanos() as u64;
    }
    worker.finish(started, busy_ns)
}

/// Everything one worker owns: its session table (each live slot with
/// its own recovery ledger), its batch window, and its counters in
/// the shape of a one-worker [`DrainReport`].
struct Worker<T: VisionTask> {
    shared: Arc<Shared<T>>,
    windex: u64,
    sessions: HashMap<SessionId, Slot<T>>,
    /// The open cross-session batch window: when it opened and the
    /// I-frame jobs pending in it (decisions are produced synchronously
    /// by the session — only *cost attribution* is deferred).
    batch: Option<(Instant, usize)>,
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
            batch: None,
            corrupt_frame,
        }
    }

    /// When the open batch window must flush: `max_wait` after it
    /// opened, shrunk by the current rung's shift (degraded servers
    /// trade amortization for latency). `None` while no window is open.
    fn batch_deadline(&self) -> Option<Instant> {
        let (opened, _) = self.batch?;
        let batching = self.shared.batching.as_ref()?;
        let max_wait = match self.shared.overload.as_ref() {
            Some(rt) => rt.batch_window(batching.max_wait),
            None => batching.max_wait,
        };
        Some(opened + max_wait)
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
        self.sessions.insert(id, slot);
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
            self.recover(IncidentKind::WorkerKill, id, arrival);
        }
        self.report.frames += 1;
        let wait_ns = at.elapsed().as_nanos() as u64;
        self.report.queue_wait.record(wait_ns);
        let shared = &*self.shared;
        if let Some(rt) = shared.overload.as_ref() {
            rt.pool(wait_ns);
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
        if let Some(rt) = shared.batching.as_ref().filter(|_| inference) {
            let (_, jobs) = self.batch.get_or_insert_with(|| (Instant::now(), 0));
            *jobs += 1;
            if *jobs >= rt.max_batch {
                self.flush();
            }
        }
    }

    /// Flushes the open batch window into the NN report (on a window
    /// timeout, a full batch, a recovery, and drain).
    fn flush(&mut self) {
        let rt = self.shared.batching.as_ref();
        if let (Some(rt), Some(nn), Some((_, jobs))) =
            (rt, self.report.nn.as_mut(), self.batch.take())
        {
            charge_batch(nn, rt, jobs);
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
    fn finish(mut self, started: Instant, busy_ns: u64) -> Drained<T> {
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
        report.per_worker.push(WorkerStats {
            frames: report.frames,
            busy_ns,
            wall_ns,
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
    /// advances the arrival counter, takes the arrival's rung from the
    /// server's walk ([`OverloadRuntime::schedule`]) and applies its EW
    /// policy when the slot's rung changes, and unless shed pushes the
    /// frame — or the chaos `substitute` — with an injected panic when
    /// `inject_panic`. The push runs under an unwind guard: one
    /// session's panic, organic or injected, must not take down the
    /// worker or the other sessions on its shard.
    ///
    /// The live path passes `Some` for both `wait_ns` and
    /// `degradation`; replay passes `None` for both, since every
    /// replayed frame was counted when it was first processed.
    fn arrive(
        &mut self,
        shared: &Shared<T>,
        frame: &FrameData,
        wait_ns: Option<u64>,
        mut degradation: Option<&mut DegradationReport>,
        inject_panic: bool,
        substitute: Option<&FrameData>,
    ) -> Arrival {
        let arrival = self.arrivals;
        self.arrivals += 1;
        if let Some(rt) = shared.overload.as_ref() {
            let (rung, shed) = rt.schedule(arrival, wait_ns, degradation.as_deref_mut());
            let policy = match rt.ew_window(rung) {
                Some(n) => EwPolicy::Constant(n),
                None => shared.schemes[self.scheme].backend.policy,
            };
            // A thaw under another ladder can leave the session on a
            // policy its rung index no longer names.
            if rung != self.applied_rung || policy != self.session.policy() {
                if self.session.reconfigure_policy(policy).is_ok() {
                    if let Some(report) = degradation {
                        report.reconfigs += 1;
                    }
                }
                self.applied_rung = rung;
            }
            if shed {
                return Arrival::Shed;
            }
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
        }
    }

    /// Rebuilds a slot from a checkpoint, with no ledger.
    fn restore(cp: SlotCheckpoint<T>) -> Self {
        LiveSlot {
            session: Session::restore(cp.session),
            scheme: cp.scheme,
            arrivals: cp.arrivals,
            applied_rung: cp.applied_rung,
            ledger: None,
        }
    }

    /// Restarts the slot's ledger at a checkpoint of its current state
    /// when `supervised`; drops it otherwise.
    fn restart_ledger(&mut self, supervised: bool) {
        self.ledger = supervised.then(|| Ledger::new(self.checkpoint()));
    }
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
/// the feeder's own renderer and buffers), submits each frame under the
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
