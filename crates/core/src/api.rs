//! The unified public API of the Euphrates pipeline: the [`VisionTask`]
//! trait, the [`Scenario`] builder, and the streaming [`Session`].
//!
//! The paper's contribution is a *schedule* — CNN inference on I-frames,
//! Motion-Controller extrapolation on E-frames (§3.3) — that is
//! independent of the task running on top of it. This module encodes
//! that separation:
//!
//! * [`VisionTask`] captures what is task-specific: how to initialize
//!   per-sequence state, what an inference does, what an extrapolation
//!   does, and how predictions are scored. The tracking and detection
//!   tasks ([`crate::tracker::TrackerTask`],
//!   [`crate::detector::DetectorTask`]) are two implementations of it;
//!   the I/E-frame scheduling, EW-policy feedback, and Motion-Controller
//!   cycle accounting live here, written once.
//! * [`Scenario`] is the typed, fluent description of one experiment:
//!   *dataset × motion config × scheme set × platform*. Building it
//!   validates the scheme registry ([`SchemeId`] uniqueness); evaluating
//!   it returns an [`EvalReport`] that carries accuracy, energy, FPS,
//!   and DRAM traffic together.
//! * [`Session`] runs the same per-frame policy *incrementally*:
//!   `push_frame` consumes one frame and returns the [`FrameDecision`]
//!   the scheduler took, which is the shape a serving system needs. The
//!   offline path ([`run_task`], [`Scenario::evaluate`]) is implemented
//!   *on top of* `Session`, so streaming and batch evaluation are
//!   bit-identical by construction.

use crate::backend::{charge_sequencer, controller, BackendConfig, TaskOutcome};
use crate::frontend::{frame_source, FrameData, MotionConfig, PreparedSequence};
use crate::system::SystemModel;
use euphrates_common::error::{Error, Result};
use euphrates_common::geom::Rect;
use euphrates_common::image::Resolution;
use euphrates_common::metrics::IouAccumulator;
use euphrates_common::par::{default_threads, parallel_map};
use euphrates_common::units::Cycles;
use euphrates_datasets::Sequence;
use euphrates_mc::policy::FrameKind;
use euphrates_nn::layer::NetworkDescriptor;
use euphrates_soc::energy::{ExtrapolationExecutor, SchemeReport};
use std::borrow::Borrow;
use std::collections::BTreeSet;
use std::fmt;

// ---------------------------------------------------------------------------
// VisionTask
// ---------------------------------------------------------------------------

/// Everything the generic I/E-frame scheduler needs to know about one
/// frame while driving a task.
#[derive(Debug, Clone, Copy)]
pub struct FrameContext<'a> {
    /// Stream-position of this frame (0-based).
    pub index: u64,
    /// The frame's ground truth + ISP motion field.
    pub frame: &'a FrameData,
    /// The full-frame rectangle at the functional resolution.
    pub bounds: Rect,
    /// The scheme's backend configuration.
    pub config: &'a BackendConfig,
    /// Oracle noise stream (stable per-sequence index).
    pub stream: u64,
}

/// What one task step reports back to the scheduler.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepStats {
    /// Motion-Controller datapath cycles spent this frame.
    pub datapath_cycles: Cycles,
    /// Live ROI count after the step (sizes the sequencer program).
    pub rois: u32,
    /// Inference-vs-extrapolation agreement in `[0, 1]`, fed to the
    /// adaptive EW controller (§3.3). `None` when no comparison was
    /// possible this frame.
    pub policy_feedback: Option<f64>,
}

/// A continuous-vision task runnable under the Euphrates I/E-frame
/// schedule.
///
/// Implementations own *what* inference and extrapolation mean; the
/// scheduler ([`Session`] / [`run_task`]) owns *when* each happens, the
/// EW-policy feedback loop, and the Motion-Controller cycle accounting,
/// so a [`TaskOutcome`] is produced generically for every task.
pub trait VisionTask {
    /// Mutable per-sequence state (tracks, filters, oracles).
    type State;

    /// Task name used in error messages and reports.
    fn name(&self) -> &'static str;

    /// Builds fresh state from the first frame of a stream.
    ///
    /// # Errors
    ///
    /// Rejects streams the task cannot start on (e.g. tracking without a
    /// visible target in frame 0).
    fn init(
        &self,
        resolution: Resolution,
        first: &FrameData,
        config: &BackendConfig,
        stream: u64,
    ) -> Result<Self::State>;

    /// Runs one I-frame: full CNN inference (plus the probe extrapolation
    /// the adaptive controller compares against).
    fn infer(
        &self,
        ctx: &FrameContext,
        state: &mut Self::State,
        outcome: &mut TaskOutcome,
    ) -> StepStats;

    /// Runs one E-frame: pure Motion-Controller extrapolation.
    fn extrapolate(
        &self,
        ctx: &FrameContext,
        state: &mut Self::State,
        outcome: &mut TaskOutcome,
    ) -> StepStats;

    /// Scores the frame's emitted predictions against ground truth,
    /// appending to `outcome.ious`.
    fn score(&self, ctx: &FrameContext, state: &Self::State, outcome: &mut TaskOutcome);
}

// ---------------------------------------------------------------------------
// Session (streaming)
// ---------------------------------------------------------------------------

/// The scheduler's verdict for one pushed frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameDecision {
    /// Stream-position of the frame this decision is for.
    pub frame: u64,
    /// Whether the frame ran inference or extrapolation.
    pub kind: FrameKind,
    /// Live ROIs after the step.
    pub rois: u32,
    /// Motion-Controller datapath cycles spent on the frame.
    pub datapath_cycles: Cycles,
    /// Adaptive-policy feedback recorded this frame, if any.
    pub policy_feedback: Option<f64>,
    /// Number of scored predictions this frame appended.
    pub new_scores: usize,
}

impl FrameDecision {
    /// `true` if the frame ran a full CNN inference.
    pub fn is_inference(&self) -> bool {
        self.kind == FrameKind::Inference
    }
}

/// An incremental, per-frame run of one task under one backend scheme —
/// the streaming form of the pipeline.
///
/// `push_frame` applies the I/E-frame policy to one frame at a time; the
/// accumulated [`TaskOutcome`] after `n` pushes is bit-identical to an
/// offline [`run_task`] over the same `n` frames, because the offline
/// path is implemented on top of this one.
///
/// # Serving semantics
///
/// Sessions are built to live on long-running server workers
/// (`euphrates-serve`): a `Session` is `Send` whenever its task and
/// state are, every push validates the frame against the session's
/// declared resolution (a mid-stream dimension change is a client bug,
/// not a panic), and the first error **poisons** the session — every
/// later push fails fast with [`Error`] instead of running the schedule
/// on top of inconsistent state. Check
/// [`is_poisoned`][Session::is_poisoned] to distinguish "stream ended"
/// from "stream died".
#[derive(Debug)]
pub struct Session<T: VisionTask> {
    task: T,
    config: BackendConfig,
    ctrl: euphrates_mc::policy::EwController,
    resolution: Resolution,
    bounds: Rect,
    stream: u64,
    state: Option<T::State>,
    outcome: TaskOutcome,
    next_frame: u64,
    poisoned: bool,
}

impl<T: VisionTask> Session<T> {
    /// Opens a streaming session for `task` under `config`.
    ///
    /// `stream` disambiguates oracle noise across concurrent sessions
    /// (use a stable per-sequence index when comparing against offline
    /// evaluation).
    ///
    /// # Errors
    ///
    /// Rejects invalid policy parameters.
    pub fn new(
        task: T,
        config: BackendConfig,
        resolution: Resolution,
        stream: u64,
    ) -> Result<Self> {
        let ctrl = controller(&config)?;
        let bounds = Rect::new(
            0.0,
            0.0,
            f64::from(resolution.width),
            f64::from(resolution.height),
        );
        Ok(Session {
            task,
            config,
            ctrl,
            resolution,
            bounds,
            stream,
            state: None,
            outcome: TaskOutcome::default(),
            next_frame: 0,
            poisoned: false,
        })
    }

    /// Frames consumed so far.
    pub fn frames(&self) -> u64 {
        self.next_frame
    }

    /// The outcome accumulated so far.
    pub fn outcome(&self) -> &TaskOutcome {
        &self.outcome
    }

    /// The resolution this session was opened at; every pushed frame
    /// must match it.
    pub fn resolution(&self) -> Resolution {
        self.resolution
    }

    /// The EW policy scheduling the next frame: the configured one, or
    /// the last [`reconfigure_policy`][Session::reconfigure_policy].
    pub fn policy(&self) -> euphrates_mc::policy::EwPolicy {
        self.config.policy
    }

    /// `true` once a push has failed: the session rejects all further
    /// frames (the outcome up to the failure remains readable and
    /// [`finish`][Session::finish]able).
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Swaps the session's EW policy **mid-stream**, preserving the
    /// schedule phase: frames already extrapolated since the last
    /// I-frame keep counting against the new window, so widening never
    /// inserts a spurious inference and narrowing re-infers promptly.
    ///
    /// This is the overload-degradation actuator of `euphrates-serve`:
    /// under queue pressure a server widens live sessions' windows
    /// (more extrapolation, fewer CNN frames) and restores the scheme's
    /// declared policy when the pressure clears. The accumulated
    /// [`TaskOutcome`] is untouched; only future frames are scheduled
    /// differently.
    ///
    /// # Errors
    ///
    /// Rejects invalid policy parameters (zero windows, adaptive
    /// `min > max`); the session is unchanged — and in particular **not
    /// poisoned** — on error. Re-configuring a poisoned session is
    /// rejected with the poison error.
    pub fn reconfigure_policy(&mut self, policy: euphrates_mc::policy::EwPolicy) -> Result<()> {
        if self.poisoned {
            return Err(Error::state(format!(
                "session poisoned at frame {}: cannot reconfigure; open a new session",
                self.next_frame
            )));
        }
        self.ctrl.reconfigure(policy)?;
        self.config.policy = policy;
        Ok(())
    }

    /// Consumes one frame: decides I vs. E, runs the task step, feeds the
    /// adaptive controller, charges the Motion-Controller sequencer, and
    /// scores the frame's predictions.
    ///
    /// # Errors
    ///
    /// The first push propagates task initialization errors (e.g. a
    /// tracking stream whose first frame has no visible target). A frame
    /// whose motion field disagrees with the session's resolution is
    /// rejected. Any error poisons the session: every subsequent push
    /// fails fast without touching task state.
    pub fn push_frame(&mut self, frame: &FrameData) -> Result<FrameDecision> {
        if self.poisoned {
            return Err(Error::config(format!(
                "session poisoned at frame {}: an earlier push failed; open a new session",
                self.next_frame
            )));
        }
        let got = frame.motion.resolution();
        if got != self.resolution {
            self.poisoned = true;
            return Err(Error::config(format!(
                "frame {} is {}x{} but the session was opened at {}x{}: \
                 mid-stream dimension changes need a new session",
                self.next_frame,
                got.width,
                got.height,
                self.resolution.width,
                self.resolution.height
            )));
        }
        if self.state.is_none() {
            match self
                .task
                .init(self.resolution, frame, &self.config, self.stream)
            {
                Ok(state) => self.state = Some(state),
                Err(e) => {
                    self.poisoned = true;
                    return Err(e);
                }
            }
        }
        let state = self.state.as_mut().expect("state initialized above");

        let kind = self.ctrl.next_frame();
        self.outcome.frames += 1;
        let ctx = FrameContext {
            index: self.next_frame,
            frame,
            bounds: self.bounds,
            config: &self.config,
            stream: self.stream,
        };
        let stats = match kind {
            FrameKind::Inference => {
                self.outcome.inferences += 1;
                self.task.infer(&ctx, state, &mut self.outcome)
            }
            FrameKind::Extrapolation => self.task.extrapolate(&ctx, state, &mut self.outcome),
        };
        if let Some(feedback) = stats.policy_feedback {
            self.ctrl.record_comparison(feedback);
        }
        charge_sequencer(
            &mut self.outcome,
            kind,
            &frame.motion,
            stats.rois,
            stats.datapath_cycles,
        );
        let scored_before = self.outcome.ious.len();
        self.task.score(&ctx, state, &mut self.outcome);
        self.next_frame += 1;
        Ok(FrameDecision {
            frame: self.next_frame - 1,
            kind,
            rois: stats.rois,
            datapath_cycles: stats.datapath_cycles,
            policy_feedback: stats.policy_feedback,
            new_scores: self.outcome.ious.len() - scored_before,
        })
    }

    /// Ends the session, returning the accumulated outcome.
    pub fn finish(self) -> TaskOutcome {
        self.outcome
    }
}

impl<T> Session<T>
where
    T: VisionTask + Clone,
    T::State: Clone,
{
    /// Captures a point-in-time [`SessionCheckpoint`] of the full
    /// scheduler state: the EW controller (schedule phase included),
    /// the active policy, the task state, the accumulated outcome, the
    /// accepted-frame count, and the poison flag.
    ///
    /// The session is untouched — snapshotting mid-stream and
    /// continuing is always safe. The crash-recovery invariant (the
    /// checkpoint suite asserts it) is that
    /// [`restore`][Session::restore]-at-any-cut-point bit-matches an
    /// uninterrupted run: pushing frames `k..n` into the restored
    /// session yields exactly the outcome of pushing `0..n` into the
    /// original.
    pub fn snapshot(&self) -> SessionCheckpoint<T> {
        SessionCheckpoint {
            task: self.task.clone(),
            config: self.config,
            ctrl: self.ctrl,
            resolution: self.resolution,
            bounds: self.bounds,
            stream: self.stream,
            state: self.state.clone(),
            outcome: self.outcome.clone(),
            next_frame: self.next_frame,
            poisoned: self.poisoned,
        }
    }

    /// Rebuilds a session from a checkpoint — the other half of
    /// [`snapshot`][Session::snapshot]. Infallible: the checkpoint was
    /// taken from a validated session, so there is nothing left to
    /// validate (a poisoned session restores poisoned and keeps
    /// rejecting pushes, exactly like the original).
    pub fn restore(checkpoint: SessionCheckpoint<T>) -> Self {
        Session {
            task: checkpoint.task,
            config: checkpoint.config,
            ctrl: checkpoint.ctrl,
            resolution: checkpoint.resolution,
            bounds: checkpoint.bounds,
            stream: checkpoint.stream,
            state: checkpoint.state,
            outcome: checkpoint.outcome,
            next_frame: checkpoint.next_frame,
            poisoned: checkpoint.poisoned,
        }
    }
}

/// A point-in-time image of a [`Session`], produced by
/// [`Session::snapshot`] and consumed by [`Session::restore`].
///
/// The checkpoint owns clones of everything the scheduler needs —
/// task, backend config, EW controller (with its schedule phase and
/// adaptive history), task state, accumulated [`TaskOutcome`], frame
/// counter, and poison flag — so it is independent of the session it
/// came from: the original can keep running, die, or be dropped
/// without invalidating the checkpoint. `euphrates-serve` builds its
/// crash-recovery ledger on exactly this type.
pub struct SessionCheckpoint<T: VisionTask> {
    task: T,
    config: BackendConfig,
    ctrl: euphrates_mc::policy::EwController,
    resolution: Resolution,
    bounds: Rect,
    stream: u64,
    state: Option<T::State>,
    outcome: TaskOutcome,
    next_frame: u64,
    poisoned: bool,
}

impl<T: VisionTask> SessionCheckpoint<T> {
    /// Frames the checkpointed session had consumed.
    pub fn frames(&self) -> u64 {
        self.next_frame
    }

    /// Whether the checkpointed session was poisoned.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// The resolution the checkpointed session was opened at.
    pub fn resolution(&self) -> Resolution {
        self.resolution
    }

    /// The outcome accumulated up to the checkpoint.
    pub fn outcome(&self) -> &TaskOutcome {
        &self.outcome
    }
}

// Manual impls: derives would demand `T: Clone`/`T: Debug` without
// also propagating the `T::State` bounds the fields actually need.
impl<T> Clone for SessionCheckpoint<T>
where
    T: VisionTask + Clone,
    T::State: Clone,
{
    fn clone(&self) -> Self {
        SessionCheckpoint {
            task: self.task.clone(),
            config: self.config,
            ctrl: self.ctrl,
            resolution: self.resolution,
            bounds: self.bounds,
            stream: self.stream,
            state: self.state.clone(),
            outcome: self.outcome.clone(),
            next_frame: self.next_frame,
            poisoned: self.poisoned,
        }
    }
}

impl<T: VisionTask> fmt::Debug for SessionCheckpoint<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SessionCheckpoint")
            .field("frames", &self.next_frame)
            .field("poisoned", &self.poisoned)
            .field("resolution", &self.resolution)
            .field("stream", &self.stream)
            .finish_non_exhaustive()
    }
}

/// Runs `task` over a prepared sequence offline (every frame pushed
/// through a [`Session`] in order).
///
/// # Errors
///
/// Rejects empty sequences, invalid policies, and task initialization
/// failures.
pub fn run_task<T: VisionTask>(
    task: T,
    prep: &PreparedSequence,
    config: &BackendConfig,
    stream: u64,
) -> Result<TaskOutcome> {
    let session = Session::new(task, *config, prep.resolution, stream)?;
    let mut outcomes = stream_sessions(vec![session], prep.frames.iter().map(Ok))?;
    Ok(outcomes.remove(0))
}

/// Runs `task` over a streaming frame source (e.g. [`frame_source`])
/// without materializing the sequence: every frame is pushed through a
/// [`Session`] as it is produced, so memory stays O(1 frame). The
/// outcome bit-matches [`run_task`] over the eagerly prepared
/// equivalent.
///
/// # Errors
///
/// Rejects empty streams and invalid policies, and propagates frame
/// production and task initialization errors.
pub fn run_stream<T, I>(
    task: T,
    resolution: Resolution,
    frames: I,
    config: &BackendConfig,
    stream: u64,
) -> Result<TaskOutcome>
where
    T: VisionTask,
    I: IntoIterator<Item = Result<FrameData>>,
{
    let session = Session::new(task, *config, resolution, stream)?;
    let mut outcomes = stream_sessions(vec![session], frames)?;
    Ok(outcomes.remove(0))
}

/// Pushes each frame of `frames` into every session in turn and returns
/// the sessions' outcomes in order: the one offline loop behind
/// [`run_task`], [`run_stream`] and [`Scenario::evaluate`].
///
/// # Errors
///
/// Rejects a stream without frames (naming the task) and stops at the
/// first frame-production or push error.
fn stream_sessions<T, F, I>(mut sessions: Vec<Session<T>>, frames: I) -> Result<Vec<TaskOutcome>>
where
    T: VisionTask,
    F: Borrow<FrameData>,
    I: IntoIterator<Item = Result<F>>,
{
    let mut pushed = false;
    for frame in frames {
        let frame = frame?;
        for session in &mut sessions {
            session.push_frame(frame.borrow())?;
        }
        pushed = true;
    }
    if !pushed {
        let name = sessions.first().map_or("task", |s| s.task.name());
        return Err(Error::config(format!(
            "cannot run {name} on an empty frame stream"
        )));
    }
    Ok(sessions.into_iter().map(Session::finish).collect())
}

// ---------------------------------------------------------------------------
// Scheme registry
// ---------------------------------------------------------------------------

/// A validated, unique scheme identifier (e.g. `"EW-4"`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SchemeId(String);

impl SchemeId {
    /// Validates an identifier: non-empty after trimming.
    ///
    /// # Errors
    ///
    /// Rejects empty or whitespace-only identifiers.
    pub fn new(id: impl Into<String>) -> Result<Self> {
        let id = id.into();
        if id.trim().is_empty() {
            return Err(Error::config("scheme id must be non-empty"));
        }
        Ok(SchemeId(id))
    }

    /// The identifier as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for SchemeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl AsRef<str> for SchemeId {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

/// One entry of a scenario's scheme registry: an id, the backend
/// configuration it runs, and where extrapolation executes.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeSpec {
    /// Unique scheme identifier.
    pub id: SchemeId,
    /// Backend (EW policy, extrapolation, datapath, seed).
    pub backend: BackendConfig,
    /// Extrapolation executor for the energy model (§6.1's MC-vs-CPU
    /// comparison).
    pub executor: ExtrapolationExecutor,
}

impl SchemeSpec {
    /// A validated spec on the Motion-Controller executor.
    ///
    /// # Errors
    ///
    /// Rejects invalid identifiers.
    pub fn new(id: impl Into<String>, backend: BackendConfig) -> Result<Self> {
        Ok(SchemeSpec {
            id: SchemeId::new(id)?,
            backend,
            executor: ExtrapolationExecutor::MotionController,
        })
    }

    /// Replaces the extrapolation executor.
    pub fn with_executor(mut self, executor: ExtrapolationExecutor) -> Self {
        self.executor = executor;
        self
    }
}

// ---------------------------------------------------------------------------
// Scenario
// ---------------------------------------------------------------------------

/// Fluent constructor for a [`Scenario`]. Obtained from
/// [`Scenario::builder`]; finished by [`ScenarioBuilder::build`], which
/// validates the scheme registry.
#[derive(Debug, Clone)]
pub struct ScenarioBuilder<T> {
    task: T,
    suite: Vec<Sequence>,
    motion: MotionConfig,
    platform: SystemModel,
    network: Option<NetworkDescriptor>,
    threads: Option<usize>,
    schemes: Vec<(String, BackendConfig, ExtrapolationExecutor)>,
}

impl<T: VisionTask> ScenarioBuilder<T> {
    /// Replaces the evaluation suite.
    pub fn suite(mut self, suite: Vec<Sequence>) -> Self {
        self.suite = suite;
        self
    }

    /// Appends one sequence to the suite.
    pub fn sequence(mut self, seq: Sequence) -> Self {
        self.suite.push(seq);
        self
    }

    /// Sets the motion-estimation configuration (default:
    /// [`MotionConfig::default`]).
    pub fn motion(mut self, motion: MotionConfig) -> Self {
        self.motion = motion;
        self
    }

    /// Sets the platform model (default: [`SystemModel::table1`]).
    pub fn platform(mut self, platform: SystemModel) -> Self {
        self.platform = platform;
        self
    }

    /// Sets the network whose energy/FPS the platform model evaluates at
    /// each scheme's measured window. Without a network the report
    /// carries accuracy only.
    pub fn network(mut self, network: NetworkDescriptor) -> Self {
        self.network = Some(network);
        self
    }

    /// Overrides the worker-thread count (default:
    /// [`default_threads`], which honors
    /// `EUPHRATES_THREADS`).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Registers a scheme on the Motion-Controller executor.
    pub fn scheme(self, id: impl Into<String>, backend: BackendConfig) -> Self {
        self.scheme_on(id, backend, ExtrapolationExecutor::MotionController)
    }

    /// Registers a scheme with an explicit extrapolation executor.
    pub fn scheme_on(
        mut self,
        id: impl Into<String>,
        backend: BackendConfig,
        executor: ExtrapolationExecutor,
    ) -> Self {
        self.schemes.push((id.into(), backend, executor));
        self
    }

    /// Registers a batch of pre-validated specs.
    pub fn schemes(mut self, specs: impl IntoIterator<Item = SchemeSpec>) -> Self {
        for spec in specs {
            self.schemes.push((spec.id.0, spec.backend, spec.executor));
        }
        self
    }

    /// Validates and assembles the scenario.
    ///
    /// # Errors
    ///
    /// Rejects an empty scheme registry, invalid scheme ids, and
    /// duplicate scheme ids.
    pub fn build(self) -> Result<Scenario<T>> {
        if self.schemes.is_empty() {
            return Err(Error::config("scenario needs at least one scheme"));
        }
        let mut seen = BTreeSet::new();
        let mut schemes = Vec::with_capacity(self.schemes.len());
        for (id, backend, executor) in self.schemes {
            let id = SchemeId::new(id)?;
            if !seen.insert(id.clone()) {
                return Err(Error::config(format!("duplicate scheme id `{id}`")));
            }
            schemes.push(SchemeSpec {
                id,
                backend,
                executor,
            });
        }
        Ok(Scenario {
            task: self.task,
            suite: self.suite,
            motion: self.motion,
            platform: self.platform,
            network: self.network,
            threads: self.threads,
            schemes,
        })
    }
}

/// One fully-specified experiment: a task over *dataset × motion config ×
/// scheme registry × platform*.
#[derive(Debug, Clone)]
pub struct Scenario<T> {
    task: T,
    suite: Vec<Sequence>,
    motion: MotionConfig,
    platform: SystemModel,
    network: Option<NetworkDescriptor>,
    threads: Option<usize>,
    schemes: Vec<SchemeSpec>,
}

impl<T: VisionTask> Scenario<T> {
    /// Starts building a scenario for `task`.
    pub fn builder(task: T) -> ScenarioBuilder<T> {
        ScenarioBuilder {
            task,
            suite: Vec::new(),
            motion: MotionConfig::default(),
            platform: SystemModel::table1(),
            network: None,
            threads: None,
            schemes: Vec::new(),
        }
    }

    /// The validated scheme registry, in registration order.
    pub fn schemes(&self) -> &[SchemeSpec] {
        &self.schemes
    }

    /// The evaluation suite.
    pub fn suite(&self) -> &[Sequence] {
        &self.suite
    }

    /// The motion-estimation configuration.
    pub fn motion(&self) -> &MotionConfig {
        &self.motion
    }

    /// Looks up a scheme by id.
    pub fn scheme(&self, id: &str) -> Option<&SchemeSpec> {
        self.schemes.iter().find(|s| s.id.as_str() == id)
    }

    /// Opens a streaming [`Session`] running one of this scenario's
    /// schemes (the serving-path entry point).
    ///
    /// # Errors
    ///
    /// Rejects unknown scheme ids and invalid policies.
    pub fn session(&self, id: &str, resolution: Resolution, stream: u64) -> Result<Session<T>>
    where
        T: Clone,
    {
        let spec = self
            .scheme(id)
            .ok_or_else(|| Error::config(format!("unknown scheme id `{id}`")))?;
        Session::new(self.task.clone(), spec.backend, resolution, stream)
    }

    /// Evaluates every scheme over the whole suite in one pass per
    /// sequence: sequences run in parallel, and each one is rendered and
    /// motion-estimated once by [`frame_source`], every frame pushed into
    /// one [`Session`] per scheme as it is produced. Nothing is
    /// materialized, so peak memory is one frame per sequence in flight.
    /// Schemes never share state, so a scheme's per-sequence outcomes do
    /// not depend on which other schemes are registered beside it, nor on
    /// the thread count.
    ///
    /// # Errors
    ///
    /// Rejects an empty suite (a scenario without sequences can only
    /// serve streaming [`Session`]s) and any sequence without frames
    /// (the error names the task), and propagates frame-production and
    /// task errors. The error returned is the first in sequence order;
    /// within a sequence, the first frame at which any scheme fails.
    pub fn evaluate(&self) -> Result<EvalReport>
    where
        T: Clone + Sync,
    {
        if self.suite.is_empty() {
            return Err(Error::config(
                "scenario has no sequences to evaluate (set `.suite(...)` on the builder)",
            ));
        }
        let threads = self.threads.unwrap_or_else(default_threads);
        let per_sequence: Vec<Result<Vec<TaskOutcome>>> =
            parallel_map(&self.suite, threads, |si, seq| {
                let source = frame_source(seq, &self.motion)?;
                let sessions = self
                    .schemes
                    .iter()
                    .map(|spec| {
                        Session::new(
                            self.task.clone(),
                            spec.backend,
                            source.resolution(),
                            si as u64,
                        )
                    })
                    .collect::<Result<Vec<_>>>()?;
                stream_sessions(sessions, source)
            });
        // Transpose the owned sequence-major outcomes into scheme-major
        // vectors without cloning the per-frame IoU data.
        let mut per_scheme: Vec<Vec<TaskOutcome>> = vec![Vec::new(); self.schemes.len()];
        for outcomes in per_sequence {
            for (ki, outcome) in outcomes?.into_iter().enumerate() {
                per_scheme[ki].push(outcome);
            }
        }

        let mut results = Vec::with_capacity(self.schemes.len());
        for (spec, per_seq) in self.schemes.iter().zip(per_scheme) {
            let mut merged = TaskOutcome::default();
            for outcome in &per_seq {
                merged.merge(outcome);
            }
            let system = match &self.network {
                Some(net) => Some(self.platform.evaluate(
                    net,
                    merged.mean_window(),
                    spec.executor,
                )?),
                None => None,
            };
            results.push(SchemeResult {
                id: spec.id.clone(),
                backend: spec.backend,
                executor: spec.executor,
                outcome: merged,
                per_sequence: per_seq,
                system,
            });
        }
        Ok(EvalReport { schemes: results })
    }
}

// ---------------------------------------------------------------------------
// EvalReport
// ---------------------------------------------------------------------------

/// One scheme's merged evaluation: functional accuracy plus (when the
/// scenario names a network) the platform model's energy/FPS/traffic at
/// the measured window.
#[derive(Debug, Clone)]
pub struct SchemeResult {
    /// Scheme identifier.
    pub id: SchemeId,
    /// The backend configuration that ran.
    pub backend: BackendConfig,
    /// The extrapolation executor the energy model assumed.
    pub executor: ExtrapolationExecutor,
    /// Merged task statistics over the whole suite.
    pub outcome: TaskOutcome,
    /// Per-sequence outcomes (order matches the suite), for per-sequence
    /// figures like Fig. 10c.
    pub per_sequence: Vec<TaskOutcome>,
    /// Platform energy/FPS/DRAM at the measured mean window; `None` when
    /// the scenario has no network.
    pub system: Option<SchemeReport>,
}

impl SchemeResult {
    /// The scheme id as a plain label.
    pub fn label(&self) -> &str {
        self.id.as_str()
    }

    /// Accuracy accumulator over all scored predictions.
    pub fn accuracy(&self) -> IouAccumulator {
        self.outcome.ious.iter().copied().collect()
    }

    /// Success/precision at the conventional IoU 0.5.
    pub fn rate_at_05(&self) -> f64 {
        self.accuracy().rate_at(0.5)
    }
}

/// The structured result of [`Scenario::evaluate`]: one [`SchemeResult`]
/// per registered scheme, in registration order.
#[derive(Debug, Clone)]
pub struct EvalReport {
    /// Per-scheme results.
    pub schemes: Vec<SchemeResult>,
}

impl EvalReport {
    /// Number of schemes.
    pub fn len(&self) -> usize {
        self.schemes.len()
    }

    /// `true` if the report has no schemes.
    pub fn is_empty(&self) -> bool {
        self.schemes.is_empty()
    }

    /// Looks up one scheme's result by id.
    pub fn get(&self, id: &str) -> Option<&SchemeResult> {
        self.schemes.iter().find(|s| s.id.as_str() == id)
    }

    /// Iterates results in registration order.
    pub fn iter(&self) -> std::slice::Iter<'_, SchemeResult> {
        self.schemes.iter()
    }
}

impl<'a> IntoIterator for &'a EvalReport {
    type Item = &'a SchemeResult;
    type IntoIter = std::slice::Iter<'a, SchemeResult>;
    fn into_iter(self) -> Self::IntoIter {
        self.schemes.iter()
    }
}
