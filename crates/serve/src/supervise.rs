//! Crash recovery: slot checkpoints, the recovery ledger each live
//! session slot carries, and the recovery report types.
//!
//! A dead or wedged *worker* is the one fault the per-session isolation
//! of [`SessionServer`][crate::SessionServer] cannot absorb: every
//! session sharded onto the lane is stranded at once. With
//! [`ServeConfig::with_supervision`][crate::ServeConfig::with_supervision]
//! the server runs a write-ahead recovery scheme on top of
//! [`Session::snapshot`][euphrates_core::api::Session::snapshot]:
//!
//! * **Ledgers.** Every live session slot carries its own ledger: a
//!   [`SessionCheckpoint`]-based checkpoint of the slot, refreshed every
//!   [`checkpoint_every`][SuperviseConfig::checkpoint_every] arrivals,
//!   plus the ordered **replay log** of every frame logged since.
//!   Checkpoints land at deterministic arrival counts (multiples of the
//!   cadence), so a session's replay distance at any fault point is a
//!   pure function of its arrival index — worker-count independent. A
//!   dead session is a tombstone slot and needs no ledger; without
//!   supervision no slot has one.
//! * **Faults.** Worker kills and wedges are logical faults from the
//!   seeded chaos plan: a kill fires on a session's arrival index, a
//!   wedge on the worker's dequeue index. Either one costs the worker
//!   its whole session table, exactly as a dead thread would.
//! * **Resurrection.** The worker recovers in place, on its own thread:
//!   it flushes its open batch window, records the
//!   [`RecoveryIncident`], and rebuilds its table where it stands.
//!   Tombstones stay as they are. Each live slot is restored from its
//!   own checkpoint and its log replayed through the same arrival path
//!   live frames take (rungs and EW re-configurations included) to
//!   rebuild the exact pre-fault state; then the worker processes the
//!   faulting message.
//!   Replayed frames touch **no** counters: every frame is counted
//!   once. A session whose replay log outgrew
//!   [`replay_budget`][SuperviseConfig::replay_budget] becomes a
//!   [`FailureKind::Unrecovered`][crate::FailureKind] tombstone with
//!   the exact budget arithmetic in its error — it never silently
//!   vanishes.
//!
//! Everything the drained [`RecoveryReport`] states — the incident
//! timeline, per-incident replay distance, and the MTTR — is in
//! *logical ticks* (arrival or dequeue indices), never wall-clock, so
//! the chaos suite asserts bit-equal recovery timelines at 1 and 4
//! workers. Its `incidents` are the one count of worker faults: each
//! kill or wedge is exactly one [`RecoveryIncident`], told apart by its
//! [`IncidentKind`].

use crate::SessionId;
use euphrates_common::error::{Error, Result};
use euphrates_core::api::{SessionCheckpoint, VisionTask};
use euphrates_core::frontend::FrameData;
use std::sync::Arc;

/// Supervisor sizing: checkpoint cadence and replay budget.
///
/// The pair is a memory-vs-recoverability dial: the ledger holds up to
/// `checkpoint_every + replay_budget` frames per session (`Arc`-shared
/// with the producer, so "holds" costs one refcount, not a copy), and a
/// session is recoverable whenever its replay log is within budget. A
/// tight cadence shrinks both the log and the replay work per
/// resurrection; a loose cadence amortizes the snapshot cost over more
/// frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuperviseConfig {
    /// Refresh a session's checkpoint every n-th arrival (the replay
    /// log resets with each refresh). Checkpoints land at deterministic
    /// arrival multiples, which is what makes recovery timelines
    /// worker-count invariant.
    pub checkpoint_every: u64,
    /// Maximum post-checkpoint frames the ledger will replay. A worker
    /// fault that finds a session further than this from its checkpoint
    /// drains it as [`FailureKind::Unrecovered`][crate::FailureKind]
    /// (with the exact budget arithmetic in the error) instead of
    /// resurrecting from a log it refused to keep. A budget of at least
    /// `checkpoint_every - 1` makes every fault point recoverable; a
    /// smaller one deliberately trades memory for a deterministic
    /// unrecoverable band (`lag ∈ budget+1..checkpoint_every`) — the
    /// knob the recovery bench sweeps.
    pub replay_budget: u64,
}

impl Default for SuperviseConfig {
    fn default() -> Self {
        SuperviseConfig::every(8, 16)
    }
}

impl SuperviseConfig {
    /// A config with the given checkpoint cadence and replay budget.
    pub fn every(checkpoint_every: u64, replay_budget: u64) -> Self {
        SuperviseConfig {
            checkpoint_every,
            replay_budget,
        }
    }

    /// Checks the configuration.
    ///
    /// # Errors
    ///
    /// Rejects a zero checkpoint cadence. An under-covering replay
    /// budget (`< checkpoint_every - 1`) is *allowed*: it
    /// deterministically makes some fault points unrecoverable, which
    /// is a legitimate memory ceiling (and the reachable path to
    /// [`FailureKind::Unrecovered`][crate::FailureKind]).
    pub fn validate(&self) -> Result<()> {
        if self.checkpoint_every == 0 {
            return Err(Error::config("supervision checkpoint cadence must be >= 1"));
        }
        Ok(())
    }
}

/// A checkpoint of one *serving slot*: the core session checkpoint plus
/// the serve-side state that must survive a resurrection — the scheme
/// index, the arrival counter every deterministic schedule keys on, and
/// the rung whose EW policy the session has.
pub(crate) struct SlotCheckpoint<T: VisionTask> {
    pub(crate) session: SessionCheckpoint<T>,
    pub(crate) scheme: usize,
    pub(crate) arrivals: u64,
    pub(crate) applied_rung: usize,
}

impl<T> Clone for SlotCheckpoint<T>
where
    T: VisionTask + Clone,
    T::State: Clone,
{
    fn clone(&self) -> Self {
        SlotCheckpoint {
            session: self.session.clone(),
            scheme: self.scheme,
            arrivals: self.arrivals,
            applied_rung: self.applied_rung,
        }
    }
}

/// One live session's recovery ledger, carried in its slot: the last
/// checkpoint plus the write-ahead replay log since.
pub(crate) struct Ledger<T: VisionTask> {
    pub(crate) checkpoint: SlotCheckpoint<T>,
    /// Frames processed since the checkpoint, in arrival order
    /// (`Arc`-shared with producers; emptied while `lost`).
    pub(crate) replay: Vec<Arc<FrameData>>,
    /// Arrivals since the checkpoint — kept separately so the budget
    /// arithmetic survives dropping an over-budget log.
    pub(crate) lag: u64,
    /// The replay log outgrew the budget: a fault now drains this
    /// session as `Unrecovered` (the next checkpoint refresh starts a
    /// new ledger).
    pub(crate) lost: bool,
}

impl<T: VisionTask> Ledger<T> {
    /// A ledger starting at `checkpoint` with an empty log.
    pub(crate) fn new(checkpoint: SlotCheckpoint<T>) -> Self {
        Ledger {
            checkpoint,
            replay: Vec::new(),
            lag: 0,
            lost: false,
        }
    }

    /// Logs one arrival ahead of processing it; past `budget` arrivals
    /// the log is dropped and the session marked lost.
    pub(crate) fn log(&mut self, frame: &Arc<FrameData>, budget: u64) {
        self.lag += 1;
        if self.lag > budget {
            self.lost = true;
            self.replay.clear();
        } else {
            self.replay.push(Arc::clone(frame));
        }
    }
}

/// What cost a worker its session table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IncidentKind {
    /// The worker died mid-message (chaos `kill_every`, keyed on the
    /// session's arrival index — worker-count invariant).
    WorkerKill,
    /// The worker wedged at a dequeue (chaos `wedge_every`, keyed on
    /// the worker's dequeue index).
    Wedge,
}

/// One worker fault and the resurrection that followed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryIncident {
    /// How the worker failed.
    pub kind: IncidentKind,
    /// The session whose frame triggered the fault (for a wedge: the
    /// session whose message was dequeued).
    pub session: SessionId,
    /// The incident's logical tick: for a kill, the triggering
    /// session's arrival index (worker-count invariant); for a wedge,
    /// the worker's dequeue index.
    pub tick: u64,
    /// The triggering session's replay distance (frames past its last
    /// checkpoint) at the fault — the logical time to rebuild it.
    pub replay_lag: u64,
    /// Whether the triggering session was within its replay budget
    /// (`false` means it drained as `Unrecovered`).
    pub recovered: bool,
}

/// The recovery outcome of one server lifetime, part of
/// [`DrainReport`][crate::DrainReport] whenever supervision is
/// configured. Every number is logical — detections, replay distances —
/// never wall-clock.
///
/// Two invariance classes: the kill *timeline* (`incidents`,
/// [`mttr_ticks`][Self::mttr_ticks]) is a pure function of the seeded
/// chaos plan — identical at any worker count, because kill draws key
/// on `(session, arrival)`. The *collateral* counters (`resurrected`,
/// `replayed_frames`, `unrecovered`) additionally depend on session
/// *placement*: a worker fault rebuilds every session sharded onto that
/// worker, so one kill resurrects 8 co-resident sessions at 1 worker
/// but only 2 at 4 workers, and an innocent co-resident session caught
/// over its replay budget mid-checkpoint-window is collateral damage
/// only where it actually shares the faulting worker. Wedges key on
/// per-worker dequeue indices, so a wedge timeline is placement-
/// dependent too.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Every worker fault, in `(tick, session)` order.
    pub incidents: Vec<RecoveryIncident>,
    /// Sessions rebuilt live from checkpoint + replay (placement-
    /// dependent: every session co-resident with a fault is rebuilt).
    pub resurrected: u64,
    /// Frames replayed across all resurrections (counted here and only
    /// here — never in the frame/served counters).
    pub replayed_frames: u64,
    /// Sessions drained as
    /// [`FailureKind::Unrecovered`][crate::FailureKind] because their
    /// replay log was over budget when their worker failed.
    pub unrecovered: u64,
}

impl RecoveryReport {
    /// Worker faults recovered from (kills plus wedges).
    pub fn detections(&self) -> usize {
        self.incidents.len()
    }

    /// The deterministic mean-time-to-repair proxy: the worst
    /// per-incident replay distance, in logical ticks (frames replayed
    /// to rebuild the triggering session). Zero when nothing failed.
    pub fn mttr_ticks(&self) -> u64 {
        self.incidents
            .iter()
            .map(|i| i.replay_lag)
            .max()
            .unwrap_or(0)
    }

    pub(crate) fn merge(&mut self, other: &RecoveryReport) {
        self.incidents.extend(other.incidents.iter().cloned());
        self.incidents.sort_by_key(|i| (i.tick, i.session));
        self.resurrected += other.resurrected;
        self.replayed_frames += other.replayed_frames;
        self.unrecovered += other.unrecovered;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_accepts_tight_budgets_but_rejects_degenerate_timing() {
        assert!(SuperviseConfig::default().validate().is_ok());
        assert!(SuperviseConfig::every(1, 0).validate().is_ok());
        assert!(
            SuperviseConfig::every(8, 2).validate().is_ok(),
            "an under-covering budget is a memory ceiling, not an error"
        );
        assert!(SuperviseConfig::every(0, 4).validate().is_err());
    }

    #[test]
    fn mttr_is_the_worst_replay_distance() {
        let mut r = RecoveryReport::default();
        assert_eq!(r.mttr_ticks(), 0);
        for (tick, lag) in [(9u64, 3u64), (2, 7), (5, 1)] {
            r.incidents.push(RecoveryIncident {
                kind: IncidentKind::WorkerKill,
                session: tick,
                tick,
                replay_lag: lag,
                recovered: true,
            });
        }
        assert_eq!(r.mttr_ticks(), 7);
        let mut merged = RecoveryReport::default();
        merged.merge(&r);
        assert_eq!(
            merged.incidents.first().map(|i| i.tick),
            Some(2),
            "merge sorts by logical tick"
        );
    }
}
