//! SLO-aware graceful degradation: the overload-control state machine
//! and the one degradation walk a server runs on it.
//!
//! Euphrates' central observation — the EW window is a *knob* trading
//! accuracy for compute (§3.3) — makes the window the natural actuator
//! for overload control: a server that cannot meet its queue-wait SLO
//! can widen live sessions' windows (more extrapolation, fewer CNN
//! frames) instead of failing closed. This module declares that
//! mechanism as data:
//!
//! * [`SloConfig`] — the service-level objective: a per-frame queue-wait
//!   budget, the evaluation epoch, and the hysteresis streaks.
//! * [`DegradationLadder`] / [`Rung`] — the ordered list of states the
//!   server may degrade through. Each rung can widen the EW window,
//!   shrink the NN batching window, and (last resort) shed frames.
//! * [`OverloadController`] — a **pure, deterministic** state machine:
//!   it consumes one pressure observation per epoch (the fraction of
//!   frames whose queue wait exceeded the budget, derived from the same
//!   measurements that feed the queue-wait histograms) and walks the
//!   ladder with two-sided hysteresis. Every transition is recorded
//!   into a timeline that [`DegradationReport`] surfaces at drain.
//!
//! A server runs **one** walk: one controller behind a mutex, shared by
//! every worker. This module owns it — pressure pooling, each
//! arrival's rung, the shed rule, the batch-window shift and settling
//! the report — so no other module tells its two modes apart. Measured
//! (no plan): the frame that closes an epoch of pooled queue waits makes
//! the controller observe it, so epoch composition depends on thread
//! interleaving. Planned (a chaos [`PressurePlan`]): an arrival whose
//! epoch the walk has not reached extends it over the plan, and the
//! arrival's rung is [`OverloadController::rung_at`] that epoch.
//!
//! Determinism is the load-bearing property: the controller holds no
//! clock and no randomness, so the rung sequence is a function of the
//! observation sequence alone. Under a plan each arrival's rung is then
//! a pure function of the server's SLO, its plan and the session's
//! arrival index — never of state carried in a session slot — which is
//! what lets the chaos suite assert *identical* rung timelines and
//! per-session outcomes at any worker count, and what makes a thawed
//! session follow the new server's SLO and plan.

use crate::chaos::PressurePlan;
use euphrates_common::error::{Error, Result};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// One state of the degradation ladder. Rung 0 is the nominal state;
/// higher rungs trade more quality for headroom.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rung {
    /// Label used in logs and reports.
    pub name: &'static str,
    /// `Some(n)` pins live sessions' EW windows to `n` (constant mode);
    /// `None` restores each session's scheme-declared policy.
    pub ew_window: Option<u32>,
    /// Right-shift applied to `NnBatchConfig::max_wait` at this rung:
    /// shift 1 halves the batching window (lower latency, less
    /// amortization), shift 0 leaves it nominal.
    pub max_wait_shift: u32,
    /// Shed frames at this rung instead of processing them: under a
    /// live (measured) controller only frames already over the
    /// per-frame budget are shed; under a chaos pressure plan every
    /// frame at the rung is shed so the outcome stays deterministic.
    pub shed: bool,
}

impl Rung {
    /// A no-op rung: scheme policy, nominal batching window, no
    /// shedding.
    pub fn nominal(name: &'static str) -> Self {
        Rung {
            name,
            ew_window: None,
            max_wait_shift: 0,
            shed: false,
        }
    }
}

/// The ordered degradation states a server walks under pressure.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationLadder {
    /// Rung 0 first; the controller degrades toward the end.
    pub rungs: Vec<Rung>,
}

impl DegradationLadder {
    /// The default four-rung ladder: nominal → EW-8 + half batching
    /// window → EW-16 + quarter window → EW-16 + eighth window +
    /// shedding.
    pub fn standard() -> Self {
        DegradationLadder {
            rungs: vec![
                Rung::nominal("nominal"),
                Rung {
                    name: "ew8",
                    ew_window: Some(8),
                    max_wait_shift: 1,
                    shed: false,
                },
                Rung {
                    name: "ew16",
                    ew_window: Some(16),
                    max_wait_shift: 2,
                    shed: false,
                },
                Rung {
                    name: "shed",
                    ew_window: Some(16),
                    max_wait_shift: 3,
                    shed: true,
                },
            ],
        }
    }

    /// Number of rungs.
    pub fn len(&self) -> usize {
        self.rungs.len()
    }

    /// `true` if the ladder has no rungs (invalid; rejected by
    /// [`SloConfig::validate`]).
    pub fn is_empty(&self) -> bool {
        self.rungs.is_empty()
    }

    fn validate(&self) -> Result<()> {
        if self.rungs.is_empty() {
            return Err(Error::config("degradation ladder needs at least one rung"));
        }
        for (i, rung) in self.rungs.iter().enumerate() {
            if rung.ew_window == Some(0) {
                return Err(Error::config(format!(
                    "ladder rung {i} (`{}`) pins the EW window to 0",
                    rung.name
                )));
            }
            if rung.max_wait_shift > 32 {
                return Err(Error::config(format!(
                    "ladder rung {i} (`{}`) shifts max_wait by {} (> 32)",
                    rung.name, rung.max_wait_shift
                )));
            }
        }
        Ok(())
    }
}

/// The per-server service-level objective and the ladder that defends
/// it.
#[derive(Debug, Clone, PartialEq)]
pub struct SloConfig {
    /// Per-frame queue-wait budget: a dequeued frame that waited longer
    /// counts against the epoch's pressure (and is shed at a shedding
    /// rung — a stale frame's result is worthless in continuous
    /// vision).
    pub frame_budget: Duration,
    /// Frames per evaluation epoch: the controller observes pressure
    /// once per `eval_every` frames.
    pub eval_every: u64,
    /// Consecutive overloaded epochs before stepping **down** a rung
    /// (degrading).
    pub degrade_after: u32,
    /// Consecutive healthy epochs before stepping back **up** toward
    /// nominal (recovering). Larger than `degrade_after` by default —
    /// degrade fast, recover cautiously.
    pub upgrade_after: u32,
    /// An epoch is *overloaded* when the fraction of frames over
    /// `frame_budget` reaches this value.
    pub degrade_frac: f64,
    /// An epoch is *healthy* when the over-budget fraction is at or
    /// below this value; between the two thresholds the controller
    /// holds its rung (the dead band of the hysteresis).
    pub recover_frac: f64,
    /// The degradation states.
    pub ladder: DegradationLadder,
}

impl SloConfig {
    /// An SLO with the standard ladder and default epoch/hysteresis
    /// (256-frame epochs; degrade after 1 overloaded epoch, recover
    /// after 4 healthy ones; 5% / 1% pressure thresholds).
    pub fn new(frame_budget: Duration) -> Self {
        SloConfig {
            frame_budget,
            eval_every: 256,
            degrade_after: 1,
            upgrade_after: 4,
            degrade_frac: 0.05,
            recover_frac: 0.01,
            ladder: DegradationLadder::standard(),
        }
    }

    /// Sets the evaluation epoch (frames per pressure observation).
    pub fn with_epoch(mut self, eval_every: u64) -> Self {
        self.eval_every = eval_every;
        self
    }

    /// Sets the hysteresis streaks.
    pub fn with_hysteresis(mut self, degrade_after: u32, upgrade_after: u32) -> Self {
        self.degrade_after = degrade_after;
        self.upgrade_after = upgrade_after;
        self
    }

    /// Checks the configuration.
    ///
    /// # Errors
    ///
    /// Rejects zero budgets/epochs/streaks, pressure thresholds outside
    /// `[0, 1]` or inverted, and invalid ladders.
    pub fn validate(&self) -> Result<()> {
        if self.frame_budget.is_zero() {
            return Err(Error::config("SLO frame budget must be positive"));
        }
        if self.eval_every == 0 {
            return Err(Error::config("SLO epoch (eval_every) must be >= 1 frame"));
        }
        if self.degrade_after == 0 || self.upgrade_after == 0 {
            return Err(Error::config("SLO hysteresis streaks must be >= 1 epoch"));
        }
        if !(0.0..=1.0).contains(&self.degrade_frac) || !(0.0..=1.0).contains(&self.recover_frac) {
            return Err(Error::config("SLO pressure thresholds must lie in [0, 1]"));
        }
        if self.recover_frac > self.degrade_frac {
            return Err(Error::config(
                "SLO recover threshold exceeds the degrade threshold (inverted hysteresis)",
            ));
        }
        self.ladder.validate()
    }
}

/// One recorded ladder transition. A settled timeline is one connected
/// walk: each `from` is the previous `to` (rung 0 before the first),
/// and the last `to` is the report's `final_rung`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RungTransition {
    /// The epoch whose observation triggered the step; for a thaw
    /// reset, the thawed walk's first epoch.
    pub epoch: u64,
    /// Rung before.
    pub from: usize,
    /// Rung after: `from ± 1`, or 0 for a thaw reset — a measured walk
    /// restarts at nominal when its server is thawed.
    pub to: usize,
    /// The over-budget fraction observed that epoch (0 for a thaw
    /// reset, which observes nothing).
    pub over_frac: f64,
}

/// The deterministic overload state machine: feeds on one pressure
/// observation per epoch, walks the ladder with two-sided hysteresis,
/// and records every transition.
#[derive(Debug, Clone)]
pub struct OverloadController {
    slo: SloConfig,
    rung: usize,
    over_streak: u32,
    under_streak: u32,
    epochs: u64,
    timeline: Vec<RungTransition>,
}

impl OverloadController {
    /// Creates a controller at rung 0.
    ///
    /// # Errors
    ///
    /// Propagates [`SloConfig::validate`] failures.
    pub fn new(slo: SloConfig) -> Result<Self> {
        slo.validate()?;
        Ok(OverloadController {
            slo,
            rung: 0,
            over_streak: 0,
            under_streak: 0,
            epochs: 0,
            timeline: Vec::new(),
        })
    }

    /// The configuration driving the walk.
    pub fn slo(&self) -> &SloConfig {
        &self.slo
    }

    /// The current rung index.
    pub fn rung(&self) -> usize {
        self.rung
    }

    /// Epochs observed so far.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Every transition taken, in order.
    pub fn timeline(&self) -> &[RungTransition] {
        &self.timeline
    }

    /// The rung in force once `epoch` has been observed, read from the
    /// timeline: rung 0 before the first transition. For an epoch not
    /// yet observed this is the current rung.
    pub fn rung_at(&self, epoch: u64) -> usize {
        match self.timeline.partition_point(|t| t.epoch <= epoch) {
            0 => 0,
            n => self.timeline[n - 1].to,
        }
    }

    /// Consumes one epoch's pressure observation — the fraction of the
    /// epoch's frames whose queue wait exceeded the budget — and
    /// returns the (possibly new) rung.
    ///
    /// Overloaded epochs (`over_frac >= degrade_frac`) extend the
    /// degrade streak; healthy epochs (`over_frac <= recover_frac`)
    /// extend the recover streak; the dead band between them resets
    /// both, holding the rung. A streak reaching its threshold steps
    /// one rung (clamped at the ladder ends) and resets. A non-finite
    /// observation reads as full overload.
    pub fn observe(&mut self, over_frac: f64) -> usize {
        let epoch = self.epochs;
        self.epochs += 1;
        let over_frac = if over_frac.is_finite() {
            over_frac.clamp(0.0, 1.0)
        } else {
            1.0
        };
        if over_frac >= self.slo.degrade_frac {
            self.under_streak = 0;
            self.over_streak += 1;
            if self.over_streak >= self.slo.degrade_after {
                self.over_streak = 0;
                if self.rung + 1 < self.slo.ladder.len() {
                    self.timeline.push(RungTransition {
                        epoch,
                        from: self.rung,
                        to: self.rung + 1,
                        over_frac,
                    });
                    self.rung += 1;
                }
            }
        } else if over_frac <= self.slo.recover_frac {
            self.over_streak = 0;
            self.under_streak += 1;
            if self.under_streak >= self.slo.upgrade_after {
                self.under_streak = 0;
                if self.rung > 0 {
                    self.timeline.push(RungTransition {
                        epoch,
                        from: self.rung,
                        to: self.rung - 1,
                        over_frac,
                    });
                    self.rung -= 1;
                }
            }
        } else {
            self.over_streak = 0;
            self.under_streak = 0;
        }
        self.rung
    }
}

/// The degradation outcome of one server lifetime, merged into
/// [`DrainReport`][crate::DrainReport].
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationReport {
    /// Every ladder transition, in epoch order. Under a chaos pressure
    /// plan this is the canonical (thread-count-independent) walk.
    pub timeline: Vec<RungTransition>,
    /// Frames *scheduled* at each rung (indexed like the ladder): live
    /// sessions' arrivals, whether served, shed, or fatal. The frames
    /// shed are [`DrainReport::shed`][crate::DrainReport::shed].
    pub frames_per_rung: Vec<u64>,
    /// Live EW re-configurations applied to sessions on rung changes.
    pub reconfigs: u64,
    /// Pressure epochs observed.
    pub epochs: u64,
    /// The rung the server ended on.
    pub final_rung: usize,
}

impl DegradationReport {
    /// Adds `other`'s counters into this report. `epochs` takes the
    /// larger count and the timelines concatenate: only a thaw carry
    /// has either, since a worker's report leaves the walk to
    /// [`OverloadRuntime::settle`]. Counts at rungs past this report's
    /// ladder (a thaw carry from a longer ladder) land on its last rung,
    /// so `frames_per_rung` indexes the settling server's ladder.
    pub(crate) fn merge(&mut self, other: &DegradationReport) {
        let last = self.frames_per_rung.len() - 1;
        for (rung, n) in other.frames_per_rung.iter().enumerate() {
            self.frames_per_rung[rung.min(last)] += n;
        }
        self.timeline.extend_from_slice(&other.timeline);
        self.reconfigs += other.reconfigs;
        self.epochs = self.epochs.max(other.epochs);
    }
}

/// A server's one degradation walk (see the [module docs](self)).
pub(crate) struct OverloadRuntime {
    slo: SloConfig,
    plan: Option<PressurePlan>,
    /// Frames pooled in measured mode (monotonic; an epoch closes every
    /// `eval_every`-th frame).
    epoch_frames: AtomicU64,
    /// Over-budget frames in the current measured epoch.
    epoch_over: AtomicU64,
    walk: Mutex<OverloadController>,
}

impl OverloadRuntime {
    /// The walk of a server with `slo`, driven by `plan` when one is
    /// given and by measured queue waits otherwise.
    pub(crate) fn new(slo: SloConfig, plan: Option<PressurePlan>) -> Result<Self> {
        let walk = Mutex::new(OverloadController::new(slo.clone())?);
        Ok(OverloadRuntime {
            slo,
            plan,
            epoch_frames: AtomicU64::new(0),
            epoch_over: AtomicU64::new(0),
            walk,
        })
    }

    fn walk(&self) -> MutexGuard<'_, OverloadController> {
        self.walk
            .lock()
            .expect("nothing panics while holding the degradation walk")
    }

    fn over_budget(&self, wait_ns: u64) -> bool {
        wait_ns > self.slo.frame_budget.as_nanos() as u64
    }

    /// An empty report with one counter per rung.
    pub(crate) fn empty_report(&self) -> DegradationReport {
        DegradationReport {
            timeline: Vec::new(),
            frames_per_rung: vec![0; self.slo.ladder.len()],
            reconfigs: 0,
            epochs: 0,
            final_rung: 0,
        }
    }

    /// The rung the walk stands on now.
    pub(crate) fn rung(&self) -> usize {
        self.walk().rung()
    }

    /// Pools one received frame's queue wait (measured mode; a no-op
    /// under a plan). The frame that completes an epoch makes the
    /// controller observe it, once per epoch, never per frame.
    pub(crate) fn pool(&self, wait_ns: u64) {
        if self.plan.is_some() {
            return;
        }
        if self.over_budget(wait_ns) {
            self.epoch_over.fetch_add(1, Ordering::Relaxed);
        }
        let n = self.epoch_frames.fetch_add(1, Ordering::Relaxed) + 1;
        if n.is_multiple_of(self.slo.eval_every) {
            let over = self.epoch_over.swap(0, Ordering::Relaxed);
            self.walk()
                .observe(over as f64 / self.slo.eval_every as f64);
        }
    }

    /// The rung of a session's `arrival`-th frame, and whether the frame
    /// is shed; counts the frame at its rung in `report` when given.
    /// Under a plan the rung is the timeline's at the arrival's epoch
    /// (so replays and thawed sessions land where a fault-free run
    /// would), and every frame at a shedding rung is shed. A measured
    /// frame takes the current rung and is shed only when its `wait_ns`
    /// is over budget, so a replay (`wait_ns == None`) never sheds.
    pub(crate) fn schedule(
        &self,
        arrival: u64,
        wait_ns: Option<u64>,
        report: Option<&mut DegradationReport>,
    ) -> (usize, bool) {
        let rung = match &self.plan {
            Some(plan) => {
                let epoch = arrival / self.slo.eval_every;
                let mut walk = self.walk();
                extend(&mut walk, plan, epoch + 1);
                walk.rung_at(epoch)
            }
            None => self.rung(),
        };
        if let Some(report) = report {
            report.frames_per_rung[rung] += 1;
        }
        let shed = self.slo.ladder.rungs[rung].shed
            && (self.plan.is_some() || wait_ns.is_some_and(|w| self.over_budget(w)));
        (rung, shed)
    }

    /// The EW window `rung` pins; `None` keeps the scheme's policy.
    pub(crate) fn ew_window(&self, rung: usize) -> Option<u32> {
        self.slo.ladder.rungs[rung].ew_window
    }

    /// The NN batching window at the current rung: `nominal` shifted
    /// right by the rung's `max_wait_shift`.
    pub(crate) fn batch_window(&self, nominal: Duration) -> Duration {
        let shift = self.slo.ladder.rungs[self.rung()].max_wait_shift.min(63);
        Duration::from_nanos((nominal.as_nanos() as u64) >> shift)
    }

    /// Settles the merged report at shutdown; the final rung is the
    /// controller's. Under a plan the walk is first extended to the
    /// merged `epochs`, which covers a thaw carry, and the timeline and
    /// epoch count are the controller's. Measured, the controller walked
    /// only this incarnation, from rung 0: its epochs follow the carry's,
    /// so they are offset by the carry's epoch count and appended to its
    /// timeline, after a reset from the carry's last rung to 0.
    pub(crate) fn settle(&self, report: &mut DegradationReport) {
        let mut walk = self.walk();
        let carried = match &self.plan {
            Some(plan) => {
                extend(&mut walk, plan, report.epochs);
                report.timeline.clear();
                0
            }
            None => {
                let carried_rung = report.timeline.last().map_or(0, |t| t.to);
                if carried_rung != 0 {
                    report.timeline.push(RungTransition {
                        epoch: report.epochs,
                        from: carried_rung,
                        to: 0,
                        over_frac: 0.0,
                    });
                }
                report.epochs
            }
        };
        report
            .timeline
            .extend(walk.timeline().iter().map(|t| RungTransition {
                epoch: carried + t.epoch,
                ..*t
            }));
        report.epochs = carried + walk.epochs();
        report.final_rung = walk.rung();
    }
}

/// Observes `plan` until `walk` has seen `epochs` epochs.
fn extend(walk: &mut OverloadController, plan: &PressurePlan, epochs: u64) {
    while walk.epochs() < epochs {
        walk.observe(plan.over_frac(walk.epochs()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slo(degrade_after: u32, upgrade_after: u32) -> SloConfig {
        SloConfig::new(Duration::from_millis(1))
            .with_epoch(4)
            .with_hysteresis(degrade_after, upgrade_after)
    }

    #[test]
    fn validation_rejects_bad_configs() {
        assert!(slo(1, 1).validate().is_ok());
        assert!(slo(0, 1).validate().is_err());
        assert!(slo(1, 0).validate().is_err());
        let mut s = slo(1, 1);
        s.frame_budget = Duration::ZERO;
        assert!(s.validate().is_err());
        let mut s = slo(1, 1);
        s.eval_every = 0;
        assert!(s.validate().is_err());
        let mut s = slo(1, 1);
        s.recover_frac = 0.5;
        s.degrade_frac = 0.1;
        assert!(s.validate().is_err(), "inverted hysteresis band");
        let mut s = slo(1, 1);
        s.ladder = DegradationLadder { rungs: vec![] };
        assert!(s.validate().is_err(), "empty ladder");
        let mut s = slo(1, 1);
        s.ladder.rungs[1].ew_window = Some(0);
        assert!(s.validate().is_err(), "zero EW pin");
    }

    #[test]
    fn walks_down_under_sustained_pressure_and_clamps() {
        let mut c = OverloadController::new(slo(1, 1)).unwrap();
        let depth = c.slo().ladder.len();
        for _ in 0..10 {
            c.observe(1.0);
        }
        assert_eq!(c.rung(), depth - 1, "clamped at the last rung");
        assert_eq!(c.timeline().len(), depth - 1, "one transition per step");
        for (i, t) in c.timeline().iter().enumerate() {
            assert_eq!((t.from, t.to), (i, i + 1));
            assert_eq!(t.epoch, i as u64);
        }
    }

    #[test]
    fn recovers_with_hysteresis() {
        let mut c = OverloadController::new(slo(1, 2)).unwrap();
        c.observe(1.0);
        c.observe(1.0);
        assert_eq!(c.rung(), 2);
        // One healthy epoch is not enough (upgrade_after = 2)...
        c.observe(0.0);
        assert_eq!(c.rung(), 2);
        // ...two are.
        c.observe(0.0);
        assert_eq!(c.rung(), 1);
        c.observe(0.0);
        c.observe(0.0);
        assert_eq!(c.rung(), 0);
        // Clamped at nominal.
        c.observe(0.0);
        c.observe(0.0);
        assert_eq!(c.rung(), 0);
        let downs: Vec<usize> = c
            .timeline()
            .iter()
            .filter(|t| t.to < t.from)
            .map(|t| t.to)
            .collect();
        assert_eq!(downs, vec![1, 0]);
    }

    #[test]
    fn rung_at_reads_the_rung_in_force_after_each_epoch() {
        let mut c = OverloadController::new(slo(1, 2)).unwrap();
        for over_frac in [0.0, 1.0, 1.0, 0.0, 0.0] {
            c.observe(over_frac);
        }
        // Steps 0→1 at epoch 1, 1→2 at epoch 2, 2→1 at epoch 4; epoch 5
        // is not observed yet and reads the current rung.
        let rungs: Vec<usize> = (0..6).map(|e| c.rung_at(e)).collect();
        assert_eq!(rungs, vec![0, 1, 2, 2, 1, 1]);
        assert_eq!(c.rung_at(5), c.rung());
    }

    #[test]
    fn dead_band_holds_the_rung_and_resets_streaks() {
        let mut c = OverloadController::new(slo(2, 2)).unwrap();
        // degrade_frac 0.05, recover_frac 0.01: 0.03 is the dead band.
        c.observe(1.0);
        c.observe(0.03); // resets the degrade streak
        c.observe(1.0);
        assert_eq!(c.rung(), 0, "streak broken by the dead band");
        c.observe(1.0);
        assert_eq!(c.rung(), 1, "two consecutive overloaded epochs step");
        c.observe(0.0);
        c.observe(0.03); // resets the recover streak too
        c.observe(0.0);
        assert_eq!(c.rung(), 1);
        c.observe(0.0);
        assert_eq!(c.rung(), 0);
    }

    #[test]
    fn walk_is_a_pure_function_of_the_observation_sequence() {
        let pressures: Vec<f64> = (0..64)
            .map(|e| {
                if euphrates_common::rngx::counter_hash(0xD15C0, e).is_multiple_of(3) {
                    1.0
                } else {
                    0.0
                }
            })
            .collect();
        let run = |pressures: &[f64]| {
            let mut c = OverloadController::new(slo(1, 2)).unwrap();
            for &p in pressures {
                c.observe(p);
            }
            (c.rung(), c.timeline().to_vec())
        };
        assert_eq!(run(&pressures), run(&pressures));
    }

    #[test]
    fn non_finite_pressure_degrades_rather_than_wedging() {
        let mut c = OverloadController::new(slo(1, 1)).unwrap();
        c.observe(f64::NAN);
        assert_eq!(c.rung(), 1, "NaN pressure reads as full overload");
        c.observe(f64::INFINITY);
        assert_eq!(c.rung(), 2);
    }

    #[test]
    fn standard_ladder_tightens_monotonically() {
        let ladder = DegradationLadder::standard();
        assert!(ladder.len() >= 2);
        assert_eq!(ladder.rungs[0], Rung::nominal("nominal"));
        let mut prev_shift = 0;
        for rung in &ladder.rungs {
            assert!(
                rung.max_wait_shift >= prev_shift,
                "batch window only shrinks"
            );
            prev_shift = rung.max_wait_shift;
        }
        assert!(ladder.rungs.last().unwrap().shed, "last resort sheds");
    }
}
