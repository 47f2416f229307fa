//! Deterministic fault injection for the session server.
//!
//! Robustness claims that are only exercised by clean traffic are
//! untested claims. [`ChaosConfig`] is a seeded fault plan wired
//! through [`SessionServer`][crate::SessionServer] behind a
//! zero-cost-when-off hook (an `Option` checked per event, exactly like
//! the NN batching runtime): when enabled it injects
//!
//! * **worker stalls** — a worker sleeps before processing a dequeue,
//!   simulating scheduling hiccups and slow frames;
//! * **session panics** — a task step panics mid-push, exercising the
//!   worker's `catch_unwind` isolation;
//! * **corrupted frames** — a frame is replaced with one of the wrong
//!   resolution *before* the session sees it, exercising the
//!   validation/poison path end to end;
//! * **forced queue saturation** — admissions are rejected as
//!   [`Submit::Busy`][crate::Submit] as if the lane were full,
//!   exercising producer retry/backoff and shedding;
//! * **worker kills** — the worker loses its whole session table
//!   mid-message (keyed on `(id, arrival)` so the incident timeline is
//!   worker-count invariant), exercising the supervisor's
//!   checkpoint/replay resurrection path ([`crate::supervise`]);
//! * **worker wedges** — a logical fault at a dequeue tick: the worker
//!   gets stuck with the message in hand and loses its session table
//!   the same way. Wedges take no wall-clock time.
//!
//! [`ChaosReport`] counts the faults that touch one session or one
//! admission. Worker kills and wedges need supervision, and each one is
//! exactly one [`RecoveryIncident`][crate::RecoveryIncident] in
//! [`RecoveryReport::incidents`][crate::RecoveryReport::incidents],
//! told apart by its [`IncidentKind`][crate::IncidentKind]; nothing
//! else counts them.
//!
//! Every decision derives from [`rngx::counter_hash`] over *logical*
//! counters — session id, per-session arrival index, per-worker dequeue
//! index, admission sequence number — never wall-clock. Same seed, same
//! plan, same faults, bit-for-bit, at any worker count (stall *timing*
//! varies with the scheduler, but stalls do not change any computed
//! outcome). Panic and corruption sites key on `(id, arrival index)`,
//! so per-session casualty sets are identical at 1 worker and at 8.
//!
//! [`PressurePlan`] drives the overload controller the same way: a pure
//! function of `(plan, epoch)` replaces the measured queue pressure, so
//! the degradation rung timeline becomes a deterministic function of
//! `(seed, config)` — the property the chaos suite asserts.

use euphrates_common::rngx;
use std::time::Duration;

/// Stream salts separating the independent fault channels.
const STALL_STREAM: u64 = 0xC4A0_57A1;
const PANIC_STREAM: u64 = 0xC4A0_57A2;
const CORRUPT_STREAM: u64 = 0xC4A0_57A3;
const REJECT_STREAM: u64 = 0xC4A0_57A4;
const KILL_STREAM: u64 = 0xC4A0_57A5;
const WEDGE_STREAM: u64 = 0xC4A0_57A6;

/// A synthetic pressure signal for the overload controller: replaces
/// the measured over-budget fraction with a pure function of the epoch,
/// making the whole degradation walk reproducible.
///
/// With a plan active, rungs advance on **per-session** epochs (a
/// session's arrival count / `eval_every`), so each session walks the
/// same deterministic ladder schedule regardless of how sessions
/// interleave across workers — per-session outcomes are identical at
/// `EUPHRATES_THREADS` 1 and 4, which the determinism tests assert.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PressurePlan {
    /// Full overload (`over_frac = 1.0`) for epochs in `[from, until)`,
    /// healthy (`0.0`) elsewhere.
    Burst {
        /// First overloaded epoch.
        from: u64,
        /// First epoch after the burst.
        until: u64,
    },
    /// Pseudo-random overload: epoch `e` is overloaded when
    /// `counter_hash(key, e) % 1000 < duty_milli`.
    Seeded {
        /// Hash key (combine with the chaos seed for variety).
        key: u64,
        /// Overload duty cycle in thousandths (0..=1000).
        duty_milli: u32,
    },
}

impl PressurePlan {
    /// The planned over-budget fraction for `epoch` — a pure function.
    pub fn over_frac(&self, epoch: u64) -> f64 {
        match *self {
            PressurePlan::Burst { from, until } => {
                if epoch >= from && epoch < until {
                    1.0
                } else {
                    0.0
                }
            }
            PressurePlan::Seeded { key, duty_milli } => {
                if rngx::counter_hash(key, epoch) % 1000 < u64::from(duty_milli.min(1000)) {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }
}

/// A seeded, bit-reproducible fault plan. All channels default to
/// **off**; `*_every = n` arms a channel to fire on a pseudo-random
/// ~`1/n` of its events (`n = 1` fires on every event).
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// Seed mixed into every fault decision.
    pub seed: u64,
    /// Stall ~1/n of worker dequeues (0 = off).
    pub stall_every: u64,
    /// How long a stalled worker sleeps (wall-clock by nature; affects
    /// timing only, never outcomes).
    pub stall: Duration,
    /// Panic ~1/n of live-session frame pushes (0 = off).
    pub panic_every: u64,
    /// Corrupt ~1/n of live-session frames to a wrong-resolution frame
    /// before the push (0 = off). The session poisons through its
    /// normal validation path.
    pub corrupt_every: u64,
    /// Forcibly reject ~1/n of non-blocking/deadline admissions as
    /// `Busy` (0 = off) — synthetic queue saturation.
    pub reject_every: u64,
    /// Kill the serving *worker* on ~1/n live-session frame pushes
    /// (0 = off): the worker loses every session sharded onto it and
    /// rebuilds them in place from the supervisor's ledger before it
    /// pushes the frame. Keyed on `(id, arrival)` like the panic
    /// channel, so the kill incident timeline is identical at any
    /// worker count. Requires supervision
    /// ([`ServeConfig::with_supervision`][crate::ServeConfig::with_supervision]) —
    /// validated at server construction.
    pub kill_every: u64,
    /// Wedge the worker before ~1/n dequeues (0 = off): a logical fault
    /// at the dequeue tick that, like a kill, costs the worker its
    /// session table, rebuilt in place before the dequeued message is
    /// processed. Requires supervision, like `kill_every`.
    pub wedge_every: u64,
    /// Synthetic pressure for the overload controller; requires an
    /// [`SloConfig`][crate::SloConfig] on the server.
    pub pressure: Option<PressurePlan>,
}

impl ChaosConfig {
    /// An all-channels-off plan with the given seed: arm channels with
    /// the builder methods.
    pub fn seeded(seed: u64) -> Self {
        ChaosConfig {
            seed,
            stall_every: 0,
            stall: Duration::from_micros(200),
            panic_every: 0,
            corrupt_every: 0,
            reject_every: 0,
            kill_every: 0,
            wedge_every: 0,
            pressure: None,
        }
    }

    /// Arms worker stalls: ~1/`every` dequeues sleep for `stall`.
    pub fn with_stalls(mut self, every: u64, stall: Duration) -> Self {
        self.stall_every = every;
        self.stall = stall;
        self
    }

    /// Arms injected session panics on ~1/`every` pushes.
    pub fn with_panics(mut self, every: u64) -> Self {
        self.panic_every = every;
        self
    }

    /// Arms frame corruption on ~1/`every` pushes.
    pub fn with_corruption(mut self, every: u64) -> Self {
        self.corrupt_every = every;
        self
    }

    /// Arms forced admission rejections on ~1/`every` submits.
    pub fn with_rejections(mut self, every: u64) -> Self {
        self.reject_every = every;
        self
    }

    /// Arms worker kills on ~1/`every` live-session frame pushes
    /// (needs supervision on the server).
    pub fn with_worker_kills(mut self, every: u64) -> Self {
        self.kill_every = every;
        self
    }

    /// Arms worker wedges on ~1/`every` dequeues (needs supervision on
    /// the server).
    pub fn with_wedges(mut self, every: u64) -> Self {
        self.wedge_every = every;
        self
    }

    /// Sets the synthetic pressure plan for the overload controller.
    pub fn with_pressure(mut self, plan: PressurePlan) -> Self {
        self.pressure = Some(plan);
        self
    }

    #[inline]
    fn fires(&self, every: u64, stream: u64, counter: u64) -> bool {
        every != 0 && rngx::counter_hash(self.seed ^ stream, counter).is_multiple_of(every)
    }

    /// Should worker `worker` stall before its `dequeue`-th message?
    #[inline]
    pub(crate) fn stall_at(&self, worker: u64, dequeue: u64) -> bool {
        self.fires(
            self.stall_every,
            STALL_STREAM,
            rngx::counter_hash(worker, dequeue),
        )
    }

    /// Should session `id`'s `arrival`-th frame panic mid-push?
    #[inline]
    pub(crate) fn panic_at(&self, id: u64, arrival: u64) -> bool {
        self.fires(
            self.panic_every,
            PANIC_STREAM,
            rngx::counter_hash(id, arrival),
        )
    }

    /// Should session `id`'s `arrival`-th frame arrive corrupted?
    #[inline]
    pub(crate) fn corrupt_at(&self, id: u64, arrival: u64) -> bool {
        self.fires(
            self.corrupt_every,
            CORRUPT_STREAM,
            rngx::counter_hash(id, arrival),
        )
    }

    /// Should the `submit`-th admission be forcibly rejected?
    #[inline]
    pub(crate) fn reject_at(&self, submit: u64) -> bool {
        self.fires(self.reject_every, REJECT_STREAM, submit)
    }

    /// Should session `id`'s `arrival`-th frame kill its worker?
    #[inline]
    pub(crate) fn kill_at(&self, id: u64, arrival: u64) -> bool {
        self.fires(
            self.kill_every,
            KILL_STREAM,
            rngx::counter_hash(id, arrival),
        )
    }

    /// Should worker `worker` wedge before its `dequeue`-th message?
    #[inline]
    pub(crate) fn wedge_at(&self, worker: u64, dequeue: u64) -> bool {
        self.fires(
            self.wedge_every,
            WEDGE_STREAM,
            rngx::counter_hash(worker, dequeue),
        )
    }
}

/// Counters of the session and admission faults actually injected,
/// merged over all workers and the admission path; part of
/// [`DrainReport`][crate::DrainReport] when chaos is armed. Worker kills
/// and wedges are [`RecoveryReport::incidents`][crate::RecoveryReport::incidents].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ChaosReport {
    /// Worker stalls taken.
    pub stalls: u64,
    /// Panics injected into task steps (each killed one session).
    pub panics: u64,
    /// Frames corrupted before their push (each poisoned one session).
    pub corrupted: u64,
    /// Admissions forcibly rejected as `Busy`.
    pub rejections: u64,
}

impl ChaosReport {
    /// Total session and admission faults injected.
    pub fn total(&self) -> u64 {
        self.stalls + self.panics + self.corrupted + self.rejections
    }

    pub(crate) fn merge(&mut self, other: &ChaosReport) {
        self.stalls += other.stalls;
        self.panics += other.panics;
        self.corrupted += other.corrupted;
        self.rejections += other.rejections;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_decisions_are_pure_and_rate_shaped() {
        let c = ChaosConfig::seeded(42)
            .with_stalls(8, Duration::from_micros(50))
            .with_panics(16)
            .with_corruption(32)
            .with_rejections(4);
        // Purity: identical plans agree everywhere.
        let c2 = c.clone();
        for i in 0..512 {
            assert_eq!(c.panic_at(3, i), c2.panic_at(3, i));
            assert_eq!(c.corrupt_at(3, i), c2.corrupt_at(3, i));
            assert_eq!(c.stall_at(1, i), c2.stall_at(1, i));
            assert_eq!(c.reject_at(i), c2.reject_at(i));
        }
        // Rate: ~1/n within loose bounds over 4096 events.
        let n = 4096u64;
        let panics = (0..n).filter(|&i| c.panic_at(7, i)).count() as f64 / n as f64;
        assert!((panics - 1.0 / 16.0).abs() < 0.02, "panic rate {panics}");
        let rejects = (0..n).filter(|&i| c.reject_at(i)).count() as f64 / n as f64;
        assert!((rejects - 1.0 / 4.0).abs() < 0.05, "reject rate {rejects}");
        // Off channels never fire.
        let off = ChaosConfig::seeded(42);
        assert!(!(0..n).any(|i| off.panic_at(7, i)
            || off.corrupt_at(7, i)
            || off.stall_at(0, i)
            || off.reject_at(i)));
    }

    #[test]
    fn channels_and_seeds_decorrelate() {
        let a = ChaosConfig::seeded(1).with_panics(4).with_corruption(4);
        let b = ChaosConfig::seeded(2).with_panics(4).with_corruption(4);
        let panics_a: Vec<bool> = (0..256).map(|i| a.panic_at(5, i)).collect();
        let panics_b: Vec<bool> = (0..256).map(|i| b.panic_at(5, i)).collect();
        assert_ne!(panics_a, panics_b, "seed must matter");
        let corrupts_a: Vec<bool> = (0..256).map(|i| a.corrupt_at(5, i)).collect();
        assert_ne!(panics_a, corrupts_a, "channels must be independent");
    }

    #[test]
    fn pressure_plans_are_pure_functions_of_the_epoch() {
        let burst = PressurePlan::Burst { from: 2, until: 5 };
        let expect: Vec<f64> = vec![0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.0];
        let got: Vec<f64> = (0..7).map(|e| burst.over_frac(e)).collect();
        assert_eq!(got, expect);

        let seeded = PressurePlan::Seeded {
            key: 99,
            duty_milli: 500,
        };
        let a: Vec<f64> = (0..128).map(|e| seeded.over_frac(e)).collect();
        let b: Vec<f64> = (0..128).map(|e| seeded.over_frac(e)).collect();
        assert_eq!(a, b);
        let on = a.iter().filter(|&&f| f == 1.0).count();
        assert!((40..=88).contains(&on), "~50% duty, got {on}/128");
    }
}
