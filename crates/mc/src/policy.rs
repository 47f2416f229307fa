//! Extrapolation-window (EW) policies — "when to extrapolate" (§3.3).
//!
//! EW-N (constant mode) runs one CNN inference every N frames and
//! extrapolates the N−1 frames in between, giving predictable compute
//! reduction. The adaptive mode (EW-A) compares each inference result with
//! the extrapolation it replaces: a large disagreement shrinks the window,
//! and a streak of agreements grows it.

use euphrates_common::error::{Error, Result};

/// Which way a frame is processed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameKind {
    /// Full CNN inference (I-frame).
    Inference,
    /// Motion extrapolation (E-frame).
    Extrapolation,
}

/// Adaptive-mode tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// Smallest window (1 = inference every frame).
    pub min_window: u32,
    /// Largest window the controller may grow to.
    pub max_window: u32,
    /// Starting window.
    pub initial_window: u32,
    /// IoU between the inference result and the extrapolated prediction
    /// below which the window shrinks.
    pub iou_threshold: f64,
    /// Number of consecutive above-threshold comparisons required to grow
    /// the window by one.
    pub grow_streak: u32,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            min_window: 1,
            max_window: 16,
            initial_window: 2,
            iou_threshold: 0.5,
            grow_streak: 2,
        }
    }
}

/// The extrapolation-window policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EwPolicy {
    /// EW-N: fixed window of N frames (N ≥ 1; N = 1 is the baseline with
    /// inference on every frame).
    Constant(u32),
    /// EW-A: window adapts to extrapolation quality.
    Adaptive(AdaptiveConfig),
}

impl EwPolicy {
    /// The paper's baseline: inference every frame.
    pub fn baseline() -> Self {
        EwPolicy::Constant(1)
    }
}

/// Runtime window controller (lives in the MC's scalar unit, Fig. 8 ④).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EwController {
    policy: EwPolicy,
    window: u32,
    frames_since_inference: u32,
    streak: u32,
    inferences: u64,
    frames: u64,
}

impl EwController {
    /// Creates a controller.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for a zero constant window or an
    /// adaptive config with `min_window == 0` or `min > max`.
    pub fn new(policy: EwPolicy) -> Result<Self> {
        let window = match policy {
            EwPolicy::Constant(n) => {
                if n == 0 {
                    return Err(Error::config("constant EW must be >= 1"));
                }
                n
            }
            EwPolicy::Adaptive(cfg) => {
                if cfg.min_window == 0 {
                    return Err(Error::config("adaptive min window must be >= 1"));
                }
                if cfg.min_window > cfg.max_window {
                    return Err(Error::config("adaptive min window exceeds max"));
                }
                cfg.initial_window.clamp(cfg.min_window, cfg.max_window)
            }
        };
        Ok(EwController {
            policy,
            window,
            frames_since_inference: 0,
            streak: 0,
            inferences: 0,
            frames: 0,
        })
    }

    /// The policy.
    pub fn policy(&self) -> &EwPolicy {
        &self.policy
    }

    /// Swaps the policy on a *running* controller, preserving the
    /// schedule phase — `frames_since_inference` and the lifetime
    /// counters carry over, so the I/E cadence bends at the switch
    /// point instead of restarting (no spurious I-frame).
    ///
    /// This is the serving layer's degradation actuator: an overload
    /// controller widens the window mid-stream (more extrapolation,
    /// fewer CNN frames) and later restores the scheme's own policy.
    /// Switching to [`EwPolicy::Constant`] pins the window to `n`;
    /// switching to [`EwPolicy::Adaptive`] clamps the *current* window
    /// into the new `[min, max]` range (the learned window survives a
    /// round-trip through a constant rung) and restarts the growth
    /// streak.
    ///
    /// # Errors
    ///
    /// Rejects the same invalid policies as [`EwController::new`]; the
    /// controller is unchanged on error.
    pub fn reconfigure(&mut self, policy: EwPolicy) -> Result<()> {
        let window = match policy {
            EwPolicy::Constant(n) => {
                if n == 0 {
                    return Err(Error::config("constant EW must be >= 1"));
                }
                n
            }
            EwPolicy::Adaptive(cfg) => {
                if cfg.min_window == 0 {
                    return Err(Error::config("adaptive min window must be >= 1"));
                }
                if cfg.min_window > cfg.max_window {
                    return Err(Error::config("adaptive min window exceeds max"));
                }
                self.window.clamp(cfg.min_window, cfg.max_window)
            }
        };
        self.policy = policy;
        self.window = window;
        self.streak = 0;
        Ok(())
    }

    /// The current window size.
    pub fn window(&self) -> u32 {
        self.window
    }

    /// Decides how to process the next frame and advances the schedule.
    /// The first frame of a stream is always an I-frame.
    pub fn next_frame(&mut self) -> FrameKind {
        self.frames += 1;
        if self.frames_since_inference == 0 || self.frames_since_inference >= self.window {
            self.frames_since_inference = 1;
            self.inferences += 1;
            FrameKind::Inference
        } else {
            self.frames_since_inference += 1;
            FrameKind::Extrapolation
        }
    }

    /// Feeds the adaptive controller the IoU between the inference result
    /// and the extrapolated prediction it replaced (call on I-frames; a
    /// no-op in constant mode).
    pub fn record_comparison(&mut self, iou: f64) {
        let EwPolicy::Adaptive(cfg) = self.policy else {
            return;
        };
        if iou < cfg.iou_threshold {
            self.window = (self.window.saturating_sub(1)).max(cfg.min_window);
            self.streak = 0;
        } else {
            self.streak += 1;
            if self.streak >= cfg.grow_streak {
                self.window = (self.window + 1).min(cfg.max_window);
                self.streak = 0;
            }
        }
    }

    /// Fraction of frames processed by inference so far.
    pub fn inference_rate(&self) -> f64 {
        if self.frames == 0 {
            0.0
        } else {
            self.inferences as f64 / self.frames as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_window_schedules_one_inference_per_n() {
        let mut c = EwController::new(EwPolicy::Constant(4)).unwrap();
        let kinds: Vec<FrameKind> = (0..12).map(|_| c.next_frame()).collect();
        for (i, k) in kinds.iter().enumerate() {
            let expected = if i % 4 == 0 {
                FrameKind::Inference
            } else {
                FrameKind::Extrapolation
            };
            assert_eq!(*k, expected, "frame {i}");
        }
        assert!((c.inference_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn baseline_infers_every_frame() {
        let mut c = EwController::new(EwPolicy::baseline()).unwrap();
        for _ in 0..5 {
            assert_eq!(c.next_frame(), FrameKind::Inference);
        }
        assert_eq!(c.inference_rate(), 1.0);
    }

    #[test]
    fn zero_window_is_rejected() {
        assert!(EwController::new(EwPolicy::Constant(0)).is_err());
        assert!(EwController::new(EwPolicy::Adaptive(AdaptiveConfig {
            min_window: 0,
            ..AdaptiveConfig::default()
        }))
        .is_err());
        assert!(EwController::new(EwPolicy::Adaptive(AdaptiveConfig {
            min_window: 8,
            max_window: 4,
            ..AdaptiveConfig::default()
        }))
        .is_err());
    }

    #[test]
    fn adaptive_shrinks_on_disagreement() {
        let mut c = EwController::new(EwPolicy::Adaptive(AdaptiveConfig::default())).unwrap();
        assert_eq!(c.window(), 2);
        c.record_comparison(0.2);
        assert_eq!(c.window(), 1);
        // Clamped at min.
        c.record_comparison(0.2);
        assert_eq!(c.window(), 1);
    }

    #[test]
    fn adaptive_grows_after_streak() {
        let cfg = AdaptiveConfig::default();
        let mut c = EwController::new(EwPolicy::Adaptive(cfg)).unwrap();
        c.record_comparison(0.9);
        assert_eq!(c.window(), 2, "one agreement is not enough");
        c.record_comparison(0.9);
        assert_eq!(c.window(), 3, "streak of 2 grows the window");
        // Streak resets after growth.
        c.record_comparison(0.9);
        assert_eq!(c.window(), 3);
        c.record_comparison(0.9);
        assert_eq!(c.window(), 4);
    }

    #[test]
    fn adaptive_respects_max_window() {
        let cfg = AdaptiveConfig {
            max_window: 4,
            grow_streak: 1,
            ..AdaptiveConfig::default()
        };
        let mut c = EwController::new(EwPolicy::Adaptive(cfg)).unwrap();
        for _ in 0..20 {
            c.record_comparison(0.95);
        }
        assert_eq!(c.window(), 4);
    }

    #[test]
    fn disagreement_resets_growth_streak() {
        let mut c = EwController::new(EwPolicy::Adaptive(AdaptiveConfig::default())).unwrap();
        c.record_comparison(0.9);
        c.record_comparison(0.1); // reset + shrink
        assert_eq!(c.window(), 1);
        c.record_comparison(0.9);
        assert_eq!(c.window(), 1, "streak must restart after a shrink");
        c.record_comparison(0.9);
        assert_eq!(c.window(), 2);
    }

    #[test]
    fn window_changes_apply_to_schedule() {
        let mut c = EwController::new(EwPolicy::Adaptive(AdaptiveConfig {
            initial_window: 1,
            grow_streak: 1,
            ..AdaptiveConfig::default()
        }))
        .unwrap();
        assert_eq!(c.next_frame(), FrameKind::Inference);
        c.record_comparison(0.9); // grow to 2
                                  // With window 2, one E-frame now separates inferences.
        assert_eq!(c.next_frame(), FrameKind::Extrapolation);
        assert_eq!(c.next_frame(), FrameKind::Inference);
        assert_eq!(c.next_frame(), FrameKind::Extrapolation);
    }

    #[test]
    fn reconfigure_preserves_schedule_phase() {
        let mut c = EwController::new(EwPolicy::Constant(4)).unwrap();
        assert_eq!(c.next_frame(), FrameKind::Inference);
        assert_eq!(c.next_frame(), FrameKind::Extrapolation);
        // Widen mid-window: the two frames already scheduled still
        // count against the new window — no restart I-frame.
        c.reconfigure(EwPolicy::Constant(8)).unwrap();
        assert_eq!(c.window(), 8);
        let kinds: Vec<FrameKind> = (0..6).map(|_| c.next_frame()).collect();
        assert!(
            kinds.iter().all(|k| *k == FrameKind::Extrapolation),
            "frames 2..8 of the widened window must extrapolate: {kinds:?}"
        );
        assert_eq!(c.next_frame(), FrameKind::Inference, "frame 8 re-infers");
    }

    #[test]
    fn reconfigure_narrow_triggers_prompt_inference() {
        let mut c = EwController::new(EwPolicy::Constant(16)).unwrap();
        for i in 0..6 {
            let expected = if i == 0 {
                FrameKind::Inference
            } else {
                FrameKind::Extrapolation
            };
            assert_eq!(c.next_frame(), expected);
        }
        // Narrowing below the frames already extrapolated: the next
        // frame infers (phase >= window), restoring accuracy promptly.
        c.reconfigure(EwPolicy::Constant(2)).unwrap();
        assert_eq!(c.next_frame(), FrameKind::Inference);
        assert_eq!(c.next_frame(), FrameKind::Extrapolation);
        assert_eq!(c.next_frame(), FrameKind::Inference);
    }

    #[test]
    fn reconfigure_rejects_invalid_and_leaves_state() {
        let mut c = EwController::new(EwPolicy::Constant(4)).unwrap();
        assert!(c.reconfigure(EwPolicy::Constant(0)).is_err());
        assert!(c
            .reconfigure(EwPolicy::Adaptive(AdaptiveConfig {
                min_window: 9,
                max_window: 3,
                ..AdaptiveConfig::default()
            }))
            .is_err());
        assert_eq!(*c.policy(), EwPolicy::Constant(4), "unchanged on error");
        assert_eq!(c.window(), 4);
    }

    #[test]
    fn reconfigure_to_adaptive_clamps_current_window() {
        let mut c = EwController::new(EwPolicy::Constant(12)).unwrap();
        c.reconfigure(EwPolicy::Adaptive(AdaptiveConfig {
            min_window: 1,
            max_window: 8,
            ..AdaptiveConfig::default()
        }))
        .unwrap();
        assert_eq!(c.window(), 8, "learned/pinned window clamps into range");
        // And the adaptive dynamics now apply.
        c.record_comparison(0.0);
        assert_eq!(c.window(), 7);
    }

    #[test]
    fn comparison_is_noop_in_constant_mode() {
        let mut c = EwController::new(EwPolicy::Constant(4)).unwrap();
        c.record_comparison(0.0);
        assert_eq!(c.window(), 4);
    }
}
