//! Discrete-event simulation of the vision pipeline's cross-IP timing —
//! the performance-model half of the paper's GemDroid-style in-house
//! simulator (§5.1).
//!
//! [`run_vision_pipeline`] runs the IPs of Fig. 5 — sensor → ISP →
//! motion controller → NNX — as one event loop over a time-ordered queue,
//! with parametric latencies ([`PipelineTimings`]), and reports per-frame
//! completion times, achieved FPS, and drop statistics under real-time
//! capture.

use euphrates_common::units::Picos;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One line of the simulation trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    /// Simulation time.
    pub time: Picos,
    /// Component that logged the line.
    pub component: String,
    /// Message.
    pub message: String,
}

/// Parametric latencies of the vision pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineTimings {
    /// Capture period (16.67 ms at 60 FPS).
    pub frame_period: Picos,
    /// Sensor exposure/readout latency.
    pub sensor_latency: Picos,
    /// ISP processing latency per frame.
    pub isp_latency: Picos,
    /// MC latency for an E-frame (fetch + extrapolate + write).
    pub mc_e_frame: Picos,
    /// MC-side latency around an I-frame (program + compare + write).
    pub mc_i_frame: Picos,
    /// NNX inference latency.
    pub nnx_latency: Picos,
    /// Extrapolation window (1 = inference every frame).
    pub window: u32,
}

/// Outcome counters of a pipeline run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PipelineRun {
    /// Completion time of each produced result (frame index, time).
    pub results: Vec<(u64, Picos)>,
    /// Frames dropped because the NNX was still busy at their I-slot.
    pub dropped: u64,
    /// Inferences executed.
    pub inferences: u64,
}

impl PipelineRun {
    /// Achieved results/second over the span of the run.
    pub fn achieved_fps(&self) -> f64 {
        match (self.results.first(), self.results.last()) {
            (Some((_, t0)), Some((_, t1))) if t1 > t0 && self.results.len() > 1 => {
                (self.results.len() - 1) as f64 / (*t1 - *t0).as_secs_f64()
            }
            _ => 0.0,
        }
    }
}

/// A pipeline step for one frame, in the order the frame meets them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Step {
    /// The sensor strobes the frame's capture.
    Capture(u64),
    /// The sensor's readout reaches the ISP.
    Isp(u64),
    /// The ISP's pixels and MV metadata reach the MC.
    Mc(u64),
    /// The NNX finished the I-frame's inference.
    Inferred(u64),
    /// The MC finished the E-frame's extrapolation.
    Extrapolated(u64),
}

/// The time-ordered event queue; `seq` keeps same-time events in FIFO
/// order.
#[derive(Debug, Default)]
struct Queue {
    heap: BinaryHeap<Reverse<(Picos, u64, Step)>>,
    seq: u64,
}

impl Queue {
    fn post(&mut self, time: Picos, step: Step) {
        self.heap.push(Reverse((time, self.seq, step)));
        self.seq += 1;
    }

    fn pop(&mut self) -> Option<(Picos, Step)> {
        self.heap.pop().map(|Reverse((time, _, step))| (time, step))
    }
}

/// Runs the Fig. 5 pipeline for `frames` captured frames (frame 0 is
/// always captured); returns the run statistics and, when `tracing`, the
/// event trace.
pub fn run_vision_pipeline(
    t: PipelineTimings,
    frames: u64,
    tracing: bool,
) -> (PipelineRun, Vec<TraceEntry>) {
    // Events past one simulated hour are not delivered.
    let horizon = Picos::from_secs_f64(3600.0);
    let mut run = PipelineRun::default();
    let mut trace = Vec::new();
    let mut log = |time, component: &str, message: String| {
        if tracing {
            trace.push(TraceEntry {
                time,
                component: component.to_string(),
                message,
            });
        }
    };
    let mut nnx_busy_until = Picos::ZERO;
    let mut since_inference = 0u32;
    let mut queue = Queue::default();
    queue.post(Picos::ZERO, Step::Capture(0));
    while let Some((now, step)) = queue.pop() {
        if now > horizon {
            break;
        }
        match step {
            Step::Capture(f) => {
                log(now, "sensor", format!("frame {f} captured"));
                queue.post(now + t.sensor_latency, Step::Isp(f));
                // The sensor self-schedules its next capture strobe.
                if f + 1 < frames {
                    queue.post(now + t.frame_period, Step::Capture(f + 1));
                }
            }
            Step::Isp(f) => {
                log(now, "isp", format!("frame {f} processed; MVs exported"));
                queue.post(now + t.isp_latency, Step::Mc(f));
            }
            Step::Mc(f) if since_inference == 0 || since_inference >= t.window => {
                if now < nnx_busy_until {
                    // NNX still busy: real-time frame drop (§6.1 — this is
                    // what limits the baseline to ~17 FPS).
                    run.dropped += 1;
                    log(now, "mc", format!("frame {f} dropped (NNX busy)"));
                } else {
                    since_inference = 1;
                    run.inferences += 1;
                    nnx_busy_until = now + (t.mc_i_frame + t.nnx_latency);
                    log(now, "mc", format!("frame {f}: I-frame, NNX job started"));
                    queue.post(nnx_busy_until, Step::Inferred(f));
                }
            }
            Step::Mc(f) => {
                since_inference += 1;
                log(now, "mc", format!("frame {f}: E-frame extrapolated"));
                queue.post(now + t.mc_e_frame, Step::Extrapolated(f));
            }
            Step::Inferred(f) => {
                log(now, "mc", format!("frame {f}: inference complete"));
                run.results.push((f, now));
            }
            Step::Extrapolated(f) => run.results.push((f, now)),
        }
    }
    (run, trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timings(window: u32, nnx_ms: u64) -> PipelineTimings {
        PipelineTimings {
            frame_period: Picos::from_micros(16_667),
            sensor_latency: Picos::from_millis(4),
            isp_latency: Picos::from_millis(3),
            mc_e_frame: Picos::from_micros(60),
            mc_i_frame: Picos::from_micros(30),
            nnx_latency: Picos::from_millis(nnx_ms),
            window,
        }
    }

    #[test]
    fn queue_pops_in_time_order_and_fifo_among_ties() {
        let mut q = Queue::default();
        q.post(Picos(300), Step::Capture(3));
        q.post(Picos(100), Step::Capture(1));
        q.post(Picos(200), Step::Capture(2));
        q.post(Picos(300), Step::Capture(0));
        let order: Vec<Step> = std::iter::from_fn(|| q.pop()).map(|(_, s)| s).collect();
        assert_eq!(order, [1, 2, 3, 0].map(Step::Capture));
    }

    #[test]
    fn baseline_pipeline_drops_to_inference_rate() {
        // 63.5 ms inference at 60 FPS capture: ~15.7 results/s, rest drop.
        let (run, _) = run_vision_pipeline(timings(1, 63), 300, false);
        let fps = run.achieved_fps();
        assert!((13.0..18.5).contains(&fps), "baseline fps {fps}");
        assert!(run.dropped > 200, "dropped {}", run.dropped);
    }

    #[test]
    fn ew4_reaches_capture_rate() {
        let (run, _) = run_vision_pipeline(timings(4, 63), 300, false);
        let fps = run.achieved_fps();
        assert!(fps > 55.0, "EW-4 fps {fps}");
        assert!(run.dropped < 20, "dropped {}", run.dropped);
        // Inference rate ~25%.
        let rate = run.inferences as f64 / run.results.len() as f64;
        assert!((0.2..0.3).contains(&rate), "inference rate {rate}");
    }

    #[test]
    fn ew2_lands_between() {
        let (run, _) = run_vision_pipeline(timings(2, 63), 300, false);
        let fps = run.achieved_fps();
        assert!((25.0..40.0).contains(&fps), "EW-2 fps {fps}");
    }

    #[test]
    fn fast_network_sustains_60fps_even_as_baseline() {
        // MDNet-class 12 ms inference keeps up with 60 FPS at EW-1.
        let (run, _) = run_vision_pipeline(timings(1, 12), 300, false);
        assert!(run.achieved_fps() > 55.0, "fps {}", run.achieved_fps());
        assert_eq!(run.dropped, 0);
    }

    #[test]
    fn tracing_captures_pipeline_activity() {
        let (_, trace) = run_vision_pipeline(timings(2, 30), 10, true);
        assert!(!trace.is_empty());
        assert!(trace.iter().any(|t| t.component == "sensor"));
        assert!(trace.iter().any(|t| t.component == "isp"));
        assert!(trace.iter().any(|t| t.message.contains("E-frame")));
        // Trace is time-sorted.
        for pair in trace.windows(2) {
            assert!(pair[0].time <= pair[1].time);
        }
    }
}
