//! The frame-pipeline benchmark: one command, three workloads.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload otb_sweep --seed 42 --seconds 20 --trace 0
//! ```
//!
//! * `otb_sweep` — `Scenario::evaluate` of MDNet tracking over an
//!   OTB-100-like suite on the fast luma frontend.
//! * `detect_full_isp` — `Scenario::evaluate` of YOLOv2 detection over
//!   the detection suite on the sensor + full ISP frontend.
//! * `serve_open_loop` — `SessionServer` with NN batching: a closed loop
//!   for capacity, then an open loop at a fixed offered rate for
//!   latency.
//!
//! `--trace 0` prints every end-to-end metric, `--trace 1` every
//! per-layer metric from a separate traced pass (see `README.md` for the
//! catalogue). Correctness checks run outside the timed regions; the
//! last line of stdout is one JSON object, and a failed check makes it
//! read `"correct": false` and the exit code 1.

mod report;
mod serve;
mod sweep;
mod trace;

use euphrates_common::metrics::IouAccumulator;
use euphrates_core::{SystemModel, TaskOutcome};
use euphrates_nn::layer::NetworkDescriptor;
use euphrates_soc::energy::SchemeReport;
use euphrates_soc::power::IpBlock;
use report::{result_line, Checks, Metrics};
use std::process::ExitCode;
use std::time::{Duration, Instant};

const WORKLOADS: [&str; 3] = ["otb_sweep", "detect_full_isp", "serve_open_loop"];

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: u64 = 3;

/// Recorded exact values of `RECORDED_SEED`: `workload metric value`
/// per line.
const GOLDEN: &str = include_str!("../golden.txt");

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

pub struct RunResult {
    pub checks: Checks,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

impl RunResult {
    /// A run cut short by a failed check, before its metrics.
    pub fn failed(checks: Checks, attempted: u64, failed: u64) -> Self {
        RunResult {
            checks,
            attempted,
            failed,
            metrics: Metrics::default(),
        }
    }
}

fn parse_args() -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = 42u64;
    let mut seconds = 20.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(RunArgs {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "perfbench: {} seed {} for {} s, trace {}, {} cores",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc()
    );
    let result = match args.workload.as_str() {
        "otb_sweep" => sweep::run(sweep::Sweep::Otb, &args),
        "detect_full_isp" => sweep::run(sweep::Sweep::DetectFullIsp, &args),
        "serve_open_loop" => serve::run(&args),
        _ => unreachable!("workload validated by parse_args"),
    };
    let correct = result.checks.passed();
    let Some(metrics) = result.metrics.resolve(args.trace) else {
        eprintln!(
            "perfbench: {} stopped before measuring every metric",
            args.workload
        );
        return ExitCode::FAILURE;
    };
    for (d, v) in &metrics {
        eprintln!("  {:<30} {v:>16.6} {}", d.name, d.unit);
    }
    println!(
        "{}",
        result_line(correct, result.attempted, result.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A share of the run's `--seconds`, with a floor on repetitions so a
/// slow machine still yields a median.
pub struct Budget {
    deadline: Instant,
    min_reps: usize,
}

impl Budget {
    pub fn new(seconds: f64, share: f64, min_reps: usize) -> Self {
        Budget {
            deadline: Instant::now() + Duration::from_secs_f64(seconds * share),
            min_reps,
        }
    }

    /// Whether to run another repetition after `done` of them.
    pub fn more(&self, done: usize) -> bool {
        done < self.min_reps || Instant::now() < self.deadline
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e6
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Pins the pipeline's own thread pools (evaluation grid, noise rows)
/// through `EUPHRATES_THREADS`. Called only while no other thread of
/// this process runs.
pub fn set_threads(n: usize) {
    std::env::set_var("EUPHRATES_THREADS", n.to_string());
}

/// The dataset seed of set-up `k` of a run: `k == 0` is the run's own
/// seed, the others are distinct throwaway seeds derived from it.
pub fn setup_seed(seed: u64, k: u64) -> u64 {
    if k == 0 {
        seed
    } else {
        euphrates_common::rngx::derive_seed(seed, 0x5E7, k)
    }
}

/// Bit-exact equality of two task outcomes.
pub fn same_outcome(a: &TaskOutcome, b: &TaskOutcome) -> bool {
    a.frames == b.frames
        && a.inferences == b.inferences
        && a.mc_cycles == b.mc_cycles
        && a.extrapolation_ops == b.extrapolation_ops
        && a.ious.len() == b.ious.len()
        && a.ious
            .iter()
            .zip(&b.ious)
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The seed whose exact results `golden.txt` records. Every run checks
/// them, whatever its own seed, on one pass over the recorded seed's
/// inputs outside the timed region.
pub const RECORDED_SEED: u64 = 42;

/// Success rate (tracking) or AP (detection) at IoU 0.5.
pub fn accuracy_at_05(outcome: &TaskOutcome) -> f64 {
    outcome
        .ious
        .iter()
        .copied()
        .collect::<IouAccumulator>()
        .rate_at(0.5)
}

/// Checks `(accuracy_at_05, energy_mj_per_frame)` of the recorded seed
/// bit for bit against `golden.txt`.
pub fn check_recorded(checks: &mut Checks, workload: &str, (accuracy, energy): (f64, f64)) {
    for (metric, value) in [
        ("accuracy_at_05", accuracy),
        ("energy_mj_per_frame", energy),
    ] {
        let recorded = GOLDEN.lines().find_map(|line| {
            let mut fields = line.split_whitespace();
            (fields.next() == Some(workload) && fields.next() == Some(metric))
                .then(|| fields.next()?.parse::<f64>().ok())
                .flatten()
        });
        checks.check(
            recorded.is_some_and(|r| r.to_bits() == value.to_bits()),
            || {
                format!(
                    "{workload} seed {RECORDED_SEED}: {metric} = {value:?}, recorded {recorded:?}"
                )
            },
        );
    }
}

/// The modelled, exact per-layer metrics of one scheme: its measured
/// schedule, the network's plan on the Table 1 NNX, and the SoC ledger.
pub fn model_metrics(
    m: &mut Metrics,
    net: &NetworkDescriptor,
    outcome: &TaskOutcome,
    system: &SchemeReport,
) {
    let plan = SystemModel::table1().plan(net);
    m.set("core.inference_rate", outcome.inference_rate());
    m.set(
        "mc.cycles_per_frame",
        outcome.mc_cycles.0 as f64 / outcome.frames as f64,
    );
    m.set(
        "nn.cycles_per_inference",
        plan.stats().total_compute_cycles().0 as f64,
    );
    m.set(
        "nn.dram_bytes_per_inference",
        (plan.dram_read().0 + plan.dram_write().0) as f64,
    );
    for (metric, block) in [
        ("soc.sensor_mj", IpBlock::Sensor),
        ("soc.isp_mj", IpBlock::Isp),
        ("soc.nnx_mj", IpBlock::Nnx),
        ("soc.mc_mj", IpBlock::Mc),
        ("soc.dram_mj", IpBlock::Dram),
        ("soc.cpu_mj", IpBlock::Cpu),
    ] {
        m.set(metric, system.ledger.of(block).0);
    }
    m.set(
        "soc.dram_bytes_per_frame",
        system.traffic_per_frame.0 as f64,
    );
}

/// Writes the traced pass's spans under `perfbench/out/`.
pub fn write_trace(args: &RunArgs, tr: &trace::Tracer) {
    let dir = std::path::Path::new("perfbench").join("out");
    let path = dir.join(format!("trace_{}_seed{}.json", args.workload, args.seed));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tr.to_json())) {
        Ok(()) => eprintln!(
            "{}: {} spans -> {}",
            args.workload,
            tr.len(),
            path.display()
        ),
        Err(e) => eprintln!("{}: could not write {}: {e}", args.workload, path.display()),
    }
}
