//! The metric catalogue and the result line.
//!
//! Every workload reports every metric of the pass it ran: all
//! end-to-end metrics untraced, all per-layer metrics traced. A layer a
//! workload does not reach reports `0` (for example the full-ISP stage
//! times on `otb_sweep`), which is the "no change" prediction for that
//! workload written down as a number.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One declared metric. Directions and bounds live in `BENCHMARK.json`.
#[derive(Debug, Clone, Copy)]
pub struct Decl {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Decl {
    Decl { name, unit }
}

/// Metrics a user of the pipeline sees (untraced run).
pub const END_TO_END: &[Decl] = &[
    m("setup_s", "s"),
    m("ms_per_frame", "ms"),
    m("capacity_fps", "1/s"),
    m("latency_p50_us", "us"),
    m("latency_p90_us", "us"),
    m("accuracy_at_05", "share"),
    m("energy_mj_per_frame", "mJ"),
];

/// Metrics of single layers (traced run). Times are self times per
/// frame: a span's duration minus its child spans.
pub const PER_LAYER: &[Decl] = &[
    m("camera.render_luma_ms", "ms"),
    m("camera.render_rgb_ms", "ms"),
    m("camera.sensor_ms", "ms"),
    m("common.pyramid_ms", "ms"),
    m("isp.search_ms", "ms"),
    m("isp.search_probes", "count"),
    m("isp.search_sad_ops", "count"),
    m("isp.process_ms", "ms"),
    m("isp.dpc_ms", "ms"),
    m("isp.demosaic_ms", "ms"),
    m("isp.wb_ms", "ms"),
    m("isp.luma_ms", "ms"),
    m("isp.denoise_ms", "ms"),
    m("isp.finish_ms", "ms"),
    m("core.frontend_ms", "ms"),
    m("core.infer_us", "us"),
    m("core.extrapolate_us", "us"),
    m("core.rois_per_frame", "count"),
    m("core.inference_rate", "share"),
    m("core.evaluate_residual_ms", "ms"),
    m("mc.cycles_per_frame", "cycles"),
    m("nn.cycles_per_inference", "cycles"),
    m("nn.dram_bytes_per_inference", "B"),
    m("soc.sensor_mj", "mJ"),
    m("soc.isp_mj", "mJ"),
    m("soc.nnx_mj", "mJ"),
    m("soc.mc_mj", "mJ"),
    m("soc.dram_mj", "mJ"),
    m("soc.cpu_mj", "mJ"),
    m("soc.dram_bytes_per_frame", "B"),
    m("serve.queue_wait_p50_us", "us"),
    m("serve.queue_wait_p99_us", "us"),
    m("serve.occupancy", "share"),
    m("serve.busy_us_per_frame", "us"),
    m("serve.batch_mean", "count"),
    m("serve.amortization", "share"),
    m("serve.parked", "count"),
    m("serve.busy_rejections", "count"),
    m("serve.generator_lag_p99_us", "us"),
    m("serve.latency_samples", "count"),
    m("serve.latency_p99_us", "us"),
    m("failed_share", "share"),
    m("trace.traced_ms_per_frame", "ms"),
    m("trace.covered_ms_per_frame", "ms"),
    m("trace.overhead_pct", "%"),
];

/// Metric values of one pass, by name.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "undeclared metric {name}"
        );
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// The declared metrics of one pass with their values, or `None` if
    /// an end-to-end metric was not measured. A per-layer metric left
    /// unset is a layer this workload does not reach and reads `0`.
    pub fn resolve(&self, traced: bool) -> Option<Vec<(Decl, f64)>> {
        let decls = if traced { PER_LAYER } else { END_TO_END };
        decls
            .iter()
            .map(|d| match self.values.get(d.name) {
                Some(v) => Some((*d, *v)),
                None if traced => Some((*d, 0.0)),
                None => None,
            })
            .collect()
    }
}

/// Outcome of every correctness check of a run.
#[derive(Debug, Default)]
pub struct Checks {
    failures: Vec<String>,
}

impl Checks {
    /// Records a check; a failing one is reported on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("CHECK FAILED: {msg}");
            self.failures.push(msg);
        }
    }

    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[(Decl, f64)]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (d, v)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
            d.name, d.unit
        );
    }
    out.push_str("}}");
    out
}

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Mean of the middle half of `values` (the quartile-trimmed mean):
/// robust to outlying samples like a median, but it averages over the
/// bucket steps of histogram quantiles instead of landing on one.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let mid = &v[cut..v.len() - cut];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// Nearest-rank quantile of `values`, `q` in `[0, 1]`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Per-metric medians over several passes.
pub fn median_of(passes: &[Metrics]) -> Metrics {
    let mut out = Metrics::default();
    let names: Vec<&'static str> = passes
        .iter()
        .flat_map(|p| p.values.keys().copied())
        .collect();
    for name in names {
        let vals: Vec<f64> = passes.iter().filter_map(|p| p.get(name)).collect();
        out.set(name, median(&vals));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_one_json_object() {
        let mut m = Metrics::default();
        m.set("isp.search_probes", 12.5);
        let line = result_line(true, 3, 0, &m.resolve(true).unwrap());
        assert!(m.resolve(false).is_none());
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"isp.search_probes\": {\"value\": 12.5, \"unit\": \"count\"}"));
        assert!(line.contains("\"isp.dpc_ms\": {\"value\": 0.0, \"unit\": \"ms\"}"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(n, names.len());
    }

    #[test]
    fn median_and_quantile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 0.5), 50.0);
    }
}
