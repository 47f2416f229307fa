//! Fig. 11b — search-strategy sweep. The paper compares exhaustive
//! search against the three-step search (success rates nearly identical,
//! 9× less arithmetic); this sweep extends the comparison to the other
//! two built-in walks, diamond and two-level hierarchical search, reporting
//! accuracy, *measured* probes (not just the cost model), and wall-clock
//! per estimated frame for each strategy.
//!
//! Since PR 5 the *evaluated default* (`MotionConfig::default()`) is the
//! pyramid-cached hierarchical search; this sweep is what licenses that
//! promotion, and it asserts the accuracy band outright: every strategy
//! must stay within 0.008 success rate of exhaustive search at every
//! scheme × threshold.

use euphrates_bench::{announce, run_tracking_suite, textured_luma, tracking_workload};
use euphrates_common::table::{fnum, Table};
use euphrates_core::prelude::*;
use euphrates_isp::motion::BlockMatcher;
use euphrates_nn::oracle::calib;
use std::time::Instant;

fn main() {
    let scale = announce(
        "Fig. 11b: block-matching search-strategy sweep",
        "Zhu et al., ISCA 2018, Figure 11b (ES vs TSS, extended)",
    );
    let suite = tracking_workload(scale);
    let schemes = vec![
        SchemeSpec::new("EW-2", BackendConfig::new(EwPolicy::Constant(2))).expect("id is valid"),
        SchemeSpec::new("EW-8", BackendConfig::new(EwPolicy::Constant(8))).expect("id is valid"),
        SchemeSpec::new("EW-32", BackendConfig::new(EwPolicy::Constant(32))).expect("id is valid"),
    ];

    let strategies = SearchStrategy::BUILTIN;
    let results: Vec<Vec<SchemeResult>> = strategies
        .iter()
        .map(|&strategy| {
            let motion = MotionConfig {
                strategy,
                ..MotionConfig::default()
            };
            run_tracking_suite(&suite, &motion, &schemes, calib::mdnet())
        })
        .collect();

    // Accuracy table: success rates per scheme × strategy, deltas vs ES.
    let thresholds = [0.3, 0.5, 0.7];
    let mut table = Table::new([
        "scheme", "IoU thr", "ES", "TSS", "diamond", "hier", "max|Δ|",
    ])
    .with_title("Fig. 11b reproduction (success rates per search strategy)");
    let mut max_delta = 0.0f64;
    for (i, scheme) in schemes.iter().enumerate() {
        for &t in &thresholds {
            let rates: Vec<f64> = results.iter().map(|r| r[i].accuracy().rate_at(t)).collect();
            let delta = rates[1..]
                .iter()
                .map(|r| (r - rates[0]).abs())
                .fold(0.0f64, f64::max);
            max_delta = max_delta.max(delta);
            table.row([
                scheme.id.to_string(),
                fnum(t, 1),
                fnum(rates[0], 3),
                fnum(rates[1], 3),
                fnum(rates[2], 3),
                fnum(rates[3], 3),
                fnum(delta, 3),
            ]);
        }
    }
    println!("{table}");

    // Compute table: model budget, measured probes, and wall-clock on a
    // VGA translation (the §2.3 cost-model axis of the figure).
    let prev = textured_luma(640, 480, 1, 0);
    let cur = textured_luma(640, 480, 1, 4);
    let mut compute = Table::new([
        "strategy",
        "model probes/blk",
        "measured probes/blk",
        "ops/blk model",
        "ms/frame (VGA)",
        "vs ES",
    ])
    .with_title("search cost: model vs measured (d=7, 16x16 blocks)");
    let mut es_ms = 0.0f64;
    for &strategy in &strategies {
        let matcher = BlockMatcher::new(16, 7, strategy).expect("built-in strategy");
        let t0 = Instant::now();
        let reps = 5;
        let mut stats = euphrates_isp::motion::SearchStats::default();
        for _ in 0..reps {
            let (_, s) = matcher
                .estimate_with_stats(&cur, &prev)
                .expect("same shape");
            stats = s;
        }
        let ms = t0.elapsed().as_secs_f64() * 1e3 / f64::from(reps);
        if strategy == SearchStrategy::Exhaustive {
            es_ms = ms;
        }
        compute.row([
            strategy.to_string(),
            strategy.probes_per_block(7).to_string(),
            fnum(stats.probes_per_block(), 1),
            strategy.ops_per_block(16, 7).to_string(),
            fnum(ms, 2),
            format!("{:.1}x", es_ms / ms),
        ]);
    }
    println!("{compute}");
    println!(
        "max success-rate gap across schemes/thresholds/strategies: {:.3} (paper: 'almost identical')",
        max_delta
    );
    assert!(
        max_delta <= 0.008,
        "strategy sweep must stay within 0.008 success rate of ES \
         (hierarchical is the evaluated default on that basis), got {max_delta:.4}"
    );
    println!("band OK: hierarchical remains a sound evaluated default (MotionConfig::default())");
}
