//! Small descriptive-statistics helpers for the experiment harness,
//! plus the fixed-bucket [`LatencyHistogram`] the serving layer records
//! per-frame latencies into.

/// Returns the `q`-quantile (0 ≤ q ≤ 1) of `values` using linear
/// interpolation between order statistics. Returns `0.0` for empty input.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Arithmetic mean; `0.0` for empty input.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

// ---------------------------------------------------------------------------
// LatencyHistogram
// ---------------------------------------------------------------------------

/// Sub-bucket resolution: each power-of-two range is split into
/// `2^SUB_BITS` linear sub-buckets, bounding the relative quantization
/// error of any recorded value to `2^-SUB_BITS` (= 1/8 ≈ 12.5% of the
/// bucket width, ≤ ~6% of the reported midpoint).
const SUB_BITS: u32 = 3;
const SUBS: usize = 1 << SUB_BITS;
/// Bucket count covering the full `u64` range: values below `2^SUB_BITS`
/// get exact unit buckets, every octave above contributes `SUBS`
/// sub-buckets.
const BUCKETS: usize = SUBS + (64 - SUB_BITS as usize) * SUBS;

/// A fixed-bucket histogram of nanosecond latencies.
///
/// Recording is O(1) with no allocation and no floating point — the
/// shape a serving worker can afford on its frame path. Buckets are
/// log-spaced with 3-bit linear sub-buckets (HdrHistogram's
/// layout), so quantiles carry a bounded ~6% relative error while the
/// whole histogram is a few KiB of counters. Histograms from different
/// workers [`merge`][LatencyHistogram::merge] by bucket-wise addition,
/// which is exactly what recording all observations into one histogram
/// would have produced.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    buckets: Box<[u64; BUCKETS]>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: Box::new([0; BUCKETS]),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The bucket index of a value (zero maps with the unit buckets).
    fn index(v: u64) -> usize {
        if v < SUBS as u64 {
            return v as usize;
        }
        let msb = 63 - v.leading_zeros();
        let e = msb - SUB_BITS;
        let sub = ((v >> e) & (SUBS as u64 - 1)) as usize;
        (e as usize + 1) * SUBS + sub
    }

    /// The inclusive value range covered by bucket `i`.
    fn range(i: usize) -> (u64, u64) {
        if i < SUBS {
            return (i as u64, i as u64);
        }
        let e = (i / SUBS - 1) as u32;
        let sub = (i % SUBS) as u64;
        let lo = (SUBS as u64 + sub) << e;
        let hi = lo + ((1u64 << e) - 1);
        (lo, hi)
    }

    /// Records one observation (nanoseconds, but any u64 scale works).
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact mean of the recorded values; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Exact minimum recorded value; `0` when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact maximum recorded value; `0` when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The `q`-quantile (0 ≤ q ≤ 1): the midpoint of the first bucket
    /// whose cumulative count reaches `ceil(q · count)`, clamped to the
    /// exact observed min/max so the tails never report values outside
    /// the data. `0` when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let (lo, hi) = Self::range(i);
                return (lo + (hi - lo) / 2).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Adds every observation of `other` into `self` (bucket-wise; the
    /// result equals having recorded both streams into one histogram).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((quantile(&v, 0.5) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn quantile_handles_unsorted_input() {
        let v = [9.0, 1.0, 5.0];
        assert_eq!(quantile(&v, 0.5), 5.0);
    }

    #[test]
    fn quantile_empty_is_zero() {
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_buckets_are_a_partition() {
        // Every index maps into its own range, ranges tile the line.
        for v in (0..4096u64).chain([u64::MAX / 3, u64::MAX - 1, u64::MAX]) {
            let i = LatencyHistogram::index(v);
            let (lo, hi) = LatencyHistogram::range(i);
            assert!(lo <= v && v <= hi, "{v} not in bucket {i} [{lo}, {hi}]");
        }
        let mut expect_lo = 0u64;
        for i in 0..BUCKETS {
            let (lo, hi) = LatencyHistogram::range(i);
            assert_eq!(lo, expect_lo, "bucket {i} leaves a gap");
            if hi == u64::MAX {
                break;
            }
            expect_lo = hi + 1;
        }
    }

    #[test]
    fn histogram_small_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for v in [0u64, 1, 2, 3, 7] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 7);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), 7);
        assert_eq!(h.quantile(0.5), 2, "unit buckets are exact");
    }

    #[test]
    fn histogram_quantiles_have_bounded_error() {
        let mut h = LatencyHistogram::new();
        // 1..=10_000 ns uniformly.
        for v in 1..=10_000u64 {
            h.record(v);
        }
        for (q, exact) in [(0.5, 5_000.0), (0.95, 9_500.0), (0.99, 9_900.0)] {
            let got = h.quantile(q) as f64;
            assert!(
                (got - exact).abs() / exact < 0.07,
                "q{q}: got {got}, exact {exact}"
            );
        }
        assert!((h.mean() - 5_000.5).abs() < 1e-9, "mean is exact");
    }

    #[test]
    fn histogram_merge_equals_single_stream() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut whole = LatencyHistogram::new();
        for v in 0..1000u64 {
            let x = v * 37 % 100_000;
            if v % 2 == 0 {
                a.record(x);
            } else {
                b.record(x);
            }
            whole.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
        for q in [0.1, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(a.quantile(q), whole.quantile(q), "q{q}");
        }
    }

    #[test]
    fn histogram_empty_is_zeroes() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
    }
}
