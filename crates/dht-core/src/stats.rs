//! Measurement primitives for the paper's metrics.
//!
//! Every figure of the paper reports one of three statistics:
//!
//! * **means** (average logical hops, average visited nodes),
//! * **totals** (total logical hops over a query batch),
//! * **1st / 99th percentiles** (directory-size distributions, Figure 3).
//!
//! [`Summary`] is a streaming (Welford) accumulator for the first two;
//! [`Percentiles`] gives exact order statistics; [`LoadDist`] wraps a
//! per-node load vector with the avg/p1/p99 view used by Figure 3.

/// Streaming summary statistics (Welford's algorithm).
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    total: f64,
    failures: u64,
    retries: u64,
    partial: u64,
    dropped_msgs: u64,
}

impl Summary {
    /// Empty summary.
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            total: 0.0,
            failures: 0,
            retries: 0,
            partial: 0,
            dropped_msgs: 0,
        }
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        self.total += x;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Record a failed observation (a query that returned `Err`). Failures
    /// are tracked separately and do not contribute to the moments.
    pub fn record_failure(&mut self) {
        self.failures += 1;
    }

    /// Record a partially-resolved observation: the value contributes to
    /// the moments (a degraded query still did real work), and the
    /// `partial` counter marks it so `failures + partial + successes`
    /// accounts for every query issued.
    pub fn record_partial(&mut self, x: f64) {
        self.record(x);
        self.partial += 1;
    }

    /// Add retry attempts spent resolving queries under a fault plan.
    pub fn add_retries(&mut self, n: u64) {
        self.retries += n;
    }

    /// Add messages dropped in transit by a fault plan.
    pub fn add_dropped_msgs(&mut self, n: u64) {
        self.dropped_msgs += n;
    }

    /// Merge another summary into this one (parallel reduction).
    pub fn merge(&mut self, other: &Summary) {
        let failures = self.failures + other.failures;
        self.failures = failures;
        let retries = self.retries + other.retries;
        self.retries = retries;
        let partial = self.partial + other.partial;
        self.partial = partial;
        let dropped_msgs = self.dropped_msgs + other.dropped_msgs;
        self.dropped_msgs = dropped_msgs;
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            self.failures = failures;
            self.retries = retries;
            self.partial = partial;
            self.dropped_msgs = dropped_msgs;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += delta * n2 / n;
        self.m2 += other.m2 + delta * delta * n1 * n2 / n;
        self.count += other.count;
        self.total += other.total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Number of failed observations (see [`Summary::record_failure`]).
    pub fn failures(&self) -> u64 {
        self.failures
    }

    /// Retry attempts spent under a fault plan (0 on fault-free runs).
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Partially-resolved observations (see [`Summary::record_partial`]).
    pub fn partial(&self) -> u64 {
        self.partial
    }

    /// Fully-successful observations: `count() - partial()`.
    pub fn successes(&self) -> u64 {
        self.count - self.partial
    }

    /// Messages dropped in transit under a fault plan.
    pub fn dropped_msgs(&self) -> u64 {
        self.dropped_msgs
    }

    /// Arithmetic mean (`0.0` when empty), computed as `total / count`.
    ///
    /// For the integer-valued metrics this repo records (hops, visited
    /// nodes, directory sizes) `total` is exact in an `f64`, so the mean
    /// is bit-identical however the observations were sharded and merged
    /// — unlike the internal Welford running mean, whose last bits depend
    /// on accumulation order.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total / self.count as f64
        }
    }

    /// Sum of all observations.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Population variance (`0.0` when fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`NaN` when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Largest observation (`NaN` when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.max
        }
    }
}

impl Default for Summary {
    /// The empty summary, [`Summary::new`]: a fold seeded with
    /// `Summary::default()` must start from `min = +∞`, `max = −∞`.
    fn default() -> Self {
        Self::new()
    }
}

/// Exact percentiles over a collected sample (nearest-rank method).
#[derive(Debug, Clone)]
pub struct Percentiles {
    sorted: Vec<f64>,
}

impl Percentiles {
    /// Build from an arbitrary sample; `O(n log n)`.
    pub fn from_samples(mut samples: Vec<f64>) -> Self {
        samples.sort_by(f64::total_cmp);
        Self { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Nearest-rank percentile of the sample.
    ///
    /// `p` is clamped into `[0, 100]`; `p = 0` answers the minimum (the
    /// nearest-rank formula would otherwise ask for rank 0, which does not
    /// exist) and `p = 100` the maximum. A `NaN` passed as `p` clamps to
    /// `0`, i.e. also answers the minimum.
    ///
    /// NaN policy for the *sample*: an empty sample answers `NaN` (there
    /// is no order statistic to report, and `NaN` poisons any downstream
    /// aggregate instead of silently contributing a zero). NaN *samples*
    /// are not rejected — [`f64::total_cmp`] in
    /// [`Percentiles::from_samples`] sorts them after every real value, so
    /// they occupy the top ranks and only surface in high percentiles.
    /// Simulation metrics (hop counts, directory sizes) never produce NaN,
    /// so this is a containment guarantee, not an expected path.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.sorted.is_empty() {
            return f64::NAN;
        }
        let p = p.clamp(0.0, 100.0);
        if p == 0.0 {
            return self.sorted[0];
        }
        let n = self.sorted.len();
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        self.sorted[rank.clamp(1, n) - 1]
    }

    /// Median (50th percentile).
    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }
}

/// Per-node load distribution: the avg / 1st-percentile / 99th-percentile
/// view of directory sizes plotted throughout Figure 3.
///
/// Percentile queries sort the sample once, lazily, and reuse the sorted
/// copy for every subsequent query (the Figure 3 sweeps ask for `p1` and
/// `p99` of the same distribution repeatedly).
#[derive(Debug, Clone)]
pub struct LoadDist {
    loads: Vec<f64>,
    sorted: std::sync::OnceLock<Percentiles>,
}

impl LoadDist {
    /// Wrap a per-node load vector (one entry per live node).
    pub fn new(loads: Vec<f64>) -> Self {
        Self { loads, sorted: std::sync::OnceLock::new() }
    }

    /// Wrap integer per-node counts.
    pub fn from_counts(counts: &[usize]) -> Self {
        Self::new(counts.iter().map(|&c| c as f64).collect())
    }

    fn percentiles(&self) -> &Percentiles {
        self.sorted.get_or_init(|| Percentiles::from_samples(self.loads.clone()))
    }

    /// Number of nodes measured.
    pub fn len(&self) -> usize {
        self.loads.len()
    }

    /// True when no nodes were measured.
    pub fn is_empty(&self) -> bool {
        self.loads.is_empty()
    }

    /// Average load per node.
    pub fn mean(&self) -> f64 {
        if self.loads.is_empty() {
            0.0
        } else {
            self.loads.iter().sum::<f64>() / self.loads.len() as f64
        }
    }

    /// Total load across all nodes.
    pub fn total(&self) -> f64 {
        self.loads.iter().sum()
    }

    /// 1st percentile of per-node load.
    pub fn p1(&self) -> f64 {
        self.percentiles().percentile(1.0)
    }

    /// 99th percentile of per-node load.
    pub fn p99(&self) -> f64 {
        self.percentiles().percentile(99.0)
    }

    /// Nearest-rank percentile of per-node load, `p` in `[0, 100]`.
    pub fn percentile(&self, p: f64) -> f64 {
        self.percentiles().percentile(p)
    }

    /// Maximum per-node load.
    pub fn max(&self) -> f64 {
        self.loads.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Coefficient of variation (std/mean) — a compact imbalance measure
    /// used by the ablation benches.
    pub fn cv(&self) -> f64 {
        let mean = self.mean();
        if mean == 0.0 {
            return 0.0;
        }
        let var = self.loads.iter().map(|&x| (x - mean) * (x - mean)).sum::<f64>()
            / self.loads.len() as f64;
        var.sqrt() / mean
    }

    /// Borrow the raw per-node loads.
    pub fn loads(&self) -> &[f64] {
        &self.loads
    }
}

/// A fixed-width histogram over `[0, max)` with unit buckets, plus an
/// overflow bucket — suited to hop counts and probe counts, whose support
/// is small and discrete. Renders the hop distribution Figure 4 prints
/// behind its arity-1 averages (`repro fig4`).
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    overflow: u64,
    count: u64,
}

impl Histogram {
    /// A histogram with unit buckets `0..max`.
    pub fn new(max: usize) -> Self {
        Self { buckets: vec![0; max], overflow: 0, count: 0 }
    }

    /// Record one observation.
    pub fn record(&mut self, x: usize) {
        match self.buckets.get_mut(x) {
            Some(b) => *b += 1,
            None => self.overflow += 1,
        }
        self.count += 1;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Count in bucket `x` (`None` beyond range).
    pub fn bucket(&self, x: usize) -> Option<u64> {
        self.buckets.get(x).copied()
    }

    /// Observations past the last bucket.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Fraction of observations at or below `x` (overflow counts as above).
    pub fn cdf(&self, x: usize) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let upto: u64 = self.buckets.iter().take(x + 1).sum();
        upto as f64 / self.count as f64
    }

    /// Smallest `x` with `cdf(x) >= q` (`None` when it falls in overflow).
    pub fn quantile(&self, q: f64) -> Option<usize> {
        let q = q.clamp(0.0, 1.0);
        (0..self.buckets.len()).find(|&x| self.cdf(x) >= q)
    }

    /// The mode (most frequent in-range value), ties to the smaller.
    pub fn mode(&self) -> Option<usize> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
            .map(|(i, _)| i)
    }

    /// Non-empty `(value, count)` pairs in order, overflow last as `None`.
    pub fn entries(&self) -> impl Iterator<Item = (Option<usize>, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (Some(i), c))
            .chain((self.overflow > 0).then_some((None, self.overflow)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_summary_is_the_empty_summary() {
        assert_eq!(Summary::default(), Summary::new());
        let mut s = Summary::default();
        s.record(3.0);
        assert_eq!((s.min(), s.max()), (3.0, 3.0));
    }

    #[test]
    fn summary_empty() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert!(s.min().is_nan());
        assert!(s.max().is_nan());
    }

    #[test]
    fn summary_basic_moments() {
        let mut s = Summary::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert_eq!(s.total(), 40.0);
    }

    #[test]
    fn degradation_counters_record_and_report() {
        let mut s = Summary::new();
        s.record(3.0);
        s.record_partial(5.0);
        s.record_failure();
        s.add_retries(4);
        s.add_dropped_msgs(2);
        assert_eq!(s.count(), 2, "partial observations still count");
        assert_eq!(s.partial(), 1);
        assert_eq!(s.successes(), 1);
        assert_eq!(s.failures(), 1);
        assert_eq!(s.retries(), 4);
        assert_eq!(s.dropped_msgs(), 2);
        assert_eq!(s.total(), 8.0);
    }

    #[test]
    fn degradation_counters_merge_additively() {
        let mut a = Summary::new();
        a.record_partial(1.0);
        a.add_retries(2);
        a.add_dropped_msgs(3);
        let mut b = Summary::new();
        b.record_partial(9.0);
        b.record_failure();
        b.add_retries(5);
        b.add_dropped_msgs(7);
        a.merge(&b);
        assert_eq!(a.partial(), 2);
        assert_eq!(a.retries(), 7);
        assert_eq!(a.dropped_msgs(), 10);
        assert_eq!(a.failures(), 1);
        assert_eq!(a.count(), 2);
    }

    #[test]
    fn degradation_counters_survive_empty_side_merges() {
        // The empty-side early returns in merge() must not lose counters
        // accumulated on the empty side (a shard can drop every query).
        let mut empty = Summary::new();
        empty.add_retries(3);
        empty.add_dropped_msgs(1);
        empty.record_failure();
        let mut full = Summary::new();
        full.record(2.0);
        full.add_retries(10);
        // empty (no observations) absorbing full
        let mut left = empty.clone();
        left.merge(&full);
        assert_eq!(left.retries(), 13);
        assert_eq!(left.dropped_msgs(), 1);
        assert_eq!(left.failures(), 1);
        assert_eq!(left.count(), 1);
        // full absorbing empty
        let mut right = full.clone();
        right.merge(&empty);
        assert_eq!(right.retries(), 13);
        assert_eq!(right.dropped_msgs(), 1);
        assert_eq!(right.failures(), 1);
        assert_eq!(right.count(), 1);
        // merge order must not matter for the counters
        assert_eq!(left.retries(), right.retries());
        assert_eq!(left.partial(), right.partial());
        assert_eq!(left.dropped_msgs(), right.dropped_msgs());
    }

    #[test]
    fn summary_merge_equals_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i * i % 37) as f64).collect();
        let mut whole = Summary::new();
        for &x in &data {
            whole.record(x);
        }
        let mut a = Summary::new();
        let mut b = Summary::new();
        for &x in &data[..33] {
            a.record(x);
        }
        for &x in &data[33..] {
            b.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn summary_merge_with_empty() {
        let mut a = Summary::new();
        a.record(3.0);
        let b = Summary::new();
        let snapshot = a.clone();
        a.merge(&b);
        assert_eq!(a, snapshot);
        let mut c = Summary::new();
        c.merge(&snapshot);
        assert_eq!(c, snapshot);
    }

    #[test]
    fn summary_failures_survive_merge_even_with_no_observations() {
        let mut a = Summary::new();
        a.record_failure();
        a.record_failure();
        let mut b = Summary::new();
        b.record(5.0);
        b.record_failure();
        a.merge(&b);
        assert_eq!(a.failures(), 3);
        assert_eq!(a.count(), 1, "failures do not count as observations");
        assert_eq!(a.mean(), 5.0);

        // merging an all-failure summary into a populated one
        let mut c = Summary::new();
        c.record(1.0);
        let mut d = Summary::new();
        d.record_failure();
        c.merge(&d);
        assert_eq!(c.failures(), 1);
        assert_eq!(c.count(), 1);
    }

    #[test]
    fn summary_mean_is_exact_total_over_count() {
        // Integer-valued observations: mean must equal total/count bitwise
        // regardless of how the sample was split and merged.
        let data: Vec<f64> = (0..1000).map(|i| (i % 17) as f64).collect();
        let mut whole = Summary::new();
        for &x in &data {
            whole.record(x);
        }
        for split in [1usize, 3, 7, 100] {
            let mut merged = Summary::new();
            for chunk in data.chunks(data.len().div_ceil(split)) {
                let mut part = Summary::new();
                for &x in chunk {
                    part.record(x);
                }
                merged.merge(&part);
            }
            assert_eq!(merged.count(), whole.count());
            assert_eq!(merged.total().to_bits(), whole.total().to_bits());
            assert_eq!(merged.mean().to_bits(), whole.mean().to_bits());
            assert_eq!(merged.min().to_bits(), whole.min().to_bits());
            assert_eq!(merged.max().to_bits(), whole.max().to_bits());
        }
    }

    #[test]
    fn load_dist_percentiles_cached_and_consistent() {
        let d = LoadDist::from_counts(&[9, 1, 5, 3, 7, 2, 8, 4, 6, 0]);
        // repeated queries hit the cached sort and stay identical
        let first = (d.p1(), d.p99());
        let second = (d.p1(), d.p99());
        assert_eq!(first, second);
        assert_eq!(d.percentile(50.0), 4.0);
        assert_eq!(d.percentile(100.0), 9.0);
        // a clone keeps working (cache may or may not be carried over)
        let e = d.clone();
        assert_eq!((e.p1(), e.p99()), first);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let p = Percentiles::from_samples((1..=100).map(f64::from).collect());
        assert_eq!(p.percentile(1.0), 1.0);
        assert_eq!(p.percentile(50.0), 50.0);
        assert_eq!(p.percentile(99.0), 99.0);
        assert_eq!(p.percentile(100.0), 100.0);
        assert_eq!(p.percentile(0.0), 1.0);
    }

    #[test]
    fn percentiles_small_sample() {
        let p = Percentiles::from_samples(vec![10.0]);
        assert_eq!(p.percentile(1.0), 10.0);
        assert_eq!(p.percentile(99.0), 10.0);
        assert_eq!(p.median(), 10.0);
    }

    #[test]
    fn percentiles_empty_is_nan() {
        let p = Percentiles::from_samples(vec![]);
        assert!(p.percentile(50.0).is_nan());
        assert!(p.is_empty());
    }

    #[test]
    fn percentiles_rank_edges() {
        // p = 0 must answer the minimum without asking for rank 0, and
        // p = 100 the maximum without running past the end; out-of-range
        // p clamps rather than panicking or extrapolating.
        let p = Percentiles::from_samples(vec![3.0, 1.0, 2.0]);
        assert_eq!(p.percentile(0.0), 1.0);
        assert_eq!(p.percentile(100.0), 3.0);
        assert_eq!(p.percentile(-5.0), 1.0);
        assert_eq!(p.percentile(250.0), 3.0);
        // Single sample: every percentile is that sample.
        let one = Percentiles::from_samples(vec![42.0]);
        assert_eq!(one.percentile(0.0), 42.0);
        assert_eq!(one.percentile(100.0), 42.0);
        // A NaN percentile argument clamps to 0 (minimum), not a panic.
        assert_eq!(p.percentile(f64::NAN), 1.0);
    }

    #[test]
    fn percentiles_nan_samples_sort_last() {
        // total_cmp orders NaN above every real value: low/median ranks
        // stay real, only the top rank reports the NaN.
        let p = Percentiles::from_samples(vec![f64::NAN, 1.0, 2.0, 3.0]);
        assert_eq!(p.percentile(0.0), 1.0);
        assert_eq!(p.median(), 2.0);
        assert_eq!(p.percentile(75.0), 3.0);
        assert!(p.percentile(100.0).is_nan());
        assert_eq!(p.len(), 4);
    }

    #[test]
    fn percentiles_unsorted_input() {
        let p = Percentiles::from_samples(vec![5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(p.median(), 3.0);
        assert_eq!(p.percentile(100.0), 5.0);
    }

    #[test]
    fn load_dist_basics() {
        let d = LoadDist::from_counts(&[0, 0, 10, 10]);
        assert_eq!(d.mean(), 5.0);
        assert_eq!(d.total(), 20.0);
        assert_eq!(d.p1(), 0.0);
        assert_eq!(d.p99(), 10.0);
        assert_eq!(d.max(), 10.0);
        assert_eq!(d.len(), 4);
    }

    #[test]
    fn load_dist_cv_zero_for_uniform() {
        let d = LoadDist::new(vec![4.0; 16]);
        assert_eq!(d.cv(), 0.0);
    }

    #[test]
    fn load_dist_cv_positive_for_skew() {
        let d = LoadDist::new(vec![0.0, 0.0, 0.0, 100.0]);
        assert!(d.cv() > 1.0);
    }

    #[test]
    fn load_dist_empty() {
        let d = LoadDist::new(vec![]);
        assert_eq!(d.mean(), 0.0);
        assert!(d.is_empty());
    }

    #[test]
    fn histogram_records_and_counts() {
        let mut h = Histogram::new(10);
        for x in [1, 1, 2, 5, 12] {
            h.record(x);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.bucket(1), Some(2));
        assert_eq!(h.bucket(3), Some(0));
        assert_eq!(h.overflow(), 1);
    }

    #[test]
    fn histogram_cdf_and_quantile() {
        let mut h = Histogram::new(10);
        for x in 0..10 {
            h.record(x);
        }
        assert!((h.cdf(4) - 0.5).abs() < 1e-12);
        assert_eq!(h.quantile(0.5), Some(4));
        assert_eq!(h.quantile(1.0), Some(9));
        assert_eq!(h.quantile(0.0), Some(0));
    }

    #[test]
    fn histogram_mode_and_entries() {
        let mut h = Histogram::new(8);
        for x in [3, 3, 3, 5, 5, 7] {
            h.record(x);
        }
        assert_eq!(h.mode(), Some(3));
        let e: Vec<_> = h.entries().collect();
        assert_eq!(e, vec![(Some(3), 3), (Some(5), 2), (Some(7), 1)]);
    }

    #[test]
    fn histogram_empty() {
        let h = Histogram::new(4);
        assert_eq!(h.cdf(3), 0.0);
        assert_eq!(h.mode(), None);
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn histogram_overflow_blocks_quantile() {
        let mut h = Histogram::new(2);
        h.record(0);
        h.record(99);
        assert_eq!(h.quantile(0.5), Some(0));
        assert_eq!(h.quantile(0.9), None, "90th percentile sits in overflow");
        let e: Vec<_> = h.entries().collect();
        assert_eq!(e.last(), Some(&(None, 1)));
    }
}
