//! Percentile / CDF statistics shared by the profiler, the trace analyser and
//! the evaluation harness.
//!
//! The paper works almost exclusively in percentiles (P1–P99 profiles, P99
//! SLOs, P99/P50 variability ratios), so these helpers are used everywhere.

use std::sync::OnceLock;

/// Compute the `p`-th percentile (0 <= p <= 100) of a sample set using
/// linear interpolation between closest ranks (the same convention as
/// `numpy.percentile(..., interpolation="linear")`, which the paper's pandas
/// based prototype uses). `p = 0` is the minimum and `p = 100` the maximum,
/// as in numpy.
///
/// Returns `None` for an empty sample set, a NaN percentile, or a
/// percentile outside `[0, 100]`.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() || !(0.0..=100.0).contains(&p) || p.is_nan() {
        return None;
    }
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    Some(percentile_of_sorted(&sorted, p))
}

/// Percentile of an already-sorted (ascending) sample set. Panics in debug
/// builds if the slice is not sorted.
pub fn percentile_of_sorted(sorted: &[f64], p: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "input must be sorted"
    );
    if sorted.len() == 1 {
        return sorted[0];
    }
    let (lo, hi, frac) = percentile_rank(sorted.len(), p);
    if lo == hi {
        sorted[lo]
    } else {
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// [`percentile_of_sorted`] of `values` in any order, without sorting them:
/// selects the two ranks the interpolation reads in O(n), reordering
/// `values` in place. Bit-identical to sorting by `total_cmp` first.
pub fn select_percentile(values: &mut [f64], p: f64) -> f64 {
    debug_assert!(!values.is_empty());
    if values.len() == 1 {
        return values[0];
    }
    let (lo, hi, frac) = percentile_rank(values.len(), p);
    select_ranks(values, lo, hi > lo, frac)
}

/// [`select_percentile`] of `values` that selects only among the values at
/// or above `floor` (by `total_cmp`), copied into `kept`. Those are the
/// largest values, so each keeps its rank counted from the top, and the
/// result is bit-identical to [`select_percentile`] whenever the ranks the
/// interpolation reads are among them. Returns `None` when they are not
/// (fewer values clear the floor than those ranks need) or `values` is
/// empty: the floor then says nothing about the answer.
pub fn select_percentile_above(
    values: &[f64],
    floor: f64,
    kept: &mut Vec<f64>,
    p: f64,
) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let (lo, hi, frac) = percentile_rank(values.len(), p);
    kept.clear();
    kept.extend(values.iter().filter(|v| v.total_cmp(&floor).is_ge()));
    let lo_in_kept = lo.checked_sub(values.len() - kept.len())?;
    Some(select_ranks(kept, lo_in_kept, hi > lo, frac))
}

/// The interpolated percentile at rank `lo` of `values` (and at `lo + 1`
/// when `interpolate`), selecting both ranks in O(n) and reordering
/// `values` in place.
fn select_ranks(values: &mut [f64], lo: usize, interpolate: bool, frac: f64) -> f64 {
    let (_, &mut at_lo, above) = values.select_nth_unstable_by(lo, f64::total_cmp);
    if !interpolate {
        return at_lo;
    }
    // Rank `lo + 1` is the smallest value above the selected one.
    let at_hi = above
        .iter()
        .copied()
        .min_by(f64::total_cmp)
        .unwrap_or(at_lo);
    at_lo * (1.0 - frac) + at_hi * frac
}

/// Where the `p`-th percentile of `len ≥ 1` ascending values falls: the two
/// neighbouring ranks and the interpolation weight of the upper one.
fn percentile_rank(len: usize, p: f64) -> (usize, usize, f64) {
    let rank = p.clamp(0.0, 100.0) / 100.0 * (len - 1) as f64;
    let lo = rank.floor() as usize;
    (lo, rank.ceil() as usize, rank - lo as f64)
}

/// Summary statistics over a sample set.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Median (P50).
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Sample standard deviation.
    pub std_dev: f64,
}

impl Summary {
    /// Summarise a sample set. Returns `None` for an empty set.
    pub fn from_samples(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let count = sorted.len();
        let mean = sorted.iter().sum::<f64>() / count as f64;
        let var = if count > 1 {
            sorted.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (count - 1) as f64
        } else {
            0.0
        };
        Some(Summary {
            count,
            mean,
            min: sorted[0],
            max: sorted[count - 1],
            p50: percentile_of_sorted(&sorted, 50.0),
            p95: percentile_of_sorted(&sorted, 95.0),
            p99: percentile_of_sorted(&sorted, 99.0),
            std_dev: var.sqrt(),
        })
    }

    /// The P99/P50 tail-to-median ratio the paper uses to quantify runtime
    /// variability (e.g. 2.17× for QA at concurrency 1).
    ///
    /// A degenerate all-zero series (`p99 ≈ p50 ≈ 0`) has no tail and
    /// returns 1.0; a zero median under a non-zero tail is genuinely
    /// unbounded and returns `f64::INFINITY`.
    pub fn tail_ratio(&self) -> f64 {
        if self.p50 <= f64::EPSILON {
            return if self.p99 <= f64::EPSILON {
                1.0
            } else {
                f64::INFINITY
            };
        }
        self.p99 / self.p50
    }
}

/// An empirical cumulative distribution function, used for the latency CDFs of
/// Figure 4 and the slack CDF of Figure 1a.
#[derive(Debug, Clone, PartialEq)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Build a CDF from raw samples.
    pub fn from_samples(samples: &[f64]) -> Self {
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        Cdf { sorted }
    }

    /// Number of samples behind the CDF.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when the CDF holds no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of samples `<= x` (the CDF value at `x`).
    pub fn fraction_below(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|v| *v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// Evenly spaced `(value, cumulative fraction)` points suitable for
    /// plotting or printing a figure series.
    pub fn points(&self, n: usize) -> Vec<(f64, f64)> {
        if self.sorted.is_empty() || n == 0 {
            return Vec::new();
        }
        (0..n)
            .map(|i| {
                let q = i as f64 / (n - 1).max(1) as f64;
                (percentile_of_sorted(&self.sorted, q * 100.0), q)
            })
            .collect()
    }

    /// Underlying sorted samples.
    pub fn samples(&self) -> &[f64] {
        &self.sorted
    }
}

/// Online mean/variance accumulator (Welford). Used by long-running serving
/// loops where storing every sample would be wasteful.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Fresh accumulator.
    pub fn new() -> Self {
        RunningStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Fold one observation into the accumulator.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the recorded observations (0 if none).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample variance.
    fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum observation (None if empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Maximum observation (None if empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Fold another accumulator into this one (Chan et al. parallel-Welford
    /// merge), as if every observation of `other` had been [`record`]ed here.
    ///
    /// [`record`]: RunningStats::record
    pub fn merge(&mut self, other: &RunningStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += delta * n2 / n;
        self.m2 += other.m2 + delta * delta * n1 * n2 / n;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Log-histogram resolution: buckets per decade. 128 buckets per factor of
/// ten bounds the half-bucket quantile error at `10^(1/256) − 1 ≈ 0.9 %`
/// relative.
const BUCKETS_PER_DECADE: usize = 128;
/// Smallest resolvable magnitude: `10^MIN_EXP`. Everything below (including
/// exact zeros) lands in the dedicated zero bucket.
const MIN_EXP: i32 = -9;
/// Largest resolvable magnitude: `10^MAX_EXP`. Larger samples clamp into the
/// top bucket (their exact maximum is still tracked by the Welford side).
const MAX_EXP: i32 = 12;
/// Total bucket count covering `[10^MIN_EXP, 10^MAX_EXP)`.
const BUCKET_COUNT: usize = ((MAX_EXP - MIN_EXP) as usize) * BUCKETS_PER_DECADE;
/// The top bucket, which also takes every sample from `10^MAX_EXP` up.
const TOP_BUCKET: usize = BUCKET_COUNT - 1;
/// Mantissa bits (below the exponent) that pick a [`BucketTable`] guess
/// cell. A cell spans a factor of at most `1 + 2^-6 ≈ 1.0156`, less than
/// one bucket's `10^(1/128) ≈ 1.0182`, so it holds at most one bucket
/// boundary.
const GUESS_BITS: u32 = 6;
/// Right shift from an `f64`'s bits to its guess-cell key (sign, exponent
/// and the top [`GUESS_BITS`] mantissa bits).
const GUESS_SHIFT: u32 = f64::MANTISSA_DIGITS - 1 - GUESS_BITS;

/// The bucket layout's definition: a sample `x` belongs to bucket
/// `floor((log10 x − MIN_EXP) · BUCKETS_PER_DECADE)`, clamped into the
/// array, with NaN and everything below `10^MIN_EXP` in bucket 0.
/// [`BucketTable`] is derived from this formula and tested against it; the
/// recording path never calls it.
fn bucket_by_formula(x: f64) -> usize {
    let idx = ((x.log10() - f64::from(MIN_EXP)) * BUCKETS_PER_DECADE as f64).floor();
    if idx < 0.0 {
        0
    } else {
        (idx as usize).min(TOP_BUCKET)
    }
}

/// [`bucket_by_formula`] as a table: the exact bucket boundaries, plus a
/// coarse guess per (binary exponent, top mantissa bits) cell.
#[derive(Debug)]
struct BucketTable {
    /// `lower[k]` is the smallest positive `f64` that the formula puts in
    /// bucket `k` or above (`lower[0]` is the smallest subnormal).
    lower: Box<[f64]>,
    /// The bucket of the smallest value of each guess cell, for the cells
    /// from the one holding `lower[1]` to the one holding `lower[TOP]`.
    guess: Box<[u16]>,
    /// Cell key of `guess[0]`.
    first_key: u64,
}

impl BucketTable {
    /// The process-wide table, built on first use.
    fn get() -> &'static BucketTable {
        static TABLE: OnceLock<BucketTable> = OnceLock::new();
        TABLE.get_or_init(BucketTable::build)
    }

    #[cold]
    fn build() -> BucketTable {
        let mut lower = Vec::with_capacity(BUCKET_COUNT);
        lower.push(f64::from_bits(1));
        for k in 1..BUCKET_COUNT {
            // Start at the ideal boundary and walk ulps to the formula's.
            let mut x = 10f64.powf(f64::from(MIN_EXP) + k as f64 / BUCKETS_PER_DECADE as f64);
            if bucket_by_formula(x) >= k {
                while bucket_by_formula(x.next_down()) >= k {
                    x = x.next_down();
                }
            } else {
                while bucket_by_formula(x) < k {
                    x = x.next_up();
                }
            }
            lower.push(x);
        }
        let key = |x: f64| x.to_bits() >> GUESS_SHIFT;
        let first_key = key(lower[1]);
        let bucket_of = |x: f64| lower.partition_point(|&b| b <= x) - 1;
        let guess = (first_key..=key(lower[TOP_BUCKET]))
            .map(|cell| {
                let smallest = f64::from_bits(cell << GUESS_SHIFT);
                let largest = f64::from_bits(((cell + 1) << GUESS_SHIFT) - 1);
                let bucket = bucket_of(smallest);
                assert!(
                    bucket_of(largest) <= bucket + 1,
                    "a guess cell spans more than one bucket boundary"
                );
                bucket as u16
            })
            .collect();
        BucketTable {
            lower: lower.into_boxed_slice(),
            guess,
            first_key,
        }
    }
}

/// Streaming summary statistics: Welford moments plus a fixed-resolution
/// log-bucketed histogram for approximate percentiles.
///
/// [`Summary`] buffers every sample and re-sorts on each query — exact, and
/// the right tool for paper figures, but O(n) memory and O(n log n) per
/// query. `StreamingSummary` is the hot-path alternative: O(1) per
/// [`record`](StreamingSummary::record), fixed memory (one bucket array),
/// and approximate quantiles in its [`summary`](StreamingSummary::summary)
/// (on large streams about half a log bucket, `≈ 0.9 %` at 128
/// buckets/decade),
/// suitable for sweep-style experiments and long-running serving loops.
/// Mean, variance, min, max and count are exact (Welford); only the
/// percentiles are approximate.
///
/// # Bucket lookup
///
/// A positive sample `x` lands in bucket
/// `floor((log10 x − MIN_EXP) · 128)`, clamped to the array. `record`
/// finds that bucket without `log10`, through a table built once per
/// process:
///
/// - `lower[k]`, the smallest `f64` the formula puts in bucket `k` or
///   above, found by walking ulps from `10^(k/128 − 9)` with the formula
///   itself, so the table reproduces its rounding exactly;
/// - one guess per (binary exponent, top 6 mantissa bits) cell: the bucket
///   of the cell's smallest value. A cell is narrower than a bucket, so a
///   sample is in its cell's guess or the next bucket, and one comparison
///   against `lower` decides.
///
/// NaN and samples below `10^-9` go to bucket 0, `+∞` and samples from
/// `10^12` up to the top bucket, and samples `<= 0` to the zero count.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingSummary {
    moments: RunningStats,
    /// Samples `<= 0` (latencies: exact zeros); kept out of the log buckets.
    zeros: u64,
    /// Log-spaced counts over `[10^MIN_EXP, 10^MAX_EXP)`.
    buckets: Vec<u64>,
}

impl Default for StreamingSummary {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamingSummary {
    /// Fresh, empty accumulator.
    pub fn new() -> Self {
        StreamingSummary {
            moments: RunningStats::new(),
            zeros: 0,
            buckets: vec![0; BUCKET_COUNT],
        }
    }

    /// The bucket of `x` under [`bucket_by_formula`], read off the
    /// [`BucketTable`]: a guess from the exponent and top mantissa bits,
    /// corrected by one boundary comparison.
    #[inline]
    fn bucket_index(x: f64) -> usize {
        let table = BucketTable::get();
        if x.is_nan() || x < table.lower[1] {
            return 0;
        }
        if x >= table.lower[TOP_BUCKET] {
            return TOP_BUCKET;
        }
        let cell = (x.to_bits() >> GUESS_SHIFT) - table.first_key;
        let guess = usize::from(table.guess[cell as usize]);
        guess + usize::from(x >= table.lower[guess + 1])
    }

    /// Geometric midpoint of bucket `idx` — the representative value a
    /// quantile query returns for ranks landing in that bucket.
    fn bucket_value(idx: usize) -> f64 {
        10f64.powf(f64::from(MIN_EXP) + (idx as f64 + 0.5) / BUCKETS_PER_DECADE as f64)
    }

    /// Fold one observation into the accumulator. O(1), no allocation.
    pub fn record(&mut self, x: f64) {
        self.moments.record(x);
        if x <= 0.0 {
            self.zeros += 1;
        } else {
            self.buckets[Self::bucket_index(x)] += 1;
        }
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.moments.count()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Exact mean of the recorded observations (0 if none).
    pub fn mean(&self) -> f64 {
        self.moments.mean()
    }

    /// Exact sample standard deviation.
    fn std_dev(&self) -> f64 {
        self.moments.std_dev()
    }

    /// Exact minimum observation (None if empty).
    pub fn min(&self) -> Option<f64> {
        self.moments.min()
    }

    /// Exact maximum observation (None if empty).
    pub fn max(&self) -> Option<f64> {
        self.moments.max()
    }

    /// Approximate `p`-th percentile (`0 <= p <= 100`, inclusive bounds like
    /// [`percentile`]).
    ///
    /// Two approximations stack: the requested percentile snaps to the
    /// **nearest rank** (no linear interpolation between adjacent samples),
    /// and the sample at that rank is represented by its log bucket's
    /// geometric midpoint (half-bucket relative error, `≈ 0.9 %` at 128
    /// buckets/decade). On the large streams this type is built for, the
    /// rank snap is negligible and the bucket term dominates — the property
    /// test in this module bounds the total streaming-vs-exact disagreement
    /// at 2.5 % on 20 000-sample latency distributions. On *small* sample
    /// sets the rank snap can dominate instead (with 2 samples, P50 returns
    /// one of them rather than their midpoint); use the exact [`Summary`]
    /// when the sample count is small enough to buffer anyway. The result
    /// is clamped into the exact observed `[min, max]`. Returns `None` for
    /// an empty accumulator or an invalid `p`.
    fn quantile(&self, p: f64) -> Option<f64> {
        let n = self.count();
        if n == 0 || !(0.0..=100.0).contains(&p) || p.is_nan() {
            return None;
        }
        let (min, max) = (self.moments.min()?, self.moments.max()?);
        // Rank of the requested percentile under the linear-interpolation
        // convention; the bucket holding that rank bounds the exact value.
        let rank = (p / 100.0 * (n - 1) as f64).round() as u64;
        if rank < self.zeros {
            return Some(min.min(0.0));
        }
        let mut seen = self.zeros;
        for (idx, &count) in self.buckets.iter().enumerate() {
            seen += count;
            if rank < seen {
                return Some(Self::bucket_value(idx).clamp(min, max));
            }
        }
        Some(max)
    }

    /// The streaming analogue of [`Summary::from_samples`]: exact count /
    /// mean / min / max / std-dev, approximate P50 / P95 / P99. `None` when
    /// empty.
    pub fn summary(&self) -> Option<Summary> {
        if self.is_empty() {
            return None;
        }
        Some(Summary {
            count: self.count() as usize,
            mean: self.mean(),
            min: self.min()?,
            max: self.max()?,
            p50: self.quantile(50.0)?,
            p95: self.quantile(95.0)?,
            p99: self.quantile(99.0)?,
            std_dev: self.std_dev(),
        })
    }

    /// Fold another accumulator into this one, as if every observation of
    /// `other` had been recorded here (exact for the moments, lossless for
    /// the histogram since both sides share the fixed bucket layout).
    pub fn merge(&mut self, other: &StreamingSummary) {
        self.moments.merge(&other.moments);
        self.zeros += other.zeros;
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_linearly() {
        let samples = [1.0, 2.0, 3.0, 4.0];
        // The boundaries are inclusive (numpy convention): P0 is the
        // minimum, P100 the maximum.
        assert_eq!(percentile(&samples, 0.0), Some(1.0));
        assert_eq!(percentile(&samples, 100.0), Some(4.0));
        assert_eq!(percentile(&[7.5], 0.0), Some(7.5));
        assert_eq!(percentile(&samples, 50.0), Some(2.5));
        assert!((percentile(&samples, 25.0).unwrap() - 1.75).abs() < 1e-12);
    }

    #[test]
    fn percentile_rejects_bad_input() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[1.0], 101.0), None);
        assert_eq!(percentile(&[1.0], -1.0), None);
        assert_eq!(percentile(&[1.0], f64::NAN), None);
    }

    #[test]
    fn summary_matches_hand_computed_values() {
        let samples = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let s = Summary::from_samples(&samples).unwrap();
        assert_eq!(s.count, 8);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert!((s.std_dev - 2.138089935299395).abs() < 1e-9);
        assert_eq!(Summary::from_samples(&[]), None);
    }

    #[test]
    fn cdf_fraction_and_quantile_agree() {
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let cdf = Cdf::from_samples(&samples);
        assert_eq!(cdf.len(), 100);
        assert!((cdf.fraction_below(50.0) - 0.5).abs() < 0.01);
        assert!((cdf.points(3)[1].0 - 50.5).abs() < 0.01);
        assert_eq!(cdf.fraction_below(0.0), 0.0);
        assert_eq!(cdf.fraction_below(1000.0), 1.0);
        let pts = cdf.points(11);
        assert_eq!(pts.len(), 11);
        assert_eq!(pts[0].1, 0.0);
        assert_eq!(pts[10].1, 1.0);
    }

    #[test]
    fn running_stats_match_batch_summary() {
        let samples = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let mut rs = RunningStats::new();
        for s in samples {
            rs.record(s);
        }
        let batch = Summary::from_samples(&samples).unwrap();
        assert!((rs.mean() - batch.mean).abs() < 1e-12);
        assert!((rs.std_dev() - batch.std_dev).abs() < 1e-9);
        assert_eq!(rs.min(), Some(1.0));
        assert_eq!(rs.max(), Some(9.0));
        assert_eq!(rs.count(), 8);
    }

    #[test]
    fn tail_ratio_quantifies_skew() {
        let mut samples = vec![10.0; 99];
        samples.push(100.0);
        let s = Summary::from_samples(&samples).unwrap();
        assert!(s.tail_ratio() > 1.0);
    }

    #[test]
    fn tail_ratio_of_an_all_zero_series_is_one() {
        // Regression: 0/0 used to report an infinite tail for a series with
        // no tail at all.
        let s = Summary::from_samples(&[0.0; 50]).unwrap();
        assert_eq!(s.tail_ratio(), 1.0);
        // A zero median under a real tail is still unbounded.
        let mut samples = vec![0.0; 99];
        samples.push(42.0);
        let s = Summary::from_samples(&samples).unwrap();
        assert_eq!(s.tail_ratio(), f64::INFINITY);
    }

    #[test]
    fn streaming_moments_are_exact() {
        let samples = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let mut ss = StreamingSummary::new();
        for s in samples {
            ss.record(s);
        }
        let batch = Summary::from_samples(&samples).unwrap();
        assert_eq!(ss.count(), 8);
        assert!((ss.mean() - batch.mean).abs() < 1e-12);
        assert!((ss.std_dev() - batch.std_dev).abs() < 1e-9);
        assert_eq!(ss.min(), Some(1.0));
        assert_eq!(ss.max(), Some(9.0));
        assert!(StreamingSummary::new().summary().is_none());
        assert_eq!(StreamingSummary::new().quantile(50.0), None);
    }

    #[test]
    fn streaming_quantiles_track_exact_percentiles_on_seeded_distributions() {
        // Property test for the streaming-vs-exact contract: across seeds
        // and distribution shapes (the log-normal execution-time noise and
        // exponential inter-arrival gaps the simulator actually produces),
        // the log-bucketed quantile stays within the documented bucket
        // resolution of the exact sorted percentile. The bound below is
        // ~2.5× the theoretical half-bucket error to absorb rank rounding.
        const REL_TOL: f64 = 0.025;
        for seed in [1u64, 7, 42, 1234, 0xDEAD] {
            let mut rng = crate::rng::SimRng::seed_from_u64(seed);
            for shape in 0..2 {
                let samples: Vec<f64> = (0..20_000)
                    .map(|_| {
                        if shape == 0 {
                            rng.lognormal(3.0, 0.8) // ~20 ms median latency
                        } else {
                            rng.exponential(250.0) // 250 ms mean gap
                        }
                    })
                    .collect();
                let mut ss = StreamingSummary::new();
                for &s in &samples {
                    ss.record(s);
                }
                for p in [1.0, 25.0, 50.0, 90.0, 95.0, 99.0] {
                    let exact = percentile(&samples, p).unwrap();
                    let approx = ss.quantile(p).unwrap();
                    let rel = (approx - exact).abs() / exact;
                    assert!(
                        rel <= REL_TOL,
                        "seed {seed} shape {shape} P{p}: streaming {approx} vs exact {exact} \
                         (rel err {rel:.4})"
                    );
                }
                let summary = ss.summary().unwrap();
                assert_eq!(summary.count, samples.len());
                assert!(summary.p50 <= summary.p95 && summary.p95 <= summary.p99);
            }
        }
    }

    #[test]
    fn streaming_handles_zeros_extremes_and_bounds() {
        let mut ss = StreamingSummary::new();
        for _ in 0..10 {
            ss.record(0.0);
        }
        assert_eq!(ss.quantile(50.0), Some(0.0));
        assert_eq!(ss.summary().unwrap().tail_ratio(), 1.0);
        // Quantiles are clamped into the exact observed range even for
        // samples outside the histogram's resolvable magnitudes.
        let mut ss = StreamingSummary::new();
        ss.record(1e-15);
        ss.record(1e15);
        assert!(ss.quantile(0.0).unwrap() >= 1e-15);
        assert!(ss.quantile(100.0).unwrap() <= 1e15);
        assert_eq!(ss.quantile(101.0), None);
        assert_eq!(ss.quantile(f64::NAN), None);
    }

    #[test]
    fn streaming_merge_equals_sequential_recording() {
        let mut rng = crate::rng::SimRng::seed_from_u64(99);
        let samples: Vec<f64> = (0..5000).map(|_| rng.lognormal(2.0, 1.0)).collect();
        let mut whole = StreamingSummary::new();
        let mut left = StreamingSummary::new();
        let mut right = StreamingSummary::new();
        for (i, &s) in samples.iter().enumerate() {
            whole.record(s);
            if i % 2 == 0 {
                left.record(s);
            } else {
                right.record(s);
            }
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.std_dev() - whole.std_dev()).abs() < 1e-9);
        assert_eq!(left.quantile(95.0), whole.quantile(95.0));
        // Merging into an empty accumulator copies, and merging an empty one
        // is a no-op.
        let mut empty = StreamingSummary::new();
        empty.merge(&whole);
        assert_eq!(empty.count(), whole.count());
        whole.merge(&StreamingSummary::new());
        assert_eq!(empty.quantile(50.0), whole.quantile(50.0));
    }

    /// `bucket_index` must agree with `bucket_by_formula` on `x`.
    fn assert_bucket_matches_formula(x: f64) {
        assert_eq!(
            StreamingSummary::bucket_index(x),
            bucket_by_formula(x),
            "bucket of {x:e} (bits {:#x})",
            x.to_bits()
        );
    }

    #[test]
    fn bucket_table_boundaries_are_the_formulas() {
        let table = BucketTable::get();
        assert_eq!(table.lower.len(), BUCKET_COUNT);
        for (k, &lower) in table.lower.iter().enumerate().skip(1) {
            assert_eq!(bucket_by_formula(lower), k, "lower[{k}] = {lower:e}");
            assert_eq!(
                bucket_by_formula(lower.next_down()),
                k - 1,
                "below lower[{k}]"
            );
            // Every ulp within 16 of the boundary, on both sides.
            let (mut below, mut above) = (lower, lower);
            for _ in 0..16 {
                below = below.next_down();
                above = above.next_up();
                assert_bucket_matches_formula(below);
                assert_bucket_matches_formula(above);
            }
            assert_bucket_matches_formula(lower);
        }
    }

    #[test]
    fn bucket_index_matches_the_formula_on_random_and_special_samples() {
        let mut rng = crate::rng::SimRng::seed_from_u64(0xB0C4E7);
        // Log-uniform over 1e-12 to 1e14, past both ends of the histogram.
        for _ in 0..1_000_000 {
            assert_bucket_matches_formula(10f64.powf(rng.uniform_range(-12.0, 14.0)));
        }
        for x in [
            0.0,
            -0.0,
            -1.0,
            -1e300,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::from_bits(1),
            f64::MIN_POSITIVE,
            f64::MAX,
            1e-9,
            1e12,
        ] {
            assert_bucket_matches_formula(x);
        }
        // The documented placements of the special inputs.
        assert_eq!(StreamingSummary::bucket_index(f64::NAN), 0);
        assert_eq!(StreamingSummary::bucket_index(f64::INFINITY), TOP_BUCKET);
        let mut ss = StreamingSummary::new();
        ss.record(0.0);
        ss.record(-3.0);
        assert_eq!(ss.zeros, 2);
        assert!(ss.buckets.iter().all(|&c| c == 0));
    }

    #[test]
    fn running_stats_merge_matches_batch() {
        let a = [1.0, 2.0, 3.0];
        let b = [10.0, 20.0, 30.0, 40.0];
        let mut ra = RunningStats::new();
        a.iter().for_each(|&x| ra.record(x));
        let mut rb = RunningStats::new();
        b.iter().for_each(|&x| rb.record(x));
        ra.merge(&rb);
        let all: Vec<f64> = a.iter().chain(b.iter()).copied().collect();
        let batch = Summary::from_samples(&all).unwrap();
        assert_eq!(ra.count(), 7);
        assert!((ra.mean() - batch.mean).abs() < 1e-12);
        assert!((ra.std_dev() - batch.std_dev).abs() < 1e-9);
        assert_eq!(ra.min(), Some(1.0));
        assert_eq!(ra.max(), Some(40.0));
    }
}
