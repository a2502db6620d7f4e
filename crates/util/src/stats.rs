//! Measurement infrastructure: CDFs and running summaries.
//!
//! The paper's kernel logging package records per-packet expected vs. actual
//! delay and the evaluation section reports CDFs of flow bandwidths, download
//! speeds and client latencies. These types are the Rust-side equivalent used
//! by `mn-emucore`'s accuracy log, by the applications and by the benchmark
//! harness when it prints the rows/series of each table and figure.

/// An empirical cumulative distribution function over `f64` samples.
///
/// # Examples
///
/// ```
/// use mn_util::Cdf;
///
/// let mut cdf = Cdf::new();
/// for v in [1.0, 2.0, 3.0, 4.0] {
///     cdf.add(v);
/// }
/// assert_eq!(cdf.quantile(0.5), Some(2.0));
/// assert_eq!(cdf.fraction_at_or_below(3.0), 0.75);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Cdf {
    samples: Vec<f64>,
    sorted: bool,
}

impl Cdf {
    /// Creates an empty CDF.
    pub fn new() -> Self {
        Cdf {
            samples: Vec::new(),
            sorted: true,
        }
    }

    /// Adds a sample. Non-finite samples are ignored.
    pub fn add(&mut self, value: f64) {
        if value.is_finite() {
            self.samples.push(value);
            self.sorted = false;
        }
    }

    /// Adds every sample from an iterator.
    pub fn extend<I: IntoIterator<Item = f64>>(&mut self, values: I) {
        for v in values {
            self.add(v);
        }
    }

    /// Number of samples collected.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Returns `true` if no samples have been collected.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
            self.sorted = true;
        }
    }

    /// Returns the `q`-quantile (0.0 ≤ q ≤ 1.0) using the nearest-rank method,
    /// or `None` if the CDF is empty.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        self.ensure_sorted();
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.samples.len() as f64).ceil() as usize).max(1) - 1;
        Some(self.samples[rank.min(self.samples.len() - 1)])
    }

    /// Returns the median, or `None` if empty.
    pub fn median(&mut self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// Returns the minimum sample.
    pub fn min(&mut self) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        self.ensure_sorted();
        Some(self.samples[0])
    }

    /// Returns the maximum sample.
    pub fn max(&mut self) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        self.ensure_sorted();
        Some(*self.samples.last().unwrap())
    }

    /// Returns the arithmetic mean, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.samples.iter().sum::<f64>() / self.samples.len() as f64)
        }
    }

    /// Fraction of samples less than or equal to `value`.
    pub fn fraction_at_or_below(&mut self, value: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let count = self.samples.partition_point(|&s| s <= value);
        count as f64 / self.samples.len() as f64
    }

    /// Returns the full `(value, cumulative fraction)` curve, one point per
    /// sample, suitable for plotting or for the benchmark harness to print.
    pub fn points(&mut self) -> Vec<(f64, f64)> {
        self.ensure_sorted();
        let n = self.samples.len();
        self.samples
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, (i + 1) as f64 / n as f64))
            .collect()
    }

    /// Returns the curve downsampled to at most `max_points` points (always
    /// keeping the first and last), for compact textual output.
    pub fn points_downsampled(&mut self, max_points: usize) -> Vec<(f64, f64)> {
        let pts = self.points();
        if pts.len() <= max_points || max_points < 2 {
            return pts;
        }
        let mut out = Vec::with_capacity(max_points);
        let step = (pts.len() - 1) as f64 / (max_points - 1) as f64;
        for i in 0..max_points {
            let idx = (i as f64 * step).round() as usize;
            out.push(pts[idx.min(pts.len() - 1)]);
        }
        out
    }

    /// Borrow of the raw (unsorted) samples.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

crate::codec_record! {
    /// Streaming mean / variance / extremes without storing samples
    /// (Welford's algorithm). Its checkpoint is the raw accumulators, so a
    /// restored estimator continues the stream bit-identically.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct RunningStats {
        count: u64,
        mean: f64,
        m2: f64,
        min: f64,
        max: f64,
    }
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RunningStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds a sample. Non-finite samples are ignored.
    pub fn add(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance, or 0.0 if fewer than two samples.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Smallest sample, or `None` if empty.
    pub fn min(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.min)
        }
    }

    /// Largest sample, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.max)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_quantiles() {
        let mut cdf = Cdf::new();
        cdf.extend((1..=100).map(|i| i as f64));
        assert_eq!(cdf.quantile(0.0), Some(1.0));
        assert_eq!(cdf.quantile(0.5), Some(50.0));
        assert_eq!(cdf.quantile(1.0), Some(100.0));
        assert_eq!(cdf.median(), Some(50.0));
        assert_eq!(cdf.min(), Some(1.0));
        assert_eq!(cdf.max(), Some(100.0));
        assert!((cdf.mean().unwrap() - 50.5).abs() < 1e-9);
    }

    #[test]
    fn cdf_fraction_at_or_below() {
        let mut cdf = Cdf::new();
        cdf.extend([10.0, 20.0, 30.0, 40.0]);
        assert_eq!(cdf.fraction_at_or_below(5.0), 0.0);
        assert_eq!(cdf.fraction_at_or_below(20.0), 0.5);
        assert_eq!(cdf.fraction_at_or_below(100.0), 1.0);
    }

    #[test]
    fn cdf_ignores_non_finite() {
        let mut cdf = Cdf::new();
        cdf.add(f64::NAN);
        cdf.add(f64::INFINITY);
        cdf.add(1.0);
        assert_eq!(cdf.len(), 1);
    }

    #[test]
    fn cdf_empty_behaviour() {
        let mut cdf = Cdf::new();
        assert!(cdf.is_empty());
        assert_eq!(cdf.quantile(0.5), None);
        assert_eq!(cdf.mean(), None);
        assert_eq!(cdf.fraction_at_or_below(1.0), 0.0);
    }

    #[test]
    fn cdf_points_monotone() {
        let mut cdf = Cdf::new();
        cdf.extend([3.0, 1.0, 2.0]);
        let pts = cdf.points();
        assert_eq!(pts.len(), 3);
        for w in pts.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 < w[1].1);
        }
        assert!((pts.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cdf_downsampling_keeps_endpoints() {
        let mut cdf = Cdf::new();
        cdf.extend((0..1000).map(|i| i as f64));
        let pts = cdf.points_downsampled(10);
        assert_eq!(pts.len(), 10);
        assert_eq!(pts[0].0, 0.0);
        assert_eq!(pts[9].0, 999.0);
    }

    #[test]
    fn running_stats_mean_and_stddev() {
        let mut s = RunningStats::new();
        for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.add(v);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn running_stats_keep_the_record_contract() {
        let mut s = RunningStats::new();
        crate::codec::record_contract(s);
        [1.5, -2.0, 8.25].into_iter().for_each(|v| s.add(v));
        crate::codec::record_contract(s);
    }

    #[test]
    fn running_stats_empty() {
        let s = RunningStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
    }
}
