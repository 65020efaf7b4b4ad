//! Statistics collection: named scalar sets and latency histograms.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// An ordered map of named scalar statistics.
///
/// Components export their counters into a `StatSet` at the end of a run; the
/// benchmark harness merges and serializes these to build the paper's tables.
///
/// # Examples
///
/// ```
/// use dl_engine::stats::StatSet;
///
/// let mut s = StatSet::new();
/// s.add("dram.activates", 10.0);
/// s.add("dram.activates", 5.0);
/// assert_eq!(s.get("dram.activates"), Some(15.0));
/// ```
#[derive(Debug, Default, Clone, PartialEq, Serialize, Deserialize)]
#[serde(transparent)]
pub struct StatSet {
    values: BTreeMap<String, f64>,
}

impl StatSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets `name` to `value`, replacing any prior value.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// Adds `value` to `name` (starting from zero).
    pub fn add(&mut self, name: impl Into<String>, value: f64) {
        *self.values.entry(name.into()).or_insert(0.0) += value;
    }

    /// Looks up a statistic.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Merges `other` into `self`, summing overlapping names.
    pub fn merge(&mut self, other: &StatSet) {
        for (k, v) in &other.values {
            *self.values.entry(k.clone()).or_insert(0.0) += v;
        }
    }

    /// Iterates entries in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.values.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the set holds no entries.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

impl fmt::Display for StatSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, v) in &self.values {
            writeln!(f, "{k:<48} {v:>16.3}")?;
        }
        Ok(())
    }
}

impl<'a> IntoIterator for &'a StatSet {
    type Item = (&'a String, &'a f64);
    type IntoIter = std::collections::btree_map::Iter<'a, String, f64>;
    fn into_iter(self) -> Self::IntoIter {
        self.values.iter()
    }
}

/// A power-of-two bucketed histogram for latency distributions.
///
/// Bucket `i` counts samples in `[2^i, 2^(i+1))`; bucket 0 also counts zero.
///
/// # Examples
///
/// ```
/// use dl_engine::stats::Histogram;
///
/// let mut h = Histogram::new();
/// for v in [1u64, 2, 3, 100] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 4);
/// assert_eq!(h.mean(), 26.5);
/// assert!(h.percentile(0.5) <= 4);
/// ```
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; 64],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let idx = if value == 0 {
            0
        } else {
            63 - value.leading_zeros() as usize
        };
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean of all samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// An upper bound on the `q`-quantile (`0.0..=1.0`), at bucket
    /// resolution.
    ///
    /// # Panics
    /// Panics if `q` is outside `[0, 1]`.
    pub fn percentile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        if self.count == 0 {
            return 0;
        }
        let target = (q * self.count as f64).ceil() as u64;
        let mut seen = 0;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target.max(1) {
                // Upper edge of bucket i.
                return if i >= 63 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                };
            }
        }
        self.max
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Geometric mean of a sequence of positive values.
///
/// Returns 0 for an empty sequence. Values `<= 0` are skipped (they would
/// make the geomean undefined); callers should ensure inputs are positive.
///
/// # Examples
///
/// ```
/// use dl_engine::stats::geomean;
/// assert!((geomean([2.0, 8.0].into_iter()) - 4.0).abs() < 1e-12);
/// ```
pub fn geomean(values: impl Iterator<Item = f64>) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0u32;
    for v in values {
        if v > 0.0 {
            log_sum += v.ln();
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        (log_sum / n as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statset_set_add_get() {
        let mut s = StatSet::new();
        s.set("a", 1.0);
        s.add("a", 2.0);
        s.add("b", 5.0);
        assert_eq!(s.get("a"), Some(3.0));
        assert_eq!(s.get("b"), Some(5.0));
        assert_eq!(s.get("c"), None);
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
    }

    #[test]
    fn statset_merge_sums() {
        let mut a = StatSet::new();
        a.set("x", 1.0);
        let mut b = StatSet::new();
        b.set("x", 2.0);
        b.set("y", 3.0);
        a.merge(&b);
        assert_eq!(a.get("x"), Some(3.0));
        assert_eq!(a.get("y"), Some(3.0));
    }

    #[test]
    fn statset_display_is_nonempty() {
        let mut s = StatSet::new();
        s.set("k", 1.0);
        assert!(s.to_string().contains('k'));
    }

    #[test]
    fn histogram_basic_moments() {
        let mut h = Histogram::new();
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
        for v in [4u64, 4, 8, 16] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.mean(), 8.0);
        assert_eq!(h.min(), 4);
        assert_eq!(h.max(), 16);
    }

    #[test]
    fn histogram_percentile_bounds() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.percentile(0.5);
        assert!((500..=1023).contains(&p50), "p50 bound was {p50}");
        assert!(h.percentile(1.0) >= 1000);
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        a.record(2);
        let mut b = Histogram::new();
        b.record(1024);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 2);
        assert_eq!(a.max(), 1024);
    }

    #[test]
    fn histogram_records_zero() {
        let mut h = Histogram::new();
        h.record(0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.min(), 0);
    }

    #[test]
    fn geomean_matches_definition() {
        assert_eq!(geomean(std::iter::empty()), 0.0);
        let g = geomean([1.0, 10.0, 100.0].into_iter());
        assert!((g - 10.0).abs() < 1e-9);
    }
}
