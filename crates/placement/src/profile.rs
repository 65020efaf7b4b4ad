//! The profiled traffic table `M[T][N]` (paper Figure 8, step ❶).
//!
//! During the profiling phase each DIMM counts, per resident thread, how
//! much traffic that thread sends to every DIMM. The host then aggregates
//! the counters into this table.

use serde::{Deserialize, Serialize};

/// Per-thread, per-DIMM access counts.
///
/// # Examples
///
/// ```
/// use dl_placement::AccessProfile;
///
/// let mut m = AccessProfile::new(2, 4);
/// m.record(0, 3, 10);
/// m.record(0, 3, 5);
/// assert_eq!(m.get(0, 3), 15);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccessProfile {
    threads: usize,
    dimms: usize,
    counts: Vec<u64>,
}

impl AccessProfile {
    /// Creates an all-zero table for `threads × dimms`.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn new(threads: usize, dimms: usize) -> Self {
        assert!(
            threads > 0 && dimms > 0,
            "profile dimensions must be non-zero"
        );
        AccessProfile {
            threads,
            dimms,
            counts: vec![0; threads * dimms],
        }
    }

    /// Number of threads (rows).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Number of DIMMs (columns).
    pub fn dimms(&self) -> usize {
        self.dimms
    }

    /// Adds `n` accesses from `thread` to `dimm`.
    ///
    /// # Panics
    /// Panics if an index is out of range.
    pub fn record(&mut self, thread: usize, dimm: usize, n: u64) {
        assert!(
            thread < self.threads && dimm < self.dimms,
            "index out of range"
        );
        self.counts[thread * self.dimms + dimm] += n;
    }

    /// The count `M[thread][dimm]`.
    pub fn get(&self, thread: usize, dimm: usize) -> u64 {
        self.counts[thread * self.dimms + dimm]
    }

    /// Total accesses recorded overall.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Adds every count of `other` into this table (exact integer sums, so
    /// merging per-partition tables in a fixed order reproduces the
    /// single-table result byte-for-byte).
    ///
    /// # Panics
    /// Panics if the dimensions differ.
    pub fn merge(&mut self, other: &AccessProfile) {
        assert!(
            self.threads == other.threads && self.dimms == other.dimms,
            "profile dimensions must match"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }

    /// Step 1 of Algorithm 1: the distance-weighted cost of placing each
    /// thread on each DIMM, `C[i][j] = Σ_k dist(j,k) · M[i][k]`.
    ///
    /// # Panics
    /// Panics if `dist` is not an `N × N` matrix.
    pub fn cost_table(&self, dist: &[Vec<u64>]) -> Vec<Vec<u64>> {
        assert_eq!(dist.len(), self.dimms, "distance matrix must be N x N");
        for row in dist {
            assert_eq!(row.len(), self.dimms, "distance matrix must be N x N");
        }
        let mut cost = vec![vec![0u64; self.dimms]; self.threads];
        for (i, cost_row) in cost.iter_mut().enumerate() {
            for (j, c) in cost_row.iter_mut().enumerate() {
                for (k, d) in dist[j].iter().enumerate() {
                    *c += d * self.get(i, k);
                }
            }
        }
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_totals() {
        let mut m = AccessProfile::new(3, 2);
        m.record(1, 0, 4);
        m.record(1, 1, 6);
        m.record(2, 1, 1);
        assert_eq!(m.get(1, 0), 4);
        assert_eq!(m.total(), 11);
    }

    #[test]
    fn cost_table_weights_by_distance() {
        let mut m = AccessProfile::new(1, 3);
        m.record(0, 0, 10);
        m.record(0, 2, 1);
        // Chain distances among 3 DIMMs.
        let dist = vec![vec![0, 1, 2], vec![1, 0, 1], vec![2, 1, 0]];
        let c = m.cost_table(&dist);
        // Placing on DIMM 0: 0*10 + 2*1 = 2; DIMM 1: 10 + 1; DIMM 2: 20.
        assert_eq!(c[0], vec![2, 11, 20]);
    }

    #[test]
    fn merge_sums_counts_elementwise() {
        let mut a = AccessProfile::new(2, 2);
        a.record(0, 0, 3);
        a.record(1, 1, 5);
        let mut b = AccessProfile::new(2, 2);
        b.record(0, 0, 7);
        b.record(1, 0, 2);
        a.merge(&b);
        assert_eq!(a.get(0, 0), 10);
        assert_eq!(a.get(1, 0), 2);
        assert_eq!(a.get(1, 1), 5);
        assert_eq!(a.total(), 17);
    }

    #[test]
    #[should_panic(expected = "dimensions must match")]
    fn merge_checks_dimensions() {
        let mut a = AccessProfile::new(2, 2);
        a.merge(&AccessProfile::new(2, 3));
    }

    #[test]
    #[should_panic(expected = "N x N")]
    fn cost_table_checks_matrix_shape() {
        let m = AccessProfile::new(1, 3);
        let _ = m.cost_table(&[vec![0, 1], vec![1, 0]]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn record_bounds_checked() {
        let mut m = AccessProfile::new(1, 1);
        m.record(0, 1, 1);
    }
}
