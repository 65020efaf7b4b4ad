//! Steps 2–3 of Algorithm 1: optimal thread placement via min-cost max-flow.

use crate::mcmf::MinCostFlow;
use crate::profile::AccessProfile;
use std::fmt;

/// A thread → DIMM assignment with its distance-weighted cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    assignment: Vec<usize>,
    total_cost: u64,
}

impl Placement {
    /// `assignment()[i]` = DIMM hosting thread `i`.
    pub fn assignment(&self) -> &[usize] {
        &self.assignment
    }

    /// The minimized `Σ_i C[i][assignment(i)]`.
    pub fn total_cost(&self) -> u64 {
        self.total_cost
    }

    /// Threads assigned to `dimm`.
    pub fn threads_on(&self, dimm: usize) -> Vec<usize> {
        self.assignment
            .iter()
            .enumerate()
            .filter(|(_, &d)| d == dimm)
            .map(|(t, _)| t)
            .collect()
    }
}

/// Errors from placement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlacementError {
    /// More threads than total DIMM capacity (`T > N × L`).
    Infeasible {
        /// Threads requested.
        threads: usize,
        /// Total slots (`N × L`).
        capacity: usize,
    },
}

impl fmt::Display for PlacementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlacementError::Infeasible { threads, capacity } => {
                write!(f, "{threads} threads exceed total capacity {capacity}")
            }
        }
    }
}

impl std::error::Error for PlacementError {}

/// Runs Algorithm 1: builds the flow network (source → threads → DIMMs →
/// sink) and extracts the minimum-cost assignment.
///
/// `dist[j][k]` is the inter-DIMM distance (the paper profiles it as
/// pairwise latency; hop counts work identically), `max_per_dimm` is `L`.
///
/// # Errors
/// Returns [`PlacementError::Infeasible`] when `T > N × L`.
///
/// # Panics
/// Panics if `dist` is not `N × N` (see [`AccessProfile::cost_table`]).
pub fn place_threads(
    profile: &AccessProfile,
    dist: &[Vec<u64>],
    max_per_dimm: usize,
) -> Result<Placement, PlacementError> {
    let t = profile.threads();
    let n = profile.dimms();
    if t > n * max_per_dimm {
        return Err(PlacementError::Infeasible {
            threads: t,
            capacity: n * max_per_dimm,
        });
    }
    let cost = profile.cost_table(dist);

    // Nodes: 0 = source, 1..=t = threads, t+1..=t+n = DIMMs, t+n+1 = sink.
    let source = 0;
    let sink = t + n + 1;
    let mut g = MinCostFlow::new(t + n + 2);
    for i in 0..t {
        g.add_edge(source, 1 + i, 1, 0);
    }
    let mut thread_dimm_edges = vec![vec![0usize; n]; t];
    for (i, row) in cost.iter().enumerate() {
        for (j, &c) in row.iter().enumerate() {
            thread_dimm_edges[i][j] = g.add_edge(1 + i, 1 + t + j, 1, c as i64);
        }
    }
    for j in 0..n {
        g.add_edge(1 + t + j, sink, max_per_dimm as i64, 0);
    }

    let (flow, total_cost) = g.solve(source, sink);
    debug_assert_eq!(flow as usize, t, "feasible instance must saturate");

    let mut assignment = vec![usize::MAX; t];
    for (i, row) in thread_dimm_edges.iter().enumerate() {
        for (j, &eid) in row.iter().enumerate() {
            if g.flow_on(eid) > 0 {
                assignment[i] = j;
            }
        }
    }
    debug_assert!(assignment.iter().all(|&d| d != usize::MAX));
    Ok(Placement {
        assignment,
        total_cost: total_cost as u64,
    })
}

/// Exhaustive reference implementation (exponential; use only to validate
/// [`place_threads`] on tiny instances).
///
/// # Errors
/// Returns [`PlacementError::Infeasible`] when `T > N × L`.
pub fn place_threads_brute_force(
    profile: &AccessProfile,
    dist: &[Vec<u64>],
    max_per_dimm: usize,
) -> Result<Placement, PlacementError> {
    let t = profile.threads();
    let n = profile.dimms();
    if t > n * max_per_dimm {
        return Err(PlacementError::Infeasible {
            threads: t,
            capacity: n * max_per_dimm,
        });
    }
    let cost = profile.cost_table(dist);
    let mut best: Option<(u64, Vec<usize>)> = None;
    let mut assignment = vec![0usize; t];
    let mut load = vec![0usize; n];

    // Plain exhaustive search keeps the reference implementation obvious;
    // threading the state through a struct would only obscure it.
    #[allow(clippy::too_many_arguments)]
    fn recurse(
        i: usize,
        t: usize,
        n: usize,
        max_per_dimm: usize,
        cost: &[Vec<u64>],
        assignment: &mut Vec<usize>,
        load: &mut Vec<usize>,
        acc: u64,
        best: &mut Option<(u64, Vec<usize>)>,
    ) {
        if let Some((b, _)) = best {
            if acc >= *b {
                return; // prune
            }
        }
        if i == t {
            *best = Some((acc, assignment.clone()));
            return;
        }
        for j in 0..n {
            if load[j] < max_per_dimm {
                load[j] += 1;
                assignment[i] = j;
                recurse(
                    i + 1,
                    t,
                    n,
                    max_per_dimm,
                    cost,
                    assignment,
                    load,
                    acc + cost[i][j],
                    best,
                );
                load[j] -= 1;
            }
        }
    }

    recurse(
        0,
        t,
        n,
        max_per_dimm,
        &cost,
        &mut assignment,
        &mut load,
        0,
        &mut best,
    );
    let (total_cost, assignment) = best.expect("feasible instance has a solution");
    Ok(Placement {
        assignment,
        total_cost,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_dist(n: usize) -> Vec<Vec<u64>> {
        (0..n)
            .map(|j| (0..n).map(|k| j.abs_diff(k) as u64).collect())
            .collect()
    }

    #[test]
    fn affinity_wins_when_capacity_allows() {
        // Each thread hammers exactly one DIMM; optimal = identity-ish.
        let n = 4;
        let mut m = AccessProfile::new(4, n);
        for i in 0..4 {
            m.record(i, (i + 1) % n, 100);
        }
        let p = place_threads(&m, &chain_dist(n), 1).unwrap();
        for i in 0..4 {
            assert_eq!(p.assignment()[i], (i + 1) % n);
        }
        assert_eq!(p.total_cost(), 0);
    }

    #[test]
    fn capacity_forces_second_best() {
        // Both threads want DIMM 0, but it holds only one.
        let mut m = AccessProfile::new(2, 3);
        m.record(0, 0, 100);
        m.record(1, 0, 10);
        let p = place_threads(&m, &chain_dist(3), 1).unwrap();
        // The heavier thread gets DIMM 0, the lighter one sits adjacent.
        assert_eq!(p.assignment()[0], 0);
        assert_eq!(p.assignment()[1], 1);
        assert_eq!(p.total_cost(), 10);
    }

    #[test]
    fn matches_brute_force_on_small_instances() {
        use dl_engine::DetRng;
        for seed in 0..20u64 {
            let mut rng = DetRng::seed(seed);
            let t = 1 + (seed as usize % 5);
            let n = 2 + (seed as usize % 3);
            let l = 1 + (seed as usize % 2);
            if t > n * l {
                continue;
            }
            let mut m = AccessProfile::new(t, n);
            for i in 0..t {
                for j in 0..n {
                    m.record(i, j, rng.below(50));
                }
            }
            let dist = chain_dist(n);
            let fast = place_threads(&m, &dist, l).unwrap();
            let slow = place_threads_brute_force(&m, &dist, l).unwrap();
            assert_eq!(fast.total_cost(), slow.total_cost(), "seed {seed}");
        }
    }

    #[test]
    fn infeasible_detected() {
        let m = AccessProfile::new(5, 2);
        assert_eq!(
            place_threads(&m, &chain_dist(2), 2),
            Err(PlacementError::Infeasible {
                threads: 5,
                capacity: 4
            })
        );
    }

    #[test]
    fn threads_on_inverts_assignment() {
        let mut m = AccessProfile::new(4, 2);
        for i in 0..4 {
            m.record(i, i % 2, 10);
        }
        let p = place_threads(&m, &chain_dist(2), 2).unwrap();
        let mut all: Vec<usize> = (0..2).flat_map(|d| p.threads_on(d)).collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3]);
        for d in 0..2 {
            assert!(p.threads_on(d).len() <= 2);
        }
    }

    #[test]
    fn paper_scale_instance_is_fast() {
        // The paper: 64 threads on 16 DIMMs in ~2 ms. Verify we solve it.
        use dl_engine::DetRng;
        let mut rng = DetRng::seed(42);
        let mut m = AccessProfile::new(64, 16);
        for i in 0..64 {
            for j in 0..16 {
                m.record(i, j, rng.below(10_000));
            }
        }
        let p = place_threads(&m, &chain_dist(16), 4).unwrap();
        assert_eq!(p.assignment().len(), 64);
        for d in 0..16 {
            assert!(p.threads_on(d).len() <= 4, "DIMM {d} over capacity");
        }
    }
}
