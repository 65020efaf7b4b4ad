//! Seeded property tests of Algorithm 1's min-cost max-flow thread placement.
//!
//! Each test runs 64 cases; case `c` draws its instance from
//! `DetRng::seed(c)`, and every failure message names its case. To rerun
//! only a failing case, narrow the test's `for case in 0..CASES` loop to
//! that one seed.

use dl_engine::DetRng;
use dl_placement::{place_threads, place_threads_brute_force, AccessProfile, MinCostFlow};
use std::ops::Range;

const CASES: u64 = 64;

/// A value in `range`.
fn draw(rng: &mut DetRng, range: Range<usize>) -> usize {
    range.start + rng.below((range.end - range.start) as u64) as usize
}

/// `[threads, dimms, cap]` drawn from `ranges`, drawn again until the
/// threads fit (`threads <= dimms * cap`).
fn fitting_shape(rng: &mut DetRng, ranges: [Range<usize>; 3]) -> [usize; 3] {
    loop {
        let [t, d, c] = ranges.clone().map(|r| draw(rng, r));
        if t <= d * c {
            return [t, d, c];
        }
    }
}

/// Distance `|j - k|` between DIMMs on a chain.
fn chain_distances(dimms: usize) -> Vec<Vec<u64>> {
    (0..dimms)
        .map(|j| (0..dimms).map(|k| j.abs_diff(k) as u64).collect())
        .collect()
}

/// The flow solver matches an exhaustive search on small instances.
#[test]
fn placement_is_optimal() {
    for case in 0..CASES {
        let mut rng = DetRng::seed(case);
        let [threads, dimms, cap] = fitting_shape(&mut rng, [1..6, 2..5, 1..3]);
        let counts: Vec<u64> = (0..30).map(|_| rng.below(1000)).collect();
        let mut m = AccessProfile::new(threads, dimms);
        let mut it = counts.into_iter().cycle();
        for t in 0..threads {
            for d in 0..dimms {
                m.record(t, d, it.next().unwrap());
            }
        }
        let dist = chain_distances(dimms);
        let fast = place_threads(&m, &dist, cap).unwrap();
        let slow = place_threads_brute_force(&m, &dist, cap).unwrap();
        assert_eq!(fast.total_cost(), slow.total_cost(), "case {case}");
    }
}

/// Capacity constraints always hold and every thread is placed.
#[test]
fn placement_respects_capacity() {
    for case in 0..CASES {
        let mut rng = DetRng::seed(case);
        let [threads, dimms, cap] = fitting_shape(&mut rng, [1..20, 1..8, 1..5]);
        let mut m = AccessProfile::new(threads, dimms);
        for t in 0..threads {
            for d in 0..dimms {
                m.record(t, d, rng.below(10_000));
            }
        }
        let dist = chain_distances(dimms);
        let p = place_threads(&m, &dist, cap).unwrap();
        assert_eq!(p.assignment().len(), threads, "case {case}");
        for d in 0..dimms {
            assert!(
                p.threads_on(d).len() <= cap,
                "case {case}: DIMM {d} over capacity"
            );
        }
        // The reported cost matches the assignment.
        let c = m.cost_table(&dist);
        let manual: u64 = p
            .assignment()
            .iter()
            .enumerate()
            .map(|(t, &d)| c[t][d])
            .sum();
        assert_eq!(manual, p.total_cost(), "case {case}");
    }
}

/// Max-flow never exceeds cut capacities on random bipartite instances.
#[test]
fn mcmf_flow_conservation() {
    for case in 0..CASES {
        let mut rng = DetRng::seed(case);
        let caps: Vec<i64> = (0..draw(&mut rng, 2..6))
            .map(|_| 1 + rng.below(9) as i64)
            .collect();
        let costs: Vec<i64> = (0..draw(&mut rng, 2..6))
            .map(|_| rng.below(100) as i64)
            .collect();
        let n = caps.len().min(costs.len());
        // source(0) -> middle(1..=n) -> sink(n+1)
        let mut g = MinCostFlow::new(n + 2);
        let mut edges = Vec::new();
        for i in 0..n {
            g.add_edge(0, 1 + i, caps[i], 0);
            edges.push(g.add_edge(1 + i, n + 1, caps[i], costs[i]));
        }
        let (flow, cost) = g.solve(0, n + 1);
        let total_cap: i64 = caps[..n].iter().sum();
        assert_eq!(flow, total_cap, "case {case}");
        let manual: i64 = (0..n).map(|i| g.flow_on(edges[i]) * costs[i]).sum();
        assert_eq!(cost, manual, "case {case}");
    }
}
