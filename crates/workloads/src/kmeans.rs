//! K-Means clustering (paper Table IV).
//!
//! Points are thread-private (cacheable, local); the centroid table is
//! shared read-write (updated every iteration), hence uncacheable, and is
//! distributed round-robin across DIMMs. As any sane NMP implementation
//! would, each thread snapshots the centroids into a local scratch buffer
//! once per iteration (they are stable within an iteration) and scans the
//! local copy per point; the inter-DIMM traffic is the per-iteration
//! snapshot plus the atomic accumulator updates — point-to-point,
//! fine-grained and scattered, which is why the paper lists KM among the
//! broadcast-*unfriendly* IDC tasks.

use crate::layout::DataLayout;
use crate::trace::{Addr, Op, ThreadTrace, Workload};
use crate::WorkloadParams;
use dl_engine::DetRng;

/// Number of centroids.
const K: usize = 16;
/// Feature dimensions (8 × f64 = one 64-byte line per point/centroid).
const DIMS: u32 = 8;
/// Clustering iterations.
const ITERS: usize = 3;

/// Builds the K-Means workload. `scale` sets the *total* point count
/// (`2^(scale + 2)`), split evenly over the threads — so runs with
/// different thread counts (the NMP systems vs. the 16-core host) do the
/// same total work.
pub fn kmeans(params: &WorkloadParams) -> Workload {
    let threads = params.threads();
    let points_per_thread = ((1u64 << (params.scale + 2)) / threads as u64).max(16);
    let mut rng = DetRng::seed(params.seed).stream("kmeans");

    let home: Vec<usize> = (0..threads).map(|t| t / params.threads_per_dimm).collect();
    let mut layout = DataLayout::new(params.dimms);
    let points: Vec<_> = (0..threads)
        .map(|t| layout.alloc(home[t], points_per_thread * 64))
        .collect();
    // Centroids and their accumulators: centroid k lives on DIMM k % N.
    let centroids: Vec<_> = (0..K).map(|k| layout.alloc(k % params.dimms, 64)).collect();
    let accums: Vec<_> = (0..K).map(|k| layout.alloc(k % params.dimms, 64)).collect();
    // Per-thread local scratch holding this iteration's centroid snapshot.
    let scratch: Vec<_> = (0..threads)
        .map(|t| layout.alloc(home[t], (K * 64) as u64))
        .collect();

    // Pre-draw the per-point update probability stream so the trace is
    // deterministic and iteration-dependent reassignments taper off.
    let mut traces = vec![ThreadTrace::new(); threads];
    for iter in 0..ITERS {
        let reassign_p = match iter {
            0 => 1.0,
            1 => 0.3,
            _ => 0.1,
        };
        for (t, trace) in traces.iter_mut().enumerate() {
            // Snapshot the centroid table into the local scratch: K remote
            // uncacheable reads + local writes, once per iteration.
            for (k, c) in centroids.iter().enumerate() {
                trace.push(Op::Load {
                    addr: Addr::new(c.base()),
                    cacheable: false,
                });
                trace.push(Op::Store {
                    addr: Addr::new(scratch[t].line_of(k as u64, 64)),
                    cacheable: true,
                });
            }
            for p in 0..points_per_thread {
                // Load the point (thread-private, cacheable, local).
                trace.push(Op::Load {
                    addr: Addr::new(points[t].line_of(p, 64)),
                    cacheable: true,
                });
                // Scan the local snapshot.
                for k in 0..K {
                    trace.push(Op::Load {
                        addr: Addr::new(scratch[t].line_of(k as u64, 64)),
                        cacheable: true,
                    });
                    trace.comp(DIMS * 2);
                }
                // Cluster reassignment updates the thread's *local* partial
                // sums (pure compute); the shared accumulators are only
                // touched once per iteration below.
                if rng.chance(reassign_p) {
                    let _ = rng.below(K as u64);
                    trace.comp(DIMS * 2);
                }
            }
            // Per-thread partial sums folded into the global accumulators.
            for a in &accums {
                trace.push(Op::Atomic {
                    addr: Addr::new(a.base()),
                });
                trace.comp(DIMS);
            }
            trace.push(Op::Barrier);
        }
        // The first thread of each DIMM recomputes its resident centroids.
        for (t, trace) in traces.iter_mut().enumerate() {
            if t % params.threads_per_dimm == 0 {
                let d = home[t];
                for (k, c) in centroids.iter().enumerate() {
                    if k % params.dimms == d {
                        trace.push(Op::Load {
                            addr: Addr::new(accums[k].base()),
                            cacheable: false,
                        });
                        trace.comp(DIMS * 4);
                        trace.push(Op::Store {
                            addr: Addr::new(c.base()),
                            cacheable: false,
                        });
                    }
                }
            }
            trace.push(Op::Barrier);
        }
    }
    Workload::new("KM", traces, layout, home)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn centroid_snapshots_bound_remote_traffic() {
        let wl = kmeans(&WorkloadParams::small(4));
        // Snapshot + atomics only: remote ops are a small minority.
        let rf = wl.remote_fraction();
        assert!(rf > 0.001 && rf < 0.2, "rf = {rf}");
    }

    #[test]
    fn two_barriers_per_iteration() {
        let wl = kmeans(&WorkloadParams::small(2));
        for trace in wl.traces() {
            let n = trace
                .ops()
                .iter()
                .filter(|o| matches!(o, Op::Barrier))
                .count();
            assert_eq!(n, 2 * ITERS);
        }
    }

    #[test]
    fn uses_atomics_for_accumulation() {
        let wl = kmeans(&WorkloadParams::small(2));
        let atomics: usize = wl
            .traces()
            .iter()
            .flat_map(|t| t.ops())
            .filter(|o| matches!(o, Op::Atomic { .. }))
            .count();
        // K folds per thread per iteration.
        let threads = wl.traces().len();
        assert_eq!(atomics, threads * ITERS * K);
    }

    #[test]
    fn centroid_snapshot_touches_every_dimm() {
        let params = WorkloadParams::small(4);
        let wl = kmeans(&params);
        let layout = wl.layout();
        let mut dimms_touched = std::collections::BTreeSet::new();
        for op in wl.traces()[0].ops() {
            if let Op::Load {
                addr,
                cacheable: false,
            } = op
            {
                dimms_touched.insert(layout.dimm_of(addr.get()));
            }
        }
        assert_eq!(dimms_touched.len(), params.dimms);
    }
}
