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

    // The scan of a thread's snapshot is the same after every point: each
    // centroid's load and its distance. Each trace stores it once as a
    // block, with a twin whose last `Comp` carries a reassignment, and its
    // point loop is one sweep: each point's load, then one of the two.
    let mut traces: Vec<ThreadTrace> = Vec::with_capacity(threads);
    let mut scans = Vec::with_capacity(threads);
    for (t, s) in scratch.iter().enumerate() {
        let mut trace = ThreadTrace::with_capacity(steps_per_thread(params, t));
        let scan = |last_comp: u32| {
            let mut scan = ThreadTrace::with_capacity(2 * K);
            for k in 0..K {
                scan.push(Op::Load {
                    addr: Addr::new(s.line_of(k as u64, 64)),
                    cacheable: true,
                });
                scan.comp(if k + 1 < K { DIMS * 2 } else { last_comp });
            }
            scan
        };
        let plain = trace.add_block(scan(DIMS * 2));
        let reassigned = trace.add_block(scan(DIMS * 4));
        traces.push(trace);
        scans.push([plain, reassigned]);
    }
    // Pre-draw the per-point update probability stream so the trace is
    // deterministic and iteration-dependent reassignments taper off.
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
            // Load each point (thread-private, cacheable, local) and scan
            // the local snapshot. A cluster reassignment updates the
            // thread's *local* partial sums (pure compute); the shared
            // accumulators are only touched once per iteration below.
            let first = Op::Load {
                addr: Addr::new(points[t].base()),
                cacheable: true,
            };
            let reassigns = (0..points_per_thread).map(|_| {
                let reassign = rng.chance(reassign_p);
                if reassign {
                    let _ = rng.below(K as u64);
                }
                reassign
            });
            trace.sweep(first, 64, scans[t], reassigns);
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

/// The length of thread `t`'s trace. Per iteration: the snapshot (2K ops),
/// each point (its load and K load-compute pairs; a reassignment lengthens
/// the last `Comp`), the folds (2K) and two barriers, plus three ops per
/// resident centroid on the first thread of each DIMM.
#[cfg(test)]
fn ops_per_thread(params: &WorkloadParams, t: usize, points_per_thread: u64) -> usize {
    steps_per_thread(params, t) + ITERS * (points_per_thread as usize * (2 * K + 1) - 1)
}

/// The number of thread `t`'s own steps: [`ops_per_thread`] with each
/// iteration's point loop as one sweep.
fn steps_per_thread(params: &WorkloadParams, t: usize) -> usize {
    let resident = if t.is_multiple_of(params.threads_per_dimm) {
        let d = t / params.threads_per_dimm;
        (0..K).filter(|k| k % params.dimms == d).count()
    } else {
        0
    };
    ITERS * (4 * K + 3 + 3 * resident)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Step, Sweep};

    #[test]
    fn centroid_snapshots_bound_remote_traffic() {
        let wl = kmeans(&WorkloadParams::small(4));
        // Snapshot + atomics only: remote ops are a small minority.
        let rf = wl.remote_fraction();
        assert!(rf > 0.001 && rf < 0.2, "rf = {rf}");
    }

    #[test]
    fn traces_are_sized_exactly() {
        for params in [WorkloadParams::small(4), WorkloadParams::small(32)] {
            let wl = kmeans(&params);
            let points = ((1u64 << (params.scale + 2)) / params.threads() as u64).max(16);
            for (t, trace) in wl.traces().iter().enumerate() {
                assert_eq!(
                    trace.len(),
                    ops_per_thread(&params, t, points),
                    "thread {t}"
                );
            }
        }
    }

    #[test]
    fn each_point_is_its_load_and_one_call() {
        for params in [WorkloadParams::small(4), WorkloadParams::small(32)] {
            let wl = kmeans(&params);
            let points = ((1u64 << (params.scale + 2)) / params.threads() as u64).max(16);
            for (t, trace) in wl.traces().iter().enumerate() {
                let steps = trace.steps();
                assert_eq!(steps.len(), steps_per_thread(&params, t), "thread {t}");
                assert!(
                    !steps.iter().any(|s| matches!(s, Step::Call(_))),
                    "thread {t}"
                );
                let sweeps: Vec<Sweep> = steps
                    .iter()
                    .filter_map(|&s| match s {
                        Step::Sweep(s) => Some(s),
                        _ => None,
                    })
                    .collect();
                assert_eq!(sweeps.len(), ITERS, "thread {t}");
                for s in sweeps {
                    assert_eq!(
                        trace.sweep_shape(s),
                        (points as u32, 1 + 2 * K),
                        "thread {t}"
                    );
                    let its = trace.iterations(s, 0..points as u32);
                    let first = its.clone().next().and_then(|(a, _)| a.addr());
                    for (j, (access, _)) in its.enumerate() {
                        let point = Op::Load {
                            addr: Addr::new(first.expect("a load") + 64 * j as u64),
                            cacheable: true,
                        };
                        assert_eq!(access, point, "thread {t}, point {j}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_thread_holds_as_many_steps_at_any_point_count() {
        // Only the choice bits grow with the points: 64 per thread at
        // scale 6 on one thread per DIMM, 2^14 at scale 14.
        let steps = |scale| {
            let wl = kmeans(&WorkloadParams {
                scale,
                threads_per_dimm: 1,
                ..WorkloadParams::small(4)
            });
            wl.traces()
                .iter()
                .map(|t| t.steps().len())
                .collect::<Vec<_>>()
        };
        assert_eq!(steps(6), steps(14));
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
