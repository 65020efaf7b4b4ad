//! TS.Pow — the SynCron time-series task used by the paper's
//! synchronization sensitivity study (Fig. 14-b).
//!
//! Matrix-profile-style computation: each thread slides a window over its
//! segment of the series, computes a distance profile (compute-heavy), and
//! frequently updates a *global* minimum behind a lock — the fine-grained
//! synchronization that makes the task stress the IDC mechanism.

use crate::layout::DataLayout;
use crate::trace::{Addr, Op, ThreadTrace, Workload};
use crate::WorkloadParams;
use dl_engine::DetRng;

/// Data lines per window.
const WINDOW_LINES: u64 = 4;

/// Builds TS.Pow. `scale` sets the *total* window count (`2^(scale + 4)`),
/// split evenly over the threads so total work is thread-count-invariant.
pub fn ts_pow(params: &WorkloadParams) -> Workload {
    let threads = params.threads();
    let windows = ((1u64 << (params.scale + 4)) / threads as u64).max(16);
    let mut rng = DetRng::seed(params.seed).stream("tspow");

    let home: Vec<usize> = (0..threads).map(|t| t / params.threads_per_dimm).collect();
    let mut layout = DataLayout::new(params.dimms);
    let series: Vec<_> = (0..threads)
        .map(|t| layout.alloc(home[t], (windows + WINDOW_LINES) * 64))
        .collect();
    // The lock and global minimum live on DIMM 0 (the master).
    let lock = layout.alloc(0, 64);
    let global_min = layout.alloc(0, 64);

    let mut traces = vec![ThreadTrace::new(); threads];
    // Simulate the actual running minimum so update frequency decays the
    // way it does in the real algorithm (early windows update often).
    let mut current_min = f64::INFINITY;
    let mut per_thread_dist: Vec<Vec<f64>> = Vec::with_capacity(threads);
    for _ in 0..threads {
        per_thread_dist.push((0..windows).map(|_| rng.unit()).collect());
    }

    for (t, trace) in traces.iter_mut().enumerate() {
        for w in 0..windows {
            // Stream the window data (thread-private, cacheable).
            for l in 0..WINDOW_LINES {
                trace.push(Op::Load {
                    addr: Addr::new(series[t].line_of(w + l, 64)),
                    cacheable: true,
                });
            }
            trace.comp(WINDOW_LINES as u32 * 16);

            let d = per_thread_dist[t][w as usize];
            if d < current_min {
                current_min = d;
                // Lock, read-check-update, unlock: two atomics plus an
                // uncacheable read-modify-write of the shared minimum.
                trace.push(Op::Atomic {
                    addr: Addr::new(lock.base()),
                });
                trace.push(Op::Load {
                    addr: Addr::new(global_min.base()),
                    cacheable: false,
                });
                trace.comp(8);
                trace.push(Op::Store {
                    addr: Addr::new(global_min.base()),
                    cacheable: false,
                });
                trace.push(Op::Atomic {
                    addr: Addr::new(lock.base()),
                });
            }
        }
        trace.push(Op::Barrier);
    }
    Workload::new("TS.Pow", traces, layout, home)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_traffic_targets_master_dimm() {
        let params = WorkloadParams::small(4);
        let wl = ts_pow(&params);
        let layout = wl.layout();
        for trace in wl.traces() {
            for op in trace.ops() {
                if let Op::Atomic { addr } = op {
                    assert_eq!(layout.dimm_of(addr.get()), 0);
                }
            }
        }
    }

    #[test]
    fn updates_decay_over_time() {
        let wl = ts_pow(&WorkloadParams::small(2));
        // Thread 0 sees a fresh minimum often; later threads rarely beat it.
        let atomics = |t: usize| {
            wl.traces()[t]
                .ops()
                .iter()
                .filter(|o| matches!(o, Op::Atomic { .. }))
                .count()
        };
        assert!(atomics(0) > atomics(wl.traces().len() - 1));
        assert!(atomics(0) >= 2, "lock/unlock pairs expected");
    }

    #[test]
    fn one_final_barrier_per_thread() {
        let wl = ts_pow(&WorkloadParams::small(2));
        for trace in wl.traces() {
            let n = trace
                .ops()
                .iter()
                .filter(|o| matches!(o, Op::Barrier))
                .count();
            assert_eq!(n, 1);
        }
    }
}
