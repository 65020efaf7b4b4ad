//! Synthetic microbenchmarks backing Fig. 1, Table I, and Fig. 14-a.

use crate::layout::DataLayout;
use crate::trace::{Addr, Op, ThreadTrace, Workload};
use crate::WorkloadParams;
use dl_engine::DetRng;

/// The synchronization-interval sweep of Fig. 14-a: every thread repeats
/// `Comp(interval) → one local access → Barrier` for `rounds` rounds, so the
/// barrier cost dominates as `interval` shrinks.
pub fn sync_sweep(params: &WorkloadParams, interval_cycles: u32, rounds: usize) -> Workload {
    let threads = params.threads();
    let home: Vec<usize> = (0..threads).map(|t| t / params.threads_per_dimm).collect();
    let mut layout = DataLayout::new(params.dimms);
    let scratch: Vec<_> = (0..threads)
        .map(|t| layout.alloc(home[t], 64 * rounds as u64))
        .collect();

    let mut traces = vec![ThreadTrace::new(); threads];
    for (t, trace) in traces.iter_mut().enumerate() {
        for r in 0..rounds {
            trace.comp(interval_cycles);
            trace.push(Op::Load {
                addr: Addr::new(scratch[t].line_of(r as u64, 64)),
                cacheable: true,
            });
            trace.push(Op::Barrier);
        }
    }
    Workload::new(format!("SYNC-{interval_cycles}"), traces, layout, home)
}

/// Bulk point-to-point copy (Fig. 1 / Table I): one thread per DIMM pair
/// streams `bytes` from the next DIMM into its own memory, line by line.
///
/// With `pairs = dimms / 2` disjoint (source, destination) pairs, the
/// aggregate measured bandwidth exposes each IDC mechanism's scaling:
/// CPU-forwarding serializes on the shared channels, a dedicated bus
/// serializes on the bus, DIMM-Link streams over disjoint links.
pub fn bulk_copy(params: &WorkloadParams, bytes: u64) -> Workload {
    assert!(params.dimms >= 2, "bulk copy needs at least two DIMMs");
    let threads = params.threads();
    let home: Vec<usize> = (0..threads).map(|t| t / params.threads_per_dimm).collect();
    let mut layout = DataLayout::new(params.dimms);
    let buffers: Vec<_> = (0..params.dimms)
        .map(|d| layout.alloc(d, bytes.max(64)))
        .collect();

    let lines = bytes.div_ceil(64);
    let mut traces = vec![ThreadTrace::new(); threads];
    // One active thread per even DIMM: DIMM d pulls from DIMM d+1.
    for d in (0..params.dimms - 1).step_by(2) {
        let t = d * params.threads_per_dimm; // first thread of the DIMM
        let trace = &mut traces[t];
        for l in 0..lines {
            trace.push(Op::Load {
                addr: Addr::new(buffers[d + 1].line_of(l, 64)),
                cacheable: false,
            });
            trace.push(Op::Store {
                addr: Addr::new(buffers[d].line_of(l, 64)),
                cacheable: false,
            });
        }
    }
    for trace in &mut traces {
        trace.push(Op::Barrier);
    }
    Workload::new(format!("COPY-{bytes}B"), traces, layout, home)
}

/// Uniform random access microbench: each thread issues `ops_per_thread`
/// uncacheable loads, a `remote_prob` fraction of them to a uniformly random
/// other DIMM. Used by unit/integration tests and the Table I measurement.
pub fn uniform_random(
    params: &WorkloadParams,
    ops_per_thread: usize,
    remote_prob: f64,
) -> Workload {
    let threads = params.threads();
    let home: Vec<usize> = (0..threads).map(|t| t / params.threads_per_dimm).collect();
    let mut layout = DataLayout::new(params.dimms);
    let buf_lines = 4096u64;
    let buffers: Vec<_> = (0..params.dimms)
        .map(|d| layout.alloc(d, buf_lines * 64))
        .collect();

    let mut rng = DetRng::seed(params.seed).stream("uniform");
    let mut traces = vec![ThreadTrace::new(); threads];
    for (t, trace) in traces.iter_mut().enumerate() {
        for _ in 0..ops_per_thread {
            let target = if params.dimms > 1 && rng.chance(remote_prob) {
                let mut d = rng.below(params.dimms as u64) as usize;
                if d == home[t] {
                    d = (d + 1) % params.dimms;
                }
                d
            } else {
                home[t]
            };
            let line = rng.below(buf_lines);
            trace.push(Op::Load {
                addr: Addr::new(buffers[target].line_of(line, 64)),
                cacheable: false,
            });
            trace.comp(2);
        }
        trace.push(Op::Barrier);
    }
    Workload::new("UNIFORM", traces, layout, home)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sync_sweep_shape() {
        let wl = sync_sweep(&WorkloadParams::small(2), 500, 10);
        for trace in wl.traces() {
            let barriers = trace
                .ops()
                .iter()
                .filter(|o| matches!(o, Op::Barrier))
                .count();
            assert_eq!(barriers, 10);
            let comp: u64 = trace
                .ops()
                .iter()
                .map(|o| if let Op::Comp(c) = o { *c as u64 } else { 0 })
                .sum();
            assert_eq!(comp, 5000);
        }
    }

    #[test]
    fn bulk_copy_pairs_disjoint_dimms() {
        let params = WorkloadParams::small(4);
        let wl = bulk_copy(&params, 64 * 100);
        let layout = wl.layout();
        // Active threads: 0 (DIMM0 <- DIMM1) and 8 (DIMM2 <- DIMM3).
        let active: Vec<usize> = wl
            .traces()
            .iter()
            .enumerate()
            .filter(|(_, t)| t.len() > 1)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(active, vec![0, 2 * params.threads_per_dimm]);
        for &t in &active {
            let h = wl.home_dimm()[t];
            for op in wl.traces()[t].ops() {
                if let Op::Load { addr, .. } = op {
                    assert_eq!(
                        layout.dimm_of(addr.get()),
                        h + 1,
                        "loads pull from the next DIMM"
                    );
                }
            }
        }
    }

    #[test]
    fn uniform_random_controls_remote_fraction() {
        let p = WorkloadParams::small(4);
        let local = uniform_random(&p, 500, 0.0);
        let heavy = uniform_random(&p, 500, 1.0);
        assert_eq!(local.remote_fraction(), 0.0);
        assert_eq!(heavy.remote_fraction(), 1.0);
        let half = uniform_random(&p, 2000, 0.5);
        assert!((half.remote_fraction() - 0.5).abs() < 0.05);
    }
}
