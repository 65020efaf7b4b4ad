//! # dl-workloads
//!
//! The benchmark workloads of the DIMM-Link evaluation (paper Table IV and
//! Sections V-C/V-D), implemented as *trace generators*: each workload runs
//! its real algorithm at build time and records, per thread, the sequence of
//! compute bursts, line-granular memory accesses, synchronization events and
//! broadcasts that the simulated NMP cores (or host cores) then replay.
//!
//! | Paper workload | Builder | Input |
//! |---|---|---|
//! | BFS (breadth-first search) | [`graph_apps::bfs`] | R-MAT graph |
//! | PR (PageRank) | [`graph_apps::pagerank`] | R-MAT graph |
//! | SSSP (single-source shortest path) | [`graph_apps::sssp`] | R-MAT graph |
//! | SpMV (sparse matrix-vector) | [`graph_apps::spmv`] | R-MAT matrix |
//! | HS (Hotspot stencil) | [`stencil::hotspot`] | 2-D grid |
//! | NW (Needleman-Wunsch) | [`stencil::needleman_wunsch`] | 2-D wavefront |
//! | KM (K-Means) | [`kmeans::kmeans`] | random points |
//! | TS.Pow (SynCron) | [`tspow::ts_pow`] | time series |
//! | sync-interval sweep (Fig. 14-a) | [`synth::sync_sweep`] | synthetic |
//! | bulk-copy microbench (Fig. 1 / Table I) | [`synth::bulk_copy`] | synthetic |
//!
//! The paper's LiveJournal input (69 M edges) is substituted by a
//! deterministic R-MAT generator with the same skewed-degree structure at a
//! configurable scale (see DESIGN.md, "Substitutions").
//!
//! # Examples
//!
//! ```
//! use dl_workloads::{WorkloadKind, WorkloadParams};
//!
//! let params = WorkloadParams::small(4); // 4 DIMMs, 4 threads each
//! let wl = WorkloadKind::Bfs.build(&params);
//! assert_eq!(wl.traces().len(), 16);
//! assert!(wl.total_ops() > 0);
//! ```

pub mod graph;
pub mod graph_apps;
pub mod kmeans;
pub mod layout;
pub mod stencil;
pub mod synth;
pub mod trace;
pub mod tspow;

pub use graph::CsrGraph;
pub use layout::{DataLayout, Region, BYTES_PER_DIMM};
pub use trace::{Addr, Block, Iterations, Op, Step, Sweep, ThreadTrace, Workload};

use serde::Serialize;

/// The largest [`WorkloadParams::scale`] any generator accepts: the last
/// before a generator's `1 << scale` overflows its 32-bit vertex ids.
pub const MAX_SCALE: u32 = 31;

/// Parameters shared by every workload builder.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct WorkloadParams {
    /// Number of DIMMs data is partitioned over.
    pub dimms: usize,
    /// Threads per DIMM (the paper runs 4).
    pub threads_per_dimm: usize,
    /// Problem scale knob; each workload documents its meaning (R-MAT
    /// scale = log2 vertices, grid side, points, ...).
    pub scale: u32,
    /// Seed for deterministic input generation.
    pub seed: u64,
    /// Use the explicit-broadcast formulation (Fig. 12) where supported.
    pub broadcast: bool,
    /// Community-locality of graph inputs (see
    /// [`graph::CsrGraph::rmat_with_locality`]); fraction of edges redrawn
    /// near their source.
    pub locality: f64,
}

impl WorkloadParams {
    /// A small, test-friendly configuration.
    pub fn small(dimms: usize) -> Self {
        WorkloadParams {
            dimms,
            threads_per_dimm: 4,
            scale: 10,
            seed: 42,
            broadcast: false,
            locality: 0.85,
        }
    }

    /// The evaluation-scale default (R-MAT 14 graphs, larger grids).
    pub fn evaluation(dimms: usize) -> Self {
        WorkloadParams {
            dimms,
            threads_per_dimm: 4,
            scale: 14,
            seed: 42,
            broadcast: false,
            locality: 0.85,
        }
    }

    /// Total thread count.
    pub fn threads(&self) -> usize {
        self.dimms * self.threads_per_dimm
    }
}

/// The workload taxonomy used throughout the benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    /// Breadth-first search.
    Bfs,
    /// Hotspot 2-D thermal stencil.
    Hotspot,
    /// K-Means clustering.
    KMeans,
    /// Needleman-Wunsch wavefront alignment.
    NeedlemanWunsch,
    /// PageRank.
    Pagerank,
    /// Single-source shortest path (Bellman-Ford rounds).
    Sssp,
    /// Sparse matrix × dense vector.
    Spmv,
    /// SynCron's TS.Pow matrix-profile task (synchronization-rich).
    TsPow,
}

impl WorkloadKind {
    /// The six point-to-point workloads of Fig. 10.
    pub const P2P_SET: [WorkloadKind; 6] = [
        WorkloadKind::Bfs,
        WorkloadKind::Hotspot,
        WorkloadKind::KMeans,
        WorkloadKind::NeedlemanWunsch,
        WorkloadKind::Pagerank,
        WorkloadKind::Sssp,
    ];

    /// The three broadcast workloads of Fig. 12.
    pub const BROADCAST_SET: [WorkloadKind; 3] = [
        WorkloadKind::Pagerank,
        WorkloadKind::Sssp,
        WorkloadKind::Spmv,
    ];

    /// Short name as used in the paper's figures.
    pub fn short_name(self) -> &'static str {
        match self {
            WorkloadKind::Bfs => "BFS",
            WorkloadKind::Hotspot => "HS",
            WorkloadKind::KMeans => "KM",
            WorkloadKind::NeedlemanWunsch => "NW",
            WorkloadKind::Pagerank => "PR",
            WorkloadKind::Sssp => "SSSP",
            WorkloadKind::Spmv => "SPMV",
            WorkloadKind::TsPow => "TS.Pow",
        }
    }

    /// Builds the workload's thread traces.
    pub fn build(self, params: &WorkloadParams) -> Workload {
        match self {
            WorkloadKind::Bfs => graph_apps::bfs(params),
            WorkloadKind::Hotspot => stencil::hotspot(params),
            WorkloadKind::KMeans => kmeans::kmeans(params),
            WorkloadKind::NeedlemanWunsch => stencil::needleman_wunsch(params),
            WorkloadKind::Pagerank => graph_apps::pagerank(params),
            WorkloadKind::Sssp => graph_apps::sssp(params),
            WorkloadKind::Spmv => graph_apps::spmv(params),
            WorkloadKind::TsPow => tspow::ts_pow(params),
        }
    }
}

impl std::fmt::Display for WorkloadKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.short_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dl_engine::Fnv1a;

    const ALL: [WorkloadKind; 8] = [
        WorkloadKind::Bfs,
        WorkloadKind::Hotspot,
        WorkloadKind::KMeans,
        WorkloadKind::NeedlemanWunsch,
        WorkloadKind::Pagerank,
        WorkloadKind::Sssp,
        WorkloadKind::Spmv,
        WorkloadKind::TsPow,
    ];

    #[test]
    fn every_workload_builds_nonempty_traces() {
        let params = WorkloadParams::small(4);
        for kind in ALL {
            let wl = kind.build(&params);
            assert_eq!(wl.traces().len(), params.threads(), "{kind}");
            assert!(wl.total_ops() > 100, "{kind} produced a trivial trace");
            // Every trace touches memory.
            for (t, trace) in wl.traces().iter().enumerate() {
                assert!(
                    trace.ops().iter().any(|op| matches!(
                        op,
                        Op::Load { .. } | Op::Store { .. } | Op::Atomic { .. }
                    )),
                    "{kind} thread {t} never touches memory"
                );
            }
        }
    }

    #[test]
    fn builds_are_deterministic() {
        let params = WorkloadParams::small(2);
        let a = WorkloadKind::Pagerank.build(&params);
        let b = WorkloadKind::Pagerank.build(&params);
        assert_eq!(a.total_ops(), b.total_ops());
        assert_eq!(a.traces()[0].ops()[..50], b.traces()[0].ops()[..50]);
    }

    #[test]
    fn broadcast_variants_emit_broadcast_ops() {
        let mut params = WorkloadParams::small(4);
        params.broadcast = true;
        for kind in WorkloadKind::BROADCAST_SET {
            let wl = kind.build(&params);
            let has_bc = wl
                .traces()
                .iter()
                .any(|t| t.ops().iter().any(|op| matches!(op, Op::Broadcast { .. })));
            assert!(has_bc, "{kind} broadcast variant has no Broadcast ops");
        }
    }

    #[test]
    fn barriers_are_balanced_across_threads() {
        // Every thread must pass the same number of barriers or the
        // simulation deadlocks.
        let params = WorkloadParams::small(4);
        for kind in WorkloadKind::P2P_SET {
            let wl = kind.build(&params);
            let counts: Vec<usize> = wl
                .traces()
                .iter()
                .map(|t| {
                    t.ops()
                        .iter()
                        .filter(|op| matches!(op, Op::Barrier))
                        .count()
                })
                .collect();
            assert!(
                counts.windows(2).all(|w| w[0] == w[1]),
                "{kind}: unbalanced barrier counts {counts:?}"
            );
        }
    }

    #[test]
    fn each_iteration_is_one_call() {
        // PR (and PR-BC) and HS store a thread's sweep once: its steps are
        // one call of that block per iteration, each followed by a barrier,
        // after the replica refresh in the broadcast variant.
        for (kind, broadcast, iters) in [
            (WorkloadKind::Pagerank, false, graph_apps::PR_ITERS),
            (WorkloadKind::Pagerank, true, graph_apps::PR_ITERS),
            (WorkloadKind::Hotspot, false, stencil::HS_ITERS),
        ] {
            for dimms in [4, 32] {
                let params = WorkloadParams {
                    broadcast,
                    ..WorkloadParams::small(dimms)
                };
                let wl = kind.build(&params);
                for (t, trace) in wl.traces().iter().enumerate() {
                    let case = format!("{} on {dimms} DIMMs, thread {t}", wl.name());
                    let steps = trace.steps();
                    let calls: Vec<usize> = (0..steps.len())
                        .filter(|&pc| matches!(steps[pc], Step::Call(_)))
                        .collect();
                    assert_eq!(calls.len(), iters, "{case}");
                    for &pc in &calls {
                        assert_eq!(steps[pc], steps[calls[0]], "{case}: one block");
                        assert_eq!(steps.get(pc + 1), Some(&Step::Op(Op::Barrier)), "{case}");
                    }
                    if broadcast {
                        let refreshed = calls
                            .iter()
                            .all(|&pc| steps[pc - 1] == Step::Op(Op::Barrier));
                        assert!(refreshed, "{case}");
                    } else {
                        assert_eq!(steps.len(), 2 * iters, "{case}");
                    }
                }
            }
        }
    }

    /// An op in the wide layout traces had before packing: variant, full
    /// `u64` address (through [`Op::addr`]) and the remaining field.
    fn widen(op: Op) -> (u8, u64, u64) {
        let addr = op.addr().unwrap_or(0);
        match op {
            Op::Comp(cycles) => (0, 0, u64::from(cycles)),
            Op::Load { cacheable, .. } => (1, addr, u64::from(cacheable)),
            Op::Store { cacheable, .. } => (2, addr, u64::from(cacheable)),
            Op::Atomic { .. } => (3, addr, 0),
            Op::Broadcast { bytes, .. } => (4, addr, u64::from(bytes)),
            Op::Barrier => (5, 0, 0),
        }
    }

    /// Folds every widened op of `wl` into `hash`.
    fn hash_widened(hash: &mut Fnv1a, wl: &Workload) {
        for trace in wl.traces() {
            for &op in trace.ops() {
                let wide = widen(op);
                for word in [u64::from(wide.0), wide.1, wide.2] {
                    hash.write_u64(word);
                }
            }
        }
    }

    #[test]
    fn packed_traces_equal_their_wide_encoding() {
        // FNV-1a over every widened op of every generator at scale 8 (the
        // broadcast variants too), recorded with the 16-byte `u64`-address
        // `Op` the packed one replaced: packing changed no op.
        const WIDE_HASH: u64 = 0xfb47_42c7_b5f8_a9ad;
        let mut hash = Fnv1a::new();
        for kind in ALL {
            for broadcast in [false, true] {
                if broadcast && !WorkloadKind::BROADCAST_SET.contains(&kind) {
                    continue;
                }
                let params = WorkloadParams {
                    scale: 8,
                    broadcast,
                    ..WorkloadParams::small(4)
                };
                hash_widened(&mut hash, &kind.build(&params));
            }
        }
        let hash = hash.finish();
        assert_eq!(hash, WIDE_HASH, "got {hash:#018x}");
    }

    #[test]
    fn generated_ops_are_pinned() {
        // FNV-1a over every widened op of each generator (and each
        // broadcast variant) at scale 10 on 4 DIMMs, for seeds 42 and 7.
        // The values pin the input generators end to end: the RNG stream,
        // the R-MAT levels and every trace builder. Only a deliberate
        // re-baseline may move them.
        use WorkloadKind::*;
        #[rustfmt::skip]
        const PINS: [(WorkloadKind, bool, [u64; 2]); 11] = [
            (Bfs, false, [0xc33d_e850_968f_e76e, 0xe559_9d0d_5baa_6e56]),
            (Hotspot, false, [0x0835_25d2_a8a8_9c25, 0x0835_25d2_a8a8_9c25]),
            (KMeans, false, [0x43f2_d635_da63_9885, 0x4caf_0d32_4233_8f75]),
            (NeedlemanWunsch, false, [0xc335_f756_c40b_18a5, 0xc335_f756_c40b_18a5]),
            (Pagerank, false, [0xfd78_e549_57b3_3396, 0x830b_4e5c_7dfc_82d7]),
            (Sssp, false, [0x9887_492e_9ad4_84da, 0x690f_1dcd_d7c8_fa59]),
            (Spmv, false, [0xa87b_1299_3218_729f, 0xbdc2_ff87_0d36_a53f]),
            (TsPow, false, [0x2ef5_5144_42dc_2659, 0x4d05_a8b4_035b_e35e]),
            (Pagerank, true, [0x2d1c_8913_389b_54e6, 0x8c49_f77e_a8cf_6e2c]),
            (Sssp, true, [0x4c6c_3d09_f456_583c, 0x3052_c555_3793_f982]),
            (Spmv, true, [0x3c9e_c4fc_2785_fee6, 0x6f5b_ee1e_1e5e_f240]),
        ];
        for (kind, broadcast, want) in PINS {
            let got = [42, 7].map(|seed| {
                let params = WorkloadParams {
                    seed,
                    broadcast,
                    ..WorkloadParams::small(4)
                };
                let mut hash = Fnv1a::new();
                hash_widened(&mut hash, &kind.build(&params));
                hash.finish()
            });
            assert_eq!(got, want, "{kind} broadcast={broadcast}: got {got:#018x?}");
        }
    }
}
