//! Graph-analytics trace generators: BFS, PageRank, SSSP, SpMV.
//!
//! All four run their real algorithm on an R-MAT input (the LiveJournal
//! substitute) while recording per-thread traces. Common structure:
//!
//! * Vertices are split into `T` contiguous, edge-balanced blocks; block `t`
//!   belongs to thread `t` and its CSR slice plus vertex state live on the
//!   thread's home DIMM (`t / threads_per_dimm`).
//! * CSR topology (offsets/targets/weights) is read-only → cacheable.
//! * Vertex state written during the run (dist/rank/acc) is shared
//!   read-write → uncacheable, per the paper's software-assisted coherence.
//! * The broadcast variants (Fig. 12) replicate the remotely-read vector on
//!   every DIMM and refresh the replicas with explicit `Broadcast` ops each
//!   iteration, mirroring the ABC-DIMM formulation.

use crate::graph::CsrGraph;
use crate::layout::{DataLayout, Region};
use crate::trace::{Addr, Op, ThreadTrace, Workload};
use crate::WorkloadParams;
use dl_engine::DetRng;

/// Bytes per vertex-state element.
const ELEM: u64 = 8;
/// Graph targets are u32.
const TGT: u64 = 4;
/// PageRank iterations.
pub(crate) const PR_ITERS: usize = 3;

/// Per-thread graph partition context shared by the four kernels.
struct GraphCtx {
    graph: CsrGraph,
    /// Block start vertex per thread (len = threads + 1).
    block: Vec<u32>,
    /// owner[v] = thread owning vertex v.
    owner: Vec<u16>,
    layout: DataLayout,
    /// Per-thread region holding its vertices' 8-byte state.
    state: Vec<Region>,
    /// Per-thread region holding its CSR slice's target array.
    targets: Vec<Region>,
    /// Per-thread region holding its CSR slice's offsets array.
    offsets: Vec<Region>,
    /// Per-DIMM full-vector replica (broadcast variants).
    replica: Vec<Region>,
    home: Vec<usize>,
    threads: usize,
    /// Whether neighbour state is read from a refreshed local replica (the
    /// broadcast variants).
    broadcast: bool,
}

impl GraphCtx {
    fn new(params: &WorkloadParams, edge_factor: u32) -> Self {
        let threads = params.threads();
        let mut rng = DetRng::seed(params.seed).stream("graph");
        let graph =
            CsrGraph::rmat_with_locality(params.scale, edge_factor, params.locality, &mut rng);
        let n = graph.vertices();

        // Edge-balanced contiguous blocks.
        let total_edges = graph.edges();
        let per_thread = total_edges.div_ceil(threads as u64).max(1);
        let mut block = Vec::with_capacity(threads + 1);
        block.push(0u32);
        let mut acc = 0u64;
        let mut t = 0usize;
        for v in 0..n {
            acc += graph.degree(v);
            if acc >= per_thread * (t as u64 + 1) && t + 1 < threads {
                block.push(v + 1);
                t += 1;
            }
        }
        while block.len() < threads + 1 {
            block.push(n);
        }
        *block.last_mut().expect("non-empty") = n;

        let mut owner = vec![0u16; n as usize];
        for t in 0..threads {
            for v in block[t]..block[t + 1] {
                owner[v as usize] = t as u16;
            }
        }

        let home: Vec<usize> = (0..threads).map(|t| t / params.threads_per_dimm).collect();
        let mut layout = DataLayout::new(params.dimms);
        let mut state = Vec::with_capacity(threads);
        let mut targets = Vec::with_capacity(threads);
        let mut offsets = Vec::with_capacity(threads);
        for t in 0..threads {
            let verts = (block[t + 1] - block[t]) as u64;
            let edges = graph.row_start(block[t + 1]) - graph.row_start(block[t]);
            state.push(layout.alloc(home[t], (verts * ELEM).max(64)));
            targets.push(layout.alloc(home[t], (edges * TGT).max(64)));
            offsets.push(layout.alloc(home[t], ((verts + 1) * ELEM).max(64)));
        }
        let replica: Vec<Region> = (0..params.dimms)
            .map(|d| layout.alloc(d, (n as u64 * ELEM).max(64)))
            .collect();

        GraphCtx {
            graph,
            block,
            owner,
            layout,
            state,
            targets,
            offsets,
            replica,
            home,
            threads,
            broadcast: params.broadcast,
        }
    }

    #[inline]
    fn owner_of(&self, v: u32) -> usize {
        self.owner[v as usize] as usize
    }

    /// Line address of vertex `v`'s state element.
    #[inline]
    fn state_line(&self, v: u32) -> u64 {
        let t = self.owner_of(v);
        self.state[t].line_of((v - self.block[t]) as u64, ELEM)
    }

    /// Line address of `v`'s state in DIMM `d`'s replica.
    #[inline]
    fn replica_line(&self, d: usize, v: u32) -> u64 {
        self.replica[d].line_of(v as u64, ELEM)
    }

    /// Emits the CSR-walk loads for vertex `v` into `trace`: one offsets
    /// line plus the target-array lines covering its edges (all local,
    /// cacheable).
    fn emit_row_loads(&self, trace: &mut ThreadTrace, v: u32) {
        let t = self.owner_of(v);
        let local_v = (v - self.block[t]) as u64;
        trace.push(Op::Load {
            addr: Addr::new(self.offsets[t].line_of(local_v, ELEM)),
            cacheable: true,
        });
        let deg = self.graph.degree(v);
        if deg == 0 {
            return;
        }
        let first = self.graph.row_start(v) - self.graph.row_start(self.block[t]);
        let first_line = first * TGT / 64;
        let last_line = (first + deg - 1) * TGT / 64;
        for line in first_line..=last_line {
            trace.push(Op::Load {
                addr: Addr::new(self.targets[t].base() + line * 64),
                cacheable: true,
            });
        }
    }

    /// In the broadcast variants, thread `t`'s part in refreshing every
    /// DIMM's replica of the state vector: it broadcasts its partition in
    /// max-payload chunks, then waits at a barrier. Emits nothing otherwise.
    fn refresh_replicas(&self, trace: &mut ThreadTrace, t: usize) {
        if !self.broadcast {
            return;
        }
        let bytes = self.state[t].bytes();
        let mut off = 0u64;
        while off < bytes {
            let chunk = u16::try_from((bytes - off).min(256)).expect("chunks are at most 256 B");
            trace.push(Op::Broadcast {
                addr: Addr::new(self.state[t].base() + off),
                bytes: chunk,
            });
            off += u64::from(chunk);
        }
        trace.push(Op::Barrier);
    }

    /// The load of neighbour `u`'s state by a thread on DIMM `home`: from
    /// `home`'s replica in the broadcast variants (cacheable; see
    /// [`Self::refresh_replicas`]), otherwise from `u`'s state line, which
    /// is `cacheable` only while no thread writes it.
    fn neighbor_load(&self, home: usize, u: u32, cacheable: bool) -> Op {
        let (line, cacheable) = if self.broadcast {
            (self.replica_line(home, u), true)
        } else {
            (self.state_line(u), cacheable)
        };
        Op::Load {
            addr: Addr::new(line),
            cacheable,
        }
    }

    fn into_workload(self, name: &str, traces: Vec<ThreadTrace>) -> Workload {
        Workload::new(name, traces, self.layout, self.home)
    }
}

/// Breadth-first search (level-synchronous, from the max-degree vertex).
///
/// `scale` = log2(vertices); edge factor 8.
pub fn bfs(params: &WorkloadParams) -> Workload {
    let ctx = GraphCtx::new(params, 8);
    let n = ctx.graph.vertices() as usize;
    let root = ctx.graph.max_degree_vertex();
    let mut traces = vec![ThreadTrace::new(); ctx.threads];

    let mut dist = vec![u32::MAX; n];
    dist[root as usize] = 0;
    let mut frontier = vec![root];
    while !frontier.is_empty() {
        let mut next = Vec::new();
        for &v in &frontier {
            let t = ctx.owner_of(v);
            let trace = &mut traces[t];
            trace.comp(4);
            ctx.emit_row_loads(trace, v);
            for (u, _) in ctx.graph.neighbors(v) {
                trace.comp(2);
                // dist[] is shared read-write: uncacheable, possibly remote.
                trace.push(Op::Load {
                    addr: Addr::new(ctx.state_line(u)),
                    cacheable: false,
                });
                if dist[u as usize] == u32::MAX {
                    dist[u as usize] = dist[v as usize] + 1;
                    trace.push(Op::Store {
                        addr: Addr::new(ctx.state_line(u)),
                        cacheable: false,
                    });
                    next.push(u);
                }
            }
        }
        for trace in &mut traces {
            trace.push(Op::Barrier);
        }
        frontier = next;
    }
    ctx.into_workload("BFS", traces)
}

/// PageRank: three pull-style iterations over the reversed graph; each
/// edge reads the source vertex's rank (remote when cross-partition).
///
/// An iteration's sweep over a thread's vertices is the same every time, so
/// each trace stores it once as a block and calls it per iteration.
pub fn pagerank(params: &WorkloadParams) -> Workload {
    let ctx = GraphCtx::new(params, 8);
    let traces = (0..ctx.threads)
        .map(|t| {
            let home = ctx.home[t];
            let mut sweep = ThreadTrace::new();
            for v in ctx.block[t]..ctx.block[t + 1] {
                sweep.comp(4);
                ctx.emit_row_loads(&mut sweep, v);
                for (u, _) in ctx.graph.neighbors(v) {
                    sweep.comp(2);
                    sweep.push(ctx.neighbor_load(home, u, false));
                }
                sweep.comp(6);
                sweep.push(Op::Store {
                    addr: Addr::new(ctx.state_line(v)),
                    cacheable: false,
                });
            }
            let mut trace = ThreadTrace::new();
            let sweep = trace.add_block(sweep);
            for _iter in 0..PR_ITERS {
                ctx.refresh_replicas(&mut trace, t);
                trace.call(sweep);
                trace.push(Op::Barrier);
            }
            trace
        })
        .collect();
    let name = if params.broadcast { "PR-BC" } else { "PR" };
    ctx.into_workload(name, traces)
}

/// Single-source shortest path: Bellman-Ford rounds until no distance
/// changes (bounded), relaxing every owned edge per round.
pub fn sssp(params: &WorkloadParams) -> Workload {
    const MAX_ROUNDS: usize = 4;
    let ctx = GraphCtx::new(params, 8);
    let n = ctx.graph.vertices() as usize;
    let root = ctx.graph.max_degree_vertex();
    let mut traces = vec![ThreadTrace::new(); ctx.threads];

    let mut dist = vec![u64::MAX; n];
    dist[root as usize] = 0;
    for _round in 0..MAX_ROUNDS {
        let mut changed = false;
        let snapshot = dist.clone();
        for (t, trace) in traces.iter_mut().enumerate() {
            ctx.refresh_replicas(trace, t);
            let home = ctx.home[t];
            for v in ctx.block[t]..ctx.block[t + 1] {
                trace.comp(2);
                if snapshot[v as usize] == u64::MAX {
                    // Cheap local check of own distance.
                    trace.push(Op::Load {
                        addr: Addr::new(ctx.state_line(v)),
                        cacheable: false,
                    });
                    continue;
                }
                ctx.emit_row_loads(trace, v);
                for (u, w) in ctx.graph.neighbors(v) {
                    trace.comp(2);
                    trace.push(ctx.neighbor_load(home, u, false));
                    let cand = snapshot[v as usize] + w as u64;
                    if cand < dist[u as usize] {
                        dist[u as usize] = cand;
                        changed = true;
                        trace.push(Op::Store {
                            addr: Addr::new(ctx.state_line(u)),
                            cacheable: false,
                        });
                    }
                }
            }
        }
        for trace in &mut traces {
            trace.push(Op::Barrier);
        }
        if !changed {
            break;
        }
    }
    let name = if params.broadcast { "SSSP-BC" } else { "SSSP" };
    ctx.into_workload(name, traces)
}

/// Sparse matrix × dense vector (one pass). The vector `x` is read-only
/// during the pass (cacheable); the broadcast variant replicates it first.
pub fn spmv(params: &WorkloadParams) -> Workload {
    let ctx = GraphCtx::new(params, 8);
    let mut traces = vec![ThreadTrace::new(); ctx.threads];

    for (t, trace) in traces.iter_mut().enumerate() {
        ctx.refresh_replicas(trace, t);
        let home = ctx.home[t];
        for v in ctx.block[t]..ctx.block[t + 1] {
            trace.comp(2);
            ctx.emit_row_loads(trace, v);
            for (u, _) in ctx.graph.neighbors(v) {
                trace.comp(2);
                // x is read-only: cacheable even when remote.
                trace.push(ctx.neighbor_load(home, u, true));
            }
            trace.comp(4);
            trace.push(Op::Store {
                addr: Addr::new(ctx.state_line(v)),
                cacheable: false,
            });
        }
    }
    for trace in &mut traces {
        trace.push(Op::Barrier);
    }
    let name = if params.broadcast { "SPMV-BC" } else { "SPMV" };
    ctx.into_workload(name, traces)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> WorkloadParams {
        WorkloadParams::small(4)
    }

    #[test]
    fn bfs_visits_most_of_the_graph() {
        let wl = bfs(&params());
        // BFS on a connected-ish R-MAT component generates edge work.
        assert!(wl.total_mem_ops() > 1_000);
        // dist accesses cross partitions.
        assert!(wl.remote_fraction() > 0.1, "rf = {}", wl.remote_fraction());
    }

    #[test]
    fn pagerank_has_three_iterations_of_barriers() {
        let wl = pagerank(&params());
        let barriers = wl.traces()[0]
            .ops()
            .iter()
            .filter(|o| matches!(o, Op::Barrier))
            .count();
        assert_eq!(barriers, 3);
    }

    #[test]
    fn broadcast_pr_replaces_remote_loads_with_local() {
        let mut p = params();
        let base = pagerank(&p);
        p.broadcast = true;
        let bc = pagerank(&p);
        assert!(
            bc.remote_fraction() < base.remote_fraction() / 2.0,
            "bc {} vs base {}",
            bc.remote_fraction(),
            base.remote_fraction()
        );
    }

    #[test]
    fn edge_balanced_blocks() {
        let ctx = GraphCtx::new(&params(), 8);
        let total = ctx.graph.edges();
        let per = total / ctx.threads as u64;
        for t in 0..ctx.threads {
            let edges: u64 = (ctx.block[t]..ctx.block[t + 1])
                .map(|v| ctx.graph.degree(v))
                .sum();
            assert!(
                edges < 3 * per.max(1),
                "thread {t} holds {edges} of {total} edges (target {per})"
            );
        }
    }

    #[test]
    fn state_lines_live_on_owner_home_dimm() {
        let ctx = GraphCtx::new(&params(), 8);
        for v in (0..ctx.graph.vertices()).step_by(97) {
            let t = ctx.owner_of(v);
            assert_eq!(ctx.layout.dimm_of(ctx.state_line(v)), ctx.home[t]);
        }
    }

    #[test]
    fn sssp_converges_and_emits_stores() {
        let wl = sssp(&params());
        let stores: usize = wl
            .traces()
            .iter()
            .flat_map(|t| t.ops())
            .filter(|o| matches!(o, Op::Store { .. }))
            .count();
        assert!(stores > 100, "SSSP relaxed only {stores} edges");
    }

    #[test]
    fn spmv_p2p_reads_are_cacheable() {
        let wl = spmv(&params());
        let uncached_loads = wl
            .traces()
            .iter()
            .flat_map(|t| t.ops())
            .filter(|o| {
                matches!(
                    o,
                    Op::Load {
                        cacheable: false,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(uncached_loads, 0, "x is read-only and must be cacheable");
    }
}
