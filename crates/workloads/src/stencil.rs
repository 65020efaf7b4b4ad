//! Grid workloads: the Hotspot thermal stencil and Needleman-Wunsch
//! wavefront alignment (paper Table IV).

use crate::layout::{DataLayout, Region};
use crate::trace::{Addr, Op, ThreadTrace, Workload};
use crate::WorkloadParams;

/// Bytes per grid cell.
const ELEM: u64 = 8;
/// Cells per 64-byte line.
const PER_LINE: u64 = 64 / ELEM;
/// Hotspot iterations.
pub(crate) const HS_ITERS: usize = 4;

/// Hotspot: iterative 5-point stencil over a 2-D temperature grid.
///
/// The grid (side `2^(scale/2 + 2)`) is split into `T` horizontal strips;
/// each strip's temperature and power rows live on the owning thread's home
/// DIMM. Temperature is shared read-write (uncacheable: neighbouring strips
/// read each other's boundary rows every iteration — the IDC traffic), power
/// is read-only (cacheable). Four iterations with a barrier each; a
/// thread's sweep of its strip is the same every time, so its trace stores
/// it once as a block and calls it per iteration.
pub fn hotspot(params: &WorkloadParams) -> Workload {
    let threads = params.threads();
    let side = 1u64 << (params.scale / 2 + 2);
    let rows_per_thread = (side / threads as u64).max(1);

    let home: Vec<usize> = (0..threads).map(|t| t / params.threads_per_dimm).collect();
    let mut layout = DataLayout::new(params.dimms);
    let temp: Vec<Region> = (0..threads)
        .map(|t| layout.alloc(home[t], rows_per_thread * side * ELEM))
        .collect();
    let power: Vec<Region> = (0..threads)
        .map(|t| layout.alloc(home[t], rows_per_thread * side * ELEM))
        .collect();

    // Line address of (row, col..col+7) in the global grid.
    let line_of = |row: u64, col: u64| -> u64 {
        let t = ((row / rows_per_thread) as usize).min(threads - 1);
        let local = row - t as u64 * rows_per_thread;
        temp[t].line_of(local * side + col, ELEM)
    };

    let traces = (0..threads)
        .map(|t| {
            let mut sweep = ThreadTrace::new();
            let row0 = t as u64 * rows_per_thread;
            for r in row0..row0 + rows_per_thread {
                for cl in 0..side / PER_LINE {
                    let col = cl * PER_LINE;
                    // Centre line + vertical neighbours (shared rw).
                    sweep.push(Op::Load {
                        addr: Addr::new(line_of(r, col)),
                        cacheable: false,
                    });
                    if r > 0 {
                        sweep.push(Op::Load {
                            addr: Addr::new(line_of(r - 1, col)),
                            cacheable: false,
                        });
                    }
                    if r + 1 < side {
                        sweep.push(Op::Load {
                            addr: Addr::new(line_of(r + 1, col)),
                            cacheable: false,
                        });
                    }
                    // Power is read-only.
                    let local = r - row0;
                    sweep.push(Op::Load {
                        addr: Addr::new(power[t].line_of(local * side + col, ELEM)),
                        cacheable: true,
                    });
                    sweep.comp(PER_LINE as u32 * 6);
                    sweep.push(Op::Store {
                        addr: Addr::new(line_of(r, col)),
                        cacheable: false,
                    });
                }
            }
            let mut trace = ThreadTrace::new();
            let sweep = trace.add_block(sweep);
            for _iter in 0..HS_ITERS {
                trace.call(sweep);
                trace.push(Op::Barrier);
            }
            trace
        })
        .collect();
    Workload::new("HS", traces, layout, home)
}

/// Needleman-Wunsch: wavefront dynamic programming over an `S × S` score
/// matrix tiled into `T × T` blocks; thread `t` owns block-row `t`.
///
/// Each anti-diagonal of blocks is computed in parallel and separated by a
/// barrier. A block reads its **top** boundary row from the block above
/// (owned by the previous thread → inter-DIMM traffic when the threads'
/// home DIMMs differ) and its left boundary from its own previous block
/// (local).
pub fn needleman_wunsch(params: &WorkloadParams) -> Workload {
    let threads = params.threads();
    // The matrix side is scale-determined but never smaller than one line
    // of cells per block at 64 threads, so every supported thread count
    // tiles the same matrix (total work is thread-count-invariant).
    let side = (1u64 << (params.scale / 2 + 2)).max(PER_LINE * 64);
    let block = side / threads as u64;
    let nblocks = threads; // block-rows == threads; block-cols == threads

    let home: Vec<usize> = (0..threads).map(|t| t / params.threads_per_dimm).collect();
    let mut layout = DataLayout::new(params.dimms);
    // Each thread stores its block-row of the score matrix plus the input
    // sequence slice (read-only).
    let score: Vec<Region> = (0..threads)
        .map(|t| layout.alloc(home[t], block * side * ELEM))
        .collect();
    let seq: Vec<Region> = (0..threads)
        .map(|t| layout.alloc(home[t], (block * ELEM).max(64)))
        .collect();

    let score_line = |brow: usize, local_r: u64, col: u64| -> u64 {
        score[brow].line_of(local_r * side + col, ELEM)
    };

    let mut traces = vec![ThreadTrace::new(); threads];
    for diag in 0..(2 * nblocks - 1) {
        for brow in 0..nblocks {
            let t = brow;
            let trace = &mut traces[t];
            let bcol = diag as i64 - brow as i64;
            if bcol < 0 || bcol >= nblocks as i64 {
                continue;
            }
            let bcol = bcol as u64;
            let col0 = bcol * block;

            // Read the sequence slices (read-only, cacheable).
            trace.push(Op::Load {
                addr: Addr::new(seq[t].base()),
                cacheable: true,
            });

            // Top boundary row from the block above (remote when the
            // previous thread lives on another DIMM).
            if brow > 0 {
                for cl in 0..block / PER_LINE {
                    trace.push(Op::Load {
                        addr: Addr::new(score_line(brow - 1, block - 1, col0 + cl * PER_LINE)),
                        cacheable: false,
                    });
                }
            }
            // Left boundary column from this thread's previous block
            // (local): one line per row.
            if bcol > 0 {
                for r in 0..block {
                    trace.push(Op::Load {
                        addr: Addr::new(score_line(brow, r, col0 - PER_LINE)),
                        cacheable: false,
                    });
                }
            }
            // Interior: per line of cells, one read-modify-write pass.
            for r in 0..block {
                for cl in 0..block / PER_LINE {
                    let col = col0 + cl * PER_LINE;
                    trace.comp(PER_LINE as u32 * 6);
                    trace.push(Op::Load {
                        addr: Addr::new(score_line(brow, r, col)),
                        cacheable: false,
                    });
                    trace.push(Op::Store {
                        addr: Addr::new(score_line(brow, r, col)),
                        cacheable: false,
                    });
                }
            }
        }
        for trace in &mut traces {
            trace.push(Op::Barrier);
        }
    }
    Workload::new("NW", traces, layout, home)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hotspot_boundary_rows_cross_dimms() {
        let wl = hotspot(&WorkloadParams::small(4));
        assert!(wl.remote_fraction() > 0.0);
        // Interior traffic dominates: remote share stays modest.
        assert!(wl.remote_fraction() < 0.3, "rf = {}", wl.remote_fraction());
    }

    #[test]
    fn hotspot_barriers_per_iteration() {
        let wl = hotspot(&WorkloadParams::small(2));
        for trace in wl.traces() {
            let n = trace
                .ops()
                .iter()
                .filter(|o| matches!(o, Op::Barrier))
                .count();
            assert_eq!(n, 4);
        }
    }

    #[test]
    fn nw_has_wavefront_barriers() {
        let params = WorkloadParams::small(2);
        let wl = needleman_wunsch(&params);
        let t = params.threads();
        for trace in wl.traces() {
            let n = trace
                .ops()
                .iter()
                .filter(|o| matches!(o, Op::Barrier))
                .count();
            assert_eq!(n, 2 * t - 1);
        }
    }

    #[test]
    fn nw_top_boundary_is_remote_for_cross_dimm_rows() {
        let params = WorkloadParams::small(4);
        let wl = needleman_wunsch(&params);
        // Thread 4 (first thread of DIMM 1) reads thread 3's rows (DIMM 0).
        let layout = wl.layout();
        let t4_home = wl.home_dimm()[4];
        let remote_loads = wl.traces()[4]
            .ops()
            .iter()
            .filter(|o| match o {
                Op::Load { addr, .. } => layout.dimm_of(addr.get()) != t4_home,
                _ => false,
            })
            .count();
        assert!(
            remote_loads > 0,
            "thread 4 should read DIMM 0's boundary rows"
        );
    }

    #[test]
    fn hotspot_power_reads_are_cacheable() {
        let wl = hotspot(&WorkloadParams::small(2));
        let cacheable = wl
            .traces()
            .iter()
            .flat_map(|t| t.ops())
            .filter(|o| {
                matches!(
                    o,
                    Op::Load {
                        cacheable: true,
                        ..
                    }
                )
            })
            .count();
        assert!(cacheable > 0);
    }
}
