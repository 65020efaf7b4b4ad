//! The trace intermediate representation replayed by simulated cores.
//!
//! Traces are fully built before a run, so their size caps the input scale
//! a host can simulate. Every [`Op`] therefore packs into 8 bytes: addresses
//! are 40-bit [`Addr`]s, which cover the whole [`DataLayout`] address space.
//! A sequence a thread repeats is stored once as a block of its
//! [`ThreadTrace`] and each repetition is one 8-byte [`Step::Call`]:
//! K-Means' per-point scan of its centroid snapshot, and a thread's sweep
//! in each iteration of PageRank and Hotspot. BFS, SSSP and
//! Needleman-Wunsch call no blocks, since their rounds differ, nor does
//! SpMV's single pass. A trace costs 8 bytes per [`Step`] plus its blocks;
//! the cores walk this compact form in place.

use crate::layout::DataLayout;
use std::fmt;
use std::sync::OnceLock;

/// A global physical byte address packed into 5 little-endian bytes.
///
/// Every address a [`DataLayout`] hands out is below 2^40 (at most
/// [`MAX_DIMMS`](crate::layout::MAX_DIMMS) DIMMs of
/// [`BYTES_PER_DIMM`](crate::BYTES_PER_DIMM) bytes), so 40 bits hold it
/// exactly. Byte alignment keeps [`Op`] at 8 bytes.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Addr([u8; 5]);

impl Addr {
    /// One past the largest representable address.
    pub const LIMIT: u64 = 1 << 40;

    /// Packs `addr`.
    ///
    /// # Panics
    /// Panics if `addr` does not fit in 40 bits.
    #[inline]
    pub fn new(addr: u64) -> Self {
        assert!(addr < Self::LIMIT, "address {addr:#x} exceeds 40 bits");
        let [b0, b1, b2, b3, b4, ..] = addr.to_le_bytes();
        Addr([b0, b1, b2, b3, b4])
    }

    /// The address as a `u64`.
    #[inline]
    pub fn get(self) -> u64 {
        let [b0, b1, b2, b3, b4] = self.0;
        u64::from_le_bytes([b0, b1, b2, b3, b4, 0, 0, 0])
    }
}

impl fmt::Debug for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.get())
    }
}

/// One operation in a thread's trace, packed into 8 bytes: a one-byte
/// variant tag, a 40-bit [`Addr`] and a one-byte field (`cacheable` or
/// nothing), or a 32-bit `Comp` count.
///
/// Memory operations are line-granular (64 bytes); larger transfers are
/// emitted as multiple operations by the workload generators. The
/// `cacheable` flag implements the paper's software-assisted coherence:
/// thread-private and shared read-only data may be cached, shared
/// read-write data must bypass the caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Busy the core for this many core cycles.
    Comp(u32),
    /// Read one line at `addr`.
    Load {
        /// Global physical address.
        addr: Addr,
        /// Whether the line may be cached.
        cacheable: bool,
    },
    /// Write one line at `addr`.
    Store {
        /// Global physical address.
        addr: Addr,
        /// Whether the line may be cached.
        cacheable: bool,
    },
    /// Read-modify-write one line at its home DIMM (always uncacheable;
    /// serializes at the home DIMM — used for locks and shared counters).
    Atomic {
        /// Global physical address.
        addr: Addr,
    },
    /// Broadcast `bytes` starting at `addr` (which lives on this thread's
    /// home DIMM) to every other DIMM. Requires the explicit broadcast API
    /// of the paper's function layer.
    Broadcast {
        /// Global physical address of the source buffer.
        addr: Addr,
        /// Payload size in bytes.
        bytes: u16,
    },
    /// Global barrier across all threads of the workload.
    Barrier,
}

const _: () = assert!(std::mem::size_of::<Op>() == 8);

impl Op {
    /// The address this op touches, if it is a memory operation.
    #[inline]
    pub fn addr(&self) -> Option<u64> {
        match self {
            Op::Load { addr, .. }
            | Op::Store { addr, .. }
            | Op::Atomic { addr }
            | Op::Broadcast { addr, .. } => Some(addr.get()),
            _ => None,
        }
    }
}

/// One of a trace's blocks, by index (see [`ThreadTrace::add_block`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Block(u32);

/// One entry of a trace's compact form: an op, or a call that runs one of
/// the trace's blocks in place. Like [`Op`] it takes 8 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// The op itself.
    Op(Op),
    /// The ops of this block, in order.
    Call(Block),
}

const _: () = assert!(std::mem::size_of::<Step>() == 8);

/// The operation sequence of one thread, held compactly: its own
/// [`Step`]s, and a few blocks of ops that calls among them repeat.
///
/// [`len`](Self::len) counts the ops of the expanded sequence, and
/// [`ops`](Self::ops) builds that sequence on first use. Equality compares
/// the compact form: two traces with equal ops but different blocks differ.
#[derive(Debug, Clone, Default)]
pub struct ThreadTrace {
    steps: Vec<Step>,
    /// Each holds only `Step::Op`s.
    blocks: Vec<Box<[Step]>>,
    /// Ops in the expanded sequence.
    len: usize,
    /// The expanded sequence, once [`ThreadTrace::ops`] has built it.
    flat: OnceLock<Vec<Op>>,
}

impl ThreadTrace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty trace with room for `steps` steps.
    pub fn with_capacity(steps: usize) -> Self {
        ThreadTrace {
            steps: Vec::with_capacity(steps),
            ..Self::default()
        }
    }

    /// The steps, to append to: drops the expanded sequence built so far.
    fn edit(&mut self) -> &mut Vec<Step> {
        self.flat.take();
        &mut self.steps
    }

    /// Appends an operation.
    pub fn push(&mut self, op: Op) {
        self.len += 1;
        self.edit().push(Step::Op(op));
    }

    /// Appends `Comp(cycles)`, merging with a trailing `Comp` (not with one
    /// that ends a trailing call) to keep traces compact.
    pub fn comp(&mut self, cycles: u32) {
        if cycles == 0 {
            return;
        }
        if let Some(Step::Op(Op::Comp(c))) = self.edit().last_mut() {
            *c = c.saturating_add(cycles);
        } else {
            self.push(Op::Comp(cycles));
        }
    }

    /// Stores the ops of `body`, built with [`push`](Self::push) and
    /// [`comp`](Self::comp), as a block of this trace, for
    /// [`ThreadTrace::call`]. Its steps move into the block as they are.
    ///
    /// # Panics
    /// Panics if `body` calls blocks of its own, or holds 2^32 ops or more:
    /// a core keeps its index in a block as a `u32`.
    pub fn add_block(&mut self, body: ThreadTrace) -> Block {
        assert!(body.blocks.is_empty(), "a block holds only ops");
        assert!(
            u32::try_from(body.len).is_ok(),
            "a block holds fewer than 2^32 ops"
        );
        let id = u32::try_from(self.blocks.len()).expect("fewer than 2^32 blocks");
        self.blocks.push(body.steps.into_boxed_slice());
        Block(id)
    }

    /// Appends a call to block `b`: its ops run here as they are, and a
    /// [`comp`](Self::comp) after the call does not merge into them.
    pub fn call(&mut self, b: Block) {
        self.len += self.block(b).len();
        self.edit().push(Step::Call(b));
    }

    /// The compact form: the trace's own steps, calls included.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// The steps of block `b`, all of them ops.
    ///
    /// # Panics
    /// Panics if this trace has no block `b`.
    #[inline]
    pub fn block(&self, b: Block) -> &[Step] {
        &self.blocks[b.0 as usize]
    }

    /// Where the expanded sequence's op `n` sits in the compact form: its
    /// step, and its index in that step's block (0 outside a block). For
    /// `n` at or past the end: one past the last step, 0.
    pub fn position(&self, n: usize) -> (usize, usize) {
        if n < self.len {
            let mut left = n;
            for (pc, &step) in self.steps.iter().enumerate() {
                let len = match step {
                    Step::Op(_) => 1,
                    Step::Call(b) => self.block(b).len(),
                };
                if left < len {
                    return (pc, left);
                }
                left -= len;
            }
        }
        (self.steps.len(), 0)
    }

    /// The expanded operations, every call replaced by its block's ops.
    /// The first use builds them: 8 bytes per op for the trace's lifetime.
    pub fn ops(&self) -> &[Op] {
        self.flat.get_or_init(|| {
            let mut ops = Vec::with_capacity(self.len);
            for &step in &self.steps {
                match step {
                    Step::Op(op) => ops.push(op),
                    Step::Call(b) => ops.extend(self.block(b).iter().map(|&s| match s {
                        Step::Op(op) => op,
                        Step::Call(_) => unreachable!("blocks hold only ops"),
                    })),
                }
            }
            ops
        })
    }

    /// Whether [`ops`](Self::ops) has built the expanded sequence.
    pub fn is_materialized(&self) -> bool {
        self.flat.get().is_some()
    }

    /// Number of operations in the expanded sequence.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Counts the memory ops of the expanded sequence, and those among
    /// them whose address is `remote`, looking at each block once.
    fn mem_ops(&self, remote: impl Fn(u64) -> bool) -> (u64, u64) {
        let count = |steps: &[Step]| {
            let addrs = steps.iter().filter_map(|step| match step {
                Step::Op(op) => op.addr(),
                Step::Call(_) => None,
            });
            addrs.fold((0, 0), |(n, r), addr| (n + 1, r + u64::from(remote(addr))))
        };
        let per_block: Vec<(u64, u64)> = self.blocks.iter().map(|b| count(b)).collect();
        let calls = self.steps.iter().filter_map(|step| match step {
            Step::Call(b) => Some(per_block[b.0 as usize]),
            Step::Op(_) => None,
        });
        calls.fold(count(&self.steps), |(n, r), (bn, br)| (n + bn, r + br))
    }
}

impl PartialEq for ThreadTrace {
    fn eq(&self, other: &Self) -> bool {
        self.steps == other.steps && self.blocks == other.blocks
    }
}

impl Eq for ThreadTrace {}

impl FromIterator<Op> for ThreadTrace {
    fn from_iter<I: IntoIterator<Item = Op>>(iter: I) -> Self {
        let mut trace = ThreadTrace::new();
        trace.extend(iter);
        trace
    }
}

impl Extend<Op> for ThreadTrace {
    fn extend<I: IntoIterator<Item = Op>>(&mut self, iter: I) {
        for op in iter {
            self.push(op);
        }
    }
}

/// A complete multi-threaded workload: one trace per thread plus the data
/// layout the addresses were generated against.
#[derive(Debug, Clone)]
pub struct Workload {
    name: String,
    traces: Vec<ThreadTrace>,
    layout: DataLayout,
    /// DIMM whose memory each thread predominantly owns (the "natural"
    /// placement: thread i's partition lives here).
    home_dimm: Vec<usize>,
}

impl Workload {
    /// Assembles a workload.
    ///
    /// # Panics
    /// Panics if `home_dimm.len() != traces.len()`.
    pub fn new(
        name: impl Into<String>,
        traces: Vec<ThreadTrace>,
        layout: DataLayout,
        home_dimm: Vec<usize>,
    ) -> Self {
        assert_eq!(traces.len(), home_dimm.len(), "one home DIMM per thread");
        Workload {
            name: name.into(),
            traces,
            layout,
            home_dimm,
        }
    }

    /// Workload name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Per-thread traces.
    pub fn traces(&self) -> &[ThreadTrace] {
        &self.traces
    }

    /// The data layout addresses were allocated in.
    pub fn layout(&self) -> &DataLayout {
        &self.layout
    }

    /// The natural placement: `home_dimm()[t]` owns thread `t`'s partition.
    pub fn home_dimm(&self) -> &[usize] {
        &self.home_dimm
    }

    /// Total operations across all threads.
    pub fn total_ops(&self) -> u64 {
        self.traces.iter().map(|t| t.len() as u64).sum()
    }

    /// Total memory operations across all threads.
    pub fn total_mem_ops(&self) -> u64 {
        self.traces.iter().map(|t| t.mem_ops(|_| false).0).sum()
    }

    /// Fraction of memory operations whose target DIMM differs from the
    /// issuing thread's home DIMM — a cheap static estimate of IDC
    /// intensity.
    pub fn remote_fraction(&self) -> f64 {
        let (total, remote) = self
            .traces
            .iter()
            .zip(&self.home_dimm)
            .map(|(trace, &home)| trace.mem_ops(|addr| self.layout.dimm_of(addr) != home))
            .fold((0, 0), |(n, r), (tn, tr)| (n + tn, r + tr));
        if total == 0 {
            0.0
        } else {
            remote as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::DataLayout;

    #[test]
    fn comp_merges_adjacent() {
        let mut t = ThreadTrace::new();
        t.comp(5);
        t.comp(7);
        assert_eq!(t.ops(), &[Op::Comp(12)]);
        t.push(Op::Barrier);
        t.comp(0); // no-op
        t.comp(1);
        assert_eq!(t.len(), 3);
    }

    fn load(addr: u64) -> Op {
        Op::Load {
            addr: Addr::new(addr),
            cacheable: false,
        }
    }

    /// `Comp(5)`, a call to a block of `[Comp(2), load(64), Comp(3)]`, a
    /// `Comp(1)`, the same call again and a barrier.
    fn with_calls() -> ThreadTrace {
        let mut t = ThreadTrace::new();
        t.comp(5);
        let b = t.add_block([Op::Comp(2), load(64), Op::Comp(3)].into_iter().collect());
        t.call(b);
        t.comp(1);
        t.call(b);
        t.push(Op::Barrier);
        t
    }

    #[test]
    fn a_call_runs_its_block_in_place_without_merging() {
        let t = with_calls();
        assert_eq!(t.steps().len(), 5);
        assert_eq!(
            t.ops(),
            &[
                Op::Comp(5),
                Op::Comp(2),
                load(64),
                Op::Comp(3),
                Op::Comp(1),
                Op::Comp(2),
                load(64),
                Op::Comp(3),
                Op::Barrier
            ]
        );
        assert_eq!(t.len(), t.ops().len());
    }

    #[test]
    fn len_counts_the_expanded_ops() {
        let mut t = with_calls();
        assert!(!t.is_materialized());
        assert_eq!(t.len(), 9);
        assert_eq!(t.ops().len(), 9);
        // Appending drops the stale expansion.
        let empty = t.add_block(ThreadTrace::new());
        t.call(empty);
        t.push(Op::Barrier);
        assert!(!t.is_materialized());
        assert_eq!((t.len(), t.ops().len()), (10, 10));
        assert_eq!(t.ops().last(), Some(&Op::Barrier));
    }

    #[test]
    #[should_panic(expected = "a block holds only ops")]
    fn a_block_calls_no_blocks() {
        let mut t = ThreadTrace::new();
        let _ = t.add_block(with_calls());
    }

    #[test]
    fn equality_never_expands() {
        let (a, b) = (with_calls(), with_calls());
        assert_eq!(a, b);
        assert!(!a.is_materialized() && !b.is_materialized());
        // Equal ops in another compact form are another trace.
        let flat: ThreadTrace = a.ops().iter().copied().collect();
        assert_ne!(flat, a);
        assert_eq!(flat.ops(), a.ops());
    }

    #[test]
    fn positions_fall_inside_blocks() {
        let t = with_calls();
        let want = [(0, 0), (1, 0), (1, 1), (1, 2), (2, 0), (3, 0), (3, 1)];
        for (n, &pos) in want.iter().enumerate() {
            assert_eq!(t.position(n), pos, "op {n}");
        }
        assert_eq!(
            (t.position(8), t.position(9), t.position(99)),
            ((4, 0), (5, 0), (5, 0))
        );
    }

    #[test]
    fn memory_ops_count_each_call() {
        let mut layout = DataLayout::new(2);
        let _ = layout.alloc(0, 128);
        let remote = layout.alloc(1, 64);
        let build = || {
            let mut t = with_calls();
            t.push(load(remote.base()));
            t
        };
        let flat: ThreadTrace = build().ops().iter().copied().collect();
        let wl = Workload::new("x", vec![build()], layout.clone(), vec![0]);
        let wl_flat = Workload::new("x", vec![flat], layout, vec![0]);
        assert_eq!((wl.total_mem_ops(), wl_flat.total_mem_ops()), (3, 3));
        assert!((wl.remote_fraction() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(wl.remote_fraction(), wl_flat.remote_fraction());
        assert!(!wl.traces()[0].is_materialized());
    }

    #[test]
    fn op_addr_extraction() {
        assert_eq!(Op::Comp(3).addr(), None);
        assert_eq!(Op::Barrier.addr(), None);
        assert_eq!(
            Op::Load {
                addr: Addr::new(64),
                cacheable: true
            }
            .addr(),
            Some(64)
        );
        assert_eq!(
            Op::Atomic {
                addr: Addr::new(128)
            }
            .addr(),
            Some(128)
        );
        assert_eq!(
            Op::Broadcast {
                addr: Addr::new(0),
                bytes: 256
            }
            .addr(),
            Some(0)
        );
    }

    #[test]
    fn remote_fraction_counts_cross_dimm_traffic() {
        let mut layout = DataLayout::new(2);
        let a = layout.alloc(0, 4096);
        let b = layout.alloc(1, 4096);
        let mut t0 = ThreadTrace::new();
        t0.push(Op::Load {
            addr: Addr::new(a.base()),
            cacheable: false,
        }); // local
        t0.push(Op::Load {
            addr: Addr::new(b.base()),
            cacheable: false,
        }); // remote
        let wl = Workload::new("x", vec![t0], layout, vec![0]);
        assert!((wl.remote_fraction() - 0.5).abs() < 1e-12);
        assert_eq!(wl.total_mem_ops(), 2);
    }

    #[test]
    fn addr_round_trips_every_40_bit_boundary() {
        let dimm31_top = 32 * crate::BYTES_PER_DIMM - 1;
        for a in [0, (1 << 34) - 1, dimm31_top, Addr::LIMIT - 1] {
            assert_eq!(Addr::new(a).get(), a, "{a:#x}");
        }
        assert_eq!(dimm31_top, (1 << 39) - 1);
    }

    #[test]
    #[should_panic(expected = "exceeds 40 bits")]
    fn addr_rejects_41_bit_addresses() {
        let _ = Addr::new(1 << 40);
    }

    #[test]
    fn trace_collects_from_iterator() {
        let t: ThreadTrace = [Op::Comp(1), Op::Barrier].into_iter().collect();
        assert_eq!(t.len(), 2);
    }
}
