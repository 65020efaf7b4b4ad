//! The trace intermediate representation replayed by simulated cores.
//!
//! Traces are fully built before a run, so their size caps the input scale
//! a host can simulate. Every [`Op`] therefore packs into 8 bytes: addresses
//! are 40-bit [`Addr`]s, which cover the whole [`DataLayout`] address space.
//! A sequence a thread repeats is stored once as a block of its
//! [`ThreadTrace`] and each repetition is one 8-byte [`Step::Call`]: a
//! thread's sweep in each iteration of PageRank and Hotspot. A strided loop
//! whose every iteration is one access and a call of one of two blocks is
//! one [`Step::Sweep`], which holds one bit per iteration: K-Means' point
//! loop, each point's load and one of its two scans of the centroid
//! snapshot. BFS, SSSP and Needleman-Wunsch call no blocks, since their
//! rounds differ, nor does SpMV's single pass. A trace costs 8 bytes per
//! [`Step`] plus its blocks, sweeps and choice bits; the cores walk this
//! compact form in place.

use crate::layout::DataLayout;
use std::fmt;
use std::ops::Range;
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

/// One of a trace's sweeps, by index (see [`ThreadTrace::sweep`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sweep(u32);

/// One entry of a trace's compact form: an op, a call that runs one of the
/// trace's blocks in place, or a sweep. Like [`Op`] it takes 8 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// The op itself.
    Op(Op),
    /// The ops of this block, in order.
    Call(Block),
    /// The iterations of this sweep, in order.
    Sweep(Sweep),
}

const _: () = assert!(std::mem::size_of::<Step>() == 8);

/// What a [`Step::Sweep`] stands for: `count` iterations, iteration `j`
/// running a load (or a store) of `first + j * stride`, then the ops of
/// `blocks[b]`, where `b` is bit `j` of the trace's choice bits from word
/// `word` on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SweepSpec {
    first: u64,
    stride: u64,
    store: bool,
    cacheable: bool,
    count: u32,
    /// Two blocks of equal length.
    blocks: [Block; 2],
    word: usize,
}

/// A range of a sweep's iterations (see [`ThreadTrace::iterations`]), each
/// its access and the ops of the block it calls. The default holds none.
#[derive(Debug, Clone, Default)]
pub struct Iterations<'t> {
    /// The index of the iteration [`next`](Iterator::next) yields, and one
    /// past the last.
    next: u32,
    end: u32,
    first: u64,
    stride: u64,
    store: bool,
    cacheable: bool,
    blocks: [&'t [Step]; 2],
    /// The sweep's choice bits.
    bits: &'t [u64],
}

impl Iterations<'_> {
    /// The index of the iteration [`next`](Iterator::next) yields.
    #[inline]
    pub fn next_index(&self) -> u32 {
        self.next
    }
}

impl<'t> Iterator for Iterations<'t> {
    type Item = (Op, &'t [Step]);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        if self.next == self.end {
            return None;
        }
        let j = self.next;
        self.next += 1;
        let (addr, cacheable) = (
            Addr::new(self.first + u64::from(j) * self.stride),
            self.cacheable,
        );
        let access = if self.store {
            Op::Store { addr, cacheable }
        } else {
            Op::Load { addr, cacheable }
        };
        let bit = self.bits[(j / 64) as usize] >> (j % 64) & 1;
        Some((access, self.blocks[bit as usize]))
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.end - self.next) as usize;
        (left, Some(left))
    }
}

impl ExactSizeIterator for Iterations<'_> {}

/// The operation sequence of one thread, held compactly: its own
/// [`Step`]s, a few blocks of ops that calls and sweeps among them repeat,
/// and its sweeps with the bits that choose their blocks.
///
/// [`len`](Self::len) counts the ops of the expanded sequence, and
/// [`ops`](Self::ops) builds that sequence on first use. A step's own ops
/// are counted from 0 (its "offset"): a call's are its block's, and a
/// sweep's run through its iterations, each its access and then its
/// block's ops. Equality compares the compact form: two traces with equal
/// ops but different blocks or sweeps differ.
#[derive(Debug, Clone, Default)]
pub struct ThreadTrace {
    steps: Vec<Step>,
    /// Each holds only `Step::Op`s.
    blocks: Vec<Box<[Step]>>,
    sweeps: Vec<SweepSpec>,
    /// The sweeps' choice bits, each sweep's from a word of its own.
    bits: Vec<u64>,
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
        assert!(
            body.blocks.is_empty() && body.sweeps.is_empty(),
            "a block holds only ops"
        );
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

    /// Appends a sweep of one iteration per entry of `choices`: iteration
    /// `j` runs `access` moved `j * stride` bytes on, then calls
    /// `blocks[1]` if choice `j` is set and `blocks[0]` if not. No choices
    /// append nothing.
    ///
    /// # Panics
    /// Panics if `access` is not a load or a store, if the blocks differ in
    /// length, if the last access lies past [`Addr::LIMIT`], or if the
    /// sweep holds 2^32 ops or more: a core keeps its offset in a sweep as
    /// a `u32`.
    pub fn sweep(
        &mut self,
        access: Op,
        stride: u64,
        blocks: [Block; 2],
        choices: impl IntoIterator<Item = bool>,
    ) {
        let (first, store, cacheable) = match access {
            Op::Load { addr, cacheable } => (addr.get(), false, cacheable),
            Op::Store { addr, cacheable } => (addr.get(), true, cacheable),
            _ => panic!("a sweep's access is a load or a store"),
        };
        let per = self.block(blocks[0]).len();
        assert_eq!(
            per,
            self.block(blocks[1]).len(),
            "a sweep's blocks differ in length"
        );
        let word = self.bits.len();
        let mut count = 0u32;
        for choice in choices {
            if count.is_multiple_of(64) {
                self.bits.push(0);
            }
            *self.bits.last_mut().expect("a word per 64 choices") |=
                u64::from(choice) << (count % 64);
            count = count.checked_add(1).expect("fewer than 2^32 iterations");
        }
        if count == 0 {
            return;
        }
        let len = u64::from(count) * (1 + per as u64);
        assert!(
            u32::try_from(len).is_ok(),
            "a sweep holds fewer than 2^32 ops"
        );
        let last = u64::from(count - 1)
            .checked_mul(stride)
            .and_then(|d| first.checked_add(d));
        let _ = Addr::new(last.unwrap_or(u64::MAX));
        let spec = SweepSpec {
            first,
            stride,
            store,
            cacheable,
            count,
            blocks,
            word,
        };
        let id = u32::try_from(self.sweeps.len()).expect("fewer than 2^32 sweeps");
        self.sweeps.push(spec);
        self.len += len as usize;
        self.edit().push(Step::Sweep(Sweep(id)));
    }

    /// The compact form: the trace's own steps, calls and sweeps included.
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

    /// How many iterations sweep `s` has, and how many ops each runs: its
    /// access and its block's ops.
    ///
    /// # Panics
    /// Panics if this trace has no sweep `s`.
    #[inline]
    pub fn sweep_shape(&self, s: Sweep) -> (u32, usize) {
        let spec = &self.sweeps[s.0 as usize];
        (spec.count, 1 + self.block(spec.blocks[0]).len())
    }

    /// The iterations of sweep `s` in `range`.
    ///
    /// # Panics
    /// Panics if this trace has no sweep `s`, or if `range` is reversed or
    /// reaches past its count.
    pub fn iterations(&self, s: Sweep, range: Range<u32>) -> Iterations<'_> {
        let spec = &self.sweeps[s.0 as usize];
        assert!(
            range.start <= range.end && range.end <= spec.count,
            "iterations {range:?} of {}",
            spec.count
        );
        Iterations {
            next: range.start,
            end: range.end,
            first: spec.first,
            stride: spec.stride,
            store: spec.store,
            cacheable: spec.cacheable,
            blocks: spec.blocks.map(|b| self.block(b)),
            bits: &self.bits[spec.word..spec.word + spec.count.div_ceil(64) as usize],
        }
    }

    /// How many ops `step` of this trace runs.
    fn step_len(&self, step: Step) -> usize {
        match step {
            Step::Op(_) => 1,
            Step::Call(b) => self.block(b).len(),
            Step::Sweep(s) => {
                let (count, per) = self.sweep_shape(s);
                count as usize * per
            }
        }
    }

    /// Where the expanded sequence's op `n` sits in the compact form: its
    /// step, and its offset among that step's ops (0 for an op). For `n` at
    /// or past the end: one past the last step, 0.
    pub fn position(&self, n: usize) -> (usize, usize) {
        if n < self.len {
            let mut left = n;
            for (pc, &step) in self.steps.iter().enumerate() {
                let len = self.step_len(step);
                if left < len {
                    return (pc, left);
                }
                left -= len;
            }
        }
        (self.steps.len(), 0)
    }

    /// The op at offset `sub` among the ops of step `pc`.
    ///
    /// # Panics
    /// Panics if there is no such op.
    pub fn op_at(&self, pc: usize, sub: usize) -> Op {
        let nth = |block: &[Step], k: usize| match block[k] {
            Step::Op(op) => op,
            _ => unreachable!("blocks hold only ops"),
        };
        match self.steps[pc] {
            Step::Op(op) => {
                assert_eq!(sub, 0, "an op is one op");
                op
            }
            Step::Call(b) => nth(self.block(b), sub),
            Step::Sweep(s) => {
                let per = self.sweep_shape(s).1;
                let j = u32::try_from(sub / per).expect("a sweep holds fewer than 2^32 ops");
                let (access, body) = self.iterations(s, j..j + 1).next().expect("an iteration");
                match sub % per {
                    0 => access,
                    k => nth(body, k - 1),
                }
            }
        }
    }

    /// The ops of a block.
    fn block_ops(block: &[Step]) -> impl Iterator<Item = Op> + '_ {
        block.iter().map(|&s| match s {
            Step::Op(op) => op,
            _ => unreachable!("blocks hold only ops"),
        })
    }

    /// The expanded operations, every call and sweep replaced by the ops it
    /// runs. The first use builds them: 8 bytes per op for the trace's
    /// lifetime.
    pub fn ops(&self) -> &[Op] {
        self.flat.get_or_init(|| {
            let mut ops = Vec::with_capacity(self.len);
            for &step in &self.steps {
                match step {
                    Step::Op(op) => ops.push(op),
                    Step::Call(b) => ops.extend(Self::block_ops(self.block(b))),
                    Step::Sweep(s) => {
                        for (access, body) in self.iterations(s, 0..self.sweep_shape(s).0) {
                            ops.push(access);
                            ops.extend(Self::block_ops(body));
                        }
                    }
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
        let one = |op: Op| {
            op.addr()
                .map_or((0, 0), |addr| (1, u64::from(remote(addr))))
        };
        let add = |(n, r): (u64, u64), (m, q): (u64, u64)| (n + m, r + q);
        let count = |steps: &[Step]| {
            steps.iter().fold((0, 0), |acc, step| match step {
                &Step::Op(op) => add(acc, one(op)),
                _ => acc,
            })
        };
        let per_block: Vec<(u64, u64)> = self.blocks.iter().map(|b| count(b)).collect();
        self.steps
            .iter()
            .fold(count(&self.steps), |acc, &step| match step {
                Step::Op(_) => acc,
                Step::Call(b) => add(acc, per_block[b.0 as usize]),
                Step::Sweep(s) => {
                    let its = self.iterations(s, 0..self.sweep_shape(s).0);
                    let set: u32 = its.bits.iter().map(|w| w.count_ones()).sum();
                    let calls = [its.end - set, set].map(u64::from);
                    let [b0, b1] = self.sweeps[s.0 as usize]
                        .blocks
                        .map(|b| per_block[b.0 as usize]);
                    let blocks = (
                        calls[0] * b0.0 + calls[1] * b1.0,
                        calls[0] * b0.1 + calls[1] * b1.1,
                    );
                    its.fold(add(acc, blocks), |acc, (access, _)| add(acc, one(access)))
                }
            })
    }
}

impl PartialEq for ThreadTrace {
    fn eq(&self, other: &Self) -> bool {
        self.steps == other.steps
            && self.blocks == other.blocks
            && self.sweeps == other.sweeps
            && self.bits == other.bits
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

    /// `Comp(1)`, a sweep of three iterations over cacheable loads at 128 +
    /// 64 j choosing `[Comp(2), load(64)]`, `[Comp(4), load(64)]`, the
    /// first again, and a barrier.
    fn with_sweep() -> ThreadTrace {
        let mut t = ThreadTrace::new();
        t.comp(1);
        let a = t.add_block([Op::Comp(2), load(64)].into_iter().collect());
        let b = t.add_block([Op::Comp(4), load(64)].into_iter().collect());
        let first = Op::Load {
            addr: Addr::new(128),
            cacheable: true,
        };
        t.sweep(first, 64, [a, b], [false, true, false]);
        t.comp(1);
        t.push(Op::Barrier);
        t
    }

    #[test]
    fn a_sweep_runs_each_access_then_its_chosen_block() {
        let t = with_sweep();
        let point = |addr| Op::Load {
            addr: Addr::new(addr),
            cacheable: true,
        };
        let want = [
            Op::Comp(1),
            point(128),
            Op::Comp(2),
            load(64),
            point(192),
            Op::Comp(4),
            load(64),
            point(256),
            Op::Comp(2),
            load(64),
            Op::Comp(1),
            Op::Barrier,
        ];
        assert_eq!(
            t.steps().len(),
            4,
            "the comp after the sweep does not merge"
        );
        assert_eq!(t.len(), want.len());
        for (n, op) in want.iter().enumerate() {
            let (pc, sub) = t.position(n);
            assert_eq!(t.op_at(pc, sub), *op, "op {n}");
        }
        assert_eq!(t.ops(), want);
        assert_eq!(
            (t.position(1), t.position(5), t.position(9), t.position(12)),
            ((1, 0), (1, 4), (1, 8), (4, 0))
        );
    }

    #[test]
    fn a_sweep_of_more_than_64_iterations_keeps_its_bits() {
        let mut t = ThreadTrace::new();
        let a = t.add_block([Op::Comp(1)].into_iter().collect());
        let b = t.add_block([Op::Comp(2)].into_iter().collect());
        let choices = |j: u32| j.is_multiple_of(3) || j == 64;
        t.sweep(load(0), 64, [a, b], (0..70).map(choices));
        t.sweep(load(0), 0, [a, b], [true]);
        t.sweep(load(0), 64, [a, b], []);
        let s = |n| match t.steps()[n] {
            Step::Sweep(s) => s,
            step => panic!("{step:?}"),
        };
        assert_eq!(t.steps().len(), 2, "no choices, no sweep");
        assert_eq!(
            (t.sweep_shape(s(0)), t.sweep_shape(s(1))),
            ((70, 2), (1, 2))
        );
        let mut its = t.iterations(s(0), 0..70);
        assert_eq!(its.size_hint(), (70, Some(70)));
        for j in 0..70 {
            assert_eq!(its.next_index(), j);
            let (access, block) = its.next().expect("70 iterations");
            assert_eq!(access, load(64 * u64::from(j)));
            assert_eq!(
                block,
                t.block(if choices(j) { b } else { a }),
                "iteration {j}"
            );
        }
        assert_eq!(its.next(), None);
        assert_eq!(t.iterations(s(0), 64..70).len(), 6);
        assert_eq!(t.iterations(s(0), 9..9).len(), 0);
        let [(access, block)] = t.iterations(s(1), 0..1).collect::<Vec<_>>()[..] else {
            panic!("one iteration")
        };
        assert_eq!((access, block), (load(0), t.block(b)));
    }

    #[test]
    fn sweeps_compare_by_their_choices() {
        let (a, b) = (with_sweep(), with_sweep());
        assert_eq!(a, b);
        let mut c = ThreadTrace::new();
        c.comp(1);
        let pa = c.add_block([Op::Comp(2), load(64)].into_iter().collect());
        let pb = c.add_block([Op::Comp(4), load(64)].into_iter().collect());
        let first = Op::Load {
            addr: Addr::new(128),
            cacheable: true,
        };
        c.sweep(first, 64, [pa, pb], [false, false, false]);
        c.comp(1);
        c.push(Op::Barrier);
        assert_eq!(c.len(), a.len());
        assert_ne!(c, a);
        assert!(!a.is_materialized() && !c.is_materialized());
    }

    #[test]
    #[should_panic(expected = "a sweep's blocks differ in length")]
    fn a_sweep_chooses_between_blocks_of_one_length() {
        let mut t = ThreadTrace::new();
        let a = t.add_block([Op::Comp(2)].into_iter().collect());
        let b = t.add_block([Op::Comp(2), load(64)].into_iter().collect());
        t.sweep(load(0), 64, [a, b], [true]);
    }

    #[test]
    #[should_panic(expected = "a sweep's access is a load or a store")]
    fn a_sweep_accesses_by_load_or_store() {
        let mut t = ThreadTrace::new();
        let a = t.add_block(ThreadTrace::new());
        t.sweep(Op::Atomic { addr: Addr::new(0) }, 64, [a, a], [true]);
    }

    #[test]
    #[should_panic(expected = "exceeds 40 bits")]
    fn a_sweep_stays_below_the_address_limit() {
        let mut t = ThreadTrace::new();
        let a = t.add_block(ThreadTrace::new());
        t.sweep(load(Addr::LIMIT - 64), 64, [a, a], [false, false]);
    }

    #[test]
    #[should_panic(expected = "a sweep holds fewer than 2^32 ops")]
    fn a_sweep_holds_fewer_than_2_pow_32_ops() {
        let mut t = ThreadTrace::new();
        let a = t.add_block((0..1 << 12).map(|_| Op::Barrier).collect());
        t.sweep(load(0), 0, [a, a], (0..1 << 20).map(|_| false));
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
        let wl_flat = Workload::new("x", vec![flat], layout.clone(), vec![0]);
        assert_eq!((wl.total_mem_ops(), wl_flat.total_mem_ops()), (3, 3));
        assert!((wl.remote_fraction() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(wl.remote_fraction(), wl_flat.remote_fraction());
        assert!(!wl.traces()[0].is_materialized());
        // A sweep's three accesses, the last one remote, and the local load
        // of the block each calls.
        let build = || {
            let mut t = ThreadTrace::new();
            let b = t.add_block([load(64)].into_iter().collect());
            t.sweep(load(remote.base() - 128), 64, [b, b], [false, true, false]);
            t
        };
        let flat: ThreadTrace = build().ops().iter().copied().collect();
        let wl = Workload::new("x", vec![build()], layout.clone(), vec![0]);
        let wl_flat = Workload::new("x", vec![flat], layout, vec![0]);
        assert_eq!((wl.total_mem_ops(), wl_flat.total_mem_ops()), (6, 6));
        assert!((wl.remote_fraction() - 1.0 / 6.0).abs() < 1e-12);
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
