//! The trace intermediate representation replayed by simulated cores.
//!
//! Traces are fully built before a run, so their size caps the input scale
//! a host can simulate. Every [`Op`] therefore packs into 8 bytes: addresses
//! are 40-bit [`Addr`]s, which cover the whole [`DataLayout`] address space.

use crate::layout::DataLayout;
use std::fmt;

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
/// nothing), or a 32-bit `Comp` count. A trace of N ops costs 8N bytes.
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

/// The operation sequence of one thread.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ThreadTrace {
    ops: Vec<Op>,
}

impl ThreadTrace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty trace with room for `ops` operations.
    pub fn with_capacity(ops: usize) -> Self {
        ThreadTrace {
            ops: Vec::with_capacity(ops),
        }
    }

    /// Appends an operation.
    pub fn push(&mut self, op: Op) {
        self.ops.push(op);
    }

    /// Appends a copy of `ops` as they are: a leading `Comp` does not merge
    /// with a trailing one.
    pub fn extend_from_slice(&mut self, ops: &[Op]) {
        self.ops.extend_from_slice(ops);
    }

    /// Appends `Comp(cycles)`, merging with a trailing `Comp` to keep traces
    /// compact.
    pub fn comp(&mut self, cycles: u32) {
        if cycles == 0 {
            return;
        }
        if let Some(Op::Comp(c)) = self.ops.last_mut() {
            *c = c.saturating_add(cycles);
        } else {
            self.ops.push(Op::Comp(cycles));
        }
    }

    /// The operations.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

impl FromIterator<Op> for ThreadTrace {
    fn from_iter<I: IntoIterator<Item = Op>>(iter: I) -> Self {
        ThreadTrace {
            ops: iter.into_iter().collect(),
        }
    }
}

impl Extend<Op> for ThreadTrace {
    fn extend<I: IntoIterator<Item = Op>>(&mut self, iter: I) {
        self.ops.extend(iter);
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
        self.traces
            .iter()
            .flat_map(|t| t.ops())
            .filter(|op| op.addr().is_some())
            .count() as u64
    }

    /// Fraction of memory operations whose target DIMM differs from the
    /// issuing thread's home DIMM — a cheap static estimate of IDC
    /// intensity.
    pub fn remote_fraction(&self) -> f64 {
        let mut total = 0u64;
        let mut remote = 0u64;
        for (t, trace) in self.traces.iter().enumerate() {
            let home = self.home_dimm[t];
            for op in trace.ops() {
                if let Some(addr) = op.addr() {
                    total += 1;
                    if self.layout.dimm_of(addr) != home {
                        remote += 1;
                    }
                }
            }
        }
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

    #[test]
    fn extend_from_slice_copies_without_merging() {
        let mut t = ThreadTrace::new();
        t.comp(5);
        t.extend_from_slice(&[Op::Comp(2), Op::Barrier, Op::Comp(3)]);
        t.comp(1);
        assert_eq!(
            t.ops(),
            &[Op::Comp(5), Op::Comp(2), Op::Barrier, Op::Comp(4)]
        );
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
