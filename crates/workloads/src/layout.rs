//! Global address space and per-DIMM data placement.
//!
//! The system partitions the physical address space across DIMMs with the
//! DIMM id in the bits *above* the per-DIMM offset (the convention the
//! paper's 37-bit ADDR field assumes). Workload generators allocate their
//! arrays region-by-region on explicit DIMMs, which is how DIMM-NMP software
//! actually lays out data for the coarse-grained execution flow.

use crate::trace::Addr;

/// Address-space bytes reserved per DIMM (16 GiB, matching the modelled
/// LR-DIMM capacity; 34 offset bits + up to 6 DIMM bits < the paper's
/// 42-bit physical space).
pub const BYTES_PER_DIMM: u64 = 1 << 34;

/// The most DIMMs a layout spans: every global address then fits in the 40
/// bits of a trace [`Addr`].
pub const MAX_DIMMS: usize = (Addr::LIMIT / BYTES_PER_DIMM) as usize;

/// A contiguous allocation on one DIMM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    base: u64,
    bytes: u64,
    dimm: usize,
}

impl Region {
    /// First byte's global address.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Size in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The DIMM the region lives on.
    pub fn dimm(&self) -> usize {
        self.dimm
    }

    /// Address of the `i`-th element of `elem_bytes`-sized elements.
    ///
    /// # Panics
    /// Panics (in debug builds) if the element is out of range.
    #[inline]
    pub fn at(&self, i: u64, elem_bytes: u64) -> u64 {
        debug_assert!(
            (i + 1) * elem_bytes <= self.bytes,
            "element {i} x {elem_bytes} B exceeds region of {} B",
            self.bytes
        );
        self.base + i * elem_bytes
    }

    /// Address of the 64-byte line containing the `i`-th element.
    #[inline]
    pub fn line_of(&self, i: u64, elem_bytes: u64) -> u64 {
        self.at(i, elem_bytes) & !63
    }
}

/// Bump allocator over the partitioned global address space.
///
/// # Examples
///
/// ```
/// use dl_workloads::{DataLayout, BYTES_PER_DIMM};
///
/// let mut layout = DataLayout::new(4);
/// let a = layout.alloc(0, 1024);
/// let b = layout.alloc(2, 1024);
/// assert_eq!(layout.dimm_of(a.base()), 0);
/// assert_eq!(layout.dimm_of(b.base()), 2);
/// assert_eq!(b.base(), 2 * BYTES_PER_DIMM);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataLayout {
    dimms: usize,
    next_free: Vec<u64>,
}

impl DataLayout {
    /// Creates an empty layout over `dimms` DIMMs.
    ///
    /// # Panics
    /// Panics if `dimms` is zero or exceeds [`MAX_DIMMS`] (64).
    pub fn new(dimms: usize) -> Self {
        assert!(
            (1..=MAX_DIMMS).contains(&dimms),
            "1..={MAX_DIMMS} DIMMs supported, got {dimms}"
        );
        DataLayout {
            dimms,
            next_free: vec![0; dimms],
        }
    }

    /// Number of DIMMs.
    pub fn dimms(&self) -> usize {
        self.dimms
    }

    /// Allocates `bytes` (rounded up to a 64-byte line) on `dimm`.
    ///
    /// # Panics
    /// Panics if `dimm` is out of range or the DIMM is full.
    pub fn alloc(&mut self, dimm: usize, bytes: u64) -> Region {
        assert!(dimm < self.dimms, "DIMM {dimm} out of range");
        let bytes = bytes.div_ceil(64) * 64;
        let offset = self.next_free[dimm];
        assert!(
            offset + bytes <= BYTES_PER_DIMM,
            "DIMM {dimm} exhausted: {offset} + {bytes} > {BYTES_PER_DIMM}"
        );
        self.next_free[dimm] = offset + bytes;
        Region {
            base: dimm as u64 * BYTES_PER_DIMM + offset,
            bytes,
            dimm,
        }
    }

    /// The DIMM owning a global address.
    #[inline]
    pub fn dimm_of(&self, addr: u64) -> usize {
        let d = (addr / BYTES_PER_DIMM) as usize;
        // Allocated addresses are always in range: skip the division.
        if d < self.dimms {
            d
        } else {
            d % self.dimms
        }
    }

    /// The per-DIMM byte offset of a global address.
    #[inline]
    pub fn offset_of(&self, addr: u64) -> u64 {
        addr % BYTES_PER_DIMM
    }

    /// Bytes allocated so far on `dimm`.
    pub fn used(&self, dimm: usize) -> u64 {
        self.next_free[dimm]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_line_aligned_and_disjoint() {
        let mut l = DataLayout::new(2);
        let a = l.alloc(0, 100); // rounds to 128
        let b = l.alloc(0, 64);
        assert_eq!(a.bytes(), 128);
        assert_eq!(b.base(), a.base() + 128);
        assert_eq!(l.used(0), 192);
        assert_eq!(l.used(1), 0);
    }

    #[test]
    fn dimm_of_inverts_alloc() {
        let mut l = DataLayout::new(8);
        for d in 0..8 {
            let r = l.alloc(d, 4096);
            assert_eq!(l.dimm_of(r.base()), d);
            assert_eq!(l.dimm_of(r.at(63, 64)), d);
            assert_eq!(l.offset_of(r.base()), 0);
        }
        // An address past the last DIMM wraps around.
        assert_eq!(l.dimm_of(9 * BYTES_PER_DIMM + 64), 1);
    }

    #[test]
    fn region_indexing() {
        let mut l = DataLayout::new(1);
        let r = l.alloc(0, 1024);
        assert_eq!(r.at(3, 8), r.base() + 24);
        assert_eq!(r.line_of(9, 8), r.base() + 64);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_dimm_panics() {
        let mut l = DataLayout::new(2);
        l.alloc(2, 64);
    }

    #[test]
    #[should_panic(expected = "1..=64")]
    fn too_many_dimms_panics() {
        let _ = DataLayout::new(65);
    }

    #[test]
    fn the_last_byte_of_the_largest_layout_fits_an_addr() {
        let mut l = DataLayout::new(MAX_DIMMS);
        let top = l.alloc(MAX_DIMMS - 1, BYTES_PER_DIMM);
        let last = top.base() + top.bytes() - 1;
        assert_eq!(last, Addr::LIMIT - 1);
        assert_eq!(Addr::new(last).get(), last);
    }
}
