//! A counting wrapper around the system allocator.
//!
//! It counts allocation calls and requested bytes, so the traced run can
//! report how much a layer allocates. The simulator is deterministic and
//! the benchmark runs it on one thread, so these counts repeat exactly from
//! run to run for the same inputs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The benchmark binary's global allocator.
pub struct Counting;

static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    // Relaxed: the counters are statistics and publish no other data.
    CALLS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is bumping two
// atomic counters, which neither allocates nor touches the returned memory.
// dl-analyze: allow(unsafe-code) — a global allocator can only be written as an unsafe impl
unsafe impl GlobalAlloc for Counting {
    // dl-analyze: allow(unsafe-code) — forwards to System::alloc with the caller's layout
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    // dl-analyze: allow(unsafe-code) — forwards to System::alloc_zeroed with the caller's layout
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    // dl-analyze: allow(unsafe-code) — forwards to System::dealloc with the caller's pointer and layout
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // dl-analyze: allow(unsafe-code) — forwards to System::realloc with the caller's pointer and layout
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocation calls and requested bytes so far (a realloc counts as one
/// call requesting its new size).
#[derive(Debug, Clone, Copy, Default)]
pub struct Snapshot {
    pub calls: u64,
    pub bytes: u64,
}

impl Snapshot {
    pub fn now() -> Self {
        Snapshot {
            calls: CALLS.load(Ordering::Relaxed),
            bytes: BYTES.load(Ordering::Relaxed),
        }
    }

    /// What was allocated between `earlier` and `self`.
    pub fn since(self, earlier: Snapshot) -> Snapshot {
        Snapshot {
            calls: self.calls - earlier.calls,
            bytes: self.bytes - earlier.bytes,
        }
    }
}
