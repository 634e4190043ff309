// lint: allow(H001) this library hosts the benchmark's counting global allocator, which requires unsafe GlobalAlloc
//! Pass-through global allocator that counts allocations, so the traced
//! run can report exact allocations per round (`sim.allocs_per_round`).
//! The binary installs it with `#[global_allocator]`; the count is one
//! relaxed atomic add per allocation and publishes no other data.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The counting allocator. Every call defers to [`System`].
pub struct Counting;

// SAFETY: defers entirely to `System`, passing every argument through
// unchanged; the bookkeeping is one relaxed atomic add and never
// allocates itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocations (including reallocations) made by the whole process so
/// far.
#[must_use]
pub fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}
