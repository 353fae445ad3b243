//! A counting `#[global_allocator]`: forwards every call to `System`
//! and tallies allocation calls and bytes requested, process-wide.
//!
//! Heap-allocation counts are the one cost metric that repeats exactly
//! on this sandbox for a given seed (host time alternates between a
//! quiet and a ≈1.4× slow mode), so `allocs_per_inj` /
//! `alloc_kb_per_inj` resolve changes that host time cannot.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`) so far.
static CALLS: AtomicU64 = AtomicU64::new(0);
/// Bytes requested by those calls (`realloc` counts its new size).
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The allocator installed by `main.rs`.
pub struct Counting;

fn note(bytes: usize) {
    // Relaxed: the counters publish no other data; readers only take
    // differences on the thread that bracketed the measured call (the
    // engine joins its workers before returning).
    CALLS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

// The package's single unsafe site (the workspace's second audited one
// after `svc::poll`): a `#[global_allocator]` can only be written as an
// `unsafe impl`, and the counters cannot live anywhere else without
// editing the engine crates.
//
// SAFETY: each method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only added work is two
// atomic increments, which neither allocate nor unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` obligations pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via the methods of this impl.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr`/`layout` came from `System` via this impl, and
        // the caller guarantees `new_size` is valid for `layout.align()`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// A reading of both counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Heap {
    /// Allocation calls.
    pub calls: u64,
    /// Bytes requested.
    pub bytes: u64,
}

impl Heap {
    /// The counters now.
    pub fn now() -> Heap {
        Heap {
            calls: CALLS.load(Ordering::Relaxed),
            bytes: BYTES.load(Ordering::Relaxed),
        }
    }

    /// Calls and bytes since `earlier`.
    pub fn since(earlier: Heap) -> Heap {
        let now = Heap::now();
        Heap {
            calls: now.calls - earlier.calls,
            bytes: now.bytes - earlier.bytes,
        }
    }
}

impl std::ops::AddAssign for Heap {
    fn add_assign(&mut self, rhs: Heap) {
        self.calls += rhs.calls;
        self.bytes += rhs.bytes;
    }
}
