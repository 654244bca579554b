//! The benchmark's own counting allocator.
//!
//! Every `alloc`, `alloc_zeroed` and `realloc` bumps one process-wide
//! counter; `dealloc` is not counted. The question the count answers is
//! "how often does this path call the allocator", so `alloc.per_auth` and
//! `alloc.per_event` are allocator calls per unit of work.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static CALLS: AtomicU64 = AtomicU64::new(0);

/// Forwards to [`System`], counting calls.
pub struct Counting;

// SAFETY: every method defers to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter update
// touches no memory the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        // SAFETY: `ptr`/`layout` came from this allocator (i.e. `System`)
        // and the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocator calls since process start.
pub fn calls() -> u64 {
    CALLS.load(Relaxed)
}
