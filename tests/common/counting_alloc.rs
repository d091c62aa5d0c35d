//! A counting global allocator for the allocation-budget tests. Each budget
//! test is a binary of its own (the counters are process-wide), installs
//! [`Counting`] as its `#[global_allocator]`, and reads the counters around
//! the measured job.

// Each test binary uses a different subset of the counters.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Counts every allocation and reallocation, and separately those of at
/// least [`count_large_from`] bytes; frees are not counted.
pub struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LARGE_ALLOCS: AtomicU64 = AtomicU64::new(0);
static LARGE_MIN: AtomicUsize = AtomicUsize::new(usize::MAX);

/// Allocations and reallocations so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Allocations and reallocations of at least [`count_large_from`] bytes.
pub fn large_allocs() -> u64 {
    LARGE_ALLOCS.load(Ordering::Relaxed)
}

/// Sets the size from which [`large_allocs`] counts (default: never).
pub fn count_large_from(bytes: usize) {
    LARGE_MIN.store(bytes, Ordering::Relaxed);
}

fn count(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    if size >= LARGE_MIN.load(Ordering::Relaxed) {
        LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, so `Counting` upholds exactly the contract `System` does.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}
