//! A counting test allocator for allocation-regression tests.
//!
//! The reconstruction hot path is designed to be allocation-free in steady
//! state (ISSUE 4): every per-iteration buffer is pooled at solver `init` and
//! reused. That property silently rots unless it is pinned, so this crate
//! provides a [`CountingAllocator`] — a thin wrapper over the system
//! allocator that counts every `alloc`/`realloc` — which a test binary
//! installs as its `#[global_allocator]` and then asserts that extra
//! steady-state iterations add **zero** to the count
//! (`tests/alloc_regression.rs` at the workspace root).
//!
//! Only test binaries depend on this crate (the root package lists it under
//! `[dev-dependencies]`), so no library or benchmark build compiles it.
//!
//! # Example
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: ptycho_alloc::CountingAllocator = ptycho_alloc::CountingAllocator::new();
//!
//! let before = ALLOC.allocations();
//! hot_path();
//! assert_eq!(ALLOC.allocations(), before, "hot path must not allocate");
//! ```

#![warn(missing_docs)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// A global allocator that forwards to [`System`] while counting every
/// allocation event.
///
/// The counter uses relaxed atomics: the tests that read it bracket
/// single-threaded (or deterministically scheduled) regions, so no ordering
/// stronger than the bracketing reads themselves is needed.
pub struct CountingAllocator {
    allocations: AtomicU64,
}

impl CountingAllocator {
    /// Creates an allocator with a zeroed counter (usable in `static` position).
    pub const fn new() -> Self {
        Self {
            allocations: AtomicU64::new(0),
        }
    }

    /// Total allocation events (`alloc`, `alloc_zeroed` and `realloc` each
    /// count as one) since process start.
    pub fn allocations(&self) -> u64 {
        self.allocations.load(Ordering::Relaxed)
    }

    fn record(&self) {
        self.allocations.fetch_add(1, Ordering::Relaxed);
    }
}

impl Default for CountingAllocator {
    fn default() -> Self {
        Self::new()
    }
}

// SAFETY: every method forwards verbatim to the `System` allocator; the
// counter update has no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.record();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.record();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.record();
        System.realloc(ptr, layout, new_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Not installed as the global allocator here (the regression test binary
    // does that); exercise the counter plumbing directly.
    #[test]
    fn counters_track_direct_calls() {
        let counter = CountingAllocator::new();
        assert_eq!(counter.allocations(), 0);
        let layout = Layout::from_size_align(64, 8).unwrap();
        unsafe {
            let p = counter.alloc(layout);
            assert!(!p.is_null());
            let p = counter.realloc(p, layout, 128);
            assert!(!p.is_null());
            counter.dealloc(p, Layout::from_size_align(128, 8).unwrap());
        }
        assert_eq!(counter.allocations(), 2);
    }
}
