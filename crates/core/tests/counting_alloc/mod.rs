//! A counting global allocator for the allocation censuses: it forwards
//! every call to `System` and, on the calling thread and only while armed,
//! counts fresh blocks (`alloc`, `alloc_zeroed`) and regrown ones
//! (`realloc`). Frees are not counted.
//!
//! It lives in a test crate because the library crates
//! `#![forbid(unsafe_code)]`. `alloc_census.rs` declares it as a module;
//! `crates/bench/tests/crash_alloc_census.rs` includes this file by path.
//! An integration test is its own crate, so each gets its own
//! `#[global_allocator]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    /// Fresh blocks requested while armed.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Existing blocks regrown while armed.
    static REALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    if ARMED.with(Cell::get) {
        counter.with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are const-initialised thread-locals
// without destructors, so touching them never allocates or re-enters.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(&ALLOCS);
        // SAFETY: the caller's obligations are passed straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(&ALLOCS);
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(&REALLOCS);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` with the counters armed on this thread and returns its result
/// with `(allocations, reallocations)` made inside it.
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, (u64, u64)) {
    ALLOCS.with(|c| c.set(0));
    REALLOCS.with(|c| c.set(0));
    ARMED.with(|a| a.set(true));
    let r = f();
    ARMED.with(|a| a.set(false));
    (r, (ALLOCS.with(Cell::take), REALLOCS.with(Cell::take)))
}
