//! A counting global allocator for the allocation censuses: it forwards
//! every call to `System` and, on the calling thread and only while armed,
//! counts fresh blocks (`alloc`, `alloc_zeroed`) and regrown ones
//! (`realloc`), and nets the bytes requested against the bytes freed
//! (a `realloc` counts its change in size). Frees are not counted as
//! calls.
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
    /// Bytes allocated minus bytes freed while armed.
    static NET_BYTES: Cell<i64> = const { Cell::new(0) };
}

struct Counting;

/// Books one call on `calls` (a free books none) and `bytes` of net
/// growth, when armed.
fn book(calls: Option<&'static std::thread::LocalKey<Cell<u64>>>, bytes: i64) {
    if ARMED.with(Cell::get) {
        if let Some(calls) = calls {
            calls.with(|c| c.set(c.get() + 1));
        }
        NET_BYTES.with(|c| c.set(c.get() + bytes));
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are const-initialised thread-locals
// without destructors, so touching them never allocates or re-enters.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        book(Some(&ALLOCS), layout.size() as i64);
        // SAFETY: the caller's obligations are passed straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        book(None, -(layout.size() as i64));
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        book(Some(&ALLOCS), layout.size() as i64);
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        book(Some(&REALLOCS), new_size as i64 - layout.size() as i64);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What [`counted`] saw on its thread.
#[derive(Debug, Clone, Copy)]
pub struct Counts {
    /// Fresh blocks allocated.
    pub allocs: u64,
    /// Existing blocks regrown.
    pub reallocs: u64,
    /// Bytes allocated minus bytes freed: what the run left live.
    pub net_bytes: i64,
}

/// Runs `f` with the counters armed on this thread and returns its result
/// with what was allocated inside it.
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, Counts) {
    ALLOCS.with(|c| c.set(0));
    REALLOCS.with(|c| c.set(0));
    NET_BYTES.with(|c| c.set(0));
    ARMED.with(|a| a.set(true));
    let r = f();
    ARMED.with(|a| a.set(false));
    let counts = Counts {
        allocs: ALLOCS.with(Cell::take),
        reallocs: REALLOCS.with(Cell::take),
        net_bytes: NET_BYTES.with(Cell::take),
    };
    (r, counts)
}
