//! A global allocator that counts, per thread, the allocations made
//! (reallocations included), the bytes they ask for and the largest
//! single request, so the tests of one binary, which the harness runs
//! on parallel threads, do not see each other's allocations.
//!
//! A suite that counts installs it with its own one-line
//! `#[global_allocator] static ALLOC: CountingAlloc = CountingAlloc;`:
//! installed here, it would be every suite's allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

pub struct CountingAlloc;

thread_local! {
    static COUNT: Cell<usize> = const { Cell::new(0) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
    /// The largest single request since the last [`largest_since`].
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // A thread being torn down has no counters left; its allocations
    // belong to no test.
    let _ = COUNT.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|b| b.set(b.get() + size));
    let _ = LARGEST.try_with(|max| max.set(max.get().max(size)));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are plain `Cell`s with const
// initialisers, so noting a request never allocates, unwinds or runs a
// destructor.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from `System` with `layout`; `new_size` is
        // the caller's responsibility under the `GlobalAlloc` contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations this thread has made so far.
pub fn allocs() -> usize {
    COUNT.with(Cell::get)
}

/// The largest request this thread made since the last call.
pub fn largest_since() -> usize {
    LARGEST.with(|max| max.replace(0))
}

/// The largest single allocation `f` asks for on this thread.
pub fn peak_alloc_of(f: impl FnOnce()) -> usize {
    largest_since();
    f();
    largest_since()
}

/// Allocations `f` makes on this thread, and the bytes they ask for.
pub fn allocs_and_bytes_of(f: impl FnOnce()) -> (usize, usize) {
    let before = (allocs(), BYTES.with(Cell::get));
    f();
    (allocs() - before.0, BYTES.with(Cell::get) - before.1)
}

/// Allocations `f` makes on this thread.
pub fn allocs_of(f: impl FnOnce()) -> usize {
    allocs_and_bytes_of(f).0
}
