//! A counting global allocator for tests that pin heap bytes.
//!
//! Linking this crate (a dev-dependency) installs [`Counting`] as the test
//! binary's global allocator: every allocation still goes to the system
//! allocator, and the calling thread's count of live heap bytes moves with
//! it, as does its count of allocations made. Counts are per thread, so
//! tests running in parallel do not see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting the live bytes of each thread.
pub struct Counting;

fn add(bytes: i64) {
    LIVE.with(|c| c.set(c.get() + bytes));
}

fn count_alloc() {
    ALLOCS.with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a const-initialised
// thread-local without a destructor, so touching it never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        add(layout.size() as i64);
        count_alloc();
        // SAFETY: the caller's obligations are passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        add(layout.size() as i64);
        count_alloc();
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add(-(layout.size() as i64));
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        add(new_size as i64 - layout.size() as i64);
        count_alloc();
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Heap bytes this thread has allocated and not freed.
pub fn live() -> i64 {
    LIVE.with(Cell::get)
}

/// Runs `f`, returning what it made and how many allocations (reallocations
/// included) it made, freed since or not.
pub fn allocs_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// Runs `f`, returning what it made and the heap bytes it left live.
pub fn live_after<T>(f: impl FnOnce() -> T) -> (T, i64) {
    let before = live();
    let out = f();
    (out, live() - before)
}

/// The heap bytes dropping `value` frees.
pub fn freed_by<T>(value: T) -> i64 {
    let before = live();
    drop(value);
    before - live()
}
