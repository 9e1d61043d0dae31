//! Counting global allocator for the codec allocation audit (ported
//! from `crates/bench/benches/net_overhead.rs`).
//!
//! The count is **per thread**: the audit runs on one thread, and a
//! shared atomic bumped by every allocation of every client and server
//! thread would put a contended cache line into the workloads this
//! binary exists to measure.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // `const` initialiser and no destructor: touching it from inside
    // the allocator never allocates and never runs lazy-init code.
    static EVENTS: Cell<u64> = const { Cell::new(0) };
}

/// Pass-through [`System`] allocator that counts allocation events
/// (alloc + realloc) on the calling thread. Frees are uncounted: the
/// audit cares about heap traffic, and a free implies a prior alloc.
pub struct CountingAlloc;

fn bump() {
    // `try_with`: a thread being torn down may allocate after its
    // thread-locals are gone; those events are nobody's to audit.
    let _ = EVENTS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only added work is a
// thread-local counter bump that neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's `layout` obligations pass straight through.
        unsafe { System.alloc(layout) }
    }

    // Forwarded (not left to the default alloc-then-memset) so large
    // zeroed vectors keep `calloc`'s behaviour, as without this shim.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's `layout` obligations pass straight through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: as for `dealloc`; `new_size` is the caller's obligation.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation events on this thread since it started.
pub fn thread_events() -> u64 {
    EVENTS.with(Cell::get)
}
