//! The system allocator, counting — shared by the test binaries that
//! hold a layer to "allocates nothing here" (`exec_hygiene`,
//! `pool_hygiene`). Each includes this file by path and installs
//! [`CountingAlloc`] as its `#[global_allocator]`.

// Each test binary that includes this module uses its own subset.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicUsize, Ordering};

pub struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static TRACKED: Cell<bool> = const { Cell::new(false) };
}

/// Bytes allocated less bytes freed by threads that called
/// [`track_this_thread`], from that call until they are gone —
/// destructors of their thread-locals included.
static TRACKED_NET_BYTES: AtomicI64 = AtomicI64::new(0);

/// One block's address, and whether it went back to the allocator
/// since [`watch`] named it.
static WATCHED: AtomicUsize = AtomicUsize::new(0);
static WATCHED_FREED: AtomicBool = AtomicBool::new(false);

/// Note from here on whether the block at `address` is freed.
pub fn watch(address: usize) {
    WATCHED_FREED.store(false, Ordering::Relaxed);
    WATCHED.store(address, Ordering::Relaxed);
}

pub fn watched_block_was_freed() -> bool {
    WATCHED_FREED.load(Ordering::Relaxed)
}

/// Allocations the calling thread has made so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.get()
}

/// Count the calling thread's allocations and frees into
/// [`tracked_net_bytes`] from here on.
pub fn track_this_thread() {
    TRACKED.set(true);
}

pub fn tracked_net_bytes() -> i64 {
    TRACKED_NET_BYTES.load(Ordering::Relaxed)
}

// SAFETY: every call is forwarded unchanged to `System`; the counters
// are const-initialised thread-locals without a destructor (readable
// for as long as the thread runs anything) and a static, so touching
// them neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        if TRACKED.get() {
            TRACKED_NET_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        }
        // SAFETY: the caller's contract, passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ptr as usize == WATCHED.load(Ordering::Relaxed) {
            WATCHED_FREED.store(true, Ordering::Relaxed);
        }
        if TRACKED.get() {
            TRACKED_NET_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        }
        // SAFETY: the caller's contract, passed on.
        unsafe { System.dealloc(ptr, layout) }
    }
}
