//! Counting wrapper around the system allocator.
//!
//! Install [`CountingAlloc`] as the `#[global_allocator]` of a test or
//! benchmark binary to make heap behaviour observable:
//!
//! * [`thread_alloc_calls`] / [`thread_free_calls`] — allocator calls made
//!   and blocks freed by the current thread, the zero-allocation guard used
//!   by the steady-state suites (the counters are `Cell<u64>`s, so reading
//!   one cannot itself allocate or recurse into the allocator);
//! * [`thread_alloc_bytes`] / [`take_thread_largest_alloc`] — bytes this thread
//!   requested and the largest single block among them, which state an
//!   allocation budget ("one buffer, no second copy") as a test;
//! * [`bytes_in_use`] / [`peak_bytes_in_use`] — process-wide resident
//!   bytes and their high-water mark, for memory reports;
//! * [`total_allocated_bytes`] — cumulative bytes ever requested, whose
//!   deltas measure how much a code path copies (e.g. bytes copied per
//!   reconfiguration flap).
//!
//! The counters are plain relaxed atomics: cross-thread readings are
//! racy-but-monotonic snapshots, which is all trajectory reporting needs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

thread_local! {
    /// This thread's requests: how many, their bytes, the largest one; and
    /// the blocks it freed.
    static THREAD: (Cell<u64>, Cell<u64>, Cell<usize>, Cell<u64>) =
        const { (Cell::new(0), Cell::new(0), Cell::new(0), Cell::new(0)) };
}

static BYTES_IN_USE: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES_IN_USE: AtomicUsize = AtomicUsize::new(0);
static TOTAL_ALLOCATED: AtomicU64 = AtomicU64::new(0);

/// Allocator calls (alloc / alloc_zeroed / realloc) made by this thread
/// since it started. Frees are not counted: the steady-state guards pin
/// "no new memory requested", and a free cannot request memory.
pub fn thread_alloc_calls() -> u64 {
    THREAD.with(|t| t.0.get())
}

/// Blocks this thread has freed (dealloc) since it started.
pub fn thread_free_calls() -> u64 {
    THREAD.with(|t| t.3.get())
}

/// Bytes requested (alloc / alloc_zeroed / realloc's new size) by this
/// thread since it started.
pub fn thread_alloc_bytes() -> u64 {
    THREAD.with(|t| t.1.get())
}

/// The largest single block this thread requested since it started or last
/// called this (reading restarts it at zero).
pub fn take_thread_largest_alloc() -> usize {
    THREAD.with(|t| t.2.replace(0))
}

/// Bytes currently allocated process-wide.
pub fn bytes_in_use() -> usize {
    BYTES_IN_USE.load(Ordering::Relaxed)
}

/// High-water mark of [`bytes_in_use`] since process start (or the last
/// [`reset_peak`]).
pub fn peak_bytes_in_use() -> usize {
    PEAK_BYTES_IN_USE.load(Ordering::Relaxed)
}

/// Resets the high-water mark to the current usage, so a measurement
/// window reports its own peak rather than setup's.
pub fn reset_peak() {
    PEAK_BYTES_IN_USE.store(bytes_in_use(), Ordering::Relaxed);
}

/// Cumulative bytes ever requested from the allocator, process-wide.
pub fn total_allocated_bytes() -> u64 {
    TOTAL_ALLOCATED.load(Ordering::Relaxed)
}

fn on_alloc(bytes: usize) {
    THREAD.with(|t| {
        t.0.set(t.0.get() + 1);
        t.1.set(t.1.get() + bytes as u64);
        t.2.set(t.2.get().max(bytes));
    });
    TOTAL_ALLOCATED.fetch_add(bytes as u64, Ordering::Relaxed);
    let in_use = BYTES_IN_USE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK_BYTES_IN_USE.fetch_max(in_use, Ordering::Relaxed);
}

fn on_free(bytes: usize) {
    BYTES_IN_USE.fetch_sub(bytes, Ordering::Relaxed);
}

/// Byte- and call-counting [`GlobalAlloc`] wrapping [`System`].
pub struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        on_alloc(new_size);
        on_free(layout.size());
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        THREAD.with(|t| t.3.set(t.3.get() + 1));
        on_free(layout.size());
        System.dealloc(ptr, layout)
    }
}
