//! A counting global allocator (std only).
//!
//! It forwards every call to [`System`] and keeps two tallies, each
//! switched on only where it is needed: net and peak heap growth (for
//! `peak_heap_mb`, on untimed passes and steps), and allocation counts,
//! process-wide and per thread (traced runs). With both off, an
//! allocation costs two relaxed loads of flags no thread writes while
//! timing runs, so timed work never contends on the tallies. It never
//! draws a random number or touches program state, so it cannot
//! perturb a result.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicU64, Ordering};

/// The allocator installed by `main.rs`.
pub struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(false);
static TOTAL: AtomicU64 = AtomicU64::new(0);
static TRACKING: AtomicBool = AtomicBool::new(false);
/// Bytes allocated minus bytes freed since tracking started (a block
/// allocated earlier and freed meanwhile counts negative).
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

thread_local! {
    // `const` init without `Drop`: reading it never allocates, so the
    // allocator may touch it from inside `alloc`.
    static THREAD: Cell<u64> = const { Cell::new(0) };
}

fn grow(size: usize) {
    if TRACKING.load(Ordering::Relaxed) {
        let size = size as isize;
        let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
        if live > PEAK.load(Ordering::Relaxed) {
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
    }
    if COUNTING.load(Ordering::Relaxed) {
        TOTAL.fetch_add(1, Ordering::Relaxed);
        let _ = THREAD.try_with(|c| c.set(c.get() + 1));
    }
}

fn shrink(size: usize) {
    if TRACKING.load(Ordering::Relaxed) {
        LIVE.fetch_sub(size as isize, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's layout
// and pointer unchanged; the bookkeeping only updates atomics and a
// const thread-local, neither of which allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        shrink(layout.size());
        grow(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

/// Turns allocation counting on or off (the traced run only).
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations counted on all threads so far.
pub fn total() -> u64 {
    TOTAL.load(Ordering::Relaxed)
}

/// Allocations counted on the calling thread so far.
pub fn on_thread() -> u64 {
    THREAD.with(Cell::get)
}

/// Starts tracking heap growth from zero.
pub fn start_heap() {
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    TRACKING.store(true, Ordering::Relaxed);
}

/// Stops tracking and returns the highest net heap growth since
/// [`start_heap`], in MiB.
pub fn stop_heap() -> f64 {
    TRACKING.store(false, Ordering::Relaxed);
    PEAK.load(Ordering::Relaxed).max(0) as f64 / (1024.0 * 1024.0)
}
