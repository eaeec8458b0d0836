//! A counting allocator for the benchmark binary: live and peak heap
//! bytes, so memory is an end-to-end metric and bed builds can be sized.
//! The library crates under test never see it; only `main.rs` (and the
//! integration tests) install it with `#[global_allocator]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// `System` plus two relaxed counters.
pub struct CountingAlloc;

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    // A plain load first: `fetch_max` is a locked instruction even when it
    // changes nothing, and almost every allocation is below the peak.
    if live > PEAK.load(Ordering::Relaxed) {
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System` and
// returns `System`'s result; the counters are statistics that publish no
// other data, so they cannot break an allocator invariant.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    // Forwarded so `vec![0; n]` keeps getting lazily zeroed pages, as it
    // does under the default allocator (`RouteCache::new` relies on it).
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grew(new_size);
        }
        new_ptr
    }
}

/// Bytes currently allocated (0 when the allocator is not installed).
pub fn live_bytes() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// Highest value [`live_bytes`] has reached in this process.
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Forget the peak so far: the next [`peak_bytes`] covers only what
/// happens from now on (one workload of a multi-workload run).
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}
