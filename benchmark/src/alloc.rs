//! A counting wrapper around the system allocator. Off, it costs one
//! relaxed load per call; only the traced run switches it on.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

/// The benchmark binary's global allocator.
pub struct Counting;

// Every counter is a statistic that publishes no other data, so
// `Relaxed` is enough throughout.
static ENABLED: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK_LIVE: AtomicU64 = AtomicU64::new(0);

fn on_alloc(size: usize) {
    if ENABLED.load(Relaxed) {
        CALLS.fetch_add(1, Relaxed);
        BYTES.fetch_add(size as u64, Relaxed);
        let live = LIVE.fetch_add(size as u64, Relaxed) + size as u64;
        PEAK_LIVE.fetch_max(live, Relaxed);
    }
}

fn on_dealloc(size: usize) {
    if ENABLED.load(Relaxed) {
        // Memory allocated before counting began may be freed now; the
        // live count saturates at zero instead of wrapping.
        let _ = LIVE.fetch_update(Relaxed, Relaxed, |live| {
            Some(live.saturating_sub(size as u64))
        });
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        on_dealloc(layout.size());
        // SAFETY: `ptr` and `layout` are the caller's, which `System`
        // itself handed out through the methods above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        on_dealloc(layout.size());
        on_alloc(new_size);
        // SAFETY: `ptr`, `layout` and `new_size` are the caller's, and
        // `ptr` came from `System` through the methods above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// What the allocator saw while counting was on.
#[derive(Debug, Clone, Copy)]
pub struct AllocCounts {
    pub calls: u64,
    pub bytes: u64,
    pub peak_live_bytes: u64,
}

/// Zero the counters and start counting.
pub fn start() {
    for counter in [&CALLS, &BYTES, &LIVE, &PEAK_LIVE] {
        counter.store(0, Relaxed);
    }
    ENABLED.store(true, Relaxed);
}

/// Stop counting and read the counters.
pub fn stop() -> AllocCounts {
    ENABLED.store(false, Relaxed);
    AllocCounts {
        calls: CALLS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
        peak_live_bytes: PEAK_LIVE.load(Relaxed),
    }
}
