//! A counting `#[global_allocator]`: allocations and bytes requested by
//! every thread except those that opted out (the load generator), counted
//! only while a traced run has switched counting on.
//!
//! Installed in the benchmark binary, so it sees the allocations the relay,
//! simulator and codec make inside this process without touching them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialised and without a destructor, so reading it inside the
    // allocator never allocates or registers a TLS destructor.
    static EXCLUDED: Cell<bool> = const { Cell::new(false) };
}

/// The allocator type; `main.rs` installs one as the global allocator.
pub struct Counting;

fn note(size: usize) {
    // Statistics only: Relaxed publishes nothing else.
    if ENABLED.load(Ordering::Relaxed) && !EXCLUDED.try_with(Cell::get).unwrap_or(true) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged; the counters are side effects that touch no allocator
// state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Switches counting on or off (off by default, so measured runs pay one
/// relaxed load per allocation).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Excludes the calling thread from the counts (the generator thread).
pub fn exclude_this_thread() {
    EXCLUDED.with(|e| e.set(true));
}

/// `(allocations, bytes)` counted so far.
pub fn snapshot() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}

/// Runs `f` on the calling thread with counting on and the thread included,
/// returning `(allocations, bytes)` it made.  For single-threaded probes.
pub fn count<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let was_excluded = EXCLUDED.with(|e| e.replace(false));
    let was_enabled = ENABLED.swap(true, Ordering::Relaxed);
    let (a0, b0) = snapshot();
    let out = f();
    let (a1, b1) = snapshot();
    ENABLED.store(was_enabled, Ordering::Relaxed);
    EXCLUDED.with(|e| e.set(was_excluded));
    (out, a1 - a0, b1 - b0)
}
