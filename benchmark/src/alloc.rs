//! A counting global allocator, installed by the benchmark binary and by
//! the `alloc_repeat` test.
//!
//! Counting is off unless a [`Scope`] is alive, so the untraced
//! end-to-end runs pay one relaxed load per allocation and nothing else.
//! While a scope is alive every `alloc`/`alloc_zeroed`/`realloc` bumps a
//! per-thread stripe: `field_sharded` allocates from two worker threads
//! at once, and a single shared counter would put a contended cache line
//! into the region being measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};

const STRIPES: usize = 8;

#[repr(align(64))]
struct Stripe {
    allocs: AtomicU64,
    bytes: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)]
const ZERO: Stripe = Stripe {
    allocs: AtomicU64::new(0),
    bytes: AtomicU64::new(0),
};
static COUNTERS: [Stripe; STRIPES] = [ZERO; STRIPES];
static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // const-initialised and without a destructor, so touching it from
    // inside the allocator neither allocates nor registers a dtor.
    static SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn count(bytes: usize) {
    if !ENABLED.load(Relaxed) {
        return;
    }
    let slot = SLOT.with(|s| {
        if s.get() == usize::MAX {
            s.set(NEXT_SLOT.fetch_add(1, Relaxed) % STRIPES);
        }
        s.get()
    });
    COUNTERS[slot].allocs.fetch_add(1, Relaxed);
    COUNTERS[slot].bytes.fetch_add(bytes as u64, Relaxed);
}

/// The system allocator plus the counters above.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting around the
// call touches only atomics and a const-initialised thread-local.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are passed through as-is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocation calls and requested bytes counted inside one [`Scope`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocCount {
    /// `alloc` + `alloc_zeroed` + `realloc` calls.
    pub allocs: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
}

fn totals() -> AllocCount {
    COUNTERS
        .iter()
        .fold(AllocCount::default(), |acc, s| AllocCount {
            allocs: acc.allocs + s.allocs.load(Relaxed),
            bytes: acc.bytes + s.bytes.load(Relaxed),
        })
}

/// Turns counting on for a timed region; [`Scope::finish`] turns it off
/// and returns what the region allocated. Scopes do not nest, and a
/// binary that did not install [`CountingAlloc`] reads zeros.
pub struct Scope {
    start: AllocCount,
}

impl Scope {
    /// Starts counting.
    pub fn begin() -> Scope {
        let start = totals();
        ENABLED.store(true, Relaxed);
        Scope { start }
    }

    /// Stops counting and returns the difference since [`Scope::begin`].
    pub fn finish(self) -> AllocCount {
        ENABLED.store(false, Relaxed);
        let end = totals();
        AllocCount {
            allocs: end.allocs - self.start.allocs,
            bytes: end.bytes - self.start.bytes,
        }
    }
}
