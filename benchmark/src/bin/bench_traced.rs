//! The traced benchmark binary: the same harness behind a counting global
//! allocator, so `process.allocs_per_op` can be reported. Used for
//! `--trace 1` runs only; end-to-end metrics never come from this binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use sdnshield_benchmark::runner::AllocStats;

struct Counting {
    allocations: AtomicU64,
    bytes: AtomicU64,
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are plain
// statistics (`Relaxed`, publishing no other data) and never influence the
// pointers returned.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.allocations.fetch_add(1, Ordering::Relaxed);
        self.bytes
            .fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System.alloc`/`realloc` with this
        // `layout`, as the caller guarantees to us.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.allocations.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: arguments are the caller's, passed through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

impl AllocStats for Counting {
    fn snapshot(&self) -> (u64, u64) {
        (
            self.allocations.load(Ordering::Relaxed),
            self.bytes.load(Ordering::Relaxed),
        )
    }
}

#[global_allocator]
static ALLOC: Counting = Counting {
    allocations: AtomicU64::new(0),
    bytes: AtomicU64::new(0),
};

fn main() {
    std::process::exit(sdnshield_benchmark::main_with(Some(&ALLOC)));
}
