//! A counting [`GlobalAlloc`] wrapper around the system allocator.
//!
//! The zero-allocation codec API (`cuszp_core::fast::compress_into` /
//! `decompress_into`) promises *no heap traffic after arena warm-up*.
//! That promise is only worth something if it is executable: install
//! [`CountingAllocator`] as the `#[global_allocator]` of a test or bench
//! binary and diff [`snapshot`]s around the call under scrutiny.
//!
//! ```
//! // In a binary / test crate root:
//! // #[global_allocator]
//! // static ALLOC: alloc_counter::CountingAllocator = alloc_counter::CountingAllocator;
//! let before = alloc_counter::snapshot();
//! let v = vec![0u8; 64];
//! drop(v);
//! let delta = alloc_counter::snapshot().since(&before);
//! // Under the counting allocator `delta.allocations` would be ≥ 1 here.
//! # let _ = delta;
//! ```
//!
//! [`snapshot`] reads process-wide counters. [`thread_snapshot`] reads
//! the calling thread's own share, which other threads of the process —
//! such as concurrently running tests in the same test binary — cannot
//! disturb; use it whenever the code under scrutiny runs on the calling
//! thread.
//!
//! Counting costs one relaxed atomic add and one thread-local add per
//! allocator call, so the allocator is cheap enough to leave installed in
//! the `repro` harness binary: throughput numbers measured under it are
//! representative.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static DEALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static REALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES_ALLOCATED: AtomicU64 = AtomicU64::new(0);

/// One thread's counters, in [`Snapshot`] field order.
type LocalCounts = [Cell<u64>; 4];

thread_local! {
    // Const-initialized and without a destructor, so touching it from
    // inside the allocator never allocates or registers anything.
    static LOCAL: LocalCounts = const {
        [Cell::new(0), Cell::new(0), Cell::new(0), Cell::new(0)]
    };
}

/// Count one allocator call in `global` and in the calling thread's
/// counter `slot`, plus the `bytes` it requested in both byte counts.
fn record(global: &AtomicU64, slot: usize, bytes: usize) {
    global.fetch_add(1, Ordering::Relaxed);
    BYTES_ALLOCATED.fetch_add(bytes as u64, Ordering::Relaxed);
    // `try_with` fails only while the thread is being torn down.
    let _ = LOCAL.try_with(|l| {
        l[slot].set(l[slot].get() + 1);
        l[3].set(l[3].get() + bytes as u64);
    });
}

/// System allocator wrapper that counts every call. Zero-sized; install
/// with `#[global_allocator]`.
pub struct CountingAllocator;

// SAFETY: delegates every operation verbatim to `System`; the counters
// are metadata only and never influence the returned pointers.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(&ALLOCATIONS, 0, layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(&ALLOCATIONS, 0, layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(&DEALLOCATIONS, 1, 0);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(&REALLOCATIONS, 2, new_size);
        System.realloc(ptr, layout, new_size)
    }
}

/// A point-in-time reading of the counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Snapshot {
    /// `alloc` + `alloc_zeroed` calls.
    pub allocations: u64,
    /// `dealloc` calls.
    pub deallocations: u64,
    /// `realloc` calls (growth of an existing block).
    pub reallocations: u64,
    /// Bytes requested across `alloc`/`alloc_zeroed`/`realloc`.
    pub bytes_allocated: u64,
}

impl Snapshot {
    /// Counter deltas since an earlier snapshot.
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        Snapshot {
            allocations: self.allocations - earlier.allocations,
            deallocations: self.deallocations - earlier.deallocations,
            reallocations: self.reallocations - earlier.reallocations,
            bytes_allocated: self.bytes_allocated - earlier.bytes_allocated,
        }
    }

    /// Total heap operations of any kind — the number that must be zero
    /// in the codec's steady state.
    pub fn heap_ops(&self) -> u64 {
        self.allocations + self.deallocations + self.reallocations
    }
}

/// Read the global counters. Counts stay zero unless [`CountingAllocator`]
/// is installed as the binary's `#[global_allocator]`.
pub fn snapshot() -> Snapshot {
    Snapshot {
        allocations: ALLOCATIONS.load(Ordering::Relaxed),
        deallocations: DEALLOCATIONS.load(Ordering::Relaxed),
        reallocations: REALLOCATIONS.load(Ordering::Relaxed),
        bytes_allocated: BYTES_ALLOCATED.load(Ordering::Relaxed),
    }
}

/// Read the calling thread's counters: allocator calls made on this
/// thread only. Stays zero unless [`CountingAllocator`] is installed.
pub fn thread_snapshot() -> Snapshot {
    LOCAL.with(|l| Snapshot {
        allocations: l[0].get(),
        deallocations: l[1].get(),
        reallocations: l[2].get(),
        bytes_allocated: l[3].get(),
    })
}

/// Whether the counters are live, i.e. the counting allocator has seen at
/// least one call. A binary using the system allocator directly reads
/// all-zero snapshots, which would make "0 allocations" assertions pass
/// vacuously — gate such assertions on this.
pub fn is_installed() -> bool {
    snapshot().heap_ops() > 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn since_subtracts() {
        let a = Snapshot {
            allocations: 10,
            deallocations: 4,
            reallocations: 1,
            bytes_allocated: 100,
        };
        let b = Snapshot {
            allocations: 13,
            deallocations: 5,
            reallocations: 1,
            bytes_allocated: 160,
        };
        let d = b.since(&a);
        assert_eq!(d.allocations, 3);
        assert_eq!(d.deallocations, 1);
        assert_eq!(d.reallocations, 0);
        assert_eq!(d.bytes_allocated, 60);
        assert_eq!(d.heap_ops(), 4);
    }
}
