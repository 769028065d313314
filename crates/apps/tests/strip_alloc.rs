//! `strip_dist` allocates per call, never per start column: with the
//! runtime pinned to one thread and the scratch pool warm, one call
//! makes the same number of heap allocations at `n = 64` as at
//! `n = 256` (the cost tables, the output buffer and the task list).
//!
//! The counting `#[global_allocator]` lives in its own test binary
//! because wrapping `System` requires `unsafe`, which the library
//! forbids. The binary holds a single test, so no other test thread
//! allocates through the counter while a measurement is in flight.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use monge_apps::string_edit::{strip_dist, CostModel};

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn letters(n: usize, offset: usize) -> Vec<u8> {
    (0..n)
        .map(|i| b'a' + ((i * 7 + offset) % 4) as u8)
        .collect()
}

/// Allocations made by one warm `strip_dist` call on a strip of height
/// 12 against a string of length `n`. A warm-up call first grows the
/// pooled row buffers to this `n`; the count is the minimum over three
/// calls after it.
fn allocations_per_call(n: usize) -> u64 {
    let (xs, y, c) = (letters(12, 1), letters(n, 3), CostModel::unit());
    drop(strip_dist(&xs, &y, &c));
    (0..3)
        .map(|_| {
            let before = ALLOC_CALLS.load(Ordering::Relaxed);
            let d = strip_dist(&xs, &y, &c);
            let after = ALLOC_CALLS.load(Ordering::Relaxed);
            drop(d);
            after - before
        })
        .min()
        .expect("three measured calls")
}

#[test]
fn strip_dist_allocations_do_not_grow_with_n() {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("a one-thread pool builds");
    let (small, large) = pool.install(|| (allocations_per_call(64), allocations_per_call(256)));
    assert_eq!(
        small, large,
        "strip_dist allocations grew with n: {small} at n = 64, {large} at n = 256"
    );
    assert!(small < 64, "{small} allocations for 65 start columns");
}
