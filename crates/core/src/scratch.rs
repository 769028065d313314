//! Thread-local, grow-only scratch-buffer arenas.
//!
//! Every divide & conquer engine in this workspace bottoms out in leaves
//! that need short-lived buffers: the batched interval scans fill a
//! `Vec<T>`, SMAWK's REDUCE keeps a column stack, the staircase engine
//! merges candidate vectors. Allocating those per call puts the global
//! allocator on the hot path of every recursion leaf — and under rayon
//! the allocations happen on whatever worker thread stole the job, so
//! they also contend on the allocator's shared state.
//!
//! The arena here removes that cost without threading `&mut Vec<T>`
//! through every API: each thread owns a pool of recycled buffers keyed
//! by element type, and [`with_scratch`] checks one out for the duration
//! of a closure. Buffers are **grow-only** — a checkout never shrinks or
//! frees capacity — so once the pool has warmed up to a workload's
//! buffer sizes and recursion depth, steady-state checkouts perform
//! **zero heap allocations**. (The `alloc_free` regression test in
//! `monge-parallel` pins this with a counting global allocator.)
//!
//! Nested checkouts of the same element type are fine: each nesting
//! level pops a distinct buffer, so a recursion of depth `d` settles at
//! `d` pooled buffers per thread. A checked-out buffer arrives with
//! **unspecified contents** (valid elements left over from its previous
//! user, arbitrary length): callers that overwrite — like
//! [`crate::Array2d::fill_row`] consumers — use it as-is, and callers
//! that need an empty vector call `clear()` first. Not clearing on
//! checkout is deliberate: the batched scans never read stale entries,
//! and skipping the clear keeps the length warm so
//! [`crate::eval`]'s grow-only `resize` is a no-op in steady state.
//!
//! Pool storage is type-erased through `Box<dyn Any>`; check-in moves
//! the already-heap-allocated box back into the pool, so recycling
//! itself allocates nothing after the first use.

use std::any::{Any, TypeId};
use std::cell::RefCell;
use std::collections::HashMap;

use crate::state::{self, Tally};

thread_local! {
    static POOLS: RefCell<HashMap<TypeId, Vec<Box<dyn Any>>>> =
        RefCell::new(HashMap::new());
}

/// Arena checkouts ([`with_scratch2`] counts two) on the calling thread
/// and the forks it joined ([`crate::state`]).
pub fn checkout_count() -> u64 {
    state::tally().checkouts
}

/// Runs `f` with a scratch vector checked out of this thread's pool,
/// returning the buffer (and its grown capacity) afterwards. The buffer
/// arrives with unspecified contents — `clear()` it if you need it
/// empty.
///
/// ```
/// use monge_core::scratch::with_scratch;
///
/// let sum: i64 = with_scratch(|buf: &mut Vec<i64>| {
///     buf.clear();
///     buf.extend(0..100);
///     buf.iter().sum()
/// });
/// assert_eq!(sum, 4950);
/// // A second checkout reuses the first buffer's capacity.
/// with_scratch(|buf: &mut Vec<i64>| {
///     assert!(buf.capacity() >= 100);
/// });
/// ```
pub fn with_scratch<T: 'static, R>(f: impl FnOnce(&mut Vec<T>) -> R) -> R {
    state::add(Tally {
        checkouts: 1,
        ..Tally::default()
    });
    let key = TypeId::of::<Vec<T>>();
    let mut boxed: Box<dyn Any> = POOLS
        .with(|p| p.borrow_mut().get_mut(&key).and_then(Vec::pop))
        .unwrap_or_else(|| Box::new(Vec::<T>::new()));
    let buf = boxed
        .downcast_mut::<Vec<T>>()
        .expect("pool entries are keyed by their exact Vec<T> TypeId");
    let r = f(buf);
    POOLS.with(|p| p.borrow_mut().entry(key).or_default().push(boxed));
    r
}

/// Two independent scratch vectors at once (a common leaf shape: one
/// value buffer plus one index buffer). Equivalent to nesting two
/// [`with_scratch`] calls.
pub fn with_scratch2<T: 'static, U: 'static, R>(
    f: impl FnOnce(&mut Vec<T>, &mut Vec<U>) -> R,
) -> R {
    with_scratch(|t| with_scratch(|u| f(t, u)))
}

/// How many buffers of element type `T` this thread's pool currently
/// holds (checked-in only). Exposed for the allocation-regression tests.
pub fn pooled_buffers<T: 'static>() -> usize {
    POOLS.with(|p| p.borrow().get(&TypeId::of::<Vec<T>>()).map_or(0, Vec::len))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_keeps_capacity() {
        with_scratch(|b: &mut Vec<u64>| {
            b.clear();
            b.extend(0..1000)
        });
        with_scratch(|b: &mut Vec<u64>| {
            assert!(b.capacity() >= 1000);
        });
    }

    #[test]
    fn nested_checkouts_get_distinct_buffers() {
        with_scratch(|outer: &mut Vec<i64>| {
            outer.clear();
            outer.push(1);
            with_scratch(|inner: &mut Vec<i64>| {
                inner.clear();
                inner.push(2);
                assert_eq!(outer, &[1]);
                assert_eq!(inner, &[2]);
            });
        });
        assert!(pooled_buffers::<i64>() >= 2);
    }

    #[test]
    fn distinct_types_use_distinct_pools() {
        with_scratch2(|a: &mut Vec<i64>, b: &mut Vec<usize>| {
            a.clear();
            b.clear();
            a.push(-1);
            b.push(1);
        });
        assert!(pooled_buffers::<i64>() >= 1);
        assert!(pooled_buffers::<usize>() >= 1);
    }

    #[test]
    fn pool_depth_is_bounded_by_nesting_not_call_count() {
        fn depth3() {
            with_scratch(|_: &mut Vec<u8>| {
                with_scratch(|_: &mut Vec<u8>| {
                    with_scratch(|_: &mut Vec<u8>| {});
                });
            });
        }
        depth3();
        let after_first = pooled_buffers::<u8>();
        for _ in 0..100 {
            depth3();
        }
        assert_eq!(pooled_buffers::<u8>(), after_first);
    }
}
