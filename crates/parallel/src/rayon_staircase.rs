//! Multithreaded row minima of staircase-Monge arrays.
//!
//! Parallelization of the feasible-region divide & conquer (the
//! shared-memory analogue of the paper's Theorem 2.3): the middle row's
//! minimum splits the remaining rows into
//!
//! * an upper *Monge region* and an upper *staircase region* beyond the
//!   middle row's boundary (Figure 2.2's `F`-regions), whose candidates
//!   are combined by value, and
//! * two disjoint lower subproblems.
//!
//! Subproblems fork through [`crate::runtime::join`]; the overlapping
//! upper regions write into separate buffers that are merged in parallel. Grain sizes
//! come from the [`Tuning`] value threaded through every call, and all
//! scratch (scan buffers, the upper-region merge buffer, fork-boundary
//! checkouts) comes from the thread-local arena of
//! [`monge_core::scratch`].

use crate::rayon_monge::interval_argmin;
use crate::runtime::join;
use crate::tuning::Tuning;
use monge_core::array2d::Array2d;
use monge_core::scratch::{with_scratch, with_scratch2};
use monge_core::tiebreak::merge_min_candidate as merge_candidate;
use monge_core::value::Value;

type Cand<T> = Option<(T, usize)>;

/// Parallel leftmost row minima of a staircase-Monge array with boundary
/// `f` (see [`monge_core::staircase::compute_boundary`]), with explicit
/// tuning.
pub fn par_staircase_row_minima_with<T: Value, A: Array2d<T>>(
    a: &A,
    f: &[usize],
    t: Tuning,
) -> Vec<usize> {
    let m = a.rows();
    assert_eq!(f.len(), m);
    if m == 0 {
        return Vec::new();
    }
    assert!(a.cols() > 0);
    with_scratch2(|best: &mut Vec<Cand<T>>, scratch: &mut Vec<T>| {
        best.clear();
        best.resize(m, None);
        rec(a, f, 0, m, 0, a.cols(), best, scratch, t);
        best.iter().map(|b| b.map_or(0, |(_, j)| j)).collect()
    })
}

/// [`par_staircase_row_minima_with`] with environment-seeded tuning.
pub fn par_staircase_row_minima<T: Value, A: Array2d<T>>(a: &A, f: &[usize]) -> Vec<usize> {
    par_staircase_row_minima_with(a, f, Tuning::from_env())
}

/// `out` covers rows `r0..r1` (index `i - r0`).
#[allow(clippy::too_many_arguments)]
fn rec<T: Value, A: Array2d<T>>(
    a: &A,
    f: &[usize],
    r0: usize,
    mut r1: usize,
    c0: usize,
    c1: usize,
    out: &mut [Cand<T>],
    scratch: &mut Vec<T>,
    t: Tuning,
) {
    monge_core::guard::checkpoint();
    r1 = partition_point(r0, r1, |i| f[i] > c0);
    if r0 >= r1 || c0 >= c1 {
        return;
    }
    let mid = r0 + (r1 - r0) / 2;
    let hi = c1.min(f[mid]);
    // Batched scan of the middle row (parallel chunks when wide).
    let (best, best_v) = interval_argmin(a, mid, c0, hi, scratch, t);
    merge_candidate(&mut out[mid - r0], best_v, best);

    let cut = partition_point(mid + 1, r1, |i| f[i] > best);
    let parallel = r1 - r0 > t.seq_rows.max(1);

    let (above, rest) = out.split_at_mut(mid - r0);
    let below = &mut rest[1..];
    let (below_hi, below_lo) = below.split_at_mut(cut - (mid + 1));

    let upper = |above: &mut [Cand<T>], scratch: &mut Vec<T>| {
        // Monge region left of the middle minimum.
        rec(a, f, r0, mid, c0, best + 1, above, scratch, t);
        // Staircase region beyond the middle row's boundary, merged in.
        if f[mid] < c1 {
            with_scratch(|tmp: &mut Vec<Cand<T>>| {
                tmp.clear();
                tmp.resize(mid - r0, None);
                rec(a, f, r0, mid, f[mid], c1, tmp, scratch, t);
                for (slot, cand) in above.iter_mut().zip(tmp.iter()) {
                    if let Some((v, j)) = *cand {
                        merge_candidate(slot, v, j);
                    }
                }
            });
        }
    };
    let lower = |below_hi: &mut [Cand<T>], below_lo: &mut [Cand<T>], scratch: &mut Vec<T>| {
        if parallel {
            join(
                || with_scratch(|s: &mut Vec<T>| rec(a, f, mid + 1, cut, best, c1, below_hi, s, t)),
                || with_scratch(|s: &mut Vec<T>| rec(a, f, cut, r1, c0, best + 1, below_lo, s, t)),
            );
        } else {
            rec(a, f, mid + 1, cut, best, c1, below_hi, scratch, t);
            rec(a, f, cut, r1, c0, best + 1, below_lo, scratch, t);
        }
    };

    if parallel {
        join(
            || with_scratch(|s: &mut Vec<T>| upper(above, s)),
            || with_scratch(|s: &mut Vec<T>| lower(below_hi, below_lo, s)),
        );
    } else {
        upper(above, scratch);
        lower(below_hi, below_lo, scratch);
    }
}

fn partition_point(lo: usize, hi: usize, pred: impl Fn(usize) -> bool) -> usize {
    let (mut lo, mut hi) = (lo, hi);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use monge_core::generators::{
        apply_staircase, random_monge_dense, random_staircase_boundary,
        random_staircase_monge_dense,
    };
    use monge_core::staircase::{
        compute_boundary, staircase_row_minima, staircase_row_minima_brute,
    };
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn matches_sequential_on_random_instances() {
        let mut rng = StdRng::seed_from_u64(50);
        for _ in 0..30 {
            let a = random_staircase_monge_dense(37, 23, &mut rng);
            let f = compute_boundary(&a);
            assert_eq!(
                par_staircase_row_minima(&a, &f),
                staircase_row_minima(&a, &f)
            );
        }
    }

    #[test]
    fn large_instance_crosses_parallel_threshold() {
        let mut rng = StdRng::seed_from_u64(51);
        let base = random_monge_dense(300, 200, &mut rng);
        let f = random_staircase_boundary(300, 200, &mut rng);
        let a = apply_staircase(&base, &f);
        assert_eq!(
            par_staircase_row_minima(&a, &f),
            staircase_row_minima_brute(&a, &f)
        );
    }

    #[test]
    fn steep_staircase_parallel() {
        let mut rng = StdRng::seed_from_u64(52);
        let n = 128;
        let base = random_monge_dense(n, n, &mut rng);
        let f: Vec<usize> = (0..n).map(|i| n - i).collect();
        let a = apply_staircase(&base, &f);
        assert_eq!(
            par_staircase_row_minima(&a, &f),
            staircase_row_minima_brute(&a, &f)
        );
    }

    #[test]
    fn plateau_wider_than_cutoff_stays_leftmost() {
        // All-equal rows force every chunk of the parallel scan to tie;
        // the leftmost column must still win (mirrors the rayon_monge
        // plateau regression for the staircase engine).
        let n = Tuning::from_env().seq_scan * 2 + 5;
        let a = monge_core::array2d::Dense::filled(3, n, 7i64);
        let f = vec![n; 3];
        assert_eq!(par_staircase_row_minima(&a, &f), vec![0; 3]);
    }

    #[test]
    fn fully_finite_reduces_to_monge() {
        let mut rng = StdRng::seed_from_u64(53);
        let a = random_monge_dense(80, 90, &mut rng);
        let f = vec![90usize; 80];
        assert_eq!(
            par_staircase_row_minima(&a, &f),
            monge_core::monge::brute_row_minima(&a)
        );
    }

    #[test]
    fn degenerate_cutoffs_still_agree_with_sequential() {
        let t = Tuning {
            seq_scan: 1,
            seq_rows: 1,
            ..Tuning::DEFAULT
        };
        let mut rng = StdRng::seed_from_u64(54);
        let a = random_staircase_monge_dense(41, 29, &mut rng);
        let f = compute_boundary(&a);
        assert_eq!(
            par_staircase_row_minima_with(&a, &f, t),
            staircase_row_minima(&a, &f)
        );
    }
}
