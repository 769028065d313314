//! Multithreaded tube maxima / minima of Monge-composite arrays.
//!
//! Two engines:
//!
//! * [`par_tube_maxima`] / [`par_tube_minima`] — plane-parallel: each of
//!   the `p` Monge planes `F_i[k][j] = d[i,j] + e[j,k]` is an independent
//!   SMAWK instance (`Θ(q + r)` work each); rayon distributes planes over
//!   cores. Work `O(p(q + r))` — the sequential optimum — with span
//!   `O(q + r)`.
//! * [`par_tube_minima_dc`] — the doubly-monotone divide & conquer the
//!   PRAM/hypercube engines use (argmin `j*(i,k)` is non-decreasing in
//!   both `i` and `k`), exercised here for cross-engine validation and as
//!   the low-span alternative (span `O(lg p · (q + lg r))`).
//!
//! Grain sizes come from the [`Tuning`] value threaded through every
//! call; per-plane index buffers and scan scratch come from the
//! thread-local arena ([`monge_core::scratch`]).

use crate::rayon_monge::interval_argmin;
use crate::runtime;
use crate::tuning::Tuning;
use monge_core::array2d::Array2d;
use monge_core::scratch::{with_scratch, with_scratch2};
use monge_core::tube::{plane, TubeExtrema};
use monge_core::value::Value;

/// Plane-parallel tube maxima: `(max,+)` product of Monge factors.
pub fn par_tube_maxima<T: Value, A: Array2d<T>, B: Array2d<T>>(d: &A, e: &B) -> TubeExtrema<T> {
    par_tube(d, e, true)
}

/// Plane-parallel tube minima: `(min,+)` product of Monge factors.
pub fn par_tube_minima<T: Value, A: Array2d<T>, B: Array2d<T>>(d: &A, e: &B) -> TubeExtrema<T> {
    par_tube(d, e, false)
}

fn par_tube<T: Value, A: Array2d<T>, B: Array2d<T>>(d: &A, e: &B, maxima: bool) -> TubeExtrema<T> {
    assert_eq!(d.cols(), e.rows(), "inner dimensions disagree");
    let (p, q, r) = (d.rows(), d.cols(), e.cols());
    assert!(q > 0);
    let (index, value): (Vec<_>, Vec<_>) = runtime::par_map((0..p).collect(), |i| {
        let pl = plane(d, e, i);
        let ex = if maxima {
            monge_core::smawk::row_maxima_monge(&pl)
        } else {
            monge_core::smawk::row_minima_monge(&pl)
        };
        (ex.index, ex.value)
    })
    .into_iter()
    .unzip();
    let (index, value) = (index.concat(), value.concat());
    TubeExtrema { p, r, index, value }
}

/// Divide & conquer tube minima using double argmin monotonicity: solve
/// the middle plane with SMAWK, then recurse on the upper and lower plane
/// blocks with `j`-ranges clipped by the middle plane's argmins. Explicit
/// tuning variant.
pub fn par_tube_minima_dc_with<T: Value, A: Array2d<T>, B: Array2d<T>>(
    d: &A,
    e: &B,
    t: Tuning,
) -> TubeExtrema<T> {
    assert_eq!(d.cols(), e.rows(), "inner dimensions disagree");
    let (p, q, r) = (d.rows(), d.cols(), e.cols());
    assert!(q > 0);
    let mut index = vec![0usize; p * r];
    let mut value = vec![T::ZERO; p * r];
    with_scratch2(|lo: &mut Vec<usize>, hi: &mut Vec<usize>| {
        lo.clear();
        lo.resize(r, 0);
        hi.clear();
        hi.resize(r, q);
        dc(d, e, 0, p, lo, hi, r, &mut index, &mut value, t);
    });
    TubeExtrema { p, r, index, value }
}

/// [`par_tube_minima_dc_with`] with environment-seeded tuning.
pub fn par_tube_minima_dc<T: Value, A: Array2d<T>, B: Array2d<T>>(d: &A, e: &B) -> TubeExtrema<T> {
    par_tube_minima_dc_with(d, e, Tuning::from_env())
}

/// Solves planes `i0..i1`; plane `i`'s argmin for column `k` is known to
/// lie in `[lo[k], hi[k])`.
#[allow(clippy::too_many_arguments)]
fn dc<T: Value, A: Array2d<T>, B: Array2d<T>>(
    d: &A,
    e: &B,
    i0: usize,
    i1: usize,
    lo: &[usize],
    hi: &[usize],
    r: usize,
    index: &mut [usize],
    value: &mut [T],
    t: Tuning,
) {
    monge_core::guard::checkpoint();
    if i0 >= i1 {
        return;
    }
    let mid = i0 + (i1 - i0) / 2;
    // Solve the middle plane by a constrained sweep, then recurse with
    // the argmins as nested bounds. The sweep's argmin buffer doubles as
    // the upper recursion's `hi` (shifted by one) and the lower's `lo`,
    // so one pooled checkout serves all three uses.
    with_scratch2(|mid_arg: &mut Vec<usize>, scratch: &mut Vec<T>| {
        mid_arg.clear();
        mid_arg.resize(r, 0);
        {
            // Argmin is monotone in k, and sandwiched in [lo[k], hi[k]).
            // Each sandwich interval is one batched scan of the plane row
            // (Plane::fill_row fetches the d-row slice in one call and
            // folds in the e column).
            let pl = plane(d, e, mid);
            let mut from = 0usize;
            for k in 0..r {
                let a = lo[k].max(from);
                let b = hi[k].max(a + 1).min(d.cols());
                let a = a.min(d.cols() - 1);
                let (best, best_v) = interval_argmin(&pl, k, a, b, scratch, t);
                mid_arg[k] = best;
                from = best;
                let at = (mid - i0) * r + k;
                index[at] = best;
                value[at] = best_v;
            }
        }
        let (top, rest) = index.split_at_mut((mid - i0) * r);
        let bot_i = &mut rest[r..];
        let (top_v, rest_v) = value.split_at_mut((mid - i0) * r);
        let bot_v = &mut rest_v[r..];
        // Upper planes: argmin(i,k) <= mid_arg[k]; lower: >= mid_arg[k].
        with_scratch(|hi_top: &mut Vec<usize>| {
            hi_top.clear();
            hi_top.extend(mid_arg.iter().map(|&j| j + 1));
            let lo_bot = &*mid_arg;
            if i1 - i0 > t.tube_seq_planes.max(1) {
                runtime::join(
                    || dc(d, e, i0, mid, lo, hi_top, r, top, top_v, t),
                    || dc(d, e, mid + 1, i1, lo_bot, hi, r, bot_i, bot_v, t),
                );
            } else {
                dc(d, e, i0, mid, lo, hi_top, r, top, top_v, t);
                dc(d, e, mid + 1, i1, lo_bot, hi, r, bot_i, bot_v, t);
            }
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use monge_core::generators::random_monge_dense;
    use monge_core::tube::{tube_maxima_brute, tube_minima_brute};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn plane_parallel_matches_brute() {
        let mut rng = StdRng::seed_from_u64(60);
        for &(p, q, r) in &[
            (1usize, 1usize, 1usize),
            (8, 5, 9),
            (16, 16, 16),
            (3, 20, 2),
        ] {
            let d = random_monge_dense(p, q, &mut rng);
            let e = random_monge_dense(q, r, &mut rng);
            assert_eq!(
                par_tube_maxima(&d, &e),
                tube_maxima_brute(&d, &e),
                "{p}x{q}x{r}"
            );
            assert_eq!(
                par_tube_minima(&d, &e),
                tube_minima_brute(&d, &e),
                "{p}x{q}x{r}"
            );
        }
    }

    #[test]
    fn dc_matches_brute() {
        let mut rng = StdRng::seed_from_u64(61);
        for &(p, q, r) in &[(1usize, 4usize, 6usize), (20, 10, 20), (31, 7, 13)] {
            let d = random_monge_dense(p, q, &mut rng);
            let e = random_monge_dense(q, r, &mut rng);
            assert_eq!(
                par_tube_minima_dc(&d, &e),
                tube_minima_brute(&d, &e),
                "{p}x{q}x{r}"
            );
        }
    }

    #[test]
    fn dc_and_plane_agree_on_ties() {
        use monge_core::array2d::Dense;
        let d = Dense::filled(6, 7, 1i64);
        let e = Dense::filled(7, 5, 2i64);
        let a = par_tube_minima(&d, &e);
        let b = par_tube_minima_dc(&d, &e);
        assert_eq!(a, b);
        assert!(a.index.iter().all(|&j| j == 0));
    }

    #[test]
    fn plateau_wider_than_cutoff_stays_leftmost() {
        use monge_core::array2d::Dense;
        // Middle dimension wider than the parallel-scan cutoff and more
        // planes than the sequential-plane cutoff: the all-equal tube
        // must still pick the smallest middle coordinate everywhere.
        let t = Tuning::from_env();
        let q = t.seq_scan + 5;
        let p = t.tube_seq_planes * 2 + 1;
        let d = Dense::filled(p, q, 1i64);
        let e = Dense::filled(q, 3, 2i64);
        let a = par_tube_minima(&d, &e);
        let b = par_tube_minima_dc(&d, &e);
        assert_eq!(a, b);
        assert!(a.index.iter().all(|&j| j == 0));
    }

    #[test]
    fn degenerate_cutoffs_still_match_brute() {
        let t = Tuning {
            seq_scan: 1,
            tube_seq_planes: 1,
            ..Tuning::DEFAULT
        };
        let mut rng = StdRng::seed_from_u64(62);
        let d = random_monge_dense(13, 9, &mut rng);
        let e = random_monge_dense(9, 11, &mut rng);
        assert_eq!(
            par_tube_minima_dc_with(&d, &e, t),
            tube_minima_brute(&d, &e)
        );
    }
}
