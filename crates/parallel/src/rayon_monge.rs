//! Multithreaded row minima / maxima of (inverse-)Monge arrays.
//!
//! The engine is the recursive-halving divide & conquer the paper's PRAM
//! algorithms are built from: find the middle row's optimum, split the
//! remaining rows into two independent subproblems with nested column
//! intervals (total monotonicity), and recurse in parallel. The interval
//! scan of a middle row is itself a parallel reduction when wide.
//!
//! There is exactly **one** recursion here, parameterized by a
//! [`Tie`] policy. The three non-canonical (structure, objective)
//! combinations reach it through the §1.2 lowering implemented once in
//! [`monge_core::problem::lower_rows`]: negate and/or reverse columns,
//! flip the tie rule when the columns were mirrored, and map indices
//! back. No hand-written rightmost twin survives.
//!
//! All interval scans go through the batched evaluation layer
//! ([`monge_core::eval`]): each sequential leaf fills a reusable scratch
//! buffer with one [`Array2d::fill_row`] call and argmins over the
//! slice; the wide-interval path splits the interval into
//! [`Tuning::seq_scan`]-sized chunks, scans each chunk the same way,
//! and combines candidates with an order-insensitive lexicographic
//! reduction ([`monge_core::tiebreak::lex_min`]).
//!
//! Grain sizes come from the [`Tuning`] value threaded through every
//! call (the plain entry points seed it from the environment; the
//! `*_with` variants accept an explicit handle, e.g. one produced by
//! [`crate::runtime::calibrate`]). Forks go through
//! [`crate::runtime::join`], which carries the solve's deadline,
//! kernel pin and counters across the fork; scratch buffers at fork boundaries are checked out of
//! the worker thread's arena ([`monge_core::scratch`]), so steady-state
//! searches allocate only their output vectors.
//!
//! Work is `O((m + n) lg m)`, span `O(lg m lg n)`, so wall-clock scales
//! with cores — the rayon stand-in for the paper's `n`-processor bounds.

use crate::runtime;
use crate::tuning::Tuning;
use monge_core::array2d::Array2d;
use monge_core::eval;
use monge_core::problem::{lower_rows, mirror_indices, Objective, Structure};
use monge_core::scratch::with_scratch;
use monge_core::smawk::RowExtrema;
use monge_core::tiebreak::{lex_min, Tie};
use monge_core::value::Value;

/// Sequential interval scan honoring the tie policy.
#[inline]
fn interval_scan_seq<T: Value, A: Array2d<T>>(
    a: &A,
    row: usize,
    lo: usize,
    hi: usize,
    scratch: &mut Vec<T>,
    tie: Tie,
) -> (usize, T) {
    match tie {
        Tie::Left => eval::interval_argmin(a, row, lo, hi, scratch),
        Tie::Right => eval::interval_argmin_rightmost(a, row, lo, hi, scratch),
    }
}

/// Tie-preferred minimum of `a[row, lo..hi)` with its value; scans in
/// parallel chunks when the interval is wider than the tuning cutoff.
pub(crate) fn interval_argmin_tie<T: Value, A: Array2d<T>>(
    a: &A,
    row: usize,
    lo: usize,
    hi: usize,
    scratch: &mut Vec<T>,
    t: Tuning,
    tie: Tie,
) -> (usize, T) {
    debug_assert!(lo < hi);
    let chunk = t.seq_scan.max(1);
    if hi - lo <= chunk {
        return interval_scan_seq(a, row, lo, hi, scratch, tie);
    }
    let n_chunks = (hi - lo).div_ceil(chunk);
    runtime::par_map((0..n_chunks).collect(), |ci| {
        let c_lo = lo + ci * chunk;
        let c_hi = (c_lo + chunk).min(hi);
        with_scratch(|buf: &mut Vec<T>| interval_scan_seq(a, row, c_lo, c_hi, buf, tie))
    })
    .into_iter()
    .reduce(|x, y| lex_min(x, y, tie))
    .expect("non-empty interval")
}

/// Leftmost minimum of `a[row, lo..hi)` with its value — the shape the
/// staircase and tube engines consume.
pub(crate) fn interval_argmin<T: Value, A: Array2d<T>>(
    a: &A,
    row: usize,
    lo: usize,
    hi: usize,
    scratch: &mut Vec<T>,
    t: Tuning,
) -> (usize, T) {
    interval_argmin_tie(a, row, lo, hi, scratch, t, Tie::Left)
}

#[allow(clippy::too_many_arguments)]
fn rec<T: Value, A: Array2d<T>>(
    a: &A,
    r0: usize,
    r1: usize,
    c0: usize,
    c1: usize,
    out: &mut [usize],
    scratch: &mut Vec<T>,
    t: Tuning,
    tie: Tie,
) {
    monge_core::guard::checkpoint();
    if r0 >= r1 {
        return;
    }
    let mid = r0 + (r1 - r0) / 2;
    let (best, _) = interval_argmin_tie(a, mid, c0, c1, scratch, t, tie);
    out[mid - r0] = best;
    let (top, rest) = out.split_at_mut(mid - r0);
    let bot = &mut rest[1..];
    if r1 - r0 <= t.seq_rows.max(1) {
        rec_seq(a, r0, mid, c0, best + 1, top, scratch, t, tie);
        rec_seq(a, mid + 1, r1, best, c1, bot, scratch, t, tie);
        return;
    }
    runtime::join(
        || with_scratch(|s: &mut Vec<T>| rec(a, r0, mid, c0, best + 1, top, s, t, tie)),
        || with_scratch(|s: &mut Vec<T>| rec(a, mid + 1, r1, best, c1, bot, s, t, tie)),
    );
}

#[allow(clippy::too_many_arguments)]
fn rec_seq<T: Value, A: Array2d<T>>(
    a: &A,
    r0: usize,
    r1: usize,
    c0: usize,
    c1: usize,
    out: &mut [usize],
    scratch: &mut Vec<T>,
    t: Tuning,
    tie: Tie,
) {
    monge_core::guard::checkpoint();
    if r0 >= r1 {
        return;
    }
    let mid = r0 + (r1 - r0) / 2;
    let (best, _) = interval_argmin_tie(a, mid, c0, c1, scratch, t, tie);
    out[mid - r0] = best;
    let (top, rest) = out.split_at_mut(mid - r0);
    let bot = &mut rest[1..];
    rec_seq(a, r0, mid, c0, best + 1, top, scratch, t, tie);
    rec_seq(a, mid + 1, r1, best, c1, bot, scratch, t, tie);
}

/// Tie-preferred row minima of a totally monotone array — the raw
/// engine the dispatch backends and the lowering wrappers share.
pub(crate) fn par_rowmin_with_tie<T: Value, A: Array2d<T>>(
    a: &A,
    tie: Tie,
    t: Tuning,
) -> Vec<usize> {
    let (m, n) = (a.rows(), a.cols());
    assert!(n > 0);
    let mut out = vec![0usize; m];
    with_scratch(|s: &mut Vec<T>| rec(a, 0, m, 0, n, &mut out, s, t, tie));
    out
}

/// Lowers a (structure, objective) pair onto the single leftmost-minima
/// recursion per §1.2 and maps the answer back to original columns.
fn par_extrema_lowered<T: Value, A: Array2d<T>>(
    a: &A,
    structure: Structure,
    objective: Objective,
    t: Tuning,
) -> Vec<usize> {
    let (mut index, mirror) = lower_rows(a, structure, objective, Tie::Left, |arr, tie| {
        par_rowmin_with_tie(&arr, tie, t)
    });
    if let Some(n) = mirror {
        mirror_indices(&mut index, n);
    }
    index
}

/// Core parallel routine: leftmost row minima of a totally monotone
/// (minima) array by parallel divide & conquer, with explicit tuning.
pub fn par_row_minima_totally_monotone_with<T: Value, A: Array2d<T>>(
    a: &A,
    t: Tuning,
) -> Vec<usize> {
    par_rowmin_with_tie(a, Tie::Left, t)
}

/// [`par_row_minima_totally_monotone_with`] with environment-seeded
/// tuning.
pub fn par_row_minima_totally_monotone<T: Value, A: Array2d<T>>(a: &A) -> Vec<usize> {
    par_row_minima_totally_monotone_with(a, Tuning::from_env())
}

/// Parallel leftmost row minima of a Monge array, with explicit tuning.
pub fn par_row_minima_monge_with<T: Value, A: Array2d<T>>(a: &A, t: Tuning) -> RowExtrema<T> {
    let index = par_extrema_lowered(a, Structure::Monge, Objective::Minimize, t);
    RowExtrema::from_indices(a, index)
}

/// Parallel leftmost row minima of a Monge array.
pub fn par_row_minima_monge<T: Value, A: Array2d<T>>(a: &A) -> RowExtrema<T> {
    par_row_minima_monge_with(a, Tuning::from_env())
}

/// Parallel leftmost row maxima of an inverse-Monge array, with
/// explicit tuning.
pub fn par_row_maxima_inverse_monge_with<T: Value, A: Array2d<T>>(
    a: &A,
    t: Tuning,
) -> RowExtrema<T> {
    let index = par_extrema_lowered(a, Structure::InverseMonge, Objective::Maximize, t);
    RowExtrema::from_indices(a, index)
}

/// Parallel leftmost row maxima of an inverse-Monge array.
pub fn par_row_maxima_inverse_monge<T: Value, A: Array2d<T>>(a: &A) -> RowExtrema<T> {
    par_row_maxima_inverse_monge_with(a, Tuning::from_env())
}

/// Parallel leftmost row maxima of a Monge array (Table 1.1's problem),
/// with explicit tuning.
pub fn par_row_maxima_monge_with<T: Value, A: Array2d<T>>(a: &A, t: Tuning) -> RowExtrema<T> {
    let index = par_extrema_lowered(a, Structure::Monge, Objective::Maximize, t);
    RowExtrema::from_indices(a, index)
}

/// Parallel leftmost row maxima of a Monge array (Table 1.1's problem).
pub fn par_row_maxima_monge<T: Value, A: Array2d<T>>(a: &A) -> RowExtrema<T> {
    par_row_maxima_monge_with(a, Tuning::from_env())
}

/// Parallel leftmost row minima of an inverse-Monge array, with
/// explicit tuning.
pub fn par_row_minima_inverse_monge_with<T: Value, A: Array2d<T>>(
    a: &A,
    t: Tuning,
) -> RowExtrema<T> {
    let index = par_extrema_lowered(a, Structure::InverseMonge, Objective::Minimize, t);
    RowExtrema::from_indices(a, index)
}

/// Parallel leftmost row minima of an inverse-Monge array.
pub fn par_row_minima_inverse_monge<T: Value, A: Array2d<T>>(a: &A) -> RowExtrema<T> {
    par_row_minima_inverse_monge_with(a, Tuning::from_env())
}

#[cfg(test)]
mod tests {
    use super::*;
    use monge_core::array2d::{Dense, Negate};
    use monge_core::generators::{random_monge_dense, ImplicitMonge};
    use monge_core::monge::{brute_row_maxima, brute_row_minima};
    use monge_core::smawk::{row_maxima_monge, row_minima_monge};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn matches_smawk_on_random_instances() {
        let mut rng = StdRng::seed_from_u64(40);
        for &(m, n) in &[(1usize, 1usize), (5, 9), (33, 17), (64, 64), (100, 3)] {
            let a = random_monge_dense(m, n, &mut rng);
            assert_eq!(
                par_row_minima_monge(&a).index,
                row_minima_monge(&a).index,
                "{m}x{n}"
            );
            assert_eq!(
                par_row_maxima_monge(&a).index,
                row_maxima_monge(&a).index,
                "{m}x{n} maxima"
            );
        }
    }

    #[test]
    fn inverse_variants_match_brute() {
        let mut rng = StdRng::seed_from_u64(41);
        let a = random_monge_dense(40, 30, &mut rng);
        let b = Negate(&a).to_dense();
        assert_eq!(par_row_maxima_inverse_monge(&b).index, brute_row_maxima(&b));
        assert_eq!(par_row_minima_inverse_monge(&b).index, brute_row_minima(&b));
    }

    #[test]
    fn wide_rows_exercise_parallel_scan() {
        let mut rng = StdRng::seed_from_u64(42);
        // Wider than the seq_scan cutoff to hit the parallel reduction.
        let a = ImplicitMonge::random(4, 5000, 3, &mut rng);
        let got = par_row_minima_monge(&a);
        assert_eq!(got.index, brute_row_minima(&a));
    }

    #[test]
    fn tie_breaking_is_leftmost() {
        let a = Dense::filled(10, 10, 3i64);
        assert_eq!(par_row_minima_monge(&a).index, vec![0; 10]);
        assert_eq!(par_row_maxima_monge(&a).index, vec![0; 10]);
    }

    #[test]
    fn plateau_wider_than_cutoff_stays_leftmost() {
        // Regression for the parallel reduce: on an all-equal (plateau)
        // array every chunk candidate ties, so only an order-insensitive
        // lexicographic combiner returns the leftmost column no matter
        // how rayon associates the reduction. Width must exceed the
        // seq_scan cutoff so the parallel path actually runs.
        let t = Tuning::from_env();
        let n = t.seq_scan * 3 + 17;
        let a = Dense::filled(3, n, 42i64);
        assert_eq!(par_row_minima_monge(&a).index, vec![0; 3]);
        assert_eq!(par_row_maxima_monge(&a).index, vec![0; 3]);
        assert_eq!(par_row_minima_inverse_monge(&a).index, vec![0; 3]);
        assert_eq!(par_row_maxima_inverse_monge(&a).index, vec![0; 3]);
    }

    #[test]
    fn tall_arrays_hit_parallel_rows() {
        let mut rng = StdRng::seed_from_u64(43);
        let a = random_monge_dense(300, 20, &mut rng);
        assert_eq!(par_row_minima_monge(&a).index, brute_row_minima(&a));
    }

    #[test]
    fn forks_register_in_the_task_counter() {
        let t = Tuning {
            seq_rows: 1,
            ..Tuning::DEFAULT
        };
        let a = Dense::tabulate(64, 8, |i, j| {
            let d = i as i64 - j as i64;
            d * d
        });
        let before = runtime::task_count();
        let _ = par_row_minima_monge_with(&a, t);
        assert!(
            runtime::task_count() > before,
            "row-level forks should bump the global task counter"
        );
    }

    #[test]
    fn degenerate_cutoffs_still_agree_with_smawk() {
        // cutoff = 1 forces maximal forking and single-column chunks —
        // the worst case for combiner associativity and tie handling.
        let t = Tuning {
            seq_scan: 1,
            seq_rows: 1,
            ..Tuning::DEFAULT
        };
        let mut rng = StdRng::seed_from_u64(44);
        let a = random_monge_dense(37, 53, &mut rng);
        assert_eq!(
            par_row_minima_monge_with(&a, t).index,
            row_minima_monge(&a).index
        );
        assert_eq!(
            par_row_maxima_monge_with(&a, t).index,
            row_maxima_monge(&a).index
        );
    }
}
