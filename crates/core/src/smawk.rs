//! The SMAWK algorithm of Aggarwal, Klawe, Moran, Shor and Wilber
//! (\[AKM+87\]): row minima / maxima of an `m × n` (inverse-)Monge array in
//! `Θ(m + n)` time — the sequential baseline of the paper's Tables 1.1–1.3.
//!
//! The core routine [`row_minima_totally_monotone`] works on any array that
//! is *totally monotone* with respect to row minima. The four public
//! wrappers handle the Monge / inverse-Monge × minima / maxima matrix via
//! the reductions of §1.2 ("reversing the order of an array's columns
//! and/or negating its entries"):
//!
//! | problem | reduction |
//! |---|---|
//! | minima of Monge | direct (leftmost tie-break) |
//! | maxima of inverse-Monge | negate → minima of Monge |
//! | maxima of Monge | reverse columns, negate → *rightmost* minima of Monge, map back |
//! | minima of inverse-Monge | reverse columns → *rightmost* minima of Monge, map back |
//!
//! All wrappers return the **leftmost** optimum of each row, matching the
//! paper's convention ("if a row has several maxima, then we take the
//! leftmost one").

use crate::array2d::Array2d;
use crate::problem::{lower_rows, mirror_indices, Objective, Structure};
use crate::value::Value;

pub use crate::tiebreak::Tie;

/// Positions and values of each row's optimum.
#[derive(Clone, Debug, PartialEq)]
pub struct RowExtrema<T> {
    /// `index[i]` is the column of row `i`'s optimum.
    pub index: Vec<usize>,
    /// `value[i]` is the optimal entry of row `i`.
    pub value: Vec<T>,
}

impl<T: Value> RowExtrema<T> {
    /// Gathers values from the array for a vector of argmin positions.
    pub fn from_indices<A: Array2d<T>>(a: &A, index: Vec<usize>) -> Self {
        let value = index
            .iter()
            .enumerate()
            .map(|(i, &j)| a.entry(i, j))
            .collect();
        Self { index, value }
    }

    /// Boundary-aware gather for staircase problems: a row whose finite
    /// prefix is empty (`boundary[i] == 0`) gets the canonical sentinel
    /// answer — index `0`, value `+∞` — **without reading the array**
    /// (the infeasible region may hold garbage, not just `∞`). Every
    /// staircase backend routes its final gather through here so the
    /// sentinel is identical across engines, which is what the
    /// differential fuzzer diffs against.
    pub fn from_staircase_indices<A: Array2d<T>>(
        a: &A,
        boundary: &[usize],
        mut index: Vec<usize>,
    ) -> Self {
        debug_assert_eq!(boundary.len(), index.len());
        let value = index
            .iter_mut()
            .enumerate()
            .map(|(i, j)| {
                if boundary[i] == 0 {
                    *j = 0;
                    T::INFINITY
                } else {
                    a.entry(i, *j)
                }
            })
            .collect();
        Self { index, value }
    }
}

/// Row minima of a totally monotone array (SMAWK), `Θ(m + n)` for Monge
/// inputs.
///
/// Requirements: for all `i < k` and `j < l`, `a[i,l] < a[i,j]` implies
/// `a[k,l] < a[k,j]` (and the non-strict analogue, which holds for all
/// Monge arrays, when `tie == Tie::Right`). Returns the per-row argmin
/// under the given tie rule.
pub fn row_minima_totally_monotone<T: Value, A: Array2d<T>>(a: &A, tie: Tie) -> Vec<usize> {
    let mut out = vec![0usize; a.rows()];
    row_minima_totally_monotone_into(a, tie, &mut out);
    out
}

/// [`row_minima_totally_monotone`] writing into a caller-provided buffer
/// of length `a.rows()` — with every internal vector checked out of the
/// thread-local arena ([`crate::scratch`]), a warmed-up call performs no
/// heap allocation at all. This is the per-plane primitive of the tube
/// engines, which call SMAWK `p` times per product.
pub fn row_minima_totally_monotone_into<T: Value, A: Array2d<T>>(
    a: &A,
    tie: Tie,
    out: &mut [usize],
) {
    let (m, n) = (a.rows(), a.cols());
    assert!(n > 0, "row minima of a zero-column array are undefined");
    assert_eq!(out.len(), m, "output buffer must have one slot per row");
    if m == 0 {
        return;
    }
    out.fill(0);
    // Comparisons are tallied locally through the recursion and flushed
    // to the thread's tally once per call, keeping the counter off the
    // REDUCE hot path.
    let mut cmp = 0u64;
    crate::scratch::with_scratch2(|rows: &mut Vec<usize>, cols: &mut Vec<usize>| {
        rows.clear();
        rows.extend(0..m);
        cols.clear();
        cols.extend(0..n);
        smawk_rec(a, rows, cols, tie, out, &mut cmp);
    });
    crate::eval::add_comparisons(cmp);
}

/// Columns of REDUCE, and rows of INTERPOLATE, between two deadline
/// checkpoints inside one recursion level: a level reads `O(m + n)`
/// entries, too many to leave unchecked when entries are expensive,
/// while a check per comparison would sit on the hot path.
const CHECK_STRIDE: usize = 16;

fn smawk_rec<T: Value, A: Array2d<T>>(
    a: &A,
    rows: &[usize],
    cols: &[usize],
    tie: Tie,
    out: &mut [usize],
    cmp: &mut u64,
) {
    crate::guard::checkpoint();
    if rows.is_empty() {
        return;
    }

    // REDUCE: keep at most |rows| columns that can still contain a row
    // minimum. `stack[k]` is a live column competing at row `rows[k]`;
    // `vals[k]` caches `a.entry(rows[k], stack[k])` so each comparison
    // evaluates only the challenger, not the incumbent again. The stack
    // and value buffers come from the thread-local arena: the recursion
    // settles at `O(lg m)` pooled buffers and allocates nothing after
    // warm-up.
    crate::scratch::with_scratch2(|stack: &mut Vec<usize>, vals: &mut Vec<T>| {
        stack.clear();
        vals.clear();
        for (ci, &c) in cols.iter().enumerate() {
            if ci % CHECK_STRIDE == CHECK_STRIDE - 1 {
                crate::guard::checkpoint();
            }
            while let Some(&inc) = vals.last() {
                let r = rows[stack.len() - 1];
                *cmp += 1;
                if tie.replaces_min(a.entry(r, c), inc) {
                    stack.pop();
                    vals.pop();
                } else {
                    break;
                }
            }
            if stack.len() < rows.len() {
                vals.push(a.entry(rows[stack.len()], c));
                stack.push(c);
            }
        }
        debug_assert!(!stack.is_empty());

        // Recurse on the odd-indexed rows with the surviving columns.
        crate::scratch::with_scratch(|odd_rows: &mut Vec<usize>| {
            odd_rows.clear();
            odd_rows.extend(rows.iter().copied().skip(1).step_by(2));
            smawk_rec(a, odd_rows, stack, tie, out, cmp);
        });

        // INTERPOLATE: fill even-indexed rows. The argmin of rows[i] lies
        // between the argmins of its odd neighbours within `stack`, and those
        // are non-decreasing, so one pointer sweep suffices.
        let mut k = 0usize;
        let nr = rows.len();
        for (filled, i) in (0..nr).step_by(2).enumerate() {
            if filled % CHECK_STRIDE == CHECK_STRIDE - 1 {
                crate::guard::checkpoint();
            }
            let row = rows[i];
            let stop_col = if i + 1 < nr {
                out[rows[i + 1]]
            } else {
                *stack.last().expect("non-empty stack")
            };
            let mut best = stack[k];
            let mut best_v = a.entry(row, best);
            while stack[k] != stop_col {
                k += 1;
                let c = stack[k];
                let v = a.entry(row, c);
                *cmp += 1;
                if tie.replaces_min(v, best_v) {
                    best = c;
                    best_v = v;
                }
            }
            out[row] = best;
        }
    });
}

/// Leftmost row minima of a Monge array in `Θ(m + n)` time.
///
/// ```
/// use monge_core::array2d::Dense;
/// use monge_core::smawk::row_minima_monge;
///
/// // a[i][j] = (i - j)² is Monge (convex in the difference): each row's
/// // minimum sits on the diagonal and argmins are non-decreasing.
/// let a = Dense::tabulate(4, 6, |i, j| {
///     let d = i as i64 - j as i64;
///     d * d
/// });
/// let ex = row_minima_monge(&a);
/// assert_eq!(ex.index, vec![0, 1, 2, 3]);
/// assert_eq!(ex.value, vec![0, 0, 0, 0]);
/// ```
pub fn row_minima_monge<T: Value, A: Array2d<T>>(a: &A) -> RowExtrema<T> {
    debug_assert!(crate::monge::is_monge(a), "input is not Monge");
    let index = row_minima_totally_monotone(a, Tie::Left);
    RowExtrema::from_indices(a, index)
}

/// Shared body of the duality wrappers: lower to leftmost-convention
/// row minima via [`lower_rows`] (the workspace's one implementation of
/// the §1.2 reductions), run SMAWK, and map indices back.
fn extrema_lowered<T: Value, A: Array2d<T>>(
    a: &A,
    structure: Structure,
    objective: Objective,
    out: &mut [usize],
) {
    let (_, mirror) = lower_rows(a, structure, objective, Tie::Left, |arr, tie| {
        row_minima_totally_monotone_into(&arr, tie, out)
    });
    if let Some(n) = mirror {
        mirror_indices(out, n);
    }
}

/// Leftmost row maxima of an inverse-Monge array in `Θ(m + n)` time.
///
/// This is the routine behind the Figure 1.1 example: the inter-chain
/// distance array of a convex polygon is inverse-Monge, and its row maxima
/// give each vertex's farthest neighbor on the other chain.
pub fn row_maxima_inverse_monge<T: Value, A: Array2d<T>>(a: &A) -> RowExtrema<T> {
    debug_assert!(
        crate::monge::is_inverse_monge(a),
        "input is not inverse-Monge"
    );
    let mut index = vec![0usize; a.rows()];
    extrema_lowered(a, Structure::InverseMonge, Objective::Maximize, &mut index);
    RowExtrema::from_indices(a, index)
}

/// Leftmost row maxima of a Monge array in `Θ(m + n)` time (Table 1.1's
/// problem).
pub fn row_maxima_monge<T: Value, A: Array2d<T>>(a: &A) -> RowExtrema<T> {
    debug_assert!(crate::monge::is_monge(a), "input is not Monge");
    let mut index = vec![0usize; a.rows()];
    extrema_lowered(a, Structure::Monge, Objective::Maximize, &mut index);
    RowExtrema::from_indices(a, index)
}

/// [`row_minima_monge`] writing argmins into a caller-provided buffer
/// (no `RowExtrema` allocation, no Monge debug re-verification — the
/// allocation-free per-plane primitive of the tube engines).
pub fn row_minima_monge_into<T: Value, A: Array2d<T>>(a: &A, out: &mut [usize]) {
    row_minima_totally_monotone_into(a, Tie::Left, out);
}

/// [`row_maxima_monge`] writing argmaxes into a caller-provided buffer.
pub fn row_maxima_monge_into<T: Value, A: Array2d<T>>(a: &A, out: &mut [usize]) {
    extrema_lowered(a, Structure::Monge, Objective::Maximize, out);
}

/// [`row_maxima_inverse_monge`] writing argmaxes into a caller-provided
/// buffer.
pub fn row_maxima_inverse_monge_into<T: Value, A: Array2d<T>>(a: &A, out: &mut [usize]) {
    extrema_lowered(a, Structure::InverseMonge, Objective::Maximize, out);
}

/// Leftmost row minima of an inverse-Monge array in `Θ(m + n)` time.
pub fn row_minima_inverse_monge<T: Value, A: Array2d<T>>(a: &A) -> RowExtrema<T> {
    debug_assert!(
        crate::monge::is_inverse_monge(a),
        "input is not inverse-Monge"
    );
    let mut index = vec![0usize; a.rows()];
    extrema_lowered(a, Structure::InverseMonge, Objective::Minimize, &mut index);
    RowExtrema::from_indices(a, index)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array2d::Dense;
    use crate::monge::{brute_row_maxima, brute_row_minima};

    /// The classic 9x18 totally monotone example from the SMAWK literature.
    fn classic() -> Dense<i64> {
        let rows = vec![
            vec![
                25, 21, 13, 10, 20, 13, 19, 35, 37, 41, 58, 66, 82, 99, 124, 133, 156, 178,
            ],
            vec![
                42, 35, 26, 20, 29, 21, 25, 37, 36, 39, 56, 64, 76, 91, 116, 125, 146, 164,
            ],
            vec![
                57, 48, 35, 28, 33, 24, 28, 40, 37, 37, 54, 61, 72, 83, 107, 113, 131, 146,
            ],
            vec![
                78, 65, 51, 42, 44, 35, 38, 48, 42, 42, 55, 61, 70, 80, 100, 106, 120, 135,
            ],
            vec![
                90, 76, 58, 48, 49, 39, 42, 48, 39, 35, 47, 51, 56, 63, 80, 86, 97, 110,
            ],
            vec![
                103, 85, 67, 56, 55, 44, 44, 49, 39, 33, 41, 44, 49, 56, 71, 75, 84, 96,
            ],
            vec![
                123, 105, 86, 75, 73, 59, 57, 62, 51, 44, 50, 52, 55, 59, 72, 74, 80, 92,
            ],
            vec![
                142, 123, 100, 86, 82, 65, 61, 62, 50, 43, 47, 45, 46, 46, 58, 59, 65, 73,
            ],
            vec![
                151, 130, 104, 88, 80, 59, 52, 49, 37, 29, 29, 24, 23, 20, 28, 25, 31, 39,
            ],
        ];
        Dense::from_rows(rows)
    }

    #[test]
    fn classic_example_minima() {
        let a = classic();
        let got = row_minima_totally_monotone(&a, Tie::Left);
        assert_eq!(got, brute_row_minima(&a));
    }

    #[test]
    fn monge_minima_small() {
        let a = Dense::tabulate(7, 9, |i, j| {
            let (i, j) = (i as i64, j as i64);
            (i - j) * (i - j) + 3 * i + 2 * j
        });
        // a[i,j] = (i-j)^2 + 3i + 2j is Monge (convex in the difference).
        assert!(crate::monge::is_monge(&a));
        let got = row_minima_monge(&a);
        assert_eq!(got.index, brute_row_minima(&a));
    }

    #[test]
    fn monge_maxima_small() {
        let a = Dense::tabulate(6, 8, |i, j| -((i * j) as i64) + (j % 3) as i64);
        assert!(crate::monge::is_monge(&a));
        let got = row_maxima_monge(&a);
        assert_eq!(got.index, brute_row_maxima(&a));
    }

    #[test]
    fn inverse_monge_maxima_matches_brute() {
        let a = Dense::tabulate(5, 11, |i, j| {
            let (i, j) = (i as i64, j as i64);
            i * j - 3 * j + i
        });
        assert!(crate::monge::is_inverse_monge(&a));
        let got = row_maxima_inverse_monge(&a);
        assert_eq!(got.index, brute_row_maxima(&a));
    }

    #[test]
    fn inverse_monge_minima_matches_brute() {
        let a = Dense::tabulate(9, 5, |i, j| {
            let (i, j) = (i as i64, j as i64);
            2 * i * j - 5 * j + i
        });
        assert!(crate::monge::is_inverse_monge(&a));
        let got = row_minima_inverse_monge(&a);
        assert_eq!(got.index, brute_row_minima(&a));
    }

    #[test]
    fn leftmost_tie_break_on_constant_array() {
        let a = Dense::filled(4, 6, 7i64);
        assert_eq!(row_minima_monge(&a).index, vec![0; 4]);
        assert_eq!(row_maxima_monge(&a).index, vec![0; 4]);
    }

    #[test]
    fn single_row_and_single_column() {
        let a = Dense::from_rows(vec![vec![5i64, 3, 4, 3]]);
        assert_eq!(row_minima_monge(&a).index, vec![1]);
        let b = Dense::from_rows(vec![vec![2i64], vec![1], vec![9]]);
        assert_eq!(row_minima_monge(&b).index, vec![0, 0, 0]);
    }

    #[test]
    fn empty_rows_ok() {
        let a = Dense::from_vec(0, 3, Vec::<i64>::new());
        assert!(row_minima_totally_monotone(&a, Tie::Left).is_empty());
    }

    #[test]
    fn values_match_indices() {
        let a = Dense::tabulate(8, 8, |i, j| -((i * j) as i64));
        let ex = row_minima_monge(&a);
        for (i, (&j, &v)) in ex.index.iter().zip(ex.value.iter()).enumerate() {
            assert_eq!(a.entry(i, j), v);
        }
    }
}
