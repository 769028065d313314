//! Edge-case suite for the submatrix [`QueryIndex`]: degenerate
//! shapes, all-equal plateaus (tie-break stability across the
//! canonical-node stitch), `+∞` staircase sentinels, the
//! evaluation-accounting contract — the build reads each source entry
//! exactly once and queries read the source **zero** times — and the
//! two row stores: shared with a [`Dense`] source, or copied.

use monge_core::array2d::{Array2d, Dense};
use monge_core::eval::CountingArray;
use monge_core::guard::SolveError;
use monge_core::problem::Structure;
use monge_core::queryindex::{QueryAnswer, QueryIndex};
use monge_core::value::Value;

fn monge(m: usize, n: usize) -> Dense<i64> {
    Dense::tabulate(m, n, |i, j| {
        let d = i as i64 - j as i64;
        d * d + 3 * j as i64
    })
}

fn brute(
    a: &Dense<i64>,
    r1: usize,
    r2: usize,
    c1: usize,
    c2: usize,
    max: bool,
) -> (i64, usize, usize) {
    let mut best: Option<(i64, usize, usize)> = None;
    for i in r1..r2 {
        for j in c1..c2 {
            let v = a.entry(i, j);
            let wins = match best {
                None => true,
                Some((bv, _, _)) => {
                    if max {
                        bv < v
                    } else {
                        v < bv
                    }
                }
            };
            if wins {
                best = Some((v, i, j));
            }
        }
    }
    best.unwrap()
}

fn check_all_rects(a: &Dense<i64>, structure: Structure) {
    let (m, n) = (a.rows(), a.cols());
    let ix = QueryIndex::build(a, structure).unwrap();
    for r1 in 0..m {
        for r2 in r1 + 1..=m {
            for c1 in 0..n {
                for c2 in c1 + 1..=n {
                    for max in [false, true] {
                        let got = if max {
                            ix.query_max(r1..r2, c1..c2).unwrap()
                        } else {
                            ix.query_min(r1..r2, c1..c2).unwrap()
                        };
                        let want = brute(a, r1, r2, c1, c2, max);
                        assert_eq!(
                            (got.value, got.row, got.col),
                            want,
                            "{structure:?} {}×{n} rect {r1}..{r2}×{c1}..{c2} max={max}",
                            m
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn single_row_arrays_answer_every_rect() {
    check_all_rects(&monge(1, 23), Structure::Monge);
}

#[test]
fn single_column_arrays_answer_every_rect() {
    check_all_rects(&monge(19, 1), Structure::Monge);
}

#[test]
fn one_by_one_array() {
    let a = Dense::from_vec(1, 1, vec![42i64]);
    let ix = QueryIndex::build(&a, Structure::Monge).unwrap();
    for ans in [
        ix.query_min(0..1, 0..1).unwrap(),
        ix.query_max(0..1, 0..1).unwrap(),
    ] {
        assert_eq!(
            ans,
            QueryAnswer {
                value: 42,
                row: 0,
                col: 0
            }
        );
    }
}

/// All-equal plateau: every cell of every rectangle ties, so both
/// objectives must return the rectangle's top-left corner — the
/// canonical-node stitch may not prefer a later node's equal champion.
#[test]
fn all_equal_plateau_is_tie_stable_across_the_stitch() {
    let a = Dense::from_vec(9, 7, vec![5i64; 63]);
    let ix = QueryIndex::build(&a, Structure::Monge).unwrap();
    for r1 in 0..9 {
        for r2 in r1 + 1..=9 {
            for c1 in 0..7 {
                for c2 in c1 + 1..=7 {
                    for max in [false, true] {
                        let got = if max {
                            ix.query_max(r1..r2, c1..c2).unwrap()
                        } else {
                            ix.query_min(r1..r2, c1..c2).unwrap()
                        };
                        assert_eq!(
                            (got.value, got.row, got.col),
                            (5, r1, c1),
                            "rect {r1}..{r2}×{c1}..{c2} max={max}"
                        );
                    }
                }
            }
        }
    }
}

/// `+∞` staircase sentinels masked with a non-decreasing boundary (the
/// only orientation that keeps the full array Monge under absorbing
/// addition): minima skip the sentinels wherever a finite cell is in
/// range, maxima report the leftmost sentinel.
#[test]
fn inf_staircase_sentinels_answer_every_rect() {
    let inf = <i64 as Value>::INFINITY;
    let u = [8i64, 6, 4, 0, -3];
    let v = [3i64, 1, 0, 2, 5, 9];
    let f = [2usize, 3, 3, 5, 6]; // non-decreasing mask boundary
    let a = Dense::tabulate(5, 6, |i, j| if j >= f[i] { inf } else { u[i] + v[j] });
    check_all_rects(&a, Structure::Monge);
    let ix = QueryIndex::build(&a, Structure::Monge).unwrap();
    // A rectangle wholly inside the masked region is all-sentinel: the
    // answer is the canonical top-left `+∞` cell.
    let ans = ix.query_min(0..2, 4..6).unwrap();
    assert_eq!((ans.value, ans.row, ans.col), (inf, 0, 4));
}

/// The evaluation-accounting contract, on the copied store
/// (`CountingArray` does not answer `as_dense`). Build: exactly `m·n`
/// source reads — the store copy is the only pass over the source;
/// every envelope merge reads the store. Queries: **zero** source
/// reads, no matter how many rectangles are answered.
#[test]
fn build_reads_each_entry_once_and_queries_read_nothing() {
    let (m, n) = (37, 143); // straddles the 64-wide block summaries
    let counted = CountingArray::new(monge(m, n));
    let ix = QueryIndex::build(&counted, Structure::Monge).unwrap();
    assert_eq!(
        counted.evaluations(),
        (m * n) as u64,
        "build must evaluate each source entry exactly once"
    );
    for r1 in [0usize, 3, 17] {
        for c1 in [0usize, 5, 80] {
            ix.query_min(r1..m, c1..n).unwrap();
            ix.query_max(r1..r1 + 1, c1..c1 + 1).unwrap();
        }
    }
    assert_eq!(
        counted.evaluations(),
        (m * n) as u64,
        "queries must never touch the source array"
    );
}

/// A shared store keeps the rows the index was built over: `set` on
/// the caller's array copies on write and changes no answer.
#[test]
fn set_on_the_source_after_a_build_changes_no_answer() {
    let (m, n) = (9, 140); // wide enough for the block summaries
    let mut a = monge(m, n);
    let ix = QueryIndex::build(&a, Structure::Monge).unwrap();
    let rects = [
        (0..m, 0..n),
        (2..7, 3..130),
        (4..5, 60..61),
        (1..9, 70..140),
    ];
    let answers = |ix: &QueryIndex<i64>| -> Vec<QueryAnswer<i64>> {
        rects
            .iter()
            .flat_map(|(r, c)| {
                [
                    ix.query_min(r.clone(), c.clone()).unwrap(),
                    ix.query_max(r.clone(), c.clone()).unwrap(),
                ]
            })
            .collect()
    };
    let before = answers(&ix);
    let want: Vec<_> = rects
        .iter()
        .flat_map(|(r, c)| {
            [false, true].map(|max| {
                let (value, row, col) = brute(&a, r.start, r.end, c.start, c.end, max);
                QueryAnswer { value, row, col }
            })
        })
        .collect();
    assert_eq!(before, want);
    let rows_at_build = a.data().as_ptr();
    for i in 0..m {
        for j in 0..n {
            let v = if (i + j) % 2 == 0 {
                -1_000_000
            } else {
                1_000_000
            };
            a.set(i, j, v);
        }
    }
    assert_ne!(
        a.data().as_ptr(),
        rows_at_build,
        "the index shares the rows"
    );
    assert_eq!(answers(&ix), before, "the index must not see later writes");
}

/// `bytes()` counts what the index allocated: a store that shares a
/// [`Dense`] source's rows stays below the cells' size, and a store
/// that copied them (any other source) exceeds it.
#[test]
fn shared_store_bytes_exclude_the_source_rows() {
    let (m, n) = (64, 300);
    let a = monge(m, n);
    let cells = (m * n * std::mem::size_of::<i64>()) as u64;
    let shared = QueryIndex::build(&a, Structure::Monge).unwrap();
    let copied = QueryIndex::build(&CountingArray::new(&a), Structure::Monge).unwrap();
    assert!(
        shared.bytes() < cells,
        "shared {} >= {cells}",
        shared.bytes()
    );
    assert!(
        copied.bytes() > cells,
        "copied {} <= {cells}",
        copied.bytes()
    );
    assert_eq!(copied.bytes() - shared.bytes(), cells);
    assert_eq!(shared.breakpoints(), copied.breakpoints());
}

#[test]
#[allow(clippy::reversed_empty_ranges)] // the inverted range IS the test input
fn malformed_ranges_are_typed_errors() {
    let ix = QueryIndex::build(&monge(6, 6), Structure::Monge).unwrap();
    for (rows, cols) in [
        (3..3, 0..6),   // empty rows
        (0..6, 2..2),   // empty cols
        (4..2, 0..6),   // inverted rows
        (0..7, 0..6),   // rows out of bounds
        (0..6, 0..400), // cols out of bounds
    ] {
        assert!(
            matches!(
                ix.query_min(rows.clone(), cols.clone()),
                Err(SolveError::InvalidInput { .. })
            ),
            "rows {rows:?} cols {cols:?} must be refused"
        );
    }
}
