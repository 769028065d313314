//! Query-level differential fuzzer for the submatrix
//! [`QueryIndex`]: seeded structured arrays, seeded rectangle batches,
//! every answer (value, argmin row, argmin column — leftmost ties)
//! diffed bitwise against a brute submatrix scan, and mismatches shrunk
//! greedily to a minimal `(array, rectangle)` pair persisted in the
//! text corpus as `*.qcorpus` files.
//!
//! The solver-level fuzzer ([`crate::fuzz`]) diffs whole argmin
//! vectors; this lab diffs individual `(r1..r2, c1..c2)` queries, which
//! exercises everything the vector diff cannot: canonical-node
//! stitching at arbitrary row splits, partial breakpoint segments at
//! both column ends, and tie-break stability *across* canonical nodes
//! (two nodes can return equal values from different rows — the stitch
//! must still pick the lex-smallest `(row, col)`).
//!
//! Rectangle batches always include the historical troublemakers: 1×1
//! cells, the full array, single rows, single columns, and
//! boundary-hugging rectangles pinned to each array edge.
//!
//! Every instance is indexed twice ([`build_both`]): once over its
//! [`Dense`] array, whose buffer the index shares, and once through a
//! wrapper that hides [`Array2d::as_dense`], so the index copies the
//! rows. Both indexes must match the brute scan, and so each other.

use std::fmt::Write as _;
use std::ops::Range;
use std::path::{Path, PathBuf};

use monge_core::array2d::{Array2d, Dense};
use monge_core::guard::SolveError;
use monge_core::monge::{check_inverse_monge, check_monge};
use monge_core::problem::Structure;
use monge_core::queryindex::{QueryAnswer, QueryIndex};
use monge_core::value::Value;

use crate::corpus::corpus_dir;
use crate::gen::monge_base;
use crate::rng::SplitMix64;

/// The structured generator families the query fuzzer sweeps. Each is
/// a pure function of its seed (see [`query_array`]).
pub const QUERY_FAMILIES: &[&str] = &[
    "monge-random",
    "monge-plateau",
    "monge-zero-slack",
    "monge-degenerate",
    "inverse-monge",
    "monge-inf-sentinel",
    "monge-wide",
];

/// One fixed array under a structural promise — the preprocessing unit
/// of the query index.
#[derive(Clone, Debug)]
pub struct QueryInstance {
    /// The promise the index build trusts.
    pub structure: Structure,
    /// The fixed array.
    pub a: Dense<i64>,
    /// Generator family label (reporting / corpus notes).
    pub family: &'static str,
}

impl QueryInstance {
    /// Does the array still satisfy its promise? The shrinker re-checks
    /// after every candidate transform — a transform that broke the
    /// promise would make index/brute disagreement legal.
    pub fn valid(&self) -> bool {
        if self.a.rows() == 0 || self.a.cols() == 0 {
            return false;
        }
        match self.structure {
            Structure::Monge => check_monge(&self.a).is_ok(),
            Structure::InverseMonge => check_inverse_monge(&self.a).is_ok(),
            Structure::Plain => false,
        }
    }
}

/// A half-open query rectangle `rows r1..r2 × cols c1..c2`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Rect {
    /// First row.
    pub r1: usize,
    /// One past the last row.
    pub r2: usize,
    /// First column.
    pub c1: usize,
    /// One past the last column.
    pub c2: usize,
}

impl Rect {
    /// The row range.
    pub fn rows(&self) -> Range<usize> {
        self.r1..self.r2
    }

    /// The column range.
    pub fn cols(&self) -> Range<usize> {
        self.c1..self.c2
    }

    /// Cells covered.
    pub fn area(&self) -> usize {
        (self.r2 - self.r1) * (self.c2 - self.c1)
    }

    /// Non-empty and inside an `m×n` array?
    pub fn fits(&self, m: usize, n: usize) -> bool {
        self.r1 < self.r2 && self.c1 < self.c2 && self.r2 <= m && self.c2 <= n
    }
}

/// The deterministic array for `(family, seed)`. Families mirror the
/// solver fuzzer's stress mix: plateau-heavy (tie storms across
/// canonical nodes), zero-slack (every quadrangle inequality tight),
/// degenerate single-row/column shapes, inverse-Monge (the maxima
/// lowering path), and `+∞`-staircase sentinels masked so the full
/// array is still Monge (non-decreasing boundary — the absorbed
/// sentinel keeps inequality (1.1) intact). The other families draw
/// both sides from `1..=14`; `monge-wide` draws up to 64 rows and
/// 129–400 columns, so its indexes are up to 7 levels deep and its
/// row scans are long enough to read the 64-wide block summaries.
///
/// # Panics
///
/// On an unknown family name.
pub fn query_array(family: &'static str, seed: u64) -> QueryInstance {
    let mut r = SplitMix64::new(seed);
    let dim = |r: &mut SplitMix64| r.range_usize(1, 14);
    let (m, n) = match family {
        "monge-degenerate" => {
            if r.chance(1, 2) {
                (1, dim(&mut r))
            } else {
                (dim(&mut r), 1)
            }
        }
        "monge-wide" => (r.range_usize(1, 64), r.range_usize(129, 400)),
        _ => (dim(&mut r), dim(&mut r)),
    };
    let (a, structure) = match family {
        "monge-random" => (monge_base(m, n, &mut r, 1000, 16, 1), Structure::Monge),
        "monge-plateau" => (monge_base(m, n, &mut r, 32, 16, 16), Structure::Monge),
        "monge-zero-slack" => (monge_base(m, n, &mut r, 40, 0, 4), Structure::Monge),
        "monge-degenerate" => (monge_base(m, n, &mut r, 100, 8, 1), Structure::Monge),
        "monge-wide" => (monge_base(m, n, &mut r, 4000, 16, 1), Structure::Monge),
        "inverse-monge" => {
            let base = monge_base(m, n, &mut r, 500, 12, 1);
            let data = base.data().iter().map(|&x| -x).collect();
            (Dense::from_vec(m, n, data), Structure::InverseMonge)
        }
        "monge-inf-sentinel" => {
            let base = monge_base(m, n, &mut r, 200, 10, 1);
            // Non-decreasing boundary: column j of row i is `+∞` for
            // j >= f[i]. Because f[i] <= f[i+1], an infinite a[i+1,j+1]
            // forces an infinite a[i,j+1], so (1.1) survives the mask.
            let mut f: Vec<usize> = (0..m).map(|_| r.range_usize(1, n)).collect();
            f.sort_unstable();
            let a = Dense::tabulate(m, n, |i, j| {
                if j >= f[i] {
                    <i64 as Value>::INFINITY
                } else {
                    base.entry(i, j)
                }
            });
            (a, Structure::Monge)
        }
        other => panic!("unknown query fuzz family '{other}'"),
    };
    QueryInstance {
        structure,
        a,
        family,
    }
}

/// A seeded rectangle batch over an `m×n` array: the fixed
/// troublemakers (1×1, full array, single row, single column, one
/// boundary-hugging rectangle per edge) plus `extra` random
/// rectangles.
pub fn sample_rects(m: usize, n: usize, r: &mut SplitMix64, extra: usize) -> Vec<Rect> {
    let cell = |r: &mut SplitMix64| {
        let i = r.range_usize(0, m - 1);
        let j = r.range_usize(0, n - 1);
        Rect {
            r1: i,
            r2: i + 1,
            c1: j,
            c2: j + 1,
        }
    };
    let span = |r: &mut SplitMix64, len: usize| {
        let a = r.range_usize(0, len - 1);
        let b = r.range_usize(a + 1, len);
        (a, b)
    };
    let mut rects = Vec::with_capacity(extra + 8);
    rects.push(Rect {
        r1: 0,
        r2: m,
        c1: 0,
        c2: n,
    });
    rects.push(cell(r));
    // A single row / a single column with random extents.
    let (c1, c2) = span(r, n);
    let row = r.range_usize(0, m - 1);
    rects.push(Rect {
        r1: row,
        r2: row + 1,
        c1,
        c2,
    });
    let (r1, r2) = span(r, m);
    let col = r.range_usize(0, n - 1);
    rects.push(Rect {
        r1,
        r2,
        c1: col,
        c2: col + 1,
    });
    // Boundary-hugging: pinned to each of the four array edges.
    let (hr1, hr2) = span(r, m);
    let (hc1, hc2) = span(r, n);
    rects.push(Rect {
        r1: 0,
        r2: hr2,
        c1: hc1,
        c2: hc2,
    });
    rects.push(Rect {
        r1: hr1,
        r2: m,
        c1: hc1,
        c2: hc2,
    });
    rects.push(Rect {
        r1: hr1,
        r2: hr2,
        c1: 0,
        c2: hc2,
    });
    rects.push(Rect {
        r1: hr1,
        r2: hr2,
        c1: hc1,
        c2: n,
    });
    for _ in 0..extra {
        let (r1, r2) = span(r, m);
        let (c1, c2) = span(r, n);
        rects.push(Rect { r1, r2, c1, c2 });
    }
    rects
}

/// The brute oracle: a full submatrix scan with the lex `(value, row,
/// col)` rule — smallest (for min) or largest (for max) value, then
/// smallest row, then smallest column. No structure, no preprocessing.
pub fn brute_query(a: &Dense<i64>, rect: Rect, maximize: bool) -> QueryAnswer<i64> {
    let mut best: Option<QueryAnswer<i64>> = None;
    for i in rect.rows() {
        for j in rect.cols() {
            let v = a.entry(i, j);
            let wins = match &best {
                None => true,
                Some(b) => {
                    if maximize {
                        b.value.total_lt(v)
                    } else {
                        v.total_lt(b.value)
                    }
                }
            };
            if wins {
                best = Some(QueryAnswer {
                    value: v,
                    row: i,
                    col: j,
                });
            }
        }
    }
    best.expect("non-empty rectangle")
}

/// A dense array seen through everything but [`Array2d::as_dense`]:
/// an index built over it copies the rows instead of sharing them.
struct Copied<'a>(&'a Dense<i64>);

impl Array2d<i64> for Copied<'_> {
    fn rows(&self) -> usize {
        self.0.rows()
    }
    fn cols(&self) -> usize {
        self.0.cols()
    }
    fn entry(&self, i: usize, j: usize) -> i64 {
        self.0.entry(i, j)
    }
    fn fill_row(&self, i: usize, cols: Range<usize>, out: &mut [i64]) {
        self.0.fill_row(i, cols, out);
    }
    fn row_view(&self, i: usize, cols: Range<usize>) -> Option<&[i64]> {
        self.0.row_view(i, cols)
    }
}

/// The two indexes over `inst`: `[shared, copied]`, the first sharing
/// the array's buffer, the second over a copy of its rows.
///
/// # Errors
///
/// As for [`QueryIndex::build`].
pub fn build_both(inst: &QueryInstance) -> Result<[QueryIndex<i64>; 2], SolveError> {
    Ok([
        QueryIndex::build(&inst.a, inst.structure)?,
        QueryIndex::build(&Copied(&inst.a), inst.structure)?,
    ])
}

fn answer(ix: &QueryIndex<i64>, rect: Rect, maximize: bool) -> Option<QueryAnswer<i64>> {
    let got = if maximize {
        ix.query_max(rect.rows(), rect.cols())
    } else {
        ix.query_min(rect.rows(), rect.cols())
    };
    got.ok()
}

/// Does either index of [`build_both`] disagree with the brute oracle
/// on `(inst, rect, maximize)`? Rebuilds both from scratch — the
/// shrinker's predicate, where every candidate array is a fresh
/// preprocessing problem.
pub fn query_disagrees(inst: &QueryInstance, rect: Rect, maximize: bool) -> bool {
    let Ok(indexes) = build_both(inst) else {
        return false;
    };
    let want = Some(brute_query(&inst.a, rect, maximize));
    indexes.iter().any(|ix| answer(ix, rect, maximize) != want)
}

/// One confirmed index/brute disagreement, already shrunk.
#[derive(Clone, Debug)]
pub struct QueryMismatch {
    /// Generator family of the original array.
    pub family: &'static str,
    /// The generator seed that produced the original array.
    pub seed: u64,
    /// Was this a `query_max`?
    pub maximize: bool,
    /// The shrunk minimal array.
    pub instance: QueryInstance,
    /// The shrunk minimal rectangle.
    pub rect: Rect,
}

/// Aggregate result of one query fuzz run over one family.
#[derive(Clone, Debug, Default)]
pub struct QueryFuzzReport {
    /// Arrays generated and indexed.
    pub arrays: usize,
    /// Individual query checks (each rectangle, min and max).
    pub queries: usize,
    /// Confirmed, shrunk mismatches (empty on a clean run).
    pub mismatches: Vec<QueryMismatch>,
}

/// Query fuzz budget: `MONGE_QUERY_FUZZ_BUDGET` (arrays per family), or
/// `default` when unset/unparsable.
pub fn query_fuzz_budget(default: usize) -> usize {
    std::env::var("MONGE_QUERY_FUZZ_BUDGET")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&b| b > 0)
        .unwrap_or(default)
}

/// Runs `budget` seeded arrays of `family`, each indexed through both
/// row stores ([`build_both`]) and queried with a seeded rectangle
/// batch, diffing every `query_min` and `query_max` of both indexes
/// against [`brute_query`] and shrinking each mismatch to a minimal
/// `(array, rectangle)` pair. Seeds are `base_seed + i`, so a report's
/// `(family, seed)` pair replays exactly.
pub fn fuzz_query_family(family: &'static str, budget: usize, base_seed: u64) -> QueryFuzzReport {
    let mut report = QueryFuzzReport::default();
    for i in 0..budget {
        let seed = base_seed.wrapping_add(i as u64);
        let inst = query_array(family, seed);
        let mut r = SplitMix64::new(seed ^ 0xA5A5_5A5A_F00D_BEEF);
        let rects = sample_rects(inst.a.rows(), inst.a.cols(), &mut r, 8);
        let indexes = match build_both(&inst) {
            Ok(indexes) => indexes,
            Err(e) => panic!("{family} seed {seed}: index build refused a valid array: {e}"),
        };
        report.arrays += 1;
        for &rect in &rects {
            for maximize in [false, true] {
                report.queries += 1;
                let want = Some(brute_query(&inst.a, rect, maximize));
                if indexes.iter().all(|ix| answer(ix, rect, maximize) == want) {
                    continue;
                }
                let (shrunk, srect) = shrink_query(&inst, rect, |cand, cand_rect| {
                    query_disagrees(cand, cand_rect, maximize)
                });
                report.mismatches.push(QueryMismatch {
                    family,
                    seed,
                    maximize,
                    instance: shrunk,
                    rect: srect,
                });
            }
        }
    }
    report
}

// ---------------------------------------------------------------------
// Shrinking
// ---------------------------------------------------------------------

fn delete_row(inst: &QueryInstance, rect: Rect, i: usize) -> Option<(QueryInstance, Rect)> {
    if inst.a.rows() <= 1 || (rect.r1 == i && rect.r2 == i + 1) {
        return None;
    }
    let a = Dense::tabulate(inst.a.rows() - 1, inst.a.cols(), |r, c| {
        inst.a.entry(if r >= i { r + 1 } else { r }, c)
    });
    let mut rect = rect;
    if i < rect.r1 {
        rect.r1 -= 1;
    }
    if i < rect.r2 {
        rect.r2 -= 1;
    }
    Some((QueryInstance { a, ..inst.clone() }, rect))
}

fn delete_col(inst: &QueryInstance, rect: Rect, j: usize) -> Option<(QueryInstance, Rect)> {
    if inst.a.cols() <= 1 || (rect.c1 == j && rect.c2 == j + 1) {
        return None;
    }
    let a = Dense::tabulate(inst.a.rows(), inst.a.cols() - 1, |r, c| {
        inst.a.entry(r, if c >= j { c + 1 } else { c })
    });
    let mut rect = rect;
    if j < rect.c1 {
        rect.c1 -= 1;
    }
    if j < rect.c2 {
        rect.c2 -= 1;
    }
    Some((QueryInstance { a, ..inst.clone() }, rect))
}

fn narrow_rect(rect: Rect) -> Vec<Rect> {
    let mut out = Vec::new();
    if rect.r2 - rect.r1 > 1 {
        out.push(Rect {
            r1: rect.r1 + 1,
            ..rect
        });
        out.push(Rect {
            r2: rect.r2 - 1,
            ..rect
        });
    }
    if rect.c2 - rect.c1 > 1 {
        out.push(Rect {
            c1: rect.c1 + 1,
            ..rect
        });
        out.push(Rect {
            c2: rect.c2 - 1,
            ..rect
        });
    }
    out
}

fn halve_values(inst: &QueryInstance) -> Option<QueryInstance> {
    let inf = <i64 as Value>::INFINITY;
    if inst.a.data().iter().all(|&x| x == inf || x == 0) {
        return None;
    }
    let data = inst
        .a
        .data()
        .iter()
        .map(|&x| if x == inf { inf } else { x / 2 })
        .collect();
    Some(QueryInstance {
        a: Dense::from_vec(inst.a.rows(), inst.a.cols(), data),
        ..inst.clone()
    })
}

/// Greedy shrink of a failing `(array, rectangle)` pair to a local
/// fixpoint: rectangle narrowing first (a smaller query over the same
/// array is the cheapest reproducer), then row/column deletion with the
/// rectangle remapped, then global value halving. Every accepted
/// candidate still satisfies the structural promise and still fails.
pub fn shrink_query(
    start: &QueryInstance,
    start_rect: Rect,
    still_fails: impl Fn(&QueryInstance, Rect) -> bool,
) -> (QueryInstance, Rect) {
    let mut cur = start.clone();
    let mut rect = start_rect;
    loop {
        let mut progressed = false;
        for cand in narrow_rect(rect) {
            if cand.fits(cur.a.rows(), cur.a.cols()) && still_fails(&cur, cand) {
                rect = cand;
                progressed = true;
                break;
            }
        }
        if progressed {
            continue;
        }
        for i in 0..cur.a.rows() {
            if let Some((cand, crect)) = delete_row(&cur, rect, i) {
                if cand.valid()
                    && crect.fits(cand.a.rows(), cand.a.cols())
                    && still_fails(&cand, crect)
                {
                    cur = cand;
                    rect = crect;
                    progressed = true;
                    break;
                }
            }
        }
        if progressed {
            continue;
        }
        for j in 0..cur.a.cols() {
            if let Some((cand, crect)) = delete_col(&cur, rect, j) {
                if cand.valid()
                    && crect.fits(cand.a.rows(), cand.a.cols())
                    && still_fails(&cand, crect)
                {
                    cur = cand;
                    rect = crect;
                    progressed = true;
                    break;
                }
            }
        }
        if progressed {
            continue;
        }
        if let Some(cand) = halve_values(&cur) {
            if cand.valid() && still_fails(&cand, rect) {
                cur = cand;
                continue;
            }
        }
        return (cur, rect);
    }
}

// ---------------------------------------------------------------------
// Corpus (`*.qcorpus`)
// ---------------------------------------------------------------------

fn value_str(v: i64) -> String {
    if v == <i64 as Value>::INFINITY {
        "inf".to_string()
    } else {
        v.to_string()
    }
}

fn parse_value(s: &str) -> Result<i64, String> {
    if s == "inf" {
        Ok(<i64 as Value>::INFINITY)
    } else {
        s.parse::<i64>()
            .map_err(|e| format!("bad value '{s}': {e}"))
    }
}

/// Renders a `(array, rectangle)` reproducer in the `.qcorpus` text
/// format (same conventions as the solver corpus: `inf` spells the
/// `i64` sentinel, `#` lines are comments). Replay checks *both*
/// `query_min` and `query_max` over the rectangle.
pub fn render_query(inst: &QueryInstance, rect: Rect, note: &str) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "# monge-conformance query reproducer v1");
    for line in note.lines() {
        let _ = writeln!(s, "# {line}");
    }
    let _ = writeln!(
        s,
        "structure {}",
        match inst.structure {
            Structure::Monge => "Monge",
            Structure::InverseMonge => "InverseMonge",
            Structure::Plain => "Plain",
        }
    );
    let _ = writeln!(s, "family {}", inst.family);
    let _ = writeln!(s, "m {}", inst.a.rows());
    let _ = writeln!(s, "n {}", inst.a.cols());
    for i in 0..inst.a.rows() {
        let row: Vec<String> = (0..inst.a.cols())
            .map(|j| value_str(inst.a.entry(i, j)))
            .collect();
        let _ = writeln!(s, "a {}", row.join(" "));
    }
    let _ = writeln!(s, "query {} {} {} {}", rect.r1, rect.r2, rect.c1, rect.c2);
    s
}

/// Parses the `.qcorpus` text format back into a `(array, rectangle)`
/// pair.
pub fn parse_query(text: &str) -> Result<(QueryInstance, Rect), String> {
    let mut structure = Structure::Monge;
    let mut m = None;
    let mut n = None;
    let mut a_rows: Vec<Vec<i64>> = Vec::new();
    let mut rect = None;
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (key, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
        let rest = rest.trim();
        match key {
            "structure" => {
                structure = match rest {
                    "Monge" => Structure::Monge,
                    "InverseMonge" => Structure::InverseMonge,
                    other => return Err(format!("unknown structure '{other}'")),
                }
            }
            "family" => {}
            "seed" => {}
            "m" => m = rest.parse::<usize>().ok(),
            "n" => n = rest.parse::<usize>().ok(),
            "a" => a_rows.push(
                rest.split_whitespace()
                    .map(parse_value)
                    .collect::<Result<_, _>>()?,
            ),
            "query" => {
                let parts: Vec<usize> = rest
                    .split_whitespace()
                    .map(|t| t.parse::<usize>().map_err(|e| e.to_string()))
                    .collect::<Result<_, _>>()?;
                let [r1, r2, c1, c2] = parts[..] else {
                    return Err(format!("query wants 4 extents, got {}", parts.len()));
                };
                rect = Some(Rect { r1, r2, c1, c2 });
            }
            other => return Err(format!("unknown key '{other}'")),
        }
    }
    let (m, n) = (m.ok_or("missing m")?, n.ok_or("missing n")?);
    if a_rows.len() != m || a_rows.iter().any(|r| r.len() != n) {
        return Err(format!("matrix a is not {m}×{n}"));
    }
    let rect = rect.ok_or("missing query")?;
    if !rect.fits(m, n) {
        return Err(format!("query {rect:?} does not fit a {m}×{n} array"));
    }
    Ok((
        QueryInstance {
            structure,
            a: Dense::from_rows(a_rows),
            family: "qcorpus",
        },
        rect,
    ))
}

/// Writes the reproducer under the corpus directory as
/// `<stem>.qcorpus` and returns the path.
pub fn save_query(
    inst: &QueryInstance,
    rect: Rect,
    stem: &str,
    note: &str,
) -> std::io::Result<PathBuf> {
    let dir = corpus_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{stem}.qcorpus"));
    std::fs::write(&path, render_query(inst, rect, note))?;
    Ok(path)
}

/// Replays one `.qcorpus` file: parses it, re-checks the structural
/// promise, rebuilds both indexes ([`build_both`]), and diffs their
/// `query_min` and `query_max` over the stored rectangle against the
/// brute scan. `Ok(())` means conformant.
pub fn replay_query_file(path: &Path) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let (inst, rect) = parse_query(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if !inst.valid() {
        return Err(format!(
            "{}: array no longer satisfies its structural promise",
            path.display()
        ));
    }
    for maximize in [false, true] {
        if query_disagrees(&inst, rect, maximize) {
            return Err(format!(
                "{}: index disagrees with the brute scan on {} over {rect:?}",
                path.display(),
                if maximize { "query_max" } else { "query_min" },
            ));
        }
    }
    Ok(())
}

/// Replays every `*.qcorpus` file in the corpus directory. Returns the
/// number of files replayed; a missing directory replays zero files.
pub fn replay_all_queries() -> Result<usize, String> {
    let dir = corpus_dir();
    let Ok(entries) = std::fs::read_dir(&dir) else {
        return Ok(0);
    };
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "qcorpus"))
        .collect();
    paths.sort();
    let mut count = 0;
    for path in &paths {
        replay_query_file(path)?;
        count += 1;
    }
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_generate_valid_arrays() {
        for &family in QUERY_FAMILIES {
            for seed in 0..100 {
                let inst = query_array(family, seed);
                assert!(inst.valid(), "{family} seed {seed} broke its promise");
            }
        }
    }

    #[test]
    fn rect_batches_cover_the_troublemakers() {
        let mut r = SplitMix64::new(9);
        let rects = sample_rects(7, 11, &mut r, 5);
        assert!(rects.iter().all(|q| q.fits(7, 11)));
        assert!(rects.iter().any(|q| q.area() == 1), "no 1×1 cell");
        assert!(
            rects.contains(&Rect {
                r1: 0,
                r2: 7,
                c1: 0,
                c2: 11
            }),
            "no full-array rectangle"
        );
        assert!(rects.iter().any(|q| q.r2 - q.r1 == 1), "no single row");
        assert!(rects.iter().any(|q| q.c2 - q.c1 == 1), "no single column");
        for edge in [
            |q: &Rect| q.r1 == 0,
            |q: &Rect| q.r2 == 7,
            |q: &Rect| q.c1 == 0,
            |q: &Rect| q.c2 == 11,
        ] {
            assert!(rects.iter().any(edge), "an array edge is never hugged");
        }
    }

    #[test]
    fn qcorpus_roundtrips() {
        for &family in QUERY_FAMILIES {
            let inst = query_array(family, 3);
            let mut r = SplitMix64::new(3);
            let rect = sample_rects(inst.a.rows(), inst.a.cols(), &mut r, 0)[0];
            let text = render_query(&inst, rect, "roundtrip");
            let (back, brect) = parse_query(&text).unwrap_or_else(|e| panic!("{family}: {e}"));
            assert_eq!(inst.a.data(), back.a.data());
            assert_eq!(inst.structure, back.structure);
            assert_eq!(rect, brect);
            assert!(back.valid());
        }
    }

    #[test]
    fn qcorpus_rejects_malformed_input() {
        assert!(parse_query("m 2\nn 2\na 1 2\na 3 4").is_err()); // no query
        assert!(parse_query("m 2\nn 2\na 1 2\nquery 0 1 0 1").is_err()); // short matrix
        assert!(parse_query("m 1\nn 1\na 0\nquery 0 2 0 1").is_err()); // rect overflows
        assert!(parse_query("m 1\nn 1\na 0\nquery 0 1 0").is_err()); // 3 extents
        assert!(parse_query("structure Bogus\nm 1\nn 1\na 0\nquery 0 1 0 1").is_err());
    }

    #[test]
    fn shrinker_reaches_a_small_fixpoint() {
        // Synthetic failure: "fails" whenever the array still has at
        // least 6 cells and the rectangle covers at least 2. The
        // shrinker must walk any catch down to that floor.
        let inst = query_array("monge-random", 41);
        let rect = Rect {
            r1: 0,
            r2: inst.a.rows(),
            c1: 0,
            c2: inst.a.cols(),
        };
        assert!(
            inst.a.rows() * inst.a.cols() >= 6,
            "seed too small to shrink"
        );
        let (shrunk, srect) = shrink_query(&inst, rect, |cand, crect| {
            cand.a.rows() * cand.a.cols() >= 6 && crect.area() >= 2
        });
        assert_eq!(shrunk.a.rows() * shrunk.a.cols(), 6);
        assert_eq!(srect.area(), 2);
        assert!(shrunk.valid(), "shrinking broke the structural promise");
    }

    #[test]
    fn both_store_paths_are_built() {
        let inst = query_array("monge-wide", 5);
        let [shared, copied] = build_both(&inst).unwrap();
        assert!(Copied(&inst.a).as_dense().is_none());
        let cells = (inst.a.rows() * inst.a.cols() * std::mem::size_of::<i64>()) as u64;
        assert_eq!(
            copied.bytes() - shared.bytes(),
            cells,
            "only one store copies"
        );
        assert_eq!(shared.breakpoints(), copied.breakpoints());
    }

    #[test]
    fn brute_query_is_lex_leftmost() {
        // A plateau: every cell equal — min and max both pick the
        // rectangle's top-left corner.
        let a = Dense::from_vec(3, 3, vec![5; 9]);
        let rect = Rect {
            r1: 1,
            r2: 3,
            c1: 1,
            c2: 3,
        };
        for maximize in [false, true] {
            let ans = brute_query(&a, rect, maximize);
            assert_eq!((ans.value, ans.row, ans.col), (5, 1, 1));
        }
    }
}
