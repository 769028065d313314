//! §1.3 application 4: string editing via grid-DAGs and Monge-composite
//! searching.
//!
//! Transform `x` into `y` with minimum total cost using deletions
//! (`D(x_i)`), insertions (`I(y_j)`) and substitutions (`S(x_i, y_j)`)
//! — \[WF74\]'s `O(st)` dynamic program is the sequential baseline.
//!
//! The parallel algorithms ([AP89a, AALM88], and §1.3's hypercube claim)
//! reduce the problem to shortest paths in a *grid-DAG* and split the
//! grid into horizontal strips. Every source-to-sink path crosses each
//! strip boundary exactly once, so a strip is summarized by its **DIST
//! matrix** (boundary-to-boundary shortest paths), which is Monge on its
//! finite band by the crossing-paths argument; adjacent strips combine by
//! a `(min,+)` product — a *tube minima* computation on a
//! Monge-composite array (Table 1.3's primitive). This module provides:
//!
//! * [`edit_distance_dp`] — Wagner–Fischer, the oracle;
//! * [`edit_distance_antidiagonal`] — the wavefront parallelization (the
//!   shape of the Ranka–Sahni SIMD-hypercube baseline the paper compares
//!   against);
//! * [`strip_dist`] / [`combine_dist`] / [`edit_distance_dist_tree`] —
//!   the DIST-matrix pipeline: per-strip DIST by parallel DP over
//!   boundary starts, then a combining tree of banded doubly-monotone
//!   `(min,+)` products;
//! * [`edit_script`] — operation recovery by traceback.

use monge_core::array2d::{Array2d, Dense};
use monge_core::eval;
use monge_core::guard::SolveError;
use monge_core::problem::Problem;
use monge_core::scratch::{with_scratch, with_scratch2};
use monge_core::tube::plane;
use monge_core::value::Value;
use monge_parallel::tuning::Tuning;
use monge_parallel::{runtime, Dispatcher};

/// Edit-operation cost model (plain function pointers keep the model
/// `Copy` and the arrays `O(1)`-evaluable).
#[derive(Clone, Copy)]
pub struct CostModel {
    /// Cost of deleting character `c` from `x`.
    pub del: fn(u8) -> i64,
    /// Cost of inserting character `c` of `y`.
    pub ins: fn(u8) -> i64,
    /// Cost of substituting `a` (from `x`) by `b` (from `y`).
    pub sub: fn(u8, u8) -> i64,
}

impl CostModel {
    /// Levenshtein: unit insert/delete/substitute, free match.
    pub fn unit() -> Self {
        Self {
            del: |_| 1,
            ins: |_| 1,
            sub: |a, b| i64::from(a != b),
        }
    }

    /// A weighted model exercising non-uniform costs (per-character
    /// weights derived from the byte values).
    pub fn weighted() -> Self {
        Self {
            del: |c| 1 + i64::from(c % 3),
            ins: |c| 1 + i64::from(c % 2),
            sub: |a, b| {
                if a == b {
                    0
                } else {
                    2 + i64::from((a ^ b) % 3)
                }
            },
        }
    }
}

/// Largest per-operation cost magnitude over the byte alphabets actually
/// present in `x` and `y` (at most 256 × 256 probes, independent of the
/// string lengths).
fn max_abs_cost(x: &[u8], y: &[u8], c: &CostModel) -> i64 {
    let mut in_x = [false; 256];
    let mut in_y = [false; 256];
    for &b in x {
        in_x[b as usize] = true;
    }
    for &b in y {
        in_y[b as usize] = true;
    }
    let mut m = 0i64;
    for a in 0..256u16 {
        if !in_x[a as usize] {
            continue;
        }
        m = m.max((c.del)(a as u8).saturating_abs());
        for b in 0..256u16 {
            if in_y[b as usize] {
                m = m.max((c.sub)(a as u8, b as u8).saturating_abs());
            }
        }
    }
    for b in 0..256u16 {
        if in_y[b as usize] {
            m = m.max((c.ins)(b as u8).saturating_abs());
        }
    }
    m
}

/// Pre-flight overflow audit for the editing pipelines: any source-to-
/// sink path of the grid-DAG performs at most `|x| + |y| + 1` operations,
/// and the DIST combining tree only ever adds two such path costs, so all
/// accumulated scores stay strictly below the `i64` infinity sentinel
/// (`i64::MAX / 4`) iff `max|cost| · (|x| + |y| + 1)` stays below half of
/// it. Adversarial weights near `i64::MAX` fail here with
/// [`SolveError::Overflow`] instead of silently wrapping inside the DP.
pub fn check_cost_range(x: &[u8], y: &[u8], c: &CostModel) -> Result<(), SolveError> {
    let ops = (x.len() + y.len() + 1) as i64;
    let bound = <i64 as Value>::INFINITY / 2;
    match max_abs_cost(x, y, c).checked_mul(ops) {
        Some(total) if total < bound => Ok(()),
        _ => Err(SolveError::Overflow {
            context: "string_edit cost accumulation",
        }),
    }
}

/// [`edit_distance_dp`] behind the [`check_cost_range`] overflow audit.
pub fn try_edit_distance_dp(x: &[u8], y: &[u8], c: &CostModel) -> Result<i64, SolveError> {
    check_cost_range(x, y, c)?;
    Ok(edit_distance_dp(x, y, c))
}

/// [`edit_distance_dist_tree`] behind the [`check_cost_range`] overflow
/// audit: the DIST combine (`(min,+)` tube minima) adds two path costs
/// per probe, which the audit proves cannot wrap.
pub fn try_edit_distance_dist_tree(
    x: &[u8],
    y: &[u8],
    c: &CostModel,
    strips: usize,
) -> Result<i64, SolveError> {
    check_cost_range(x, y, c)?;
    Ok(edit_distance_dist_tree(x, y, c, strips))
}

/// Wagner–Fischer dynamic program, `O(|x|·|y|)` time, `O(|y|)` space.
///
/// ```
/// use monge_apps::string_edit::{edit_distance_dp, CostModel};
///
/// let c = CostModel::unit();
/// assert_eq!(edit_distance_dp(b"kitten", b"sitting", &c), 3);
/// ```
pub fn edit_distance_dp(x: &[u8], y: &[u8], c: &CostModel) -> i64 {
    let n = y.len();
    let mut prev: Vec<i64> = Vec::with_capacity(n + 1);
    prev.push(0);
    for j in 0..n {
        prev.push(prev[j] + (c.ins)(y[j]));
    }
    let mut cur = vec![0i64; n + 1];
    for &xc in x {
        cur[0] = prev[0] + (c.del)(xc);
        for j in 1..=n {
            cur[j] = (prev[j] + (c.del)(xc))
                .min(cur[j - 1] + (c.ins)(y[j - 1]))
                .min(prev[j - 1] + (c.sub)(xc, y[j - 1]));
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[n]
}

/// Antidiagonal wavefront: cells of one antidiagonal depend only on the
/// two previous ones, so each diagonal is a parallel step — the
/// `O(m + n)`-span, `O(mn)`-work shape of the SIMD-hypercube baselines
/// the paper improves on.
pub fn edit_distance_antidiagonal(x: &[u8], y: &[u8], c: &CostModel) -> i64 {
    let (m, n) = (x.len(), y.len());
    if m + n == 0 {
        return 0;
    }
    let inf = i64::MAX / 4;
    // Diagonal d holds cells (i, d - i) for i in [max(0, d-n), min(d, m)],
    // stored from that lower index.
    let mut prev2: Vec<i64> = vec![0]; // d = 0
    let mut prev1: Vec<i64> = {
        // d = 1: cells (0,1) (if n >= 1) then (1,0) (if m >= 1), in
        // ascending i order.
        let mut v = Vec::with_capacity(2);
        if n >= 1 {
            v.push((c.ins)(y[0]));
        }
        if m >= 1 {
            v.push((c.del)(x[0]));
        }
        v
    };
    if m + n == 1 {
        return prev1[0];
    }
    for d in 2..=(m + n) {
        let i_lo = d.saturating_sub(n);
        let i_hi = d.min(m);
        let p1_lo = (d - 1).saturating_sub(n);
        let p1_hi = (d - 1).min(m);
        let p2_lo = (d - 2).saturating_sub(n);
        let p2_hi = (d - 2).min(m);
        let cells: Vec<i64> = runtime::par_map((i_lo..=i_hi).collect(), |i| {
            let j = d - i;
            let mut best = inf;
            if i >= 1 && (p1_lo..=p1_hi).contains(&(i - 1)) {
                best = best.min(prev1[i - 1 - p1_lo] + (c.del)(x[i - 1]));
            }
            if j >= 1 && (p1_lo..=p1_hi).contains(&i) {
                best = best.min(prev1[i - p1_lo] + (c.ins)(y[j - 1]));
            }
            if i >= 1 && j >= 1 && (p2_lo..=p2_hi).contains(&(i - 1)) {
                best = best.min(prev2[i - 1 - p2_lo] + (c.sub)(x[i - 1], y[j - 1]));
            }
            best
        });
        prev2 = std::mem::replace(&mut prev1, cells);
    }
    // The last diagonal (d = m + n) contains only the sink (m, n).
    prev1[0]
}

/// The DIST matrix of the strip of `x[r0..r1]` against all of `y`:
/// `DIST[i][j]` = cheapest path from boundary column `i` above the strip
/// to boundary column `j` below it (`∞` for `j < i`, since grid-DAG
/// columns never decrease).
///
/// One DP per start column `s`, over the strip's `h` rows and only the
/// columns `s..=n` it can reach: `h · (n + 1)(n + 2) / 2` cell updates
/// in all. The costs are tabulated once per strip (`n` insertions, `h`
/// deletions, an `h × n` substitution table), so the cost model is
/// called `h · n + h + n` times, not once per cell. Start `s` runs in
/// the same task as start `n − s`, which gives every task the same area
/// (the middle start of an even `n` runs alone, at half the area); each
/// task reuses two pooled row buffers and writes its rows of the one
/// output buffer in place. Sums saturate and cells clamp to `∞`, so
/// huge costs cannot overflow.
pub fn strip_dist(xs: &[u8], y: &[u8], c: &CostModel) -> Dense<i64> {
    let n = y.len();
    let ins: Vec<i64> = y.iter().map(|&b| (c.ins)(b)).collect();
    let del: Vec<i64> = xs.iter().map(|&a| (c.del)(a)).collect();
    let mut sub = Vec::with_capacity(xs.len() * n);
    for &a in xs {
        sub.extend(y.iter().map(|&b| (c.sub)(a, b)));
    }
    let mut out = vec![0i64; (n + 1) * (n + 1)];
    let mut rows = out.chunks_mut(n + 1).enumerate();
    let mut tasks = Vec::with_capacity(n / 2 + 1);
    while let Some(front) = rows.next() {
        tasks.push((front, rows.next_back()));
    }
    runtime::par_map(tasks, |(front, back)| {
        with_scratch2(|prev: &mut Vec<i64>, cur: &mut Vec<i64>| {
            for (s, row) in std::iter::once(front).chain(back) {
                dist_row(s, &ins, &del, &sub, prev, cur, row);
            }
        });
    });
    Dense::from_vec(n + 1, n + 1, out)
}

/// Row `s` of a strip's DIST matrix: the DP from boundary column `s`
/// over columns `s..=n`, with `prev` and `cur` as the two rolling DP
/// rows, indexed from column `s`. `sub` is the row-major `h × n` table.
fn dist_row(
    s: usize,
    ins: &[i64],
    del: &[i64],
    sub: &[i64],
    prev: &mut Vec<i64>,
    cur: &mut Vec<i64>,
    row: &mut [i64],
) {
    let inf = <i64 as Value>::INFINITY;
    let n = ins.len();
    let ins = &ins[s..];
    prev.clear();
    prev.push(0);
    let mut acc = 0i64;
    for &i in ins {
        acc = acc.saturating_add(i);
        prev.push(acc);
    }
    cur.clear();
    cur.resize(prev.len(), inf);
    for (r, &d) in del.iter().enumerate() {
        // Column s has no left or diagonal neighbour inside the triangle.
        let mut left = prev[0].saturating_add(d).min(inf);
        cur[0] = left;
        let sub = &sub[r * n + s..(r + 1) * n];
        let cells = cur[1..].iter_mut().zip(prev[1..].iter().zip(prev.iter()));
        for ((cell, (&up, &diag)), (&i, &sb)) in cells.zip(ins.iter().zip(sub)) {
            // The terms that do not depend on `left` go first, so the
            // loop-carried chain is one add and one min.
            let t = up.saturating_add(d).min(diag.saturating_add(sb)).min(inf);
            left = t.min(left.saturating_add(i));
            *cell = left;
        }
        std::mem::swap(prev, cur);
    }
    row[..s].fill(inf);
    // The insertion-only first row is never clamped, and a strip of
    // height 0 returns it, so the clamp happens here.
    for (o, &v) in row[s..].iter_mut().zip(prev.iter()) {
        *o = v.min(inf);
    }
}

/// Banded `(min,+)` product of two DIST matrices by the doubly-monotone
/// divide & conquer (tube minima of the Monge-composite array, clipped to
/// the finite band `j ∈ [i, k]`): `O(s²)`-ish per product instead of
/// `O(s³)`.
pub fn combine_dist(a: &Dense<i64>, b: &Dense<i64>) -> Dense<i64> {
    combine_dist_arrays(a, b)
}

/// [`combine_dist`] generalized over any [`Array2d`] factors, so a
/// combining tree can consume lazy products ([`DistProduct`], possibly
/// wrapped in [`monge_core::CachedArray`]) without materializing them.
pub fn combine_dist_arrays<A: Array2d<i64>, B: Array2d<i64>>(a: &A, b: &B) -> Dense<i64> {
    combine_dist_arrays_with(a, b, Tuning::from_env())
}

/// [`combine_dist_arrays`] with explicit tuning: the row halving forks
/// under [`runtime::join`] once a block is taller than
/// [`Tuning::tube_seq_planes`] (the output is split at row boundaries,
/// so the halves write disjoint slices), and all per-level scratch comes
/// from the thread-local arena.
pub fn combine_dist_arrays_with<A: Array2d<i64>, B: Array2d<i64>>(
    a: &A,
    b: &B,
    t: Tuning,
) -> Dense<i64> {
    let s = a.rows();
    assert_eq!(a.cols(), s);
    assert_eq!(b.rows(), s);
    assert_eq!(b.cols(), s);
    let inf = <i64 as Value>::INFINITY;
    let mut out = vec![inf; s * s];
    // Solve rows (of the output) by halving with per-column sandwiches.
    with_scratch2(|lo: &mut Vec<usize>, hi: &mut Vec<usize>| {
        lo.clear();
        lo.resize(s, 0);
        hi.clear();
        hi.resize(s, s.saturating_sub(1));
        with_scratch(|scratch: &mut Vec<i64>| {
            dc(a, b, 0, s, lo, hi, &mut out, scratch, t);
        });
    });
    Dense::from_vec(s, s, out)
}

/// Solves output rows `i0..i1`; `out` is the row-major slice covering
/// exactly those rows (`(i1 - i0) * s` entries).
#[allow(clippy::too_many_arguments)]
fn dc<A: Array2d<i64>, B: Array2d<i64>>(
    a: &A,
    b: &B,
    i0: usize,
    i1: usize,
    lo: &[usize],
    hi: &[usize],
    out: &mut [i64],
    scratch: &mut Vec<i64>,
    t: Tuning,
) {
    if i0 >= i1 {
        return;
    }
    let s = a.rows();
    let mid = i0 + (i1 - i0) / 2;
    let (top, rest) = out.split_at_mut((mid - i0) * s);
    let (mid_row, bot) = rest.split_at_mut(s);
    // The middle output row lives on the Monge plane
    // F[k][j] = a[mid,j] + b[j,k]; each sandwich is one batched scan.
    with_scratch(|args: &mut Vec<usize>| {
        args.clear();
        args.resize(s, 0);
        {
            let pl = plane(a, b, mid);
            let mut from = 0usize;
            for k in 0..s {
                // Feasible middle coordinates: j in [mid, k] (band) ∩ sandwich.
                if k < mid {
                    args[k] = mid.min(k); // unused; out stays ∞ (j<i infeasible)
                    continue;
                }
                let l = lo[k].max(from).max(mid);
                let h = hi[k].min(k);
                let (bj, bv) = eval::interval_argmin(&pl, k, l, h.max(l) + 1, scratch);
                mid_row[k] = bv;
                args[k] = bj;
                from = bj;
            }
        }
        // `args` is both the upper block's inclusive upper bounds and the
        // lower block's lower bounds (double argmin monotonicity).
        if i1 - i0 > t.tube_seq_planes.max(1) {
            runtime::join(
                || with_scratch(|sc: &mut Vec<i64>| dc(a, b, i0, mid, lo, args, top, sc, t)),
                || with_scratch(|sc: &mut Vec<i64>| dc(a, b, mid + 1, i1, args, hi, bot, sc, t)),
            );
        } else {
            dc(a, b, i0, mid, lo, args, top, scratch, t);
            dc(a, b, mid + 1, i1, args, hi, bot, scratch, t);
        }
    });
}

/// A **lazy** banded `(min,+)` DIST product: entries are computed on
/// demand from the factors instead of materializing the `s × s` result.
///
/// An entry costs a band scan and a whole row costs one monotone sweep,
/// so consuming the same entries repeatedly (as the next level of a
/// combining tree does) recomputes expensive work — wrap the product in
/// [`monge_core::CachedArray`] to materialize each row at most once.
/// The `cached_lazy_product_*` test demonstrates the evaluation-count
/// difference via [`monge_core::CountingArray`].
pub struct DistProduct<'a, A, B> {
    a: &'a A,
    b: &'a B,
}

impl<'a, A: Array2d<i64>, B: Array2d<i64>> DistProduct<'a, A, B> {
    /// Wraps two square DIST factors of equal order.
    pub fn new(a: &'a A, b: &'a B) -> Self {
        let s = a.rows();
        assert_eq!(a.cols(), s);
        assert_eq!(b.rows(), s);
        assert_eq!(b.cols(), s);
        Self { a, b }
    }
}

impl<'a, A: Array2d<i64>, B: Array2d<i64>> Array2d<i64> for DistProduct<'a, A, B> {
    fn rows(&self) -> usize {
        self.a.rows()
    }
    fn cols(&self) -> usize {
        self.a.rows()
    }
    fn entry(&self, i: usize, k: usize) -> i64 {
        if k < i {
            return <i64 as Value>::INFINITY;
        }
        let mut best = <i64 as Value>::INFINITY;
        for j in i..=k {
            let v = self.a.entry(i, j).add(self.b.entry(j, k));
            if v < best {
                best = v;
            }
        }
        best
    }
    fn fill_row(&self, i: usize, cols: std::ops::Range<usize>, out: &mut [i64]) {
        // One monotone sweep computes the whole output row in
        // O(s + argmin span) factor evaluations; the requested slice is
        // copied out. (Row granularity matches CachedArray's.) Both the
        // row buffer and the scan scratch are pooled, so repeated calls
        // (a combining tree touches every row of every level) allocate
        // nothing.
        let s = self.a.rows();
        let inf = <i64 as Value>::INFINITY;
        // NOTE: because this computes the *whole* row per call (the
        // monotone sweep is row-granular), `prefers_streaming` stays
        // at its default `false` — chunked streaming would re-run the
        // sweep once per chunk.
        with_scratch2(|row: &mut Vec<i64>, scratch: &mut Vec<i64>| {
            row.clear();
            row.resize(s, inf);
            let pl = plane(self.a, self.b, i);
            let mut from = i;
            for (k, slot) in row.iter_mut().enumerate().skip(i) {
                let (bj, bv) = eval::interval_argmin(&pl, k, from, k + 1, scratch);
                *slot = bv;
                from = bj;
            }
            for (slot, k) in out.iter_mut().zip(cols) {
                *slot = row[k];
            }
        });
    }
}

/// Brute-force `(min,+)` oracle for DIST products.
pub fn combine_dist_brute(a: &Dense<i64>, b: &Dense<i64>) -> Dense<i64> {
    let s = a.rows();
    Dense::tabulate(s, s, |i, k| {
        let mut best = <i64 as Value>::INFINITY;
        for j in 0..s {
            let v = a.entry(i, j).add(b.entry(j, k));
            if v < best {
                best = v;
            }
        }
        best
    })
}

/// Edit distance through the DIST pipeline: split `x` into `strips`
/// horizontal strips, build each strip's DIST in parallel, combine with
/// a parallel reduction tree of banded `(min,+)` products, and read
/// `DIST[0][n]`.
pub fn edit_distance_dist_tree(x: &[u8], y: &[u8], c: &CostModel, strips: usize) -> i64 {
    edit_distance_dist_tree_with(x, y, c, strips, Tuning::from_env())
}

/// [`edit_distance_dist_tree`] with explicit tuning: every stage is
/// parallel — the per-strip DIST builds fan out over rayon, and each
/// `(min,+)` combination in the reduction tree runs the forked
/// [`combine_dist_arrays_with`] divide & conquer, so two combines *and*
/// the row blocks within one combine execute concurrently.
pub fn edit_distance_dist_tree_with(
    x: &[u8],
    y: &[u8],
    c: &CostModel,
    strips: usize,
    t: Tuning,
) -> i64 {
    let strips = strips.clamp(1, x.len().max(1));
    let chunk = x.len().div_ceil(strips);
    let parts: Vec<&[u8]> = if x.is_empty() {
        vec![&[][..]]
    } else {
        x.chunks(chunk).collect()
    };
    let dists = runtime::par_map(parts, |xs| strip_dist(xs, y, c));
    combine_tree(dists, t).entry(0, y.len())
}

/// Combines adjacent DIST matrices in a balanced tree, the two halves
/// in parallel when both hold a combine.
fn combine_tree(mut dists: Vec<Dense<i64>>, t: Tuning) -> Dense<i64> {
    if dists.len() == 1 {
        return dists.pop().expect("at least one strip");
    }
    let right = dists.split_off(dists.len() / 2);
    // A one-matrix half only pops its matrix; forking for it costs a
    // thread spawn.
    let (a, b) = if dists.len() >= 2 && right.len() >= 2 {
        runtime::join(|| combine_tree(dists, t), || combine_tree(right, t))
    } else {
        (combine_tree(dists, t), combine_tree(right, t))
    };
    combine_dist_arrays_with(&a, &b, t)
}

/// Edit distance with the DIST combining tree executed on the simulated
/// hypercube — §1.3's headline claim ("the string editing problem … can
/// be solved in `O(lg n lg m)` time on an `nm`-processor hypercube,
/// cube-connected cycles, or shuffle-exchange network"). Strip DIST
/// matrices are built host-side; every `(min,+)` combination is
/// dispatched to the hypercube backend as a
/// [`Problem::tube_minima`], and the returned metrics accumulate the
/// exchanges of all `⌈lg strips⌉` combining rounds (each round's
/// combines run on disjoint sub-networks, so the critical path adds the
/// *maximum* steps per round).
pub fn edit_distance_hc(
    x: &[u8],
    y: &[u8],
    c: &CostModel,
    strips: usize,
) -> (i64, monge_hypercube::NetMetrics) {
    let strips = strips.clamp(1, x.len().max(1));
    let chunk = x.len().div_ceil(strips);
    let parts: Vec<&[u8]> = if x.is_empty() {
        vec![&[][..]]
    } else {
        x.chunks(chunk).collect()
    };
    let mut level: Vec<Dense<i64>> = parts.iter().map(|xs| strip_dist(xs, y, c)).collect();
    let disp = Dispatcher::with_default_backends();
    let mut total = monge_hypercube::NetMetrics::default();
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len().div_ceil(2));
        let mut round_steps = 0u64;
        let mut round_local = 0u64;
        let mut iter = level.into_iter();
        while let Some(a) = iter.next() {
            match iter.next() {
                Some(b) => {
                    let (sol, tel) = disp
                        .solve_on(
                            "hypercube",
                            &Problem::tube_minima(&a, &b),
                            Tuning::from_env(),
                        )
                        .expect("hypercube backend implements tube minima");
                    round_steps = round_steps.max(tel.machine.comm_steps);
                    round_local = round_local.max(tel.machine.local_steps);
                    total.messages += tel.machine.messages;
                    let extrema = sol.into_tube();
                    next.push(Dense::from_vec(extrema.p, extrema.r, extrema.value));
                }
                None => next.push(a),
            }
        }
        total.comm_steps += round_steps;
        total.local_steps += round_local;
        level = next;
    }
    let d = level.pop().expect("at least one strip");
    (d.entry(0, y.len()), total)
}

/// One edit operation of a recovered script.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EditOp {
    /// Delete `x[i]`.
    Delete(usize),
    /// Insert `y[j]` .
    Insert(usize),
    /// Substitute `x[i]` by `y[j]` (possibly a free match).
    Substitute(usize, usize),
}

/// Full DP with traceback: returns the optimal cost and one optimal
/// script. `O(mn)` time and space.
pub fn edit_script(x: &[u8], y: &[u8], c: &CostModel) -> (i64, Vec<EditOp>) {
    let (m, n) = (x.len(), y.len());
    let mut dp = vec![0i64; (m + 1) * (n + 1)];
    let at = |i: usize, j: usize| i * (n + 1) + j;
    for j in 1..=n {
        dp[at(0, j)] = dp[at(0, j - 1)] + (c.ins)(y[j - 1]);
    }
    for i in 1..=m {
        dp[at(i, 0)] = dp[at(i - 1, 0)] + (c.del)(x[i - 1]);
        for j in 1..=n {
            dp[at(i, j)] = (dp[at(i - 1, j)] + (c.del)(x[i - 1]))
                .min(dp[at(i, j - 1)] + (c.ins)(y[j - 1]))
                .min(dp[at(i - 1, j - 1)] + (c.sub)(x[i - 1], y[j - 1]));
        }
    }
    // Traceback.
    let mut ops = Vec::new();
    let (mut i, mut j) = (m, n);
    while i > 0 || j > 0 {
        let cur = dp[at(i, j)];
        if i > 0 && j > 0 && cur == dp[at(i - 1, j - 1)] + (c.sub)(x[i - 1], y[j - 1]) {
            ops.push(EditOp::Substitute(i - 1, j - 1));
            i -= 1;
            j -= 1;
        } else if i > 0 && cur == dp[at(i - 1, j)] + (c.del)(x[i - 1]) {
            ops.push(EditOp::Delete(i - 1));
            i -= 1;
        } else {
            ops.push(EditOp::Insert(j - 1));
            j -= 1;
        }
    }
    ops.reverse();
    (dp[at(m, n)], ops)
}

/// Applies a script to `x`, producing the edited byte string (test
/// helper asserting script validity).
pub fn apply_script(x: &[u8], y: &[u8], ops: &[EditOp]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut xi = 0usize;
    for &op in ops {
        match op {
            EditOp::Delete(i) => {
                assert_eq!(i, xi, "script out of order");
                xi += 1;
            }
            EditOp::Insert(j) => out.push(y[j]),
            EditOp::Substitute(i, j) => {
                assert_eq!(i, xi);
                out.push(y[j]);
                xi += 1;
            }
        }
    }
    assert_eq!(xi, x.len(), "script did not consume x");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_string(n: usize, sigma: u8, rng: &mut StdRng) -> Vec<u8> {
        (0..n).map(|_| b'a' + rng.random_range(0..sigma)).collect()
    }

    #[test]
    fn dp_known_cases() {
        let c = CostModel::unit();
        assert_eq!(edit_distance_dp(b"kitten", b"sitting", &c), 3);
        assert_eq!(edit_distance_dp(b"", b"abc", &c), 3);
        assert_eq!(edit_distance_dp(b"abc", b"", &c), 3);
        assert_eq!(edit_distance_dp(b"abc", b"abc", &c), 0);
        assert_eq!(edit_distance_dp(b"", b"", &c), 0);
    }

    #[test]
    fn antidiagonal_matches_dp() {
        let mut rng = StdRng::seed_from_u64(160);
        for _ in 0..20 {
            let m = rng.random_range(0..40);
            let n = rng.random_range(0..40);
            let x = random_string(m, 4, &mut rng);
            let y = random_string(n, 4, &mut rng);
            for c in [CostModel::unit(), CostModel::weighted()] {
                assert_eq!(
                    edit_distance_antidiagonal(&x, &y, &c),
                    edit_distance_dp(&x, &y, &c),
                    "m={m} n={n}"
                );
            }
        }
    }

    #[test]
    fn dist_matrices_are_monge_on_the_finite_band() {
        let mut rng = StdRng::seed_from_u64(161);
        let x = random_string(6, 4, &mut rng);
        let y = random_string(9, 4, &mut rng);
        let c = CostModel::unit();
        let d = strip_dist(&x, &y, &c);
        let s = d.rows();
        for i in 0..s {
            for k in i + 1..s {
                for j in 0..s {
                    for l in j + 1..s {
                        let (a1, a2, a3, a4) =
                            (d.entry(i, j), d.entry(i, l), d.entry(k, j), d.entry(k, l));
                        let inf = <i64 as Value>::INFINITY;
                        if a1 < inf && a2 < inf && a3 < inf && a4 < inf {
                            assert!(a1 + a4 <= a2 + a3, "quadrangle fails at {i},{k},{j},{l}");
                        }
                    }
                }
            }
        }
    }

    /// The per-start DP `strip_dist` ran before the triangle kernel:
    /// every start updates all `n + 1` columns and calls the cost model
    /// in every cell. Kept as the reference the kernel must match.
    fn strip_dist_reference(xs: &[u8], y: &[u8], c: &CostModel) -> Dense<i64> {
        let n = y.len();
        let inf = <i64 as Value>::INFINITY;
        let rows: Vec<Vec<i64>> = (0..=n)
            .map(|start| {
                let mut prev = vec![inf; n + 1];
                prev[start] = 0;
                for j in start + 1..=n {
                    prev[j] = prev[j - 1].saturating_add((c.ins)(y[j - 1]));
                }
                let mut cur = vec![inf; n + 1];
                for &xc in xs {
                    for j in 0..=n {
                        let mut best = prev[j].saturating_add((c.del)(xc));
                        if j >= 1 {
                            best = best
                                .min(cur[j - 1].saturating_add((c.ins)(y[j - 1])))
                                .min(prev[j - 1].saturating_add((c.sub)(xc, y[j - 1])));
                        }
                        cur[j] = best.min(inf);
                    }
                    std::mem::swap(&mut prev, &mut cur);
                    cur.fill(inf);
                }
                prev.iter().map(|&v| v.min(inf)).collect()
            })
            .collect();
        Dense::from_rows(rows)
    }

    #[test]
    fn strip_dist_matches_the_dp_oracle_and_the_reference() {
        // Odd and even n: an even n leaves the middle start unpaired.
        let mut rng = StdRng::seed_from_u64(166);
        let inf = <i64 as Value>::INFINITY;
        for c in [CostModel::unit(), CostModel::weighted()] {
            for h in [0usize, 1, 2, 7] {
                for n in 0..=33 {
                    let xs = random_string(h, 4, &mut rng);
                    let y = random_string(n, 4, &mut rng);
                    let d = strip_dist(&xs, &y, &c);
                    assert_eq!(d, strip_dist_reference(&xs, &y, &c), "h={h} n={n}");
                    for i in 0..=n {
                        for j in 0..=n {
                            let want = if j < i {
                                inf
                            } else {
                                edit_distance_dp(&xs, &y[i..j], &c)
                            };
                            assert_eq!(d.entry(i, j), want, "h={h} n={n} DIST[{i}][{j}]");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn strip_dist_saturates_like_the_reference() {
        // Each operation costs about INFINITY / 3, so a path of a few
        // operations passes INFINITY and a long insertion run passes
        // i64::MAX: plain adds would overflow (and panic in debug builds).
        let inf = <i64 as Value>::INFINITY;
        let huge = CostModel {
            del: |_| <i64 as Value>::INFINITY / 3,
            ins: |_| <i64 as Value>::INFINITY / 3 + 1,
            sub: |a, b| i64::from(a != b) * (<i64 as Value>::INFINITY / 3),
        };
        let mut rng = StdRng::seed_from_u64(167);
        for h in [0usize, 1, 2, 7] {
            for n in [0usize, 1, 2, 13, 32, 33] {
                let xs = random_string(h, 2, &mut rng);
                let y = random_string(n, 2, &mut rng);
                let d = strip_dist(&xs, &y, &huge);
                assert_eq!(d, strip_dist_reference(&xs, &y, &huge), "h={h} n={n}");
                if h == 0 && n >= 3 {
                    assert_eq!(d.entry(0, n), inf, "{n} insertions clamp to ∞");
                }
            }
        }
    }

    #[test]
    fn combine_matches_brute() {
        let mut rng = StdRng::seed_from_u64(162);
        let y = random_string(12, 4, &mut rng);
        let c = CostModel::weighted();
        let x1 = random_string(5, 4, &mut rng);
        let x2 = random_string(7, 4, &mut rng);
        let a = strip_dist(&x1, &y, &c);
        let b = strip_dist(&x2, &y, &c);
        assert_eq!(combine_dist(&a, &b), combine_dist_brute(&a, &b));
    }

    #[test]
    fn lazy_product_matches_dense_product() {
        let mut rng = StdRng::seed_from_u64(164);
        let y = random_string(14, 4, &mut rng);
        let c = CostModel::weighted();
        let a = strip_dist(&random_string(6, 4, &mut rng), &y, &c);
        let b = strip_dist(&random_string(5, 4, &mut rng), &y, &c);
        let dense = combine_dist(&a, &b);
        let lazy = DistProduct::new(&a, &b);
        let s = dense.rows();
        assert_eq!(lazy.to_dense(), dense);
        let mut buf = vec![0i64; s];
        for i in 0..s {
            lazy.fill_row(i, 0..s, &mut buf);
            for (k, &v) in buf.iter().enumerate() {
                assert_eq!(v, dense.entry(i, k), "row {i} col {k}");
            }
        }
    }

    #[test]
    fn cached_lazy_product_does_fewer_factor_evaluations() {
        use monge_core::{CachedArray, CountingArray};
        // Three strips combined as (d1 ⊗ d2) ⊗ d3, with the inner product
        // kept lazy. Every touch of the lazy product re-sweeps the factors,
        // so the CachedArray wrapper (one sweep per row, then memcpy) must
        // show far fewer factor evaluations for the same output.
        let mut rng = StdRng::seed_from_u64(165);
        let y = random_string(16, 4, &mut rng);
        let c = CostModel::weighted();
        let d1 = strip_dist(&random_string(6, 4, &mut rng), &y, &c);
        let d2 = strip_dist(&random_string(7, 4, &mut rng), &y, &c);
        let d3 = strip_dist(&random_string(5, 4, &mut rng), &y, &c);
        let want = combine_dist(&combine_dist(&d1, &d2), &d3);

        let (ca, cb) = (CountingArray::new(&d1), CountingArray::new(&d2));
        let lazy = DistProduct::new(&ca, &cb);
        let got_plain = combine_dist_arrays(&lazy, &d3);
        let plain_evals = ca.evaluations() + cb.evaluations();

        let (ca, cb) = (CountingArray::new(&d1), CountingArray::new(&d2));
        let lazy = DistProduct::new(&ca, &cb);
        let cached = CachedArray::new(&lazy);
        let got_cached = combine_dist_arrays(&cached, &d3);
        let cached_evals = ca.evaluations() + cb.evaluations();

        assert_eq!(got_plain, want);
        assert_eq!(got_cached, want);
        assert!(
            cached_evals < plain_evals,
            "cached {cached_evals} vs plain {plain_evals}"
        );
    }

    #[test]
    fn dist_tree_matches_dp() {
        let mut rng = StdRng::seed_from_u64(163);
        for strips in [1usize, 2, 3, 5, 8] {
            let m = rng.random_range(1..50);
            let n = rng.random_range(1..50);
            let x = random_string(m, 3, &mut rng);
            let y = random_string(n, 3, &mut rng);
            for c in [CostModel::unit(), CostModel::weighted()] {
                assert_eq!(
                    edit_distance_dist_tree(&x, &y, &c, strips),
                    edit_distance_dp(&x, &y, &c),
                    "strips={strips} m={m} n={n}"
                );
            }
        }
    }

    #[test]
    fn script_is_valid_and_optimal() {
        let mut rng = StdRng::seed_from_u64(164);
        for _ in 0..10 {
            let x = random_string(rng.random_range(0..25), 3, &mut rng);
            let y = random_string(rng.random_range(0..25), 3, &mut rng);
            let c = CostModel::unit();
            let (cost, ops) = edit_script(&x, &y, &c);
            assert_eq!(cost, edit_distance_dp(&x, &y, &c));
            assert_eq!(apply_script(&x, &y, &ops), y);
            // Unit model: script cost equals the number of non-free ops.
            let paid = ops
                .iter()
                .filter(|op| match op {
                    EditOp::Substitute(i, j) => x[*i] != y[*j],
                    _ => true,
                })
                .count() as i64;
            assert_eq!(paid, cost);
        }
    }

    #[test]
    fn hypercube_combine_matches_dp() {
        let mut rng = StdRng::seed_from_u64(165);
        for strips in [2usize, 3, 4] {
            let m = rng.random_range(4..16);
            let n = rng.random_range(4..16);
            let x = random_string(m, 4, &mut rng);
            let y = random_string(n, 4, &mut rng);
            let c = CostModel::unit();
            let (d, metrics) = edit_distance_hc(&x, &y, &c, strips);
            assert_eq!(
                d,
                edit_distance_dp(&x, &y, &c),
                "strips={strips} m={m} n={n}"
            );
            assert!(metrics.comm_steps > 0);
        }
    }

    #[test]
    fn hypercube_combine_steps_are_polylogarithmic() {
        let c = CostModel::unit();
        let steps_of = |n: usize| {
            let (x, y) = (
                (0..n).map(|i| b'a' + (i % 4) as u8).collect::<Vec<_>>(),
                (0..n).map(|i| b'a' + (i % 3) as u8).collect::<Vec<_>>(),
            );
            edit_distance_hc(&x, &y, &c, 2).1.comm_steps
        };
        let s12 = steps_of(8);
        let s24 = steps_of(16);
        // Doubling n must grow the exchange count far slower than the
        // O(n²) work a flat DP would need.
        assert!(s24 <= 3 * s12, "{s12} -> {s24}");
    }

    #[test]
    fn empty_strip_edge_cases() {
        let c = CostModel::unit();
        assert_eq!(edit_distance_dist_tree(b"", b"abc", &c, 4), 3);
        assert_eq!(edit_distance_dist_tree(b"abc", b"", &c, 2), 3);
    }

    #[test]
    fn adversarial_weights_are_rejected_not_wrapped() {
        // Costs adjacent to i64::MAX: one operation already exceeds the
        // finite budget, so the audit must refuse before the DP wraps.
        let evil = CostModel {
            del: |_| i64::MAX - 1,
            ins: |_| i64::MAX - 1,
            sub: |_, _| i64::MAX - 1,
        };
        assert!(matches!(
            try_edit_distance_dp(b"ab", b"cd", &evil),
            Err(SolveError::Overflow { .. })
        ));
        assert!(matches!(
            try_edit_distance_dist_tree(b"ab", b"cd", &evil, 2),
            Err(SolveError::Overflow { .. })
        ));
        // The largest per-op cost the audit admits for this length still
        // solves, and matches the unchecked DP.
        let ops = 2 + 2 + 1;
        let max_ok = <i64 as Value>::INFINITY / 2 / ops - 1;
        assert!(max_ok > 0);
        let benign = CostModel {
            del: |_| 3,
            ins: |_| 2,
            sub: |a, b| i64::from(a != b) * 4,
        };
        assert_eq!(
            try_edit_distance_dp(b"ab", b"cd", &benign).expect("benign model passes the audit"),
            edit_distance_dp(b"ab", b"cd", &benign)
        );
        assert_eq!(
            try_edit_distance_dist_tree(b"kitten", b"sitting", &CostModel::unit(), 3)
                .expect("unit model passes the audit"),
            3
        );
    }
}
