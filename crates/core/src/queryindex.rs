//! Submatrix query serving: build a [`QueryIndex`] over a fixed Monge
//! (or inverse-Monge) array once, then answer rectangle minimum /
//! maximum queries `(r1..r2, c1..c2)` without touching the source array
//! again.
//!
//! ## Structure
//!
//! The index is a segment tree over the row set. Each canonical node
//! covering rows `[lo, hi)` stores, for both objectives, the node's
//! **column-extrema envelope**: for every column `j`, the optimum of
//! `a[lo..hi, j]` together with the smallest row attaining it, as a
//! list of **breakpoint segments** (runs of constant owning row). A
//! leaf's single row owns every column. An internal node merges its
//! two children's envelopes: in a Monge or inverse-Monge slab the
//! owning-row map `j → row(j)` is monotone, so the lower child owns a
//! suffix or a prefix of the columns. One binary search finds that
//! crossover column; the children's segments on either side are copied
//! and only the at most two segments it cuts are rescanned. A node
//! therefore has at most `min(hi-lo, n)` segments.
//!
//! Per segment the envelope keeps the lexicographically best cell
//! `(value, row, col)`, and a sparse table over those champions answers
//! any run of *whole* segments in `O(1)`. A query decomposes its row
//! range into `O(lg m)` canonical nodes; inside each node a predecessor
//! search over the breakpoint starts locates the at-most-two *partial*
//! boundary segments, which are finished from the index's own row store
//! (dense copy of the array plus 64-wide block min/max summaries).
//! Queries therefore evaluate **zero** source-array entries, and cost
//! `O(lg m · (lg n + B))` store reads each.
//!
//! The build evaluates each source entry exactly once, filling the row
//! store (`m·n` copies plus one summary pass over the copy); merges read
//! only the store. A merge into a node of `s` segments costs
//! `O(lg n · lg s + s lg s)` plus `O(B + n/B)` reads per cut segment, so
//! the fill dominates. Stores holding `±∞` sentinels merge column by
//! column: `O(n)` per node. Build loops call
//! [`crate::guard::checkpoint`], so guarded builds honor deadlines and
//! cancellation.
//!
//! ```
//! use monge_core::array2d::Dense;
//! use monge_core::problem::Structure;
//! use monge_core::queryindex::QueryIndex;
//!
//! let a = Dense::tabulate(16, 16, |i, j| {
//!     let d = i as i64 - j as i64;
//!     d * d // Monge
//! });
//! let ix = QueryIndex::build(&a, Structure::Monge).unwrap();
//! let ans = ix.query_min(2..9, 4..13).unwrap();
//! assert_eq!((ans.value, ans.row, ans.col), (0, 4, 4));
//! ```

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::array2d::{Array2d, Dense};
use crate::guard::{checkpoint, SolveError};
use crate::problem::{Objective, Structure};
use crate::value::Value;

/// Width of the row store's per-block summaries. Partial blocks at the
/// edges of a scan are finished element-wise, so a row-interval scan
/// reads `O(BLOCK + len/BLOCK)` stored values.
const BLOCK: usize = 64;

/// Child-pointer sentinel for leaf nodes.
const NONE: u32 = u32::MAX;

/// One rectangle-query answer: the optimal value and the cell that
/// attains it under the index's tie rule (smallest row, then smallest
/// column, among optimal cells).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueryAnswer<T> {
    /// The optimum over the rectangle.
    pub value: T,
    /// Smallest row attaining the optimum.
    pub row: usize,
    /// Smallest column attaining the optimum within that row.
    pub col: usize,
}

/// A candidate cell during query combination (`u32` coordinates keep
/// the per-segment storage at 16 bytes + `T`).
#[derive(Clone, Copy)]
struct Cand<T> {
    value: T,
    row: u32,
    col: u32,
}

impl<T: Value> Cand<T> {
    /// Does `self` beat `other` under `objective`? Strictly better
    /// value wins; equal values fall back to the smaller `(row, col)`.
    fn beats(&self, other: &Cand<T>, objective: Objective) -> bool {
        let (a, b) = (self.value, other.value);
        let better = match objective {
            Objective::Minimize => T::total_lt(a, b),
            Objective::Maximize => T::total_lt(b, a),
        };
        if better {
            return true;
        }
        let worse = match objective {
            Objective::Minimize => T::total_lt(b, a),
            Objective::Maximize => T::total_lt(a, b),
        };
        if worse {
            return false;
        }
        (self.row, self.col) < (other.row, other.col)
    }
}

/// Folds `cand` into `acc`, keeping the better cell.
fn fold<T: Value>(acc: &mut Option<Cand<T>>, cand: Cand<T>, objective: Objective) {
    match acc {
        Some(best) if !cand.beats(best, objective) => {}
        _ => *acc = Some(cand),
    }
}

/// Dense copy of the source array plus 64-wide per-block min/max
/// summaries (value + leftmost attaining column). All query-time value
/// reads come from here, never from the source array.
struct RowStore<T> {
    dense: Dense<T>,
    blocks_per_row: usize,
    bmin: Vec<T>,
    bmin_col: Vec<u32>,
    bmax: Vec<T>,
    bmax_col: Vec<u32>,
    /// Any `±∞` sentinel present? Sentinel-bearing arrays satisfy the
    /// Monge inequality only in the absorbing arithmetic of
    /// [`Value::add`], which does not keep the smallest owning row
    /// monotone in the column (tied sentinels can move it back), so
    /// envelope merges apply the winner test column by column instead
    /// of searching for a single crossover.
    infinite: bool,
}

impl<T: Value> RowStore<T> {
    fn build(array: &dyn Array2d<T>) -> Self {
        let (m, n) = (array.rows(), array.cols());
        let mut data = vec![T::ZERO; m * n];
        for (i, row) in data.chunks_mut(n).enumerate() {
            checkpoint();
            array.fill_row(i, 0..n, row);
        }
        let dense = Dense::from_vec(m, n, data);
        let blocks_per_row = n.div_ceil(BLOCK);
        let mut bmin = Vec::with_capacity(m * blocks_per_row);
        let mut bmin_col = Vec::with_capacity(m * blocks_per_row);
        let mut bmax = Vec::with_capacity(m * blocks_per_row);
        let mut bmax_col = Vec::with_capacity(m * blocks_per_row);
        let mut infinite = false;
        for i in 0..m {
            checkpoint();
            let row = dense.row_view(i, 0..n).expect("dense rows are contiguous");
            for (b, chunk) in row.chunks(BLOCK).enumerate() {
                let base = (b * BLOCK) as u32;
                let (mut lo, mut lo_col) = (chunk[0], base);
                let (mut hi, mut hi_col) = (chunk[0], base);
                infinite |= chunk[0].is_infinite();
                for (off, &v) in chunk.iter().enumerate().skip(1) {
                    infinite |= v.is_infinite();
                    if T::total_lt(v, lo) {
                        lo = v;
                        lo_col = base + off as u32;
                    }
                    if T::total_lt(hi, v) {
                        hi = v;
                        hi_col = base + off as u32;
                    }
                }
                bmin.push(lo);
                bmin_col.push(lo_col);
                bmax.push(hi);
                bmax_col.push(hi_col);
            }
        }
        RowStore {
            dense,
            blocks_per_row,
            bmin,
            bmin_col,
            bmax,
            bmax_col,
            infinite,
        }
    }

    fn cell(&self, row: u32, col: usize) -> Cand<T> {
        Cand {
            value: self.dense.entry(row as usize, col),
            row,
            col: col as u32,
        }
    }

    /// Leftmost optimum of the stored row over `cols` (non-empty).
    /// Short intervals scan directly; long ones use whole-block
    /// summaries between element-wise partial edges.
    fn scan(&self, row: usize, cols: Range<usize>, objective: Objective) -> Cand<T> {
        debug_assert!(!cols.is_empty());
        let (lo, hi) = (cols.start, cols.end);
        let row_u32 = row as u32;
        let slice = self
            .dense
            .row_view(row, 0..self.dense.cols())
            .expect("dense rows are contiguous");
        let scan_elems = |from: usize, to: usize, best: &mut Option<Cand<T>>| {
            for (off, &v) in slice[from..to].iter().enumerate() {
                fold(
                    best,
                    Cand {
                        value: v,
                        row: row_u32,
                        col: (from + off) as u32,
                    },
                    objective,
                );
            }
        };
        let mut best: Option<Cand<T>> = None;
        if hi - lo <= 2 * BLOCK {
            scan_elems(lo, hi, &mut best);
            return best.expect("non-empty scan");
        }
        let first_full = lo.div_ceil(BLOCK);
        let last_full = hi / BLOCK; // exclusive
        scan_elems(lo, first_full * BLOCK, &mut best);
        let base = row * self.blocks_per_row;
        for b in first_full..last_full {
            let (v, c) = match objective {
                Objective::Minimize => (self.bmin[base + b], self.bmin_col[base + b]),
                Objective::Maximize => (self.bmax[base + b], self.bmax_col[base + b]),
            };
            fold(
                &mut best,
                Cand {
                    value: v,
                    row: row_u32,
                    col: c,
                },
                objective,
            );
        }
        scan_elems(last_full * BLOCK, hi, &mut best);
        best.expect("non-empty scan")
    }

    fn bytes(&self) -> u64 {
        let t = std::mem::size_of::<T>() as u64;
        let cells = (self.dense.rows() * self.dense.cols()) as u64;
        let blocks = self.bmin.len() as u64;
        cells * t + blocks * (2 * t + 8)
    }
}

/// One canonical node's breakpoint envelope for one objective: the
/// column-extrema of the node's row slab, compressed into runs of
/// constant owning row, with per-segment champion cells and a sparse
/// table over them.
struct Envelope<T> {
    /// Segment start columns (`starts[0] == 0`), sorted ascending.
    starts: Vec<u32>,
    /// Owning row (absolute) per segment.
    owner: Vec<u32>,
    /// Champion value per segment (the segment's best column-extremum).
    best_val: Vec<T>,
    /// Champion column per segment (leftmost attaining `best_val`).
    best_col: Vec<u32>,
    /// Sparse table: `table[k-1][i]` is the champion segment index of
    /// segments `[i, i + 2^k)`.
    table: Vec<Vec<u32>>,
}

impl<T: Value> Envelope<T> {
    fn empty() -> Self {
        Envelope {
            starts: Vec::new(),
            owner: Vec::new(),
            best_val: Vec::new(),
            best_col: Vec::new(),
            table: Vec::new(),
        }
    }

    /// A leaf's envelope: one segment owned by the single row.
    fn leaf(store: &RowStore<T>, objective: Objective, row: usize) -> Self {
        let mut env = Self::empty();
        env.push(0, store.scan(row, 0..store.dense.cols(), objective));
        env
    }

    /// Merges the envelopes of two adjacent row slabs, `up` directly
    /// above `down`, into the envelope of their union. Column `j` goes to
    /// `down` only if the stored value of its owner strictly beats
    /// `up`'s, so ties keep the smaller row.
    ///
    /// In a Monge or inverse-Monge slab the smallest owning row is
    /// monotone in the column, so `down` wins a suffix of the columns
    /// (Monge minima, inverse-Monge maxima) or a prefix (otherwise): a
    /// binary search finds the crossover, each child's segments on its
    /// side are copied, and only the at most two segments the crossover
    /// cuts are rescanned. Sentinel-bearing stores lose that
    /// monotonicity, so they apply the test column by column.
    fn merge(
        store: &RowStore<T>,
        structure: Structure,
        objective: Objective,
        up: &Self,
        down: &Self,
    ) -> Self {
        let n = store.dense.cols();
        let mut env = Self::empty();
        if store.infinite {
            let (mut su, mut sd) = (0, 0);
            for j in 0..n {
                su += usize::from(up.starts.get(su + 1) == Some(&(j as u32)));
                sd += usize::from(down.starts.get(sd + 1) == Some(&(j as u32)));
                let (u, d) = (store.cell(up.owner[su], j), store.cell(down.owner[sd], j));
                let c = if d.beats(&u, objective) { d } else { u };
                let s = env.owner.len();
                if s > 0 && env.owner[s - 1] == c.row {
                    if c.beats(&env.champion(s - 1), objective) {
                        (env.best_val[s - 1], env.best_col[s - 1]) = (c.value, c.col);
                    }
                } else {
                    env.push(j, c);
                }
            }
        } else {
            let down_wins = |j: usize| {
                let owner = |e: &Self| e.owner[e.locate(j as u32, &mut 0)];
                store
                    .cell(owner(down), j)
                    .beats(&store.cell(owner(up), j), objective)
            };
            let down_suffix = (structure == Structure::Monge) == (objective == Objective::Minimize);
            let (first, second) = if down_suffix { (up, down) } else { (down, up) };
            // The crossover: the smallest column `second` owns.
            let (mut lo, mut hi) = (0, n);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if down_wins(mid) == down_suffix {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            first.push_clipped(&mut env, store, objective, 0..lo);
            second.push_clipped(&mut env, store, objective, lo..n);
        }
        env.build_table(objective);
        env
    }

    /// Appends a segment starting at column `start` with champion `c`.
    fn push(&mut self, start: usize, c: Cand<T>) {
        self.starts.push(start as u32);
        self.owner.push(c.row);
        self.best_val.push(c.value);
        self.best_col.push(c.col);
    }

    /// Appends this envelope's segments clipped to `cols`, rescanning
    /// the champion of any segment the clip cuts short.
    fn push_clipped(
        &self,
        out: &mut Self,
        store: &RowStore<T>,
        objective: Objective,
        cols: Range<usize>,
    ) {
        let n = store.dense.cols();
        for s in self.locate(cols.start as u32, &mut 0)..self.starts.len() {
            let seg = self.starts[s] as usize..self.starts.get(s + 1).map_or(n, |&e| e as usize);
            let clip = seg.start.max(cols.start)..seg.end.min(cols.end);
            if clip.is_empty() {
                break;
            }
            let champ = if clip == seg {
                self.champion(s)
            } else {
                store.scan(self.owner[s] as usize, clip.clone(), objective)
            };
            out.push(clip.start, champ);
        }
    }

    fn champion(&self, seg: usize) -> Cand<T> {
        Cand {
            value: self.best_val[seg],
            row: self.owner[seg],
            col: self.best_col[seg],
        }
    }

    fn build_table(&mut self, objective: Objective) {
        let s = self.starts.len();
        let mut prev: Vec<u32> = (0..s as u32).collect();
        let mut width = 1usize;
        while 2 * width <= s {
            let level: Vec<u32> = (0..s - 2 * width + 1)
                .map(|i| {
                    let (a, b) = (prev[i] as usize, prev[i + width] as usize);
                    if self.champion(a).beats(&self.champion(b), objective) {
                        a as u32
                    } else {
                        b as u32
                    }
                })
                .collect();
            self.table.push(level.clone());
            prev = level;
            width *= 2;
        }
    }

    /// Champion segment of the non-empty segment range `[a, b)`.
    fn range_champion(&self, a: usize, b: usize, objective: Objective) -> Cand<T> {
        debug_assert!(a < b);
        let k = usize::BITS - 1 - (b - a).leading_zeros();
        if k == 0 {
            return self.champion(a);
        }
        let left = self.table[(k - 1) as usize][a] as usize;
        let right = self.table[(k - 1) as usize][b - (1 << k)] as usize;
        let (lc, rc) = (self.champion(left), self.champion(right));
        if lc.beats(&rc, objective) {
            lc
        } else {
            rc
        }
    }

    /// Index of the segment containing column `c`, counting every
    /// binary-search step into `probes`.
    fn locate(&self, c: u32, probes: &mut u64) -> usize {
        let (mut lo, mut hi) = (0usize, self.starts.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            *probes += 1;
            if self.starts[mid] <= c {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo - 1
    }

    /// The envelope's best cell over columns `cols` (non-empty): up to
    /// two partial boundary segments finished from the row store, whole
    /// segments between them answered by the sparse table.
    fn query(
        &self,
        store: &RowStore<T>,
        objective: Objective,
        cols: Range<usize>,
        probes: &mut u64,
    ) -> Cand<T> {
        let (c1, c2) = (cols.start, cols.end);
        let s1 = self.locate(c1 as u32, probes);
        let s2 = self.locate((c2 - 1) as u32, probes);
        if s1 == s2 {
            return store.scan(self.owner[s1] as usize, c1..c2, objective);
        }
        let mut best: Option<Cand<T>> = None;
        let s1_end = self.starts[s1 + 1] as usize;
        fold(
            &mut best,
            store.scan(self.owner[s1] as usize, c1..s1_end, objective),
            objective,
        );
        if s1 + 1 < s2 {
            fold(
                &mut best,
                self.range_champion(s1 + 1, s2, objective),
                objective,
            );
        }
        let s2_start = self.starts[s2] as usize;
        fold(
            &mut best,
            store.scan(self.owner[s2] as usize, s2_start..c2, objective),
            objective,
        );
        best.expect("non-empty envelope query")
    }

    fn bytes(&self) -> u64 {
        let t = std::mem::size_of::<T>() as u64;
        let segs = self.starts.len() as u64;
        let table: u64 = self.table.iter().map(|l| l.len() as u64 * 4).sum();
        segs * (t + 12) + table
    }
}

/// One segment-tree node: a canonical row interval and its two
/// envelopes.
struct Node<T> {
    lo: u32,
    hi: u32,
    left: u32,
    right: u32,
    min_env: Envelope<T>,
    max_env: Envelope<T>,
}

impl<T> Node<T> {
    fn env(&self, objective: Objective) -> &Envelope<T> {
        match objective {
            Objective::Minimize => &self.min_env,
            Objective::Maximize => &self.max_env,
        }
    }
}

/// A submatrix-query index over a fixed Monge or inverse-Monge array —
/// see the [module docs](self) for the structure. Build once with
/// [`QueryIndex::build`], then serve [`QueryIndex::query_min`] /
/// [`QueryIndex::query_max`] from any number of threads (`&self`
/// queries; the usage counters are atomic).
pub struct QueryIndex<T> {
    structure: Structure,
    store: RowStore<T>,
    nodes: Vec<Node<T>>,
    root: u32,
    breakpoints: u64,
    queries: AtomicU64,
    probes: AtomicU64,
}

impl<T: Value> std::fmt::Debug for QueryIndex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryIndex")
            .field("rows", &self.rows())
            .field("cols", &self.cols())
            .field("structure", &self.structure)
            .field("breakpoints", &self.breakpoints)
            .finish_non_exhaustive()
    }
}

impl<T: Value> QueryIndex<T> {
    /// Preprocesses `array` for rectangle min/max serving.
    ///
    /// The build evaluates each source entry exactly once (the row-store
    /// fill), then builds the segment tree bottom-up, deriving each
    /// internal node's envelopes from its children's with one crossover
    /// search per objective; see the [module docs](self) for the costs.
    /// Loops call [`checkpoint`], so a guarded caller's deadline or
    /// cancellation aborts mid-build.
    ///
    /// # Errors
    ///
    /// [`SolveError::InvalidInput`] when the array is empty or the
    /// structural promise is [`Structure::Plain`] — without (inverse-)
    /// Monge structure the envelopes are not segment-decomposable and
    /// the index would silently return wrong answers.
    pub fn build(array: &dyn Array2d<T>, structure: Structure) -> Result<Self, SolveError> {
        if structure == Structure::Plain {
            return Err(SolveError::InvalidInput {
                reason: "query index requires a Monge or inverse-Monge promise".to_string(),
            });
        }
        let (m, n) = (array.rows(), array.cols());
        if m == 0 || n == 0 {
            return Err(SolveError::InvalidInput {
                reason: format!("query index over an empty array ({m} x {n})"),
            });
        }
        if m >= NONE as usize || n >= NONE as usize {
            return Err(SolveError::InvalidInput {
                reason: format!("array extent {m} x {n} exceeds the index's u32 coordinates"),
            });
        }
        let store = RowStore::build(array);
        let mut nodes = Vec::with_capacity(2 * m);
        let root = Self::build_node(&mut nodes, &store, structure, 0, m);
        let breakpoints = nodes
            .iter()
            .map(|nd| (nd.min_env.starts.len() + nd.max_env.starts.len()) as u64)
            .sum();
        Ok(QueryIndex {
            structure,
            store,
            nodes,
            root,
            breakpoints,
            queries: AtomicU64::new(0),
            probes: AtomicU64::new(0),
        })
    }

    fn build_node(
        nodes: &mut Vec<Node<T>>,
        store: &RowStore<T>,
        structure: Structure,
        lo: usize,
        hi: usize,
    ) -> u32 {
        checkpoint();
        let (left, right) = if hi - lo == 1 {
            (NONE, NONE)
        } else {
            let mid = lo + (hi - lo) / 2;
            (
                Self::build_node(nodes, store, structure, lo, mid),
                Self::build_node(nodes, store, structure, mid, hi),
            )
        };
        let [min_env, max_env] = [Objective::Minimize, Objective::Maximize].map(|objective| {
            if left == NONE {
                return Envelope::leaf(store, objective, lo);
            }
            let child = |k: u32| nodes[k as usize].env(objective);
            Envelope::merge(store, structure, objective, child(left), child(right))
        });
        nodes.push(Node {
            lo: lo as u32,
            hi: hi as u32,
            left,
            right,
            min_env,
            max_env,
        });
        (nodes.len() - 1) as u32
    }

    /// Rows of the indexed array.
    pub fn rows(&self) -> usize {
        self.store.dense.rows()
    }

    /// Columns of the indexed array.
    pub fn cols(&self) -> usize {
        self.store.dense.cols()
    }

    /// The structural promise the index was built under.
    pub fn structure(&self) -> Structure {
        self.structure
    }

    /// The rectangle minimum over `rows × cols`: smallest value, ties
    /// broken to the smallest row and then the smallest column.
    ///
    /// # Errors
    ///
    /// [`SolveError::InvalidInput`] on an empty or out-of-bounds range.
    pub fn query_min(
        &self,
        rows: Range<usize>,
        cols: Range<usize>,
    ) -> Result<QueryAnswer<T>, SolveError> {
        self.query(rows, cols, Objective::Minimize)
    }

    /// The rectangle maximum over `rows × cols` (same tie rule as
    /// [`QueryIndex::query_min`]).
    ///
    /// # Errors
    ///
    /// [`SolveError::InvalidInput`] on an empty or out-of-bounds range.
    pub fn query_max(
        &self,
        rows: Range<usize>,
        cols: Range<usize>,
    ) -> Result<QueryAnswer<T>, SolveError> {
        self.query(rows, cols, Objective::Maximize)
    }

    fn query(
        &self,
        rows: Range<usize>,
        cols: Range<usize>,
        objective: Objective,
    ) -> Result<QueryAnswer<T>, SolveError> {
        if rows.is_empty() || cols.is_empty() {
            return Err(SolveError::InvalidInput {
                reason: format!("empty query range ({rows:?} x {cols:?})"),
            });
        }
        if rows.end > self.rows() || cols.end > self.cols() {
            return Err(SolveError::InvalidInput {
                reason: format!(
                    "query ({rows:?} x {cols:?}) exceeds the indexed array ({} x {})",
                    self.rows(),
                    self.cols()
                ),
            });
        }
        let mut probes = 0u64;
        let mut best: Option<Cand<T>> = None;
        self.visit(self.root, &rows, &cols, objective, &mut best, &mut probes);
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.probes.fetch_add(probes, Ordering::Relaxed);
        let best = best.expect("canonical decomposition covers a non-empty range");
        Ok(QueryAnswer {
            value: best.value,
            row: best.row as usize,
            col: best.col as usize,
        })
    }

    fn visit(
        &self,
        node: u32,
        rows: &Range<usize>,
        cols: &Range<usize>,
        objective: Objective,
        best: &mut Option<Cand<T>>,
        probes: &mut u64,
    ) {
        let nd = &self.nodes[node as usize];
        let (lo, hi) = (nd.lo as usize, nd.hi as usize);
        if rows.end <= lo || hi <= rows.start {
            return;
        }
        if rows.start <= lo && hi <= rows.end {
            fold(
                best,
                nd.env(objective)
                    .query(&self.store, objective, cols.clone(), probes),
                objective,
            );
            return;
        }
        self.visit(nd.left, rows, cols, objective, best, probes);
        self.visit(nd.right, rows, cols, objective, best, probes);
    }

    /// Approximate heap footprint of the index (store, summaries,
    /// envelopes, and sparse tables), in bytes.
    pub fn bytes(&self) -> u64 {
        let envs: u64 = self
            .nodes
            .iter()
            .map(|nd| nd.min_env.bytes() + nd.max_env.bytes() + 16)
            .sum();
        self.store.bytes() + envs
    }

    /// Total breakpoint segments stored across every canonical node's
    /// two envelopes.
    pub fn breakpoints(&self) -> u64 {
        self.breakpoints
    }

    /// Rectangle queries answered since the build (or the last
    /// [`QueryIndex::take_counters`]).
    pub fn queries_answered(&self) -> u64 {
        self.queries.load(Ordering::Relaxed)
    }

    /// Predecessor-search probe steps performed while answering those
    /// queries.
    pub fn predecessor_probes(&self) -> u64 {
        self.probes.load(Ordering::Relaxed)
    }

    /// Drains the usage counters, returning `(queries, probes)` — the
    /// service layer folds these into per-tenant telemetry rollups
    /// without double counting across drains.
    pub fn take_counters(&self) -> (u64, u64) {
        (
            self.queries.swap(0, Ordering::Relaxed),
            self.probes.swap(0, Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array2d::{Negate, SubArray, Transpose};
    use crate::generators::{
        apply_staircase, random_inverse_monge_dense, random_monge_dense, random_monge_dense_f64,
        random_staircase_boundary, random_staircase_inverse_monge_dense,
    };
    use crate::monge::{is_inverse_monge, is_monge};
    use crate::problem::{lower_rows, mirror_indices};
    use crate::smawk::row_minima_totally_monotone;
    use crate::tiebreak::Tie;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The per-node build that merging replaced: the smallest owning row
    /// of every column of rows `[lo, hi)`, from SMAWK over the §1.2
    /// lowering of the transposed slab (`Tie::Left` on the transpose =
    /// smallest row), or from a direct column sweep when the store holds
    /// `±∞` sentinels; then run-compressed into segments.
    fn reference_envelope<T: Value>(
        store: &RowStore<T>,
        structure: Structure,
        objective: Objective,
        rows: Range<usize>,
    ) -> Envelope<T> {
        let n = store.dense.cols();
        let lo = rows.start;
        let owners: Vec<usize> = if store.infinite {
            (0..n)
                .map(|j| {
                    rows.clone().fold(lo, |best, i| {
                        let (c, b) = (store.cell(i as u32, j), store.cell(best as u32, j));
                        if c.beats(&b, objective) {
                            i
                        } else {
                            best
                        }
                    })
                })
                .collect()
        } else {
            let slab = SubArray::new(&store.dense, rows.clone(), 0..n);
            let (mut owners, mirror) = lower_rows(
                &Transpose(&slab),
                structure,
                objective,
                Tie::Left,
                |arr, tie| row_minima_totally_monotone(&arr, tie),
            );
            if let Some(w) = mirror {
                mirror_indices(&mut owners, w);
            }
            owners.iter().map(|&off| lo + off).collect()
        };
        let mut env = Envelope::empty();
        for (j, &row) in owners.iter().enumerate() {
            let c = store.cell(row as u32, j);
            let s = env.owner.len();
            if s > 0 && env.owner[s - 1] == c.row {
                if c.beats(&env.champion(s - 1), objective) {
                    env.best_val[s - 1] = c.value;
                    env.best_col[s - 1] = c.col;
                }
            } else {
                env.push(j, c);
            }
        }
        env.build_table(objective);
        env
    }

    /// Every node's merged envelopes, both objectives, equal the
    /// per-node reference field for field.
    fn assert_matches_reference<T: Value>(a: &Dense<T>, structure: Structure, label: &str) {
        // Under a broken promise the two builds may legitimately differ.
        match structure {
            Structure::Monge => assert!(is_monge(a), "{label}: input is not Monge"),
            _ => assert!(is_inverse_monge(a), "{label}: input is not inverse-Monge"),
        }
        let ix = QueryIndex::build(a, structure).unwrap();
        for nd in &ix.nodes {
            let rows = nd.lo as usize..nd.hi as usize;
            for (objective, env) in [
                (Objective::Minimize, &nd.min_env),
                (Objective::Maximize, &nd.max_env),
            ] {
                let want = reference_envelope(&ix.store, structure, objective, rows.clone());
                let at = format!(
                    "{label} {}x{} rows {rows:?} {objective:?}",
                    a.rows(),
                    a.cols()
                );
                assert_eq!(env.starts, want.starts, "{at}: starts");
                assert_eq!(env.owner, want.owner, "{at}: owner");
                assert_eq!(env.best_val, want.best_val, "{at}: best_val");
                assert_eq!(env.best_col, want.best_col, "{at}: best_col");
                assert_eq!(env.table, want.table, "{at}: table");
            }
        }
    }

    #[test]
    fn merged_envelopes_match_the_per_node_reference() {
        let mut rng = StdRng::seed_from_u64(15);
        // 1×n, m×1, odd, m≠n, and rows wider than 2·BLOCK, so that cut
        // segments are rescanned through the block summaries.
        let shapes = [
            (1, 1),
            (1, 37),
            (29, 1),
            (7, 9),
            (13, 5),
            (33, 17),
            (6, 2 * BLOCK + 3),
            (17, 300),
            (40, 301),
        ];
        for (m, n) in shapes {
            let monge = random_monge_dense(m, n, &mut rng);
            assert_matches_reference(&monge, Structure::Monge, "random Monge");
            let inverse = random_inverse_monge_dense(m, n, &mut rng);
            assert_matches_reference(&inverse, Structure::InverseMonge, "random inverse-Monge");
            // `±∞` staircases: a non-decreasing `+∞` boundary keeps a
            // Monge base Monge; the generator's non-increasing one keeps
            // an inverse-Monge base inverse-Monge, and negating that
            // gives a Monge array with `-∞` sentinels.
            let mut f = random_staircase_boundary(m, n, &mut rng);
            f.reverse();
            let base = random_monge_dense(m, n, &mut rng);
            assert_matches_reference(&apply_staircase(&base, &f), Structure::Monge, "+inf Monge");
            let stair = random_staircase_inverse_monge_dense(m, n, &mut rng);
            assert_matches_reference(&stair, Structure::InverseMonge, "+inf inverse-Monge");
            let neg = Dense::tabulate(m, n, |i, j| stair.entry(i, j).neg());
            assert_matches_reference(&neg, Structure::Monge, "-inf Monge");
            // Flat bottom: long runs of tied zeros in every column.
            let flat = Dense::tabulate(m, n, |i, j| ((3 * i as i64 - j as i64).abs() - 5).max(0));
            assert_matches_reference(&flat, Structure::Monge, "flat-bottom Monge");
            let equal = Dense::from_vec(m, n, vec![7i64; m * n]);
            assert_matches_reference(&equal, Structure::Monge, "all-equal");
            assert_matches_reference(&equal, Structure::InverseMonge, "all-equal");
            let floats = random_monge_dense_f64(m, n, &mut rng);
            assert_matches_reference(&floats, Structure::Monge, "f64 Monge");
        }
    }

    /// Brute rectangle optimum with the index's exact tie rule.
    fn brute<T: Value>(
        a: &dyn Array2d<T>,
        rows: Range<usize>,
        cols: Range<usize>,
        objective: Objective,
    ) -> QueryAnswer<T> {
        let mut best: Option<QueryAnswer<T>> = None;
        for i in rows {
            for j in cols.clone() {
                let v = a.entry(i, j);
                let replace = match &best {
                    None => true,
                    Some(b) => match objective {
                        Objective::Minimize => T::total_lt(v, b.value),
                        Objective::Maximize => T::total_lt(b.value, v),
                    },
                };
                if replace {
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

    fn monge(m: usize, n: usize) -> Dense<i64> {
        Dense::tabulate(m, n, |i, j| {
            let d = i as i64 - j as i64;
            d * d + 3 * j as i64
        })
    }

    fn all_rects(m: usize, n: usize) -> Vec<(Range<usize>, Range<usize>)> {
        let mut out = Vec::new();
        for r1 in 0..m {
            for r2 in r1 + 1..=m {
                for c1 in 0..n {
                    for c2 in c1 + 1..=n {
                        out.push((r1..r2, c1..c2));
                    }
                }
            }
        }
        out
    }

    #[test]
    fn exhaustive_small_monge_min_and_max() {
        let a = monge(7, 9);
        assert!(crate::monge::is_monge(&a));
        let ix = QueryIndex::build(&a, Structure::Monge).unwrap();
        for (rows, cols) in all_rects(7, 9) {
            let got = ix.query_min(rows.clone(), cols.clone()).unwrap();
            assert_eq!(
                got,
                brute(&a, rows.clone(), cols.clone(), Objective::Minimize)
            );
            let got = ix.query_max(rows.clone(), cols.clone()).unwrap();
            assert_eq!(got, brute(&a, rows, cols, Objective::Maximize));
        }
    }

    #[test]
    fn exhaustive_small_inverse_monge() {
        let a = Dense::tabulate(8, 6, |i, j| -monge(8, 6).entry(i, j));
        assert!(crate::monge::is_inverse_monge(&a));
        let ix = QueryIndex::build(&a, Structure::InverseMonge).unwrap();
        for (rows, cols) in all_rects(8, 6) {
            let got = ix.query_min(rows.clone(), cols.clone()).unwrap();
            assert_eq!(
                got,
                brute(&a, rows.clone(), cols.clone(), Objective::Minimize)
            );
            let got = ix.query_max(rows.clone(), cols.clone()).unwrap();
            assert_eq!(got, brute(&a, rows, cols, Objective::Maximize));
        }
    }

    #[test]
    fn wide_rows_exercise_block_summaries() {
        // Columns beyond 2 * BLOCK force the summary path in scans.
        let n = 4 * BLOCK + 17;
        let a = monge(3, n);
        let ix = QueryIndex::build(&a, Structure::Monge).unwrap();
        for (rows, cols) in [
            (0..3, 0..n),
            (1..2, 5..n - 3),
            (0..2, BLOCK..3 * BLOCK + 1),
            (2..3, 0..2 * BLOCK + 1),
        ] {
            let got = ix.query_min(rows.clone(), cols.clone()).unwrap();
            assert_eq!(
                got,
                brute(&a, rows.clone(), cols.clone(), Objective::Minimize)
            );
            let got = ix.query_max(rows.clone(), cols.clone()).unwrap();
            assert_eq!(got, brute(&a, rows, cols, Objective::Maximize));
        }
    }

    #[test]
    fn floats_use_the_total_order() {
        let a = Dense::tabulate(5, 5, |i, j| {
            let d = i as f64 - j as f64;
            d * d * 0.5
        });
        let ix = QueryIndex::build(&a, Structure::Monge).unwrap();
        for (rows, cols) in all_rects(5, 5) {
            let got = ix.query_min(rows.clone(), cols.clone()).unwrap();
            assert_eq!(got, brute(&a, rows, cols, Objective::Minimize));
        }
    }

    #[test]
    fn negate_wrapper_builds_too() {
        // The build reads through the Array2d trait, so adapters work.
        let a = monge(6, 6);
        let neg = Negate(&a);
        let ix = QueryIndex::build(&neg, Structure::InverseMonge).unwrap();
        let got = ix.query_max(0..6, 0..6).unwrap();
        assert_eq!(got, brute(&neg, 0..6, 0..6, Objective::Maximize));
    }

    #[test]
    fn rejects_plain_empty_and_malformed() {
        let a = monge(4, 4);
        assert!(matches!(
            QueryIndex::build(&a, Structure::Plain),
            Err(SolveError::InvalidInput { .. })
        ));
        let empty = Dense::tabulate(0, 0, |_, _| 0i64);
        assert!(matches!(
            QueryIndex::build(&empty, Structure::Monge),
            Err(SolveError::InvalidInput { .. })
        ));
        let ix = QueryIndex::build(&a, Structure::Monge).unwrap();
        assert!(matches!(
            ix.query_min(2..2, 0..4),
            Err(SolveError::InvalidInput { .. })
        ));
        assert!(matches!(
            ix.query_min(0..4, 1..9),
            Err(SolveError::InvalidInput { .. })
        ));
    }

    #[test]
    fn counters_accumulate_and_drain() {
        let a = monge(9, 9);
        let ix = QueryIndex::build(&a, Structure::Monge).unwrap();
        assert_eq!(ix.queries_answered(), 0);
        ix.query_min(0..9, 0..9).unwrap();
        ix.query_max(2..5, 3..7).unwrap();
        assert_eq!(ix.queries_answered(), 2);
        let (q, p) = ix.take_counters();
        assert_eq!(q, 2);
        assert!(p > 0, "multi-segment queries must probe breakpoints");
        assert_eq!(ix.queries_answered(), 0);
        assert!(ix.bytes() > 0);
        assert!(ix.breakpoints() >= 2, "at least one segment per envelope");
    }
}
