//! The batched evaluation layer: scratch-buffer interval scans, a
//! memoizing row cache, and an entry-evaluation counter.
//!
//! Every searching engine in this workspace reduces to one inner
//! operation: *the leftmost (or rightmost) extremum of a contiguous row
//! interval*. Evaluating that interval one [`Array2d::entry`] call at a
//! time pays a generic-dispatch round-trip per element and hides the
//! access pattern from the compiler. The helpers here instead scan a
//! contiguous slice: borrowed in place via [`Array2d::row_view`] when
//! the array stores its rows (dense storage, cached rows — zero copies),
//! otherwise batched once into a reusable scratch buffer via
//! [`Array2d::fill_row`].
//!
//! [`CachedArray`] complements the batch primitive for *expensive
//! implicit* arrays (DIST products, geometric distance arrays): rows are
//! materialized once on first touch and atomically published, so
//! recursive subproblems that revisit a row stop recomputing its entries.
//! [`CountingArray`] is the metrics hook that makes those savings
//! observable in tests and benchmarks.

use crate::array2d::Array2d;
use crate::state::{self, Tally};
use crate::tiebreak::Tie;
use crate::value::Value;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Value comparisons made by the slice scans and SMAWK on the calling
/// thread and the forks it joined ([`crate::state`]).
pub fn comparison_count() -> u64 {
    state::tally().comparisons
}

/// Adds `n` comparisons to the calling thread's tally; SMAWK flushes
/// its local hot-path count here once per call.
#[inline]
pub fn add_comparisons(n: u64) {
    state::add(Tally {
        comparisons: n,
        ..Tally::default()
    });
}

/// Adds `n` entry evaluations to the calling thread's tally: a plain
/// thread-local update, cheap enough for [`crate::problem::Metered`]'s
/// per-entry path and for generator closures that count their calls.
#[inline]
pub fn add_evaluations(n: u64) {
    state::add(Tally {
        evaluations: n,
        ..Tally::default()
    });
}

// The slice scans below are two-level: a branch-free lane-parallel
// minimum per fixed-size block (eight independent accumulator chains, so
// the reduction is load-bound rather than serialized on one
// compare/select dependency), a once-per-block comparison against the
// incumbent, and a final rescan of the single winning block to recover
// the index. Only the block scans carry data-dependent state, and they
// touch `n / BLOCK` values.
//
// The naive one-pass scan is a trap here: its index-tracking update
// tends to get unrolled into *conditional branches*, and Monge rows are
// noisy-monotone (that structure is the point of the paper), so those
// branches mispredict constantly — measured ~3× slower than the same
// loop kept branchless. Short slices use a `select_unpredictable` scan
// for exactly that reason.

/// Lane count of the per-block reduction (accumulator chains kept live
/// at once).
const LANES: usize = 8;

/// Block width of the two-level scans: small enough that rescanning one
/// block is negligible, large enough that per-block work amortizes.
const BLOCK: usize = 256;

/// Branch-free minimum of a non-empty slice (lane-parallel).
#[inline]
fn block_min<T: Value>(v: &[T]) -> T {
    let mut it = v.chunks_exact(LANES);
    let mut m = v[0];
    if let Some(first) = it.next() {
        let mut acc: [T; LANES] = core::array::from_fn(|l| first[l]);
        for ch in &mut it {
            for l in 0..LANES {
                acc[l] = if ch[l].total_lt(acc[l]) {
                    ch[l]
                } else {
                    acc[l]
                };
            }
        }
        m = acc[0];
        for &a in &acc[1..] {
            m = if a.total_lt(m) { a } else { m };
        }
    }
    for &x in it.remainder() {
        m = if x.total_lt(m) { x } else { m };
    }
    m
}

/// Branch-free maximum of a non-empty slice (lane-parallel).
#[inline]
fn block_max<T: Value>(v: &[T]) -> T {
    let mut it = v.chunks_exact(LANES);
    let mut m = v[0];
    if let Some(first) = it.next() {
        let mut acc: [T; LANES] = core::array::from_fn(|l| first[l]);
        for ch in &mut it {
            for l in 0..LANES {
                acc[l] = if acc[l].total_lt(ch[l]) {
                    ch[l]
                } else {
                    acc[l]
                };
            }
        }
        m = acc[0];
        for &a in &acc[1..] {
            m = if m.total_lt(a) { a } else { m };
        }
    }
    for &x in it.remainder() {
        m = if m.total_lt(x) { x } else { m };
    }
    m
}

/// One-pass scan for short slices, pinned to conditional moves. The
/// tie rule is [`Tie::replaces_min`] — the same comparison SMAWK and
/// the parallel combiners use — and constant-folds after inlining.
#[inline]
fn small_argmin_tie<T: Value>(vals: &[T], tie: Tie) -> usize {
    let mut best = 0usize;
    let mut best_v = vals[0];
    for (k, &v) in vals.iter().enumerate().skip(1) {
        let take = tie.replaces_min(v, best_v);
        best = std::hint::select_unpredictable(take, k, best);
        best_v = std::hint::select_unpredictable(take, v, best_v);
    }
    best
}

#[inline]
fn small_argmax<T: Value>(vals: &[T]) -> usize {
    let mut best = 0usize;
    let mut best_v = vals[0];
    for (k, &v) in vals.iter().enumerate().skip(1) {
        let better = Tie::Left.replaces_max(v, best_v);
        best = std::hint::select_unpredictable(better, k, best);
        best_v = std::hint::select_unpredictable(better, v, best_v);
    }
    best
}

/// Index of the minimum of a non-empty slice under the given tie rule —
/// the one scan behind [`argmin_slice`] and [`argmin_slice_rightmost`].
/// Dispatches to the vector kernel ([`crate::kernel::argmin_lanes`])
/// when one is compiled in, supported and selected, else runs the
/// scalar blocked scan.
#[inline]
pub fn argmin_slice_tie<T: Value>(vals: &[T], tie: Tie) -> usize {
    debug_assert!(!vals.is_empty());
    add_comparisons(vals.len() as u64 - 1);
    if let Some(k) = crate::kernel::argmin_lanes(vals, tie) {
        return k;
    }
    argmin_slice_tie_scalar(vals, tie)
}

/// The scalar two-level blocked scan behind [`argmin_slice_tie`],
/// callable directly so tests and benchmarks can pin the reference
/// implementation regardless of the [`crate::kernel`] selection.
#[inline]
pub fn argmin_slice_tie_scalar<T: Value>(vals: &[T], tie: Tie) -> usize {
    debug_assert!(!vals.is_empty());
    if vals.len() < 2 * BLOCK {
        return small_argmin_tie(vals, tie);
    }
    // Under `Left` only strict improvement moves the winner, keeping the
    // *first* block attaining the minimum; under `Right` equality moves
    // it, keeping the *last*.
    let mut m = block_min(&vals[..BLOCK]);
    let mut best_start = 0usize;
    let mut start = BLOCK;
    while start < vals.len() {
        let end = (start + BLOCK).min(vals.len());
        let bm = block_min(&vals[start..end]);
        if tie.replaces_min(bm, m) {
            m = bm;
            best_start = start;
        }
        start = end;
    }
    let end = (best_start + BLOCK).min(vals.len());
    let block = vals[best_start..end].iter().enumerate();
    // Rescan the winning block from the tie rule's preferred side;
    // `x >= m` throughout, so `!(m < x)` means `x == m`.
    let k = match tie {
        Tie::Left => block.clone().find(|&(_, &x)| !m.total_lt(x)),
        Tie::Right => block.clone().rev().find(|&(_, &x)| !m.total_lt(x)),
    };
    // The winning block holds its own minimum, so the find always hits.
    best_start + k.map_or(0, |(k, _)| k)
}

/// Index of the **leftmost** minimum of a non-empty slice.
#[inline]
pub fn argmin_slice<T: Value>(vals: &[T]) -> usize {
    argmin_slice_tie(vals, Tie::Left)
}

/// Index of the **rightmost** minimum of a non-empty slice (ties move
/// right — the scan the reverse-and-negate maxima reductions need).
#[inline]
pub fn argmin_slice_rightmost<T: Value>(vals: &[T]) -> usize {
    argmin_slice_tie(vals, Tie::Right)
}

/// Index of the **leftmost** maximum of a non-empty slice. Dispatches
/// to the vector kernel like [`argmin_slice_tie`].
#[inline]
pub fn argmax_slice<T: Value>(vals: &[T]) -> usize {
    debug_assert!(!vals.is_empty());
    add_comparisons(vals.len() as u64 - 1);
    if let Some(k) = crate::kernel::argmax_lanes(vals) {
        return k;
    }
    argmax_slice_scalar(vals)
}

/// The scalar blocked scan behind [`argmax_slice`], callable directly
/// (see [`argmin_slice_tie_scalar`]).
#[inline]
pub fn argmax_slice_scalar<T: Value>(vals: &[T]) -> usize {
    debug_assert!(!vals.is_empty());
    if vals.len() < 2 * BLOCK {
        return small_argmax(vals);
    }
    let mut m = block_max(&vals[..BLOCK]);
    let mut best_start = 0usize;
    let mut start = BLOCK;
    while start < vals.len() {
        let end = (start + BLOCK).min(vals.len());
        let bm = block_max(&vals[start..end]);
        if m.total_lt(bm) {
            m = bm;
            best_start = start;
        }
        start = end;
    }
    let end = (best_start + BLOCK).min(vals.len());
    for (k, &x) in vals[best_start..end].iter().enumerate() {
        if !x.total_lt(m) {
            return best_start + k;
        }
    }
    best_start // unreachable: the winning block holds its own maximum
}

/// Grow-only scratch view: never shrinks and — crucially — never
/// re-zeroes memory the following `fill_row` will overwrite anyway.
#[inline]
fn scratch_slice<T: Value>(scratch: &mut Vec<T>, width: usize) -> &mut [T] {
    if scratch.len() < width {
        scratch.resize(width, T::ZERO);
    }
    &mut scratch[..width]
}

/// Chunk width of the streaming fused generate+reduce scans: one
/// stack-resident buffer of this many values (2 KiB for 64-bit types —
/// comfortably L1) is filled and reduced per round, so a generated row
/// never materializes in full. 256 also keeps the whole chunk inside
/// one scalar block of [`argmin_slice_tie_scalar`].
const STREAM_CHUNK: usize = 256;

/// Streaming leftmost/rightmost minimum of `a[row, lo..hi)` for arrays
/// whose rows are *generated* rather than stored
/// ([`Array2d::prefers_streaming`]): `fill_row` lands in a stack
/// buffer one `STREAM_CHUNK` at a time and each chunk is reduced
/// while it is hot in L1. This is what fixes the large-`n` regression
/// of the buffer-the-whole-row path — wide generated rows round-trip
/// through memory twice there (generate into scratch, then rescan),
/// and past the L1/L2 boundary the second pass is a cache-miss march.
///
/// Chunks are visited left to right, so merging each chunk's winner
/// with [`Tie::replaces_min`] preserves both tie conventions exactly.
#[inline]
pub fn stream_argmin_tie<T: Value, A: Array2d<T> + ?Sized>(
    a: &A,
    row: usize,
    lo: usize,
    hi: usize,
    tie: Tie,
) -> (usize, T) {
    debug_assert!(lo < hi);
    let mut buf = [T::ZERO; STREAM_CHUNK];
    let mut best_j = lo;
    let mut best_v = T::INFINITY;
    let mut first = true;
    let mut start = lo;
    while start < hi {
        let end = (start + STREAM_CHUNK).min(hi);
        let chunk = &mut buf[..end - start];
        a.fill_row(row, start..end, chunk);
        let k = argmin_slice_tie(chunk, tie);
        let v = chunk[k];
        // `first` guards the degenerate all-+∞ row: `replaces_min`
        // under `Left` would never replace the `INFINITY` seed.
        if first || tie.replaces_min(v, best_v) {
            best_j = start + k;
            best_v = v;
            first = false;
        }
        start = end;
    }
    (best_j, best_v)
}

/// Streaming leftmost maximum of `a[row, lo..hi)`; see
/// [`stream_argmin_tie`].
#[inline]
pub fn stream_argmax<T: Value, A: Array2d<T> + ?Sized>(
    a: &A,
    row: usize,
    lo: usize,
    hi: usize,
) -> (usize, T) {
    debug_assert!(lo < hi);
    let mut buf = [T::ZERO; STREAM_CHUNK];
    let mut best_j = lo;
    let mut best_v = T::NEG_INFINITY;
    let mut first = true;
    let mut start = lo;
    while start < hi {
        let end = (start + STREAM_CHUNK).min(hi);
        let chunk = &mut buf[..end - start];
        a.fill_row(row, start..end, chunk);
        let k = argmax_slice(chunk);
        let v = chunk[k];
        if first || Tie::Left.replaces_max(v, best_v) {
            best_j = start + k;
            best_v = v;
            first = false;
        }
        start = end;
    }
    (best_j, best_v)
}

/// Leftmost minimum of `a[row, lo..hi)`. Returns the *absolute* column
/// and its value. `lo < hi` required.
///
/// Arrays that hold the row in memory ([`Array2d::row_view`]) are
/// scanned in place with no copy at all; everything else goes through
/// one [`Array2d::fill_row`] into the reusable scratch buffer and one
/// slice scan.
#[inline]
pub fn interval_argmin<T: Value, A: Array2d<T>>(
    a: &A,
    row: usize,
    lo: usize,
    hi: usize,
    scratch: &mut Vec<T>,
) -> (usize, T) {
    crate::guard::checkpoint();
    debug_assert!(lo < hi);
    if let Some(vals) = a.row_view(row, lo..hi) {
        let k = argmin_slice(vals);
        return (lo + k, vals[k]);
    }
    if a.prefers_streaming() {
        return stream_argmin_tie(a, row, lo, hi, Tie::Left);
    }
    let buf = scratch_slice(scratch, hi - lo);
    a.fill_row(row, lo..hi, buf);
    let k = argmin_slice(buf);
    (lo + k, buf[k])
}

/// [`interval_argmin`] with the scratch buffer checked out of the
/// thread-local arena ([`crate::scratch`]): callers that cannot (or do
/// not want to) thread a `&mut Vec<T>` through their recursion get the
/// same zero-steady-state-allocation behavior for free.
#[inline]
pub fn interval_argmin_pooled<T: Value, A: Array2d<T>>(
    a: &A,
    row: usize,
    lo: usize,
    hi: usize,
) -> (usize, T) {
    crate::guard::checkpoint();
    if let Some(vals) = a.row_view(row, lo..hi) {
        let k = argmin_slice(vals);
        return (lo + k, vals[k]);
    }
    if a.prefers_streaming() {
        return stream_argmin_tie(a, row, lo, hi, Tie::Left);
    }
    crate::scratch::with_scratch(|scratch| interval_argmin(a, row, lo, hi, scratch))
}

/// Rightmost-minimum variant of [`interval_argmin_pooled`].
#[inline]
pub fn interval_argmin_rightmost_pooled<T: Value, A: Array2d<T>>(
    a: &A,
    row: usize,
    lo: usize,
    hi: usize,
) -> (usize, T) {
    crate::guard::checkpoint();
    if let Some(vals) = a.row_view(row, lo..hi) {
        let k = argmin_slice_rightmost(vals);
        return (lo + k, vals[k]);
    }
    if a.prefers_streaming() {
        return stream_argmin_tie(a, row, lo, hi, Tie::Right);
    }
    crate::scratch::with_scratch(|scratch| interval_argmin_rightmost(a, row, lo, hi, scratch))
}

/// Leftmost-maximum variant of [`interval_argmin_pooled`].
#[inline]
pub fn interval_argmax_pooled<T: Value, A: Array2d<T>>(
    a: &A,
    row: usize,
    lo: usize,
    hi: usize,
) -> (usize, T) {
    crate::guard::checkpoint();
    if let Some(vals) = a.row_view(row, lo..hi) {
        let k = argmax_slice(vals);
        return (lo + k, vals[k]);
    }
    if a.prefers_streaming() {
        return stream_argmax(a, row, lo, hi);
    }
    crate::scratch::with_scratch(|scratch| interval_argmax(a, row, lo, hi, scratch))
}

/// Rightmost-minimum variant of [`interval_argmin`].
#[inline]
pub fn interval_argmin_rightmost<T: Value, A: Array2d<T>>(
    a: &A,
    row: usize,
    lo: usize,
    hi: usize,
    scratch: &mut Vec<T>,
) -> (usize, T) {
    crate::guard::checkpoint();
    debug_assert!(lo < hi);
    if let Some(vals) = a.row_view(row, lo..hi) {
        let k = argmin_slice_rightmost(vals);
        return (lo + k, vals[k]);
    }
    if a.prefers_streaming() {
        return stream_argmin_tie(a, row, lo, hi, Tie::Right);
    }
    let buf = scratch_slice(scratch, hi - lo);
    a.fill_row(row, lo..hi, buf);
    let k = argmin_slice_rightmost(buf);
    (lo + k, buf[k])
}

/// Leftmost-maximum variant of [`interval_argmin`].
#[inline]
pub fn interval_argmax<T: Value, A: Array2d<T>>(
    a: &A,
    row: usize,
    lo: usize,
    hi: usize,
    scratch: &mut Vec<T>,
) -> (usize, T) {
    crate::guard::checkpoint();
    debug_assert!(lo < hi);
    if let Some(vals) = a.row_view(row, lo..hi) {
        let k = argmax_slice(vals);
        return (lo + k, vals[k]);
    }
    if a.prefers_streaming() {
        return stream_argmax(a, row, lo, hi);
    }
    let buf = scratch_slice(scratch, hi - lo);
    a.fill_row(row, lo..hi, buf);
    let k = argmax_slice(buf);
    (lo + k, buf[k])
}

/// A memoizing wrapper: rows of the inner array are materialized on
/// first touch and atomically published, so later reads — including
/// reads from other threads and other recursive subproblems — hit the
/// cache instead of re-evaluating entries.
///
/// The cache is sharded per row (one [`OnceLock`] each): the read path
/// is a single atomic load with no locks; the only synchronization is
/// the one-time publish of each row. Wrap arrays whose entries are
/// expensive to compute **and** whose rows are read densely or
/// repeatedly (implicit DIST factors, distance arrays scanned under
/// several goals). Do *not* wrap arrays consumed by a single sparse
/// `Θ(m + n)` pass such as one SMAWK call: materializing whole rows
/// would inflate that pass to `Θ(mn)` work.
pub struct CachedArray<T, A> {
    inner: A,
    rows: Box<[OnceLock<Box<[T]>>]>,
}

impl<T: Value, A: Array2d<T>> CachedArray<T, A> {
    /// Wraps an array, allocating the (empty) per-row cache shards.
    pub fn new(inner: A) -> Self {
        let m = inner.rows();
        let rows = (0..m).map(|_| OnceLock::new()).collect();
        Self { inner, rows }
    }

    /// The wrapped array.
    pub fn inner(&self) -> &A {
        &self.inner
    }

    /// Row `i`, materializing it on first touch.
    pub fn row_cached(&self, i: usize) -> &[T] {
        self.rows[i].get_or_init(|| {
            let n = self.inner.cols();
            let mut buf = vec![T::ZERO; n];
            self.inner.fill_row(i, 0..n, &mut buf);
            buf.into_boxed_slice()
        })
    }

    /// How many rows have been materialized so far.
    pub fn materialized_rows(&self) -> usize {
        self.rows.iter().filter(|r| r.get().is_some()).count()
    }
}

impl<T: Value, A: Array2d<T>> Array2d<T> for CachedArray<T, A> {
    fn rows(&self) -> usize {
        self.inner.rows()
    }
    fn cols(&self) -> usize {
        self.inner.cols()
    }
    #[inline]
    fn entry(&self, i: usize, j: usize) -> T {
        self.row_cached(i)[j]
    }
    fn fill_row(&self, i: usize, cols: Range<usize>, out: &mut [T]) {
        out.copy_from_slice(&self.row_cached(i)[cols]);
    }
    fn row_view(&self, i: usize, cols: Range<usize>) -> Option<&[T]> {
        Some(&self.row_cached(i)[cols])
    }
}

/// An entry-evaluation counter: forwards to the inner array and counts
/// how many entries were computed (one per `entry` call, `cols.len()`
/// per `fill_row`). This is the metrics hook used to demonstrate that
/// [`CachedArray`] (and the batched engines) do strictly less evaluation
/// work.
pub struct CountingArray<A> {
    inner: A,
    count: AtomicU64,
}

impl<A> CountingArray<A> {
    /// Wraps an array with a zeroed counter.
    pub fn new(inner: A) -> Self {
        Self {
            inner,
            count: AtomicU64::new(0),
        }
    }

    /// Total entries evaluated through this wrapper so far.
    pub fn evaluations(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }
}

impl<T: Value, A: Array2d<T>> Array2d<T> for CountingArray<A> {
    fn rows(&self) -> usize {
        self.inner.rows()
    }
    fn cols(&self) -> usize {
        self.inner.cols()
    }
    #[inline]
    fn entry(&self, i: usize, j: usize) -> T {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.inner.entry(i, j)
    }
    fn fill_row(&self, i: usize, cols: Range<usize>, out: &mut [T]) {
        self.count.fetch_add(cols.len() as u64, Ordering::Relaxed);
        self.inner.fill_row(i, cols, out);
    }
    fn prefers_streaming(&self) -> bool {
        self.inner.prefers_streaming()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array2d::{Dense, FnArray};

    #[test]
    fn argmin_helpers_tie_break_correctly() {
        let v = [3i64, 1, 1, 2];
        assert_eq!(argmin_slice(&v), 1);
        assert_eq!(argmin_slice_rightmost(&v), 2);
        let w = [1i64, 4, 4, 0];
        assert_eq!(argmax_slice(&w), 1);
    }

    #[test]
    fn slice_scans_match_naive_reference() {
        // Dense plateaus exercise every tie-breaking branch; lengths
        // straddle the lane width, the block width and the small/blocked
        // crossover (2 * BLOCK = 512), plus 1- and 2-element edge cases.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for len in [
            1usize, 2, 7, 8, 9, 63, 64, 65, 200, 255, 256, 257, 511, 512, 513, 1024, 2049,
        ] {
            for _ in 0..8 {
                let v: Vec<i64> = (0..len).map(|_| (next() % 4) as i64).collect();
                let naive_min = (0..len).min_by_key(|&k| (v[k], k)).unwrap();
                let naive_min_r = (0..len)
                    .min_by_key(|&k| (v[k], std::cmp::Reverse(k)))
                    .unwrap();
                let naive_max = (0..len)
                    .max_by_key(|&k| (v[k], std::cmp::Reverse(k)))
                    .unwrap();
                assert_eq!(argmin_slice(&v), naive_min, "len {len}");
                assert_eq!(argmin_slice_rightmost(&v), naive_min_r, "len {len}");
                assert_eq!(argmax_slice(&v), naive_max, "len {len}");
            }
        }
    }

    #[test]
    fn interval_scan_matches_entry_loop() {
        let a = Dense::tabulate(4, 9, |i, j| ((i * 13 + j * 7) % 11) as i64);
        let mut scratch = Vec::new();
        for i in 0..4 {
            let (j, v) = interval_argmin(&a, i, 2, 8, &mut scratch);
            let want = (2..8).min_by_key(|&j| (a.entry(i, j), j)).unwrap();
            assert_eq!(j, want);
            assert_eq!(v, a.entry(i, j));
        }
    }

    #[test]
    fn interval_scans_zero_copy_and_scratch_paths_agree() {
        let d = Dense::tabulate(3, 10, |i, j| ((i * 17 + j * 5) % 13) as i64 - 6);
        let f = FnArray::new(3, 10, |i, j| ((i * 17 + j * 5) % 13) as i64 - 6);
        assert!(d.row_view(0, 0..10).is_some());
        assert!(f.row_view(0, 0..10).is_none());
        let mut s1 = Vec::new();
        let mut s2 = Vec::new();
        for i in 0..3 {
            assert_eq!(
                interval_argmin(&d, i, 1, 9, &mut s1),
                interval_argmin(&f, i, 1, 9, &mut s2)
            );
            assert_eq!(
                interval_argmin_rightmost(&d, i, 1, 9, &mut s1),
                interval_argmin_rightmost(&f, i, 1, 9, &mut s2)
            );
            assert_eq!(
                interval_argmax(&d, i, 1, 9, &mut s1),
                interval_argmax(&f, i, 1, 9, &mut s2)
            );
        }
        // The dense scans never needed the scratch buffer.
        assert!(s1.is_empty());
    }

    #[test]
    fn cached_array_serves_row_views() {
        let base = CountingArray::new(FnArray::new(4, 6, |i, j| (i * 6 + j) as i64));
        let cached = CachedArray::new(&base);
        assert_eq!(cached.row_view(2, 1..4).unwrap(), &[13, 14, 15]);
        assert_eq!(cached.row_view(2, 0..6).unwrap(), &[12, 13, 14, 15, 16, 17]);
        // One materialization served both views.
        assert_eq!(base.evaluations(), 6);
    }

    #[test]
    fn cached_array_evaluates_each_row_once() {
        let base = CountingArray::new(FnArray::new(5, 7, |i, j| (i * 7 + j) as i64));
        let cached = CachedArray::new(&base);
        for _pass in 0..3 {
            for i in 0..5 {
                for j in 0..7 {
                    assert_eq!(cached.entry(i, j), (i * 7 + j) as i64);
                }
            }
        }
        // Three full passes, but each row was materialized exactly once.
        assert_eq!(base.evaluations(), 5 * 7);
        assert_eq!(cached.materialized_rows(), 5);
    }

    #[test]
    fn cached_array_is_lazy_per_row() {
        let base = CountingArray::new(FnArray::new(6, 4, |i, j| (i + j) as i64));
        let cached = CachedArray::new(&base);
        let mut buf = vec![0i64; 2];
        cached.fill_row(3, 1..3, &mut buf);
        assert_eq!(buf, vec![4, 5]);
        assert_eq!(cached.materialized_rows(), 1);
        assert_eq!(base.evaluations(), 4); // one full row, nothing else
    }

    #[test]
    fn counting_array_counts_fill_row_elements() {
        let base = CountingArray::new(Dense::tabulate(3, 8, |i, j| (i + j) as i64));
        let mut buf = vec![0i64; 5];
        base.fill_row(1, 2..7, &mut buf);
        assert_eq!(base.evaluations(), 5);
        base.entry(0, 0);
        assert_eq!(base.evaluations(), 6);
    }
}
