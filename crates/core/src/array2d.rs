//! Two-dimensional array views.
//!
//! The paper assumes "for any given `i` and `j`, a processor can compute the
//! `(i,j)`-th entry of this array in `O(1)` time" (§1.2). We mirror that
//! with the [`Array2d`] trait: an array is anything that can produce the
//! entry at `(i, j)` on demand. Dense storage ([`Dense`]), closure-backed
//! arrays ([`FnArray`]) and a family of adapters implement it.
//!
//! The adapters matter algorithmically: the paper observes that "reversing
//! the order of an array's columns and/or negating its entries allows us to
//! move back and forth" between row-minima and row-maxima problems for Monge
//! and inverse-Monge arrays (§1.2). [`Negate`], [`ReverseCols`],
//! [`ReverseRows`], [`Transpose`] and [`SubArray`] encode those reductions
//! once, so each searching algorithm is written a single time.

use crate::value::Value;
use std::ops::Range;
use std::sync::Arc;

/// A lazily evaluated `rows() × cols()` array of values.
///
/// Implementations must be cheap to query: `entry(i, j)` is expected to be
/// `O(1)` (the PRAM model's assumption). Implementations must be `Sync` so
/// parallel engines can share them across threads.
pub trait Array2d<T: Value>: Sync {
    /// Number of rows `m`.
    fn rows(&self) -> usize;
    /// Number of columns `n`.
    fn cols(&self) -> usize;
    /// The entry `a[i, j]`, `0 <= i < rows()`, `0 <= j < cols()`.
    fn entry(&self, i: usize, j: usize) -> T;

    /// Fills `out` with the row segment `a[i, cols.start..cols.end]`.
    ///
    /// `out.len()` must equal `cols.len()`. This is the batched
    /// evaluation primitive the searching engines are built on: filling a
    /// contiguous buffer once and scanning the slice replaces per-element
    /// `entry` calls (one generic-dispatch round-trip each) with code the
    /// compiler can keep in registers and vectorize. The default
    /// implementation loops `entry`; implementors with cheaper bulk
    /// access (dense storage, adapters over such arrays, cached rows)
    /// override it.
    fn fill_row(&self, i: usize, cols: Range<usize>, out: &mut [T]) {
        debug_assert_eq!(out.len(), cols.len());
        for (slot, j) in out.iter_mut().zip(cols) {
            *slot = self.entry(i, j);
        }
    }

    /// A borrowed view of the row segment `a[i, cols]` when the
    /// implementation already holds it contiguously in memory, else
    /// `None`.
    ///
    /// This is the zero-copy tier above [`Array2d::fill_row`]: the
    /// interval scans in [`crate::eval`] scan the borrowed slice in
    /// place and skip the scratch-buffer copy entirely. Only
    /// implementations that *store* the requested segment (dense
    /// storage, cached rows, views that merely re-index rows) should
    /// return `Some`; implementations must never compute entries to
    /// satisfy this call.
    fn row_view(&self, _i: usize, _cols: Range<usize>) -> Option<&[T]> {
        None
    }

    /// Does this array *generate* its rows rather than store them?
    ///
    /// Generator-backed implementations (closure arrays, implicit
    /// rank-form arrays, composite planes) should return `true`: the
    /// interval scans in [`crate::eval`] then evaluate wide rows
    /// through a streaming chunked reduction — `fill_row` into a small
    /// stack buffer, reduce while L1-hot, repeat — instead of
    /// materializing the whole interval into a scratch buffer and
    /// rescanning it, which round-trips every generated value through
    /// memory twice and regresses past the cache boundary. Arrays that
    /// store rows (and adapters over them that can serve
    /// [`Array2d::row_view`]) should keep the default `false`; the
    /// zero-copy tier is already strictly better there. Adapters that
    /// merely re-index or post-process another array forward the
    /// inner array's answer.
    fn prefers_streaming(&self) -> bool {
        false
    }

    /// This array as [`Dense`] storage when it is one, else `None`.
    ///
    /// A caller that wants to keep the rows — the query index's row
    /// store — clones the answer, which shares the buffer instead of
    /// copying it. [`Dense`] answers itself, and references and
    /// [`crate::problem::Metered`] forward the inner answer; every
    /// other array keeps the default `None`. An implementation that
    /// answers must serve [`Array2d::row_view`] for every full row,
    /// with the values of the [`Dense`] it returns.
    fn as_dense(&self) -> Option<&Dense<T>> {
        None
    }

    /// Materializes the array into dense row-major storage.
    fn to_dense(&self) -> Dense<T>
    where
        Self: Sized,
    {
        let (m, n) = (self.rows(), self.cols());
        let mut data = Vec::with_capacity(m * n);
        for i in 0..m {
            for j in 0..n {
                data.push(self.entry(i, j));
            }
        }
        Dense::from_vec(m, n, data)
    }

    /// One full row as a `Vec`.
    fn row(&self, i: usize) -> Vec<T>
    where
        Self: Sized,
    {
        (0..self.cols()).map(|j| self.entry(i, j)).collect()
    }
}

impl<T: Value, A: Array2d<T> + ?Sized> Array2d<T> for &A {
    fn rows(&self) -> usize {
        (**self).rows()
    }
    fn cols(&self) -> usize {
        (**self).cols()
    }
    fn entry(&self, i: usize, j: usize) -> T {
        (**self).entry(i, j)
    }
    fn fill_row(&self, i: usize, cols: Range<usize>, out: &mut [T]) {
        // Forward explicitly so references keep the inner specialization.
        (**self).fill_row(i, cols, out)
    }
    fn row_view(&self, i: usize, cols: Range<usize>) -> Option<&[T]> {
        (**self).row_view(i, cols)
    }
    fn prefers_streaming(&self) -> bool {
        (**self).prefers_streaming()
    }
    fn as_dense(&self) -> Option<&Dense<T>> {
        (**self).as_dense()
    }
}

/// Dense row-major storage.
///
/// The rows live in one reference-counted buffer: `clone` is `O(1)`
/// and shares it, and [`Dense::set`] copies the buffer first when it is
/// shared (copy on write), so a clone never sees another's writes.
#[derive(Clone, Debug, PartialEq)]
pub struct Dense<T> {
    rows: usize,
    cols: usize,
    data: Arc<Vec<T>>,
}

impl<T: Value> Dense<T> {
    /// Creates a dense array from row-major data; `data.len()` must equal
    /// `rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "dense array data length {} != {rows} x {cols}",
            data.len()
        );
        Self {
            rows,
            cols,
            data: Arc::new(data),
        }
    }

    /// Creates a dense array from nested rows (convenient in tests).
    pub fn from_rows(rows: Vec<Vec<T>>) -> Self {
        let m = rows.len();
        let n = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(m * n);
        for (i, r) in rows.into_iter().enumerate() {
            assert_eq!(r.len(), n, "row {i} has ragged length");
            data.extend(r);
        }
        Self::from_vec(m, n, data)
    }

    /// Creates a constant-filled array.
    pub fn filled(rows: usize, cols: usize, v: T) -> Self {
        Self::from_vec(rows, cols, vec![v; rows * cols])
    }

    /// Builds a dense array by tabulating `f` over all index pairs.
    pub fn tabulate(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self::from_vec(rows, cols, data)
    }

    /// Mutable access to an entry. Copies the buffer first when a clone
    /// (or a query index built over this array) shares it.
    pub fn set(&mut self, i: usize, j: usize, v: T) {
        assert!(i < self.rows && j < self.cols);
        Arc::make_mut(&mut self.data)[i * self.cols + j] = v;
    }

    /// Underlying row-major data.
    pub fn data(&self) -> &[T] {
        &self.data
    }

    /// A view of row `i` as a slice.
    pub fn row_slice(&self, i: usize) -> &[T] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }
}

impl<T: Value> Array2d<T> for Dense<T> {
    #[inline]
    fn rows(&self) -> usize {
        self.rows
    }
    #[inline]
    fn cols(&self) -> usize {
        self.cols
    }
    #[inline]
    fn entry(&self, i: usize, j: usize) -> T {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }
    #[inline]
    fn fill_row(&self, i: usize, cols: Range<usize>, out: &mut [T]) {
        let base = i * self.cols;
        out.copy_from_slice(&self.data[base + cols.start..base + cols.end]);
    }
    #[inline]
    fn row_view(&self, i: usize, cols: Range<usize>) -> Option<&[T]> {
        let base = i * self.cols;
        Some(&self.data[base + cols.start..base + cols.end])
    }
    fn as_dense(&self) -> Option<&Dense<T>> {
        Some(self)
    }
}

/// Closure-backed array: entries are computed on demand.
///
/// This is the natural representation for geometric instances (e.g. the
/// inter-chain distance array of Figure 1.1, where `a[i,j] = d(p_i, q_j)`
/// is computed from the two vertex lists in constant time).
#[derive(Clone, Debug)]
pub struct FnArray<F> {
    rows: usize,
    cols: usize,
    f: F,
}

impl<F> FnArray<F> {
    /// Creates a closure-backed `rows × cols` array.
    pub fn new(rows: usize, cols: usize, f: F) -> Self {
        Self { rows, cols, f }
    }
}

impl<T: Value, F: Fn(usize, usize) -> T + Sync> Array2d<T> for FnArray<F> {
    #[inline]
    fn rows(&self) -> usize {
        self.rows
    }
    #[inline]
    fn cols(&self) -> usize {
        self.cols
    }
    #[inline]
    fn entry(&self, i: usize, j: usize) -> T {
        (self.f)(i, j)
    }
    fn prefers_streaming(&self) -> bool {
        true
    }
}

/// Entry-wise negation: row maxima of `A` are row minima of `Negate(A)`.
#[derive(Clone, Copy, Debug)]
pub struct Negate<A>(pub A);

impl<T: Value, A: Array2d<T>> Array2d<T> for Negate<A> {
    fn rows(&self) -> usize {
        self.0.rows()
    }
    fn cols(&self) -> usize {
        self.0.cols()
    }
    #[inline]
    fn entry(&self, i: usize, j: usize) -> T {
        self.0.entry(i, j).neg()
    }
    fn fill_row(&self, i: usize, cols: Range<usize>, out: &mut [T]) {
        self.0.fill_row(i, cols, out);
        for v in out.iter_mut() {
            *v = v.neg();
        }
    }
    fn prefers_streaming(&self) -> bool {
        // Negation can never serve `row_view`, but its `fill_row`
        // stays cheap exactly when the inner one does.
        self.0.prefers_streaming()
    }
}

/// Column reversal: converts between Monge and inverse-Monge.
#[derive(Clone, Copy, Debug)]
pub struct ReverseCols<A>(pub A);

impl<T: Value, A: Array2d<T>> Array2d<T> for ReverseCols<A> {
    fn rows(&self) -> usize {
        self.0.rows()
    }
    fn cols(&self) -> usize {
        self.0.cols()
    }
    #[inline]
    fn entry(&self, i: usize, j: usize) -> T {
        self.0.entry(i, self.0.cols() - 1 - j)
    }
    fn fill_row(&self, i: usize, cols: Range<usize>, out: &mut [T]) {
        // View columns [lo, hi) are parent columns [n - hi, n - lo), read
        // in reverse order.
        let n = self.0.cols();
        self.0.fill_row(i, n - cols.end..n - cols.start, out);
        out.reverse();
    }
    fn prefers_streaming(&self) -> bool {
        self.0.prefers_streaming()
    }
}

/// Row reversal: also converts between Monge and inverse-Monge.
#[derive(Clone, Copy, Debug)]
pub struct ReverseRows<A>(pub A);

impl<T: Value, A: Array2d<T>> Array2d<T> for ReverseRows<A> {
    fn rows(&self) -> usize {
        self.0.rows()
    }
    fn cols(&self) -> usize {
        self.0.cols()
    }
    #[inline]
    fn entry(&self, i: usize, j: usize) -> T {
        self.0.entry(self.0.rows() - 1 - i, j)
    }
    fn fill_row(&self, i: usize, cols: Range<usize>, out: &mut [T]) {
        self.0.fill_row(self.0.rows() - 1 - i, cols, out);
    }
    fn row_view(&self, i: usize, cols: Range<usize>) -> Option<&[T]> {
        self.0.row_view(self.0.rows() - 1 - i, cols)
    }
    fn prefers_streaming(&self) -> bool {
        self.0.prefers_streaming()
    }
}

/// Transposition: Monge-ness is preserved.
#[derive(Clone, Copy, Debug)]
pub struct Transpose<A>(pub A);

impl<T: Value, A: Array2d<T>> Array2d<T> for Transpose<A> {
    fn rows(&self) -> usize {
        self.0.cols()
    }
    fn cols(&self) -> usize {
        self.0.rows()
    }
    #[inline]
    fn entry(&self, i: usize, j: usize) -> T {
        self.0.entry(j, i)
    }
    fn prefers_streaming(&self) -> bool {
        // A transposed row is a column of the inner array: never
        // contiguous, so the whole-row buffer path has no locality
        // advantage to offer over streaming chunks.
        true
    }
}

/// A contiguous sub-array `A[r0..r1, c0..c1]`. Any sub-array of a Monge
/// array is Monge; this is what makes divide-and-conquer possible.
#[derive(Clone, Debug)]
pub struct SubArray<A> {
    inner: A,
    row_range: Range<usize>,
    col_range: Range<usize>,
}

impl<A> SubArray<A> {
    /// Creates a view of `inner[rows, cols]`.
    pub fn new<T: Value>(inner: A, rows: Range<usize>, cols: Range<usize>) -> Self
    where
        A: Array2d<T>,
    {
        assert!(rows.end <= inner.rows() && cols.end <= inner.cols());
        assert!(rows.start <= rows.end && cols.start <= cols.end);
        Self {
            inner,
            row_range: rows,
            col_range: cols,
        }
    }

    /// The row offset of this view inside the parent array.
    pub fn row_offset(&self) -> usize {
        self.row_range.start
    }

    /// The column offset of this view inside the parent array.
    pub fn col_offset(&self) -> usize {
        self.col_range.start
    }
}

impl<T: Value, A: Array2d<T>> Array2d<T> for SubArray<A> {
    fn rows(&self) -> usize {
        self.row_range.end - self.row_range.start
    }
    fn cols(&self) -> usize {
        self.col_range.end - self.col_range.start
    }
    #[inline]
    fn entry(&self, i: usize, j: usize) -> T {
        self.inner
            .entry(self.row_range.start + i, self.col_range.start + j)
    }
    fn fill_row(&self, i: usize, cols: Range<usize>, out: &mut [T]) {
        let c0 = self.col_range.start;
        self.inner.fill_row(
            self.row_range.start + i,
            c0 + cols.start..c0 + cols.end,
            out,
        );
    }
    fn row_view(&self, i: usize, cols: Range<usize>) -> Option<&[T]> {
        let c0 = self.col_range.start;
        self.inner
            .row_view(self.row_range.start + i, c0 + cols.start..c0 + cols.end)
    }
    fn prefers_streaming(&self) -> bool {
        self.inner.prefers_streaming()
    }
}

/// Entry-wise sum of two equal-shape arrays. Monge arrays are closed
/// under addition (the quadrangle inequalities add), which is how
/// compound cost structures — e.g. a distance term plus per-row/column
/// charges — stay searchable.
#[derive(Clone, Copy, Debug)]
pub struct Plus<A, B>(pub A, pub B);

impl<T: Value, A: Array2d<T>, B: Array2d<T>> Array2d<T> for Plus<A, B> {
    fn rows(&self) -> usize {
        debug_assert_eq!(self.0.rows(), self.1.rows());
        self.0.rows()
    }
    fn cols(&self) -> usize {
        debug_assert_eq!(self.0.cols(), self.1.cols());
        self.0.cols()
    }
    #[inline]
    fn entry(&self, i: usize, j: usize) -> T {
        self.0.entry(i, j).add(self.1.entry(i, j))
    }
    fn fill_row(&self, i: usize, cols: Range<usize>, out: &mut [T]) {
        // Batch the left operand; fold the right one in per element (no
        // scratch buffer is available for a second batched fill).
        self.0.fill_row(i, cols.clone(), out);
        for (slot, j) in out.iter_mut().zip(cols) {
            *slot = slot.add(self.1.entry(i, j));
        }
    }
    fn prefers_streaming(&self) -> bool {
        // The sum must be computed element-wise regardless, so stream
        // whenever either operand would; a stored left operand only
        // feeds the per-chunk `fill_row` faster.
        self.0.prefers_streaming() || self.1.prefers_streaming()
    }
}

/// A row-sampled view: row `i` of the view is row `index_of(i)` of the
/// parent, for an arbitrary strictly increasing row selection. Selecting
/// rows (or columns) of a Monge array keeps it Monge.
#[derive(Clone, Debug)]
pub struct SelectRows<A> {
    inner: A,
    rows: Vec<usize>,
}

impl<A> SelectRows<A> {
    /// Creates a view of the given rows (must be strictly increasing).
    pub fn new<T: Value>(inner: A, rows: Vec<usize>) -> Self
    where
        A: Array2d<T>,
    {
        debug_assert!(rows.windows(2).all(|w| w[0] < w[1]));
        if let Some(&last) = rows.last() {
            assert!(last < inner.rows());
        }
        Self { inner, rows }
    }

    /// The parent row index of view row `i`.
    pub fn parent_row(&self, i: usize) -> usize {
        self.rows[i]
    }
}

impl<T: Value, A: Array2d<T>> Array2d<T> for SelectRows<A> {
    fn rows(&self) -> usize {
        self.rows.len()
    }
    fn cols(&self) -> usize {
        self.inner.cols()
    }
    #[inline]
    fn entry(&self, i: usize, j: usize) -> T {
        self.inner.entry(self.rows[i], j)
    }
    fn fill_row(&self, i: usize, cols: Range<usize>, out: &mut [T]) {
        self.inner.fill_row(self.rows[i], cols, out);
    }
    fn row_view(&self, i: usize, cols: Range<usize>) -> Option<&[T]> {
        self.inner.row_view(self.rows[i], cols)
    }
    fn prefers_streaming(&self) -> bool {
        self.inner.prefers_streaming()
    }
}

/// A column-selected view (strictly increasing column selection).
#[derive(Clone, Debug)]
pub struct SelectCols<A> {
    inner: A,
    cols: Vec<usize>,
}

impl<A> SelectCols<A> {
    /// Creates a view of the given columns (must be strictly increasing).
    pub fn new<T: Value>(inner: A, cols: Vec<usize>) -> Self
    where
        A: Array2d<T>,
    {
        debug_assert!(cols.windows(2).all(|w| w[0] < w[1]));
        if let Some(&last) = cols.last() {
            assert!(last < inner.cols());
        }
        Self { inner, cols }
    }

    /// The parent column index of view column `j`.
    pub fn parent_col(&self, j: usize) -> usize {
        self.cols[j]
    }
}

impl<T: Value, A: Array2d<T>> Array2d<T> for SelectCols<A> {
    fn rows(&self) -> usize {
        self.inner.rows()
    }
    fn cols(&self) -> usize {
        self.cols.len()
    }
    #[inline]
    fn entry(&self, i: usize, j: usize) -> T {
        self.inner.entry(i, self.cols[j])
    }
    fn prefers_streaming(&self) -> bool {
        // Column selection gathers from scattered positions; like
        // `Transpose` there is no contiguity for the buffer path to
        // exploit.
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Dense<i64> {
        Dense::from_rows(vec![vec![1, 2, 3], vec![4, 5, 6]])
    }

    #[test]
    fn dense_round_trip() {
        let a = sample();
        assert_eq!(a.rows(), 2);
        assert_eq!(a.cols(), 3);
        assert_eq!(a.entry(0, 0), 1);
        assert_eq!(a.entry(1, 2), 6);
        assert_eq!(a.row(1), vec![4, 5, 6]);
        assert_eq!(a.row_slice(0), &[1, 2, 3]);
    }

    #[test]
    fn tabulate_matches_closure() {
        let a = Dense::tabulate(3, 4, |i, j| (i * 10 + j) as i64);
        let f = FnArray::new(3, 4, |i, j| (i * 10 + j) as i64);
        assert_eq!(a, f.to_dense());
    }

    #[test]
    fn negate_adapter() {
        let a = Negate(sample());
        assert_eq!(a.entry(0, 0), -1);
        assert_eq!(a.entry(1, 2), -6);
    }

    #[test]
    fn reverse_cols_adapter() {
        let a = ReverseCols(sample());
        assert_eq!(a.entry(0, 0), 3);
        assert_eq!(a.entry(0, 2), 1);
        assert_eq!(a.entry(1, 1), 5);
    }

    #[test]
    fn reverse_rows_adapter() {
        let a = ReverseRows(sample());
        assert_eq!(a.entry(0, 0), 4);
        assert_eq!(a.entry(1, 0), 1);
    }

    #[test]
    fn transpose_adapter() {
        let a = Transpose(sample());
        assert_eq!(a.rows(), 3);
        assert_eq!(a.cols(), 2);
        assert_eq!(a.entry(2, 1), 6);
    }

    #[test]
    fn sub_array_view() {
        let a = Dense::tabulate(5, 5, |i, j| (i * 5 + j) as i64);
        let s = SubArray::new(&a, 1..4, 2..5);
        assert_eq!(s.rows(), 3);
        assert_eq!(s.cols(), 3);
        assert_eq!(s.entry(0, 0), 7);
        assert_eq!(s.entry(2, 2), 19);
        assert_eq!(s.row_offset(), 1);
        assert_eq!(s.col_offset(), 2);
    }

    #[test]
    fn select_rows_and_cols() {
        let a = Dense::tabulate(6, 6, |i, j| (i * 6 + j) as i64);
        let r = SelectRows::new(&a, vec![0, 2, 5]);
        assert_eq!(r.rows(), 3);
        assert_eq!(r.entry(1, 3), 15);
        assert_eq!(r.parent_row(2), 5);
        let c = SelectCols::new(&a, vec![1, 4]);
        assert_eq!(c.cols(), 2);
        assert_eq!(c.entry(3, 1), 22);
        assert_eq!(c.parent_col(0), 1);
    }

    #[test]
    fn plus_adapter_preserves_monge() {
        use crate::monge::is_monge;
        let a = Dense::tabulate(6, 7, |i, j| -((i * j) as i64));
        let b = Dense::tabulate(6, 7, |i, j| {
            let d = i as i64 - j as i64;
            d * d
        });
        assert!(is_monge(&a) && is_monge(&b));
        let s = Plus(&a, &b);
        assert!(is_monge(&s), "Monge closed under +");
        assert_eq!(s.entry(2, 3), a.entry(2, 3) + b.entry(2, 3));
        // And searching the sum works like any other array.
        let idx = crate::smawk::row_minima_monge(&s).index;
        assert_eq!(idx, crate::monge::brute_row_minima(&s));
    }

    #[test]
    fn row_view_zero_copy_paths() {
        let a = Dense::tabulate(4, 6, |i, j| (i * 6 + j) as i64);
        assert_eq!(a.row_view(2, 1..5).unwrap(), &[13, 14, 15, 16]);
        let s = SubArray::new(&a, 1..4, 2..6);
        assert_eq!(s.row_view(0, 0..4).unwrap(), &[8, 9, 10, 11]);
        let r = ReverseRows(&a);
        assert_eq!(r.row_view(0, 0..2).unwrap(), &[18, 19]);
        let sel = SelectRows::new(&a, vec![0, 3]);
        assert_eq!(sel.row_view(1, 0..3).unwrap(), &[18, 19, 20]);
        // Adapters that would have to *compute* entries must decline.
        assert!(Negate(&a).row_view(0, 0..6).is_none());
        assert!(ReverseCols(&a).row_view(0, 0..6).is_none());
        let f = FnArray::new(2, 2, |i, j| (i + j) as i64);
        assert!(f.row_view(0, 0..2).is_none());
    }

    #[test]
    fn clone_shares_rows_and_set_copies_on_write() {
        let a = sample();
        let mut b = a.clone();
        assert_eq!(b.data().as_ptr(), a.data().as_ptr(), "a clone shares");
        b.set(0, 1, 20);
        assert_ne!(b.data().as_ptr(), a.data().as_ptr());
        assert_eq!(a.row_slice(0), &[1, 2, 3], "the original is unchanged");
        assert_eq!(b.row_slice(0), &[1, 20, 3]);
        // A buffer nobody shares is written in place.
        let before = b.data().as_ptr();
        b.set(1, 2, 60);
        assert_eq!(b.data().as_ptr(), before);
        // Dense answers `as_dense`; references forward; views decline.
        assert!(std::ptr::eq(a.as_dense().unwrap(), &a));
        assert!(std::ptr::eq((&&a).as_dense().unwrap(), &a));
        assert!(SubArray::new(&a, 0..2, 0..3).as_dense().is_none());
        assert!(ReverseRows(&a).as_dense().is_none());
    }

    #[test]
    #[should_panic]
    fn ragged_rows_panic() {
        let _ = Dense::from_rows(vec![vec![1i64, 2], vec![3]]);
    }

    #[test]
    fn infinity_entries_flow_through_adapters() {
        let inf = <i64 as Value>::INFINITY;
        let a = Dense::from_rows(vec![vec![1, inf], vec![2, inf]]);
        assert!(Value::is_pos_infinite(Negate(&a).entry(0, 1).neg()));
        assert!(Value::is_pos_infinite(ReverseCols(&a).entry(0, 0)));
    }
}
