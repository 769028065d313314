//! Property tests for the batched evaluation layer: `fill_row` must agree
//! with the entry-by-entry loop for every `Array2d` implementor and
//! adaptor stack, on arbitrary sub-intervals — the contract every batched
//! engine now leans on. Wherever an implementor also offers a zero-copy
//! `row_view`, the borrowed slice must agree too.

use monge_core::array2d::{
    Array2d, FnArray, Negate, Plus, ReverseCols, ReverseRows, SelectCols, SelectRows, SubArray,
    Transpose,
};
use monge_core::eval::{CachedArray, CountingArray};
use monge_core::generators::{random_monge_dense, ImplicitMonge, TransportArray};
use monge_core::tube::plane;
use monge_core::value::Value;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Asserts `fill_row(i, lo..hi, buf)` equals the `entry` loop on every
/// row, for a handful of seeded random intervals.
fn check_fill_row<T: Value + PartialEq, A: Array2d<T>>(a: &A, seed: u64) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..a.rows() {
        for _ in 0..4 {
            let lo = rng.random_range(0..a.cols());
            let hi = rng.random_range(lo..a.cols()) + 1;
            let mut buf = vec![T::ZERO; hi - lo];
            a.fill_row(i, lo..hi, &mut buf);
            for (t, j) in (lo..hi).enumerate() {
                if buf[t] != a.entry(i, j) {
                    return Err(format!(
                        "row {i} cols {lo}..{hi} offset {t}: {:?} != {:?}",
                        buf[t],
                        a.entry(i, j)
                    ));
                }
            }
            if let Some(view) = a.row_view(i, lo..hi) {
                if view != buf.as_slice() {
                    return Err(format!("row_view disagrees at row {i} cols {lo}..{hi}"));
                }
            }
        }
    }
    Ok(())
}

fn dims() -> impl Strategy<Value = (usize, usize)> {
    (1usize..16, 1usize..16)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn dense_and_fnarray((m, n) in dims(), seed in any::<u64>()) {
        let d = random_monge_dense(m, n, &mut StdRng::seed_from_u64(seed));
        prop_assert!(check_fill_row(&d, seed).is_ok());
        let f = FnArray::new(m, n, |i: usize, j: usize| (i as i64 + 1) * 7 - (j as i64) * 3);
        prop_assert!(check_fill_row(&f, seed).is_ok());
    }

    #[test]
    fn implicit_generators((m, n) in dims(), k in 0usize..5, seed in any::<u64>()) {
        let a = ImplicitMonge::random(m, n, k, &mut StdRng::seed_from_u64(seed));
        prop_assert!(check_fill_row(&a, seed).is_ok());
        let t = TransportArray::random(m, n, &mut StdRng::seed_from_u64(seed ^ 1));
        prop_assert!(check_fill_row(&t, seed).is_ok());
    }

    #[test]
    fn single_adaptors((m, n) in dims(), seed in any::<u64>()) {
        let d = random_monge_dense(m, n, &mut StdRng::seed_from_u64(seed));
        prop_assert!(check_fill_row(&Negate(&d), seed).is_ok());
        prop_assert!(check_fill_row(&ReverseCols(&d), seed).is_ok());
        prop_assert!(check_fill_row(&ReverseRows(&d), seed).is_ok());
        prop_assert!(check_fill_row(&Transpose(&d), seed).is_ok());
        prop_assert!(check_fill_row(&Plus(&d, &d), seed).is_ok());
    }

    #[test]
    fn view_adaptors((m, n) in dims(), seed in any::<u64>()) {
        let d = random_monge_dense(m, n, &mut StdRng::seed_from_u64(seed));
        let mut rng = StdRng::seed_from_u64(seed ^ 2);
        let r0 = rng.random_range(0..m);
        let c0 = rng.random_range(0..n);
        let sub = SubArray::new(&d, r0..m, c0..n);
        prop_assert!(check_fill_row(&sub, seed).is_ok());
        // Selections must be strictly increasing: sample random subsets.
        let mut rows: Vec<usize> = (0..m).filter(|_| rng.random_range(0..2u8) == 0).collect();
        if rows.is_empty() {
            rows.push(m - 1);
        }
        prop_assert!(check_fill_row(&SelectRows::new(&d, rows), seed).is_ok());
        let mut cols: Vec<usize> = (0..n).filter(|_| rng.random_range(0..2u8) == 0).collect();
        if cols.is_empty() {
            cols.push(n - 1);
        }
        prop_assert!(check_fill_row(&SelectCols::new(&d, cols), seed).is_ok());
    }

    #[test]
    fn stacked_adaptors((m, n) in dims(), seed in any::<u64>()) {
        // Specialized overrides must survive composition, including
        // through the `&A` forwarding impl.
        let d = random_monge_dense(m, n, &mut StdRng::seed_from_u64(seed));
        let stack = Negate(ReverseCols(ReverseRows(&d)));
        prop_assert!(check_fill_row(&stack, seed).is_ok());
        let deeper = ReverseCols(Negate(SubArray::new(&d, 0..m, 0..n)));
        prop_assert!(check_fill_row(&deeper, seed).is_ok());
    }

    #[test]
    fn monge_composite_plane((p, q) in dims(), r in 1usize..16, seed in any::<u64>()) {
        // The tube plane F_i[k][j] = d[i,j] + e[j,k] used by every
        // (min,+)-product engine.
        let d = random_monge_dense(p, q, &mut StdRng::seed_from_u64(seed));
        let e = random_monge_dense(q, r, &mut StdRng::seed_from_u64(seed ^ 3));
        for i in 0..p {
            let pl = plane(&d, &e, i);
            prop_assert!(check_fill_row(&pl, seed).is_ok());
        }
    }

    #[test]
    fn caching_wrappers((m, n) in dims(), seed in any::<u64>()) {
        let d = random_monge_dense(m, n, &mut StdRng::seed_from_u64(seed));
        let counted = CountingArray::new(&d);
        prop_assert!(check_fill_row(&counted, seed).is_ok());
        let cached = CachedArray::new(&d);
        prop_assert!(check_fill_row(&cached, seed).is_ok());
        // A second pass touches the cache only.
        prop_assert!(check_fill_row(&cached, seed ^ 4).is_ok());
        prop_assert_eq!(cached.materialized_rows(), m);
    }
}
