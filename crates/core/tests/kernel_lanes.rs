//! Edge-case tests for the slice-scan kernels ([`monge_core::kernel`])
//! and the streaming interval scans: every configuration (scalar
//! blocked scan, AVX2 lanes when compiled in, streaming chunked scan)
//! must return byte-identical `(value, index)` answers, including the
//! tie-break index, on lane-hostile inputs — lengths straddling the
//! vector width, plateaus crossing lane boundaries, `±0.0`, all-`∞`
//! sentinel rows and one-element intervals.
//!
//! Tests that pin a kernel go through [`with_kernel`], whose
//! pin belongs to the calling thread and is restored even when an
//! assertion inside the closure panics, so they run in parallel with
//! no lock. Under `--no-default-features` the `Simd` passes silently
//! degrade to scalar-vs-scalar, which keeps the suite meaningful in
//! both CI feature legs.

use monge_core::array2d::{Array2d, Dense, FnArray};
use monge_core::eval;
use monge_core::kernel::{with_kernel, Kernel};
use monge_core::tiebreak::Tie;
use monge_core::value::Value;

/// Reference argmin with explicit tie semantics, written as the most
/// naive possible loop.
fn brute_argmin<T: Value>(vals: &[T], tie: Tie) -> usize {
    let mut best = 0;
    for (j, &v) in vals.iter().enumerate().skip(1) {
        let take = match tie {
            Tie::Left => v.total_lt(vals[best]),
            Tie::Right => !vals[best].total_lt(v),
        };
        if take {
            best = j;
        }
    }
    best
}

fn brute_argmax<T: Value>(vals: &[T]) -> usize {
    let mut best = 0;
    for (j, &v) in vals.iter().enumerate().skip(1) {
        if vals[best].total_lt(v) {
            best = j;
        }
    }
    best
}

/// Deterministic value stream (splitmix64) so failures reproduce.
fn splitmix(seed: &mut u64) -> u64 {
    *seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *seed;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Lengths chosen to straddle the 4-lane vector width, the
/// `MIN_SIMD_LEN` cutoff and the 256-element streaming chunk.
const LENGTHS: &[usize] = &[
    1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 100, 255, 256, 257, 512, 1000,
];

fn check_slice_i64(vals: &[i64]) {
    for tie in [Tie::Left, Tie::Right] {
        let want = brute_argmin(vals, tie);
        let scalar = eval::argmin_slice_tie_scalar(vals, tie);
        assert_eq!(scalar, want, "scalar argmin tie={tie:?} len={}", vals.len());
        let simd = with_kernel(Kernel::Simd, || eval::argmin_slice_tie(vals, tie));
        assert_eq!(simd, want, "simd argmin tie={tie:?} len={}", vals.len());
    }
    let want = brute_argmax(vals);
    assert_eq!(eval::argmax_slice_scalar(vals), want, "scalar argmax");
    let simd = with_kernel(Kernel::Simd, || eval::argmax_slice(vals));
    assert_eq!(simd, want, "simd argmax len={}", vals.len());
}

fn check_slice_f64(vals: &[f64]) {
    for tie in [Tie::Left, Tie::Right] {
        let want = brute_argmin(vals, tie);
        let simd = with_kernel(Kernel::Simd, || eval::argmin_slice_tie(vals, tie));
        assert_eq!(simd, want, "f64 argmin tie={tie:?} len={}", vals.len());
    }
    let want = brute_argmax(vals);
    let simd = with_kernel(Kernel::Simd, || eval::argmax_slice(vals));
    assert_eq!(simd, want, "f64 argmax len={}", vals.len());
}

#[test]
fn random_slices_every_length_i64() {
    let mut seed = 7u64;
    for &n in LENGTHS {
        for _ in 0..8 {
            let vals: Vec<i64> = (0..n)
                .map(|_| (splitmix(&mut seed) % 97) as i64 - 48)
                .collect();
            check_slice_i64(&vals);
        }
    }
}

#[test]
fn random_slices_every_length_f64() {
    let mut seed = 11u64;
    for &n in LENGTHS {
        for _ in 0..8 {
            // Small integer-valued doubles: ties are common, compares
            // are exact.
            let vals: Vec<f64> = (0..n)
                .map(|_| ((splitmix(&mut seed) % 17) as f64) - 8.0)
                .collect();
            check_slice_f64(&vals);
        }
    }
}

#[test]
fn plateaus_crossing_lane_boundaries() {
    // A minimum plateau spanning positions [start, start+len) for
    // starts around every 4-lane boundary and the scalar tail.
    for &n in &[16usize, 17, 19, 20, 23, 64, 67] {
        for start in 0..n {
            for plen in 1..=(n - start).min(9) {
                let mut vals = vec![5i64; n];
                for v in vals.iter_mut().skip(start).take(plen) {
                    *v = -3;
                }
                check_slice_i64(&vals);
                let f: Vec<f64> = vals.iter().map(|&v| v as f64).collect();
                check_slice_f64(&f);
            }
        }
    }
}

#[test]
fn all_equal_plateau_picks_extremes() {
    for &n in LENGTHS {
        let vals = vec![42i64; n];
        assert_eq!(
            with_kernel(Kernel::Simd, || eval::argmin_slice_tie(&vals, Tie::Left)),
            0
        );
        assert_eq!(
            with_kernel(Kernel::Simd, || eval::argmin_slice_tie(&vals, Tie::Right)),
            n - 1
        );
        assert_eq!(with_kernel(Kernel::Simd, || eval::argmax_slice(&vals)), 0);
    }
}

#[test]
fn signed_zero_ties_are_positional() {
    // -0.0 == 0.0 under the NaN-free `total_lt` (`<`), so a mixed-zero
    // plateau must tie-break purely by position, not by sign bit.
    for &n in &[16usize, 23, 64] {
        for flip in 0..n {
            let mut vals = vec![0.0f64; n];
            vals[flip] = -0.0;
            assert_eq!(
                with_kernel(Kernel::Simd, || eval::argmin_slice_tie(&vals, Tie::Left)),
                0,
                "n={n} flip={flip}"
            );
            assert_eq!(
                with_kernel(Kernel::Simd, || eval::argmin_slice_tie(&vals, Tie::Right)),
                n - 1,
                "n={n} flip={flip}"
            );
        }
    }
}

#[test]
fn infinity_sentinel_rows() {
    // An all-infeasible staircase row: every entry is the +∞ sentinel.
    for &n in &[16usize, 17, 100, 256] {
        let vi = vec![<i64 as Value>::INFINITY; n];
        let vf = vec![<f64 as Value>::INFINITY; n];
        assert_eq!(
            with_kernel(Kernel::Simd, || eval::argmin_slice_tie(&vi, Tie::Left)),
            0
        );
        assert_eq!(
            with_kernel(Kernel::Simd, || eval::argmin_slice_tie(&vf, Tie::Right)),
            n - 1
        );
        // A single feasible entry among sentinels, at every position.
        for j in 0..n {
            let mut v = vi.clone();
            v[j] = -1;
            assert_eq!(
                with_kernel(Kernel::Simd, || eval::argmin_slice_tie(&v, Tie::Left)),
                j
            );
            let mut w = vf.clone();
            w[j] = -1.0;
            assert_eq!(
                with_kernel(Kernel::Simd, || eval::argmin_slice_tie(&w, Tie::Right)),
                j
            );
        }
    }
}

#[test]
fn extreme_magnitudes_do_not_wrap() {
    // The i64 kernel compares raw 64-bit lanes; values near the
    // sentinel (`i64::MAX / 4`) and far negative must order correctly.
    let inf = <i64 as Value>::INFINITY;
    let vals = vec![
        inf,
        inf - 1,
        -inf,
        0,
        inf,
        -inf,
        7,
        -inf + 1,
        inf,
        3,
        -5,
        0,
        2,
        9,
        -1,
        4,
    ];
    check_slice_i64(&vals);
}

#[test]
fn streaming_matches_buffered_interval_scans() {
    // A generator-backed array (prefers_streaming) against its dense
    // materialization: all six interval scans must agree on every
    // (row, sub-interval) — including one-element and chunk-straddling
    // intervals.
    let (m, n) = (5usize, 600usize);
    let cost = |i: usize, j: usize| {
        let d = i as i64 * 7 - j as i64;
        d * d % 101 - 17
    };
    let gen = FnArray::new(m, n, cost);
    assert!(gen.prefers_streaming());
    let dense = Dense::tabulate(m, n, cost);
    let mut scratch = Vec::new();
    let intervals: &[(usize, usize)] = &[
        (0, n),
        (0, 1),
        (n - 1, n),
        (3, 4),
        (250, 262),
        (0, 256),
        (255, 513),
        (100, 356),
    ];
    for row in 0..m {
        for &(lo, hi) in intervals {
            let got = eval::interval_argmin(&gen, row, lo, hi, &mut scratch);
            let want = eval::interval_argmin(&dense, row, lo, hi, &mut scratch);
            assert_eq!(got, want, "argmin row={row} [{lo},{hi})");
            let got = eval::interval_argmin_rightmost(&gen, row, lo, hi, &mut scratch);
            let want = eval::interval_argmin_rightmost(&dense, row, lo, hi, &mut scratch);
            assert_eq!(got, want, "argmin_rightmost row={row} [{lo},{hi})");
            let got = eval::interval_argmax(&gen, row, lo, hi, &mut scratch);
            let want = eval::interval_argmax(&dense, row, lo, hi, &mut scratch);
            assert_eq!(got, want, "argmax row={row} [{lo},{hi})");
            let got = eval::interval_argmin_pooled(&gen, row, lo, hi);
            let want = eval::interval_argmin_pooled(&dense, row, lo, hi);
            assert_eq!(got, want, "argmin_pooled row={row} [{lo},{hi})");
            let got = eval::interval_argmin_rightmost_pooled(&gen, row, lo, hi);
            let want = eval::interval_argmin_rightmost_pooled(&dense, row, lo, hi);
            assert_eq!(got, want, "argmin_rightmost_pooled row={row} [{lo},{hi})");
            let got = eval::interval_argmax_pooled(&gen, row, lo, hi);
            let want = eval::interval_argmax_pooled(&dense, row, lo, hi);
            assert_eq!(got, want, "argmax_pooled row={row} [{lo},{hi})");
        }
    }
}

#[test]
fn streaming_plateau_across_chunk_boundary() {
    // A zero-slack plateau spanning the 256-element streaming chunk
    // boundary: leftmost must come from the first chunk, rightmost
    // from the second, and the chunk merge must not double-count.
    let n = 600usize;
    for &(plo, phi) in &[(250usize, 262usize), (255, 257), (0, 600), (511, 513)] {
        let arr = FnArray::new(
            1,
            n,
            move |_i, j| if (plo..phi).contains(&j) { -9i64 } else { 4 },
        );
        assert_eq!(eval::stream_argmin_tie(&arr, 0, 0, n, Tie::Left), (plo, -9));
        assert_eq!(
            eval::stream_argmin_tie(&arr, 0, 0, n, Tie::Right),
            (phi - 1, -9)
        );
    }
}

#[test]
fn kernel_forcing_is_safe_everywhere() {
    // Forcing `Simd` on a host without the feature (or without AVX2)
    // must silently fall back to scalar — same answers, no panic.
    let vals: Vec<i64> = (0..257).map(|j| (j as i64 * 31) % 19 - 9).collect();
    let want = eval::argmin_slice_tie_scalar(&vals, Tie::Left);
    for k in [Kernel::Auto, Kernel::Scalar, Kernel::Simd] {
        assert_eq!(
            with_kernel(k, || eval::argmin_slice_tie(&vals, Tie::Left)),
            want
        );
    }
}
