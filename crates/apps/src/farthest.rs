//! The paper's motivating example (Figure 1.1): farthest neighbors across
//! the two chains of a convex polygon, and the all-farthest-neighbors
//! problem it powers (\[AKM+87\]'s application).
//!
//! Split a convex polygon's counterclockwise vertex sequence into chains
//! `P = p_1 … p_m` and `Q = q_1 … q_n`. For `i < k` and `j < l`, the
//! quadrilateral `p_i p_k q_j q_l` is convex in that cyclic order, so the
//! quadrangle inequality gives
//! `d(p_i,q_j) + d(p_k,q_l) ≥ d(p_i,q_l) + d(p_k,q_j)` — the inter-chain
//! distance array is **inverse-Monge**, and one row-maxima computation
//! answers every vertex's farthest cross-chain neighbor in `Θ(m + n)`
//! sequential time (\[AKM+87\]) or polylog parallel time.

use crate::geometry::Point;
use monge_core::array2d::{Array2d, FnArray};
use monge_core::guard::SolveError;
use monge_core::problem::Problem;
use monge_core::smawk::RowExtrema;
use monge_parallel::tuning::Tuning;
use monge_parallel::{runtime, Dispatcher};

/// One cross-chain farthest search, routed through the dispatcher: the
/// inverse-Monge row-maxima problem, solved by whichever host backend
/// the grain policy picks for this chain pair's shape.
fn cross_maxima(d: &Dispatcher<f64>, a: &dyn Array2d<f64>, t: Tuning) -> RowExtrema<f64> {
    d.solve_with(&Problem::row_maxima_inverse_monge(a), t)
        .0
        .into_rows()
}

/// The same search pinned to the sequential backend (for the
/// `Θ(m + n)` sequential entry points).
fn cross_maxima_seq(d: &Dispatcher<f64>, a: &dyn Array2d<f64>) -> RowExtrema<f64> {
    d.solve_on(
        "sequential",
        &Problem::row_maxima_inverse_monge(a),
        Tuning::DEFAULT,
    )
    .expect("sequential backend is always registered and eligible")
    .0
    .into_rows()
}

/// The inverse-Monge cross-chain distance array of Figure 1.1.
///
/// `P` and `Q` must be consecutive counterclockwise chains of one convex
/// polygon (i.e. `p_1 … p_m q_1 … q_n` is the ccw vertex order).
pub fn chain_distance_array<'a>(
    p: &'a [Point],
    q: &'a [Point],
) -> FnArray<impl Fn(usize, usize) -> f64 + 'a> {
    FnArray::new(p.len(), q.len(), move |i: usize, j: usize| p[i].dist(q[j]))
}

/// For every vertex of `P`, its farthest vertex of `Q` (index into `Q`),
/// sequential SMAWK, `Θ(m + n)`.
pub fn farthest_across_chains(p: &[Point], q: &[Point]) -> Vec<usize> {
    assert!(!p.is_empty() && !q.is_empty());
    let a = chain_distance_array(p, q);
    debug_assert!(monge_core::monge::is_inverse_monge(&a));
    let d = Dispatcher::with_default_backends();
    cross_maxima_seq(&d, &a).index
}

/// Parallel (rayon) version of [`farthest_across_chains`].
pub fn par_farthest_across_chains(p: &[Point], q: &[Point]) -> Vec<usize> {
    assert!(!p.is_empty() && !q.is_empty());
    let a = chain_distance_array(p, q);
    let d = Dispatcher::with_default_backends();
    d.solve_on(
        "rayon",
        &Problem::row_maxima_inverse_monge(&a),
        Tuning::from_env(),
    )
    .expect("rayon backend handles all rows problems")
    .0
    .into_rows()
    .index
}

/// Brute-force oracle, `O(mn)`.
pub fn farthest_across_chains_brute(p: &[Point], q: &[Point]) -> Vec<usize> {
    p.iter()
        .map(|&pt| {
            let mut best = 0usize;
            let mut best_d = pt.dist(q[0]);
            for (j, &qt) in q.iter().enumerate().skip(1) {
                let d = pt.dist(qt);
                if d > best_d {
                    best = j;
                    best_d = d;
                }
            }
            best
        })
        .collect()
}

/// A chain (or polygon) must be non-degenerate and fully finite before
/// the distance array can be declared inverse-Monge.
fn check_chain(label: &str, pts: &[Point], min_len: usize) -> Result<(), SolveError> {
    if pts.len() < min_len {
        return Err(SolveError::InvalidInput {
            reason: format!(
                "{label} needs at least {min_len} vertices, got {}",
                pts.len()
            ),
        });
    }
    for (k, p) in pts.iter().enumerate() {
        if !(p.x.is_finite() && p.y.is_finite()) {
            return Err(SolveError::InvalidInput {
                reason: format!("{label} vertex {k} has a non-finite coordinate"),
            });
        }
    }
    Ok(())
}

/// [`farthest_across_chains`] behind input validation: empty chains or
/// non-finite vertices become [`SolveError::InvalidInput`] instead of a
/// panic.
pub fn try_farthest_across_chains(p: &[Point], q: &[Point]) -> Result<Vec<usize>, SolveError> {
    check_chain("chain P", p, 1)?;
    check_chain("chain Q", q, 1)?;
    Ok(farthest_across_chains(p, q))
}

/// [`all_farthest_neighbors`] behind input validation: polygons with
/// fewer than two vertices or non-finite coordinates become
/// [`SolveError::InvalidInput`] instead of a panic.
pub fn try_all_farthest_neighbors(poly: &[Point]) -> Result<Vec<usize>, SolveError> {
    check_chain("polygon", poly, 2)?;
    Ok(all_farthest_neighbors(poly))
}

/// All-farthest-neighbors of a convex polygon: for every vertex, the
/// index of the farthest other vertex. Divide & conquer over chain
/// splits: cross-chain queries are Monge searches (`Θ(m+n)` each), and
/// same-chain queries recurse — `O(n lg n)` total, against the `O(n²)`
/// brute force.
pub fn all_farthest_neighbors(poly: &[Point]) -> Vec<usize> {
    let n = poly.len();
    assert!(n >= 2);
    let idx: Vec<usize> = (0..n).collect();
    let mut best: Vec<Option<(f64, usize)>> = vec![None; n];
    let d = Dispatcher::with_default_backends();
    rec(&d, poly, &idx, &mut best);
    best.into_iter().map(|b| b.expect("filled").1).collect()
}

fn rec(disp: &Dispatcher<f64>, poly: &[Point], chain: &[usize], best: &mut [Option<(f64, usize)>]) {
    let n = chain.len();
    if n < 2 {
        return;
    }
    if n <= 4 {
        for (a, &i) in chain.iter().enumerate() {
            for &j in chain.iter().skip(a + 1) {
                let d = poly[i].dist(poly[j]);
                merge(&mut best[i], d, j);
                merge(&mut best[j], d, i);
            }
        }
        return;
    }
    let (p, q) = chain.split_at(n / 2);
    // Cross-chain farthest via the inverse-Monge array (both directions).
    let pa = FnArray::new(p.len(), q.len(), |i: usize, j: usize| {
        poly[p[i]].dist(poly[q[j]])
    });
    let fq = cross_maxima_seq(disp, &pa);
    for (i, (&j, &d)) in fq.index.iter().zip(&fq.value).enumerate() {
        merge(&mut best[p[i]], d, q[j]);
        merge(&mut best[q[j]], d, p[i]);
    }
    // The transposed search catches Q-vertices whose farthest P-vertex
    // was not some P-vertex's farthest Q-vertex. (Q followed by P is
    // also a consecutive ccw chain pair, so this array is inverse-Monge
    // too.)
    let qa = FnArray::new(q.len(), p.len(), |j: usize, i: usize| {
        poly[q[j]].dist(poly[p[i]])
    });
    let fp = cross_maxima_seq(disp, &qa);
    for (j, (&i, &d)) in fp.index.iter().zip(&fp.value).enumerate() {
        merge(&mut best[q[j]], d, p[i]);
    }
    rec(disp, poly, p, best);
    rec(disp, poly, q, best);
}

/// Parallel all-farthest-neighbors: every cross-chain query runs on the
/// rayon row-maxima engine (the two directions fork against each other)
/// and the two same-chain recursions run under `runtime::join`, so the
/// whole divide & conquer — not just one search — scales with cores.
pub fn par_all_farthest_neighbors(poly: &[Point]) -> Vec<usize> {
    par_all_farthest_neighbors_with(poly, Tuning::from_env())
}

/// [`par_all_farthest_neighbors`] with explicit tuning
/// ([`Tuning::seq_rows`] bounds the chain length solved without
/// forking).
pub fn par_all_farthest_neighbors_with(poly: &[Point], t: Tuning) -> Vec<usize> {
    let n = poly.len();
    assert!(n >= 2);
    let mut best: Vec<Option<(f64, usize)>> = vec![None; n];
    let d = Dispatcher::with_default_backends();
    par_rec(&d, poly, 0, n, &mut best, t);
    best.into_iter().map(|b| b.expect("filled").1).collect()
}

/// Solves the contiguous chain `lo..hi`; `best` covers exactly those
/// vertices (`best[i - lo]` is vertex `i`'s candidate).
fn par_rec(
    disp: &Dispatcher<f64>,
    poly: &[Point],
    lo: usize,
    hi: usize,
    best: &mut [Option<(f64, usize)>],
    t: Tuning,
) {
    let n = hi - lo;
    if n < 2 {
        return;
    }
    if n <= 4 {
        for i in lo..hi {
            for j in i + 1..hi {
                let d = poly[i].dist(poly[j]);
                merge(&mut best[i - lo], d, j);
                merge(&mut best[j - lo], d, i);
            }
        }
        return;
    }
    let mid = lo + n / 2;
    // Cross-chain farthest via the inverse-Monge array, both directions
    // (see `rec` for why the transposed search is needed); the searches
    // are independent, so they fork against each other. Each search's
    // own engine choice (sequential vs rayon) is the dispatcher's.
    let pa = FnArray::new(mid - lo, hi - mid, |i: usize, j: usize| {
        poly[lo + i].dist(poly[mid + j])
    });
    let qa = FnArray::new(hi - mid, mid - lo, |j: usize, i: usize| {
        poly[mid + j].dist(poly[lo + i])
    });
    let (fq, fp) = if n > t.seq_rows.max(1) {
        runtime::join(|| cross_maxima(disp, &pa, t), || cross_maxima(disp, &qa, t))
    } else {
        (cross_maxima(disp, &pa, t), cross_maxima(disp, &qa, t))
    };
    for (i, (&j, &d)) in fq.index.iter().zip(&fq.value).enumerate() {
        merge(&mut best[i], d, mid + j);
        merge(&mut best[mid + j - lo], d, lo + i);
    }
    for (j, (&i, &d)) in fp.index.iter().zip(&fp.value).enumerate() {
        merge(&mut best[mid + j - lo], d, lo + i);
    }
    let (bp, bq) = best.split_at_mut(mid - lo);
    if n > t.seq_rows.max(1) {
        runtime::join(
            || par_rec(disp, poly, lo, mid, bp, t),
            || par_rec(disp, poly, mid, hi, bq, t),
        );
    } else {
        par_rec(disp, poly, lo, mid, bp, t);
        par_rec(disp, poly, mid, hi, bq, t);
    }
}

fn merge(slot: &mut Option<(f64, usize)>, d: f64, j: usize) {
    match slot {
        None => *slot = Some((d, j)),
        Some((bd, bj)) => {
            if d > *bd || (d == *bd && j < *bj) {
                *slot = Some((d, j));
            }
        }
    }
}

/// Brute-force all-farthest oracle, `O(n²)`.
pub fn all_farthest_neighbors_brute(poly: &[Point]) -> Vec<usize> {
    let n = poly.len();
    (0..n)
        .map(|i| {
            let mut best = usize::MAX;
            let mut best_d = f64::NEG_INFINITY;
            for j in 0..n {
                if j == i {
                    continue;
                }
                let d = poly[i].dist(poly[j]);
                if d > best_d {
                    best = j;
                    best_d = d;
                }
            }
            best
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::ConvexPolygon;
    use monge_core::monge::is_inverse_monge;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn chains(n: usize, m: usize, seed: u64) -> (Vec<Point>, Vec<Point>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let poly = ConvexPolygon::random(n + m, 0.0, 0.0, 100.0, &mut rng);
        let p = poly.vertices[..m].to_vec();
        let q = poly.vertices[m..].to_vec();
        (p, q)
    }

    #[test]
    fn chain_array_is_inverse_monge() {
        for seed in 0..10 {
            let (p, q) = chains(30, 13, seed);
            let a = chain_distance_array(&p, &q);
            assert!(is_inverse_monge(&a), "seed {seed}");
        }
    }

    #[test]
    fn farthest_matches_brute() {
        for seed in 0..20 {
            let (p, q) = chains(24, 11, seed);
            assert_eq!(
                farthest_across_chains(&p, &q),
                farthest_across_chains_brute(&p, &q),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let (p, q) = chains(64, 40, 77);
        assert_eq!(
            par_farthest_across_chains(&p, &q),
            farthest_across_chains(&p, &q)
        );
    }

    #[test]
    fn all_farthest_matches_brute() {
        let mut rng = StdRng::seed_from_u64(5);
        for n in [4usize, 7, 16, 33, 64] {
            let poly = ConvexPolygon::random(n, 0.0, 0.0, 50.0, &mut rng);
            let got = all_farthest_neighbors(&poly.vertices);
            let want = all_farthest_neighbors_brute(&poly.vertices);
            // Distances must match (indices may differ on exact ties,
            // which random real coordinates make measure-zero).
            for i in 0..n {
                let dg = poly.vertices[i].dist(poly.vertices[got[i]]);
                let dw = poly.vertices[i].dist(poly.vertices[want[i]]);
                assert!((dg - dw).abs() < 1e-9, "n={n} i={i}");
            }
        }
    }

    #[test]
    fn two_vertex_polygon() {
        let poly = vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)];
        assert_eq!(all_farthest_neighbors(&poly), vec![1, 0]);
        assert_eq!(par_all_farthest_neighbors(&poly), vec![1, 0]);
    }

    #[test]
    fn parallel_all_farthest_matches_sequential_distances() {
        let mut rng = StdRng::seed_from_u64(6);
        for n in [5usize, 16, 33, 64, 150] {
            let poly = ConvexPolygon::random(n, 0.0, 0.0, 50.0, &mut rng);
            let seq = all_farthest_neighbors(&poly.vertices);
            for t in [
                Tuning::DEFAULT,
                Tuning {
                    seq_rows: 1,
                    ..Tuning::DEFAULT
                },
            ] {
                let par = par_all_farthest_neighbors_with(&poly.vertices, t);
                for i in 0..n {
                    let dp = poly.vertices[i].dist(poly.vertices[par[i]]);
                    let ds = poly.vertices[i].dist(poly.vertices[seq[i]]);
                    assert!((dp - ds).abs() < 1e-9, "n={n} i={i}");
                }
            }
        }
    }
}
