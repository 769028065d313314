//! §1.3 application 2: the largest-area rectangle formed by two of the
//! `n` given points as opposite corners (axis-parallel sides) — the
//! integrated-circuit leakage-path problem of \[Mel89\]. The paper obtains
//! an optimal `Θ(lg n)`-time, `n`-processor CRCW algorithm.
//!
//! ## Monge reduction
//!
//! For a NE-oriented pair (lower-left corner `p`, upper-right corner
//! `q`), `p` may be replaced by a *SW-staircase* point (one dominated by
//! no other point from below-left) and `q` by a *NE-staircase* point,
//! without decreasing the area. Index rows by the SW staircase sorted by
//! `x` ascending (`y` strictly descending) and columns by the NE
//! staircase sorted by `y` ascending (`x` strictly descending). The area
//! array
//!
//! ```text
//! A[i][j] = (x_cj - x_ri) · (y_cj - y_ri)
//! ```
//!
//! has quadrangle difference
//! `(y_ri - y_rk)(x_cl - x_cj) + (x_ri - x_rk)(y_cl - y_cj) ≤ 0` under
//! those orderings — **Monge** — and the validity constraints
//! `x_cj > x_ri`, `y_cj > y_ri` carve *non-increasing bands*, the exact
//! class [`monge_core::banded::banded_row_maxima_monge`] searches in
//! `O(n lg n)`. SE-oriented pairs are the same problem on `y`-reflected
//! points.

use crate::geometry::Point;
use monge_core::array2d::FnArray;
use monge_core::problem::Problem;
use monge_parallel::{runtime, Dispatcher, PramBackend, Tuning};

/// The best rectangle found: area plus the two corner points.
#[derive(Clone, Copy, Debug)]
pub struct CornerRect {
    /// Rectangle area (0.0 when every pair is axis-degenerate).
    pub area: f64,
    /// One corner (a point of the input).
    pub a: Point,
    /// The opposite corner (a point of the input).
    pub b: Point,
}

/// Brute-force oracle, `O(n²)`: maximize `|Δx·Δy|` over all pairs.
pub fn largest_corner_rectangle_brute(points: &[Point]) -> CornerRect {
    assert!(points.len() >= 2);
    let mut best = CornerRect {
        area: -1.0,
        a: points[0],
        b: points[1],
    };
    for (i, &p) in points.iter().enumerate() {
        for &q in points.iter().skip(i + 1) {
            let area = ((q.x - p.x) * (q.y - p.y)).abs();
            if area > best.area {
                best = CornerRect { area, a: p, b: q };
            }
        }
    }
    best
}

/// The SW staircase: points not weakly dominated from below-left, sorted
/// by `x` ascending (`y` strictly descending).
fn sw_staircase(points: &[Point]) -> Vec<Point> {
    let mut sorted: Vec<Point> = points.to_vec();
    sorted.sort_by(|a, b| a.x.total_cmp(&b.x).then(a.y.total_cmp(&b.y)));
    let mut stair: Vec<Point> = Vec::new();
    for &p in &sorted {
        // Keep p iff nothing kept so far has y <= p.y (the last kept
        // point has the minimal y so far).
        if stair.last().is_none_or(|l| p.y < l.y) {
            stair.push(p);
        }
    }
    stair
}

/// The NE staircase: points not weakly dominated from above-right, sorted
/// by `x` ascending (`y` strictly descending).
fn ne_staircase(points: &[Point]) -> Vec<Point> {
    let mut sorted: Vec<Point> = points.to_vec();
    sorted.sort_by(|a, b| b.x.total_cmp(&a.x).then(b.y.total_cmp(&a.y)));
    let mut stair: Vec<Point> = Vec::new();
    for &p in &sorted {
        if stair.last().is_none_or(|l| p.y > l.y) {
            stair.push(p);
        }
    }
    stair.reverse(); // x ascending, y descending
    stair
}

/// Best NE-oriented pair via the banded Monge search.
fn best_ne_pair(points: &[Point]) -> Option<CornerRect> {
    let rows = sw_staircase(points); // x asc, y desc
    let mut cols = ne_staircase(points); // x asc, y desc
    cols.reverse(); // y ascending, x descending
    let (m, n) = (rows.len(), cols.len());
    if m == 0 || n == 0 {
        return None;
    }
    // Bands: valid j satisfy y_cj > y_ri (j >= lo_i) and x_cj > x_ri
    // (j < hi_i); both bounds are non-increasing in i.
    let lo: Vec<usize> = rows
        .iter()
        .map(|r| cols.partition_point(|c| c.y <= r.y))
        .collect();
    let hi: Vec<usize> = rows
        .iter()
        .map(|r| cols.partition_point(|c| c.x > r.x))
        .collect();
    let rows_ref = &rows;
    let cols_ref = &cols;
    let a = FnArray::new(m, n, move |i: usize, j: usize| {
        (cols_ref[j].x - rows_ref[i].x) * (cols_ref[j].y - rows_ref[i].y)
    });
    let d = Dispatcher::with_default_backends();
    let (sol, _) = d.solve(&Problem::banded_row_maxima(&a, &lo, &hi));
    let (arg, _) = sol.banded();
    let mut best: Option<CornerRect> = None;
    for (i, j) in arg.iter().copied().enumerate() {
        if let Some(j) = j {
            let area = (cols[j].x - rows[i].x) * (cols[j].y - rows[i].y);
            if best.is_none_or(|b| area > b.area) {
                best = Some(CornerRect {
                    area,
                    a: rows[i],
                    b: cols[j],
                });
            }
        }
    }
    best
}

/// Largest two-corner rectangle in `O(n lg n)` time via two banded Monge
/// searches (NE pairs, and SE pairs by reflecting `y`).
pub fn largest_corner_rectangle(points: &[Point]) -> CornerRect {
    assert!(points.len() >= 2);
    let ne = best_ne_pair(points);
    let reflected: Vec<Point> = points.iter().map(|p| Point::new(p.x, -p.y)).collect();
    let se = best_ne_pair(&reflected).map(|r| CornerRect {
        area: r.area,
        a: Point::new(r.a.x, -r.a.y),
        b: Point::new(r.b.x, -r.b.y),
    });
    let zero = CornerRect {
        area: 0.0,
        a: points[0],
        b: points[1],
    };
    [ne, se]
        .into_iter()
        .flatten()
        .fold(zero, |acc, r| if r.area > acc.area { r } else { acc })
}

/// Parallel variant: the two orientation cases run concurrently under
/// [`runtime::join`] (the staircase constructions and band searches are each
/// near-linear, so the case-level split captures most of the available
/// parallelism at realistic sizes).
pub fn par_largest_corner_rectangle(points: &[Point]) -> CornerRect {
    assert!(points.len() >= 2);
    let reflected: Vec<Point> = points.iter().map(|p| Point::new(p.x, -p.y)).collect();
    let (ne, se) = runtime::join(|| best_ne_pair(points), || best_ne_pair(&reflected));
    let se = se.map(|r| CornerRect {
        area: r.area,
        a: Point::new(r.a.x, -r.a.y),
        b: Point::new(r.b.x, -r.b.y),
    });
    let zero = CornerRect {
        area: 0.0,
        a: points[0],
        b: points[1],
    };
    [ne, se]
        .into_iter()
        .flatten()
        .fold(zero, |acc, r| if r.area > acc.area { r } else { acc })
}

/// The paper's claimed machine for this problem: a `Θ(lg n)`-time,
/// `n`-processor CRCW algorithm. This runs the banded Monge searches of
/// both orientation cases on the simulated PRAM and returns the best
/// rectangle plus the machine metrics (steps on the critical path with
/// both cases as parallel branches).
pub fn pram_largest_corner_rectangle(
    points: &[Point],
    prim: monge_parallel::MinPrimitive,
) -> (CornerRect, monge_pram::Metrics) {
    assert!(points.len() >= 2);
    // f64 entries ride directly on the generic PRAM engine.
    let mut best = CornerRect {
        area: 0.0,
        a: points[0],
        b: points[1],
    };
    let mut metrics = monge_pram::Metrics::default();
    for reflect in [false, true] {
        let pts: Vec<Point> = if reflect {
            points.iter().map(|p| Point::new(p.x, -p.y)).collect()
        } else {
            points.to_vec()
        };
        let rows = sw_staircase(&pts);
        let mut cols = ne_staircase(&pts);
        cols.reverse();
        let (m, n) = (rows.len(), cols.len());
        if m == 0 || n == 0 {
            continue;
        }
        let lo: Vec<usize> = rows
            .iter()
            .map(|r| cols.partition_point(|c| c.y <= r.y))
            .collect();
        let hi: Vec<usize> = rows
            .iter()
            .map(|r| cols.partition_point(|c| c.x > r.x))
            .collect();
        let rows_ref = &rows;
        let cols_ref = &cols;
        let a = FnArray::new(m, n, move |i: usize, j: usize| {
            (cols_ref[j].x - rows_ref[i].x) * (cols_ref[j].y - rows_ref[i].y)
        });
        let d = Dispatcher::with_all_backends();
        let (sol, tel) = d
            .solve_on(
                PramBackend::name_of(prim),
                &Problem::banded_row_maxima(&a, &lo, &hi),
                Tuning::from_env(),
            )
            .expect("PRAM backends handle banded problems");
        let (arg, _) = sol.banded();
        // The two orientation cases are parallel branches: critical path
        // takes the max, work adds.
        metrics.steps = metrics.steps.max(tel.machine.steps);
        metrics.work += tel.machine.work;
        for (i, j) in arg.iter().copied().enumerate() {
            if let Some(j) = j {
                let area = (cols[j].x - rows[i].x) * (cols[j].y - rows[i].y);
                if area > best.area {
                    let (pa, pb) = if reflect {
                        (
                            Point::new(rows[i].x, -rows[i].y),
                            Point::new(cols[j].x, -cols[j].y),
                        )
                    } else {
                        (rows[i], cols[j])
                    };
                    best = CornerRect { area, a: pa, b: pb };
                }
            }
        }
    }
    (best, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_points(n: usize, seed: u64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new(rng.random_range(0.0..1000.0), rng.random_range(0.0..1000.0)))
            .collect()
    }

    #[test]
    fn staircases_are_monotone() {
        let pts = random_points(100, 1);
        let sw = sw_staircase(&pts);
        assert!(sw.windows(2).all(|w| w[0].x <= w[1].x && w[0].y > w[1].y));
        let mut ne = ne_staircase(&pts);
        assert!(ne.windows(2).all(|w| w[0].x <= w[1].x && w[0].y > w[1].y));
        ne.reverse();
        assert!(ne.windows(2).all(|w| w[0].y <= w[1].y));
    }

    #[test]
    fn matches_brute_on_random_instances() {
        for seed in 0..30u64 {
            let pts = random_points(2 + (seed as usize * 7) % 60, seed);
            let fast = largest_corner_rectangle(&pts);
            let brute = largest_corner_rectangle_brute(&pts);
            assert!(
                (fast.area - brute.area).abs() < 1e-6,
                "seed {seed}: {} vs {}",
                fast.area,
                brute.area
            );
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let pts = random_points(500, 99);
        let a = largest_corner_rectangle(&pts);
        let b = par_largest_corner_rectangle(&pts);
        assert!((a.area - b.area).abs() < 1e-9);
    }

    #[test]
    fn collinear_points_give_zero_area() {
        let pts: Vec<Point> = (0..10).map(|i| Point::new(i as f64, 5.0)).collect();
        let r = largest_corner_rectangle(&pts);
        assert_eq!(r.area, 0.0);
    }

    #[test]
    fn two_points() {
        let pts = vec![Point::new(0.0, 0.0), Point::new(3.0, 4.0)];
        let r = largest_corner_rectangle(&pts);
        assert!((r.area - 12.0).abs() < 1e-12);
    }

    #[test]
    fn pram_engine_matches_and_is_logarithmic() {
        use monge_parallel::MinPrimitive;
        for seed in 0..10u64 {
            let pts = random_points(2 + (seed as usize * 13) % 100, seed + 500);
            let want = largest_corner_rectangle(&pts);
            let (got, _) = pram_largest_corner_rectangle(&pts, MinPrimitive::Constant);
            assert!((got.area - want.area).abs() < 1e-6, "seed {seed}");
        }
        // Step growth: quadrupling n adds O(1) levels of lg.
        let s_small = pram_largest_corner_rectangle(&random_points(256, 9), MinPrimitive::Constant)
            .1
            .steps;
        let s_big = pram_largest_corner_rectangle(&random_points(4096, 9), MinPrimitive::Constant)
            .1
            .steps;
        assert!(s_big <= s_small + 40, "{s_small} -> {s_big}");
    }

    #[test]
    fn se_orientation_detected() {
        // Best pair is NW/SE oriented.
        let pts = vec![
            Point::new(0.0, 10.0),
            Point::new(10.0, 0.0),
            Point::new(5.0, 5.2),
            Point::new(5.2, 5.0),
        ];
        let r = largest_corner_rectangle(&pts);
        assert!((r.area - 100.0).abs() < 1e-12);
    }
}
