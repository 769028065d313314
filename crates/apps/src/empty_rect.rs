//! §1.3 application 1: the largest-area empty rectangle — given a
//! bounding rectangle containing `n` points, find the largest-area
//! axis-parallel rectangle inside it containing no point in its interior.
//!
//! ## Structure
//!
//! Divide & conquer on the points' median `x` (the \[AS87\] skeleton):
//! rectangles entirely left or right of the median line recurse;
//! rectangles *crossing* it are enumerated by their horizontal **window**
//! `(b, t)`: for each window, the widest crossing rectangle has its left
//! edge on the rightmost left-half point inside the window (or the left
//! wall) and its right edge on the leftmost right-half point (or right
//! wall) — every window yields an empty rectangle, and every maximal
//! crossing rectangle arises from a window bounded by points or walls.
//!
//! The crossing case is expressed as a **`Plain` row-maxima problem**
//! over the lazy window-area array (`rows` = window bottoms, `cols` =
//! window tops, `-∞` below the diagonal) and dispatched: the batched
//! `fill_row` runs the incremental left/right-support sweep once per
//! bottom, and the rayon backend fans the bottoms out over cores (work
//! `O(n²)` total for the algorithm, against the `O(n³)`
//! strip-enumeration brute force). \[AS87\] and this paper instead
//! search the crossing case with staircase-Monge row minima, reaching
//! `O(n lg² n)` work — that decomposition is one of the few pieces of
//! the paper's pipeline whose details the extended abstract leaves to
//! the cited full papers, and our probe experiments confirm the
//! *undecomposed* window array is not totally monotone, so we keep the
//! quadratic scan but dispatch it honestly as `Structure::Plain` and
//! record the deviation in DESIGN.md §3.

use crate::geometry::{Point, Rect};
use monge_core::array2d::Array2d;
use monge_core::guard::SolveError;
use monge_core::problem::Problem;
use monge_core::scratch::with_scratch;
use monge_parallel::tuning::Tuning;
use monge_parallel::{runtime, Dispatcher};

/// Brute-force oracle, `O(n³)`: enumerate all (left, right) support
/// pairs, then the vertical gaps inside each strip.
pub fn largest_empty_rectangle_brute(points: &[Point], bbox: Rect) -> Rect {
    let mut xs: Vec<f64> = vec![bbox.x0, bbox.x1];
    xs.extend(points.iter().map(|p| p.x));
    xs.sort_by(f64::total_cmp);
    xs.dedup();
    let mut best = Rect::new(bbox.x0, bbox.y0, bbox.x0, bbox.y0);
    let mut best_area = -1.0f64;
    for (a, &xl) in xs.iter().enumerate() {
        for &xr in xs.iter().skip(a + 1) {
            // Points strictly inside the strip.
            let mut ys: Vec<f64> = vec![bbox.y0, bbox.y1];
            ys.extend(points.iter().filter(|p| p.x > xl && p.x < xr).map(|p| p.y));
            ys.sort_by(f64::total_cmp);
            for w in ys.windows(2) {
                let area = (xr - xl) * (w[1] - w[0]);
                if area > best_area {
                    best_area = area;
                    best = Rect::new(xl, w[0], xr, w[1]);
                }
            }
        }
    }
    best
}

/// Largest empty rectangle by median divide & conquer with a
/// window-scanned crossing case; `O(n²)` work, parallel over windows.
pub fn largest_empty_rectangle(points: &[Point], bbox: Rect) -> Rect {
    let mut sorted: Vec<Point> = points.to_vec();
    sorted.sort_by(|a, b| a.x.total_cmp(&b.x));
    let d = Dispatcher::with_default_backends();
    rec(&d, &sorted, bbox, None)
}

/// Parallel variant (rayon): recursion sides and window scans run
/// concurrently, with environment-seeded grain sizes.
pub fn par_largest_empty_rectangle(points: &[Point], bbox: Rect) -> Rect {
    par_largest_empty_rectangle_with(points, bbox, Tuning::from_env())
}

/// [`par_largest_empty_rectangle`] with explicit tuning:
/// [`Tuning::seq_rows`] bounds both the point count a recursion side
/// handles without forking and the window count a crossing case scans
/// without fanning out (each bottom's scan is one row's worth of work,
/// so the row grain transfers directly).
pub fn par_largest_empty_rectangle_with(points: &[Point], bbox: Rect, t: Tuning) -> Rect {
    let mut sorted: Vec<Point> = points.to_vec();
    sorted.sort_by(|a, b| a.x.total_cmp(&b.x));
    let d = Dispatcher::with_default_backends();
    rec(&d, &sorted, bbox, Some(t))
}

/// Validation shared by the `try_` entry points: the box must be finite
/// and well-ordered, and every point must be finite and inside it.
fn check_instance(points: &[Point], bbox: Rect) -> Result<(), SolveError> {
    let corners = [bbox.x0, bbox.y0, bbox.x1, bbox.y1];
    if corners.iter().any(|v| !v.is_finite()) {
        return Err(SolveError::InvalidInput {
            reason: "bounding box has a non-finite coordinate".into(),
        });
    }
    if bbox.x0 > bbox.x1 || bbox.y0 > bbox.y1 {
        return Err(SolveError::InvalidInput {
            reason: "bounding box is inverted (x0 > x1 or y0 > y1)".into(),
        });
    }
    for (k, p) in points.iter().enumerate() {
        if !(p.x.is_finite() && p.y.is_finite()) {
            return Err(SolveError::InvalidInput {
                reason: format!("point {k} has a non-finite coordinate"),
            });
        }
        if p.x < bbox.x0 || p.x > bbox.x1 || p.y < bbox.y0 || p.y > bbox.y1 {
            return Err(SolveError::InvalidInput {
                reason: format!("point {k} lies outside the bounding box"),
            });
        }
    }
    Ok(())
}

/// [`largest_empty_rectangle`] behind input validation: returns
/// [`SolveError::InvalidInput`] for non-finite coordinates, an inverted
/// box, or points outside it, instead of panicking or silently producing
/// a nonsense rectangle.
pub fn try_largest_empty_rectangle(points: &[Point], bbox: Rect) -> Result<Rect, SolveError> {
    check_instance(points, bbox)?;
    Ok(largest_empty_rectangle(points, bbox))
}

/// [`par_largest_empty_rectangle`] behind the same input validation as
/// [`try_largest_empty_rectangle`].
pub fn try_par_largest_empty_rectangle(points: &[Point], bbox: Rect) -> Result<Rect, SolveError> {
    check_instance(points, bbox)?;
    Ok(par_largest_empty_rectangle(points, bbox))
}

fn better(a: Rect, b: Rect) -> Rect {
    if b.area() > a.area() {
        b
    } else {
        a
    }
}

fn rec(disp: &Dispatcher<f64>, points: &[Point], bbox: Rect, parallel: Option<Tuning>) -> Rect {
    let n = points.len();
    if n == 0 {
        return bbox;
    }
    if n == 1 {
        let p = points[0];
        let cands = [
            Rect::new(bbox.x0, bbox.y0, p.x, bbox.y1),
            Rect::new(p.x, bbox.y0, bbox.x1, bbox.y1),
            Rect::new(bbox.x0, bbox.y0, bbox.x1, p.y),
            Rect::new(bbox.x0, p.y, bbox.x1, bbox.y1),
        ];
        return cands.into_iter().fold(cands[0], better);
    }
    let x_med = points[n / 2].x;
    let left: Vec<Point> = points.iter().copied().filter(|p| p.x < x_med).collect();
    let right: Vec<Point> = points.iter().copied().filter(|p| p.x > x_med).collect();
    let cross = crossing(disp, points, x_med, bbox, parallel);
    let lbox = Rect::new(bbox.x0, bbox.y0, x_med, bbox.y1);
    let rbox = Rect::new(x_med, bbox.y0, bbox.x1, bbox.y1);
    // Guard against non-shrinking recursions when many points share the
    // median x (they block crossing but belong to neither side).
    let fork = parallel
        .map(|t| left.len() + right.len() > t.seq_rows.max(1))
        .unwrap_or(false);
    let (lb, rb) = if fork {
        runtime::join(
            || rec(disp, &left, lbox, parallel),
            || rec(disp, &right, rbox, parallel),
        )
    } else {
        (
            rec(disp, &left, lbox, parallel),
            rec(disp, &right, rbox, parallel),
        )
    };
    better(better(lb, rb), cross)
}

/// The crossing case's window-area array: row `bi` = window bottom
/// `ys[bi]`, column `ti` = window top `ys[ti]`, entry = area of the
/// widest empty crossing rectangle for that window (`-∞` for `ti ≤ bi`).
/// Not totally monotone (see the module docs), so it dispatches as
/// [`monge_core::problem::Structure::Plain`]. The batched `fill_row`
/// runs one incremental support sweep per bottom, preserving the
/// `O(k + n)` per-row cost of the hand-written scan.
struct WindowArray<'a> {
    ys: &'a [f64],
    /// Points sorted by `y`.
    by_y: &'a [Point],
    x_med: f64,
    bbox: Rect,
}

impl WindowArray<'_> {
    /// Left/right supports of the open window `(b, t)`.
    fn supports(&self, b: f64, t: f64) -> (f64, f64) {
        let mut l = self.bbox.x0;
        let mut r = self.bbox.x1;
        for p in self.by_y {
            if p.y <= b {
                continue;
            }
            if p.y >= t {
                break;
            }
            if p.x < self.x_med {
                l = l.max(p.x);
            } else {
                r = r.min(p.x);
            }
        }
        (l, r)
    }
}

impl Array2d<f64> for WindowArray<'_> {
    fn rows(&self) -> usize {
        self.ys.len() - 1
    }

    fn cols(&self) -> usize {
        self.ys.len()
    }

    fn entry(&self, bi: usize, ti: usize) -> f64 {
        if ti <= bi {
            return f64::NEG_INFINITY;
        }
        let (b, t) = (self.ys[bi], self.ys[ti]);
        let (l, r) = self.supports(b, t);
        (r - l).max(0.0) * (t - b)
    }

    // `prefers_streaming` stays `false`: like `DistProduct`, each
    // `fill_row` runs a row-granular incremental sweep, so chunked
    // streaming would repeat the sweep per chunk.
    fn fill_row(&self, bi: usize, cols: std::ops::Range<usize>, out: &mut [f64]) {
        // One incremental sweep computes the whole row; the requested
        // slice is copied out.
        let b = self.ys[bi];
        with_scratch(|row: &mut Vec<f64>| {
            row.clear();
            row.resize(self.ys.len(), f64::NEG_INFINITY);
            let mut l = self.bbox.x0;
            let mut r = self.bbox.x1;
            let mut pi = self.by_y.partition_point(|p| p.y <= b);
            for (ti, slot) in row.iter_mut().enumerate().skip(bi + 1) {
                let t = self.ys[ti];
                // Absorb points with b < y < t.
                while pi < self.by_y.len() && self.by_y[pi].y < t {
                    let p = self.by_y[pi];
                    if p.x < self.x_med {
                        l = l.max(p.x);
                    } else {
                        r = r.min(p.x);
                    }
                    pi += 1;
                }
                *slot = (r - l).max(0.0) * (t - b);
            }
            for (slot, ti) in out.iter_mut().zip(cols) {
                *slot = row[ti];
            }
        });
    }
}

/// Best rectangle crossing the vertical line `x = x_med`: a dispatched
/// `Plain` row-maxima solve over [`WindowArray`], then one support
/// rescan to rebuild the winning rectangle's geometry.
fn crossing(
    disp: &Dispatcher<f64>,
    points: &[Point],
    x_med: f64,
    bbox: Rect,
    parallel: Option<Tuning>,
) -> Rect {
    // Window candidates: walls plus point ordinates, sorted.
    let mut ys: Vec<f64> = vec![bbox.y0, bbox.y1];
    ys.extend(points.iter().map(|p| p.y));
    ys.sort_by(f64::total_cmp);
    ys.dedup();
    let degenerate = Rect::new(x_med, bbox.y0, x_med, bbox.y0);
    if ys.len() < 2 {
        return degenerate;
    }
    // Points sorted by y for the incremental sweeps.
    let mut by_y: Vec<Point> = points.to_vec();
    by_y.sort_by(|a, b| a.y.total_cmp(&b.y));

    let wa = WindowArray {
        ys: &ys,
        by_y: &by_y,
        x_med,
        bbox,
    };
    let problem = Problem::plain_row_maxima(&wa);
    let (sol, _) = match parallel {
        Some(t) => disp.solve_with(&problem, t),
        None => disp
            .solve_on("sequential", &problem, Tuning::DEFAULT)
            .expect("sequential backend handles plain rows"),
    };
    let ex = sol.into_rows();
    let mut best = None;
    for (bi, (&ti, &area)) in ex.index.iter().zip(&ex.value).enumerate() {
        if best.is_none_or(|(_, _, a)| area > a) {
            best = Some((bi, ti, area));
        }
    }
    match best {
        Some((bi, ti, _)) => {
            let (b, t) = (ys[bi], ys[ti]);
            let (l, r) = wa.supports(b, t);
            Rect::new(l.min(r), b, r.max(l), t)
        }
        None => degenerate,
    }
}

/// Is `r` empty (no point strictly inside)? Test helper.
pub fn is_empty_rect(points: &[Point], r: Rect) -> bool {
    points.iter().all(|&p| !r.strictly_contains(p))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn bbox() -> Rect {
        Rect::new(0.0, 0.0, 100.0, 100.0)
    }

    fn random_points(n: usize, seed: u64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new(rng.random_range(0.0..100.0), rng.random_range(0.0..100.0)))
            .collect()
    }

    #[test]
    fn no_points_returns_whole_box() {
        let r = largest_empty_rectangle(&[], bbox());
        assert_eq!(r.area(), 100.0 * 100.0);
    }

    #[test]
    fn single_point_best_side() {
        let pts = vec![Point::new(30.0, 50.0)];
        let r = largest_empty_rectangle(&pts, bbox());
        assert!((r.area() - 70.0 * 100.0).abs() < 1e-9);
        assert!(is_empty_rect(&pts, r));
    }

    #[test]
    fn matches_brute_on_random_instances() {
        for seed in 0..25u64 {
            let n = 1 + (seed as usize * 3) % 30;
            let pts = random_points(n, seed);
            let fast = largest_empty_rectangle(&pts, bbox());
            let brute = largest_empty_rectangle_brute(&pts, bbox());
            assert!(is_empty_rect(&pts, fast), "seed {seed}: not empty");
            assert!(
                (fast.area() - brute.area()).abs() < 1e-6,
                "seed {seed}: {} vs {}",
                fast.area(),
                brute.area()
            );
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let pts = random_points(300, 42);
        let a = largest_empty_rectangle(&pts, bbox());
        let b = par_largest_empty_rectangle(&pts, bbox());
        assert!((a.area() - b.area()).abs() < 1e-9);
    }

    #[test]
    fn grid_points() {
        // Regular 3x3 grid: the best empty rectangle is a full-height or
        // full-width band between adjacent grid lines... verify against
        // brute instead of guessing.
        let mut pts = Vec::new();
        for i in 1..=3 {
            for j in 1..=3 {
                pts.push(Point::new(i as f64 * 25.0, j as f64 * 25.0));
            }
        }
        let fast = largest_empty_rectangle(&pts, bbox());
        let brute = largest_empty_rectangle_brute(&pts, bbox());
        assert!((fast.area() - brute.area()).abs() < 1e-9);
    }

    #[test]
    fn duplicate_x_coordinates() {
        let pts = vec![
            Point::new(50.0, 10.0),
            Point::new(50.0, 60.0),
            Point::new(50.0, 90.0),
            Point::new(20.0, 50.0),
        ];
        let fast = largest_empty_rectangle(&pts, bbox());
        let brute = largest_empty_rectangle_brute(&pts, bbox());
        assert!((fast.area() - brute.area()).abs() < 1e-9);
        assert!(is_empty_rect(&pts, fast));
    }
}
