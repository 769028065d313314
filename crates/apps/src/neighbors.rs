//! §1.3 application 3: nearest / farthest, visible / invisible neighbors
//! between two non-intersecting convex polygons.
//!
//! For each vertex `p` of `P`, find the vertex of `Q` nearest to (or
//! farthest from) `p` among those visible (or invisible) from `p`, where
//! visibility means the open segment meets neither polygon's interior.
//!
//! ## Structure
//!
//! For disjoint convex polygons, a vertex `q` of `Q` is *blocked* in
//! exactly two ways, both `O(1)`-testable:
//!
//! * **by `Q` itself** — `q` lies beyond the tangent chain: `p` is inside
//!   both half-planes of `q`'s adjacent edges;
//! * **by `P`** — the direction `p → q` enters `P`'s interior wedge at
//!   `p`: `q` is inside both half-planes of `p`'s adjacent edges.
//!
//! The invisible set of each `p` is a contiguous *arc* of `Q` (verified
//! by the structural tests), whose endpoints rotate monotonically with
//! `p` — the geometry behind the paper's staircase-Monge formulation.
//! The engine here evaluates the `O(1)` predicates over all pairs
//! (`O(mn)` work, parallel over `P`'s vertices), against an
//! `O(mn(m+n))` segment-clipping oracle; the paper's staircase-Monge
//! search inside the arcs is exercised by Table 1.2's engines (see
//! DESIGN.md §3 for this recorded substitution).

use crate::geometry::{cross, visible, ConvexPolygon};
use monge_core::array2d::FnArray;
use monge_core::eval::CachedArray;
use monge_core::problem::Problem;
use monge_parallel::tuning::Tuning;
use monge_parallel::{runtime, Dispatcher};

/// Which neighbor is sought.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Goal {
    /// Nearest visible vertex.
    NearestVisible,
    /// Nearest invisible vertex.
    NearestInvisible,
    /// Farthest visible vertex.
    FarthestVisible,
    /// Farthest invisible vertex.
    FarthestInvisible,
}

/// `O(1)` visibility predicate for vertices of two disjoint convex ccw
/// polygons (see module docs). `i` indexes `P`, `j` indexes `Q`.
pub fn visible_fast(p: &ConvexPolygon, i: usize, q: &ConvexPolygon, j: usize) -> bool {
    let m = p.vertices.len();
    let n = q.vertices.len();
    let pv = p.vertices[i];
    let qv = q.vertices[j];
    // Blocked by P: q strictly inside both adjacent-edge half-planes at p.
    let p_prev = p.vertices[(i + m - 1) % m];
    let p_next = p.vertices[(i + 1) % m];
    let blocked_by_p = cross(p_prev, pv, qv) > 1e-9 && cross(pv, p_next, qv) > 1e-9;
    // Blocked by Q: p strictly inside both adjacent-edge half-planes at q.
    let q_prev = q.vertices[(j + n - 1) % n];
    let q_next = q.vertices[(j + 1) % n];
    let blocked_by_q = cross(q_prev, qv, pv) > 1e-9 && cross(qv, q_next, pv) > 1e-9;
    !blocked_by_p && !blocked_by_q
}

/// The goal-seeking engine over exact `O(1)` predicates, parallel over
/// `P`'s vertices. Returns, per vertex of `P`, the best `Q` index (or
/// `None` when the sought class is empty).
pub fn neighbors(p: &ConvexPolygon, q: &ConvexPolygon, goal: Goal) -> Vec<Option<usize>> {
    solve(p, q, goal, Some(Tuning::from_env()))
}

/// [`neighbors`] with explicit tuning: rows are dealt to rayon tasks in
/// blocks of [`Tuning::seq_rows`] so a small polygon doesn't pay one
/// spawn per vertex.
pub fn neighbors_with(
    p: &ConvexPolygon,
    q: &ConvexPolygon,
    goal: Goal,
    t: Tuning,
) -> Vec<Option<usize>> {
    solve(p, q, goal, Some(t))
}

/// Sequential variant of [`neighbors`].
pub fn neighbors_seq(p: &ConvexPolygon, q: &ConvexPolygon, goal: Goal) -> Vec<Option<usize>> {
    solve(p, q, goal, None)
}

fn solve(
    p: &ConvexPolygon,
    q: &ConvexPolygon,
    goal: Goal,
    parallel: Option<Tuning>,
) -> Vec<Option<usize>> {
    let m = p.vertices.len();
    let n = q.vertices.len();
    let want_visible = matches!(goal, Goal::NearestVisible | Goal::FarthestVisible);
    let want_min = matches!(goal, Goal::NearestVisible | Goal::NearestInvisible);
    // The masked distance array: pairs outside the sought class carry
    // the absorbing element of the objective. Not totally monotone (the
    // mask cuts arcs out of the inverse-Monge distance array), so it
    // dispatches honestly as a `Plain` rows problem; an infinite row
    // optimum means the class is empty for that vertex.
    let masked = FnArray::new(m, n, |i: usize, j: usize| {
        if visible_fast(p, i, q, j) == want_visible {
            p.vertices[i].dist(q.vertices[j])
        } else if want_min {
            f64::INFINITY
        } else {
            f64::NEG_INFINITY
        }
    });
    let problem = if want_min {
        Problem::plain_row_minima(&masked)
    } else {
        Problem::plain_row_maxima(&masked)
    };
    let d = Dispatcher::with_default_backends();
    let (sol, _) = match parallel {
        Some(t) => d.solve_with(&problem, t),
        None => d
            .solve_on("sequential", &problem, Tuning::DEFAULT)
            .expect("sequential backend handles plain rows"),
    };
    let ex = sol.into_rows();
    ex.index
        .iter()
        .zip(&ex.value)
        .map(|(&j, &v)| v.is_finite().then_some(j))
        .collect()
}

/// All four goals at once over one *shared, memoized* distance array.
///
/// Answering the goals separately evaluates every `p`–`q` distance four
/// times; here a [`CachedArray`] over the implicit distance array
/// materializes each row once and the four goal scans (and any later
/// consumer holding the same wrapper) reuse it. Results are indexed by
/// [`Goal`] declaration order: `[NearestVisible, NearestInvisible,
/// FarthestVisible, FarthestInvisible]`.
pub fn neighbors_all_goals(p: &ConvexPolygon, q: &ConvexPolygon) -> [Vec<Option<usize>>; 4] {
    let m = p.vertices.len();
    let n = q.vertices.len();
    let dist = FnArray::new(m, n, |i: usize, j: usize| p.vertices[i].dist(q.vertices[j]));
    let cached = CachedArray::new(dist);
    let per_row: Vec<[Option<usize>; 4]> = runtime::par_map((0..m).collect(), |i| {
        let row = cached.row_cached(i);
        let vis: Vec<bool> = (0..n).map(|j| visible_fast(p, i, q, j)).collect();
        let mut best = [None::<(f64, usize)>; 4];
        for (g, slot) in best.iter_mut().enumerate() {
            let want_visible = g % 2 == 0; // NearestVisible, FarthestVisible
            let want_min = g < 2; // NearestVisible, NearestInvisible
            for (j, &d) in row.iter().enumerate() {
                if vis[j] != want_visible {
                    continue;
                }
                let better = match *slot {
                    None => true,
                    Some((bd, _)) => {
                        if want_min {
                            d < bd
                        } else {
                            d > bd
                        }
                    }
                };
                if better {
                    *slot = Some((d, j));
                }
            }
        }
        best.map(|b| b.map(|(_, j)| j))
    });
    let mut out = [vec![], vec![], vec![], vec![]];
    for row in per_row {
        for (g, j) in row.into_iter().enumerate() {
            out[g].push(j);
        }
    }
    out
}

/// Segment-clipping oracle (`O(mn(m+n))`): the ground truth the fast
/// predicates are validated against.
pub fn neighbors_brute(p: &ConvexPolygon, q: &ConvexPolygon, goal: Goal) -> Vec<Option<usize>> {
    let want_visible = matches!(goal, Goal::NearestVisible | Goal::FarthestVisible);
    let want_min = matches!(goal, Goal::NearestVisible | Goal::NearestInvisible);
    p.vertices
        .iter()
        .map(|&pv| {
            let mut best: Option<(f64, usize)> = None;
            for (j, &qv) in q.vertices.iter().enumerate() {
                if visible(p, pv, q, qv) != want_visible {
                    continue;
                }
                let d = pv.dist(qv);
                let better = match best {
                    None => true,
                    Some((bd, _)) => {
                        if want_min {
                            d < bd
                        } else {
                            d > bd
                        }
                    }
                };
                if better {
                    best = Some((d, j));
                }
            }
            best.map(|(_, j)| j)
        })
        .collect()
}

/// The invisible arc of each `P`-vertex: `Some((start, len))` in `Q`'s
/// cyclic order, `None` when everything is visible. Exposed for the
/// structural tests (the paper's staircase-Monge formulation rests on
/// these arcs and their monotone rotation).
pub fn invisible_arcs(p: &ConvexPolygon, q: &ConvexPolygon) -> Vec<Option<(usize, usize)>> {
    let n = q.vertices.len();
    (0..p.vertices.len())
        .map(|i| {
            let inv: Vec<bool> = (0..n).map(|j| !visible_fast(p, i, q, j)).collect();
            let cnt = inv.iter().filter(|&&b| b).count();
            if cnt == 0 {
                return None;
            }
            if cnt == n {
                return Some((0, n));
            }
            let s = (0..n).find(|&j| inv[j] && !inv[(j + n - 1) % n])?;
            Some((s, cnt))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn instance(m: usize, n: usize, seed: u64) -> (ConvexPolygon, ConvexPolygon) {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = ConvexPolygon::random(m, 0.0, 0.0, 10.0, &mut rng);
        let q = ConvexPolygon::random(n, 35.0, 3.0, 10.0, &mut rng);
        (p, q)
    }

    #[test]
    fn fast_predicate_matches_oracle() {
        for seed in 0..20u64 {
            let (p, q) = instance(8, 9, seed);
            for i in 0..8 {
                for j in 0..9 {
                    assert_eq!(
                        visible_fast(&p, i, &q, j),
                        visible(&p, p.vertices[i], &q, q.vertices[j]),
                        "seed {seed} pair ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn all_goals_match_brute() {
        for seed in 0..12u64 {
            let (p, q) = instance(10, 12, seed);
            for goal in [
                Goal::NearestVisible,
                Goal::NearestInvisible,
                Goal::FarthestVisible,
                Goal::FarthestInvisible,
            ] {
                let fast = neighbors(&p, &q, goal);
                let brute = neighbors_brute(&p, &q, goal);
                // Compare by distance (exact ties are measure-zero).
                for i in 0..10 {
                    match (fast[i], brute[i]) {
                        (None, None) => {}
                        (Some(a), Some(b)) => {
                            let da = p.vertices[i].dist(q.vertices[a]);
                            let db = p.vertices[i].dist(q.vertices[b]);
                            assert!((da - db).abs() < 1e-9, "seed {seed} {goal:?} row {i}");
                        }
                        other => panic!("seed {seed} {goal:?} row {i}: {other:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn all_goals_shared_cache_matches_per_goal_scans() {
        for seed in [3u64, 11, 29] {
            let (p, q) = instance(13, 17, seed);
            let all = neighbors_all_goals(&p, &q);
            for (g, goal) in [
                Goal::NearestVisible,
                Goal::NearestInvisible,
                Goal::FarthestVisible,
                Goal::FarthestInvisible,
            ]
            .into_iter()
            .enumerate()
            {
                assert_eq!(all[g], neighbors(&p, &q, goal), "seed {seed} {goal:?}");
            }
        }
    }

    #[test]
    fn shared_cache_evaluates_each_distance_once() {
        use monge_core::array2d::FnArray;
        use monge_core::{CachedArray, CountingArray};
        let (p, q) = instance(11, 14, 5);
        let counted = CountingArray::new(FnArray::new(11, 14, |i: usize, j: usize| {
            p.vertices[i].dist(q.vertices[j])
        }));
        let cached = CachedArray::new(&counted);
        // Four full passes (one per goal) over every row…
        for _ in 0..4 {
            for i in 0..11 {
                let _ = cached.row_cached(i);
            }
        }
        // …but each distance was computed exactly once.
        assert_eq!(counted.evaluations(), 11 * 14);
        assert_eq!(cached.materialized_rows(), 11);
    }

    #[test]
    fn invisible_sets_are_arcs() {
        for seed in 0..25u64 {
            let (p, q) = instance(9, 11, seed);
            let arcs = invisible_arcs(&p, &q);
            for (i, arc) in arcs.iter().enumerate() {
                let inv: Vec<bool> = (0..11).map(|j| !visible_fast(&p, i, &q, j)).collect();
                match arc {
                    None => assert!(inv.iter().all(|&b| !b)),
                    Some((s, len)) => {
                        for d in 0..*len {
                            assert!(inv[(s + d) % 11], "seed {seed} row {i}: not an arc");
                        }
                        assert_eq!(inv.iter().filter(|&&b| b).count(), *len);
                    }
                }
            }
        }
    }

    #[test]
    fn parallel_and_sequential_agree() {
        let (p, q) = instance(40, 50, 7);
        for goal in [Goal::NearestVisible, Goal::FarthestInvisible] {
            assert_eq!(neighbors(&p, &q, goal), neighbors_seq(&p, &q, goal));
        }
    }

    #[test]
    fn far_side_is_invisible_near_side_visible() {
        // Two squares side by side, vertically offset so no segment is
        // collinear with an edge: facing corners visible, the far-top
        // corner blocked by Q itself.
        use crate::geometry::Point;
        let p = ConvexPolygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(0.0, 1.0),
        ]);
        let q = ConvexPolygon::new(vec![
            Point::new(5.0, 0.5),
            Point::new(6.0, 0.5),
            Point::new(6.0, 1.5),
            Point::new(5.0, 1.5),
        ]);
        // From p vertex (1,0): q's near-left corners are visible.
        assert!(visible_fast(&p, 1, &q, 0));
        assert!(visible_fast(&p, 1, &q, 3));
        // The far-top corner (6,1.5) is blocked by Q's own body.
        assert!(!visible_fast(&p, 1, &q, 2));
        // From below, the bottom-right corner (6,0.5) is reachable under
        // the polygon.
        assert!(visible_fast(&p, 1, &q, 1));
        // Agreement with the clipping oracle on every pair.
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(
                    visible_fast(&p, i, &q, j),
                    visible(&p, p.vertices[i], &q, q.vertices[j]),
                    "pair ({i},{j})"
                );
            }
        }
    }
}
