//! `edit_distance`: the paper's string-editing application. Each op runs
//! `edit_distance_dist_tree` (four strips, unit costs) on one of four
//! seeded string pairs over a 4-letter alphabet. It bypasses dispatch,
//! batching and the guard, and stresses `string_edit`, the tube
//! divide-and-conquer and the runtime's fork seam.

use std::time::Instant;

use super::{elapsed_ns, timed_span, Mix, Outcome, Runner, Scale, Step};
use crate::sut::{combine_dist, global_counts, one_thread, Dist, StringPair};
use crate::trace::Tracer;

const STRIPS: usize = 4;

/// The string pairs and their Wagner–Fischer distances.
pub struct EditRunner {
    pairs: Vec<StringPair>,
    refs: Vec<i64>,
    counts: Vec<(&'static str, f64)>,
}

impl EditRunner {
    /// Four pairs of length 192 at full scale.
    pub fn new(scale: Scale, seed: u64) -> EditRunner {
        let (pairs, n) = match scale {
            Scale::Full => (4, 192),
            Scale::Smoke => (2, 48),
        };
        let mut mix = Mix::new(seed, 5);
        let pairs: Vec<StringPair> = (0..pairs)
            .map(|_| StringPair::generate(n, 4, mix.next()))
            .collect();
        EditRunner {
            refs: pairs.iter().map(StringPair::dp).collect(),
            pairs,
            counts: Vec::new(),
        }
    }

    fn pair(&self, i: u64) -> usize {
        (i % self.pairs.len() as u64) as usize
    }
}

/// Combines adjacent DIST matrices in a balanced tree, as the op's
/// parallel reduction does, one timed combine at a time.
fn combine_tree(tr: &mut Tracer, i: u64, op: usize, mut dists: Vec<Dist>) -> Dist {
    if dists.len() == 1 {
        return dists.pop().expect("one matrix");
    }
    let right = dists.split_off(dists.len() / 2);
    let a = combine_tree(tr, i, op, dists);
    let b = combine_tree(tr, i, op, right);
    timed_span(tr, "string_edit.combine", i, op, || {
        one_thread(|| combine_dist(&a, &b))
    })
    .0
}

impl Runner for EditRunner {
    fn gate(&mut self) -> Result<(), String> {
        let mut totals = [0u64; 3];
        for (p, pair) in self.pairs.iter().enumerate() {
            let g0 = global_counts();
            let d = pair.dist_tree(STRIPS);
            let g1 = global_counts();
            if d != self.refs[p] {
                return Err(format!("gate: pair {p} distance {d} != {}", self.refs[p]));
            }
            for (t, (a, b)) in totals.iter_mut().zip(g0.iter().zip(&g1)) {
                *t += b - a;
            }
        }
        let per_op = |t: u64| t as f64 / self.pairs.len() as f64;
        self.counts = vec![
            ("engine.comparisons_per_op", per_op(totals[0])),
            ("runtime.tasks_per_op", per_op(totals[1])),
            ("scratch.checkouts_per_op", per_op(totals[2])),
        ];
        Ok(())
    }

    fn step(&mut self, i: u64) -> Step {
        let p = self.pair(i);
        let start = Instant::now();
        let d = self.pairs[p].dist_tree(STRIPS);
        let nanos = elapsed_ns(start);
        let outcome = if d == self.refs[p] {
            Outcome::Ok
        } else {
            Outcome::Wrong(format!("pair {p} distance {d} != {}", self.refs[p]))
        };
        Step::new(start, nanos, outcome)
    }

    fn op_span(&self) -> &'static str {
        "string_edit.dist_tree"
    }

    /// Re-runs the op's strips and combines one at a time on one thread,
    /// combining in the same balanced tree the op uses.
    fn peel(&mut self, i: u64, tr: &mut Tracer, op: usize) -> Result<(), String> {
        let pair = &self.pairs[self.pair(i)];
        let dists: Vec<Dist> = pair
            .strip_ranges(STRIPS)
            .into_iter()
            .map(|(lo, hi)| {
                timed_span(tr, "string_edit.strip_dist", i, op, || {
                    one_thread(|| pair.strip_dist(lo, hi))
                })
                .0
            })
            .collect();
        let d = pair.distance(&combine_tree(tr, i, op, dists));
        let want = self.refs[self.pair(i)];
        if d != want {
            return Err(format!("peel: combined distance {d} != {want}"));
        }
        Ok(())
    }

    fn counts(&self) -> Vec<(&'static str, f64)> {
        self.counts.clone()
    }

    fn measurements(&self) -> u64 {
        0
    }

    fn winners(&self) -> Vec<String> {
        Vec::new()
    }

    #[cfg(test)]
    fn corrupt_reference(&mut self) {
        for r in &mut self.refs {
            *r += 1;
        }
    }
}
