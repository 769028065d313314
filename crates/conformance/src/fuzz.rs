//! The deterministic differential fuzzer: every registry-eligible
//! backend against the brute-force oracle, with greedy shrinking of
//! mismatches to minimal reproducers.
//!
//! The loop is corpus-driven and allocation-light: instances come from
//! [`crate::gen::generate`] (pure function of `(kind, seed)`), the
//! oracle is [`BruteForceBackend`] — `O(mn)` leftmost scans with no use
//! of the structural promise — and the diff covers the *entire*
//! solution (argmin vectors *and* gathered values, so tie-break
//! positions and the staircase sentinel both count). A mismatch is
//! shrunk by row/column deletion and value flattening, each candidate
//! transform re-validated against the structural promise (a transform
//! that broke Monge-ness would make disagreement legal) and re-tested,
//! to a local fixpoint.

use monge_core::array2d::{Array2d, Dense};
use monge_core::problem::{ProblemKind, Solution, Telemetry};
use monge_core::value::Value;
use monge_parallel::dispatch::{Backend, Dispatcher};
use monge_parallel::guarded::BRUTE;
use monge_parallel::{BruteForceBackend, SequentialBackend, Tuning};

use crate::gen::{generate, sq, Instance};

/// The fuzzer's registry: every backend the workspace has — host
/// engines, all four PRAM primitives, the hypercube — plus the
/// brute-force oracle itself.
pub fn conformance_dispatcher() -> Dispatcher<i64> {
    let mut d = Dispatcher::with_all_backends();
    d.register(Box::new(BruteForceBackend));
    d
}

/// Fuzz budget: `MONGE_FUZZ_BUDGET` (instances per problem kind), or
/// `default` when unset/unparsable.
pub fn fuzz_budget(default: usize) -> usize {
    std::env::var("MONGE_FUZZ_BUDGET")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&b| b > 0)
        .unwrap_or(default)
}

/// A small-grain tuning that forces the parallel splits even on fuzz-
/// sized instances (otherwise every 12×12 instance takes the sequential
/// grain and the reduce/tie-break paths go untested).
pub const TINY_GRAIN: Tuning = Tuning {
    seq_scan: 2,
    seq_rows: 1,
    tube_seq_planes: 1,
    pram_base_rows: 1,
    kernel: monge_core::kernel::Kernel::Auto,
};

/// One confirmed disagreement with the oracle, already shrunk.
#[derive(Clone, Debug)]
pub struct Mismatch {
    /// Problem kind the instance exercises.
    pub kind: ProblemKind,
    /// The generator seed that produced the original instance.
    pub seed: u64,
    /// The disagreeing backend's registry name.
    pub backend: String,
    /// Generator family of the original instance.
    pub family: &'static str,
    /// The shrunk minimal reproducer.
    pub instance: Instance,
}

/// Aggregate result of one fuzz run over one problem kind.
#[derive(Clone, Debug, Default)]
pub struct FuzzReport {
    /// Instances generated and diffed.
    pub instances: usize,
    /// Individual backend-vs-oracle solves performed.
    pub solves: usize,
    /// Confirmed, shrunk mismatches (empty on a clean run).
    pub mismatches: Vec<Mismatch>,
}

/// The backends of `d` that disagree with the brute oracle on `inst`,
/// by registry name. Empty = conformant.
pub fn disagreeing_backends(d: &Dispatcher<i64>, inst: &Instance, tuning: Tuning) -> Vec<String> {
    let p = inst.problem();
    let Some((want, _)) = d.solve_on(BRUTE, &p, tuning) else {
        // The oracle refuses only structurally impossible IR; the
        // generators never produce it.
        panic!("brute oracle ineligible for {:?}", inst.kind);
    };
    d.eligible(&p)
        .into_iter()
        .filter(|b| b.name() != BRUTE)
        .filter_map(|b| {
            let (got, _) = d.solve_on(b.name(), &p, tuning)?;
            (got != want).then(|| b.name().to_string())
        })
        .collect()
}

/// Does `backend` still disagree with the oracle on `inst`? The
/// shrinker's predicate.
pub fn backend_disagrees(
    d: &Dispatcher<i64>,
    inst: &Instance,
    backend: &str,
    tuning: Tuning,
) -> bool {
    let p = inst.problem();
    let (Some((want, _)), Some((got, _))) = (
        d.solve_on(BRUTE, &p, tuning),
        d.solve_on(backend, &p, tuning),
    ) else {
        // A shrink step that makes the backend ineligible does not
        // preserve the failure.
        return false;
    };
    got != want
}

/// Runs `budget` seeded instances of `kind` through every eligible
/// backend, shrinking each mismatch. Seeds are `base_seed + i`, so a
/// report's `(kind, seed)` pair replays exactly.
pub fn fuzz_kind(
    d: &Dispatcher<i64>,
    kind: ProblemKind,
    budget: usize,
    base_seed: u64,
) -> FuzzReport {
    let mut report = FuzzReport::default();
    for i in 0..budget {
        let seed = base_seed.wrapping_add(i as u64);
        let inst = generate(kind, seed);
        // Alternate grain policies so both the sequential and the
        // parallel split paths of the host engines are diffed.
        let tuning = if i % 2 == 0 {
            Tuning::DEFAULT
        } else {
            TINY_GRAIN
        };
        let p = inst.problem();
        report.instances += 1;
        report.solves += d.eligible(&p).len().saturating_sub(1);
        for backend in disagreeing_backends(d, &inst, tuning) {
            let shrunk = shrink(&inst, |cand| backend_disagrees(d, cand, &backend, tuning));
            report.mismatches.push(Mismatch {
                kind,
                seed,
                backend,
                family: inst.family,
                instance: shrunk,
            });
        }
    }
    report
}

// ---------------------------------------------------------------------
// Shrinking
// ---------------------------------------------------------------------

/// A structural shrink step: returns the smaller candidate, or `None`
/// when the step does not apply to this instance.
type Transform = Box<dyn Fn(&Instance) -> Option<Instance>>;

fn drop_row(a: &Dense<i64>, i: usize) -> Dense<i64> {
    Dense::tabulate(a.rows() - 1, a.cols(), |r, c| {
        a.entry(if r >= i { r + 1 } else { r }, c)
    })
}

fn drop_col(a: &Dense<i64>, j: usize) -> Dense<i64> {
    Dense::tabulate(a.rows(), a.cols() - 1, |r, c| {
        a.entry(r, if c >= j { c + 1 } else { c })
    })
}

/// Deletes row `i` of the primary array (and the per-row metadata that
/// indexes it). `None` when the instance cannot lose the row.
fn delete_row(inst: &Instance, i: usize) -> Option<Instance> {
    if inst.a.rows() <= 1 {
        return None;
    }
    let mut out = inst.clone();
    out.a = drop_row(&inst.a, i);
    if let Some(f) = &mut out.boundary {
        f.remove(i);
    }
    if let Some(lo) = &mut out.lo {
        lo.remove(i);
    }
    if let Some(hi) = &mut out.hi {
        hi.remove(i);
    }
    if let Some((v, _)) = &mut out.rank {
        v.remove(i);
    }
    Some(out)
}

/// Deletes column `j` of the primary array. Staircase boundaries and
/// bands shift down past `j`; for tubes the middle dimension is shared,
/// so row `j` of the right factor goes too.
fn delete_col(inst: &Instance, j: usize) -> Option<Instance> {
    if inst.a.cols() <= 1 {
        return None;
    }
    let mut out = inst.clone();
    out.a = drop_col(&inst.a, j);
    if let Some(f) = &mut out.boundary {
        for fi in f.iter_mut() {
            if *fi > j {
                *fi -= 1;
            }
        }
    }
    if let Some(lo) = &mut out.lo {
        for l in lo.iter_mut() {
            if *l > j {
                *l -= 1;
            }
        }
    }
    if let Some(hi) = &mut out.hi {
        for h in hi.iter_mut() {
            if *h > j {
                *h -= 1;
            }
        }
    }
    if let Some((_, w)) = &mut out.rank {
        w.remove(j);
    }
    if let Some(e) = &mut out.e {
        if e.rows() <= 1 {
            return None;
        }
        *e = drop_row(e, j);
    }
    Some(out)
}

/// Deletes column `k` of the tube's right factor (the `r` dimension).
fn delete_e_col(inst: &Instance, k: usize) -> Option<Instance> {
    let e = inst.e.as_ref()?;
    if e.cols() <= 1 {
        return None;
    }
    let mut out = inst.clone();
    out.e = Some(drop_col(e, k));
    Some(out)
}

/// Halves every finite value (rank instances: halves the generator
/// vectors and re-tabulates, preserving consistency and sortedness).
fn halve_values(inst: &Instance) -> Option<Instance> {
    let mut out = inst.clone();
    if let Some((v, w)) = &mut out.rank {
        if v.iter().chain(w.iter()).all(|&x| x == 0) {
            return None;
        }
        for x in v.iter_mut() {
            *x /= 2;
        }
        for y in w.iter_mut() {
            *y /= 2;
        }
        let (v, w) = (v.clone(), w.clone());
        out.a = Dense::tabulate(out.a.rows(), out.a.cols(), |i, j| sq(v[i], w[j]));
        return Some(out);
    }
    let inf = <i64 as Value>::INFINITY;
    if inst.a.data().iter().all(|&x| x == inf || x == 0)
        && inst
            .e
            .as_ref()
            .is_none_or(|e| e.data().iter().all(|&x| x == inf || x == 0))
    {
        return None;
    }
    fn halve(a: &Dense<i64>) -> Dense<i64> {
        let inf = <i64 as Value>::INFINITY;
        Dense::from_vec(
            a.rows(),
            a.cols(),
            a.data()
                .iter()
                .map(|&x| if x == inf { inf } else { x / 2 })
                .collect(),
        )
    }
    out.a = halve(&inst.a);
    out.e = inst.e.as_ref().map(halve);
    Some(out)
}

/// Flattens one entry onto its left neighbor (plateau-izing the array:
/// smaller reproducers read better and ties are where engines diverge).
fn flatten_entry(inst: &Instance, i: usize, j: usize) -> Option<Instance> {
    if inst.rank.is_some() || j == 0 {
        return None;
    }
    let inf = <i64 as Value>::INFINITY;
    let (left, here) = (inst.a.entry(i, j - 1), inst.a.entry(i, j));
    if left == here || left == inf || here == inf {
        return None;
    }
    let mut out = inst.clone();
    let mut data = inst.a.data().to_vec();
    data[i * inst.a.cols() + j] = left;
    out.a = Dense::from_vec(inst.a.rows(), inst.a.cols(), data);
    Some(out)
}

/// Greedy shrink to a local fixpoint: row deletions, column deletions,
/// tube right-factor deletions, global halving, then per-entry
/// flattening (bounded to small arrays). Every accepted candidate is
/// (a) still structurally valid and (b) still failing.
pub fn shrink(start: &Instance, still_fails: impl Fn(&Instance) -> bool) -> Instance {
    let mut cur = start.clone();
    loop {
        let mut progressed = false;

        let structural: Vec<Transform> = {
            let mut t: Vec<Transform> = Vec::new();
            for i in 0..cur.a.rows() {
                t.push(Box::new(move |x: &Instance| delete_row(x, i)));
            }
            for j in 0..cur.a.cols() {
                t.push(Box::new(move |x: &Instance| delete_col(x, j)));
            }
            if let Some(e) = &cur.e {
                for k in 0..e.cols() {
                    t.push(Box::new(move |x: &Instance| delete_e_col(x, k)));
                }
            }
            t
        };
        for transform in &structural {
            if let Some(cand) = transform(&cur) {
                if cand.valid() && still_fails(&cand) {
                    cur = cand;
                    progressed = true;
                    break;
                }
            }
        }
        if progressed {
            continue;
        }

        if let Some(cand) = halve_values(&cur) {
            if cand.valid() && still_fails(&cand) {
                cur = cand;
                continue;
            }
        }

        if cur.a.rows() * cur.a.cols() <= 100 {
            for i in 0..cur.a.rows() {
                for j in 0..cur.a.cols() {
                    if let Some(cand) = flatten_entry(&cur, i, j) {
                        if cand.valid() && still_fails(&cand) {
                            cur = cand;
                            progressed = true;
                        }
                    }
                }
            }
        }
        if !progressed {
            return cur;
        }
    }
}

// ---------------------------------------------------------------------
// Planted bug (shrinker/negative-control support)
// ---------------------------------------------------------------------

/// A backend with a seeded, deliberate bug: it answers through the
/// sequential engine but corrupts the first row's argmin whenever the
/// instance is at least `threshold × threshold`. The fuzzer must catch
/// it, and the shrinker must walk any catch down to exactly
/// `threshold × threshold` — the planted-bug acceptance test.
pub struct PlantedBugBackend {
    /// The bug fires on instances with `rows ≥ threshold` and
    /// `cols ≥ threshold`.
    pub threshold: usize,
}

impl Backend<i64> for PlantedBugBackend {
    fn name(&self) -> &'static str {
        "planted-bug"
    }

    fn capabilities(&self) -> monge_parallel::Capabilities {
        <SequentialBackend as Backend<i64>>::capabilities(&SequentialBackend)
    }

    fn admits(&self, problem: &monge_core::problem::Problem<'_, i64>) -> bool {
        Backend::<i64>::admits(&SequentialBackend, problem)
    }

    fn solve(
        &self,
        problem: &monge_core::problem::Problem<'_, i64>,
        tuning: &Tuning,
        telemetry: &mut Telemetry,
    ) -> Solution<i64> {
        let sol = SequentialBackend.solve(problem, tuning, telemetry);
        let (m, n) = problem.search_shape();
        if m >= self.threshold && n >= self.threshold {
            if let Solution::Rows(mut ex) = sol {
                ex.index[0] = (ex.index[0] + 1) % n.max(1);
                return Solution::Rows(ex);
            }
        }
        sol
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;

    #[test]
    fn shrink_transforms_preserve_validity_paths() {
        // Deleting rows/cols of valid instances must stay parseable;
        // validity itself is re-checked by shrink, this guards index
        // bookkeeping (boundaries, bands, rank vectors, tube factors).
        for kind in ProblemKind::ALL {
            let inst = generate(kind, 99);
            if inst.a.rows() > 1 {
                let d = delete_row(&inst, 0).unwrap();
                assert_eq!(d.a.rows(), inst.a.rows() - 1);
                assert!(d.valid(), "{kind:?} row deletion broke validity");
            }
            if inst.a.cols() > 1 {
                if let Some(d) = delete_col(&inst, 0) {
                    assert_eq!(d.a.cols(), inst.a.cols() - 1);
                    assert!(d.valid(), "{kind:?} col deletion broke validity");
                }
            }
        }
    }

    #[test]
    fn clean_backends_produce_clean_reports() {
        let d = conformance_dispatcher();
        for kind in ProblemKind::ALL {
            let report = fuzz_kind(&d, kind, 40, 7_000);
            assert!(
                report.mismatches.is_empty(),
                "{kind:?}: {:?}",
                report
                    .mismatches
                    .iter()
                    .map(|m| (&m.backend, m.seed, m.family))
                    .collect::<Vec<_>>()
            );
            assert_eq!(report.instances, 40);
            assert!(report.solves > 0);
        }
    }
}
