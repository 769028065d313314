//! Regression suite for the guarded layer's validate-once contract.
//!
//! `Dispatcher::solve_guarded*` validates the structural promise
//! exactly once per request, *before* walking the fallback chain —
//! a panicking first backend must not buy a second validation pass.
//! These tests pin that down two ways: by counting every entry read
//! through a counting array (deterministic), and by checking the
//! recorded `validation_nanos` stays a one-shot cost as the fallback
//! depth grows (the batch admission path reuses the same validator, so
//! this contract is what makes batched validation bookkeeping honest).

use std::sync::atomic::{AtomicU64, Ordering};

use monge_core::array2d::{Array2d, Dense};
use monge_core::generators::{random_monge_dense, random_staircase_boundary};
use monge_core::guard::GuardPolicy;
use monge_core::problem::{Problem, ProblemKind, Solution, Telemetry};
use monge_parallel::{Backend, BatchPolicy, Capabilities, Dispatcher, Tuning};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Counts every `entry` read (validation and solving alike).
struct CountingArray {
    inner: Dense<i64>,
    reads: AtomicU64,
}

impl CountingArray {
    fn new(inner: Dense<i64>) -> Self {
        CountingArray {
            inner,
            reads: AtomicU64::new(0),
        }
    }

    fn reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }
}

impl Array2d<i64> for CountingArray {
    fn rows(&self) -> usize {
        self.inner.rows()
    }
    fn cols(&self) -> usize {
        self.inner.cols()
    }
    fn entry(&self, i: usize, j: usize) -> i64 {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.inner.entry(i, j)
    }
}

/// A chain link that reads nothing and always dies: any entry reads a
/// request makes beyond the zero-depth baseline would have to come
/// from re-validation.
struct AlwaysPanics(&'static str);

impl Backend<i64> for AlwaysPanics {
    fn name(&self) -> &'static str {
        self.0
    }
    fn capabilities(&self) -> Capabilities {
        Capabilities::of(&[ProblemKind::RowMinima])
    }
    fn solve(
        &self,
        _problem: &Problem<'_, i64>,
        _tuning: &Tuning,
        _telemetry: &mut Telemetry,
    ) -> Solution<i64> {
        panic!("injected: {} always dies", self.0);
    }
}

/// Entry reads and outcome of one guarded solve starting at `first`,
/// on a registry where the `"rayon"` chain link also always panics —
/// so `first = "flaky-a"` walks two dead links before the sequential
/// engine answers (fallback depth 2), while `first = "sequential"`
/// answers immediately (depth 0) with the *same* engine.
fn guarded_reads(first: &str, depth: usize) -> (u64, Solution<i64>, Telemetry) {
    let mut rng = StdRng::seed_from_u64(0x0A0B);
    let a = CountingArray::new(random_monge_dense(24, 24, &mut rng));
    let mut d: Dispatcher<i64> = Dispatcher::new();
    d.register(Box::new(AlwaysPanics("flaky-a")));
    d.register(Box::new(AlwaysPanics("rayon")));
    d.register(Box::new(monge_parallel::SequentialBackend));
    let policy = GuardPolicy::full_validation().with_max_fallback_depth(4);
    let p = Problem::row_minima(&a);
    let (sol, tel) = d
        .solve_guarded_on(first, &p, &policy, Tuning::DEFAULT)
        .expect("chain bottoms out at a working backend");
    let path = tel.guard.as_ref().expect("guard outcome").fallback_path();
    assert_eq!(path.len(), depth + 1, "unexpected chain {path:?}");
    assert_eq!(*path.last().unwrap(), "sequential");
    (a.reads(), sol, tel)
}

#[test]
fn validation_runs_once_regardless_of_fallback_depth() {
    // Depth 0: straight to the sequential engine.
    let (reads0, sol0, tel0) = guarded_reads("sequential", 0);
    // Depth 2: two panicking links first, then the same engine. The
    // panicking links read zero entries, so any extra reads would be a
    // second validation pass.
    let (reads2, sol2, tel2) = guarded_reads("flaky-a", 2);
    assert_eq!(sol0, sol2, "fallback must preserve the answer");
    assert_eq!(
        reads0, reads2,
        "entry reads grew with fallback depth: validation re-ran on the chain"
    );
    let v0 = tel0.guard.as_ref().unwrap().validation_nanos;
    let v2 = tel2.guard.as_ref().unwrap().validation_nanos;
    assert!(v0 > 0 && v2 > 0, "full validation must be timed");
    // The timed cost is one validation pass in both runs. Wall-clock is
    // noisy, so only a gross blow-up (a second full pass would at least
    // double it; we allow 5x for scheduler noise) trips this.
    assert!(
        v2 < v0.saturating_mul(5).max(1_000_000),
        "validation_nanos grew with fallback depth: {v0} -> {v2}"
    );
}

#[test]
fn batch_admission_validates_once_per_request() {
    let mut rng = StdRng::seed_from_u64(0x0C0D);
    let a = CountingArray::new(random_monge_dense(24, 24, &mut rng));
    let d = Dispatcher::with_default_backends();
    let policy = BatchPolicy::default()
        .with_guard(GuardPolicy::full_validation())
        .with_tuning(Tuning::from_env());

    // One problem through the batch path...
    let problems = [Problem::row_minima(&a)];
    let before = a.reads();
    let results = d.solve_batch(&problems, policy);
    assert!(results[0].is_ok());
    let batch_reads = a.reads() - before;

    // ...must read no more entries than the one-at-a-time path (same
    // validation pass, same sequential engine, no calibration probes).
    let before = a.reads();
    let p = Problem::row_minima(&a);
    d.solve_guarded_with(&p, &GuardPolicy::full_validation(), Tuning::from_env())
        .expect("loop solve");
    let loop_reads = a.reads() - before;
    assert_eq!(
        batch_reads, loop_reads,
        "the batch admission pass reads more entries than a guarded solve"
    );
}

#[test]
fn two_thread_batch_reads_each_member_like_the_loop() {
    // On a two-thread pool, every member of a mixed batch must read
    // exactly the entries its one-at-a-time guarded solve reads: one
    // validation pass and one solve on the same backend, never a solve
    // cut into pieces.
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(2)
        .build()
        .expect("two-thread pool");
    pool.install(|| {
        let mut rng = StdRng::seed_from_u64(0x0E0F);
        let rows: Vec<CountingArray> = [24, 96, 200]
            .iter()
            .map(|&m| CountingArray::new(random_monge_dense(m, m, &mut rng)))
            .collect();
        let stair = CountingArray::new(random_monge_dense(48, 48, &mut rng));
        let boundary = random_staircase_boundary(48, 48, &mut rng);
        let d_factor = CountingArray::new(random_monge_dense(16, 24, &mut rng));
        let e_factor = CountingArray::new(random_monge_dense(24, 20, &mut rng));
        let problems = [
            Problem::row_minima(&rows[0]),
            Problem::row_minima(&rows[1]),
            Problem::row_minima(&rows[2]),
            Problem::staircase_row_minima(&stair, &boundary),
            Problem::tube_minima(&d_factor, &e_factor),
        ];
        let counters: [Vec<&CountingArray>; 5] = [
            vec![&rows[0]],
            vec![&rows[1]],
            vec![&rows[2]],
            vec![&stair],
            vec![&d_factor, &e_factor],
        ];
        let reads = |k: usize| -> Vec<u64> { counters[k].iter().map(|a| a.reads()).collect() };
        let since = |k: usize, before: &[u64]| -> Vec<u64> {
            reads(k)
                .iter()
                .zip(before)
                .map(|(now, b)| now - b)
                .collect()
        };

        let d = Dispatcher::with_default_backends();
        let policy = BatchPolicy::default()
            .with_guard(GuardPolicy::full_validation())
            .with_tuning(Tuning::from_env());
        let before: Vec<Vec<u64>> = (0..problems.len()).map(reads).collect();
        let report = d.solve_batch_report(&problems, &policy);
        let batch_reads: Vec<Vec<u64>> =
            (0..problems.len()).map(|k| since(k, &before[k])).collect();

        for (k, p) in problems.iter().enumerate() {
            let before = reads(k);
            let (want, _) = d
                .solve_guarded_with(p, &GuardPolicy::full_validation(), Tuning::from_env())
                .expect("loop solve");
            let loop_reads = since(k, &before);
            assert_eq!(
                report.results[k].as_ref().expect("batch solve"),
                &want,
                "member {k} ({:?}) answers differently in the batch",
                p.kind()
            );
            assert_eq!(
                batch_reads[k],
                loop_reads,
                "member {k} ({:?}) reads more entries in the batch than alone",
                p.kind()
            );
        }
    });
}
