//! Every call the benchmark makes into the system under test.
//!
//! The rest of the benchmark sees only the types defined here: owned
//! inputs ([`Instance`], [`IndexArray`], [`StringPair`]), plain answers
//! ([`Answer`], [`RectAnswer`]) and the per-solve counters a layer
//! reports ([`Counts`]). A change to an entry point of the solver stack
//! therefore needs an edit to this file only.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use monge_apps::string_edit::{self, CostModel};
use monge_core::array2d::{Array2d, Dense};
use monge_core::generators::{random_monge_dense, random_staircase_boundary, ImplicitMonge};
use monge_core::guard::{GuardPolicy, SolveError};
use monge_core::problem::{Problem, Solution, Telemetry, TuningProvenance};
use monge_core::queryindex::{QueryAnswer, QueryIndex};
use monge_core::{eval, kernel, scratch, smawk, staircase, tube, Structure};
use monge_parallel::autotune::{host_fingerprint as fingerprint, AutotuneKey, AutotuneMode};
use monge_parallel::{runtime, Autotuner, BatchPolicy, Dispatcher, SolverService, Tuning};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Is the AVX2 lane-kernel leg compiled into this build?
pub fn simd_compiled() -> bool {
    kernel::simd_compiled()
}

/// The autotuner's host identity string.
pub fn host_fingerprint() -> String {
    fingerprint()
}

/// Worker threads the parallel runtime assumes.
pub fn nproc() -> usize {
    rayon::current_num_threads()
}

/// Process-global `(comparisons, tasks, arena checkouts)` tallies; the
/// load generator is one thread, so deltas around an op are that op's.
pub fn global_counts() -> [u64; 3] {
    [
        eval::comparison_count(),
        runtime::task_count(),
        scratch::checkout_count(),
    ]
}

/// The problem families the benchmark generates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Row minima of a dense Monge array.
    RowMin,
    /// Row maxima of a dense Monge array.
    RowMax,
    /// Row minima of a dense Monge array under a staircase boundary.
    Staircase,
    /// Tube minima of two dense Monge factors.
    Tube,
    /// Row minima of a generator-backed implicit Monge array.
    ImplicitRowMin,
}

impl Kind {
    /// Span names of a solve of this kind: the backend call as the
    /// dispatcher timed it, and the direct sequential core call.
    pub fn spans(self) -> (&'static str, &'static str) {
        match self {
            Kind::RowMin | Kind::RowMax => ("backend.dense_rows", "core.dense_rows"),
            Kind::ImplicitRowMin => ("backend.implicit_rows", "core.implicit_rows"),
            Kind::Staircase => ("backend.staircase", "core.staircase"),
            Kind::Tube => ("backend.tube", "core.tube"),
        }
    }
}

enum Arrays {
    Dense(Dense<i64>),
    Staircase(Dense<i64>, Vec<usize>),
    Tube(Dense<i64>, Dense<i64>),
    Implicit(ImplicitMonge),
}

/// One owned searching problem of side `n`.
pub struct Instance {
    kind: Kind,
    arrays: Arrays,
}

impl Instance {
    /// A certified random instance; the same `(kind, n, seed)` always
    /// gives the same entries.
    pub fn generate(kind: Kind, n: usize, seed: u64) -> Instance {
        let mut rng = StdRng::seed_from_u64(seed);
        let arrays = match kind {
            Kind::RowMin | Kind::RowMax => Arrays::Dense(random_monge_dense(n, n, &mut rng)),
            Kind::Staircase => {
                let a = random_monge_dense(n, n, &mut rng);
                let f = random_staircase_boundary(n, n, &mut rng);
                Arrays::Staircase(a, f)
            }
            Kind::Tube => Arrays::Tube(
                random_monge_dense(n, n, &mut rng),
                random_monge_dense(n, n, &mut rng),
            ),
            Kind::ImplicitRowMin => Arrays::Implicit(ImplicitMonge::random(n, n, 3, &mut rng)),
        };
        Instance { kind, arrays }
    }

    /// The problem family.
    pub fn kind(&self) -> Kind {
        self.kind
    }

    fn problem(&self) -> Problem<'_, i64> {
        match (&self.arrays, self.kind) {
            (Arrays::Dense(a), Kind::RowMax) => Problem::row_maxima(a),
            (Arrays::Dense(a), _) => Problem::row_minima(a),
            (Arrays::Staircase(a, f), _) => Problem::staircase_row_minima(a, f),
            (Arrays::Tube(d, e), _) => Problem::tube_minima(d, e),
            (Arrays::Implicit(a), _) => Problem::row_minima(a),
        }
    }

    /// The answer of the sequential core algorithm, called directly: the
    /// correctness reference and the bottom layer of every solve peel.
    pub fn core_solve(&self) -> Answer {
        match &self.arrays {
            Arrays::Dense(a) if self.kind == Kind::RowMax => rows(smawk::row_maxima_monge(a)),
            Arrays::Dense(a) => rows(smawk::row_minima_monge(a)),
            Arrays::Staircase(a, f) => {
                let index = staircase::staircase_row_minima(a, f);
                rows(smawk::RowExtrema::from_staircase_indices(a, f, index))
            }
            Arrays::Tube(d, e) => {
                let t = tube::tube_minima(d, e);
                Answer {
                    index: t.index,
                    value: t.value,
                }
            }
            Arrays::Implicit(a) => rows(smawk::row_minima_monge(a)),
        }
    }
}

fn rows(r: smawk::RowExtrema<i64>) -> Answer {
    Answer {
        index: r.index,
        value: r.value,
    }
}

/// A solve's answer: optimum positions and values, row-major for tubes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Answer {
    /// Optimal column (middle coordinate for tubes) per row (tube cell).
    pub index: Vec<usize>,
    /// Optimal value per row (tube cell).
    pub value: Vec<i64>,
}

/// A solution as the system returned it, compared against an [`Answer`]
/// only after the timed interval has closed.
pub struct Solved(Solution<i64>);

impl Solved {
    /// Does the solution equal the reference?
    pub fn matches(&self, want: &Answer) -> bool {
        match &self.0 {
            Solution::Rows(r) => r.index == want.index && r.value == want.value,
            Solution::Tube(t) => t.index == want.index && t.value == want.value,
            Solution::Banded { .. } => false,
        }
    }
}

/// What one dispatched solve reports about itself.
#[derive(Clone, Debug, Default)]
pub struct Counts {
    /// Backend that produced the answer.
    pub backend: &'static str,
    /// Array entries evaluated.
    pub evaluations: u64,
    /// Value comparisons.
    pub comparisons: u64,
    /// Forked runtime tasks.
    pub tasks: u64,
    /// Scratch-arena checkouts.
    pub checkouts: u64,
    /// Transient-fault retries.
    pub retries: u64,
    /// Fallback links skipped by an open circuit breaker.
    pub breaker_skips: u64,
    /// Did the guarded walk fall back, retry or quarantine?
    pub degraded: bool,
    /// Was the tuning served from the autotune table?
    pub cached: bool,
    /// Nanoseconds the dispatcher measured around the backend call.
    pub backend_nanos: u64,
}

impl Counts {
    fn of(t: &Telemetry) -> Counts {
        let degraded = t
            .guard
            .as_ref()
            .is_some_and(|g| g.quarantined || g.attempts.len() > 1);
        Counts {
            backend: t.backend,
            evaluations: t.evaluations,
            comparisons: t.comparisons,
            tasks: t.tasks,
            checkouts: t.arena_checkouts,
            retries: t.retries,
            breaker_skips: t.breaker_skips,
            degraded,
            cached: t.provenance == Some(TuningProvenance::Cached),
            backend_nanos: u64::try_from(t.total_nanos).unwrap_or(u64::MAX),
        }
    }
}

fn error(e: &SolveError) -> String {
    format!("{e:?}")
}

/// An in-memory autotuner: runs never read or write the user's cache.
fn tuner() -> Arc<Autotuner> {
    Arc::new(Autotuner::in_memory(AutotuneMode::On))
}

fn winners(tuner: &Autotuner) -> Vec<String> {
    let mut out: Vec<String> = tuner
        .entries()
        .into_iter()
        .map(|(k, w)| {
            format!(
                "{:?}/s{}/c{} -> {} seq_scan={} seq_rows={} tube_seq_planes={} kernel={:?}",
                k.kind,
                k.structure,
                k.size_class,
                w.backend,
                w.tuning.seq_scan,
                w.tuning.seq_rows,
                w.tuning.tube_seq_planes,
                w.tuning.kernel
            )
        })
        .collect();
    out.sort();
    out
}

/// The guarded one-at-a-time solve path over the default registry.
pub struct Solver {
    dispatcher: Dispatcher<i64>,
    tuner: Arc<Autotuner>,
    policy: GuardPolicy,
}

impl Solver {
    /// Default backends, default [`GuardPolicy`], in-memory autotuner.
    pub fn new() -> Solver {
        let tuner = tuner();
        Solver {
            dispatcher: Dispatcher::with_default_backends().with_autotuner(Arc::clone(&tuner)),
            tuner,
            policy: GuardPolicy::default(),
        }
    }

    /// `Dispatcher::solve_guarded`; a typed error is returned as text.
    pub fn solve_guarded(&self, inst: &Instance) -> Result<(Solved, Counts), String> {
        self.dispatcher
            .solve_guarded(&inst.problem(), &self.policy)
            .map(|(s, t)| (Solved(s), Counts::of(&t)))
            .map_err(|e| error(&e))
    }

    /// `Dispatcher::solve_on` the named backend with environment tuning.
    pub fn solve_on(&self, backend: &str, inst: &Instance) -> Option<(Solved, Counts)> {
        self.dispatcher
            .solve_on(backend, &inst.problem(), Tuning::from_env())
            .map(|(s, t)| (Solved(s), Counts::of(&t)))
    }

    /// Autotune measurements this solver's table has claimed.
    pub fn measurements(&self) -> u64 {
        self.tuner.measurements()
    }

    /// The autotune winner table, one sorted line per key.
    pub fn winners(&self) -> Vec<String> {
        winners(&self.tuner)
    }
}

/// Group-level accounting of one `solve_batch_report` call.
pub struct BatchRun {
    /// Per-member answers, in input order.
    pub results: Vec<Result<Solved, String>>,
    /// Per-member counters, in input order.
    pub counts: Vec<Counts>,
    /// `(kind, structure, size-class)` groups formed.
    pub groups: usize,
    /// Groups shed onto the guarded fallback chain.
    pub shed_groups: usize,
}

/// The batched front door: `SolverService` with the default
/// `BatchPolicy` over the default registry and an in-memory autotuner.
pub struct Service<'a> {
    svc: SolverService<'a, i64>,
    tuner: Arc<Autotuner>,
    policy: BatchPolicy,
}

impl<'a> Service<'a> {
    /// A fresh service with an empty autotune table.
    pub fn new() -> Service<'a> {
        let tuner = tuner();
        let policy = BatchPolicy::default();
        let dispatcher = Dispatcher::with_default_backends().with_autotuner(Arc::clone(&tuner));
        Service {
            svc: SolverService::with_dispatcher(dispatcher, policy),
            tuner,
            policy,
        }
    }

    /// `SolverService::submit`; a refusal is returned as text.
    pub fn submit(&mut self, tenant: &str, inst: &'a Instance) -> Result<(), String> {
        self.svc
            .submit(tenant, inst.problem())
            .map(|_| ())
            .map_err(|e| e.to_string())
    }

    /// `SolverService::drain`: every pending problem as one batch.
    pub fn drain(&mut self) -> Vec<Result<Solved, String>> {
        self.svc
            .drain()
            .into_iter()
            .map(|r| r.map(Solved).map_err(|e| error(&e)))
            .collect()
    }

    /// `Dispatcher::solve_batch_report` on the service's own dispatcher
    /// and policy: the layer below `drain`.
    pub fn solve_batch_report(&mut self, insts: &[&Instance]) -> BatchRun {
        let problems: Vec<Problem<'_, i64>> = insts.iter().map(|i| i.problem()).collect();
        let report = self
            .svc
            .dispatcher_mut()
            .solve_batch_report(&problems, &self.policy);
        BatchRun {
            counts: report.telemetry.iter().map(Counts::of).collect(),
            results: report
                .results
                .into_iter()
                .map(|r| r.map(Solved).map_err(|e| error(&e)))
                .collect(),
            groups: report.groups,
            shed_groups: report.shed_groups,
        }
    }

    /// `Dispatcher::solve_on("sequential")`: the engine each fused batch
    /// strip runs, on a whole member.
    pub fn solve_sequential(&mut self, inst: &Instance) -> Option<(Solved, Counts)> {
        self.svc
            .dispatcher_mut()
            .solve_on("sequential", &inst.problem(), Tuning::from_env())
            .map(|(s, t)| (Solved(s), Counts::of(&t)))
    }

    /// Times `Autotuner::lookup` once per distinct autotune key among
    /// `insts`, returning `(hit, nanos)` per key.
    pub fn time_lookups(&self, insts: &[&Instance]) -> Vec<(bool, u64)> {
        let mut keys: Vec<AutotuneKey> = Vec::new();
        for inst in insts {
            let key = AutotuneKey::of(&inst.problem());
            if !keys.contains(&key) {
                keys.push(key);
            }
        }
        keys.iter()
            .map(|k| {
                let t0 = Instant::now();
                let hit = black_box(self.tuner.lookup(k)).is_some();
                (hit, elapsed_ns(t0))
            })
            .collect()
    }

    /// Autotune measurements this service's table has claimed.
    pub fn measurements(&self) -> u64 {
        self.tuner.measurements()
    }

    /// The autotune winner table, one sorted line per key.
    pub fn winners(&self) -> Vec<String> {
        winners(&self.tuner)
    }
}

fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A dense Monge array to index.
pub struct IndexArray(Dense<i64>);

impl IndexArray {
    /// A certified random `n × n` Monge array.
    pub fn generate(n: usize, seed: u64) -> IndexArray {
        IndexArray(random_monge_dense(n, n, &mut StdRng::seed_from_u64(seed)))
    }

    /// Rectangle optimum by scanning every entry, with the index's tie
    /// rule (smallest row, then smallest column).
    pub fn brute(&self, rect: Rect, max: bool) -> RectAnswer {
        let n = self.0.cols();
        let data = self.0.data();
        let mut best: Option<RectAnswer> = None;
        for r in rect.rows.0..rect.rows.1 {
            for c in rect.cols.0..rect.cols.1 {
                let v = data[r * n + c];
                let better = best.is_none_or(|b| if max { v > b.value } else { v < b.value });
                if better {
                    best = Some(RectAnswer {
                        value: v,
                        row: r,
                        col: c,
                    });
                }
            }
        }
        best.expect("rectangles are non-empty")
    }
}

/// A query rectangle, half-open on both axes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Rect {
    /// `(first row, one past the last row)`.
    pub rows: (usize, usize),
    /// `(first column, one past the last column)`.
    pub cols: (usize, usize),
}

/// A rectangle query's answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RectAnswer {
    /// The optimum.
    pub value: i64,
    /// Its row.
    pub row: usize,
    /// Its column.
    pub col: usize,
}

/// A handle on a built submatrix query index.
pub struct Index(Arc<QueryIndex<i64>>);

impl Index {
    /// `QueryIndex::query_max` when `max`, else `query_min`.
    pub fn query(&self, rect: Rect, max: bool) -> Result<RectAnswer, String> {
        let (rows, cols) = (rect.rows.0..rect.rows.1, rect.cols.0..rect.cols.1);
        let got = if max {
            self.0.query_max(rows, cols)
        } else {
            self.0.query_min(rows, cols)
        };
        got.map(|a: QueryAnswer<i64>| RectAnswer {
            value: a.value,
            row: a.row,
            col: a.col,
        })
        .map_err(|e| error(&e))
    }

    /// `QueryIndex::bytes`.
    pub fn bytes(&self) -> u64 {
        self.0.bytes()
    }

    /// `QueryIndex::breakpoints`.
    pub fn breakpoints(&self) -> u64 {
        self.0.breakpoints()
    }

    /// `(queries answered, predecessor probes)` since the build.
    pub fn usage(&self) -> (u64, u64) {
        (self.0.queries_answered(), self.0.predecessor_probes())
    }
}

/// `QueryIndex::build` called directly, below the service and guard
/// layers.
pub fn core_build_index(a: &IndexArray) -> Result<Index, String> {
    QueryIndex::build(&a.0, Structure::Monge)
        .map(|ix| Index(Arc::new(ix)))
        .map_err(|e| error(&e))
}

/// The index-serving front door: `SolverService::build_index` and
/// `drop_index` for one tenant.
pub struct IndexService {
    svc: SolverService<'static, i64>,
    tuner: Arc<Autotuner>,
}

impl IndexService {
    /// A fresh service with an in-memory autotuner.
    pub fn new() -> IndexService {
        let tuner = tuner();
        let dispatcher = Dispatcher::with_default_backends().with_autotuner(Arc::clone(&tuner));
        IndexService {
            svc: SolverService::with_dispatcher(dispatcher, BatchPolicy::default()),
            tuner,
        }
    }

    /// Autotune measurements this service's table has claimed.
    pub fn measurements(&self) -> u64 {
        self.tuner.measurements()
    }

    /// `SolverService::build_index` over a row-minima problem on `a`.
    pub fn build(&mut self, name: &str, a: &IndexArray) -> Result<Index, String> {
        self.svc
            .build_index("bench", name, &Problem::row_minima(&a.0))
            .map(Index)
            .map_err(|e| error(&e))
    }

    /// `SolverService::drop_index`.
    pub fn drop_index(&mut self, name: &str) -> bool {
        self.svc.drop_index("bench", name)
    }
}

/// Two strings to edit, over a `sigma`-letter alphabet.
pub struct StringPair {
    x: Vec<u8>,
    y: Vec<u8>,
}

impl StringPair {
    /// Seeded random strings of length `n`.
    pub fn generate(n: usize, sigma: u8, seed: u64) -> StringPair {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut draw =
            || -> Vec<u8> { (0..n).map(|_| b'a' + rng.random_range(0..sigma)).collect() };
        let x = draw();
        let y = draw();
        StringPair { x, y }
    }

    /// `edit_distance_dist_tree` under unit costs: strip DIST matrices,
    /// then a reduction tree of `(min,+)` tube-minima combines.
    pub fn dist_tree(&self, strips: usize) -> i64 {
        string_edit::edit_distance_dist_tree(&self.x, &self.y, &CostModel::unit(), strips)
    }

    /// `edit_distance_dp`, the Wagner–Fischer reference.
    pub fn dp(&self) -> i64 {
        string_edit::edit_distance_dp(&self.x, &self.y, &CostModel::unit())
    }

    /// The `strips` horizontal pieces of `x`, as `dist_tree` cuts them.
    pub fn strip_ranges(&self, strips: usize) -> Vec<(usize, usize)> {
        let strips = strips.clamp(1, self.x.len().max(1));
        let chunk = self.x.len().div_ceil(strips).max(1);
        (0..self.x.len())
            .step_by(chunk)
            .map(|s| (s, (s + chunk).min(self.x.len())))
            .collect()
    }

    /// `strip_dist` of `x[lo..hi]` against `y`.
    pub fn strip_dist(&self, lo: usize, hi: usize) -> Dist {
        Dist(string_edit::strip_dist(
            &self.x[lo..hi],
            &self.y,
            &CostModel::unit(),
        ))
    }

    /// The edit distance read off a whole-string DIST matrix.
    pub fn distance(&self, d: &Dist) -> i64 {
        d.0.entry(0, self.y.len())
    }
}

/// A strip's boundary-to-boundary DIST matrix.
pub struct Dist(Dense<i64>);

/// `combine_dist`: the banded `(min,+)` product of two DIST matrices.
pub fn combine_dist(a: &Dist, b: &Dist) -> Dist {
    Dist(string_edit::combine_dist(&a.0, &b.0))
}

/// Runs `f` with the parallel runtime pinned to one thread.
pub fn one_thread<R: Send>(f: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("the runtime's pool builder never fails")
        .install(f)
}

/// Nanoseconds per entry of `eval::argmin_slice` over `len` values,
/// timed over `reps` scans.
pub fn argmin_ns_per_entry(len: usize, reps: usize, seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let vals: Vec<i64> = (0..len).map(|_| rng.random_range(0..1_000_000)).collect();
    let t0 = Instant::now();
    for _ in 0..reps {
        black_box(eval::argmin_slice(black_box(&vals[..])));
    }
    elapsed_ns(t0) as f64 / (len * reps) as f64
}

/// Nanoseconds per entry of `ImplicitMonge::fill_row` over `cols`
/// columns, timed over `reps` rows.
pub fn fill_row_ns_per_entry(cols: usize, reps: usize, seed: u64) -> f64 {
    let a = ImplicitMonge::random(reps, cols, 3, &mut StdRng::seed_from_u64(seed));
    let mut out = vec![0i64; cols];
    let t0 = Instant::now();
    for i in 0..reps {
        a.fill_row(i, 0..cols, &mut out);
        black_box(&out);
    }
    elapsed_ns(t0) as f64 / (cols * reps) as f64
}

/// Microseconds of one `rayon::join` of two empty closures.
pub fn join_us(reps: usize) -> f64 {
    let t0 = Instant::now();
    for _ in 0..reps {
        black_box(rayon::join(|| black_box(0u8), || black_box(1u8)));
    }
    elapsed_ns(t0) as f64 / reps as f64 / 1e3
}

/// Nanoseconds of one `Tuning::from_env` resolution.
pub fn tuning_from_env_ns(reps: usize) -> f64 {
    let t0 = Instant::now();
    for _ in 0..reps {
        black_box(Tuning::from_env());
    }
    elapsed_ns(t0) as f64 / reps as f64
}
