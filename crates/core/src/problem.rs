//! The solver-dispatch intermediate representation: one [`Problem`]
//! value describing *what* to search, one [`Solution`] shape for every
//! engine's answer, and one [`Telemetry`] record making each solve
//! observable.
//!
//! The paper states a small family of searching problems — row minima /
//! maxima of (inverse-)Monge arrays, row minima of staircase-Monge
//! arrays, tube minima / maxima of Monge-composite arrays — and then
//! solves each on several machines (sequential SMAWK, CRCW/CREW PRAM,
//! hypercube-like networks). This module is the code-level mirror of
//! that separation: a `Problem` names the *search*, the `Backend` trait
//! in `monge-parallel` names the *machine*, and the dispatcher in
//! between picks an engine by capability and size. Applications build
//! `Problem` values and never name concrete engine functions.
//!
//! The §1.2 dualities ("reversing the order of an array's columns
//! and/or negating its entries allows us to move back and forth"
//! between minima and maxima) live here too, in [`lower_rows`] — one
//! implementation that every backend shares, instead of each engine
//! hand-rolling its own reverse/negate/mirror plumbing.

use crate::array2d::{Array2d, Dense, Negate, ReverseCols};
use crate::eval::add_evaluations;
use crate::smawk::RowExtrema;
use crate::tiebreak::Tie;
use crate::tube::TubeExtrema;
use crate::value::Value;
use std::ops::Range;

/// What is being optimized along each row (or tube).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Objective {
    /// Per-row (per-tube) minima.
    Minimize,
    /// Per-row (per-tube) maxima.
    Maximize,
}

/// The structural promise the caller makes about the array — the
/// license a backend relies on to search fewer than `m·n` entries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Structure {
    /// `a[i,j] + a[k,l] ≤ a[i,l] + a[k,j]` for `i<k`, `j<l` (eq. 1.1).
    Monge,
    /// The reversed inequality (eq. 1.2).
    InverseMonge,
    /// No structure at all: backends must scan whole rows. This is the
    /// honest route for applications whose arrays are *not* totally
    /// monotone (the empty-rectangle crossing windows, the masked
    /// polygon-neighbor arrays) but still want dispatched, instrumented,
    /// batched row scans.
    Plain,
}

/// Discriminant of a [`Problem`] — what the capability flags and the
/// conformance suite enumerate over.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProblemKind {
    /// Per-row minima of a two-dimensional array.
    RowMinima,
    /// Per-row maxima of a two-dimensional array.
    RowMaxima,
    /// Per-row minima of a staircase array's finite prefixes.
    StaircaseRowMinima,
    /// Per-row minima restricted to per-row candidate bands.
    BandedRowMinima,
    /// Per-row maxima restricted to per-row candidate bands.
    BandedRowMaxima,
    /// Tube minima of the Monge-composite `c[i,j,k] = d[i,j] + e[j,k]`.
    TubeMinima,
    /// Tube maxima of the same composite.
    TubeMaxima,
}

impl ProblemKind {
    /// Every problem kind, in a fixed order (used by the telemetry
    /// audit and the conformance suite to enumerate coverage).
    pub const ALL: [ProblemKind; 7] = [
        ProblemKind::RowMinima,
        ProblemKind::RowMaxima,
        ProblemKind::StaircaseRowMinima,
        ProblemKind::BandedRowMinima,
        ProblemKind::BandedRowMaxima,
        ProblemKind::TubeMinima,
        ProblemKind::TubeMaxima,
    ];
}

/// A minimal read-only view of a three-dimensional array, provided so
/// the tube problems have an explicit 3-D surface to point at.
/// [`crate::tube::MongeComposite`] implements it; the engines
/// themselves always work from the two Monge *factors* (the composite's
/// planes are Monge — Lemma behind Thm 3.4 — and storing `p·q·r`
/// entries would defeat the point).
pub trait Array3d<T: Value> {
    /// First-coordinate extent `p`.
    fn dim_p(&self) -> usize;
    /// Middle-coordinate extent `q` (the one searched over).
    fn dim_q(&self) -> usize;
    /// Third-coordinate extent `r`.
    fn dim_r(&self) -> usize;
    /// The entry `c[i, j, k]`.
    fn entry3(&self, i: usize, j: usize, k: usize) -> T;
}

/// The rank structure `a[i,j] = g(v[i], w[j])` some backends require.
///
/// The hypercube engines do not read arbitrary arrays: the paper's §3
/// algorithms distribute the *generator vectors* `v` and `w` across the
/// network and evaluate `g` locally at each node. A problem carrying
/// this structure (see [`Problem::with_rank`]) is eligible for those
/// backends; one without it is not — that asymmetry is exactly what the
/// dispatcher's capability flags encode.
#[derive(Clone, Copy)]
pub struct RankStructure<'a, T> {
    /// Row generator vector (`v[i]` for row `i`).
    pub v: &'a [T],
    /// Column generator vector (`w[j]` for column `j`).
    pub w: &'a [T],
    /// The combining function `g`.
    pub g: &'a (dyn Fn(T, T) -> T + Sync),
}

impl<T> std::fmt::Debug for RankStructure<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RankStructure")
            .field("v_len", &self.v.len())
            .field("w_len", &self.w.len())
            .finish()
    }
}

/// A searching problem, described by reference: the IR every backend
/// consumes and every application produces.
///
/// Arrays are borrowed as `&dyn Array2d<T>` — anything lazy or dense
/// coerces in place, matching the paper's "entries computed in `O(1)`
/// on demand" model, and the §1.2 reductions wrap the trait object in
/// stack-allocated adapters without copying.
#[derive(Clone, Copy)]
pub enum Problem<'a, T: Value> {
    /// Row minima or maxima of a (possibly structured) 2-D array.
    Rows {
        /// The array to search.
        array: &'a dyn Array2d<T>,
        /// The structural promise (drives which engines may skip entries).
        structure: Structure,
        /// Minimize or maximize.
        objective: Objective,
        /// Tie-break rule among equal optima (default [`Tie::Left`]).
        tie: Tie,
        /// Optional `g(v[i], w[j])` generator form (hypercube eligibility).
        rank: Option<RankStructure<'a, T>>,
    },
    /// Row minima over the finite prefixes of a staircase array.
    ///
    /// `boundary[i]` is the paper's `f_i`: row `i` is finite exactly on
    /// columns `0..boundary[i]`, and the boundary is non-increasing.
    /// Entries at or beyond the boundary are never read (they may be
    /// `∞` or garbage). `structure` describes the finite region:
    /// [`Structure::Monge`] is the paper's staircase-Monge class;
    /// [`Structure::InverseMonge`] is the staircase-inverse-Monge
    /// variant only the sequential engine handles.
    Staircase {
        /// The array to search (finite on each row's prefix).
        array: &'a dyn Array2d<T>,
        /// Per-row finite-prefix lengths `f_i` (non-increasing).
        boundary: &'a [usize],
        /// Monge or inverse-Monge promise on the finite region.
        structure: Structure,
        /// Optional generator form (hypercube eligibility).
        rank: Option<RankStructure<'a, T>>,
    },
    /// Row extrema restricted to per-row candidate bands
    /// `lo[i] ≤ j < hi[i]` (empty bands allowed → `None` for that row).
    ///
    /// The monotonicity the divide & conquer needs: for `Minimize` the
    /// bands must be non-decreasing in both endpoints; for `Maximize`
    /// non-increasing (the two-corner-rectangle shape).
    Banded {
        /// The array to search (entries outside the bands are never read).
        array: &'a dyn Array2d<T>,
        /// Per-row band starts.
        lo: &'a [usize],
        /// Per-row band ends (exclusive).
        hi: &'a [usize],
        /// Minimize or maximize.
        objective: Objective,
    },
    /// Tube extrema of the Monge-composite `c[i,j,k] = d[i,j] + e[j,k]`:
    /// for every `(i, k)`, the optimal middle coordinate `j`.
    Tube {
        /// Left Monge factor `d` (`p × q`).
        d: &'a dyn Array2d<T>,
        /// Right Monge factor `e` (`q × r`).
        e: &'a dyn Array2d<T>,
        /// Minimize or maximize.
        objective: Objective,
    },
}

impl<T: Value> std::fmt::Debug for Problem<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (m, n) = self.search_shape();
        write!(f, "Problem::{:?}({m}×{n})", self.kind())
    }
}

impl<'a, T: Value> Problem<'a, T> {
    /// Leftmost row minima of a Monge array.
    pub fn row_minima(array: &'a dyn Array2d<T>) -> Self {
        Self::rows(array, Structure::Monge, Objective::Minimize)
    }

    /// Leftmost row maxima of a Monge array (Table 1.1's problem).
    pub fn row_maxima(array: &'a dyn Array2d<T>) -> Self {
        Self::rows(array, Structure::Monge, Objective::Maximize)
    }

    /// Leftmost row minima of an inverse-Monge array.
    pub fn row_minima_inverse_monge(array: &'a dyn Array2d<T>) -> Self {
        Self::rows(array, Structure::InverseMonge, Objective::Minimize)
    }

    /// Leftmost row maxima of an inverse-Monge array (Figure 1.1's
    /// farthest-neighbor shape).
    pub fn row_maxima_inverse_monge(array: &'a dyn Array2d<T>) -> Self {
        Self::rows(array, Structure::InverseMonge, Objective::Maximize)
    }

    /// Leftmost row minima of an arbitrary (unstructured) array.
    pub fn plain_row_minima(array: &'a dyn Array2d<T>) -> Self {
        Self::rows(array, Structure::Plain, Objective::Minimize)
    }

    /// Leftmost row maxima of an arbitrary (unstructured) array.
    pub fn plain_row_maxima(array: &'a dyn Array2d<T>) -> Self {
        Self::rows(array, Structure::Plain, Objective::Maximize)
    }

    /// General rows constructor.
    pub fn rows(array: &'a dyn Array2d<T>, structure: Structure, objective: Objective) -> Self {
        Problem::Rows {
            array,
            structure,
            objective,
            tie: Tie::Left,
            rank: None,
        }
    }

    /// Leftmost row minima of a staircase-Monge array with the given
    /// non-increasing boundary.
    pub fn staircase_row_minima(array: &'a dyn Array2d<T>, boundary: &'a [usize]) -> Self {
        Problem::Staircase {
            array,
            boundary,
            structure: Structure::Monge,
            rank: None,
        }
    }

    /// Leftmost row minima of a staircase-*inverse*-Monge array.
    pub fn staircase_inverse_row_minima(array: &'a dyn Array2d<T>, boundary: &'a [usize]) -> Self {
        Problem::Staircase {
            array,
            boundary,
            structure: Structure::InverseMonge,
            rank: None,
        }
    }

    /// Banded leftmost row minima (bands non-decreasing).
    pub fn banded_row_minima(array: &'a dyn Array2d<T>, lo: &'a [usize], hi: &'a [usize]) -> Self {
        Problem::Banded {
            array,
            lo,
            hi,
            objective: Objective::Minimize,
        }
    }

    /// Banded leftmost row maxima (bands non-increasing).
    pub fn banded_row_maxima(array: &'a dyn Array2d<T>, lo: &'a [usize], hi: &'a [usize]) -> Self {
        Problem::Banded {
            array,
            lo,
            hi,
            objective: Objective::Maximize,
        }
    }

    /// Tube minima of `c[i,j,k] = d[i,j] + e[j,k]`.
    pub fn tube_minima(d: &'a dyn Array2d<T>, e: &'a dyn Array2d<T>) -> Self {
        Problem::Tube {
            d,
            e,
            objective: Objective::Minimize,
        }
    }

    /// Tube maxima of `c[i,j,k] = d[i,j] + e[j,k]` (Table 1.3).
    pub fn tube_maxima(d: &'a dyn Array2d<T>, e: &'a dyn Array2d<T>) -> Self {
        Problem::Tube {
            d,
            e,
            objective: Objective::Maximize,
        }
    }

    /// Attaches the `g(v[i], w[j])` generator form, making the problem
    /// eligible for rank-structured (hypercube) backends. No-op for
    /// banded and tube problems.
    #[must_use]
    pub fn with_rank(mut self, v: &'a [T], w: &'a [T], g: &'a (dyn Fn(T, T) -> T + Sync)) -> Self {
        let rs = RankStructure { v, w, g };
        match &mut self {
            Problem::Rows { rank, .. } | Problem::Staircase { rank, .. } => *rank = Some(rs),
            Problem::Banded { .. } | Problem::Tube { .. } => {}
        }
        self
    }

    /// Overrides the tie-break rule (rows problems only; the staircase,
    /// banded and tube kinds are defined as leftmost / smallest-middle).
    #[must_use]
    pub fn with_tie(mut self, t: Tie) -> Self {
        if let Problem::Rows { tie, .. } = &mut self {
            *tie = t;
        }
        self
    }

    /// This problem's kind (capability-matrix row).
    pub fn kind(&self) -> ProblemKind {
        match self {
            Problem::Rows {
                objective: Objective::Minimize,
                ..
            } => ProblemKind::RowMinima,
            Problem::Rows { .. } => ProblemKind::RowMaxima,
            Problem::Staircase { .. } => ProblemKind::StaircaseRowMinima,
            Problem::Banded {
                objective: Objective::Minimize,
                ..
            } => ProblemKind::BandedRowMinima,
            Problem::Banded { .. } => ProblemKind::BandedRowMaxima,
            Problem::Tube {
                objective: Objective::Minimize,
                ..
            } => ProblemKind::TubeMinima,
            Problem::Tube { .. } => ProblemKind::TubeMaxima,
        }
    }

    /// Does the problem carry the `g(v[i], w[j])` generator form?
    pub fn has_rank(&self) -> bool {
        matches!(
            self,
            Problem::Rows { rank: Some(_), .. } | Problem::Staircase { rank: Some(_), .. }
        )
    }

    /// The array whose entry cost dominates the solve — what the
    /// calibration probe should time.
    pub fn primary_array(&self) -> &'a dyn Array2d<T> {
        match self {
            Problem::Rows { array, .. }
            | Problem::Staircase { array, .. }
            | Problem::Banded { array, .. } => *array,
            Problem::Tube { d, .. } => *d,
        }
    }

    /// `(rows, cols)` of the search space: the array shape, or
    /// `(p·r, q)` for tubes (one row per output cell, searched over the
    /// middle coordinate) — the quantities the selection policy
    /// compares against the fork cutoffs.
    pub fn search_shape(&self) -> (usize, usize) {
        match self {
            Problem::Rows { array, .. }
            | Problem::Staircase { array, .. }
            | Problem::Banded { array, .. } => (array.rows(), array.cols()),
            Problem::Tube { d, e, .. } => (d.rows() * e.cols(), d.cols()),
        }
    }
}

/// Lowers a structured rows problem to **leftmost-convention row minima
/// of a totally monotone array** via the §1.2 reductions — the single
/// implementation of the Min/Max duality that every backend shares.
///
/// `run` receives the lowered array and the tie rule to search it
/// under; the second return value is `Some(n)` when the reduction
/// reversed the columns, in which case the caller must map every
/// returned column `j` back to `n - 1 - j` (see [`mirror_indices`]).
/// Values must always be re-gathered from the *original* array (the
/// lowered one may be negated):
///
/// | structure, objective | lowered array | tie | mirrored |
/// |---|---|---|---|
/// | Monge, Minimize | `a` | as given | no |
/// | inverse-Monge, Maximize | `-a` | as given | no |
/// | Monge, Maximize | `-reverse_cols(a)` | flipped | yes |
/// | inverse-Monge, Minimize | `reverse_cols(a)` | flipped | yes |
///
/// # Panics
/// If `structure` is [`Structure::Plain`] — unstructured rows have no
/// total-monotonicity license to lower to.
pub fn lower_rows<T: Value, R>(
    array: &dyn Array2d<T>,
    structure: Structure,
    objective: Objective,
    tie: Tie,
    run: impl FnOnce(&dyn Array2d<T>, Tie) -> R,
) -> (R, Option<usize>) {
    let n = array.cols();
    match (structure, objective) {
        (Structure::Monge, Objective::Minimize) => (run(array, tie), None),
        (Structure::InverseMonge, Objective::Maximize) => (run(&Negate(array), tie), None),
        (Structure::Monge, Objective::Maximize) => {
            (run(&Negate(ReverseCols(array)), tie.flip()), Some(n))
        }
        (Structure::InverseMonge, Objective::Minimize) => {
            (run(&ReverseCols(array), tie.flip()), Some(n))
        }
        (Structure::Plain, _) => {
            panic!("lower_rows requires Monge or inverse-Monge structure")
        }
    }
}

/// Maps indices found on a column-reversed array back to original
/// columns (`j → n - 1 - j`).
pub fn mirror_indices(index: &mut [usize], n: usize) {
    for j in index.iter_mut() {
        *j = n - 1 - *j;
    }
}

/// Every backend's answer, in one shape per problem family.
#[derive(Clone, Debug, PartialEq)]
pub enum Solution<T> {
    /// Per-row optimum column and value (rows and staircase problems).
    Rows(RowExtrema<T>),
    /// Banded problems: `None` where a row's band is empty.
    Banded {
        /// Per-row optimum column, `None` for empty bands.
        index: Vec<Option<usize>>,
        /// Per-row optimum value, `None` for empty bands.
        value: Vec<Option<T>>,
    },
    /// Tube problems: optimal middle coordinate per `(i, k)`.
    Tube(TubeExtrema<T>),
}

impl<T: Value> Solution<T> {
    /// The rows answer; panics for banded/tube solutions.
    pub fn rows(&self) -> &RowExtrema<T> {
        match self {
            Solution::Rows(r) => r,
            other => panic!("expected a rows solution, got {}", other.variant_name()),
        }
    }

    /// Consumes into the rows answer; panics for banded/tube solutions.
    pub fn into_rows(self) -> RowExtrema<T> {
        match self {
            Solution::Rows(r) => r,
            other => panic!("expected a rows solution, got {}", other.variant_name()),
        }
    }

    /// The banded answer; panics otherwise.
    pub fn banded(&self) -> (&[Option<usize>], &[Option<T>]) {
        match self {
            Solution::Banded { index, value } => (index, value),
            other => panic!("expected a banded solution, got {}", other.variant_name()),
        }
    }

    /// The tube answer; panics otherwise.
    pub fn tube(&self) -> &TubeExtrema<T> {
        match self {
            Solution::Tube(t) => t,
            other => panic!("expected a tube solution, got {}", other.variant_name()),
        }
    }

    /// Consumes into the tube answer; panics otherwise.
    pub fn into_tube(self) -> TubeExtrema<T> {
        match self {
            Solution::Tube(t) => t,
            other => panic!("expected a tube solution, got {}", other.variant_name()),
        }
    }

    fn variant_name(&self) -> &'static str {
        match self {
            Solution::Rows(_) => "Rows",
            Solution::Banded { .. } => "Banded",
            Solution::Tube(_) => "Tube",
        }
    }
}

/// One timed section of a dispatched solve.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Phase {
    /// Section label (`"prepare"`, `"search"`, `"finalize"`, …).
    pub name: &'static str,
    /// Wall-clock nanoseconds spent in the section.
    pub nanos: u128,
}

/// Simulated-machine cost counters, populated only by the simulator
/// backends (all zero for host-execution backends). Typed fields rather
/// than a string map so the bench tables can keep printing exact
/// step/work/message numbers straight out of a dispatched solve.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MachineCounters {
    /// PRAM: synchronous parallel steps.
    pub steps: u64,
    /// PRAM: total operations across processors.
    pub work: u64,
    /// PRAM: peak processors active in one step.
    pub processors: u64,
    /// PRAM: total shared-memory reads.
    pub reads: u64,
    /// PRAM: total shared-memory writes (post conflict resolution).
    pub writes: u64,
    /// PRAM: steps in which at least two processors read one cell
    /// (always 0 on a legal EREW run).
    pub concurrent_read_events: u64,
    /// PRAM: steps in which at least two processors wrote one cell
    /// (always 0 on a legal CREW run — the counter the conformance
    /// auditor checks to certify a claimed CREW bound really ran
    /// without concurrent writes).
    pub concurrent_write_events: u64,
    /// PRAM: model violations recorded by a lenient machine (strict
    /// machines panic instead; always 0 there).
    pub violations: u64,
    /// Hypercube: compute (non-exchange) steps.
    pub local_steps: u64,
    /// Hypercube: single-dimension exchange steps.
    pub comm_steps: u64,
    /// Hypercube: point-to-point messages moved.
    pub messages: u64,
    /// Emulated cost of the dimension trace on cube-connected cycles.
    pub ccc_steps: u64,
    /// Emulated cost of the dimension trace on a shuffle-exchange.
    pub se_steps: u64,
}

/// Where a dispatched solve's backend/tuning decision came from — the
/// observable end of the ladder *per-call > autotune > env-seeded
/// defaults*. Stamped into [`Telemetry::provenance`] by the dispatch
/// layer so benches and tests can assert which selection path actually
/// ran.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TuningProvenance {
    /// An already-measured autotune winner was looked up.
    Cached,
    /// The autotuner measured the candidate set on this very call and
    /// the winner was applied (and cached for the next caller).
    Measured,
    /// No measurement informed the decision: an explicit per-call
    /// tuning, or the env-seeded defaults on the grain-policy backend
    /// (autotune off, or waiting out another thread's in-flight
    /// measurement).
    Default,
}

impl TuningProvenance {
    /// The lowercase label (`cached` / `measured` / `default`) the bench
    /// JSON rows carry.
    pub fn as_str(self) -> &'static str {
        match self {
            TuningProvenance::Cached => "cached",
            TuningProvenance::Measured => "measured",
            TuningProvenance::Default => "default",
        }
    }
}

/// What one dispatched solve did: evaluation/comparison/task/arena
/// counts, per-phase wall time, and (for simulator backends) the
/// machine-model cost. Filled cooperatively — the dispatcher stamps the
/// identity fields, wall clock and the solve's evaluation, comparison,
/// task and checkout counts; the backend records phases and machine
/// counters.
///
/// The four counts are the change in the solving thread's tally
/// ([`crate::state`]), forks included: exact even while other threads
/// solve concurrently.
#[derive(Clone, Debug, Default)]
pub struct Telemetry {
    /// Name of the backend that ran the solve.
    pub backend: &'static str,
    /// The problem kind solved.
    pub kind: Option<ProblemKind>,
    /// Array entries evaluated (computed or copied) during the solve.
    pub evaluations: u64,
    /// Value comparisons performed by the eval layer's scans and
    /// SMAWK's REDUCE/INTERPOLATE steps.
    pub comparisons: u64,
    /// Tasks forked through the fork seam (0 for sequential and
    /// simulator backends).
    pub tasks: u64,
    /// Scratch-arena buffer checkouts.
    pub arena_checkouts: u64,
    /// Timed sections, in execution order.
    pub phases: Vec<Phase>,
    /// Total wall-clock nanoseconds, as measured by the dispatcher
    /// around the whole backend call.
    pub total_nanos: u128,
    /// Simulated machine cost (simulator backends only).
    pub machine: MachineCounters,
    /// Guarded-solve outcome: validation cost, quarantine state and the
    /// fallback path. `None` for unguarded solves; populated only by
    /// `Dispatcher::solve_guarded` in `monge-parallel`.
    pub guard: Option<crate::guard::GuardOutcome>,
    /// Where the backend/tuning decision came from ([`TuningProvenance`]).
    /// `None` when the solve ran below the dispatch entry points that
    /// resolve tuning (e.g. a backend invoked directly).
    pub provenance: Option<TuningProvenance>,
    /// Transient-fault retries performed by the resilient serving layer
    /// for this solve (0 for unguarded or retry-free solves).
    pub retries: u64,
    /// Fallback-chain links skipped because their circuit breaker was
    /// open ([`crate::guard::BreakerState::Open`]).
    pub breaker_skips: u64,
    /// Submatrix query indexes built ([`crate::queryindex::QueryIndex`]),
    /// stamped by the dispatcher's index-build path and the service
    /// layer's per-tenant handle cache.
    pub index_builds: u64,
    /// Index-handle cache hits: requests served by reusing an already
    /// built [`crate::queryindex::QueryIndex`] instead of rebuilding.
    pub index_hits: u64,
    /// Approximate heap bytes the built indexes allocated
    /// ([`crate::queryindex::QueryIndex::bytes`]: summaries, envelopes
    /// and sparse tables, plus row copies of non-`Dense` sources). Rows
    /// an index shares with a `Dense` source are not counted.
    pub index_bytes: u64,
    /// Breakpoint segments stored across the built indexes' envelopes.
    pub index_breakpoints: u64,
    /// Rectangle queries answered by indexes and folded into this
    /// telemetry (service rollups drain the per-index counters).
    pub index_queries: u64,
    /// Predecessor-search probe steps spent answering those queries.
    pub index_probes: u64,
}

/// The [`Telemetry::backend`] label of a merged rollup whose inputs ran
/// on different backends.
pub const MERGED_BACKEND: &str = "(merged)";

impl Telemetry {
    /// Appends a timed phase.
    pub fn record_phase(&mut self, name: &'static str, nanos: u128) {
        self.phases.push(Phase { name, nanos });
    }

    /// Sum of the recorded phase durations (≤ [`Telemetry::total_nanos`],
    /// up to the dispatcher's own bookkeeping overhead).
    pub fn phase_nanos(&self) -> u128 {
        self.phases.iter().map(|p| p.nanos).sum()
    }

    /// Accumulates `other` into `self` — the rollup primitive behind
    /// per-tenant and per-batch telemetry aggregation.
    ///
    /// Additive counters (evaluations, comparisons, tasks, checkouts,
    /// wall clocks, and the simulators' step/work/read/write/message
    /// tallies) are **saturating-summed**; machine counters that are
    /// high-water marks (peak [`MachineCounters::processors`]) take the
    /// **max**. Per-phase nanos are summed by phase name, preserving
    /// first-seen order. Identity fields survive only when they agree:
    /// differing backends collapse to [`MERGED_BACKEND`], differing
    /// kinds to `None`. Guard outcomes are not merged — a rollup has no
    /// single fallback path — so `guard` keeps `self`'s value; the
    /// resilience counters (`retries`, `breaker_skips`) are additive.
    pub fn accumulate(&mut self, other: &Telemetry) {
        // A fresh rollup (default-constructed, backend still "") adopts
        // the first part's identity outright; afterwards identity fields
        // survive only while every part agrees.
        let fresh = self.backend.is_empty();
        if fresh {
            self.backend = other.backend;
            self.kind = other.kind;
            self.provenance = other.provenance;
        } else {
            if self.backend != other.backend {
                self.backend = MERGED_BACKEND;
            }
            if self.kind != other.kind {
                self.kind = None;
            }
            if self.provenance != other.provenance {
                self.provenance = None;
            }
        }
        self.evaluations = self.evaluations.saturating_add(other.evaluations);
        self.comparisons = self.comparisons.saturating_add(other.comparisons);
        self.retries = self.retries.saturating_add(other.retries);
        self.breaker_skips = self.breaker_skips.saturating_add(other.breaker_skips);
        self.tasks = self.tasks.saturating_add(other.tasks);
        self.arena_checkouts = self.arena_checkouts.saturating_add(other.arena_checkouts);
        self.index_builds = self.index_builds.saturating_add(other.index_builds);
        self.index_hits = self.index_hits.saturating_add(other.index_hits);
        self.index_bytes = self.index_bytes.saturating_add(other.index_bytes);
        self.index_breakpoints = self
            .index_breakpoints
            .saturating_add(other.index_breakpoints);
        self.index_queries = self.index_queries.saturating_add(other.index_queries);
        self.index_probes = self.index_probes.saturating_add(other.index_probes);
        self.total_nanos = self.total_nanos.saturating_add(other.total_nanos);
        for p in &other.phases {
            match self.phases.iter_mut().find(|q| q.name == p.name) {
                Some(q) => q.nanos = q.nanos.saturating_add(p.nanos),
                None => self.phases.push(p.clone()),
            }
        }
        let m = &mut self.machine;
        let o = &other.machine;
        m.steps = m.steps.saturating_add(o.steps);
        m.work = m.work.saturating_add(o.work);
        m.processors = m.processors.max(o.processors);
        m.reads = m.reads.saturating_add(o.reads);
        m.writes = m.writes.saturating_add(o.writes);
        m.concurrent_read_events = m
            .concurrent_read_events
            .saturating_add(o.concurrent_read_events);
        m.concurrent_write_events = m
            .concurrent_write_events
            .saturating_add(o.concurrent_write_events);
        m.violations = m.violations.saturating_add(o.violations);
        m.local_steps = m.local_steps.saturating_add(o.local_steps);
        m.comm_steps = m.comm_steps.saturating_add(o.comm_steps);
        m.messages = m.messages.saturating_add(o.messages);
        m.ccc_steps = m.ccc_steps.saturating_add(o.ccc_steps);
        m.se_steps = m.se_steps.saturating_add(o.se_steps);
    }

    /// Merges a set of telemetries into one rollup via
    /// [`Telemetry::accumulate`].
    pub fn merge<'t>(parts: impl IntoIterator<Item = &'t Telemetry>) -> Telemetry {
        let mut out = Telemetry::default();
        for t in parts {
            out.accumulate(t);
        }
        out
    }
}

/// An evaluation-counting pass-through used by the dispatch layer.
///
/// `Metered` keeps no counter of its own: each `entry`, `fill_row` and
/// `row_view` adds its entry count to the reading thread's tally
/// ([`crate::state`], via [`crate::eval::add_evaluations`]), which the
/// fork seam carries to the joiner. The dispatcher reads a solve's
/// [`Telemetry::evaluations`] as the change in that tally, so forks of
/// one solve share no counter.
///
/// Unlike [`crate::eval::CountingArray`] — which deliberately hides
/// [`Array2d::row_view`] so eval-layer tests count *exact* per-entry
/// work — `Metered` forwards the zero-copy tier and counts the viewed
/// elements, so wrapping a dense array for telemetry does not demote it
/// to the copy path. The count is therefore "entries made available to
/// the engine", an upper bound on entries actually compared. It also
/// forwards [`Array2d::as_dense`], which reads nothing: a query index
/// built through `Metered` shares a dense source's rows and reads each
/// of them once through `row_view`, so the build still counts `m·n`.
pub struct Metered<A> {
    inner: A,
}

impl<A> Metered<A> {
    /// Wraps an array.
    pub fn new(inner: A) -> Self {
        Self { inner }
    }
}

impl<T: Value, A: Array2d<T>> Array2d<T> for Metered<A> {
    fn rows(&self) -> usize {
        self.inner.rows()
    }
    fn cols(&self) -> usize {
        self.inner.cols()
    }
    #[inline]
    fn entry(&self, i: usize, j: usize) -> T {
        add_evaluations(1);
        self.inner.entry(i, j)
    }
    fn fill_row(&self, i: usize, cols: Range<usize>, out: &mut [T]) {
        add_evaluations(cols.len() as u64);
        self.inner.fill_row(i, cols, out);
    }
    fn row_view(&self, i: usize, cols: Range<usize>) -> Option<&[T]> {
        let v = self.inner.row_view(i, cols)?;
        add_evaluations(v.len() as u64);
        Some(v)
    }
    fn prefers_streaming(&self) -> bool {
        self.inner.prefers_streaming()
    }
    fn as_dense(&self) -> Option<&Dense<T>> {
        self.inner.as_dense()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monge::{brute_row_maxima, brute_row_minima};
    use crate::smawk::row_minima_totally_monotone;

    fn solve_lowered(a: &Dense<i64>, s: Structure, o: Objective) -> Vec<usize> {
        let (mut idx, mirror) = lower_rows(a, s, o, Tie::Left, |arr, tie| {
            row_minima_totally_monotone(&arr, tie)
        });
        if let Some(n) = mirror {
            mirror_indices(&mut idx, n);
        }
        idx
    }

    #[test]
    fn lowering_covers_all_four_dualities() {
        let monge = Dense::tabulate(6, 9, |i, j| {
            let (i, j) = (i as i64, j as i64);
            (i - j) * (i - j) + 2 * j
        });
        assert!(crate::monge::is_monge(&monge));
        let inv = Negate(&monge).to_dense();
        assert_eq!(
            solve_lowered(&monge, Structure::Monge, Objective::Minimize),
            brute_row_minima(&monge)
        );
        assert_eq!(
            solve_lowered(&monge, Structure::Monge, Objective::Maximize),
            brute_row_maxima(&monge)
        );
        assert_eq!(
            solve_lowered(&inv, Structure::InverseMonge, Objective::Minimize),
            brute_row_minima(&inv)
        );
        assert_eq!(
            solve_lowered(&inv, Structure::InverseMonge, Objective::Maximize),
            brute_row_maxima(&inv)
        );
    }

    #[test]
    fn lowering_keeps_leftmost_convention_on_plateaus() {
        // Constant arrays are simultaneously Monge and inverse-Monge;
        // all four lowerings must land on column 0.
        let a = Dense::filled(4, 7, 5i64);
        for s in [Structure::Monge, Structure::InverseMonge] {
            for o in [Objective::Minimize, Objective::Maximize] {
                assert_eq!(solve_lowered(&a, s, o), vec![0; 4], "{s:?}/{o:?}");
            }
        }
    }

    #[test]
    fn problem_kinds_and_builders_agree() {
        let a = Dense::filled(3, 3, 1i64);
        let lo = [0usize, 0, 0];
        let hi = [3usize, 3, 3];
        assert_eq!(Problem::row_minima(&a).kind(), ProblemKind::RowMinima);
        assert_eq!(
            Problem::row_maxima_inverse_monge(&a).kind(),
            ProblemKind::RowMaxima
        );
        assert_eq!(Problem::plain_row_maxima(&a).kind(), ProblemKind::RowMaxima);
        let f = [3usize, 2, 1];
        assert_eq!(
            Problem::staircase_row_minima(&a, &f).kind(),
            ProblemKind::StaircaseRowMinima
        );
        assert_eq!(
            Problem::banded_row_minima(&a, &lo, &hi).kind(),
            ProblemKind::BandedRowMinima
        );
        assert_eq!(
            Problem::banded_row_maxima(&a, &lo, &hi).kind(),
            ProblemKind::BandedRowMaxima
        );
        assert_eq!(Problem::tube_minima(&a, &a).kind(), ProblemKind::TubeMinima);
        assert_eq!(Problem::tube_maxima(&a, &a).kind(), ProblemKind::TubeMaxima);
        assert_eq!(Problem::tube_maxima(&a, &a).search_shape(), (9, 3));
    }

    #[test]
    fn rank_attachment_gates_eligibility() {
        let a = Dense::filled(2, 3, 0i64);
        let v = [0i64, 1];
        let w = [0i64, 1, 2];
        let g = |x: i64, y: i64| x + y;
        let p = Problem::row_minima(&a);
        assert!(!p.has_rank());
        assert!(p.with_rank(&v, &w, &g).has_rank());
        // Attaching rank to a tube problem is an explicit no-op.
        assert!(!Problem::tube_minima(&a, &a)
            .with_rank(&v, &w, &g)
            .has_rank());
    }

    #[test]
    fn merge_sums_counters_and_phases() {
        let mut a = Telemetry {
            backend: "sequential",
            kind: Some(ProblemKind::RowMinima),
            evaluations: 10,
            comparisons: 5,
            tasks: 2,
            arena_checkouts: 3,
            total_nanos: 100,
            ..Telemetry::default()
        };
        a.record_phase("search", 60);
        a.record_phase("finalize", 20);
        let mut b = Telemetry {
            backend: "sequential",
            kind: Some(ProblemKind::RowMinima),
            evaluations: 7,
            comparisons: 1,
            tasks: 0,
            arena_checkouts: 4,
            total_nanos: 50,
            ..Telemetry::default()
        };
        b.record_phase("search", 30);
        b.record_phase("validate", 5);
        let m = Telemetry::merge([&a, &b]);
        assert_eq!(m.backend, "sequential");
        assert_eq!(m.kind, Some(ProblemKind::RowMinima));
        assert_eq!(m.evaluations, 17);
        assert_eq!(m.comparisons, 6);
        assert_eq!(m.tasks, 2);
        assert_eq!(m.arena_checkouts, 7);
        assert_eq!(m.total_nanos, 150);
        let search = m.phases.iter().find(|p| p.name == "search").unwrap();
        assert_eq!(search.nanos, 90);
        let validate = m.phases.iter().find(|p| p.name == "validate").unwrap();
        assert_eq!(validate.nanos, 5);
        assert_eq!(m.phases.len(), 3, "phase order preserved, names deduped");
    }

    #[test]
    fn merge_saturates_instead_of_wrapping() {
        let a = Telemetry {
            backend: "x",
            evaluations: u64::MAX - 1,
            total_nanos: u128::MAX - 1,
            ..Telemetry::default()
        };
        let b = Telemetry {
            backend: "x",
            evaluations: 10,
            total_nanos: 10,
            ..Telemetry::default()
        };
        let m = Telemetry::merge([&a, &b]);
        assert_eq!(m.evaluations, u64::MAX);
        assert_eq!(m.total_nanos, u128::MAX);
    }

    #[test]
    fn merge_mixes_identity_and_maxes_high_water_marks() {
        let mut a = Telemetry {
            backend: "sequential",
            kind: Some(ProblemKind::RowMinima),
            ..Telemetry::default()
        };
        a.machine.steps = 4;
        a.machine.processors = 16;
        a.machine.work = 100;
        let mut b = Telemetry {
            backend: "rayon",
            kind: Some(ProblemKind::TubeMinima),
            ..Telemetry::default()
        };
        b.machine.steps = 6;
        b.machine.processors = 8;
        b.machine.work = 50;
        let m = Telemetry::merge([&a, &b]);
        assert_eq!(m.backend, MERGED_BACKEND);
        assert_eq!(m.kind, None, "disagreeing kinds collapse to None");
        assert_eq!(m.machine.steps, 10, "steps are additive");
        assert_eq!(m.machine.work, 150, "work is additive");
        assert_eq!(m.machine.processors, 16, "peak processors take the max");
    }

    #[test]
    fn merge_of_nothing_is_default_and_accumulate_is_incremental() {
        let m = Telemetry::merge([]);
        assert_eq!(m.backend, "");
        assert_eq!(m.evaluations, 0);
        let a = Telemetry {
            backend: "sequential",
            kind: Some(ProblemKind::RowMinima),
            evaluations: 1,
            ..Telemetry::default()
        };
        let mut roll = Telemetry::default();
        roll.accumulate(&a);
        assert_eq!(roll.backend, "sequential");
        assert_eq!(roll.kind, Some(ProblemKind::RowMinima));
        roll.accumulate(&a);
        assert_eq!(roll.evaluations, 2);
        assert_eq!(roll.backend, "sequential", "agreeing backends survive");
    }

    #[test]
    fn merge_and_accumulate_sum_index_accounting_losslessly() {
        let a = Telemetry {
            backend: "queryindex",
            index_builds: 1,
            index_hits: 2,
            index_bytes: 4096,
            index_breakpoints: 37,
            index_queries: 100,
            index_probes: 450,
            ..Telemetry::default()
        };
        let b = Telemetry {
            backend: "queryindex",
            index_builds: 2,
            index_hits: 0,
            index_bytes: 1024,
            index_breakpoints: 5,
            index_queries: 7,
            index_probes: 21,
            ..Telemetry::default()
        };
        let m = Telemetry::merge([&a, &b]);
        assert_eq!(m.index_builds, 3);
        assert_eq!(m.index_hits, 2);
        assert_eq!(m.index_bytes, 5120);
        assert_eq!(m.index_breakpoints, 42);
        assert_eq!(m.index_queries, 107);
        assert_eq!(m.index_probes, 471);
        // Accumulating one part at a time lands on the same rollup.
        let mut roll = Telemetry::default();
        roll.accumulate(&a);
        roll.accumulate(&b);
        assert_eq!(roll.index_builds, m.index_builds);
        assert_eq!(roll.index_hits, m.index_hits);
        assert_eq!(roll.index_bytes, m.index_bytes);
        assert_eq!(roll.index_breakpoints, m.index_breakpoints);
        assert_eq!(roll.index_queries, m.index_queries);
        assert_eq!(roll.index_probes, m.index_probes);
        // Saturation, not wraparound, at the top of the range.
        let big = Telemetry {
            backend: "queryindex",
            index_queries: u64::MAX - 3,
            ..Telemetry::default()
        };
        let m = Telemetry::merge([&big, &a]);
        assert_eq!(m.index_queries, u64::MAX);
    }

    #[test]
    fn merge_sums_resilience_counters() {
        let a = Telemetry {
            backend: "x",
            retries: 2,
            breaker_skips: 1,
            ..Telemetry::default()
        };
        let b = Telemetry {
            backend: "x",
            retries: 3,
            breaker_skips: 0,
            ..Telemetry::default()
        };
        let c = Telemetry {
            backend: "x",
            retries: 0,
            breaker_skips: 4,
            ..Telemetry::default()
        };
        let m = Telemetry::merge([&a, &b, &c]);
        assert_eq!(m.retries, 5, "retries are additive");
        assert_eq!(m.breaker_skips, 5, "breaker skips are additive");
        // Saturation, like every additive counter.
        let hot = Telemetry {
            backend: "x",
            retries: u64::MAX - 1,
            breaker_skips: u64::MAX - 1,
            ..Telemetry::default()
        };
        let m = Telemetry::merge([&hot, &a]);
        assert_eq!(m.retries, u64::MAX);
        assert_eq!(m.breaker_skips, u64::MAX);
    }

    #[test]
    fn metered_counts_without_hiding_row_views() {
        let m = Metered::new(Dense::tabulate(2, 5, |i, j| (i + j) as i64));
        let before = crate::state::tally();
        let evaluations = || crate::state::tally().since(before).evaluations;
        assert!(m.row_view(0, 1..4).is_some());
        assert_eq!(evaluations(), 3);
        m.entry(1, 0);
        assert_eq!(evaluations(), 4);
        let mut buf = vec![0i64; 5];
        m.fill_row(1, 0..5, &mut buf);
        assert_eq!(
            crate::state::tally().since(before),
            crate::state::Tally {
                evaluations: 9,
                ..crate::state::Tally::default()
            },
            "reading counts evaluations only"
        );
    }
}
