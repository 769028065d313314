//! The solver dispatch layer: one [`Problem`] IR, one [`Backend`]
//! trait, one instrumented registry over every engine in the workspace.
//!
//! Applications describe *what* to search — row minima of a Monge
//! array, staircase minima over a boundary, tube minima of a composite
//! — as a [`Problem`] and hand it to a [`Dispatcher`]. The dispatcher
//! owns a registry of [`Backend`]s (sequential SMAWK, the rayon
//! engines, the PRAM simulator under each minimum primitive, the
//! hypercube simulator), checks each backend's [`Capabilities`] against
//! the problem kind and its structural requirements, picks an engine by
//! the grain policy (or the batch layer's autotune winner, see
//! [`crate::tuning`]), and returns the
//! [`Solution`] together with a populated [`Telemetry`]: entry
//! evaluations, comparisons, forked tasks, arena checkouts,
//! per-phase wall time, and — for the simulators — the machine-model
//! cost counters straight out of the run.
//!
//! ## Capability flags
//!
//! Eligibility is two-layered. [`Backend::capabilities`] is the static
//! kind mask (the Table 1.1–1.3 row: which problem families the engine
//! implements at all); [`Backend::admits`] refines it per-instance with
//! the structural requirements the IR can express:
//!
//! * the hypercube backend requires the `g(v[i], w[j])` generator form
//!   ([`Problem::with_rank`]) for rows and staircase problems — §3's
//!   machines distribute the generator vectors, not array entries — and
//!   implements tube *minima* only, a deliberately missing flag the
//!   registry surfaces instead of papering over;
//! * [`Structure::Plain`] rows (honest unstructured scans) run only on
//!   the host backends (sequential, rayon) — the simulators implement
//!   the paper's structured algorithms, not brute force;
//! * staircase-*inverse*-Monge is sequential-only, and the simulators
//!   answer rows problems under the paper's leftmost tie rule only.
//!
//! ## Selection policy
//!
//! Only host-execution backends are ever *auto*-selected: the
//! simulators exist to be asked for by name ([`Dispatcher::solve_on`]),
//! since running them instead of a host engine is never faster. Among
//! the host backends the policy is the grain policy of
//! [`crate::runtime`]: a problem whose search shape fits inside one
//! sequential grain (`seq_rows` rows, `seq_scan` columns —
//! `tube_seq_planes` planes for tubes) runs sequentially; anything
//! larger goes to rayon. The batch layer ([`crate::batch`]) consults
//! the dispatcher's autotuner ([`crate::autotune`]) first: a cached
//! winner names both the backend and the tuning outright (provenance
//! `cached`), a cold key is measured once (`measured`), and when the
//! table has nothing — disabled, or another thread mid-measurement —
//! the call runs the env-seeded defaults on the grain-policy backend
//! (`default`). The chosen path is stamped into
//! [`Telemetry::provenance`].

use std::sync::Arc;
use std::time::Instant;

use monge_core::array2d::{Array2d, Negate};
use monge_core::problem::{
    lower_rows, mirror_indices, Metered, Objective, Problem, ProblemKind, Solution, Structure,
    Telemetry, TuningProvenance,
};
use monge_core::scratch::with_scratch;
use monge_core::smawk::{row_minima_totally_monotone, RowExtrema};
use monge_core::tiebreak::Tie;
use monge_core::value::Value;
use monge_core::{banded, eval, kernel, staircase, state, tube};

use crate::autotune::{self, AutotuneKey, AutotuneMode, Autotuner, Claim};
use crate::health::HealthRegistry;
use crate::pram_monge::{self, MinPrimitive};
use crate::tuning::Tuning;
use crate::vector_array::VectorArray;
use crate::{
    hc_monge, hc_staircase, hc_tube, pram_staircase, pram_tube, rayon_monge, rayon_staircase,
    rayon_tube, runtime,
};

/// The set of [`ProblemKind`]s a backend implements — a bitmask over
/// [`ProblemKind::ALL`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Capabilities(u32);

impl Capabilities {
    /// No kinds at all.
    pub const NONE: Capabilities = Capabilities(0);

    /// Builds a set from a list of kinds.
    pub const fn of(kinds: &[ProblemKind]) -> Self {
        let mut bits = 0u32;
        let mut i = 0;
        while i < kinds.len() {
            bits |= 1 << kinds[i] as u32;
            i += 1;
        }
        Capabilities(bits)
    }

    /// Does the set contain `kind`?
    pub const fn supports(self, kind: ProblemKind) -> bool {
        self.0 & (1 << kind as u32) != 0
    }

    /// The contained kinds, in [`ProblemKind::ALL`] order.
    pub fn kinds(self) -> Vec<ProblemKind> {
        ProblemKind::ALL
            .iter()
            .copied()
            .filter(|&k| self.supports(k))
            .collect()
    }
}

/// One solver engine behind the dispatch layer.
///
/// A backend consumes the [`Problem`] IR and produces a [`Solution`],
/// recording its phases and (for simulators) machine counters into the
/// [`Telemetry`] it is handed. It counts nothing itself: it reads the
/// problem's arrays through [`Metered`], and the dispatcher stamps the
/// identity fields, the wall clock and the solve's counts (entry
/// evaluations, comparisons, forked tasks, arena checkouts) from the
/// change in the thread's tally around the call.
pub trait Backend<T: Value>: Send + Sync {
    /// Registry name (`"sequential"`, `"rayon"`, `"pram:tree"`, …).
    fn name(&self) -> &'static str;

    /// The problem kinds this backend implements at all.
    fn capabilities(&self) -> Capabilities;

    /// Instance-level refinement of [`Backend::capabilities`]:
    /// structural requirements (rank form, non-`Plain` structure,
    /// leftmost ties) the kind mask cannot express. Callers should use
    /// [`Backend::eligible`], which checks both layers.
    fn admits(&self, problem: &Problem<'_, T>) -> bool {
        let _ = problem;
        true
    }

    /// Can this backend solve this problem instance?
    fn eligible(&self, problem: &Problem<'_, T>) -> bool {
        self.capabilities().supports(problem.kind()) && self.admits(problem)
    }

    /// Solves the problem. Only called when [`Backend::eligible`]; may
    /// panic otherwise.
    fn solve(
        &self,
        problem: &Problem<'_, T>,
        tuning: &Tuning,
        telemetry: &mut Telemetry,
    ) -> Solution<T>;
}

/// Per-row optimum of one unstructured row, honoring the tie rule. The
/// shared leaf of both host backends' `Plain` paths (and of the guarded
/// layer's brute-force terminal backend).
pub(crate) fn plain_row_opt<T: Value, A: Array2d<T>>(
    a: &A,
    i: usize,
    objective: Objective,
    tie: Tie,
    buf: &mut Vec<T>,
) -> usize {
    let n = a.cols();
    match (objective, tie) {
        (Objective::Minimize, Tie::Left) => eval::interval_argmin(a, i, 0, n, buf).0,
        (Objective::Minimize, Tie::Right) => eval::interval_argmin_rightmost(a, i, 0, n, buf).0,
        (Objective::Maximize, Tie::Left) => eval::interval_argmax(a, i, 0, n, buf).0,
        // Rightmost maxima = rightmost minima of the negation.
        (Objective::Maximize, Tie::Right) => {
            eval::interval_argmin_rightmost(&Negate(a), i, 0, n, buf).0
        }
    }
}

/// Gathers banded optimum values from the (metered) array.
pub(crate) fn banded_values<T: Value, A: Array2d<T>>(
    a: &A,
    index: &[Option<usize>],
) -> Vec<Option<T>> {
    index
        .iter()
        .enumerate()
        .map(|(i, j)| j.map(|j| a.entry(i, j)))
        .collect()
}

/// The sequential reference backend: SMAWK and the other `monge-core`
/// algorithms. Implements every problem kind, every structure and both
/// tie rules — the registry's universal donor and the conformance
/// suite's baseline.
pub struct SequentialBackend;

impl<T: Value> Backend<T> for SequentialBackend {
    fn name(&self) -> &'static str {
        "sequential"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities::of(&ProblemKind::ALL)
    }

    fn solve(
        &self,
        problem: &Problem<'_, T>,
        _tuning: &Tuning,
        telemetry: &mut Telemetry,
    ) -> Solution<T> {
        match *problem {
            Problem::Rows {
                array,
                structure,
                objective,
                tie,
                ..
            } => {
                let a = Metered::new(array);
                let t0 = Instant::now();
                let index = if structure == Structure::Plain {
                    with_scratch(|buf: &mut Vec<T>| {
                        (0..a.rows())
                            .map(|i| plain_row_opt(&a, i, objective, tie, buf))
                            .collect()
                    })
                } else {
                    let (mut index, mirror) =
                        lower_rows(&a, structure, objective, tie, |arr, tt| {
                            row_minima_totally_monotone(&arr, tt)
                        });
                    if let Some(n) = mirror {
                        mirror_indices(&mut index, n);
                    }
                    index
                };
                telemetry.record_phase("search", t0.elapsed().as_nanos());
                let t1 = Instant::now();
                let sol = Solution::Rows(RowExtrema::from_indices(&a, index));
                telemetry.record_phase("finalize", t1.elapsed().as_nanos());
                sol
            }
            Problem::Staircase {
                array,
                boundary,
                structure,
                ..
            } => {
                let a = Metered::new(array);
                let t0 = Instant::now();
                let index = match structure {
                    Structure::InverseMonge => {
                        staircase::staircase_inverse_row_minima(&a, boundary)
                    }
                    _ => staircase::staircase_row_minima(&a, boundary),
                };
                telemetry.record_phase("search", t0.elapsed().as_nanos());
                let t1 = Instant::now();
                let sol = Solution::Rows(RowExtrema::from_staircase_indices(&a, boundary, index));
                telemetry.record_phase("finalize", t1.elapsed().as_nanos());
                sol
            }
            Problem::Banded {
                array,
                lo,
                hi,
                objective,
            } => {
                let a = Metered::new(array);
                let t0 = Instant::now();
                let index = match objective {
                    Objective::Minimize => banded::banded_row_minima_monge(&a, lo, hi),
                    Objective::Maximize => banded::banded_row_maxima_monge(&a, lo, hi),
                };
                telemetry.record_phase("search", t0.elapsed().as_nanos());
                let t1 = Instant::now();
                let value = banded_values(&a, &index);
                telemetry.record_phase("finalize", t1.elapsed().as_nanos());
                Solution::Banded { index, value }
            }
            Problem::Tube { d, e, objective } => {
                let (dm, em) = (Metered::new(d), Metered::new(e));
                let t0 = Instant::now();
                let ex = match objective {
                    Objective::Minimize => tube::tube_minima(&dm, &em),
                    Objective::Maximize => tube::tube_maxima(&dm, &em),
                };
                telemetry.record_phase("search", t0.elapsed().as_nanos());
                Solution::Tube(ex)
            }
        }
    }
}

/// The multithreaded host backend: the `rayon_*` engines. Handles all
/// rows problems (including `Plain`, by per-row parallel scans),
/// staircase-Monge, and both tube kinds; banded problems have no rayon
/// engine and fall to the sequential backend.
pub struct RayonBackend;

impl<T: Value> Backend<T> for RayonBackend {
    fn name(&self) -> &'static str {
        "rayon"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities::of(&[
            ProblemKind::RowMinima,
            ProblemKind::RowMaxima,
            ProblemKind::StaircaseRowMinima,
            ProblemKind::TubeMinima,
            ProblemKind::TubeMaxima,
        ])
    }

    fn admits(&self, problem: &Problem<'_, T>) -> bool {
        match problem {
            Problem::Staircase { structure, .. } => *structure == Structure::Monge,
            _ => true,
        }
    }

    fn solve(
        &self,
        problem: &Problem<'_, T>,
        tuning: &Tuning,
        telemetry: &mut Telemetry,
    ) -> Solution<T> {
        let t = *tuning;
        match *problem {
            Problem::Rows {
                array,
                structure,
                objective,
                tie,
                ..
            } => {
                let a = Metered::new(array);
                let t0 = Instant::now();
                let index = if structure == Structure::Plain {
                    runtime::par_map((0..a.rows()).collect(), |i| {
                        with_scratch(|buf: &mut Vec<T>| plain_row_opt(&a, i, objective, tie, buf))
                    })
                } else {
                    let (mut index, mirror) =
                        lower_rows(&a, structure, objective, tie, |arr, tt| {
                            rayon_monge::par_rowmin_with_tie(&arr, tt, t)
                        });
                    if let Some(n) = mirror {
                        mirror_indices(&mut index, n);
                    }
                    index
                };
                telemetry.record_phase("search", t0.elapsed().as_nanos());
                let t1 = Instant::now();
                let sol = Solution::Rows(RowExtrema::from_indices(&a, index));
                telemetry.record_phase("finalize", t1.elapsed().as_nanos());
                sol
            }
            Problem::Staircase {
                array, boundary, ..
            } => {
                let a = Metered::new(array);
                let t0 = Instant::now();
                let index = rayon_staircase::par_staircase_row_minima_with(&a, boundary, t);
                telemetry.record_phase("search", t0.elapsed().as_nanos());
                let t1 = Instant::now();
                let sol = Solution::Rows(RowExtrema::from_staircase_indices(&a, boundary, index));
                telemetry.record_phase("finalize", t1.elapsed().as_nanos());
                sol
            }
            Problem::Tube { d, e, objective } => {
                let (dm, em) = (Metered::new(d), Metered::new(e));
                let t0 = Instant::now();
                let ex = match objective {
                    Objective::Minimize => rayon_tube::par_tube_minima(&dm, &em),
                    Objective::Maximize => rayon_tube::par_tube_maxima(&dm, &em),
                };
                telemetry.record_phase("search", t0.elapsed().as_nanos());
                Solution::Tube(ex)
            }
            Problem::Banded { .. } => {
                panic!("rayon backend has no banded engine (check eligible() first)")
            }
        }
    }
}

/// The simulated-PRAM backend (one registry entry per minimum
/// primitive). Populates [`Telemetry::machine`] with the simulator's
/// step/work/processor accounting — the Table 1.1/1.2/1.3 numbers.
pub struct PramBackend {
    prim: MinPrimitive,
}

impl PramBackend {
    /// A PRAM backend running `prim` as its parallel-minimum primitive.
    pub fn new(prim: MinPrimitive) -> Self {
        Self { prim }
    }

    /// The registry name for a primitive (`"pram:tree"`, …).
    pub fn name_of(prim: MinPrimitive) -> &'static str {
        match prim {
            MinPrimitive::Tree => "pram:tree",
            MinPrimitive::DoublyLog => "pram:doubly-log",
            MinPrimitive::Constant => "pram:constant",
            MinPrimitive::Combining => "pram:combining",
        }
    }
}

impl<T: Value> Backend<T> for PramBackend {
    fn name(&self) -> &'static str {
        Self::name_of(self.prim)
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities::of(&ProblemKind::ALL)
    }

    fn admits(&self, problem: &Problem<'_, T>) -> bool {
        match problem {
            Problem::Rows { structure, tie, .. } => {
                *structure != Structure::Plain && *tie == Tie::Left
            }
            Problem::Staircase { structure, .. } => *structure == Structure::Monge,
            _ => true,
        }
    }

    fn solve(
        &self,
        problem: &Problem<'_, T>,
        tuning: &Tuning,
        telemetry: &mut Telemetry,
    ) -> Solution<T> {
        let prim = self.prim;
        let stamp = |telemetry: &mut Telemetry, m: &monge_pram::Metrics| {
            telemetry.machine.steps = m.steps;
            telemetry.machine.work = m.work;
            telemetry.machine.processors = m.peak_processors;
            telemetry.machine.reads = m.reads;
            telemetry.machine.writes = m.writes;
            telemetry.machine.concurrent_read_events = m.concurrent_read_events;
            telemetry.machine.concurrent_write_events = m.concurrent_write_events;
            telemetry.machine.violations = m.violations;
        };
        match *problem {
            Problem::Rows {
                array,
                structure,
                objective,
                ..
            } => {
                let a = Metered::new(array);
                let t0 = Instant::now();
                let run = match (structure, objective) {
                    (Structure::Monge, Objective::Minimize) => {
                        pram_monge::pram_row_minima_monge(&a, prim)
                    }
                    (Structure::Monge, Objective::Maximize) => {
                        pram_monge::pram_row_maxima_monge(&a, prim)
                    }
                    (Structure::InverseMonge, Objective::Minimize) => {
                        pram_monge::pram_row_minima_inverse_monge(&a, prim)
                    }
                    (Structure::InverseMonge, Objective::Maximize) => {
                        pram_monge::pram_row_maxima_inverse_monge(&a, prim)
                    }
                    (Structure::Plain, _) => {
                        panic!("PRAM backend has no unstructured engine (check eligible() first)")
                    }
                };
                telemetry.record_phase("search", t0.elapsed().as_nanos());
                stamp(telemetry, &run.metrics);
                let t1 = Instant::now();
                let sol = Solution::Rows(RowExtrema::from_indices(&a, run.index));
                telemetry.record_phase("finalize", t1.elapsed().as_nanos());
                sol
            }
            Problem::Staircase {
                array, boundary, ..
            } => {
                let a = Metered::new(array);
                let t0 = Instant::now();
                let run =
                    pram_staircase::pram_staircase_row_minima_with(&a, boundary, prim, *tuning);
                telemetry.record_phase("search", t0.elapsed().as_nanos());
                stamp(telemetry, &run.metrics);
                let t1 = Instant::now();
                let sol =
                    Solution::Rows(RowExtrema::from_staircase_indices(&a, boundary, run.index));
                telemetry.record_phase("finalize", t1.elapsed().as_nanos());
                sol
            }
            Problem::Banded {
                array,
                lo,
                hi,
                objective,
            } => {
                let a = Metered::new(array);
                let t0 = Instant::now();
                let (index, metrics) = match objective {
                    Objective::Minimize => {
                        pram_monge::pram_banded_row_minima_monge(&a, lo, hi, prim)
                    }
                    Objective::Maximize => {
                        pram_monge::pram_banded_row_maxima_monge(&a, lo, hi, prim)
                    }
                };
                telemetry.record_phase("search", t0.elapsed().as_nanos());
                stamp(telemetry, &metrics);
                let t1 = Instant::now();
                let value = banded_values(&a, &index);
                telemetry.record_phase("finalize", t1.elapsed().as_nanos());
                Solution::Banded { index, value }
            }
            Problem::Tube { d, e, objective } => {
                let (dm, em) = (Metered::new(d), Metered::new(e));
                let t0 = Instant::now();
                let run = match objective {
                    Objective::Minimize => pram_tube::pram_tube_minima(&dm, &em, prim),
                    Objective::Maximize => pram_tube::pram_tube_maxima(&dm, &em, prim),
                };
                telemetry.record_phase("search", t0.elapsed().as_nanos());
                stamp(telemetry, &run.metrics);
                Solution::Tube(run.extrema)
            }
        }
    }
}

/// The simulated-hypercube backend. Rows and staircase problems must
/// carry the `g(v[i], w[j])` rank form (§3's distributed-input model);
/// tube problems take the two factors directly. Tube *maxima* is
/// deliberately unimplemented — the missing capability flag the
/// registry reports honestly. Populates the network and CCC /
/// shuffle-exchange emulation counters.
pub struct HypercubeBackend;

/// Stamps an [`hc_monge::HcRun`]'s metrics into the telemetry.
fn stamp_hc(
    telemetry: &mut Telemetry,
    metrics: &monge_hypercube::NetMetrics,
    emulation: &monge_hypercube::topology::EmulationCost,
) {
    telemetry.machine.local_steps = metrics.local_steps;
    telemetry.machine.comm_steps = metrics.comm_steps;
    telemetry.machine.messages = metrics.messages;
    telemetry.machine.ccc_steps = emulation.ccc_steps;
    telemetry.machine.se_steps = emulation.se_steps;
}

impl<T: Value> Backend<T> for HypercubeBackend {
    fn name(&self) -> &'static str {
        "hypercube"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities::of(&[
            ProblemKind::RowMinima,
            ProblemKind::RowMaxima,
            ProblemKind::StaircaseRowMinima,
            ProblemKind::TubeMinima,
        ])
    }

    fn admits(&self, problem: &Problem<'_, T>) -> bool {
        match problem {
            Problem::Rows { structure, tie, .. } => {
                problem.has_rank() && *structure != Structure::Plain && *tie == Tie::Left
            }
            Problem::Staircase { structure, .. } => {
                problem.has_rank() && *structure == Structure::Monge
            }
            Problem::Tube { .. } => true,
            Problem::Banded { .. } => false,
        }
    }

    fn solve(
        &self,
        problem: &Problem<'_, T>,
        _tuning: &Tuning,
        telemetry: &mut Telemetry,
    ) -> Solution<T> {
        match *problem {
            Problem::Rows {
                array,
                structure,
                objective,
                rank,
                ..
            } => {
                let rank = rank.expect("hypercube rows need the rank form (check eligible())");
                let t0 = Instant::now();
                // Count generator evaluations: every entry the network
                // computes goes through this closure.
                let g = rank.g;
                let run = {
                    let counting = |x: T, y: T| {
                        eval::add_evaluations(1);
                        g(x, y)
                    };
                    let negating = |x: T, y: T| {
                        eval::add_evaluations(1);
                        g(x, y).neg()
                    };
                    // The §1.2 dualities, in generator form: negating g
                    // turns inverse-Monge into Monge and swaps the
                    // objective; hc_row_maxima owns the column mirror.
                    match (structure, objective) {
                        (Structure::Monge, Objective::Minimize) => hc_monge::hc_row_minima(
                            &VectorArray::new(rank.v.to_vec(), rank.w.to_vec(), counting),
                        ),
                        (Structure::Monge, Objective::Maximize) => hc_monge::hc_row_maxima(
                            &VectorArray::new(rank.v.to_vec(), rank.w.to_vec(), counting),
                        ),
                        (Structure::InverseMonge, Objective::Maximize) => hc_monge::hc_row_minima(
                            &VectorArray::new(rank.v.to_vec(), rank.w.to_vec(), negating),
                        ),
                        (Structure::InverseMonge, Objective::Minimize) => hc_monge::hc_row_maxima(
                            &VectorArray::new(rank.v.to_vec(), rank.w.to_vec(), negating),
                        ),
                        (Structure::Plain, _) => {
                            panic!("hypercube backend has no unstructured engine")
                        }
                    }
                };
                telemetry.record_phase("search", t0.elapsed().as_nanos());
                stamp_hc(telemetry, &run.metrics, &run.emulation);
                let t1 = Instant::now();
                let a = Metered::new(array);
                let sol = Solution::Rows(RowExtrema::from_indices(&a, run.index));
                telemetry.record_phase("finalize", t1.elapsed().as_nanos());
                sol
            }
            Problem::Staircase {
                array,
                boundary,
                rank,
                ..
            } => {
                let rank = rank.expect("hypercube staircase needs the rank form");
                let t0 = Instant::now();
                let g = rank.g;
                let counting = |x: T, y: T| {
                    eval::add_evaluations(1);
                    g(x, y)
                };
                let va = VectorArray::new(rank.v.to_vec(), rank.w.to_vec(), counting);
                let run = hc_staircase::hc_staircase_row_minima(&va, boundary);
                telemetry.record_phase("search", t0.elapsed().as_nanos());
                stamp_hc(telemetry, &run.metrics, &run.emulation);
                let t1 = Instant::now();
                let a = Metered::new(array);
                let sol =
                    Solution::Rows(RowExtrema::from_staircase_indices(&a, boundary, run.index));
                telemetry.record_phase("finalize", t1.elapsed().as_nanos());
                sol
            }
            Problem::Tube { d, e, objective } => {
                assert_eq!(
                    objective,
                    Objective::Minimize,
                    "hypercube tube maxima is not implemented (missing capability flag)"
                );
                let (dm, em) = (Metered::new(d), Metered::new(e));
                let t0 = Instant::now();
                let run = hc_tube::hc_tube_minima(&dm, &em);
                telemetry.record_phase("search", t0.elapsed().as_nanos());
                stamp_hc(telemetry, &run.metrics, &run.emulation);
                Solution::Tube(run.extrema)
            }
            Problem::Banded { .. } => {
                panic!("hypercube backend has no banded engine")
            }
        }
    }
}

/// What the autotune consultation decided for one solve: the tuning to
/// run with, the winner backend when the table (or a fresh measurement)
/// named one, and the provenance to stamp into the telemetry.
pub(crate) struct AutotuneDecision {
    pub(crate) tuning: Tuning,
    pub(crate) backend: Option<&'static str>,
    pub(crate) provenance: TuningProvenance,
}

/// The instrumented engine registry: owns the [`Backend`]s, answers
/// eligibility queries, auto-selects a host engine by the grain policy,
/// and wraps every solve with the telemetry bookkeeping.
pub struct Dispatcher<T: Value> {
    backends: Vec<Box<dyn Backend<T>>>,
    /// This dispatcher's winner table ([`crate::autotune`]): its own
    /// in-memory instance unless one is attached.
    autotuner: Arc<Autotuner>,
    /// Per-dispatcher fault memory: breaker states, outcome windows,
    /// retry budget ([`crate::health`]). Fresh (environment-configured,
    /// monotonic clock) per dispatcher unless a shared or virtual-clock
    /// instance is attached.
    health: Arc<HealthRegistry>,
}

impl<T: Value> Default for Dispatcher<T> {
    fn default() -> Self {
        Self::with_default_backends()
    }
}

impl<T: Value> Dispatcher<T> {
    /// An empty registry.
    pub fn new() -> Self {
        Self {
            backends: Vec::new(),
            autotuner: Arc::new(Autotuner::in_memory(AutotuneMode::On)),
            health: Arc::new(HealthRegistry::from_env()),
        }
    }

    /// Replaces this dispatcher's [`Autotuner`] — how several
    /// dispatchers share one winner table, how a caller keeps a handle
    /// on the measurement counters, and how the autotuner is turned
    /// off ([`Autotuner::off`]).
    pub fn with_autotuner(mut self, tuner: Arc<Autotuner>) -> Self {
        self.autotuner = tuner;
        self
    }

    /// Replaces this dispatcher's [`HealthRegistry`] — how tests attach
    /// a virtual-clock registry, and how several dispatchers can share
    /// one fault memory.
    pub fn with_health_registry(mut self, health: Arc<HealthRegistry>) -> Self {
        self.health = health;
        self
    }

    /// The fault memory consulted by the guarded chain
    /// ([`crate::guarded`]), which every batch member ([`crate::batch`])
    /// walks too: breaker admission, outcome windows, the global retry
    /// budget.
    pub fn health(&self) -> &Arc<HealthRegistry> {
        &self.health
    }

    /// The standard registry: sequential, rayon, the two headline PRAM
    /// primitives (doubly-logarithmic CRCW and the constant-time
    /// quadratic-processor minimum) and the hypercube simulator.
    pub fn with_default_backends() -> Self {
        let mut d = Self::new();
        d.register(Box::new(SequentialBackend));
        d.register(Box::new(RayonBackend));
        d.register(Box::new(PramBackend::new(MinPrimitive::DoublyLog)));
        d.register(Box::new(PramBackend::new(MinPrimitive::Constant)));
        d.register(Box::new(HypercubeBackend));
        d
    }

    /// [`Dispatcher::with_default_backends`] plus the remaining PRAM
    /// primitives (`Tree`, `Combining`) — the full Table 1.1 column set,
    /// used by the bench tables and the conformance suite.
    pub fn with_all_backends() -> Self {
        let mut d = Self::with_default_backends();
        d.register(Box::new(PramBackend::new(MinPrimitive::Tree)));
        d.register(Box::new(PramBackend::new(MinPrimitive::Combining)));
        d
    }

    /// Adds a backend to the registry.
    pub fn register(&mut self, backend: Box<dyn Backend<T>>) {
        self.backends.push(backend);
    }

    /// Every registered backend, in registration order.
    pub fn backends(&self) -> impl Iterator<Item = &dyn Backend<T>> {
        self.backends.iter().map(|b| b.as_ref())
    }

    /// The registered backends eligible for `problem`.
    pub fn eligible(&self, problem: &Problem<'_, T>) -> Vec<&dyn Backend<T>> {
        self.backends().filter(|b| b.eligible(problem)).collect()
    }

    /// Looks a backend up by registry name.
    pub fn find(&self, name: &str) -> Option<&dyn Backend<T>> {
        self.backends().find(|b| b.name() == name)
    }

    /// Auto-selects a backend: the host engine the grain policy picks
    /// for this problem's search shape. Simulator backends are never
    /// auto-selected — ask for them by name via [`Dispatcher::solve_on`].
    ///
    /// # Panics
    /// If no registered host backend is eligible.
    pub fn select(&self, problem: &Problem<'_, T>, tuning: &Tuning) -> &dyn Backend<T> {
        let wants_parallel = match problem {
            Problem::Tube { d, .. } => d.rows() > tuning.tube_seq_planes.max(1),
            _ => {
                let (m, n) = problem.search_shape();
                m > tuning.seq_rows.max(1) || n > tuning.seq_scan.max(1)
            }
        };
        let pick = |name: &str| self.find(name).filter(|b| b.eligible(problem));
        let choice = if wants_parallel {
            pick("rayon").or_else(|| pick("sequential"))
        } else {
            pick("sequential").or_else(|| pick("rayon"))
        };
        choice.unwrap_or_else(|| {
            panic!(
                "no host backend registered for {:?} (eligible: {:?})",
                problem,
                self.eligible(problem)
                    .iter()
                    .map(|b| b.name())
                    .collect::<Vec<_>>()
            )
        })
    }

    /// Solves with environment-seeded tuning.
    pub fn solve(&self, problem: &Problem<'_, T>) -> (Solution<T>, Telemetry) {
        self.solve_with(problem, Tuning::from_env())
    }

    /// Solves with explicit tuning: auto-selects, runs, instruments.
    pub fn solve_with(&self, problem: &Problem<'_, T>, tuning: Tuning) -> (Solution<T>, Telemetry) {
        let backend = self.select(problem, &tuning);
        self.run(backend, problem, &tuning)
    }

    /// The batch layer's group decision: the winner from this
    /// dispatcher's table, measured on a cold key when `measure` is
    /// set; when the table has nothing for the call, the env-seeded
    /// defaults on the grain-policy backend.
    pub(crate) fn autotune_decision(
        &self,
        problem: &Problem<'_, T>,
        measure: bool,
    ) -> AutotuneDecision {
        let (m, n) = problem.search_shape();
        if m > 0 && n > 0 {
            let key = AutotuneKey::of(problem);
            let claim = if measure {
                self.autotuner.begin(key)
            } else {
                self.autotuner.lookup(&key).map_or(Claim::Pass, Claim::Hit)
            };
            match claim {
                Claim::Hit(w) => {
                    return AutotuneDecision {
                        tuning: w.tuning,
                        backend: Some(w.backend),
                        provenance: TuningProvenance::Cached,
                    }
                }
                Claim::Measure(token) => {
                    if let Some(w) = autotune::measure(self, problem) {
                        let decision = AutotuneDecision {
                            tuning: w.tuning,
                            backend: Some(w.backend),
                            provenance: TuningProvenance::Measured,
                        };
                        token.fulfill(w);
                        return decision;
                    }
                    // No eligible candidate: the token's drop releases
                    // the claim.
                }
                Claim::Pass => {}
            }
        }
        AutotuneDecision {
            tuning: Tuning::from_env(),
            backend: None,
            provenance: TuningProvenance::Default,
        }
    }

    /// Solves on the named backend (simulators included), or `None` if
    /// the name is unknown or the backend is not eligible for this
    /// problem — the registry's honest answer to a missing capability.
    pub fn solve_on(
        &self,
        name: &str,
        problem: &Problem<'_, T>,
        tuning: Tuning,
    ) -> Option<(Solution<T>, Telemetry)> {
        let backend = self.find(name)?;
        if !backend.eligible(problem) {
            return None;
        }
        Some(self.run(backend, problem, &tuning))
    }

    /// The instrumentation wrapper: runs the backend under the tuning's
    /// kernel pin, then stamps identity, wall clock and the change in
    /// this thread's tally, forks included.
    pub(crate) fn run(
        &self,
        backend: &dyn Backend<T>,
        problem: &Problem<'_, T>,
        tuning: &Tuning,
    ) -> (Solution<T>, Telemetry) {
        let mut telemetry = Telemetry {
            backend: backend.name(),
            kind: Some(problem.kind()),
            // Callers that hand a tuning in directly (per-call or
            // env-seeded) are the `default` provenance; the batch layer
            // overwrites this with its group decision's.
            provenance: Some(TuningProvenance::Default),
            ..Telemetry::default()
        };
        let before = state::tally();
        let start = Instant::now();
        let solution = kernel::with_kernel(tuning.kernel, || {
            backend.solve(problem, tuning, &mut telemetry)
        });
        telemetry.total_nanos = start.elapsed().as_nanos();
        let spent = state::tally().since(before);
        telemetry.evaluations = spent.evaluations;
        telemetry.comparisons = spent.comparisons;
        telemetry.arena_checkouts = spent.checkouts;
        telemetry.tasks = spent.tasks;
        (solution, telemetry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monge_core::array2d::Dense;
    use monge_core::generators::random_monge_dense;
    use monge_core::monge::{brute_row_maxima, brute_row_minima};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn monge_fixture(m: usize, n: usize, seed: u64) -> Dense<i64> {
        let mut rng = StdRng::seed_from_u64(seed);
        random_monge_dense(m, n, &mut rng)
    }

    #[test]
    fn capability_sets_roundtrip() {
        let c = Capabilities::of(&[ProblemKind::RowMinima, ProblemKind::TubeMaxima]);
        assert!(c.supports(ProblemKind::RowMinima));
        assert!(c.supports(ProblemKind::TubeMaxima));
        assert!(!c.supports(ProblemKind::BandedRowMinima));
        assert_eq!(
            c.kinds(),
            vec![ProblemKind::RowMinima, ProblemKind::TubeMaxima]
        );
        assert_eq!(Capabilities::NONE.kinds(), vec![]);
    }

    #[test]
    fn auto_selection_respects_the_grain_policy() {
        let d = Dispatcher::<i64>::with_default_backends();
        let small = monge_fixture(4, 4, 1);
        let big = monge_fixture(4096, 8, 2);
        let t = Tuning::DEFAULT;
        assert_eq!(
            d.select(&Problem::row_minima(&small), &t).name(),
            "sequential"
        );
        assert_eq!(d.select(&Problem::row_minima(&big), &t).name(), "rayon");
    }

    #[test]
    fn simulators_are_never_auto_selected() {
        let d = Dispatcher::<i64>::with_all_backends();
        let a = monge_fixture(512, 512, 3);
        let name = d.select(&Problem::row_minima(&a), &Tuning::DEFAULT).name();
        assert!(name == "sequential" || name == "rayon", "picked {name}");
    }

    #[test]
    fn banded_problems_fall_back_to_sequential() {
        let d = Dispatcher::<i64>::with_default_backends();
        let a = monge_fixture(4096, 16, 4);
        let lo = vec![0usize; 4096];
        let hi = vec![16usize; 4096];
        let p = Problem::banded_row_minima(&a, &lo, &hi);
        // Larger than every cutoff, but rayon has no banded engine.
        assert_eq!(d.select(&p, &Tuning::DEFAULT).name(), "sequential");
    }

    #[test]
    fn dispatched_rows_match_brute_on_every_backend() {
        let d = Dispatcher::<i64>::with_all_backends();
        let a = monge_fixture(24, 17, 5);
        let v: Vec<i64> = (0..24).map(|i| i as i64).collect();
        let w: Vec<i64> = (0..17).map(|j| j as i64).collect();
        let g = |x: i64, y: i64| (x - y) * (x - y);
        let p = Problem::row_minima(&a);
        let want = brute_row_minima(&a);
        for b in d.eligible(&p) {
            let (sol, tel) = d.solve_on(b.name(), &p, Tuning::DEFAULT).unwrap();
            assert_eq!(sol.rows().index, want, "{}", b.name());
            assert!(tel.evaluations > 0, "{} evaluations", b.name());
        }
        // The rank form unlocks the hypercube; the array and generator
        // must agree for the comparison to be meaningful.
        let rk = Dense::tabulate(24, 17, |i, j| g(v[i], w[j]));
        let p = Problem::row_minima(&rk).with_rank(&v, &w, &g);
        let want = brute_row_minima(&rk);
        let (sol, tel) = d.solve_on("hypercube", &p, Tuning::DEFAULT).unwrap();
        assert_eq!(sol.rows().index, want);
        assert!(tel.evaluations > 0);
        assert!(tel.machine.comm_steps > 0);
    }

    #[test]
    fn maxima_are_solved_via_the_lowering_not_a_twin() {
        let d = Dispatcher::<i64>::with_default_backends();
        let a = monge_fixture(30, 19, 6);
        let p = Problem::row_maxima(&a);
        let want = brute_row_maxima(&a);
        for b in d.eligible(&p) {
            let (sol, _) = d.solve_on(b.name(), &p, Tuning::DEFAULT).unwrap();
            assert_eq!(sol.rows().index, want, "{}", b.name());
        }
    }

    #[test]
    fn missing_capability_is_an_honest_none() {
        let d = Dispatcher::<i64>::with_default_backends();
        let a = monge_fixture(6, 6, 7);
        let e = monge_fixture(6, 6, 8);
        let p = Problem::tube_maxima(&a, &e);
        // No rank form → hypercube ineligible for rows; tube maxima →
        // hypercube ineligible outright.
        assert!(d.solve_on("hypercube", &p, Tuning::DEFAULT).is_none());
        assert!(d.solve_on("no-such-backend", &p, Tuning::DEFAULT).is_none());
        let rows = Problem::row_minima(&a);
        assert!(d.solve_on("hypercube", &rows, Tuning::DEFAULT).is_none());
    }

    #[test]
    fn telemetry_counts_tasks_and_checkouts_under_rayon() {
        let d = Dispatcher::<i64>::with_default_backends();
        let a = monge_fixture(600, 40, 9);
        let p = Problem::row_minima(&a);
        let t = Tuning {
            seq_rows: 4,
            ..Tuning::DEFAULT
        };
        let (sol, tel) = d.solve_on("rayon", &p, t).unwrap();
        assert_eq!(sol.rows().index, brute_row_minima(&a));
        assert!(tel.tasks > 0, "tasks = {}", tel.tasks);
        assert!(tel.arena_checkouts > 0);
        assert!(tel.evaluations > 0);
        assert_eq!(tel.backend, "rayon");
        assert_eq!(tel.kind, Some(ProblemKind::RowMinima));
    }

    #[test]
    fn plain_rows_run_on_host_backends_only() {
        // Not Monge: a checkerboard. Plain structure is the only honest
        // description, and only the host backends accept it.
        let a = Dense::tabulate(9, 9, |i, j| if (i + j) % 2 == 0 { 0i64 } else { 1 });
        let d = Dispatcher::<i64>::with_all_backends();
        let p = Problem::plain_row_minima(&a);
        let names: Vec<&str> = d.eligible(&p).iter().map(|b| b.name()).collect();
        assert_eq!(names, vec!["sequential", "rayon"]);
        let want = brute_row_minima(&a);
        for name in names {
            let (sol, _) = d.solve_on(name, &p, Tuning::DEFAULT).unwrap();
            assert_eq!(sol.rows().index, want, "{name}");
        }
        let pmax = Problem::plain_row_maxima(&a);
        let want = brute_row_maxima(&a);
        for b in d.eligible(&pmax) {
            let (sol, _) = d.solve_on(b.name(), &pmax, Tuning::DEFAULT).unwrap();
            assert_eq!(sol.rows().index, want, "{}", b.name());
        }
    }

    #[test]
    fn rightmost_tie_rule_flows_through_dispatch() {
        let a = Dense::filled(5, 7, 1i64);
        let d = Dispatcher::<i64>::with_default_backends();
        for p in [
            Problem::row_minima(&a).with_tie(Tie::Right),
            Problem::plain_row_minima(&a).with_tie(Tie::Right),
        ] {
            for b in d.eligible(&p) {
                let (sol, _) = d.solve_on(b.name(), &p, Tuning::DEFAULT).unwrap();
                assert_eq!(sol.rows().index, vec![6; 5], "{}", b.name());
            }
        }
    }

    #[test]
    fn explicit_tuning_paths_stamp_default_provenance() {
        let d = Dispatcher::<i64>::with_default_backends();
        let a = monge_fixture(48, 48, 11);
        let p = Problem::row_minima(&a);
        let (_, tel) = d.solve_with(&p, Tuning::DEFAULT);
        assert_eq!(tel.provenance, Some(TuningProvenance::Default));
        let (_, tel) = d.solve(&p);
        assert_eq!(tel.provenance, Some(TuningProvenance::Default));
    }

    #[test]
    fn phases_sum_stays_within_the_total() {
        let d = Dispatcher::<i64>::with_default_backends();
        let a = monge_fixture(64, 64, 10);
        let (_, tel) = d.solve(&Problem::row_minima(&a));
        assert!(!tel.phases.is_empty());
        assert!(tel.phase_nanos() <= tel.total_nanos);
    }
}
