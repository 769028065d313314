//! Batched solving: amortized dispatch over heterogeneous problem
//! streams ([`Dispatcher::solve_batch`]) and a [`SolverService`] front
//! door with per-tenant telemetry rollups.
//!
//! This module makes the dispatch stack's backend and tuning decision
//! once per group of alike problems, measured by the autotuner
//! ([`crate::autotune`]) instead of guessed from the shape, and runs
//! every member through the same guarded attempt primitive as
//! `solve_guarded`:
//!
//! 1. **Admission.** Every problem is precondition-checked and its
//!    structural promise validated exactly once (the same
//!    [`GuardPolicy`] semantics as `solve_guarded`), under the batch
//!    deadline: violations fail or quarantine the individual problem,
//!    never the batch.
//! 2. **Grouping.** Admitted problems are grouped by their
//!    [`AutotuneKey`] (kind, structure, element type, size class, lane
//!    kernels), so one lookup in the dispatcher's autotune table (or
//!    one single-flight measurement, on the group's costliest member)
//!    decides the backend and the [`Tuning`] for every member; the
//!    decision's provenance is stamped into each member's
//!    [`Telemetry`].
//! 3. **Admission control.** A per-batch deadline is carved into
//!    per-group slices proportional to estimated cost. A batch with a
//!    deadline measures no cold key: the group runs on the defaults
//!    and the key stays cold for a batch without one. Each member walks
//!    the guarded fallback chain from its group's backend, without
//!    re-validating, with what remains of its group's slice as its
//!    deadline: a panicking or starved member degrades alone.
//!    Quarantined members run the brute-force terminal alone. Groups
//!    whose estimated cost exceeds [`BatchPolicy::max_group_cost`] are
//!    **shed**: they skip the group decision, and each member's chain
//!    starts at the grain-policy choice.
//! 4. **Rollups.** Per-problem [`Telemetry`] is merged via
//!    [`Telemetry::merge`]; the [`SolverService`] accumulates the same
//!    rollups per tenant.
//!
//! Members run one after another on the calling thread; a member's
//! backend may still fork internally. A serving drain's groups hold two
//! or three members each, too few for splitting them across threads to
//! pay for the forks.
//!
//! ```
//! use monge_core::array2d::Dense;
//! use monge_core::problem::Problem;
//! use monge_parallel::batch::BatchPolicy;
//! use monge_parallel::Dispatcher;
//!
//! let a = Dense::tabulate(64, 64, |i, j| {
//!     let d = i as i64 - j as i64;
//!     d * d
//! });
//! let b = Dense::tabulate(16, 48, |i, j| (i as i64 - j as i64).abs());
//! let batch = [Problem::row_minima(&a), Problem::row_minima(&b)];
//! let d = Dispatcher::with_default_backends();
//! let results = d.solve_batch(&batch, BatchPolicy::default());
//! assert_eq!(results.len(), 2);
//! assert!(results.iter().all(|r| r.is_ok()));
//! ```

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use monge_core::guard::{Attempt, AttemptOutcome, CancelToken, GuardPolicy, SolveError};
use monge_core::problem::{Problem, Solution, Structure, Telemetry, TuningProvenance};
use monge_core::queryindex::QueryIndex;
use monge_core::value::Value;

use crate::autotune::AutotuneKey;
use crate::dispatch::{AutotuneDecision, Dispatcher};
use crate::guarded::attempt;
use crate::tuning::Tuning;

/// How a batch executes: guard semantics per problem, a wall-clock
/// budget for the whole batch, and how each group's backend and tuning
/// are decided.
#[derive(Clone, Copy, Debug, Default)]
pub struct BatchPolicy {
    /// Per-problem guard semantics: validation mode, violation action,
    /// fallback depth and sampling seed. The policy's own `deadline`
    /// field is ignored — use [`BatchPolicy::deadline`], which is
    /// carved into per-group slices.
    pub guard: GuardPolicy,
    /// Wall-clock budget for the whole batch: admission runs under it,
    /// and it is carved into per-group slices proportional to
    /// estimated cost. A starved group degrades to
    /// [`SolveError::DeadlineExceeded`] for its own members only. A
    /// batch with a deadline measures no cold key; its groups run on
    /// the table's winners or the defaults.
    pub deadline: Option<Duration>,
    /// Explicit tuning override: members run with it and start at the
    /// grain-policy choice. `None` (the default) decides each group's
    /// backend and tuning through the dispatcher's autotuner, once,
    /// keyed by the group's most expensive member — the per-call rung
    /// of [`crate::tuning`]'s ladder beating the autotune rung.
    pub tuning: Option<Tuning>,
    /// Load-shedding threshold: groups whose estimated cost (in entry
    /// evaluations) exceeds this skip the group decision, and each
    /// member starts its fallback chain at the grain-policy choice.
    /// `None` (the default) never sheds.
    pub max_group_cost: Option<u64>,
}

impl BatchPolicy {
    /// Sets the per-problem guard semantics.
    #[must_use]
    pub fn with_guard(mut self, guard: GuardPolicy) -> Self {
        self.guard = guard;
        self
    }

    /// Sets the whole-batch wall-clock budget.
    #[must_use]
    pub fn with_deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Pins an explicit tuning instead of deciding per group.
    #[must_use]
    pub fn with_tuning(mut self, t: Tuning) -> Self {
        self.tuning = Some(t);
        self
    }

    /// Sets the load-shedding threshold (estimated entry evaluations).
    #[must_use]
    pub fn shed_above(mut self, cost: u64) -> Self {
        self.max_group_cost = Some(cost);
        self
    }
}

/// What a whole batch did: per-problem results and telemetry plus the
/// group-level accounting the service and the benches report.
pub struct BatchReport<T> {
    /// Per-problem outcome, in input order.
    pub results: Vec<Result<Solution<T>, SolveError>>,
    /// Per-problem telemetry, in input order (default for problems that
    /// failed preconditions before reaching an engine).
    pub telemetry: Vec<Telemetry>,
    /// How many [`AutotuneKey`] groups the batch formed.
    pub groups: usize,
    /// How many groups were shed by [`BatchPolicy::max_group_cost`].
    pub shed_groups: usize,
}

impl<T: Value> BatchReport<T> {
    /// Whole-batch telemetry rollup via [`Telemetry::merge`].
    pub fn rollup(&self) -> Telemetry {
        Telemetry::merge(&self.telemetry)
    }
}

/// `~ n/m + ceil lg m`: entries a structured engine touches per row.
fn structured_row_cost(m: usize, n: usize) -> u64 {
    let lg = 64 - (m.max(2) as u64 - 1).leading_zeros() as u64;
    (n / m.max(1)) as u64 + lg
}

/// Estimated entry evaluations of one solve: the weight behind the
/// deadline slices, the shed threshold and the choice of a group's
/// costliest member. Zero only for a problem with no rows (planes).
fn estimated_cost<T: Value>(p: &Problem<'_, T>) -> u128 {
    let (units, unit) = match *p {
        Problem::Rows {
            array, structure, ..
        } => {
            let (m, n) = (array.rows(), array.cols());
            let unit = if structure == Structure::Plain {
                n as u64
            } else {
                structured_row_cost(m, n)
            };
            (m, unit)
        }
        Problem::Staircase { array, .. } => {
            let (m, n) = (array.rows(), array.cols());
            (m, structured_row_cost(m, n))
        }
        Problem::Banded { lo, hi, .. } => {
            let m = lo.len();
            let total: u64 = lo
                .iter()
                .zip(hi)
                .map(|(&l, &h)| h.saturating_sub(l) as u64)
                .sum();
            (m, total / m.max(1) as u64)
        }
        // A tube plane is a full SMAWK pass over an r×q Monge plane,
        // ~5(q + r) entries (cf. the calibration model in `runtime`).
        Problem::Tube { d, e, .. } => (d.rows(), 5 * (d.cols() + e.cols()) as u64),
    };
    units as u128 * unit.max(1) as u128
}

impl<T: Value> Dispatcher<T> {
    /// Solves a batch of heterogeneous problems with amortized dispatch:
    /// grouped by [`AutotuneKey`], one backend and
    /// tuning decision per group, each member through the guarded
    /// fallback chain from its group's backend, per-group deadline
    /// slices and load shedding. See the [module docs](crate::batch)
    /// and [`BatchPolicy`].
    ///
    /// Results are in input order; each problem fails or succeeds
    /// individually, with the same answers a sequential
    /// `solve_guarded` loop would produce.
    pub fn solve_batch(
        &self,
        problems: &[Problem<'_, T>],
        policy: BatchPolicy,
    ) -> Vec<Result<Solution<T>, SolveError>> {
        self.solve_batch_report(problems, &policy).results
    }

    /// [`Dispatcher::solve_batch`] with the full per-problem telemetry
    /// and group accounting.
    pub fn solve_batch_report(
        &self,
        problems: &[Problem<'_, T>],
        policy: &BatchPolicy,
    ) -> BatchReport<T> {
        let start = Instant::now();
        let n = problems.len();
        let mut results: Vec<Option<Result<Solution<T>, SolveError>>> =
            (0..n).map(|_| None).collect();
        let mut telemetry: Vec<Telemetry> = (0..n).map(|_| Telemetry::default()).collect();

        // A member, or its admission, ran on a share of the batch
        // budget; report the budget the caller set.
        let report_budget = |e: SolveError| match e {
            SolveError::DeadlineExceeded { .. } => SolveError::DeadlineExceeded {
                elapsed: start.elapsed(),
                deadline: policy.deadline.unwrap_or_default(),
            },
            e => e,
        };

        // --- Admission: preconditions + exactly one validation per
        //     request, under the batch deadline. Admitted problems are
        //     grouped in first-appearance order; quarantined ones form a
        //     brute-force lane. ---
        let admission = policy.deadline.map(CancelToken::with_deadline);
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let mut by_key: HashMap<AutotuneKey, usize> = HashMap::new();
        let mut quarantined: Vec<usize> = Vec::new();
        for (i, p) in problems.iter().enumerate() {
            match self.admit(p, &policy.guard, admission.as_ref()) {
                Ok(verdict) => {
                    if verdict.quarantined {
                        quarantined.push(i);
                    } else {
                        let g = *by_key.entry(AutotuneKey::of(p)).or_insert_with(|| {
                            groups.push(Vec::new());
                            groups.len() - 1
                        });
                        groups[g].push(i);
                    }
                    telemetry[i].guard = Some(verdict);
                }
                Err(e) => results[i] = Some(Err(report_budget(e))),
            }
        }

        // --- Deadline carving: per-lane slices proportional to
        //     estimated cost (the brute scan's for the quarantine lane).
        let group_costs: Vec<u128> = groups
            .iter()
            .map(|members| members.iter().map(|&i| estimated_cost(&problems[i])).sum())
            .collect();
        let quarantine_cost: u128 = quarantined
            .iter()
            .map(|&i| {
                let (m, n) = problems[i].search_shape();
                m as u128 * n as u128
            })
            .sum();
        let total_cost = (group_costs.iter().sum::<u128>() + quarantine_cost).max(1);

        // --- One decision per lane, then the guarded primitive once
        //     per member. ---
        let mut shed_groups = 0usize;
        let lanes = groups
            .iter()
            .zip(group_costs)
            .map(|(members, cost)| (members, cost, false))
            .chain(std::iter::once((&quarantined, quarantine_cost, true)));
        for (members, cost, brute_only) in lanes {
            if members.is_empty() {
                continue;
            }
            // A lane without rows has nothing to cancel.
            let slice = policy
                .deadline
                .filter(|_| cost > 0)
                .map(|d| CancelToken::with_deadline(d.mul_f64(cost as f64 / total_cost as f64)));
            let shed = !brute_only && policy.max_group_cost.is_some_and(|c| cost > c as u128);
            shed_groups += usize::from(shed);
            let fallback = || AutotuneDecision {
                tuning: policy.tuning.unwrap_or_else(Tuning::from_env),
                backend: None,
                provenance: TuningProvenance::Default,
            };
            let decision = if brute_only || shed || policy.tuning.is_some() {
                fallback()
            } else {
                // Members share the group's key, so one table entry
                // covers the group. A measurement times every candidate
                // several times and does not fit a deadline: a batch
                // with one serves the table's winners and leaves a cold
                // key to the defaults. A measurement that panics (the
                // array itself may) leaves the members to the defaults
                // and is recorded as their first attempt.
                let costliest = members
                    .iter()
                    .copied()
                    .max_by_key(|&i| estimated_cost(&problems[i]))
                    .expect("lane is not empty");
                let measure = policy.deadline.is_none();
                match attempt("autotune", None, start, &policy.guard, || {
                    self.autotune_decision(&problems[costliest], measure)
                }) {
                    Ok(decision) => decision,
                    Err(_) => {
                        for &i in members {
                            if let Some(guard) = telemetry[i].guard.as_mut() {
                                guard.attempts.push(Attempt {
                                    backend: "autotune",
                                    outcome: AttemptOutcome::Panicked,
                                });
                            }
                        }
                        fallback()
                    }
                }
            };
            // A table shared with another registry may name a backend
            // this one lacks.
            let first = decision.backend.filter(|&name| self.find(name).is_some());
            for &i in members {
                let guard = GuardPolicy {
                    deadline: slice.as_ref().and_then(CancelToken::remaining),
                    ..policy.guard
                };
                let verdict = telemetry[i].guard.clone();
                results[i] = Some(
                    match self.guarded_impl(&problems[i], &guard, decision.tuning, first, verdict) {
                        Ok((sol, tel)) => {
                            telemetry[i] = tel;
                            Ok(sol)
                        }
                        Err(e) => Err(report_budget(e)),
                    },
                );
                telemetry[i].provenance = Some(decision.provenance);
            }
        }

        BatchReport {
            results: results
                .into_iter()
                .map(|r| r.expect("every problem is refused at admission or solved"))
                .collect(),
            telemetry,
            groups: groups.len(),
            shed_groups,
        }
    }
}

/// Why [`SolverService::submit`] refused a problem — typed backpressure
/// the caller can act on (drain now, shed load, or retry after the next
/// drain) instead of an unbounded queue absorbing an overload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The service's bounded pending queue is full; drain before
    /// submitting more.
    Overloaded {
        /// Problems currently pending.
        pending: usize,
        /// The queue bound ([`SolverService::with_max_pending`]).
        capacity: usize,
    },
    /// This tenant reached its in-flight quota; other tenants may still
    /// submit.
    TenantOverQuota {
        /// The refused tenant.
        tenant: String,
        /// That tenant's pending problems.
        pending: usize,
        /// The per-tenant bound ([`SolverService::with_tenant_quota`]).
        quota: usize,
    },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Overloaded { pending, capacity } => {
                write!(
                    f,
                    "service overloaded: {pending} pending of {capacity} capacity"
                )
            }
            SubmitError::TenantOverQuota {
                tenant,
                pending,
                quota,
            } => {
                write!(
                    f,
                    "tenant '{tenant}' over quota: {pending} pending of {quota} allowed"
                )
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// A front door for streams of heterogeneous problems: submit per
/// tenant (against a bounded queue and optional per-tenant quotas),
/// drain as one amortized batch, read per-tenant telemetry rollups.
///
/// Drains are *graceful* under pressure: the batch deadline is carved
/// into per-group slices, and a past-deadline or faulting member
/// degrades alone on its own fallback chain instead of stalling or
/// failing the whole drain — submission order of the results is
/// preserved regardless.
///
/// ```
/// use monge_core::array2d::Dense;
/// use monge_core::problem::Problem;
/// use monge_parallel::batch::{BatchPolicy, SolverService};
/// use monge_parallel::Dispatcher;
///
/// let a = Dense::tabulate(32, 32, |i, j| {
///     let d = i as i64 - j as i64;
///     d * d
/// });
/// let d = Dispatcher::with_default_backends();
/// let mut svc = SolverService::with_dispatcher(d, BatchPolicy::default());
/// svc.submit("tenant-a", Problem::row_minima(&a)).unwrap();
/// svc.submit("tenant-b", Problem::row_maxima(&a)).unwrap();
/// let results = svc.drain();
/// assert!(results.iter().all(|r| r.is_ok()));
/// assert!(svc.tenant_telemetry("tenant-a").unwrap().evaluations > 0);
/// ```
pub struct SolverService<'a, T: Value> {
    dispatcher: Dispatcher<T>,
    policy: BatchPolicy,
    queue: Vec<(String, Problem<'a, T>)>,
    tenants: HashMap<String, Telemetry>,
    max_pending: usize,
    tenant_quota: Option<usize>,
    pending_by_tenant: HashMap<String, usize>,
    indexes: HashMap<String, HashMap<String, Arc<QueryIndex<T>>>>,
}

/// Default bound on a service's pending queue.
pub const DEFAULT_MAX_PENDING: usize = 4096;

impl<'a, T: Value> SolverService<'a, T> {
    /// A service over [`Dispatcher::with_default_backends`].
    pub fn new(policy: BatchPolicy) -> Self {
        Self::with_dispatcher(Dispatcher::with_default_backends(), policy)
    }

    /// A service over a custom registry.
    pub fn with_dispatcher(dispatcher: Dispatcher<T>, policy: BatchPolicy) -> Self {
        SolverService {
            dispatcher,
            policy,
            queue: Vec::new(),
            tenants: HashMap::new(),
            max_pending: DEFAULT_MAX_PENDING,
            tenant_quota: None,
            pending_by_tenant: HashMap::new(),
            indexes: HashMap::new(),
        }
    }

    /// Bounds the pending queue (default [`DEFAULT_MAX_PENDING`]); a
    /// full queue refuses submissions with [`SubmitError::Overloaded`].
    #[must_use]
    pub fn with_max_pending(mut self, capacity: usize) -> Self {
        self.max_pending = capacity;
        self
    }

    /// Caps any one tenant's pending problems; an over-quota tenant is
    /// refused with [`SubmitError::TenantOverQuota`] while others keep
    /// submitting — one noisy tenant cannot monopolize the queue.
    #[must_use]
    pub fn with_tenant_quota(mut self, quota: usize) -> Self {
        self.tenant_quota = Some(quota);
        self
    }

    /// The underlying registry (e.g. to register extra backends before
    /// the first drain).
    pub fn dispatcher_mut(&mut self) -> &mut Dispatcher<T> {
        &mut self.dispatcher
    }

    /// The dispatcher's fault memory ([`crate::health`]): breaker
    /// states and the retry budget carried across drains.
    pub fn health(&self) -> &std::sync::Arc<crate::health::HealthRegistry> {
        self.dispatcher.health()
    }

    /// Enqueues a problem for `tenant`; on success returns its index in
    /// the next [`SolverService::drain`]'s result vector. Refusals are
    /// typed backpressure ([`SubmitError`]) and leave the queue
    /// unchanged.
    pub fn submit(&mut self, tenant: &str, problem: Problem<'a, T>) -> Result<usize, SubmitError> {
        if self.queue.len() >= self.max_pending {
            return Err(SubmitError::Overloaded {
                pending: self.queue.len(),
                capacity: self.max_pending,
            });
        }
        let tenant_pending = self.pending_by_tenant.get(tenant).copied().unwrap_or(0);
        if let Some(quota) = self.tenant_quota {
            if tenant_pending >= quota {
                return Err(SubmitError::TenantOverQuota {
                    tenant: tenant.to_string(),
                    pending: tenant_pending,
                    quota,
                });
            }
        }
        *self
            .pending_by_tenant
            .entry(tenant.to_string())
            .or_insert(0) += 1;
        self.queue.push((tenant.to_string(), problem));
        Ok(self.queue.len() - 1)
    }

    /// Problems waiting for the next drain.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Problems `tenant` has waiting for the next drain.
    pub fn tenant_pending(&self, tenant: &str) -> usize {
        self.pending_by_tenant.get(tenant).copied().unwrap_or(0)
    }

    /// Builds (or fetches) `tenant`'s named [`QueryIndex`] over
    /// `problem`'s array, under the service's guard policy.
    ///
    /// The first call for a `(tenant, name)` pair runs
    /// [`Dispatcher::build_index_guarded`] and folds the build's
    /// telemetry (evaluations, `index_builds`, `index_bytes`,
    /// `index_breakpoints`, build phase) into the tenant's rollup.
    /// Later calls return the cached handle and bump the rollup's
    /// `index_hits` instead — the handle stays live across drains, so a
    /// tenant preprocesses once and serves query batches indefinitely.
    /// Handles are [`Arc`]s: clones stay valid even after
    /// [`SolverService::drop_index`].
    ///
    /// # Errors
    ///
    /// As for [`Dispatcher::build_index_guarded`]; a failed build caches
    /// nothing.
    pub fn build_index(
        &mut self,
        tenant: &str,
        name: &str,
        problem: &Problem<'_, T>,
    ) -> Result<Arc<QueryIndex<T>>, SolveError> {
        if let Some(ix) = self
            .indexes
            .get(tenant)
            .and_then(|named| named.get(name))
            .cloned()
        {
            let rollup = self.tenants.entry(tenant.to_string()).or_default();
            rollup.index_hits = rollup.index_hits.saturating_add(1);
            return Ok(ix);
        }
        let (ix, tel) = self
            .dispatcher
            .build_index_guarded(problem, &self.policy.guard)?;
        self.tenants
            .entry(tenant.to_string())
            .or_default()
            .accumulate(&tel);
        let ix = Arc::new(ix);
        self.indexes
            .entry(tenant.to_string())
            .or_default()
            .insert(name.to_string(), Arc::clone(&ix));
        Ok(ix)
    }

    /// `tenant`'s named index handle, if one has been built.
    pub fn index(&self, tenant: &str, name: &str) -> Option<Arc<QueryIndex<T>>> {
        self.indexes
            .get(tenant)
            .and_then(|named| named.get(name))
            .cloned()
    }

    /// Evicts `tenant`'s named index, folding its unharvested query
    /// counters into the tenant rollup first. Returns whether an index
    /// was cached under that name. Outstanding [`Arc`] clones keep
    /// serving; only the service's handle is dropped.
    pub fn drop_index(&mut self, tenant: &str, name: &str) -> bool {
        let Some(named) = self.indexes.get_mut(tenant) else {
            return false;
        };
        let Some(ix) = named.remove(name) else {
            return false;
        };
        if named.is_empty() {
            self.indexes.remove(tenant);
        }
        let (queries, probes) = ix.take_counters();
        let rollup = self.tenants.entry(tenant.to_string()).or_default();
        rollup.index_queries = rollup.index_queries.saturating_add(queries);
        rollup.index_probes = rollup.index_probes.saturating_add(probes);
        true
    }

    /// Solves everything submitted since the last drain as one batch
    /// (in submission order), folds each problem's telemetry into its
    /// tenant's rollup, and returns the per-problem outcomes.
    ///
    /// Also harvests every cached [`QueryIndex`]'s usage counters since
    /// the previous drain into its tenant's `index_queries` /
    /// `index_probes`, so rollups account for query serving alongside
    /// solves.
    pub fn drain(&mut self) -> Vec<Result<Solution<T>, SolveError>> {
        let queue = std::mem::take(&mut self.queue);
        self.pending_by_tenant.clear();
        let problems: Vec<Problem<'a, T>> = queue.iter().map(|(_, p)| *p).collect();
        let report = self.dispatcher.solve_batch_report(&problems, &self.policy);
        for ((tenant, _), tel) in queue.iter().zip(&report.telemetry) {
            self.tenants
                .entry(tenant.clone())
                .or_default()
                .accumulate(tel);
        }
        for (tenant, named) in &self.indexes {
            let mut queries = 0u64;
            let mut probes = 0u64;
            for ix in named.values() {
                let (q, p) = ix.take_counters();
                queries = queries.saturating_add(q);
                probes = probes.saturating_add(p);
            }
            if queries != 0 || probes != 0 {
                let rollup = self.tenants.entry(tenant.clone()).or_default();
                rollup.index_queries = rollup.index_queries.saturating_add(queries);
                rollup.index_probes = rollup.index_probes.saturating_add(probes);
            }
        }
        report.results
    }

    /// The accumulated rollup for one tenant (across every drain).
    pub fn tenant_telemetry(&self, tenant: &str) -> Option<&Telemetry> {
        self.tenants.get(tenant)
    }

    /// Every tenant's rollup, in arbitrary order.
    pub fn tenants(&self) -> impl Iterator<Item = (&str, &Telemetry)> {
        self.tenants.iter().map(|(k, v)| (k.as_str(), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guarded::BRUTE;
    use monge_core::array2d::{Array2d, Dense};
    use monge_core::generators::random_monge_dense;
    use monge_core::guard::Validation;
    use monge_core::problem::Objective;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn monge(m: usize, n: usize, seed: u64) -> Dense<i64> {
        let mut rng = StdRng::seed_from_u64(seed);
        random_monge_dense(m, n, &mut rng)
    }

    /// The backend a one-at-a-time `solve_guarded` starts `p` on.
    fn grain_choice(d: &Dispatcher<i64>, p: &Problem<'_, i64>) -> &'static str {
        d.select(p, &Tuning::from_env()).name()
    }

    #[test]
    fn batch_matches_individual_solves_across_kinds() {
        let a = monge(33, 47, 1);
        let b = monge(64, 16, 2);
        let small = monge(5, 5, 3);
        let boundary: Vec<usize> = (0..33).map(|i| 47 - i).collect();
        let lo: Vec<usize> = (0..33).map(|i| i / 2).collect();
        let hi: Vec<usize> = (0..33).map(|i| (i / 2 + 9).min(47)).collect();
        // Tube factors must chain: b is 64×16, so e needs 16 rows.
        let e = monge(16, 9, 4);
        let problems = vec![
            Problem::row_minima(&a),
            Problem::row_maxima(&b),
            Problem::row_minima(&small),
            Problem::staircase_row_minima(&a, &boundary),
            Problem::banded_row_minima(&a, &lo, &hi),
            Problem::tube_minima(&b, &e),
            Problem::plain_row_minima(&a),
        ];

        let d = Dispatcher::with_default_backends();
        let policy = BatchPolicy::default().with_tuning(Tuning::from_env());
        let batch = d.solve_batch(&problems, policy);
        for (i, p) in problems.iter().enumerate() {
            let (expected, _) = d
                .solve_guarded_with(p, &GuardPolicy::default(), Tuning::from_env())
                .unwrap();
            assert_eq!(
                batch[i].as_ref().unwrap(),
                &expected,
                "problem {i} ({:?}) differs from the one-at-a-time solve",
                p.kind()
            );
        }
    }

    #[test]
    fn batch_telemetry_records_one_validation_and_one_attempt() {
        let a = monge(40, 40, 7);
        let problems = vec![Problem::row_minima(&a); 3];
        let d = Dispatcher::with_default_backends();
        let policy = BatchPolicy::default()
            .with_tuning(Tuning::from_env())
            .with_guard(GuardPolicy::full_validation());
        let report = d.solve_batch_report(&problems, &policy);
        assert_eq!(report.groups, 1);
        let backend = grain_choice(&d, &problems[0]);
        for tel in &report.telemetry {
            let guard = tel.guard.as_ref().unwrap();
            assert!(
                guard.validation_nanos > 0,
                "validation ran during admission"
            );
            assert_eq!(guard.validation, Validation::Full);
            assert_eq!(guard.fallback_path(), vec![backend]);
            assert_eq!(guard.fallback_depth(), 0);
            assert_eq!(tel.backend, backend);
            assert!(tel.evaluations > 0);
        }
        assert!(report.rollup().evaluations >= report.telemetry[0].evaluations);
    }

    #[test]
    fn zero_deadline_starves_the_batch_without_panicking() {
        let a = monge(256, 256, 9);
        let problems = vec![Problem::row_minima(&a); 4];
        let d = Dispatcher::with_default_backends();
        let policy = BatchPolicy::default()
            .with_tuning(Tuning::from_env())
            .with_deadline(Duration::ZERO);
        let results = d.solve_batch(&problems, policy);
        for r in results {
            assert!(
                matches!(r, Err(SolveError::DeadlineExceeded { .. })),
                "starved batch must fail with DeadlineExceeded, got {r:?}"
            );
        }
    }

    #[test]
    fn starved_members_report_the_batch_deadline() {
        let a = monge(256, 256, 9);
        let problems = vec![Problem::row_minima(&a); 2];
        let d = Dispatcher::with_default_backends();
        let budget = Duration::from_nanos(1);
        let policy = BatchPolicy::default()
            .with_tuning(Tuning::from_env())
            .with_deadline(budget);
        for r in d.solve_batch(&problems, policy) {
            match r {
                Err(SolveError::DeadlineExceeded { deadline, .. }) => assert_eq!(deadline, budget),
                other => panic!("starved member must report the batch budget, got {other:?}"),
            }
        }
    }

    #[test]
    fn shedding_degrades_but_still_answers() {
        let a = monge(128, 128, 11);
        let problems = vec![Problem::row_minima(&a); 3];
        let d = Dispatcher::with_default_backends();
        let report = d.solve_batch_report(
            &problems,
            &BatchPolicy::default()
                .with_tuning(Tuning::from_env())
                .shed_above(1),
        );
        assert_eq!(report.shed_groups, 1, "the lone group overflows the cap");
        let (expected, _) = d
            .solve_guarded_with(&problems[0], &GuardPolicy::default(), Tuning::from_env())
            .unwrap();
        for (r, tel) in report.results.iter().zip(&report.telemetry) {
            assert_eq!(r.as_ref().unwrap(), &expected);
            // Shed members skipped the group decision: each chain starts
            // at the grain-policy choice.
            let guard = tel.guard.as_ref().unwrap();
            assert_eq!(guard.fallback_path(), vec![grain_choice(&d, &problems[0])]);
            assert_eq!(guard.fallback_depth(), 0);
            assert_eq!(tel.provenance, Some(TuningProvenance::Default));
        }
    }

    #[test]
    fn quarantined_member_degrades_to_brute_only_for_itself() {
        let good = monge(24, 24, 13);
        // An anti-Monge bump the full check must catch.
        let mut bad = good.clone();
        let v = bad.entry(3, 3);
        bad.set(3, 3, v + 1_000_000);
        let problems = vec![Problem::row_minima(&good), Problem::row_minima(&bad)];
        let d = Dispatcher::with_default_backends();
        let policy = BatchPolicy::default()
            .with_tuning(Tuning::from_env())
            .with_guard(GuardPolicy::full_validation());
        let report = d.solve_batch_report(&problems, &policy);
        let good_guard = report.telemetry[0].guard.as_ref().unwrap();
        assert!(!good_guard.quarantined);
        assert_eq!(
            good_guard.fallback_path(),
            vec![grain_choice(&d, &problems[0])]
        );
        assert_eq!(good_guard.fallback_depth(), 0);
        let bad_guard = report.telemetry[1].guard.as_ref().unwrap();
        assert!(bad_guard.quarantined);
        assert_eq!(bad_guard.fallback_path(), vec![BRUTE]);
        // Brute's answer is the true row minima of the corrupted array.
        let (brute_expected, _) = d
            .solve_guarded_with(
                &problems[1],
                &GuardPolicy::full_validation(),
                Tuning::from_env(),
            )
            .unwrap();
        assert_eq!(report.results[1].as_ref().unwrap(), &brute_expected);
    }

    #[test]
    fn service_rolls_up_telemetry_per_tenant() {
        let a = monge(32, 32, 17);
        let mut svc = SolverService::new(BatchPolicy::default().with_tuning(Tuning::from_env()));
        svc.submit("alpha", Problem::row_minima(&a)).unwrap();
        svc.submit("alpha", Problem::row_maxima(&a)).unwrap();
        svc.submit("beta", Problem::row_minima(&a)).unwrap();
        assert_eq!(svc.pending(), 3);
        assert_eq!(svc.tenant_pending("alpha"), 2);
        let results = svc.drain();
        assert_eq!(results.len(), 3);
        assert!(results.iter().all(Result::is_ok));
        assert_eq!(svc.pending(), 0);
        let alpha = svc.tenant_telemetry("alpha").unwrap().clone();
        let beta = svc.tenant_telemetry("beta").unwrap().clone();
        assert!(alpha.evaluations > beta.evaluations);
        assert_eq!(alpha.kind, None, "mixed kinds collapse in the rollup");
        assert_eq!(svc.tenants().count(), 2);
        // A second drain accumulates instead of replacing.
        svc.submit("beta", Problem::row_minima(&a)).unwrap();
        let before = beta.evaluations;
        svc.drain();
        assert!(svc.tenant_telemetry("beta").unwrap().evaluations > before);
    }

    #[test]
    fn submit_backpressure_is_typed_and_leaves_the_queue_intact() {
        let a = monge(8, 8, 23);
        let mut svc = SolverService::new(BatchPolicy::default().with_tuning(Tuning::from_env()))
            .with_max_pending(2)
            .with_tenant_quota(1);
        svc.submit("alpha", Problem::row_minima(&a)).unwrap();
        // Tenant quota fires first: alpha already has 1 in flight.
        match svc.submit("alpha", Problem::row_minima(&a)) {
            Err(SubmitError::TenantOverQuota {
                tenant,
                pending,
                quota,
            }) => {
                assert_eq!(tenant, "alpha");
                assert_eq!((pending, quota), (1, 1));
            }
            other => panic!("expected TenantOverQuota, got {other:?}"),
        }
        svc.submit("beta", Problem::row_minima(&a)).unwrap();
        // Queue full: even a fresh tenant is refused.
        match svc.submit("gamma", Problem::row_minima(&a)) {
            Err(SubmitError::Overloaded { pending, capacity }) => {
                assert_eq!((pending, capacity), (2, 2));
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        assert_eq!(svc.pending(), 2, "refusals leave the queue unchanged");
        // Drain frees both the queue and the tenant counters.
        assert!(svc.drain().iter().all(Result::is_ok));
        assert_eq!(svc.tenant_pending("alpha"), 0);
        svc.submit("alpha", Problem::row_minima(&a)).unwrap();
        let errs: Vec<String> = [
            SubmitError::Overloaded {
                pending: 2,
                capacity: 2,
            },
            SubmitError::TenantOverQuota {
                tenant: "alpha".into(),
                pending: 1,
                quota: 1,
            },
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        assert!(errs[0].contains("overloaded"));
        assert!(errs[1].contains("alpha"));
    }

    #[test]
    fn drain_preserves_submit_order_across_mixed_outcomes() {
        // Distinct row counts make each solution traceable to its
        // submission slot even across quarantine, invalid input, and
        // clean members interleaved between two tenants.
        let a = monge(10, 16, 29);
        let b = monge(20, 16, 31);
        let c = monge(30, 16, 37);
        let mut broken = monge(15, 15, 41);
        let v = broken.entry(4, 4);
        broken.set(4, 4, v + 1_000_000);
        let bad_boundary = vec![1usize, 5]; // wrong length AND increasing
        let mut svc = SolverService::new(
            BatchPolicy::default()
                .with_tuning(Tuning::from_env())
                .with_guard(GuardPolicy::full_validation()),
        );
        let i0 = svc.submit("alpha", Problem::row_minima(&a)).unwrap();
        let i1 = svc.submit("beta", Problem::row_minima(&broken)).unwrap();
        let i2 = svc
            .submit("alpha", Problem::staircase_row_minima(&a, &bad_boundary))
            .unwrap();
        let i3 = svc.submit("beta", Problem::row_minima(&b)).unwrap();
        let i4 = svc.submit("alpha", Problem::row_minima(&c)).unwrap();
        assert_eq!((i0, i1, i2, i3, i4), (0, 1, 2, 3, 4));
        let results = svc.drain();
        assert_eq!(results.len(), 5);
        assert_eq!(results[0].as_ref().unwrap().rows().index.len(), 10);
        // The quarantined member still answers (brute), in its slot.
        assert_eq!(results[1].as_ref().unwrap().rows().index.len(), 15);
        assert!(matches!(results[2], Err(SolveError::InvalidInput { .. })));
        assert_eq!(results[3].as_ref().unwrap().rows().index.len(), 20);
        assert_eq!(results[4].as_ref().unwrap().rows().index.len(), 30);
    }

    #[test]
    fn tenant_isolation_survives_a_faulty_neighbor() {
        // Tenant alpha streams structure-violating arrays (quarantined);
        // tenant beta's clean work must come back bitwise-identical to a
        // solo run, with no resilience counters leaking into its rollup.
        let clean = monge(24, 24, 43);
        let mut dirty = clean.clone();
        let v = dirty.entry(2, 2);
        dirty.set(2, 2, v + 1_000_000);
        let policy = BatchPolicy::default()
            .with_tuning(Tuning::from_env())
            .with_guard(GuardPolicy::full_validation());
        let d = Dispatcher::with_default_backends();
        let (solo, _) = d
            .solve_guarded_with(
                &Problem::row_minima(&clean),
                &GuardPolicy::full_validation(),
                Tuning::from_env(),
            )
            .unwrap();
        let mut svc = SolverService::new(policy);
        svc.submit("alpha", Problem::row_minima(&dirty)).unwrap();
        svc.submit("beta", Problem::row_minima(&clean)).unwrap();
        svc.submit("alpha", Problem::row_minima(&dirty)).unwrap();
        let results = svc.drain();
        assert_eq!(results[1].as_ref().unwrap(), &solo);
        let beta = svc.tenant_telemetry("beta").unwrap();
        assert_eq!(beta.retries, 0);
        assert_eq!(beta.breaker_skips, 0);
        // Alpha's quarantined members still answer correctly (brute).
        assert!(results[0].is_ok() && results[2].is_ok());
        assert!(svc.tenant_telemetry("alpha").unwrap().evaluations > 0);
    }

    #[test]
    fn members_skip_an_open_breaker_on_the_group_backend() {
        use crate::autotune::{AutotuneKey, AutotuneMode, Autotuner, Claim, Winner};
        use crate::health::{HealthConfig, HealthRegistry, VirtualClock};
        let a = monge(32, 32, 47);
        let problems = vec![Problem::row_minima(&a); 3];
        // The group's decision names rayon, which the grain policy
        // would not pick for a 32×32 member.
        let tuner = Arc::new(Autotuner::in_memory(AutotuneMode::On));
        match tuner.begin(AutotuneKey::of(&problems[0])) {
            Claim::Measure(token) => token.fulfill(Winner {
                backend: "rayon",
                tuning: Tuning::DEFAULT,
            }),
            _ => panic!("a fresh table must hand out the claim"),
        }
        let clock = Arc::new(VirtualClock::new());
        let registry = Arc::new(HealthRegistry::new(HealthConfig::DEFAULT, clock));
        let d = Dispatcher::with_default_backends()
            .with_autotuner(tuner)
            .with_health_registry(registry.clone());
        assert_eq!(grain_choice(&d, &problems[0]), "sequential");
        registry.force_open("rayon");
        let report = d.solve_batch_report(&problems, &BatchPolicy::default());
        let (expected, _) = Dispatcher::with_default_backends()
            .solve_guarded_with(&problems[0], &GuardPolicy::default(), Tuning::from_env())
            .unwrap();
        for (r, tel) in report.results.iter().zip(&report.telemetry) {
            assert_eq!(r.as_ref().unwrap(), &expected);
            assert_eq!(
                tel.breaker_skips, 1,
                "each member's chain starts at the group backend and skips it"
            );
            let path = tel.guard.as_ref().unwrap().fallback_path();
            assert_eq!(path, vec!["sequential"], "the chain's next link answers");
            assert_eq!(tel.provenance, Some(TuningProvenance::Cached));
        }
    }

    #[test]
    fn each_dispatcher_measures_into_its_own_table() {
        let a = monge(48, 48, 71);
        let problems = [Problem::row_minima(&a)];
        let provenance = |d: &Dispatcher<i64>| {
            d.solve_batch_report(&problems, &BatchPolicy::default())
                .telemetry[0]
                .provenance
        };
        let first = Dispatcher::with_default_backends();
        let second = Dispatcher::with_default_backends();
        assert_eq!(provenance(&first), Some(TuningProvenance::Measured));
        assert_eq!(provenance(&first), Some(TuningProvenance::Cached));
        assert_eq!(
            provenance(&second),
            Some(TuningProvenance::Measured),
            "a fresh dispatcher starts with an empty table"
        );
    }

    #[test]
    fn off_autotuner_runs_env_tuning_on_the_grain_backend() {
        use crate::autotune::Autotuner;
        let a = monge(48, 48, 73);
        let problems = vec![Problem::row_minima(&a); 2];
        let tuner = Arc::new(Autotuner::off());
        let d = Dispatcher::with_default_backends().with_autotuner(tuner.clone());
        let (expected, _) = d
            .solve_guarded_with(&problems[0], &GuardPolicy::default(), Tuning::from_env())
            .unwrap();
        for _ in 0..2 {
            let report = d.solve_batch_report(&problems, &BatchPolicy::default());
            for (r, tel) in report.results.iter().zip(&report.telemetry) {
                assert_eq!(r.as_ref().unwrap(), &expected);
                assert_eq!(tel.provenance, Some(TuningProvenance::Default));
                assert_eq!(
                    tel.guard.as_ref().unwrap().fallback_path(),
                    vec![grain_choice(&d, &problems[0])]
                );
            }
        }
        assert_eq!(tuner.measurements(), 0);
    }

    #[test]
    fn service_index_handles_are_cached_and_reusable_across_drains() {
        let a = monge(24, 24, 61);
        let p = Problem::rows(&a, Structure::Monge, Objective::Minimize);
        let mut svc: SolverService<'_, i64> =
            SolverService::new(BatchPolicy::default().with_tuning(Tuning::from_env()));
        let ix = svc.build_index("alpha", "costs", &p).unwrap();
        let tel = svc.tenant_telemetry("alpha").unwrap().clone();
        assert_eq!(tel.index_builds, 1);
        assert_eq!(tel.index_hits, 0);
        assert_eq!(tel.index_bytes, ix.bytes());
        assert!(tel.evaluations >= 24 * 24);

        // A second build of the same name is a cache hit, not a rebuild.
        let again = svc.build_index("alpha", "costs", &p).unwrap();
        assert!(Arc::ptr_eq(&ix, &again));
        let tel = svc.tenant_telemetry("alpha").unwrap().clone();
        assert_eq!(tel.index_builds, 1);
        assert_eq!(tel.index_hits, 1);

        // Queries served between drains fold into the tenant rollup.
        let ans = ix.query_min(3..19, 1..22).unwrap();
        let mut best = (i64::MAX, usize::MAX, usize::MAX);
        for i in 3..19 {
            for j in 1..22 {
                let v = a.entry(i, j);
                if (v, i, j) < best {
                    best = (v, i, j);
                }
            }
        }
        assert_eq!((ans.value, ans.row, ans.col), best);
        ix.query_max(0..24, 0..24).unwrap();
        svc.submit("alpha", Problem::row_minima(&a)).unwrap();
        assert!(svc.drain().iter().all(Result::is_ok));
        let tel = svc.tenant_telemetry("alpha").unwrap().clone();
        assert_eq!(tel.index_queries, 2);
        assert!(tel.index_probes > 0);

        // The handle survives the drain and keeps serving; the next
        // drain harvests only the new traffic.
        let held = svc.index("alpha", "costs").unwrap();
        held.query_min(0..24, 5..6).unwrap();
        svc.drain();
        assert_eq!(svc.tenant_telemetry("alpha").unwrap().index_queries, 3);

        // drop_index harvests pending counters and evicts the handle.
        held.query_min(1..2, 1..2).unwrap();
        assert!(svc.drop_index("alpha", "costs"));
        assert!(!svc.drop_index("alpha", "costs"));
        assert!(svc.index("alpha", "costs").is_none());
        assert_eq!(svc.tenant_telemetry("alpha").unwrap().index_queries, 4);
        // Outstanding clones still answer after eviction.
        held.query_min(0..1, 0..1).unwrap();
    }

    #[test]
    fn service_index_build_failures_cache_nothing() {
        let a = monge(8, 8, 67);
        let p = Problem::rows(&a, Structure::Plain, Objective::Minimize);
        let mut svc: SolverService<'_, i64> =
            SolverService::new(BatchPolicy::default().with_tuning(Tuning::from_env()));
        assert!(matches!(
            svc.build_index("alpha", "plain", &p),
            Err(SolveError::InvalidInput { .. })
        ));
        assert!(svc.index("alpha", "plain").is_none());
        assert!(svc.tenant_telemetry("alpha").is_none());
    }

    #[test]
    fn invalid_inputs_fail_individually_not_batchwide() {
        let a = monge(8, 8, 19);
        let bad_boundary = vec![2usize, 5, 1, 1, 1, 1, 1, 1]; // not non-increasing
        let problems = vec![
            Problem::row_minima(&a),
            Problem::staircase_row_minima(&a, &bad_boundary),
        ];
        let d = Dispatcher::with_default_backends();
        let results = d.solve_batch(
            &problems,
            BatchPolicy::default().with_tuning(Tuning::from_env()),
        );
        assert!(results[0].is_ok());
        assert!(matches!(results[1], Err(SolveError::InvalidInput { .. })));
    }
}
