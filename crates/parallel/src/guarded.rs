//! The guarded solve layer: [`Dispatcher::solve_guarded`] runs each
//! backend of a deterministic fallback chain under `catch_unwind`,
//! validates the caller's structural promise per [`GuardPolicy`], and
//! degrades gracefully — selected backend → rayon → sequential SMAWK →
//! brute-force scan — instead of panicking or silently returning
//! corrupt minima.
//!
//! ## Fallback chain
//!
//! ```text
//!   validate (off / sampled / full)
//!        │ violation: Fail → Err(StructureViolation{witness})
//!        │ violation: Quarantine → chain = [brute]
//!        ▼
//!   [selected backend] ──panic──▶ [rayon] ──panic──▶ [sequential]
//!        │                           │                   │
//!        │ Cancelled sentinel        │                   │ panic
//!        ▼                           ▼                   ▼
//!   Err(DeadlineExceeded)        (dedup'd)          [brute scan]
//!                                                        │ panic
//!                                                        ▼
//!                                                Err(BackendPanic)
//! ```
//!
//! Every attempt is recorded in [`GuardOutcome::attempts`], which the
//! dispatcher stamps into [`Telemetry::guard`] on success — a degraded
//! solve is always observable. The brute-force terminal backend scans
//! every candidate without using the structural promise, so it returns
//! correct extrema even for arrays whose Monge promise is broken.
//!
//! Validation runs **exactly once per request**, before the chain walk:
//! fallback attempts never re-validate, so
//! [`GuardOutcome::validation_nanos`] is a one-shot cost independent of
//! fallback depth (pinned by the `validation_once` regression tests).
//! The batch layer ([`crate::batch`]) runs the same admission step
//! once per member up front, then hands each member's verdict to the
//! same chain walk.
//!
//! Deadlines are cooperative: the engines call
//! [`monge_core::guard::checkpoint`] at recursion leaves and
//! interval-scan boundaries, the validators once per row of
//! quadruples; `solve_guarded` installs a
//! [`monge_core::guard::CancelToken`] for the duration of the
//! validation and of each attempt, and converts the resulting
//! [`Cancelled`] unwind into [`SolveError::DeadlineExceeded`].
//!
//! ## Resilience (PR 9)
//!
//! The chain walk consults the dispatcher's [`crate::health`] registry
//! per link: a backend whose circuit breaker is Open is *skipped*
//! before any attempt is paid for (counted in
//! [`Telemetry::breaker_skips`]), and every attempt's outcome feeds the
//! registry's sliding window. The [`BruteForceBackend`] terminal is
//! exempt — a degraded process always reaches the correct slow path —
//! so [`SolveError::CircuitOpen`] only surfaces when the caller pinned
//! or truncated the chain away from the terminal. Transient faults
//! (panics, and deadline aborts with slack remaining) retry in place
//! under [`monge_core::guard::RetryPolicy`]'s seeded decorrelated
//! jitter, gated by the registry's global retry budget; each retry is a
//! fresh [`GuardOutcome::attempts`] entry and is counted in
//! [`Telemetry::retries`]. [`Dispatcher::health`] reports every
//! tracked backend's state on demand.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use monge_core::array2d::Array2d;
use monge_core::guard::{
    checkpoint, payload_to_string, with_cancellation, Attempt, AttemptOutcome, CancelToken,
    Cancelled, GuardOutcome, GuardPolicy, SolveError, Validation, ViolationAction,
    ViolationWitness,
};
use monge_core::monge::{
    check_inverse_monge, check_monge, check_monge_banded, check_staircase_inverse_monge_prefix,
    check_staircase_monge_prefix, spot_check_inverse_monge, spot_check_monge,
    spot_check_monge_banded, spot_check_staircase_monge_prefix,
};
use monge_core::problem::{Metered, Objective, Problem, ProblemKind, Solution, Telemetry};
use monge_core::scratch::with_scratch;
use monge_core::smawk::RowExtrema;
use monge_core::value::Value;
use monge_core::{eval, tube};

use crate::dispatch::{banded_values, plain_row_opt, Backend, Capabilities, Dispatcher};
use crate::health::{Admission, Observation};
use crate::tuning::Tuning;

/// The terminal link of every fallback chain: leftmost scans over every
/// candidate, with no use of the structural promise. `O(mn)` (`O(pqr)`
/// for tubes), correct for arbitrary entries, and checkpointed per row
/// so deadlines still abort it.
pub struct BruteForceBackend;

/// The registry name of [`BruteForceBackend`].
pub const BRUTE: &str = "brute";

impl<T: Value> Backend<T> for BruteForceBackend {
    fn name(&self) -> &'static str {
        BRUTE
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
        let t0 = Instant::now();
        let sol = match *problem {
            Problem::Rows {
                array,
                objective,
                tie,
                ..
            } => {
                let a = Metered::new(array);
                let index = with_scratch(|buf: &mut Vec<T>| {
                    (0..a.rows())
                        .map(|i| {
                            checkpoint();
                            plain_row_opt(&a, i, objective, tie, buf)
                        })
                        .collect()
                });
                Solution::Rows(RowExtrema::from_indices(&a, index))
            }
            Problem::Staircase {
                array, boundary, ..
            } => {
                let a = Metered::new(array);
                let n = a.cols();
                let index = with_scratch(|buf: &mut Vec<T>| {
                    (0..a.rows())
                        .map(|i| {
                            checkpoint();
                            // A fully-infeasible row (empty finite prefix)
                            // takes the canonical sentinel answer — index 0,
                            // value +∞, no reads — matching the fast engines.
                            let fi = boundary[i].min(n);
                            if fi == 0 {
                                return 0;
                            }
                            eval::interval_argmin(&a, i, 0, fi, buf).0
                        })
                        .collect()
                });
                Solution::Rows(RowExtrema::from_staircase_indices(&a, boundary, index))
            }
            Problem::Banded {
                array,
                lo,
                hi,
                objective,
            } => {
                let a = Metered::new(array);
                let n = a.cols();
                let index: Vec<Option<usize>> = with_scratch(|buf: &mut Vec<T>| {
                    (0..a.rows())
                        .map(|i| {
                            checkpoint();
                            let (s, e) = (lo[i].min(n), hi[i].min(n));
                            if s >= e {
                                return None;
                            }
                            Some(match objective {
                                Objective::Minimize => eval::interval_argmin(&a, i, s, e, buf).0,
                                Objective::Maximize => eval::interval_argmax(&a, i, s, e, buf).0,
                            })
                        })
                        .collect()
                });
                let value = banded_values(&a, &index);
                Solution::Banded { index, value }
            }
            Problem::Tube { d, e, objective } => {
                let (dm, em) = (Metered::new(d), Metered::new(e));
                checkpoint();
                let ex = match objective {
                    Objective::Minimize => tube::tube_minima_brute(&dm, &em),
                    Objective::Maximize => tube::tube_maxima_brute(&dm, &em),
                };
                Solution::Tube(ex)
            }
        };
        telemetry.record_phase("search", t0.elapsed().as_nanos());
        sol
    }
}

/// Sampled-mode budget: enough draws that a violation density of `1/n`
/// escapes with probability `≈ e^{-16}` while the cost stays `O(m+n)`.
fn sample_budget(m: usize, n: usize) -> usize {
    16 * (m + n)
}

/// Validates the problem's structural promise per the policy. `Ok(())`
/// means "no violation found" (vacuously for [`Validation::Off`] and
/// for `Plain` structure).
pub(crate) fn validate<T: Value>(
    problem: &Problem<'_, T>,
    policy: &GuardPolicy,
) -> Result<(), Box<ViolationWitness>> {
    use monge_core::problem::Structure;
    let full = match policy.validation {
        Validation::Off => return Ok(()),
        Validation::Full => true,
        Validation::Sampled => false,
    };
    let seed = policy.seed;
    match *problem {
        Problem::Rows {
            array, structure, ..
        } => {
            let (m, n) = (array.rows(), array.cols());
            match structure {
                Structure::Plain => Ok(()),
                Structure::Monge => {
                    let r = if full {
                        check_monge(&array)
                    } else {
                        spot_check_monge(&array, sample_budget(m, n), seed)
                    };
                    r.map_err(|v| Box::new(ViolationWitness::from_monge("Monge", &v)))
                }
                Structure::InverseMonge => {
                    let r = if full {
                        check_inverse_monge(&array)
                    } else {
                        spot_check_inverse_monge(&array, sample_budget(m, n), seed)
                    };
                    r.map_err(|v| Box::new(ViolationWitness::from_monge("inverse-Monge", &v)))
                }
            }
        }
        Problem::Staircase {
            array,
            boundary,
            structure,
            ..
        } => {
            let (m, n) = (array.rows(), array.cols());
            match structure {
                Structure::InverseMonge => check_staircase_inverse_monge_prefix(&array, boundary)
                    .map_err(|v| {
                        Box::new(ViolationWitness::from_monge("staircase-inverse-Monge", &v))
                    }),
                _ => {
                    let r = if full {
                        check_staircase_monge_prefix(&array, boundary)
                    } else {
                        spot_check_staircase_monge_prefix(
                            &array,
                            boundary,
                            sample_budget(m, n),
                            seed,
                        )
                    };
                    r.map_err(|v| Box::new(ViolationWitness::from_monge("staircase-Monge", &v)))
                }
            }
        }
        Problem::Banded { array, lo, hi, .. } => {
            let (m, n) = (array.rows(), array.cols());
            let r = if full {
                check_monge_banded(&array, lo, hi)
            } else {
                spot_check_monge_banded(&array, lo, hi, sample_budget(m, n), seed)
            };
            r.map_err(|v| Box::new(ViolationWitness::from_monge("banded-Monge", &v)))
        }
        Problem::Tube { d, e, .. } => {
            // Both factors of the composite must be Monge.
            for (name, f) in [("tube factor d", d), ("tube factor e", e)] {
                let (m, n) = (f.rows(), f.cols());
                let r = if full {
                    check_monge(&f)
                } else {
                    spot_check_monge(&f, sample_budget(m, n), seed)
                };
                if let Err(v) = r {
                    return Err(Box::new(ViolationWitness::from_monge(name, &v)));
                }
            }
            Ok(())
        }
    }
}

impl<T: Value> Dispatcher<T> {
    /// Guarded solve with environment-seeded tuning: validates the
    /// structural promise, then walks the fallback chain starting from
    /// the auto-selected backend. See [`Dispatcher::solve_guarded_with`].
    pub fn solve_guarded(
        &self,
        problem: &Problem<'_, T>,
        policy: &GuardPolicy,
    ) -> Result<(Solution<T>, Telemetry), SolveError> {
        self.solve_guarded_with(problem, policy, Tuning::from_env())
    }

    /// Guarded solve starting the chain at the named backend (simulators
    /// included). Unknown names fail with [`SolveError::InvalidInput`];
    /// an ineligible first link is skipped like any ineligible chain
    /// link.
    pub fn solve_guarded_on(
        &self,
        name: &str,
        problem: &Problem<'_, T>,
        policy: &GuardPolicy,
        tuning: Tuning,
    ) -> Result<(Solution<T>, Telemetry), SolveError> {
        if self.find(name).is_none() {
            return Err(SolveError::InvalidInput {
                reason: format!("no backend named '{name}' is registered"),
            });
        }
        let first = self.find(name).map(|b| b.name());
        self.guarded_impl(problem, policy, tuning, first, None)
    }

    /// Guarded solve with explicit tuning.
    pub fn solve_guarded_with(
        &self,
        problem: &Problem<'_, T>,
        policy: &GuardPolicy,
        tuning: Tuning,
    ) -> Result<(Solution<T>, Telemetry), SolveError> {
        self.guarded_impl(problem, policy, tuning, None, None)
    }

    /// Admission: the input preconditions, then one validation of the
    /// structural promise per `policy`, under `catch_unwind` (the array
    /// itself may panic while being read) and `token`, if any. The
    /// returned outcome carries the validation record, and
    /// `quarantined` when a broken promise must be answered by the
    /// brute-force terminal alone.
    pub(crate) fn admit(
        &self,
        problem: &Problem<'_, T>,
        policy: &GuardPolicy,
        token: Option<&CancelToken>,
    ) -> Result<GuardOutcome, SolveError> {
        input_preconditions(problem).map_err(|reason| SolveError::InvalidInput { reason })?;
        let mut outcome = GuardOutcome {
            validation: policy.validation,
            ..GuardOutcome::default()
        };
        let t0 = Instant::now();
        let validated = attempt("validator", token, t0, policy, || validate(problem, policy))?;
        outcome.validation_nanos = t0.elapsed().as_nanos();
        if let Err(witness) = validated {
            // Broken promises are a health signal too: recorded against
            // the "validator" pseudo-backend, which is never
            // admission-checked (it is not a chain link) but shows up
            // in snapshots.
            self.health().record(
                "validator",
                Observation::Violation,
                outcome.validation_nanos.min(u64::MAX as u128) as u64,
            );
            match policy.on_violation {
                ViolationAction::Fail => return Err(SolveError::StructureViolation(witness)),
                ViolationAction::Quarantine => {
                    outcome.quarantined = true;
                    outcome.witness = Some(*witness);
                }
            }
        }
        Ok(outcome)
    }

    /// The guarded attempt primitive: admission (unless the caller
    /// already admitted the request and passes its `admitted` verdict),
    /// then the fallback-chain walk from `first` (else the grain-policy
    /// choice), each attempt under `catch_unwind`, the breakers and the
    /// retry budget; admission and the walk both run under
    /// `policy.deadline`.
    pub(crate) fn guarded_impl(
        &self,
        problem: &Problem<'_, T>,
        policy: &GuardPolicy,
        tuning: Tuning,
        first: Option<&'static str>,
        admitted: Option<GuardOutcome>,
    ) -> Result<(Solution<T>, Telemetry), SolveError> {
        let start = Instant::now();
        let token = policy.deadline.map(CancelToken::with_deadline);
        let health = self.health();
        // Every admitted request credits the global retry budget (see
        // `crate::health`): retries stay a bounded fraction of load.
        health.credit_request();
        let mut outcome = match admitted {
            Some(outcome) => outcome,
            None => self.admit(problem, policy, token.as_ref())?,
        };

        // --- Build the deterministic fallback chain. ---
        let brute = BruteForceBackend;
        let mut chain: Vec<&dyn Backend<T>> = Vec::new();
        if !outcome.quarantined {
            let auto = first.unwrap_or_else(|| self.select(problem, &tuning).name());
            for name in [auto, "rayon", "sequential"] {
                if chain.iter().any(|b| b.name() == name) {
                    continue;
                }
                if let Some(b) = self.find(name) {
                    if b.eligible(problem) {
                        chain.push(b);
                    }
                }
            }
        }
        chain.push(&brute);
        chain.truncate(policy.max_fallback_depth.saturating_add(1));

        // --- Walk the chain, each attempt under catch_unwind. The
        //     breaker is consulted per link at walk time (never for the
        //     brute terminal); transient faults retry in place under
        //     the policy's backoff while the global budget allows. ---
        let retry = policy.retry;
        let mut last_panic: Option<SolveError> = None;
        let mut skipped_open: Option<(&'static str, Duration)> = None;
        let mut retries: u64 = 0;
        let mut breaker_skips: u64 = 0;
        let mut attempted_any = false;
        for backend in chain.iter() {
            if let Some(tok) = &token {
                if tok.is_cancelled() {
                    return Err(deadline_error(start, policy));
                }
            }
            let name = backend.name();
            if name != BRUTE {
                if let Admission::Deny { retry_after } = health.admit(name) {
                    breaker_skips += 1;
                    if skipped_open.is_none() {
                        skipped_open = Some((name, retry_after));
                    }
                    continue;
                }
            }
            let mut attempts_here: u32 = 0;
            loop {
                attempts_here += 1;
                attempted_any = true;
                let t_attempt = Instant::now();
                let result = attempt(name, token.as_ref(), start, policy, || {
                    self.run(*backend, problem, &tuning)
                });
                let latency = t_attempt.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                match result {
                    Ok((solution, mut telemetry)) => {
                        health.record(name, Observation::Ok, latency);
                        outcome.attempts.push(Attempt {
                            backend: name,
                            outcome: AttemptOutcome::Completed,
                        });
                        telemetry.guard = Some(outcome);
                        telemetry.retries = retries;
                        telemetry.breaker_skips = breaker_skips;
                        return Ok((solution, telemetry));
                    }
                    Err(deadline @ SolveError::DeadlineExceeded { .. }) => {
                        health.record(name, Observation::Deadline, latency);
                        outcome.attempts.push(Attempt {
                            backend: name,
                            outcome: AttemptOutcome::DeadlineExceeded,
                        });
                        // A deadline abort only retries when slack
                        // remains — i.e. an explicit cancel raced a
                        // deadline that has not actually elapsed.
                        let slack = token
                            .as_ref()
                            .and_then(|t| t.remaining())
                            .unwrap_or(Duration::ZERO);
                        if !slack.is_zero()
                            && retry.allows(attempts_here)
                            && health.try_spend_retry()
                        {
                            retries += 1;
                            health
                                .clock()
                                .sleep(retry.backoff(policy.seed, attempts_here));
                            continue;
                        }
                        return Err(deadline);
                    }
                    Err(panic) => {
                        health.record(name, Observation::Panic, latency);
                        outcome.attempts.push(Attempt {
                            backend: name,
                            outcome: AttemptOutcome::Panicked,
                        });
                        last_panic = Some(panic);
                        let deadline_live = token.as_ref().is_none_or(|t| !t.is_cancelled());
                        if deadline_live && retry.allows(attempts_here) && health.try_spend_retry()
                        {
                            retries += 1;
                            health
                                .clock()
                                .sleep(retry.backoff(policy.seed, attempts_here));
                            continue;
                        }
                        break; // next chain link
                    }
                }
            }
        }
        if !attempted_any {
            if let Some((backend, retry_after)) = skipped_open {
                // Every reachable link was breaker-denied (possible when
                // `max_fallback_depth` truncates the brute terminal away
                // or the chain was pinned): a typed, retryable refusal.
                return Err(SolveError::CircuitOpen {
                    backend,
                    retry_after,
                });
            }
        }
        Err(last_panic.unwrap_or(SolveError::BackendPanic {
            backend: BRUTE,
            payload: "fallback chain was empty".to_string(),
        }))
    }
}

/// One guarded attempt of `backend`: `f` under `catch_unwind` and
/// `token`, if any. A fired token surfaces as
/// [`SolveError::DeadlineExceeded`], any other panic as a backend panic.
pub(crate) fn attempt<R>(
    backend: &'static str,
    token: Option<&CancelToken>,
    start: Instant,
    policy: &GuardPolicy,
    f: impl FnOnce() -> R,
) -> Result<R, SolveError> {
    catch_unwind(AssertUnwindSafe(|| match token {
        Some(tok) => with_cancellation(tok, f),
        None => f(),
    }))
    .map_err(|payload| {
        if payload.downcast_ref::<Cancelled>().is_some() {
            deadline_error(start, policy)
        } else {
            SolveError::BackendPanic {
                backend,
                payload: payload_to_string(payload.as_ref()),
            }
        }
    })
}

fn deadline_error(start: Instant, policy: &GuardPolicy) -> SolveError {
    SolveError::DeadlineExceeded {
        elapsed: start.elapsed(),
        deadline: policy.deadline.unwrap_or_default(),
    }
}

/// The input-shape preconditions the engines `assert!` on, reported as
/// typed errors instead: array extents, boundary/band lengths and
/// monotonicity, tube inner dimensions.
fn input_preconditions<T: Value>(problem: &Problem<'_, T>) -> Result<(), String> {
    match *problem {
        Problem::Rows { array, .. } => {
            if array.rows() > 0 && array.cols() == 0 {
                return Err("rows problem with zero columns".to_string());
            }
        }
        Problem::Staircase {
            array, boundary, ..
        } => {
            if boundary.len() != array.rows() {
                return Err(format!(
                    "boundary length {} != rows {}",
                    boundary.len(),
                    array.rows()
                ));
            }
            if array.rows() > 0 && array.cols() == 0 {
                return Err("staircase problem with zero columns".to_string());
            }
            if boundary.windows(2).any(|w| w[1] > w[0]) {
                return Err("staircase boundary must be non-increasing".to_string());
            }
        }
        Problem::Banded { array, lo, hi, .. } => {
            let m = array.rows();
            if lo.len() != m || hi.len() != m {
                return Err(format!(
                    "band lengths ({}, {}) != rows {}",
                    lo.len(),
                    hi.len(),
                    m
                ));
            }
        }
        Problem::Tube { d, e, .. } => {
            if d.cols() != e.rows() {
                return Err(format!(
                    "tube inner dimensions disagree: d is {}×{}, e is {}×{}",
                    d.rows(),
                    d.cols(),
                    e.rows(),
                    e.cols()
                ));
            }
        }
    }
    Ok(())
}
