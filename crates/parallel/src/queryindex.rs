//! Dispatcher wiring for the submatrix query index: build a
//! [`QueryIndex`] from a rows [`Problem`] under the guarded layer's
//! validation / deadline / panic-containment contract, with the build
//! instrumented into a [`Telemetry`].
//!
//! The index itself lives in [`monge_core::queryindex`]; this module is
//! the serving-stack entry point mirroring `solve_guarded`:
//!
//! * the structural promise is validated per [`GuardPolicy`] before any
//!   preprocessing — but unlike a solve, a violated promise cannot be
//!   quarantined onto a brute backend (there is no per-query brute path
//!   inside an index), so both violation actions fail the build with
//!   [`SolveError::StructureViolation`];
//! * the build runs under `catch_unwind` with the policy's deadline
//!   installed as a cooperative [`CancelToken`] — the index build loops
//!   call `guard::checkpoint`, so an expired budget surfaces as
//!   [`SolveError::DeadlineExceeded`], not a hang;
//! * the returned [`Telemetry`] carries the build's evaluation count
//!   (exactly one evaluation per source entry), an `"index_build"`
//!   phase, and the index accounting fields (`index_builds`,
//!   `index_bytes`, `index_breakpoints`).

use std::time::Instant;

use monge_core::guard::{
    Attempt, AttemptOutcome, CancelToken, GuardOutcome, GuardPolicy, SolveError,
};
use monge_core::problem::{Metered, Problem, Structure, Telemetry};
use monge_core::queryindex::QueryIndex;
use monge_core::state;
use monge_core::value::Value;

use crate::dispatch::Dispatcher;
use crate::guarded::{attempt, validate};

/// The [`Telemetry::backend`] label of index builds.
pub const QUERYINDEX: &str = "queryindex";

impl<T: Value> Dispatcher<T> {
    /// Preprocesses a rows problem's array into a [`QueryIndex`] under
    /// the default [`GuardPolicy`] (validation off, no deadline),
    /// discarding the build telemetry. See
    /// [`Dispatcher::build_index_guarded`].
    ///
    /// # Errors
    ///
    /// As for [`Dispatcher::build_index_guarded`].
    pub fn build_index(&self, problem: &Problem<'_, T>) -> Result<QueryIndex<T>, SolveError> {
        self.build_index_guarded(problem, &GuardPolicy::default())
            .map(|(ix, _)| ix)
    }

    /// Preprocesses a rows problem's array into a [`QueryIndex`] under
    /// `policy`: validation per the policy's mode, the build under
    /// `catch_unwind` with the policy deadline installed as a
    /// cooperative cancellation token.
    ///
    /// The problem's objective is irrelevant — the index always serves
    /// both [`QueryIndex::query_min`] and [`QueryIndex::query_max`] —
    /// and answers use the leftmost convention (smallest row, then
    /// smallest column, among optimal cells) regardless of the
    /// problem's tie rule.
    ///
    /// # Errors
    ///
    /// * [`SolveError::InvalidInput`] — not a rows problem, a
    ///   [`Structure::Plain`] promise, or an empty array.
    /// * [`SolveError::StructureViolation`] — validation found the
    ///   promise broken (under *either* violation action; an index over
    ///   a broken promise has no brute path to quarantine onto).
    /// * [`SolveError::DeadlineExceeded`] — the policy budget expired
    ///   at a validation or build checkpoint.
    /// * [`SolveError::BackendPanic`] — the source array (or the
    ///   validator) panicked while being read.
    pub fn build_index_guarded(
        &self,
        problem: &Problem<'_, T>,
        policy: &GuardPolicy,
    ) -> Result<(QueryIndex<T>, Telemetry), SolveError> {
        let start = Instant::now();
        let (array, structure) = match *problem {
            Problem::Rows {
                array, structure, ..
            } => {
                if structure == Structure::Plain {
                    return Err(SolveError::InvalidInput {
                        reason: "query index requires a Monge or inverse-Monge promise".to_string(),
                    });
                }
                (array, structure)
            }
            _ => {
                return Err(SolveError::InvalidInput {
                    reason: format!(
                        "query indexes serve rows problems, not {:?}",
                        problem.kind()
                    ),
                })
            }
        };
        let token = policy.deadline.map(CancelToken::with_deadline);
        let mut outcome = GuardOutcome {
            validation: policy.validation,
            ..GuardOutcome::default()
        };

        let t0 = Instant::now();
        let validated = attempt("validator", token.as_ref(), start, policy, || {
            validate(problem, policy)
        })?;
        outcome.validation_nanos = t0.elapsed().as_nanos();
        if let Err(witness) = validated {
            return Err(SolveError::StructureViolation(witness));
        }

        let t_build = Instant::now();
        let before = state::tally();
        let ix = attempt(QUERYINDEX, token.as_ref(), start, policy, || {
            QueryIndex::build(&Metered::new(array), structure)
        })??;
        let evaluations = state::tally().since(before).evaluations;
        let build_nanos = t_build.elapsed().as_nanos();
        outcome.attempts.push(Attempt {
            backend: QUERYINDEX,
            outcome: AttemptOutcome::Completed,
        });
        let mut tel = Telemetry {
            backend: QUERYINDEX,
            kind: Some(problem.kind()),
            evaluations,
            ..Telemetry::default()
        };
        tel.record_phase("index_build", build_nanos);
        tel.total_nanos = start.elapsed().as_nanos();
        tel.index_builds = 1;
        tel.index_bytes = ix.bytes();
        tel.index_breakpoints = ix.breakpoints();
        tel.guard = Some(outcome);
        Ok((ix, tel))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    use monge_core::array2d::{Array2d, Dense, FnArray};
    use monge_core::problem::Objective;

    fn dispatcher() -> Dispatcher<i64> {
        Dispatcher::with_all_backends()
    }

    fn monge(m: usize, n: usize) -> Dense<i64> {
        Dense::tabulate(m, n, |i, j| {
            let d = i as i64 - j as i64;
            d * d + j as i64
        })
    }

    #[test]
    fn build_index_answers_like_brute() {
        let a = monge(12, 15);
        let p = Problem::rows(&a, Structure::Monge, Objective::Minimize);
        let ix = dispatcher().build_index(&p).unwrap();
        let ans = ix.query_min(3..9, 2..14).unwrap();
        let mut best = (i64::MAX, usize::MAX, usize::MAX);
        for i in 3..9 {
            for j in 2..14 {
                let v = a.entry(i, j);
                if (v, i, j) < best {
                    best = (v, i, j);
                }
            }
        }
        assert_eq!((ans.value, ans.row, ans.col), best);
    }

    #[test]
    fn telemetry_stamps_build_accounting() {
        let a = monge(10, 8);
        let p = Problem::rows(&a, Structure::Monge, Objective::Minimize);
        let (ix, tel) = dispatcher()
            .build_index_guarded(&p, &GuardPolicy::default())
            .unwrap();
        assert_eq!(tel.backend, QUERYINDEX);
        assert_eq!(tel.kind, Some(p.kind()));
        assert_eq!(tel.evaluations, 80, "one evaluation per source entry");
        assert_eq!(tel.index_builds, 1);
        assert_eq!(tel.index_bytes, ix.bytes());
        assert_eq!(tel.index_breakpoints, ix.breakpoints());
        assert!(tel.phases.iter().any(|ph| ph.name == "index_build"));
        let guard = tel.guard.expect("guarded build stamps an outcome");
        assert_eq!(
            guard.attempts,
            vec![Attempt {
                backend: QUERYINDEX,
                outcome: AttemptOutcome::Completed,
            }]
        );
    }

    #[test]
    fn rejects_plain_and_non_rows() {
        let a = monge(6, 6);
        let p = Problem::rows(&a, Structure::Plain, Objective::Minimize);
        assert!(matches!(
            dispatcher().build_index(&p),
            Err(SolveError::InvalidInput { .. })
        ));
        let boundary = vec![6usize; 6];
        let p = Problem::staircase_row_minima(&a, &boundary);
        assert!(matches!(
            dispatcher().build_index(&p),
            Err(SolveError::InvalidInput { .. })
        ));
    }

    #[test]
    fn validation_catches_a_broken_promise() {
        // Not Monge: one entry ruins the quadrangle inequality.
        let a = Dense::tabulate(6, 6, |i, j| if (i, j) == (2, 3) { -1000 } else { 0 });
        let p = Problem::rows(&a, Structure::Monge, Objective::Minimize);
        let policy = GuardPolicy::full_validation();
        assert!(matches!(
            dispatcher().build_index_guarded(&p, &policy),
            Err(SolveError::StructureViolation(_))
        ));
    }

    #[test]
    fn zero_deadline_aborts_the_build() {
        let a = monge(64, 64);
        let p = Problem::rows(&a, Structure::Monge, Objective::Minimize);
        let policy = GuardPolicy::default().with_deadline(Duration::ZERO);
        assert!(matches!(
            dispatcher().build_index_guarded(&p, &policy),
            Err(SolveError::DeadlineExceeded { .. })
        ));
    }

    #[test]
    fn panicking_source_is_contained() {
        let a = FnArray::new(4, 4, |i, _| {
            assert!(i < 2, "poisoned row");
            0i64
        });
        let p = Problem::rows(&a, Structure::Monge, Objective::Minimize);
        match dispatcher().build_index(&p) {
            Err(SolveError::BackendPanic { backend, payload }) => {
                assert_eq!(backend, QUERYINDEX);
                assert!(payload.contains("poisoned row"));
            }
            other => panic!("expected a contained panic, got {other:?}"),
        }
    }

    #[test]
    fn objective_of_the_problem_does_not_matter() {
        let a = monge(9, 9);
        let pmin = Problem::rows(&a, Structure::Monge, Objective::Minimize);
        let pmax = Problem::rows(&a, Structure::Monge, Objective::Maximize);
        let d = dispatcher();
        let a1 = d.build_index(&pmin).unwrap().query_max(1..7, 0..9).unwrap();
        let a2 = d.build_index(&pmax).unwrap().query_max(1..7, 0..9).unwrap();
        assert_eq!(a1, a2);
    }
}
