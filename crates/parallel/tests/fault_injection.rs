//! Fault-injection suite for the guarded dispatch layer: seeded,
//! deterministic faults (Monge-violating entries, panicking reads,
//! latency) are driven through [`Dispatcher::solve_guarded`] to prove
//! the robustness contract:
//!
//! * injected structure violations are caught (Fail) or quarantined
//!   (solve still returns correct extrema for the *corrupted* array);
//! * panics from array evaluation never escape `solve_guarded`;
//! * the fallback chain always terminates — at the brute-force scan in
//!   the worst case — and every degraded solve records its path in the
//!   telemetry;
//! * fallback results match the sequential reference.

use std::sync::Arc;
use std::time::{Duration, Instant};

use monge_core::array2d::{Array2d, Dense};
use monge_core::generators::{apply_staircase, random_monge_dense, random_staircase_boundary};
use monge_core::guard::{AttemptOutcome, FaultInjector, FaultPlan, GuardPolicy, SolveError};
use monge_core::problem::{Problem, Solution, Telemetry, TuningProvenance};
use monge_core::state;
use monge_parallel::{
    AutotuneKey, AutotuneMode, Autotuner, Backend, BatchPolicy, BruteForceBackend, Dispatcher,
    Tuning,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn monge_16() -> Dense<i64> {
    let mut rng = StdRng::seed_from_u64(0xFA17);
    random_monge_dense(16, 16, &mut rng)
}

/// Leftmost row minima by direct scan of whatever the array reports —
/// the ground truth even when entries are corrupted.
fn scan_row_minima<A: Array2d<i64>>(a: &A) -> Vec<usize> {
    (0..a.rows())
        .map(|i| {
            let mut best = 0usize;
            for j in 1..a.cols() {
                if a.entry(i, j) < a.entry(i, best) {
                    best = j;
                }
            }
            best
        })
        .collect()
}

#[test]
fn panics_never_escape_solve_guarded() {
    let base = monge_16();
    // Every entry read panics: all chain links (brute included) fail,
    // and the layer must still return a typed error.
    let f = FaultInjector::new(base, FaultPlan::none(1).panics(1000), 0i64);
    let d = Dispatcher::with_default_backends();
    for policy in [
        GuardPolicy::default(),
        GuardPolicy::full_validation(),
        GuardPolicy::sampled_validation(),
    ] {
        match d.solve_guarded(&Problem::row_minima(&f), &policy) {
            Err(SolveError::BackendPanic { payload, .. }) => {
                assert!(payload.contains("injected"), "payload: {payload}");
            }
            other => panic!("expected BackendPanic, got {other:?}"),
        }
    }
}

#[test]
fn panic_budget_lets_a_fallback_attempt_succeed() {
    let base = monge_16();
    let reference = scan_row_minima(&base);
    // One transient panic: the first attempt dies, the retry on the
    // next chain link sees an exhausted budget and runs clean.
    let f = FaultInjector::new(base, FaultPlan::none(2).panics(1000).panic_budget(1), 0i64);
    let d = Dispatcher::with_default_backends();
    let (sol, tel) = d
        .solve_guarded(&Problem::row_minima(&f), &GuardPolicy::default())
        .expect("the fallback chain absorbs a transient panic");
    assert_eq!(sol.into_rows().index, reference);
    assert!(f.panics_fired() >= 1, "the panic site was encountered");
    let guard = tel.guard.expect("guarded solves stamp an outcome");
    assert!(guard.degraded(), "first attempt must be recorded as failed");
    assert!(guard.fallback_depth() >= 1);
    assert!(guard.attempts.len() >= 2);
}

#[test]
fn unlimited_fallback_depth_walks_the_full_chain() {
    let mut rng = StdRng::seed_from_u64(0xDEE9);
    let base = random_monge_dense(8, 8, &mut rng);
    let reference = scan_row_minima(&base);
    // Two transient panics: both host backends die, the brute terminal
    // runs clean.
    let f = FaultInjector::new(base, FaultPlan::none(5).panics(1000).panic_budget(2), 0i64);
    let policy = GuardPolicy::default().with_max_fallback_depth(usize::MAX);
    let (sol, tel) = Dispatcher::with_default_backends()
        .solve_guarded(&Problem::row_minima(&f), &policy)
        .expect("an unlimited depth keeps every chain link");
    assert_eq!(sol.into_rows().index, reference);
    let guard = tel.guard.expect("guarded solves stamp an outcome");
    assert_eq!(guard.fallback_path(), ["sequential", "rayon", "brute"]);
}

#[test]
fn quarantined_solves_match_a_direct_scan_of_the_corrupted_array() {
    let base = monge_16();
    let f = FaultInjector::new(base, FaultPlan::none(3).violations(150), 100_000i64);
    let sites = (0..16)
        .flat_map(|i| (0..16).map(move |j| (i, j)))
        .filter(|&(i, j)| f.is_violation_site(i, j))
        .count();
    assert!(sites > 0, "plan must inject at least one violation");
    let reference = scan_row_minima(&f);

    let d = Dispatcher::with_default_backends();
    let (sol, tel) = d
        .solve_guarded(&Problem::row_minima(&f), &GuardPolicy::full_validation())
        .expect("quarantine degrades, it does not fail");
    assert_eq!(
        sol.into_rows().index,
        reference,
        "quarantined solve must be correct for the array as it is"
    );
    let guard = tel.guard.expect("guarded solves stamp an outcome");
    assert!(guard.quarantined);
    assert!(guard.witness.is_some());
    assert_eq!(guard.fallback_path(), vec!["brute"]);
}

#[test]
fn fail_action_returns_a_verifiable_witness() {
    let base = monge_16();
    let f = FaultInjector::new(base, FaultPlan::none(4).violations(150), 100_000i64);
    let d = Dispatcher::with_default_backends();
    let policy = GuardPolicy::full_validation().fail_on_violation();
    match d.solve_guarded(&Problem::row_minima(&f), &policy) {
        Err(SolveError::StructureViolation(w)) => {
            // The witness must name a quadruple that genuinely breaks
            // the quadrangle inequality on the corrupted array.
            let lhs = f.entry(w.i, w.j) + f.entry(w.k, w.l);
            let rhs = f.entry(w.i, w.l) + f.entry(w.k, w.j);
            assert!(w.i < w.k && w.j < w.l, "witness indices are ordered");
            assert!(lhs > rhs, "witness quadruple must violate Monge: {w}");
        }
        other => panic!("expected StructureViolation, got {other:?}"),
    }
}

#[test]
fn sampled_validation_catches_density_at_least_one_over_n() {
    // 150/1000 sites on a 16-wide array is density well above 1/n; the
    // 16(m+n)-sample budget must catch it for every seed tried.
    let base = monge_16();
    let d = Dispatcher::with_default_backends();
    for seed in 0..8u64 {
        let f = FaultInjector::new(base.clone(), FaultPlan::none(5).violations(150), 100_000i64);
        let policy = GuardPolicy::sampled_validation().with_seed(seed);
        let (_, tel) = d
            .solve_guarded(&Problem::row_minima(&f), &policy)
            .expect("sampled mode quarantines by default");
        let guard = tel.guard.expect("guarded solves stamp an outcome");
        assert!(guard.quarantined, "seed {seed} missed dense corruption");
    }
}

#[test]
fn latency_faults_are_benign_without_a_deadline() {
    let base = monge_16();
    let reference = scan_row_minima(&base);
    let f = FaultInjector::new(
        base,
        FaultPlan::none(6).latency(100, Duration::from_micros(50)),
        0i64,
    );
    let d = Dispatcher::with_default_backends();
    let (sol, tel) = d
        .solve_guarded(&Problem::row_minima(&f), &GuardPolicy::default())
        .expect("latency alone never fails a solve");
    assert_eq!(sol.into_rows().index, reference);
    let guard = tel.guard.expect("guarded solves stamp an outcome");
    assert!(!guard.degraded());
}

#[test]
fn an_expired_deadline_is_a_typed_error() {
    let base = monge_16();
    let f = FaultInjector::new(base, FaultPlan::none(7), 0i64);
    let d = Dispatcher::with_default_backends();
    let policy = GuardPolicy::default().with_deadline(Duration::ZERO);
    match d.solve_guarded(&Problem::row_minima(&f), &policy) {
        Err(SolveError::DeadlineExceeded { deadline, .. }) => {
            assert_eq!(deadline, Duration::ZERO);
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
}

/// A 16×16 array whose every entry read sleeps 1 ms: full validation
/// alone reads about 900 entries.
fn one_ms_reads() -> FaultInjector<i64, Dense<i64>> {
    FaultInjector::new(
        monge_16(),
        FaultPlan::none(8).latency(1000, Duration::from_millis(1)),
        0i64,
    )
}

/// Runs `solve` under full validation and a 5 ms budget: it must fail
/// with that budget's `DeadlineExceeded` well before validation could
/// finish.
fn assert_validation_stops_at(what: &str, solve: impl FnOnce(Duration) -> Result<(), SolveError>) {
    let budget = Duration::from_millis(5);
    let t0 = Instant::now();
    let r = solve(budget);
    let took = t0.elapsed();
    match r {
        Err(SolveError::DeadlineExceeded { deadline, .. }) => {
            assert_eq!(deadline, budget, "{what}")
        }
        other => panic!("{what}: expected DeadlineExceeded, got {other:?}"),
    }
    assert!(
        took < Duration::from_millis(200),
        "{what} overran a 5 ms deadline: {took:?}"
    );
}

#[test]
fn validation_honours_the_deadline() {
    let f = one_ms_reads();
    let d = Dispatcher::with_default_backends();
    assert_validation_stops_at("solve_guarded", |budget| {
        let policy = GuardPolicy::full_validation().with_deadline(budget);
        d.solve_guarded(&Problem::row_minima(&f), &policy)
            .map(|_| ())
    });
    assert_validation_stops_at("build_index_guarded", |budget| {
        let policy = GuardPolicy::full_validation().with_deadline(budget);
        d.build_index_guarded(&Problem::row_minima(&f), &policy)
            .map(|_| ())
    });
    assert_validation_stops_at("batch admission", |budget| {
        let policy = BatchPolicy::default()
            .with_guard(GuardPolicy::full_validation())
            .with_deadline(budget);
        let mut results = d.solve_batch(&[Problem::row_minima(&f)], policy);
        results.pop().expect("one member").map(|_| ())
    });
}

#[test]
fn a_cold_batch_decision_honours_the_deadline() {
    let f = one_ms_reads();
    let p = Problem::row_minima(&f);
    let tuner = Arc::new(Autotuner::in_memory(AutotuneMode::On));
    let d = Dispatcher::with_default_backends().with_autotuner(Arc::clone(&tuner));
    let budget = Duration::from_millis(5);
    let t0 = Instant::now();
    let report = d.solve_batch_report(&[p], &BatchPolicy::default().with_deadline(budget));
    let took = t0.elapsed();
    match &report.results[0] {
        Err(SolveError::DeadlineExceeded { deadline, .. }) => assert_eq!(*deadline, budget),
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    assert!(
        took < Duration::from_millis(200),
        "the batch overran a 5 ms deadline: {took:?}"
    );
    assert!(
        tuner.lookup(&AutotuneKey::of(&p)).is_none(),
        "a deadline batch measures nothing"
    );
    // A batch without a deadline measures the key.
    let report = d.solve_batch_report(&[p], &BatchPolicy::default());
    assert_eq!(
        report.results[0].as_ref().map(|s| s.rows().index.clone()),
        Ok(scan_row_minima(&monge_16()))
    );
    assert_eq!(
        report.telemetry[0].provenance,
        Some(TuningProvenance::Measured)
    );
    assert!(tuner.lookup(&AutotuneKey::of(&p)).is_some());
}

#[test]
fn deadline_batches_on_a_cold_key_solve_without_measuring() {
    // One solve reads ~100 entries at 1 ms each and fits the budget;
    // measuring the key (every candidate timed several times) would not.
    let f = one_ms_reads();
    let p = Problem::row_minima(&f);
    let reference = scan_row_minima(&monge_16());
    let tuner = Arc::new(Autotuner::in_memory(AutotuneMode::On));
    let d = Dispatcher::with_default_backends().with_autotuner(Arc::clone(&tuner));
    let policy = BatchPolicy::default().with_deadline(Duration::from_millis(500));
    for batch in 0..2 {
        let report = d.solve_batch_report(&[p], &policy);
        assert_eq!(
            report.results[0].as_ref().map(|s| s.rows().index.clone()),
            Ok(reference.clone()),
            "deadline batch {batch}"
        );
        assert_eq!(
            report.telemetry[0].provenance,
            Some(TuningProvenance::Default)
        );
    }
    assert_eq!(tuner.measurements(), 0, "a deadline batch never measures");
    assert!(tuner.lookup(&AutotuneKey::of(&p)).is_none());
}

#[test]
fn a_panicking_batch_decision_leaves_members_to_the_defaults() {
    let base = monge_16();
    let reference = scan_row_minima(&base);
    // One transient panic, spent by the cold key's measurement.
    let f = FaultInjector::new(base, FaultPlan::none(2).panics(1000).panic_budget(1), 0i64);
    let p = Problem::row_minima(&f);
    let tuner = Arc::new(Autotuner::in_memory(AutotuneMode::On));
    let d = Dispatcher::with_default_backends().with_autotuner(Arc::clone(&tuner));
    let report = d.solve_batch_report(&[p], &BatchPolicy::default());
    assert_eq!(
        report.results[0].as_ref().map(|s| s.rows().index.clone()),
        Ok(reference)
    );
    let tel = &report.telemetry[0];
    assert_eq!(tel.provenance, Some(TuningProvenance::Default));
    let guard = tel.guard.as_ref().expect("batch members stamp an outcome");
    // The measurement's panic is recorded; the member itself ran clean.
    assert_eq!(
        guard
            .attempts
            .iter()
            .map(|a| (a.backend, a.outcome))
            .collect::<Vec<_>>(),
        [
            ("autotune", AttemptOutcome::Panicked),
            (guard.attempts[1].backend, AttemptOutcome::Completed)
        ]
    );
    assert!(
        tuner.lookup(&AutotuneKey::of(&p)).is_none(),
        "a measurement that panicked records no winner"
    );
}

#[test]
fn smawk_honours_the_deadline_inside_a_level() {
    // One SMAWK level of a 256×256 array reads at least 512 entries.
    let f = FaultInjector::new(
        Dense::tabulate(256, 256, |i, j| {
            let d = i as i64 - j as i64;
            d * d
        }),
        FaultPlan::none(9).latency(1000, Duration::from_millis(1)),
        0i64,
    );
    let budget = Duration::from_millis(5);
    let policy = GuardPolicy::default().with_deadline(budget);
    let t0 = Instant::now();
    let r = Dispatcher::with_default_backends().solve_guarded_on(
        "sequential",
        &Problem::row_minima(&f),
        &policy,
        Tuning::DEFAULT,
    );
    let took = t0.elapsed();
    match r {
        Err(SolveError::DeadlineExceeded { deadline, .. }) => assert_eq!(deadline, budget),
        other => panic!("expected DeadlineExceeded, got {:?}", other.map(|_| ())),
    }
    assert!(
        took < Duration::from_millis(200),
        "SMAWK overran a 5 ms deadline: {took:?}"
    );
}

#[test]
fn clean_instances_solve_without_degradation() {
    let base = monge_16();
    let d = Dispatcher::with_default_backends();
    let (sol, tel) = d
        .solve_guarded(&Problem::row_minima(&base), &GuardPolicy::full_validation())
        .expect("clean Monge input passes full validation");
    assert_eq!(sol.into_rows().index, scan_row_minima(&base));
    let guard = tel.guard.expect("guarded solves stamp an outcome");
    assert!(!guard.quarantined);
    assert!(!guard.degraded());
    assert_eq!(guard.fallback_depth(), 0);
    assert!(guard.validation_nanos > 0, "full validation costs time");
}

#[test]
fn brute_terminal_matches_sequential_on_every_problem_kind() {
    let mut rng = StdRng::seed_from_u64(0xB0B);
    let d = Dispatcher::with_default_backends();
    let t = Tuning::DEFAULT;
    let a = random_monge_dense(12, 17, &mut rng);

    let solve_both = |problem: &Problem<'_, i64>| -> (Solution<i64>, Solution<i64>) {
        let (seq, _) = d
            .solve_on("sequential", problem, t)
            .expect("sequential is total");
        let before = state::tally();
        let brute = BruteForceBackend.solve(problem, &t, &mut Telemetry::default());
        assert!(
            state::tally().since(before).evaluations > 0,
            "brute must meter its entry reads"
        );
        (seq, brute)
    };

    let (s, b) = solve_both(&Problem::row_minima(&a));
    assert_eq!(s.into_rows().index, b.into_rows().index);

    let boundary = random_staircase_boundary(12, 17, &mut rng);
    let stair = apply_staircase(&a, &boundary);
    let (s, b) = solve_both(&Problem::staircase_row_minima(&stair, &boundary));
    assert_eq!(s.into_rows().index, b.into_rows().index);

    let lo: Vec<usize> = (0..12).map(|i| i.min(16)).collect();
    let hi: Vec<usize> = (0..12).map(|i| (i + 6).min(17)).collect();
    let p = Problem::banded_row_minima(&a, &lo, &hi);
    let (s, b) = solve_both(&p);
    let (si, sv) = s.banded();
    let (bi, bv) = b.banded();
    assert_eq!(si, bi);
    assert_eq!(sv, bv);

    let e = random_monge_dense(17, 9, &mut rng);
    let (s, b) = solve_both(&Problem::tube_minima(&a, &e));
    let (st, bt) = (s.into_tube(), b.into_tube());
    assert_eq!(st.index, bt.index);
    assert_eq!(st.value, bt.value);
}

#[test]
fn all_open_circuits_land_on_brute_for_every_problem_kind() {
    use monge_core::guard::BreakerState;
    use monge_parallel::{HealthConfig, HealthRegistry, VirtualClock};
    use std::sync::Arc;

    // Every non-terminal circuit forced Open (virtual clock: no
    // cooldown ever elapses): the guarded chain must skip straight to
    // the exempt brute terminal and still answer correctly on all
    // seven problem kinds.
    let clock = Arc::new(VirtualClock::new());
    let registry = Arc::new(HealthRegistry::new(HealthConfig::DEFAULT, clock));
    let d = Dispatcher::with_default_backends().with_health_registry(registry.clone());
    registry.force_open("sequential");
    registry.force_open("rayon");

    let reference = Dispatcher::with_default_backends();
    let mut rng = StdRng::seed_from_u64(0x0C1);
    let a = random_monge_dense(14, 11, &mut rng);
    let boundary = random_staircase_boundary(14, 11, &mut rng);
    let stair = apply_staircase(&a, &boundary);
    let lo: Vec<usize> = (0..14).map(|i| (i / 2).min(10)).collect();
    let hi: Vec<usize> = (0..14).map(|i| (i / 2 + 5).min(11)).collect();
    let e = random_monge_dense(11, 7, &mut rng);
    let problems: Vec<Problem<'_, i64>> = vec![
        Problem::row_minima(&a),
        Problem::row_maxima(&a),
        Problem::staircase_row_minima(&stair, &boundary),
        Problem::banded_row_minima(&a, &lo, &hi),
        Problem::banded_row_maxima(&a, &lo, &hi),
        Problem::tube_minima(&a, &e),
        Problem::tube_maxima(&a, &e),
    ];
    assert_eq!(
        problems.len(),
        monge_core::problem::ProblemKind::ALL.len(),
        "one instance per problem kind"
    );
    for p in &problems {
        let (sol, tel) = d
            .solve_guarded(p, &GuardPolicy::default())
            .unwrap_or_else(|e| panic!("{:?} must reach brute, got {e}", p.kind()));
        let (want, _) = reference
            .solve_guarded(p, &GuardPolicy::default())
            .expect("reference dispatcher is healthy");
        assert_eq!(sol, want, "{:?}", p.kind());
        let guard = tel.guard.expect("guarded solves stamp an outcome");
        assert_eq!(
            guard.fallback_path(),
            vec!["brute"],
            "{:?}: only the exempt terminal may run",
            p.kind()
        );
        assert!(
            tel.breaker_skips >= 1,
            "{:?}: skipped links are counted, got {}",
            p.kind(),
            tel.breaker_skips
        );
        for s in registry.snapshot() {
            if s.backend == "sequential" || s.backend == "rayon" {
                assert_eq!(s.state, BreakerState::Open, "{} stays open", s.backend);
            }
        }
    }
    // The registry never transitioned: virtual time never advanced.
    assert_eq!(registry.state("sequential"), BreakerState::Open);
    assert_eq!(registry.state("rayon"), BreakerState::Open);
}

#[test]
fn violations_and_panics_compose_without_escaping() {
    // Both fault kinds at once, across seeds: whatever happens, the
    // result is a typed Ok/Err — never a propagating panic — and Ok
    // results are correct for the corrupted array.
    let base = monge_16();
    let d = Dispatcher::with_default_backends();
    for seed in 0..16u64 {
        let f = FaultInjector::new(
            base.clone(),
            FaultPlan::none(seed)
                .violations(100)
                .panics(30)
                .panic_budget(2),
            50_000i64,
        );
        match d.solve_guarded(&Problem::row_minima(&f), &GuardPolicy::full_validation()) {
            Ok((sol, tel)) => {
                // The reference scan may trip a panic site the solve
                // never reached (budget left over); only compare when
                // it reads clean.
                let scan =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| scan_row_minima(&f)));
                if let Ok(reference) = scan {
                    assert_eq!(sol.into_rows().index, reference, "seed {seed}");
                }
                assert!(tel.guard.is_some());
            }
            Err(e) => {
                assert!(
                    matches!(e, SolveError::BackendPanic { .. }),
                    "seed {seed}: unexpected error {e}"
                );
            }
        }
    }
}
