//! Batch-vs-loop differential: `Dispatcher::solve_batch` must be
//! bitwise-identical to the sequential `solve_guarded` loop it
//! replaces — same argmin indices, same values, same tie-breaks — on
//! corpus-seeded mixed-kind batches covering all seven problem kinds,
//! and must degrade *per problem / per group* under injected panics
//! and deadline exhaustion instead of failing the batch.

use std::time::Duration;

use monge_conformance::gen::{generate, Instance};
use monge_core::array2d::Dense;
use monge_core::generators::random_monge_dense;
use monge_core::guard::{FaultInjector, FaultPlan, GuardPolicy, SolveError, Validation};
use monge_core::problem::{Problem, ProblemKind};
use monge_parallel::{BatchPolicy, Dispatcher, Tuning};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Corpus-seeded instances: `per_kind` seeds of every problem kind,
/// interleaved so consecutive batch entries rarely share a group.
fn mixed_instances(per_kind: u64, tag: u64) -> Vec<Instance> {
    let mut insts = Vec::new();
    for seed in 0..per_kind {
        for (k, kind) in ProblemKind::ALL.iter().enumerate() {
            insts.push(generate(*kind, tag + seed * 31 + k as u64 * 0x1000));
        }
    }
    insts
}

/// The tentpole differential: a mixed-kind, mixed-size batch solved in
/// one `solve_batch` call equals the one-at-a-time guarded loop on
/// every problem, for every kind, bitwise.
#[test]
fn batch_equals_guarded_loop_on_mixed_kind_corpus() {
    let d = Dispatcher::with_default_backends();
    let insts = mixed_instances(6, 0xBA7C_0000);
    let problems: Vec<Problem<'_, i64>> = insts.iter().map(Instance::problem).collect();
    let guard = GuardPolicy::default();
    let policy = BatchPolicy::default()
        .with_guard(guard)
        .with_tuning(Tuning::from_env());

    let report = d.solve_batch_report(&problems, &policy);
    assert!(
        report.groups >= ProblemKind::ALL.len(),
        "7 kinds must form at least 7 groups (got {})",
        report.groups
    );
    assert_eq!(report.shed_groups, 0);

    let mut covered = [false; 7];
    for (i, p) in problems.iter().enumerate() {
        covered[p.kind() as usize] = true;
        let (reference, _) = d
            .solve_guarded_with(p, &guard, Tuning::from_env())
            .unwrap_or_else(|e| panic!("loop solve failed on {i}: {e:?}"));
        let batched = report.results[i]
            .as_ref()
            .unwrap_or_else(|e| panic!("batch solve failed on {i}: {e:?}"));
        assert_eq!(
            &reference,
            batched,
            "batch diverges from the guarded loop on problem {i} ({:?}, family {})",
            p.kind(),
            insts[i].family
        );
    }
    assert!(covered.iter().all(|&c| c), "a problem kind went untested");
}

/// A panicking member degrades alone: its first chain links die, its
/// fallback chain carries on, and — because the injector panics without
/// corrupting entries — it still converges to the clean answer. Its
/// group-mates answer on their first link.
#[test]
fn injected_panics_degrade_only_the_affected_problem() {
    let mut rng = StdRng::seed_from_u64(0xFA17_BA7C);
    let clean: Vec<Dense<i64>> = (0..4)
        .map(|_| random_monge_dense(32, 32, &mut rng))
        .collect();
    // Two panics: the first two chain links die once each, and the
    // chain's next link sees a healthy array.
    let plan = FaultPlan::none(7).panics(1000).panic_budget(2);
    let faulty = FaultInjector::new(clean[0].clone(), plan, 0i64);

    let problems: Vec<Problem<'_, i64>> = std::iter::once(Problem::row_minima(&faulty))
        .chain(clean[1..].iter().map(|a| Problem::row_minima(a)))
        .collect();
    let d = Dispatcher::with_default_backends();
    let guard = GuardPolicy {
        validation: Validation::Off,
        ..GuardPolicy::default()
    };
    let policy = BatchPolicy::default()
        .with_guard(guard)
        .with_tuning(Tuning::from_env());
    let report = d.solve_batch_report(&problems, &policy);

    // Every member — the faulted one included — returns the right
    // answer (the injector never corrupts values).
    for (i, a) in clean.iter().enumerate() {
        let p = Problem::row_minima(a);
        let (reference, _) = d
            .solve_guarded_with(&p, &guard, Tuning::from_env())
            .unwrap();
        assert_eq!(
            report.results[i].as_ref().expect("solved"),
            &reference,
            "member {i} diverged"
        );
    }
    // The faulted member is visibly degraded; its group-mates are not.
    let degraded = report.telemetry[0].guard.as_ref().expect("guard outcome");
    assert!(
        degraded.fallback_depth() >= 1,
        "faulted member must record its fallback: {:?}",
        degraded.fallback_path()
    );
    for (a, tel) in clean[1..].iter().zip(&report.telemetry[1..]) {
        let outcome = tel.guard.as_ref().expect("guard outcome");
        let backend = d
            .select(&Problem::row_minima(a), &Tuning::from_env())
            .name();
        assert_eq!(
            outcome.fallback_path(),
            vec![backend],
            "an unfaulted member left its first link"
        );
        assert_eq!(outcome.fallback_depth(), 0);
    }
}

/// Deadline exhaustion is per group: a group whose members stall (every
/// entry read sleeps) burns through its proportional slice and times
/// out, while the fast group in the same batch completes and still
/// matches the loop bitwise.
#[test]
fn deadline_starves_only_the_affected_group() {
    let mut rng = StdRng::seed_from_u64(0xDEAD_BA7C);
    let fast: Vec<Dense<i64>> = (0..6)
        .map(|_| random_monge_dense(64, 64, &mut rng))
        .collect();
    let slow_inner = random_monge_dense(24, 24, &mut rng);
    let slow = FaultInjector::new(
        slow_inner,
        FaultPlan::none(11).latency(1000, Duration::from_millis(2)),
        0i64,
    );

    // Fast 64×64 group first, stalled 24×24 group second: distinct
    // size classes, so distinct groups and distinct deadline slices.
    let problems: Vec<Problem<'_, i64>> = fast
        .iter()
        .map(|a| Problem::row_minima(a))
        .chain(std::iter::once(Problem::row_minima(&slow)))
        .collect();
    let d = Dispatcher::with_default_backends();
    let guard = GuardPolicy {
        validation: Validation::Off,
        ..GuardPolicy::default()
    };
    let policy = BatchPolicy::default()
        .with_guard(guard)
        .with_tuning(Tuning::from_env())
        .with_deadline(Duration::from_millis(80));
    let report = d.solve_batch_report(&problems, &policy);

    for (i, a) in fast.iter().enumerate() {
        let p = Problem::row_minima(a);
        let (reference, _) = d
            .solve_guarded_with(&p, &guard, Tuning::from_env())
            .unwrap();
        assert_eq!(
            report.results[i].as_ref().expect("fast group completes"),
            &reference,
            "fast-group member {i} diverged under a batch deadline"
        );
    }
    match &report.results[fast.len()] {
        Err(SolveError::DeadlineExceeded { .. }) => {}
        other => panic!("stalled group should time out, got {other:?}"),
    }
}

/// Load shedding with `shed_above`: an over-budget group skips its
/// group decision (each member starts at the grain-policy choice) but
/// still returns loop-identical answers.
#[test]
fn shed_groups_still_match_the_loop() {
    let d = Dispatcher::with_default_backends();
    let insts = mixed_instances(2, 0x5ED_0000);
    let problems: Vec<Problem<'_, i64>> = insts.iter().map(Instance::problem).collect();
    let guard = GuardPolicy::default();
    let policy = BatchPolicy::default()
        .with_guard(guard)
        .with_tuning(Tuning::from_env())
        .shed_above(64); // almost everything is over this budget
    let report = d.solve_batch_report(&problems, &policy);
    assert!(report.shed_groups > 0, "the shed threshold never fired");

    for (i, p) in problems.iter().enumerate() {
        let (reference, _) = d
            .solve_guarded_with(p, &guard, Tuning::from_env())
            .unwrap_or_else(|e| panic!("loop solve failed on {i}: {e:?}"));
        let batched = report.results[i]
            .as_ref()
            .unwrap_or_else(|e| panic!("shed batch solve failed on {i}: {e:?}"));
        assert_eq!(&reference, batched, "shed path diverges on problem {i}");
    }
}
