//! Autotune differential conformance: measured backend/tuning selection
//! must be invisible in the answers. Every problem kind solved through
//! a single-member batch with the autotuner on (cold *and* warm) must
//! be bitwise-identical to the autotune-off path and to the sequential
//! reference; a mixed batch under autotune must match the guarded
//! solve loop member for member.

use std::sync::Arc;

use monge_conformance::fuzz::fuzz_budget;
use monge_conformance::gen::generate;
use monge_core::guard::GuardPolicy;
use monge_core::problem::{Problem, ProblemKind, Solution, TuningProvenance};
use monge_parallel::batch::BatchPolicy;
use monge_parallel::{AutotuneMode, Autotuner, Dispatcher, Tuning};

fn autotuned_dispatcher() -> (Dispatcher<i64>, Arc<Autotuner>) {
    let tuner = Arc::new(Autotuner::in_memory(AutotuneMode::On));
    let d = Dispatcher::with_default_backends().with_autotuner(tuner.clone());
    (d, tuner)
}

/// One single-member batch: the autotuned entry point.
fn batch_one(
    d: &Dispatcher<i64>,
    p: &Problem<'_, i64>,
) -> (Solution<i64>, Option<TuningProvenance>) {
    let report = d.solve_batch_report(std::slice::from_ref(p), &BatchPolicy::default());
    let provenance = report.telemetry[0].provenance;
    let sol = report
        .results
        .into_iter()
        .next()
        .expect("one member")
        .expect("valid instances must solve");
    (sol, provenance)
}

#[test]
fn autotuned_solves_agree_with_autotune_on_off_and_sequential() {
    let (on, _tuner) = autotuned_dispatcher();
    let off = Dispatcher::<i64>::with_default_backends().with_autotuner(Arc::new(Autotuner::off()));
    let budget = fuzz_budget(12);
    for (k, kind) in ProblemKind::ALL.iter().enumerate() {
        for i in 0..budget {
            let seed = 0xA7_0000 + (k as u64) * 0x1_0000 + i as u64;
            let inst = generate(*kind, seed);
            let p = inst.problem();
            let (want, _) = off
                .solve_on("sequential", &p, Tuning::DEFAULT)
                .expect("sequential is the universal donor");
            // Cold pass (first size class encounter measures) and warm
            // pass: both must match the sequential reference exactly.
            for pass in ["cold", "warm"] {
                let (sol, provenance) = batch_one(&on, &p);
                assert_eq!(sol, want, "{kind:?} seed {seed} autotune-on ({pass})");
                assert!(provenance.is_some(), "{kind:?} seed {seed} ({pass})");
            }
            let (sol, provenance) = batch_one(&off, &p);
            assert_eq!(sol, want, "{kind:?} seed {seed} autotune-off");
            assert_eq!(
                provenance,
                Some(TuningProvenance::Default),
                "{kind:?} seed {seed}: off-mode must report the defaults"
            );
        }
    }
}

#[test]
fn batch_and_loop_agree_under_autotune() {
    let (d, tuner) = autotuned_dispatcher();
    let budget = fuzz_budget(6);
    let instances: Vec<_> = ProblemKind::ALL
        .iter()
        .enumerate()
        .flat_map(|(k, kind)| {
            (0..budget).map(move |i| generate(*kind, 0xBA7C4 + (k as u64) * 0x1_0000 + i as u64))
        })
        .collect();
    let problems: Vec<_> = instances.iter().map(|inst| inst.problem()).collect();

    let report = d.solve_batch_report(&problems, &BatchPolicy::default());
    for (i, (result, problem)) in report.results.iter().zip(&problems).enumerate() {
        let batch_solution = result.as_ref().expect("valid instances must solve");
        let (loop_solution, _) = d
            .solve_guarded_with(problem, &GuardPolicy::default(), Tuning::from_env())
            .expect("valid instances must solve");
        assert_eq!(
            *batch_solution,
            loop_solution,
            "member {i} ({:?}) batch vs loop",
            problem.kind()
        );
        assert!(
            report.telemetry[i].provenance.is_some(),
            "member {i}: batch group decisions stamp provenance"
        );
    }
    assert!(
        tuner.measurements() > 0,
        "the batch groups should have driven at least one measurement"
    );
    // Every key the batch warmed is a cache hit for the next batch.
    let (_, provenance) = batch_one(&d, &problems[0]);
    assert_eq!(provenance, Some(TuningProvenance::Cached));
}
