//! Single-flight measurement under contention: N threads batching the
//! same cold key on one dispatcher perform exactly one measurement
//! between them — the losers run the env-seeded defaults on the
//! grain-policy backend (or pick up the cached winner if the race has
//! already been decided) instead of blocking or re-measuring.

use std::sync::{Arc, Barrier};

use monge_core::array2d::Dense;
use monge_core::generators::random_monge_dense;
use monge_core::monge::brute_row_minima;
use monge_core::problem::{Problem, Telemetry, TuningProvenance};
use monge_parallel::{AutotuneMode, Autotuner, BatchPolicy, Dispatcher, Tuning};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One single-member batch: the autotuned entry point.
fn solve(d: &Dispatcher<i64>, a: &Dense<i64>) -> Telemetry {
    let report = d.solve_batch_report(&[Problem::row_minima(a)], &BatchPolicy::default());
    let sol = report.results[0].as_ref().expect("valid instance solves");
    assert_eq!(sol.rows().index, brute_row_minima(a));
    report.telemetry[0].clone()
}

#[test]
fn n_threads_on_one_cold_key_measure_exactly_once() {
    const THREADS: usize = 8;
    let tuner = Arc::new(Autotuner::in_memory(AutotuneMode::On));
    let dispatcher =
        Arc::new(Dispatcher::<i64>::with_default_backends().with_autotuner(tuner.clone()));
    // One array per thread, identical shape and structure: every
    // problem maps to the same autotune key.
    let arrays: Vec<Dense<i64>> = (0..THREADS)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(0xC0 + i as u64);
            random_monge_dense(64, 64, &mut rng)
        })
        .collect();
    let barrier = Barrier::new(THREADS);

    let telemetries: Vec<Telemetry> = std::thread::scope(|scope| {
        let handles: Vec<_> = arrays
            .iter()
            .map(|a| {
                let d = Arc::clone(&dispatcher);
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    solve(&d, a)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let provenances: Vec<Option<TuningProvenance>> =
        telemetries.iter().map(|t| t.provenance).collect();

    assert_eq!(
        tuner.measurements(),
        1,
        "same cold key measured more than once (provenances: {provenances:?})"
    );
    let measured = provenances
        .iter()
        .filter(|&&p| p == Some(TuningProvenance::Measured))
        .count();
    assert_eq!(measured, 1, "exactly one thread owns the measurement");
    // Everyone else either hit the cache (measurement already done) or
    // ran the defaults on the grain-policy backend (measurement still
    // in flight).
    let grain = dispatcher
        .select(&Problem::row_minima(&arrays[0]), &Tuning::from_env())
        .name();
    for tel in &telemetries {
        match tel.provenance {
            Some(TuningProvenance::Measured | TuningProvenance::Cached) => {}
            Some(TuningProvenance::Default) => {
                let path = tel.guard.as_ref().expect("batch members are guarded");
                assert_eq!(path.fallback_path(), vec![grain]);
            }
            None => panic!("batch members stamp provenance ({provenances:?})"),
        }
    }

    // The dust has settled: every later solve is a pure cache hit.
    let tel = solve(&dispatcher, &arrays[0]);
    assert_eq!(tel.provenance, Some(TuningProvenance::Cached));
    assert_eq!(tuner.measurements(), 1);
}
