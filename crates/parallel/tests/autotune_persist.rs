//! Persistence and robustness tests for the autotune winner table: a
//! valid file warms the next process (simulated here by a fresh
//! [`Autotuner`] on the same directory), and every corruption — a
//! truncated file, a wrong schema version, a wrong host fingerprint, an
//! unwritable directory — silently falls back to measurement (or to the
//! calibration probe in `readonly` mode) without panicking or erroring
//! a solve.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use monge_core::array2d::Dense;
use monge_core::generators::random_monge_dense;
use monge_core::monge::brute_row_minima;
use monge_core::problem::{Problem, TuningProvenance};
use monge_parallel::{AutotuneMode, Autotuner, Dispatcher};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A unique scratch directory per test, without the `tempfile` crate.
fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "monge-autotune-test-{}-{}-{}",
        tag,
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn fixture(seed: u64) -> Dense<i64> {
    let mut rng = StdRng::seed_from_u64(seed);
    random_monge_dense(48, 48, &mut rng)
}

fn table_path(dir: &std::path::Path) -> PathBuf {
    dir.join(monge_parallel::autotune::TABLE_FILE)
}

/// Measured winner lands on disk; a fresh instance on the same
/// directory serves it from cache with zero measurements.
#[test]
fn winners_survive_a_process_restart() {
    let dir = scratch_dir("restart");
    let a = fixture(1);
    let p = Problem::row_minima(&a);
    let want = brute_row_minima(&a);

    let cold = Arc::new(Autotuner::with_dir(AutotuneMode::On, &dir));
    let d = Dispatcher::<i64>::with_default_backends().with_autotuner(cold.clone());
    let (sol, tel) = d.solve_calibrated(&p);
    assert_eq!(sol.rows().index, want);
    assert_eq!(tel.provenance, Some(TuningProvenance::Measured));
    assert_eq!(cold.measurements(), 1);
    assert!(table_path(&dir).exists(), "winner table must be written");

    // "Next process": a fresh autotuner seeded from the same directory.
    let warm = Arc::new(Autotuner::with_dir(AutotuneMode::On, &dir));
    let d = Dispatcher::<i64>::with_default_backends().with_autotuner(warm.clone());
    let (sol, tel) = d.solve_calibrated(&p);
    assert_eq!(sol.rows().index, want);
    assert_eq!(tel.provenance, Some(TuningProvenance::Cached));
    assert_eq!(warm.measurements(), 0, "warm cache must not re-measure");

    std::fs::remove_dir_all(&dir).ok();
}

/// Each corruption mode loads as an empty table: the solve re-measures
/// (provenance `measured`, one measurement) and still returns the right
/// answer.
#[test]
fn corrupted_tables_fall_back_to_measurement() {
    let dir = scratch_dir("corrupt");
    let a = fixture(2);
    let p = Problem::row_minima(&a);
    let want = brute_row_minima(&a);

    // Seed a genuine table first.
    let seeder = Arc::new(Autotuner::with_dir(AutotuneMode::On, &dir));
    let d = Dispatcher::<i64>::with_default_backends().with_autotuner(seeder);
    d.solve_calibrated(&p);
    let valid = std::fs::read_to_string(table_path(&dir)).unwrap();

    let corruptions: &[(&str, String)] = &[
        ("truncated", valid[..valid.len() / 2].to_string()),
        ("not json at all", "hello, I am not a table\n".to_string()),
        ("empty", String::new()),
        (
            "wrong schema version",
            valid.replace("\"schema\": ", "\"schema\": 9"),
        ),
        (
            "wrong host fingerprint",
            valid.replace("\"host\": \"", "\"host\": \"other-machine "),
        ),
    ];
    for (what, bytes) in corruptions {
        std::fs::write(table_path(&dir), bytes).unwrap();
        let tuner = Arc::new(Autotuner::with_dir(AutotuneMode::On, &dir));
        assert_eq!(
            tuner.entries().len(),
            0,
            "{what}: corrupt table must seed nothing"
        );
        let d = Dispatcher::<i64>::with_default_backends().with_autotuner(tuner.clone());
        let (sol, tel) = d.solve_calibrated(&p);
        assert_eq!(sol.rows().index, want, "{what}");
        assert_eq!(
            tel.provenance,
            Some(TuningProvenance::Measured),
            "{what}: must re-measure"
        );
        assert_eq!(tuner.measurements(), 1, "{what}");
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// An unwritable directory degrades to memory-only caching: the solve
/// measures, succeeds, and later calls in the same instance hit the
/// in-memory winner — no panic, no error, no file.
#[test]
fn unwritable_directory_degrades_to_memory_only() {
    let dir = scratch_dir("readonly-dir");
    // A *file* where the table's parent directory should be makes every
    // create_dir_all/write fail regardless of uid (chmod-based
    // read-only is a no-op when tests run as root).
    let blocked = dir.join("blocked");
    std::fs::write(&blocked, b"i am a file, not a directory").unwrap();
    let tuner = Arc::new(Autotuner::with_dir(
        AutotuneMode::On,
        blocked.join("nested"),
    ));
    let a = fixture(3);
    let p = Problem::row_minima(&a);
    let d = Dispatcher::<i64>::with_default_backends().with_autotuner(tuner.clone());
    let (sol, tel) = d.solve_calibrated(&p);
    assert_eq!(sol.rows().index, brute_row_minima(&a));
    assert_eq!(tel.provenance, Some(TuningProvenance::Measured));
    // Second call: the in-memory table still serves the winner.
    let (_, tel) = d.solve_calibrated(&p);
    assert_eq!(tel.provenance, Some(TuningProvenance::Cached));
    assert_eq!(tuner.measurements(), 1);

    std::fs::remove_dir_all(&dir).ok();
}

/// `readonly` mode: cached winners are served, cold keys fall back to
/// the calibration probe, and nothing is ever measured or written.
#[test]
fn readonly_mode_serves_hits_and_probes_misses() {
    let dir = scratch_dir("readonly-mode");
    let warm_array = fixture(4);
    let warm = Problem::row_minima(&warm_array);

    // Warm the key with a writing instance first.
    let writer = Arc::new(Autotuner::with_dir(AutotuneMode::On, &dir));
    let d = Dispatcher::<i64>::with_default_backends().with_autotuner(writer);
    d.solve_calibrated(&warm);
    let table_before = std::fs::read_to_string(table_path(&dir)).unwrap();

    let ro = Arc::new(Autotuner::with_dir(AutotuneMode::ReadOnly, &dir));
    let d = Dispatcher::<i64>::with_default_backends().with_autotuner(ro.clone());
    // Hit: served from the loaded table.
    let (sol, tel) = d.solve_calibrated(&warm);
    assert_eq!(sol.rows().index, brute_row_minima(&warm_array));
    assert_eq!(tel.provenance, Some(TuningProvenance::Cached));
    // Miss (different size class): probed, not measured.
    let mut rng = StdRng::seed_from_u64(5);
    let cold_array = random_monge_dense(300, 300, &mut rng);
    let cold = Problem::row_minima(&cold_array);
    let (sol, tel) = d.solve_calibrated(&cold);
    assert_eq!(sol.rows().index, brute_row_minima(&cold_array));
    assert_eq!(tel.provenance, Some(TuningProvenance::Probed));
    assert_eq!(ro.measurements(), 0, "readonly must never measure");
    assert_eq!(
        std::fs::read_to_string(table_path(&dir)).unwrap(),
        table_before,
        "readonly must never write"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// `off` mode bypasses the table entirely: every solve probes, nothing
/// is measured, nothing is written.
#[test]
fn off_mode_always_probes() {
    let tuner = Arc::new(Autotuner::off());
    let a = fixture(6);
    let p = Problem::row_minima(&a);
    let d = Dispatcher::<i64>::with_default_backends().with_autotuner(tuner.clone());
    for _ in 0..2 {
        let (sol, tel) = d.solve_calibrated(&p);
        assert_eq!(sol.rows().index, brute_row_minima(&a));
        assert_eq!(tel.provenance, Some(TuningProvenance::Probed));
    }
    assert_eq!(tuner.measurements(), 0);
}

/// Explicit tunings keep their `default` provenance: the autotuner only
/// decides for the calibrated entry points.
#[test]
fn explicit_tuning_paths_stamp_default_provenance() {
    let a = fixture(7);
    let p = Problem::row_minima(&a);
    let d = Dispatcher::<i64>::with_default_backends();
    let (_, tel) = d.solve_with(&p, monge_parallel::Tuning::DEFAULT);
    assert_eq!(tel.provenance, Some(TuningProvenance::Default));
    let (_, tel) = d.solve(&p);
    assert_eq!(tel.provenance, Some(TuningProvenance::Default));
}

/// Tables written while the batch layer still had a chunk-count knob
/// carry a `"batch_chunks"` field in every entry. Entries are read by
/// key, so the retired field is ignored and such a table still warms
/// the next process.
#[test]
fn tables_with_the_retired_batch_chunks_field_still_load() {
    let dir = scratch_dir("retired-field");
    let a = fixture(8);
    let p = Problem::row_minima(&a);
    let seeder = Arc::new(Autotuner::with_dir(AutotuneMode::On, &dir));
    let d = Dispatcher::<i64>::with_default_backends().with_autotuner(seeder.clone());
    d.solve_calibrated(&p);
    let valid = std::fs::read_to_string(table_path(&dir)).unwrap();
    let old = valid.replace("\"kernel\": ", "\"batch_chunks\": 4, \"kernel\": ");
    assert_ne!(old, valid, "every entry names its kernel");
    std::fs::write(table_path(&dir), &old).unwrap();

    let tuner = Arc::new(Autotuner::with_dir(AutotuneMode::On, &dir));
    assert_eq!(tuner.entries(), seeder.entries());
    let d = Dispatcher::<i64>::with_default_backends().with_autotuner(tuner.clone());
    let (sol, tel) = d.solve_calibrated(&p);
    assert_eq!(sol.rows().index, brute_row_minima(&a));
    assert_eq!(tel.provenance, Some(TuningProvenance::Cached));
    assert_eq!(tuner.measurements(), 0, "the old table must not re-measure");

    std::fs::remove_dir_all(&dir).ok();
}
