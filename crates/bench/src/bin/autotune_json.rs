//! Autotune winner-vs-default speedups: `bench-results/autotune.json`.
//!
//! One representative problem per [`ProblemKind`], each solved as a
//! single-member `Dispatcher::solve_batch_report` so the dispatcher's
//! own in-memory autotuner measures the winner for that key. Per row the
//! JSON records the autotune key coordinates, the provenance the solve
//! reported, the backend/tuning the static selection heuristic would
//! have picked, the measured winner, and `ratio` — best-of-reps wall
//! clock of the default configuration over the winner configuration on
//! the *full-size* problem (not the subsampled probe the tuner timed).
//! When the winner coincides with the default the ratio is exactly 1.0
//! by construction: there is nothing to race, and committed files must
//! not carry noise-only deviations.
//!
//! Both configurations are asserted bitwise-identical before anything
//! is timed — autotuning must be invisible in the answers.
//!
//! The committed file is enforced by the
//! `crates/bench/tests/autotune_guard.rs` tripwire: the measured winner
//! must never lose to the default selection (`ratio >= 1.0` on every
//! row).
//!
//! ```text
//! cargo run --release --bin autotune_json
//! ```
//!
//! `MONGE_BENCH_QUICK` shrinks every problem to smoke-test size (quick
//! numbers are not meaningful and are never committed).

use monge_bench::json::{document, Record};
use monge_bench::workloads::rng_for;
use monge_core::array2d::Dense;
use monge_core::generators::{random_monge_dense, random_staircase_boundary};
use monge_core::problem::{Problem, ProblemKind};
use monge_parallel::autotune::{self, AutotuneKey};
use monge_parallel::{AutotuneMode, Autotuner, BatchPolicy, Dispatcher, Tuning};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

fn quick_mode() -> bool {
    std::env::var("MONGE_BENCH_QUICK").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Owned storage for one representative problem; the [`Problem`]
/// borrows from it.
struct Case {
    kind: ProblemKind,
    arrays: Vec<Dense<i64>>,
    boundary: Vec<usize>,
    lo: Vec<usize>,
    hi: Vec<usize>,
}

impl Case {
    fn problem(&self) -> Problem<'_, i64> {
        match self.kind {
            ProblemKind::RowMinima => Problem::row_minima(&self.arrays[0]),
            ProblemKind::RowMaxima => Problem::row_maxima(&self.arrays[0]),
            ProblemKind::StaircaseRowMinima => {
                Problem::staircase_row_minima(&self.arrays[0], &self.boundary)
            }
            ProblemKind::BandedRowMinima => {
                Problem::banded_row_minima(&self.arrays[0], &self.lo, &self.hi)
            }
            ProblemKind::BandedRowMaxima => {
                Problem::banded_row_maxima(&self.arrays[0], &self.lo, &self.hi)
            }
            ProblemKind::TubeMinima => Problem::tube_minima(&self.arrays[0], &self.arrays[1]),
            ProblemKind::TubeMaxima => Problem::tube_maxima(&self.arrays[0], &self.arrays[1]),
        }
    }
}

/// One representative per problem kind. Bands are half-width diagonal
/// strips with the monotone endpoints the banded divide & conquer
/// requires (non-decreasing for minima, non-increasing for maxima).
fn cases(quick: bool) -> Vec<Case> {
    let (m, n, tube_n) = if quick {
        (48, 160, 24)
    } else {
        (512, 2048, 256)
    };
    ProblemKind::ALL
        .iter()
        .enumerate()
        .map(|(k, &kind)| {
            let tag = 0xA7_00 + k as u64;
            let mut case = Case {
                kind,
                arrays: Vec::new(),
                boundary: Vec::new(),
                lo: Vec::new(),
                hi: Vec::new(),
            };
            match kind {
                ProblemKind::TubeMinima | ProblemKind::TubeMaxima => {
                    case.arrays.push(random_monge_dense(
                        tube_n,
                        tube_n,
                        &mut rng_for(tag, tube_n),
                    ));
                    case.arrays.push(random_monge_dense(
                        tube_n,
                        tube_n,
                        &mut rng_for(tag + 0x50, tube_n),
                    ));
                }
                _ => {
                    case.arrays
                        .push(random_monge_dense(m, n, &mut rng_for(tag, n)));
                    match kind {
                        ProblemKind::StaircaseRowMinima => {
                            case.boundary = random_staircase_boundary(m, n, &mut rng_for(tag, m));
                        }
                        ProblemKind::BandedRowMinima => {
                            case.lo = (0..m).map(|i| (i * n) / (2 * m)).collect();
                            case.hi = case.lo.iter().map(|&l| (l + n / 2).min(n)).collect();
                        }
                        ProblemKind::BandedRowMaxima => {
                            case.lo = (0..m).map(|i| ((m - 1 - i) * n) / (2 * m)).collect();
                            case.hi = case.lo.iter().map(|&l| (l + n / 2).min(n)).collect();
                        }
                        _ => {}
                    }
                }
            }
            case
        })
        .collect()
}

/// Best-of-`reps` wall clock with one untimed warm-up, matching the
/// autotuner's own timing discipline.
fn best_ns(reps: usize, mut f: impl FnMut()) -> u128 {
    f();
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos()
        })
        .min()
        .expect("reps >= 1")
}

fn main() {
    let quick = quick_mode();
    if quick {
        println!("MONGE_BENCH_QUICK set: smoke-test sizes");
    }
    let reps = if quick { 3 } else { 9 };
    let tuner = Arc::new(Autotuner::in_memory(AutotuneMode::On));
    let d = Dispatcher::<i64>::with_default_backends().with_autotuner(Arc::clone(&tuner));
    println!("host=\"{}\"", autotune::host_fingerprint());
    let build = if monge_core::kernel::simd_compiled() {
        "simd"
    } else {
        "default"
    };

    let all = cases(quick);
    let mut records = Vec::new();
    for case in &all {
        let p = case.problem();
        // Drives the measurement for this key.
        let report = d.solve_batch_report(std::slice::from_ref(&p), &BatchPolicy::default());
        let provenance = report.telemetry[0]
            .provenance
            .expect("batch members stamp provenance");
        let autotuned_solution = report.results[0]
            .as_ref()
            .expect("representative problems solve");

        let key = AutotuneKey::of(&p);
        let default_tuning = Tuning::from_env();
        let default_backend = d.select(&p, &default_tuning).name();
        let (default_solution, _) = d
            .solve_on(default_backend, &p, default_tuning)
            .expect("the selected backend solves its own selection");
        assert_eq!(
            *autotuned_solution, default_solution,
            "{:?}: autotuned answer diverges from the default path",
            case.kind
        );

        let (winner_backend, winner_tuning) = match tuner.lookup(&key) {
            Some(w) => (w.backend, w.tuning),
            // No winner was measured: the winner *is* the default and
            // the row records a 1.0 ratio.
            None => (default_backend, default_tuning),
        };
        let identical = winner_backend == default_backend && winner_tuning == default_tuning;
        let (default_ns, winner_ns, ratio) = if identical {
            let ns = best_ns(reps, || {
                black_box(d.solve_on(default_backend, &p, default_tuning));
            });
            (ns, ns, 1.0)
        } else {
            let winner_ns = best_ns(reps, || {
                black_box(d.solve_on(winner_backend, &p, winner_tuning));
            });
            let default_ns = best_ns(reps, || {
                black_box(d.solve_on(default_backend, &p, default_tuning));
            });
            (default_ns, winner_ns, default_ns as f64 / winner_ns as f64)
        };
        println!(
            "{:>18?} prov={:<8} default={:<10} winner={:<10} ratio={ratio:.2}x",
            case.kind,
            provenance.as_str(),
            default_backend,
            winner_backend,
        );
        records.push(
            Record::new()
                .str("kind", &format!("{:?}", case.kind))
                .num("size_class", u128::from(key.size_class))
                .str("elem", key.elem)
                .str("build", build)
                .str("provenance", provenance.as_str())
                .str("default_backend", default_backend)
                .str("winner_backend", winner_backend)
                .num("default_ns", default_ns)
                .num("winner_ns", winner_ns)
                .float("ratio", ratio)
                .render(),
        );
    }

    std::fs::create_dir_all("bench-results").expect("create bench-results/");
    let doc = document("autotune", &records);
    std::fs::write("bench-results/autotune.json", &doc).expect("write autotune.json");
    println!(
        "wrote bench-results/autotune.json ({} measurements)",
        tuner.measurements()
    );
}
