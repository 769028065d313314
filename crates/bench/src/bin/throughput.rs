//! Batched-serving throughput: `bench-results/throughput.json`.
//!
//! Measures the [`monge_parallel::batch`] service against the
//! one-at-a-time serving loop it replaces, over a ladder of batch
//! mixes. Both sides solve the identical problem list and the results
//! are asserted bitwise-identical before anything is timed:
//!
//! * **loop** — what a per-request service does: for each problem,
//!   calibrate the grain cutoffs against its array
//!   ([`monge_parallel::calibrate`]), then `solve_guarded_with`. Every
//!   request pays calibration (hundreds of microseconds of timed probe
//!   scans) plus its own selection/validation bookkeeping.
//! * **batched** — one `solve_batch_report` call: problems grouped by
//!   autotune key, one autotune decision (backend and tuning) per
//!   group, then each member through the guarded
//!   fallback chain from its group's backend, one after another.
//!
//! Per ladder row the JSON records best-of-reps wall clock for both
//! modes, solves/sec, per-request p50/p99 latency for the loop and
//! whole-batch p50/p99 for the batched path, and the throughput
//! speedup. The committed file is enforced by the
//! `crates/bench/tests/throughput_guard.rs` tripwire: batched must
//! never lose (≥ 1.0× on every row) and must win ≥ 1.3× on at least
//! one mixed-size row.
//!
//! ```text
//! cargo run --release --bin throughput
//! ```
//!
//! `MONGE_BENCH_QUICK` shrinks every row to smoke-test size (CI keeps
//! the binary exercised without benchmark wall-clock; quick numbers
//! are not meaningful and are never committed).
//!
//! The committed file is generated from the release `--features simd`
//! build (each record carries a `build` field saying so), when
//! `calibrate` still timed the scalar scan against the lane kernel on
//! every call; it now sizes grains only. On the default build dense
//! calibration is only a few microseconds and the two modes run near
//! parity.
//!
//! The committed rows were measured on an earlier batch path that cut
//! each group's members into row strips across the pool; they have not
//! been re-measured since that path was replaced.

use monge_bench::json::{document, Record};
use monge_bench::workloads::rng_for;
use monge_core::array2d::Dense;
use monge_core::generators::{random_monge_dense, random_staircase_boundary};
use monge_core::problem::{Problem, Solution};
use monge_parallel::{calibrate, BatchPolicy, Dispatcher};
use std::hint::black_box;
use std::time::Instant;

fn quick_mode() -> bool {
    std::env::var("MONGE_BENCH_QUICK").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Owned storage for one ladder row; problems borrow from it.
struct Mix {
    name: &'static str,
    arrays: Vec<Dense<i64>>,
    /// `(array index, spec)` per problem, in submission order.
    specs: Vec<Spec>,
    boundaries: Vec<Vec<usize>>,
}

enum Spec {
    RowMin(usize),
    RowMax(usize),
    /// `(array, boundary)` indices.
    Staircase(usize, usize),
    /// `(d, e)` array indices.
    Tube(usize, usize),
}

impl Mix {
    fn problems(&self) -> Vec<Problem<'_, i64>> {
        self.specs
            .iter()
            .map(|s| match *s {
                Spec::RowMin(a) => Problem::row_minima(&self.arrays[a]),
                Spec::RowMax(a) => Problem::row_maxima(&self.arrays[a]),
                Spec::Staircase(a, b) => {
                    Problem::staircase_row_minima(&self.arrays[a], &self.boundaries[b])
                }
                Spec::Tube(d, e) => Problem::tube_minima(&self.arrays[d], &self.arrays[e]),
            })
            .collect()
    }

    /// The array the loop baseline calibrates against per request (the
    /// primary array — same choice the batch path makes per group).
    fn calibration_array(&self, idx: usize) -> &Dense<i64> {
        match self.specs[idx] {
            Spec::RowMin(a) | Spec::RowMax(a) | Spec::Staircase(a, _) | Spec::Tube(a, _) => {
                &self.arrays[a]
            }
        }
    }
}

/// `count` square Monge arrays of side `n`, distinct seeds.
fn squares(mix: &mut Mix, count: usize, n: usize, tag: u64) -> Vec<usize> {
    (0..count)
        .map(|k| {
            mix.arrays
                .push(random_monge_dense(n, n, &mut rng_for(tag + k as u64, n)));
            mix.arrays.len() - 1
        })
        .collect()
}

fn uniform(name: &'static str, count: usize, n: usize, tag: u64) -> Mix {
    let mut mix = Mix {
        name,
        arrays: Vec::new(),
        specs: Vec::new(),
        boundaries: Vec::new(),
    };
    for a in squares(&mut mix, count, n, tag) {
        mix.specs.push(Spec::RowMin(a));
    }
    mix
}

/// The acceptance row: a few large problems next to a tail of small
/// ones, all row minima — the shape where per-request calibration
/// dominates the small requests.
fn mixed_sizes(quick: bool) -> Mix {
    let (big, big_n, mid, mid_n, small, small_n) = if quick {
        (1, 128, 2, 64, 4, 32)
    } else {
        (2, 1024, 14, 256, 48, 64)
    };
    let mut mix = Mix {
        name: "mixed_sizes",
        arrays: Vec::new(),
        specs: Vec::new(),
        boundaries: Vec::new(),
    };
    for (count, n, tag) in [(big, big_n, 300), (mid, mid_n, 400), (small, small_n, 500)] {
        for a in squares(&mut mix, count, n, tag) {
            mix.specs.push(Spec::RowMin(a));
        }
    }
    mix
}

/// All four request families in one batch: minima, maxima, staircase
/// and tube requests land in distinct groups and must each get their
/// own calibration and deadline slice.
fn mixed_kinds(quick: bool) -> Mix {
    let (n, rows_count, tube_n) = if quick { (48, 2, 24) } else { (128, 8, 64) };
    let mut mix = Mix {
        name: "mixed_kinds",
        arrays: Vec::new(),
        specs: Vec::new(),
        boundaries: Vec::new(),
    };
    for a in squares(&mut mix, rows_count, n, 600) {
        mix.specs.push(Spec::RowMin(a));
    }
    for a in squares(&mut mix, rows_count, n, 700) {
        mix.specs.push(Spec::RowMax(a));
    }
    for a in squares(&mut mix, rows_count / 2, n, 800) {
        mix.boundaries
            .push(random_staircase_boundary(n, n, &mut rng_for(801, n)));
        mix.specs.push(Spec::Staircase(a, mix.boundaries.len() - 1));
    }
    for k in 0..rows_count / 2 {
        let d = squares(&mut mix, 1, tube_n, 900 + k as u64)[0];
        let e = squares(&mut mix, 1, tube_n, 950 + k as u64)[0];
        mix.specs.push(Spec::Tube(d, e));
    }
    mix
}

fn percentile(sorted_ns: &[u128], p: f64) -> u128 {
    let idx = ((sorted_ns.len() - 1) as f64 * p).round() as usize;
    sorted_ns[idx]
}

fn bench_mix(d: &Dispatcher<i64>, mix: &Mix, reps: usize) -> String {
    let problems = mix.problems();
    let policy = BatchPolicy::default();
    let guard = policy.guard;

    // Correctness gate before timing: the batch must be bitwise-
    // identical to the loop it replaces.
    let loop_solutions: Vec<Solution<i64>> = problems
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let t = calibrate(mix.calibration_array(i));
            d.solve_guarded_with(p, &guard, t).expect("loop solve").0
        })
        .collect();
    let batch_solutions = d.solve_batch(&problems, policy);
    for (i, (a, b)) in loop_solutions.iter().zip(&batch_solutions).enumerate() {
        assert_eq!(
            a,
            b.as_ref().expect("batch solve"),
            "batch diverges from loop on problem {i} of {}",
            mix.name
        );
    }

    // Loop mode: per-request wall clocks, pooled across reps.
    let mut request_ns: Vec<u128> = Vec::new();
    let mut loop_walls: Vec<u128> = Vec::new();
    for _ in 0..reps {
        let t0 = Instant::now();
        for (i, p) in problems.iter().enumerate() {
            let t = Instant::now();
            let tuning = calibrate(mix.calibration_array(i));
            black_box(d.solve_guarded_with(p, &guard, tuning).expect("loop solve"));
            request_ns.push(t.elapsed().as_nanos());
        }
        loop_walls.push(t0.elapsed().as_nanos());
    }

    // Batched mode: whole-batch wall clocks.
    let mut batch_walls: Vec<u128> = Vec::new();
    for _ in 0..reps {
        let t0 = Instant::now();
        let report = d.solve_batch_report(&problems, &policy);
        black_box(&report.results);
        batch_walls.push(t0.elapsed().as_nanos());
    }

    request_ns.sort_unstable();
    let mut sorted_batch = batch_walls.clone();
    sorted_batch.sort_unstable();
    let loop_best = *loop_walls.iter().min().expect("reps >= 1");
    let batch_best = sorted_batch[0];
    let n = problems.len() as f64;
    let loop_sps = n * 1e9 / loop_best as f64;
    let batch_sps = n * 1e9 / batch_best as f64;
    let speedup = loop_best as f64 / batch_best as f64;
    println!(
        "{:>12} batch={:<3} loop={:>11}ns batched={:>11}ns loop_sps={loop_sps:>9.1} \
         batch_sps={batch_sps:>9.1} speedup={speedup:.2}x",
        mix.name,
        problems.len(),
        loop_best,
        batch_best,
    );
    let build = if monge_core::kernel::simd_compiled() {
        "simd"
    } else {
        "default"
    };
    Record::new()
        .str("workload", mix.name)
        .str("build", build)
        .num("batch", problems.len() as u64)
        .num("reps", reps as u64)
        .num("loop_ns", loop_best)
        .num("batched_ns", batch_best)
        .float("loop_solves_per_sec", loop_sps)
        .float("batched_solves_per_sec", batch_sps)
        .num("loop_request_p50_ns", percentile(&request_ns, 0.50))
        .num("loop_request_p99_ns", percentile(&request_ns, 0.99))
        .num("batch_wall_p50_ns", percentile(&sorted_batch, 0.50))
        .num("batch_wall_p99_ns", percentile(&sorted_batch, 0.99))
        .float("speedup", speedup)
        .render()
}

fn main() {
    let quick = quick_mode();
    if quick {
        println!("MONGE_BENCH_QUICK set: smoke-test sizes");
    }
    let reps = if quick { 2 } else { 7 };
    let mixes: Vec<Mix> = if quick {
        vec![
            uniform("uniform_small", 4, 32, 100),
            mixed_sizes(true),
            mixed_kinds(true),
        ]
    } else {
        vec![
            uniform("uniform_small", 64, 64, 100),
            uniform("uniform_medium", 24, 256, 200),
            mixed_sizes(false),
            mixed_kinds(false),
        ]
    };
    let d = Dispatcher::with_default_backends();
    let records: Vec<String> = mixes.iter().map(|m| bench_mix(&d, m, reps)).collect();
    std::fs::create_dir_all("bench-results").expect("create bench-results/");
    let doc = document("throughput", &records);
    std::fs::write("bench-results/throughput.json", &doc).expect("write throughput.json");
    println!("wrote bench-results/throughput.json");
}
