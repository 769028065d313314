//! Evaluation-layer and parallel-runtime micro-benchmarks with JSON
//! summaries (plain `std::time`, no criterion):
//!
//! * `bench-results/rowmin.json` — per-entry vs batched row minima, the
//!   ≥1.5× dense-batching acceptance bar.
//! * `bench-results/parallel.json` — wall-clock speedup curves for the
//!   rayon engines at 1/2/4/8 pool threads over a dense row-minima
//!   search, a DIST `(min,+)` combination, and the end-to-end string
//!   editing pipeline.
//!
//! ```text
//! cargo run --release --bin rowmin_json
//! ```
//!
//! Setting `MONGE_BENCH_QUICK` (to anything but `0` or empty) shrinks
//! every workload to smoke-test size — CI uses this to keep the binary
//! exercised without paying benchmark wall-clock. Speedup numbers are
//! only meaningful on a multi-core host; on a single hardware thread the
//! curves flatten at ~1× and merely certify that pool fan-out adds no
//! correctness or blow-up hazard.

use monge_apps::string_edit::{
    combine_dist_arrays_with, edit_distance_dist_tree_with, edit_distance_dp, strip_dist, CostModel,
};
use monge_bench::json::{document, Record};
use monge_bench::workloads::{monge_square, rng_for};
use monge_core::array2d::{Array2d, Dense};
use monge_core::eval;
use monge_core::generators::{random_monge_dense, ImplicitMonge};
use monge_core::kernel::{self, Kernel};
use monge_core::problem::Problem;
use monge_parallel::{Dispatcher, Tuning};
use rand::RngExt;
use rayon::ThreadPoolBuilder;
use std::hint::black_box;
use std::time::Instant;

const ROWS: usize = 64;
const THREADS: [usize; 4] = [1, 2, 4, 8];

/// What every engine's inner loop did before batching: a per-entry scan
/// tracking the leftmost argmin *index* and its value.
fn per_entry_row_minima<A: Array2d<i64>>(a: &A) -> Vec<(usize, i64)> {
    (0..a.rows())
        .map(|i| {
            let mut bj = 0usize;
            let mut bv = a.entry(i, 0);
            for j in 1..a.cols() {
                let v = a.entry(i, j);
                if v < bv {
                    bj = j;
                    bv = v;
                }
            }
            (bj, bv)
        })
        .collect()
}

fn batched_row_minima<A: Array2d<i64>>(a: &A) -> Vec<(usize, i64)> {
    let mut buf = Vec::new();
    (0..a.rows())
        .map(|i| eval::interval_argmin(a, i, 0, a.cols(), &mut buf))
        .collect()
}

/// Best-of-`reps` wall clock in nanoseconds.
fn time_ns<R, F: FnMut() -> R>(mut f: F, reps: usize) -> u128 {
    let mut best = u128::MAX;
    for _ in 0..reps {
        let t = Instant::now();
        black_box(f());
        best = best.min(t.elapsed().as_nanos());
    }
    best
}

fn quick_mode() -> bool {
    std::env::var("MONGE_BENCH_QUICK").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Times `batched_row_minima` with the kernel selection pinned to `k`.
fn batched_ns_with<A: Array2d<i64>>(a: &A, k: Kernel, reps: usize) -> u128 {
    kernel::with_kernel(k, || time_ns(|| batched_row_minima(a), reps))
}

fn rowmin_json(quick: bool) -> String {
    let reps = if quick { 3 } else { 15 };
    let sizes: &[usize] = if quick {
        &[256, 1024]
    } else {
        &[1024, 4096, 16384]
    };
    let mut records = Vec::new();
    for &n in sizes {
        let dense = random_monge_dense(ROWS, n, &mut rng_for(43, n));
        let implicit = ImplicitMonge::random(ROWS, n, 3, &mut rng_for(44, n));
        assert_eq!(per_entry_row_minima(&dense), batched_row_minima(&dense));
        assert_eq!(
            per_entry_row_minima(&implicit),
            batched_row_minima(&implicit)
        );
        // Four timed columns per substrate: the historical per-entry
        // baseline, the default (`Auto`) batched path — the acceptance
        // metric — and both kernels pinned, so a regression in either
        // shows up even while `Auto` masks it. Without the `simd`
        // feature the `Simd` pin degrades to scalar and the last two
        // columns coincide.
        for (substrate, per_entry, batched, scalar_b, simd_b) in [
            (
                "dense",
                time_ns(|| per_entry_row_minima(&dense), reps),
                time_ns(|| batched_row_minima(&dense), reps),
                batched_ns_with(&dense, Kernel::Scalar, reps),
                batched_ns_with(&dense, Kernel::Simd, reps),
            ),
            (
                "implicit",
                time_ns(|| per_entry_row_minima(&implicit), reps),
                time_ns(|| batched_row_minima(&implicit), reps),
                batched_ns_with(&implicit, Kernel::Scalar, reps),
                batched_ns_with(&implicit, Kernel::Simd, reps),
            ),
        ] {
            let speedup = per_entry as f64 / batched as f64;
            let simd_gain = scalar_b as f64 / simd_b as f64;
            println!(
                "{substrate:>9} n={n:<6} per_entry={per_entry:>10}ns batched={batched:>10}ns \
                 scalar={scalar_b:>10}ns simd={simd_b:>10}ns speedup={speedup:.2}x simd_gain={simd_gain:.2}x"
            );
            records.push(
                Record::new()
                    .str("substrate", substrate)
                    .num("rows", ROWS as u64)
                    .num("n", n as u64)
                    .num("per_entry_ns", per_entry)
                    .num("batched_ns", batched)
                    .num("scalar_batched_ns", scalar_b)
                    .num("simd_batched_ns", simd_b)
                    .float("speedup", speedup)
                    .float("simd_gain", simd_gain)
                    .render(),
            );
        }
    }
    document("rowmin", &records)
}

/// Times `work` under fresh rayon pools of 1/2/4/8 threads and renders
/// one JSON curve record.
fn speedup_curve(name: &str, size: usize, reps: usize, work: &(dyn Fn() + Sync)) -> String {
    let mut times = Vec::new();
    for &k in &THREADS {
        let pool = ThreadPoolBuilder::new()
            .num_threads(k)
            .build()
            .expect("build rayon pool");
        times.push(time_ns(|| pool.install(work), reps));
    }
    let base = times[0] as f64;
    let speedups: Vec<String> = times
        .iter()
        .map(|&ns| format!("{:.3}", base / ns as f64))
        .collect();
    let times_s: Vec<String> = times.iter().map(u128::to_string).collect();
    println!(
        "{name:>16} size={size:<6} t1={}ns speedups=[{}]",
        times[0],
        speedups.join(", ")
    );
    Record::new()
        .str("workload", name)
        .num("size", size as u64)
        .raw_array("threads", "1, 2, 4, 8")
        .raw_array("times_ns", &times_s.join(", "))
        .raw_array("speedup", &speedups.join(", "))
        .render()
}

fn parallel_json(quick: bool) -> String {
    let reps = if quick { 3 } else { 5 };
    let dense_sizes: &[usize] = if quick { &[192] } else { &[1024, 8192] };
    let len = if quick { 160 } else { 600 };
    let strips = if quick { 4 } else { 8 };
    let t = Tuning::from_env();

    let mut rng = rng_for(45, len);
    let x: Vec<u8> = (0..len).map(|_| b'a' + rng.random_range(0..4u8)).collect();
    let y: Vec<u8> = (0..len).map(|_| b'a' + rng.random_range(0..4u8)).collect();
    let c = CostModel::unit();
    let half = len / 2;
    let da = strip_dist(&x[..half], &y, &c);
    let db = strip_dist(&x[half..], &y, &c);
    // Sanity before timing: the parallel pipeline must reproduce the DP.
    assert_eq!(
        edit_distance_dist_tree_with(&x, &y, &c, strips, t),
        edit_distance_dp(&x, &y, &c)
    );

    let dist_combine = || {
        black_box::<Dense<i64>>(combine_dist_arrays_with(&da, &db, t));
    };
    let string_edit = || {
        black_box(edit_distance_dist_tree_with(&x, &y, &c, strips, t));
    };
    let mut curves = Vec::new();
    let disp = Dispatcher::with_default_backends();
    for &n in dense_sizes {
        let dense = monge_square(n);
        let p = Problem::row_minima(&dense);
        let dense_rowmin = || {
            black_box(disp.solve_on("rayon", &p, t).expect("rayon backend").0);
        };
        curves.push(speedup_curve("dense_rowmin", n, reps, &dense_rowmin));
    }
    curves.push(speedup_curve(
        "dist_combine",
        y.len() + 1,
        reps,
        &dist_combine,
    ));
    curves.push(speedup_curve("string_edit_e2e", len, reps, &string_edit));
    document("parallel", &curves)
}

fn main() {
    let quick = quick_mode();
    if quick {
        println!("MONGE_BENCH_QUICK set: smoke-test sizes");
    }
    std::fs::create_dir_all("bench-results").expect("create bench-results/");
    let rowmin = rowmin_json(quick);
    std::fs::write("bench-results/rowmin.json", &rowmin).expect("write rowmin.json");
    println!("wrote bench-results/rowmin.json");
    let parallel = parallel_json(quick);
    std::fs::write("bench-results/parallel.json", &parallel).expect("write parallel.json");
    println!("wrote bench-results/parallel.json");
}
