//! The parallel execution runtime: the fork seam, scratch arenas and
//! grain calibration.
//!
//! * **The fork seam** — [`join`] and [`par_map`] are the only places
//!   that fork (a `clippy.toml` lint rejects direct `rayon` forks
//!   elsewhere). Each runs the forked side under the caller's solve
//!   state ([`monge_core::state`]) and adds its counts to the joining
//!   thread exactly once, so a solve's deadline, kernel pin and counters
//!   follow it into its forks and no others.
//! * **Scratch arenas** — the thread-local grow-only buffer pools of
//!   [`monge_core::scratch`], re-exported here ([`with_scratch`],
//!   [`with_scratch2`]). Every recursion leaf and every forked task
//!   checks its scan buffer out of the worker thread's pool instead of
//!   allocating, so steady-state searches perform zero heap
//!   allocations (the `alloc_free` integration test pins this down
//!   with a counting global allocator).
//! * **Grain calibration** — [`calibrate`] sizes the grain candidate
//!   the autotuner ([`crate::autotune`]) races: it times a few row
//!   scans of the array at hand, derives the per-entry evaluation cost,
//!   and sizes the [`Tuning`] cutoffs so each forked task does roughly
//!   [`TARGET_TASK_NANOS`] (~20 µs) of work. Cheap dense rows get
//!   coarse grains; expensive DIST/generator rows get fine grains.
//!
//! ## Calibration model
//!
//! Let `c` be the measured cost of one entry evaluation in
//! nanoseconds. A parallel interval scan splits `[lo, hi)` into
//! chunks of `seq_scan` columns, each costing `c · seq_scan`, so
//!
//! ```text
//! seq_scan = TARGET_TASK_NANOS / c           (clamped to [64, 2^20])
//! ```
//!
//! A sequential leaf of the row recursion over `r` rows touches about
//! `n/m + lg m` entries per row (the column intervals telescope across
//! the leaf, and each level of the binary row split rescans a middle
//! row), so
//!
//! ```text
//! seq_rows = TARGET_TASK_NANOS / (c · (n/m + lg m))   (clamped to [4, 4096])
//! ```
//!
//! Calibration is not a rung of the [`crate::tuning`] ladder: it never
//! decides a solve by itself, reads no environment variable and leaves
//! the kernel choice to the autotuner, which races both kernel pins
//! whenever the SIMD kernels are available.

#![allow(clippy::disallowed_methods)] // the one module allowed to fork

use crate::tuning::Tuning;
use monge_core::array2d::Array2d;
use monge_core::eval;
use monge_core::state::{self, Fork, Tally};
use monge_core::value::Value;
use rayon::prelude::*;
use std::time::Instant;

pub use monge_core::scratch::{pooled_buffers, with_scratch, with_scratch2};

/// Tasks forked through the seam (two per [`join`], one per [`par_map`]
/// item) on the calling thread and the forks it joined.
pub fn task_count() -> u64 {
    state::tally().tasks
}

/// Runs `a` and `b`, potentially in parallel, returning both results;
/// `b` runs under the caller's token and kernel pin. A panic on either
/// side (a fired deadline's `Cancelled` included) reaches the caller.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let fork = Fork::capture();
    let (ra, (rb, spent)) = rayon::join(a, move || fork.run(b));
    state::add(Tally {
        tasks: spent.tasks + 2,
        ..spent
    });
    (ra, rb)
}

/// Maps `f` over `items` in parallel, returning the results in input
/// order. The items are cut into one contiguous piece per runtime
/// thread, each run under the caller's token and kernel pin.
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let len = items.len();
    state::add(Tally {
        tasks: len as u64,
        ..Tally::default()
    });
    let pieces = rayon::current_num_threads().clamp(1, len.max(1));
    if pieces == 1 {
        return items.into_iter().map(f).collect();
    }
    let chunk = len.div_ceil(pieces);
    let mut rest = items.into_iter();
    let parts: Vec<Vec<T>> = (0..len.div_ceil(chunk))
        .map(|_| rest.by_ref().take(chunk).collect())
        .collect();
    let fork = Fork::capture();
    let done: Vec<(Vec<R>, Tally)> = parts
        .into_par_iter()
        .map(|part| fork.clone().run(|| part.into_iter().map(&f).collect()))
        .collect();
    let mut out = Vec::with_capacity(len);
    for (part, spent) in done {
        out.extend(part);
        state::add(spent);
    }
    out
}

/// Target amount of work per forked task, in nanoseconds.
///
/// Sized for a work-stealing pool, where a spawn or steal costs about a
/// microsecond: large enough that this overhead stays under ~10% of
/// useful work, small enough that an 8-thread pool can balance a
/// millisecond-scale problem. The vendored `rayon` stand-in spawns a
/// scoped OS thread per `join` instead; an empty join there measured
/// 29–55 µs on a 2-vCPU host (the benchmark's `runtime.join_us`), so on
/// that build a task of this size costs more to fork than to run.
pub const TARGET_TASK_NANOS: f64 = 20_000.0;

/// Grain calibration for the array `a`: the autotuner's grain
/// candidate.
///
/// Measures the per-entry evaluation cost by timing interval scans of
/// a few sample rows (through the same batched-evaluation path the
/// engines use), then sizes the cutoffs for ~[`TARGET_TASK_NANOS`] of
/// work per task. Costs a few hundred microseconds.
///
/// Degenerate inputs (empty array) return [`Tuning::DEFAULT`].
pub fn calibrate<T: Value, A: Array2d<T>>(a: &A) -> Tuning {
    let (m, n) = (a.rows(), a.cols());
    if m == 0 || n == 0 {
        return Tuning::DEFAULT;
    }
    let c = per_entry_nanos(a).max(0.05);
    let seq_scan = ((TARGET_TASK_NANOS / c) as usize).clamp(64, 1 << 20);
    let per_row_entries = (n as f64 / m as f64) + (m.max(2) as f64).log2();
    let seq_rows = ((TARGET_TASK_NANOS / (c * per_row_entries)) as usize).clamp(4, 4096);
    // A tube plane costs a full SMAWK pass (~5(q + r) entries), an
    // order of magnitude more than a row scan; keep planes finer.
    let tube_seq_planes = seq_rows.div_ceil(8).clamp(1, 256);
    Tuning {
        seq_scan,
        seq_rows,
        tube_seq_planes,
        ..Tuning::DEFAULT
    }
}

/// Measured cost of one entry evaluation, in nanoseconds.
///
/// Times batched scans over a handful of rows, doubling the scanned
/// width until the sample takes at least ~50 µs (or the array is
/// exhausted) so the clock resolution doesn't dominate.
fn per_entry_nanos<T: Value, A: Array2d<T>>(a: &A) -> f64 {
    let (m, n) = (a.rows(), a.cols());
    let sample_rows: [usize; 3] = [0, m / 2, m - 1];
    with_scratch(|scratch: &mut Vec<T>| {
        let mut width = n.min(256);
        loop {
            let t0 = Instant::now();
            for &row in &sample_rows {
                let (j, _) = eval::interval_argmin(a, row, 0, width, scratch);
                std::hint::black_box(j);
            }
            let nanos = t0.elapsed().as_nanos() as f64;
            let entries = (sample_rows.len() * width) as f64;
            if nanos >= 50_000.0 || width >= n {
                return (nanos / entries).max(0.0);
            }
            width = (width * 4).min(n);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use monge_core::array2d::{Dense, FnArray};
    use monge_core::guard::{checkpoint, with_cancellation, CancelToken, Cancelled};
    use monge_core::kernel::{self, with_kernel, Kernel};
    use monge_core::problem::Metered;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Runs `f` inside a 2-thread pool, where forks spawn real threads,
    /// then under `install(1)`, where every fork runs inline.
    fn in_both_pools(f: impl Fn() + Sync) {
        for n in [2, 1] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(n)
                .build()
                .expect("the runtime's pool builder never fails");
            pool.install(&f);
        }
    }

    fn is_cancelled(r: std::thread::Result<()>) -> bool {
        r.is_err_and(|payload| payload.downcast_ref::<Cancelled>().is_some())
    }

    #[test]
    fn forks_see_the_callers_fired_token() {
        in_both_pools(|| {
            let token = CancelToken::new();
            token.cancel();
            let joined = catch_unwind(AssertUnwindSafe(|| {
                with_cancellation(&token, || join(|| (), checkpoint).0)
            }));
            assert!(
                is_cancelled(joined),
                "the joined side's Cancelled reaches the joiner"
            );
            // Only the last piece checkpoints: on two threads it is forked.
            let mapped = catch_unwind(AssertUnwindSafe(|| {
                with_cancellation(&token, || {
                    par_map((0..4).collect(), |i| {
                        if i == 3 {
                            checkpoint();
                        }
                    });
                })
            }));
            assert!(
                is_cancelled(mapped),
                "a mapped piece's Cancelled reaches the caller"
            );
            // Outside the token, the same forks run clean.
            join(|| (), checkpoint);
            par_map((0..4).collect(), |_| checkpoint());
        });
    }

    #[test]
    fn forks_see_the_callers_kernel_pin() {
        in_both_pools(|| {
            for k in [Kernel::Scalar, Kernel::Simd] {
                with_kernel(k, || {
                    assert_eq!(join(kernel::selected, kernel::selected), (k, k));
                    assert_eq!(par_map((0..4).collect(), |_| kernel::selected()), [k; 4]);
                });
            }
        });
    }

    #[test]
    fn forked_counts_reach_the_joiner_exactly_once() {
        // Each side reads three entries of a metered array: one `entry`
        // and a two-entry `fill_row`.
        let a = Metered::new(Dense::tabulate(2, 4, |i, j| (i * 4 + j) as i64));
        let work = || {
            with_scratch(|buf: &mut Vec<i64>| {
                buf.resize(2, 0);
                a.fill_row(1, 1..3, buf);
            });
            std::hint::black_box(a.entry(0, 3));
            eval::add_comparisons(5);
        };
        let counts = |evaluations, comparisons, checkouts, tasks| Tally {
            evaluations,
            comparisons,
            checkouts,
            tasks,
        };
        in_both_pools(|| {
            let before = state::tally();
            join(work, work);
            assert_eq!(state::tally().since(before), counts(6, 10, 2, 2));
            let before = state::tally();
            join(|| (), || join(work, work));
            assert_eq!(state::tally().since(before), counts(6, 10, 2, 4));
            let before = state::tally();
            par_map((0..4).collect(), |_| work());
            assert_eq!(state::tally().since(before), counts(12, 20, 4, 4));
        });
    }

    #[test]
    fn calibrated_cutoffs_are_sane() {
        let a = Dense::tabulate(64, 512, |i, j| {
            let d = i as i64 - j as i64;
            d * d
        });
        let t = calibrate(&a);
        assert!((64..=1 << 20).contains(&t.seq_scan));
        assert!((4..=4096).contains(&t.seq_rows));
        assert!((1..=256).contains(&t.tube_seq_planes));
        assert!(t.pram_base_rows > 0);
    }

    #[test]
    fn expensive_rows_get_finer_grain_than_cheap_rows() {
        let cheap = Dense::tabulate(32, 4096, |i, j| (i + j) as i64);
        // ~100x more work per entry: an inner loop the evaluator can't
        // batch away.
        let expensive = FnArray::new(32, 4096, |i, j| {
            let mut acc = 0i64;
            for k in 0..100 {
                acc = acc.wrapping_add(((i + 1) * (j + k + 1)) as i64 % 97);
            }
            acc
        });
        let tc = calibrate(&cheap);
        let te = calibrate(&expensive);
        // Calibration may be noisy on a loaded host; require only the
        // direction, with slack.
        assert!(
            te.seq_scan <= tc.seq_scan * 2,
            "expensive rows should not get much coarser grain: cheap={} expensive={}",
            tc.seq_scan,
            te.seq_scan
        );
    }

    #[test]
    fn empty_array_falls_back_to_defaults() {
        let a = Dense::tabulate(0, 0, |_, _| 0i64);
        assert_eq!(calibrate(&a), Tuning::DEFAULT);
    }

    #[test]
    fn forked_threads_see_the_installed_thread_count() {
        let k = std::thread::available_parallelism().map_or(1, |n| n.get()) + 1;
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(k)
            .build()
            .expect("the runtime's pool builder never fails");
        let (here, forked) =
            pool.install(|| join(rayon::current_num_threads, rayon::current_num_threads));
        assert_eq!(here, k);
        assert_eq!(forked, k, "the forked side keeps the pool's count");
    }
}
