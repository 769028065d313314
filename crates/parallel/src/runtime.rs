//! The parallel execution runtime: scratch arenas + grain calibration.
//!
//! Two ingredients turn the divide & conquer engines in this crate
//! into an allocation-free, self-tuning runtime:
//!
//! * **Scratch arenas** — the thread-local grow-only buffer pools of
//!   [`monge_core::scratch`], re-exported here ([`with_scratch`],
//!   [`with_scratch2`]). Every recursion leaf and every rayon task
//!   checks its scan buffer out of the worker thread's pool instead of
//!   allocating, so steady-state searches perform zero heap
//!   allocations (the `alloc_free` integration test pins this down
//!   with a counting global allocator).
//! * **Grain calibration** — [`calibrate`] replaces guessed cutoffs
//!   with measured ones: it times a few row scans of the array at
//!   hand, derives the per-entry evaluation cost, and sizes the
//!   [`Tuning`] cutoffs so each rayon task does roughly
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
//! Calibration also probes the kernel choice: when the `simd` feature
//! is active and the CPU supports it, it times the scalar blocked scan
//! against the vector lane kernel on a sample row and pins
//! [`Tuning::kernel`] to `Scalar` if vectorization loses (leaving
//! `Auto` — SIMD on — otherwise).
//!
//! The result is then overlaid with any `MONGE_*` environment
//! variables ([`Tuning::env_overlay`]), preserving the precedence
//! documented in [`crate::tuning`]: per-call values beat the
//! environment, which beats the autotune cache, which beats
//! calibration, which beats the built-in defaults.
//!
//! Calibration is the *one-shot, per-process* layer: it never touches
//! disk and never compares whole backends. The persistent autotuner
//! ([`crate::autotune`]) sits above it — measuring candidate
//! `(backend, tuning, kernel)` configurations per problem family and
//! remembering the winners across processes — and uses `calibrate`'s
//! output both as one of its candidate tunings and as the fallback
//! for every call the table cannot answer.

use crate::tuning::Tuning;
use monge_core::array2d::Array2d;
use monge_core::eval;
use monge_core::kernel::Kernel;
use monge_core::value::Value;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

pub use monge_core::scratch::{pooled_buffers, with_scratch, with_scratch2};

/// Process-global tally of rayon tasks forked by the engines (two per
/// [`join_tracked`], one per parallel scan chunk). Relaxed, best-effort
/// under concurrency; the dispatch layer snapshots deltas around each
/// solve so telemetry can report fan-out for free.
static TASKS: AtomicU64 = AtomicU64::new(0);

/// Current value of the process-global task counter.
pub fn task_count() -> u64 {
    TASKS.load(Ordering::Relaxed)
}

/// Adds `n` forked tasks to the tally (parallel iterators count their
/// chunks here).
pub(crate) fn add_tasks(n: u64) {
    if n > 0 {
        TASKS.fetch_add(n, Ordering::Relaxed);
    }
}

/// [`rayon::join`] that counts both closures toward [`task_count`] —
/// the fork primitive every engine in this crate uses, so dispatched
/// solves can report how many tasks a search actually spawned.
pub fn join_tracked<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    TASKS.fetch_add(2, Ordering::Relaxed);
    rayon::join(a, b)
}

/// Target amount of work per rayon task, in nanoseconds.
///
/// Sized for a work-stealing pool, where a spawn or steal costs about a
/// microsecond: large enough that this overhead stays under ~10% of
/// useful work, small enough that an 8-thread pool can balance a
/// millisecond-scale problem. The vendored `rayon` stand-in spawns a
/// scoped OS thread per `join` instead; an empty join there measured
/// 29–55 µs on a 2-vCPU host (the benchmark's `runtime.join_us`), so on
/// that build a task of this size costs more to fork than to run.
pub const TARGET_TASK_NANOS: f64 = 20_000.0;

/// One-shot grain calibration for the array `a`.
///
/// Measures the per-entry evaluation cost by timing interval scans of
/// a few sample rows (through the same batched-evaluation path the
/// engines use), then sizes the cutoffs for ~[`TARGET_TASK_NANOS`] of
/// work per task. Any valid `MONGE_*` environment variables override
/// the measured fields. Costs a few hundred microseconds; intended to
/// run once per workload, not per call.
///
/// Degenerate inputs (empty array) return [`Tuning::from_env`]
/// unchanged.
pub fn calibrate<T: Value, A: Array2d<T>>(a: &A) -> Tuning {
    let (m, n) = (a.rows(), a.cols());
    if m == 0 || n == 0 {
        return Tuning::from_env();
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
        kernel: probe_kernel(a),
        ..Tuning::DEFAULT
    }
    .env_overlay()
}

/// Probes whether the SIMD lane kernels actually beat the scalar
/// blocked scan on this array's values, returning the [`Kernel`]
/// request calibration should carry.
///
/// Returns [`Kernel::Auto`] (no request) when SIMD is not compiled in
/// or not supported by the CPU — the scans already fall back to scalar
/// there. Otherwise it materializes one sample row and times both scan
/// implementations; if the vector kernel loses (e.g. very short rows,
/// or a value type the kernels don't cover), the calibrated tuning
/// pins [`Kernel::Scalar`] so the dispatcher turns vectorization off
/// for this workload.
fn probe_kernel<T: Value, A: Array2d<T>>(a: &A) -> Kernel {
    use monge_core::kernel;
    if !kernel::simd_compiled() || !kernel::simd_available() {
        return Kernel::Auto;
    }
    let n = a.cols();
    let width = n.min(4096);
    if width < 2 * kernel::MIN_SIMD_LEN {
        // Too short for the lane kernels to engage at all.
        return Kernel::Auto;
    }
    with_scratch(|scratch: &mut Vec<T>| {
        scratch.clear();
        scratch.resize(width, T::ZERO);
        a.fill_row(a.rows() / 2, 0..width, scratch);
        let reps = (50_000 / width).max(8);
        let time = |f: &dyn Fn(&[T]) -> usize| {
            let t0 = Instant::now();
            for _ in 0..reps {
                std::hint::black_box(f(std::hint::black_box(&scratch[..])));
            }
            t0.elapsed().as_nanos()
        };
        let scalar = time(&|v| eval::argmin_slice_tie_scalar(v, monge_core::Tie::Left));
        let simd = time(&|v| {
            kernel::argmin_lanes(v, monge_core::Tie::Left)
                .unwrap_or_else(|| eval::argmin_slice_tie_scalar(v, monge_core::Tie::Left))
        });
        if simd <= scalar {
            Kernel::Auto
        } else {
            Kernel::Scalar
        }
    })
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
    fn empty_array_falls_back_to_env_defaults() {
        let a = Dense::tabulate(0, 0, |_, _| 0i64);
        assert_eq!(calibrate(&a), Tuning::from_env());
    }

    #[test]
    fn env_overlay_has_final_say_over_measurement() {
        // Can't set env vars safely in a multithreaded test harness;
        // instead check the overlay identity directly: with no MONGE_*
        // vars set the overlay is the identity, with them set both
        // sides pick up the same values.
        let a = Dense::tabulate(16, 128, |i, j| (i * j) as i64);
        let t = calibrate(&a);
        assert_eq!(t, t.env_overlay());
    }
}
