//! Explicit tuning handles for the parallel engines.
//!
//! Every divide & conquer engine in this crate bottoms out into a
//! sequential scan once the subproblem is small enough that spawning
//! costs more than it saves. Those cutoffs used to be process-global
//! (`OnceLock`-cached environment lookups); they are now carried in a
//! [`Tuning`] value that callers pass down explicitly, so two
//! concurrent searches can run with different grain sizes and tests
//! can pin degenerate cutoffs without mutating process state.
//!
//! | field | env var | default | meaning |
//! |---|---|---|---|
//! | [`Tuning::seq_scan`] | `MONGE_SEQ_SCAN` | 2048 | column intervals at most this wide are scanned sequentially |
//! | [`Tuning::seq_rows`] | `MONGE_SEQ_ROWS` | 64 | row ranges at most this tall stay in the sequential D&C |
//! | [`Tuning::tube_seq_planes`] | `MONGE_TUBE_SEQ_PLANES` | 8 | tube problems with at most this many planes loop sequentially |
//! | [`Tuning::pram_base_rows`] | `MONGE_PRAM_BASE_ROWS` | 4 | PRAM staircase base-case height |
//! | [`Tuning::kernel`] | `MONGE_KERNEL` | `auto` | slice-scan kernel choice (`auto` / `scalar` / `simd`) |
//!
//! Defaults were chosen with `cargo bench -p monge-bench --bench
//! substrates` (row-minima group) on an 8-core x86-64 host: below ~2k
//! elements a rayon task's spawn/steal overhead (~1–2 µs) exceeds the
//! scan itself, and below ~64 rows the per-level join overhead of the
//! row recursion dominates. The `rowmin_json` binary in `crates/bench`
//! regenerates the supporting numbers (`bench-results/parallel.json`
//! holds the thread-sweep curves).
//!
//! ## Precedence
//!
//! A solve's backend and tuning come from one ladder, strongest first:
//!
//! 1. **Per-call** — whatever `Tuning` the caller passes to a `*_with`
//!    entry point or [`crate::batch::BatchPolicy::tuning`]
//!    (struct-update syntax composes well:
//!    `Tuning { seq_scan: 64, ..base }`).
//! 2. **Autotune** — the batch layer's group decision: the dispatcher's
//!    in-memory winner table ([`crate::autotune`]), measured once per
//!    [`crate::autotune::AutotuneKey`] by racing the candidate set on
//!    a probe of the real problem. It names the backend as well.
//! 3. **Env-seeded defaults** — [`Tuning::from_env`]: the `MONGE_*`
//!    variables overlaid on [`Tuning::DEFAULT`], run on the backend the
//!    grain policy picks. Taken whenever the rungs above have nothing
//!    for a call (no explicit tuning, autotune off, or another thread
//!    mid-measurement).
//!
//! Which rung decided a dispatched solve is recorded in
//! [`monge_core::problem::Telemetry::provenance`] (`default` for rungs
//! 1 and 3, `cached` / `measured` for rung 2).
//!
//! Malformed or zero-valued environment variables are ignored (a zero
//! cutoff would recurse forever); the engines additionally clamp every
//! cutoff to at least 1 at the point of use, so hand-built `Tuning`
//! values cannot cause unbounded recursion either. An unparsable
//! `MONGE_KERNEL` likewise falls back to the current value.
//!
//! The [`Tuning::kernel`] field is a *requested selection*: the slice
//! scans in `monge-core` have no `Tuning` in scope, so the dispatcher
//! pins it for the solve ([`monge_core::kernel::with_kernel`]).

use monge_core::kernel::Kernel;

/// Grain-size cutoffs (and kernel selection) for the parallel
/// engines, passed by value.
///
/// `Tuning` is `Copy` and cheap to thread through recursions; there is
/// deliberately no global cache, so the same process can run different
/// searches with different grains concurrently.
///
/// ```
/// use monge_parallel::tuning::Tuning;
///
/// let base = Tuning::from_env();          // env-seeded defaults
/// let fine = Tuning { seq_scan: 64, ..base }; // per-call override
/// assert_eq!(fine.seq_rows, base.seq_rows);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Tuning {
    /// Column intervals at most this wide are scanned sequentially
    /// instead of being split across rayon tasks.
    pub seq_scan: usize,
    /// Row ranges at most this tall are solved by the sequential
    /// divide & conquer instead of forking.
    pub seq_rows: usize,
    /// Tube problems with at most this many planes (rows of `D`) run
    /// the per-plane loop sequentially.
    pub tube_seq_planes: usize,
    /// Row ranges at most this tall are handled directly by a PRAM
    /// interval-minimum step instead of recursing.
    pub pram_base_rows: usize,
    /// Which slice-scan kernel the engines should use
    /// ([`monge_core::kernel::Kernel`]): `Auto` (the default) requests
    /// nothing, `Scalar`/`Simd` pin the choice for the solve. The
    /// autotuner races `Auto` against `Scalar` when the SIMD kernels
    /// are available.
    pub kernel: Kernel,
}

impl Tuning {
    /// The built-in defaults (see the module docs for provenance).
    pub const DEFAULT: Tuning = Tuning {
        seq_scan: 2048,
        seq_rows: 64,
        tube_seq_planes: 8,
        pram_base_rows: 4,
        kernel: Kernel::Auto,
    };

    /// Defaults overlaid with any valid `MONGE_*` environment
    /// variables. Parses the environment on every call — entry points
    /// call this once at the top and pass the value down, so there is
    /// no per-element cost and no process-global cache to fight in
    /// tests.
    pub fn from_env() -> Tuning {
        let d = Tuning::DEFAULT;
        Tuning {
            seq_scan: env_usize("MONGE_SEQ_SCAN").unwrap_or(d.seq_scan),
            seq_rows: env_usize("MONGE_SEQ_ROWS").unwrap_or(d.seq_rows),
            tube_seq_planes: env_usize("MONGE_TUBE_SEQ_PLANES").unwrap_or(d.tube_seq_planes),
            pram_base_rows: env_usize("MONGE_PRAM_BASE_ROWS").unwrap_or(d.pram_base_rows),
            kernel: Kernel::from_env().unwrap_or(d.kernel),
        }
    }
}

impl Default for Tuning {
    fn default() -> Self {
        Tuning::DEFAULT
    }
}

/// Positive integer from the environment; `None` on unset, malformed,
/// or zero (a zero cutoff would recurse forever).
fn env_usize(var: &str) -> Option<usize> {
    std::env::var(var)
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&v| v > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_positive() {
        let t = Tuning::DEFAULT;
        assert!(t.seq_scan > 0);
        assert!(t.seq_rows > 0);
        assert!(t.tube_seq_planes > 0);
        assert!(t.pram_base_rows > 0);
    }

    #[test]
    fn struct_update_overrides_one_field() {
        let base = Tuning::DEFAULT;
        let fine = Tuning {
            seq_scan: 1,
            ..base
        };
        assert_eq!(fine.seq_scan, 1);
        assert_eq!(fine.seq_rows, base.seq_rows);
        assert_eq!(fine.tube_seq_planes, base.tube_seq_planes);
        assert_eq!(fine.pram_base_rows, base.pram_base_rows);
        assert_eq!(fine.kernel, base.kernel);
    }

    #[test]
    fn default_kernel_is_auto() {
        assert_eq!(Tuning::DEFAULT.kernel, Kernel::Auto);
    }

    #[test]
    fn default_trait_matches_const() {
        assert_eq!(Tuning::default(), Tuning::DEFAULT);
    }
}
