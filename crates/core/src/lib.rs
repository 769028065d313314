//! # monge-core
//!
//! Core abstractions and sequential algorithms for searching in *Monge*,
//! *staircase-Monge* and *Monge-composite* arrays, reproducing the
//! definitions and sequential baselines of
//! *Aggarwal, Kravets, Park, Sen — "Parallel Searching in Generalized Monge
//! Arrays with Applications" (SPAA 1990)*.
//!
//! An `m × n` array `A = {a[i,j]}` is **Monge** if for all `i < k`, `j < l`
//!
//! ```text
//! a[i,j] + a[k,l] <= a[i,l] + a[k,j]            (1.1)
//! ```
//!
//! and **inverse-Monge** if the inequality is reversed (1.2). A
//! **staircase-Monge** array additionally allows `∞` entries, where the
//! infinite region spreads right and down, and (1.1) must hold whenever all
//! four entries are finite. A `p × q × r` array `C` is **Monge-composite**
//! if `c[i,j,k] = d[i,j] + e[j,k]` for Monge arrays `D` and `E`.
//!
//! This crate provides:
//!
//! * [`value`] — the [`value::Value`] scalar abstraction (finite numbers plus
//!   an explicit `∞`, exact integer instances for testing).
//! * [`array2d`] — lazily evaluated two-dimensional array views and the
//!   adapters (transpose / negate / reverse / sub-array) that interconvert
//!   row-minima and row-maxima problems.
//! * [`monge`] — verification predicates for every array class in the paper.
//! * [`generators`] — certified random instance generators (Monge via
//!   non-positive-density integration, staircase boundaries, convex chains).
//! * [`smawk`] — the `Θ(m+n)` SMAWK algorithm of \[AKM+87\] for row minima /
//!   maxima of (inverse-)Monge arrays, with explicit tie-breaking control.
//! * [`staircase`] — sequential row-minima of staircase-Monge arrays.
//! * [`tube`] — tube maxima / minima of Monge-composite arrays (the
//!   `(min,+)` / `(max,+)` middle-coordinate problem used by the paper's
//!   applications) plus the literal third-coordinate variant.
//! * [`ansv`] — all-nearest-smaller-values, the substrate used by the
//!   paper's Lemma 2.2 processor allocation.
//! * [`dist`] — DIST-matrix algebra ((min,+) products of Monge matrices)
//!   used by the string-editing application.
//! * [`eval`] — the batched evaluation layer: scratch-buffer interval
//!   scans over [`Array2d::fill_row`], streaming chunked scans for
//!   generator-backed arrays, the [`eval::CachedArray`] memoizing
//!   wrapper, and the [`eval::CountingArray`] evaluation-count metrics hook.
//! * [`kernel`] — vectorized `(min, argmin)` lane kernels (AVX2, behind
//!   the `simd` feature) and the [`kernel::Kernel`] runtime selection
//!   knob the scans and the dispatcher share.
//! * [`scratch`] — thread-local grow-only buffer arenas so recursion
//!   leaves (and rayon workers in `monge-parallel`) run allocation-free
//!   in steady state.
//! * [`state`] — the per-thread solve state (cancellation token, kernel
//!   pin, work counters) that `monge-parallel`'s fork seam carries.
//! * [`tiebreak`] — the one implementation of the leftmost/rightmost
//!   tie-break rule every scan, reduction and candidate merge shares.
//! * [`guard`] — the fault model of the guarded dispatch layer:
//!   [`guard::SolveError`], [`guard::GuardPolicy`], cooperative
//!   cancellation ([`guard::CancelToken`] / [`guard::checkpoint`]) and
//!   the deterministic [`guard::FaultInjector`] test adaptor.
//! * [`problem`] — the solver-dispatch IR: [`problem::Problem`] /
//!   [`problem::Solution`] / [`problem::Telemetry`] plus the shared
//!   §1.2 Min/Max duality lowering ([`problem::lower_rows`]) that the
//!   `monge-parallel` backend registry consumes.
//! * [`queryindex`] — build-once / query-many submatrix serving: a
//!   segment tree of merged breakpoint envelopes answering rectangle
//!   min/max queries with zero source-array evaluations
//!   ([`queryindex::QueryIndex`]).

// The only unsafe code in this workspace's libraries is the AVX2
// kernel bodies (and their `TypeId`-checked slice casts) in
// [`kernel`], compiled only under the `simd` feature on x86-64; every
// other configuration is pure safe Rust, enforced at `forbid` level.
#![cfg_attr(
    not(all(feature = "simd", target_arch = "x86_64")),
    forbid(unsafe_code)
)]
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod ansv;
pub mod array2d;
pub mod banded;
pub mod dist;
pub mod eval;
pub mod generators;
pub mod guard;
pub mod kernel;
pub mod monge;
pub mod online;
pub mod problem;
pub mod queryindex;
pub mod scratch;
pub mod smawk;
pub mod staircase;
pub mod state;
pub mod tiebreak;
pub mod tube;
pub mod value;

pub use array2d::{Array2d, Dense, FnArray};
pub use eval::{CachedArray, CountingArray};
pub use guard::{
    CancelToken, FaultInjector, FaultPlan, GuardOutcome, GuardPolicy, SolveError, Validation,
    ViolationAction,
};
pub use kernel::Kernel;
pub use problem::{
    MachineCounters, Objective, Problem, ProblemKind, Solution, Structure, Telemetry,
};
pub use queryindex::{QueryAnswer, QueryIndex};
pub use smawk::{
    row_maxima_inverse_monge, row_maxima_monge, row_minima_inverse_monge, row_minima_monge,
    RowExtrema,
};
pub use tiebreak::Tie;
pub use value::Value;
