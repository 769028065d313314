//! The fault model of the guarded dispatch layer: typed solve errors,
//! guard policies, cooperative cancellation, and a deterministic fault
//! injector for testing all of the above.
//!
//! Every engine in this workspace is only correct when its input
//! actually satisfies the Monge / staircase-Monge / Monge-composite
//! conditions the paper assumes — a single violated quadruple silently
//! corrupts row minima, and a panicking scoring closure inside a fork
//! tears down the whole solve. This module supplies the
//! vocabulary the guarded dispatcher (`monge-parallel::guarded`) uses
//! to detect bad structure ([`SolveError::StructureViolation`] carrying
//! the witnessing quadruple from [`crate::monge::check_monge`]),
//! contain faults ([`SolveError::BackendPanic`]), bound runtime
//! ([`CancelToken`] + [`checkpoint`] + [`SolveError::DeadlineExceeded`])
//! and report arithmetic escapes ([`SolveError::Overflow`]).
//!
//! ## Cooperative cancellation
//!
//! Engines are deep fork-join recursions; threading a `Result` through
//! every leaf would contaminate every signature. Instead a
//! [`CancelToken`] is installed in the calling thread's solve state
//! ([`crate::state`]) for a guarded solve ([`with_cancellation`]), the
//! fork seam carries it into that solve's forks and no others, and the
//! engines call [`checkpoint`] at recursion leaves and interval-scan
//! boundaries. Once the token fires, `checkpoint` panics with the
//! [`Cancelled`] sentinel; the join propagates it to the joining caller,
//! and the guarded dispatcher's `catch_unwind` boundary downcasts the
//! payload to tell an orderly deadline abort from a backend panic.
//! Without a token, `checkpoint` is one thread-local read.

use crate::array2d::Array2d;
use crate::monge::MongeViolation;
use crate::state;
use crate::value::Value;
use std::ops::Range;
use std::panic::panic_any;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How much structure validation a guarded solve performs before
/// trusting the caller's [`crate::problem::Structure`] promise.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Validation {
    /// Trust the promise: no entries are checked.
    #[default]
    Off,
    /// Seeded spot-check of `O(m + n)` adjacent quadruples. Catches a
    /// violation density of `ε` with probability `1 - (1-ε)^s` for
    /// `s ≈ 16(m+n)` samples — essentially certain for densities of
    /// `1/n` and above, at a cost independent of the `O(mn)` full scan.
    Sampled,
    /// Check every adjacent quadruple (`O(mn)` entry evaluations). The
    /// classical telescoping argument makes adjacent checks complete:
    /// the general `i<k`, `j<l` inequality is a sum of adjacent ones.
    Full,
}

/// What a guarded solve does when validation finds a violation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ViolationAction {
    /// Skip the structured engines and run the brute-force scan, which
    /// is correct without any structural license. The solve succeeds;
    /// the quarantine (and the witness) is recorded in the telemetry.
    #[default]
    Quarantine,
    /// Return [`SolveError::StructureViolation`] immediately.
    Fail,
}

/// Configuration of one guarded solve: how much to validate, how long
/// to run, how far to fall back, how often to retry.
#[derive(Clone, Copy, Debug)]
pub struct GuardPolicy {
    /// Structure validation mode (default [`Validation::Off`]).
    pub validation: Validation,
    /// Response to a detected violation (default quarantine).
    pub on_violation: ViolationAction,
    /// Wall-clock budget for the whole solve, validation included.
    pub deadline: Option<Duration>,
    /// Maximum number of *fallback* attempts after the first backend
    /// (the brute-force terminal link counts as one). `0` means the
    /// first eligible backend is the only attempt.
    pub max_fallback_depth: usize,
    /// Seed for the sampled validation's quadruple choice.
    pub seed: u64,
    /// Retry discipline for transient faults (default: no retries).
    pub retry: RetryPolicy,
}

impl Default for GuardPolicy {
    fn default() -> Self {
        GuardPolicy {
            validation: Validation::Off,
            on_violation: ViolationAction::Quarantine,
            deadline: None,
            max_fallback_depth: 3,
            seed: 0x9E37_79B9_7F4A_7C15,
            retry: RetryPolicy::NONE,
        }
    }
}

impl GuardPolicy {
    /// Sets the retry discipline for transient faults.
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Default policy with [`Validation::Full`].
    pub fn full_validation() -> Self {
        GuardPolicy {
            validation: Validation::Full,
            ..GuardPolicy::default()
        }
    }

    /// Default policy with [`Validation::Sampled`].
    pub fn sampled_validation() -> Self {
        GuardPolicy {
            validation: Validation::Sampled,
            ..GuardPolicy::default()
        }
    }

    /// Sets the wall-clock deadline.
    #[must_use]
    pub fn with_deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Fail (instead of quarantining) on a detected violation.
    #[must_use]
    pub fn fail_on_violation(mut self) -> Self {
        self.on_violation = ViolationAction::Fail;
        self
    }

    /// Sets the maximum fallback depth.
    #[must_use]
    pub fn with_max_fallback_depth(mut self, depth: usize) -> Self {
        self.max_fallback_depth = depth;
        self
    }

    /// Sets the sampled-validation seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Retry discipline for transient faults in a guarded solve: panicking
/// backends (and deadline aborts with wall-clock slack remaining) are
/// re-attempted up to `max_attempts` times with seeded
/// decorrelated-jitter backoff, subject to the serving layer's global
/// retry *budget* (see `monge-parallel::health`) so a fault storm
/// cannot amplify itself into an overload.
///
/// `Copy`, like [`GuardPolicy`] — the budget state lives in the health
/// registry, not here.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per chain link (`1` = no retries).
    pub max_attempts: u32,
    /// Backoff floor for the decorrelated jitter.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Seed for the jitter stream, so a replayed solve backs off
    /// identically.
    pub seed: u64,
}

impl RetryPolicy {
    /// No retries — every fault falls straight through to the next
    /// chain link. The [`GuardPolicy`] default.
    pub const NONE: RetryPolicy = RetryPolicy {
        max_attempts: 1,
        base_backoff: Duration::ZERO,
        max_backoff: Duration::ZERO,
        seed: 0x5EED_5EED,
    };

    /// A retrying policy: `max_attempts` total attempts, backoff jitter
    /// between `base` and `3×` the previous delay (decorrelated
    /// jitter), capped at `max` (raised to `base` when below it).
    pub fn retries(max_attempts: u32, base: Duration, max: Duration) -> Self {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            base_backoff: base,
            max_backoff: max.max(base),
            seed: 0x5EED_5EED,
        }
    }

    /// Sets the jitter seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// [`RetryPolicy::NONE`] overlaid with any valid `MONGE_RETRY_*`
    /// environment variables: `MONGE_RETRY_MAX` (total attempts),
    /// `MONGE_RETRY_BASE_MS` / `MONGE_RETRY_MAX_MS` (backoff floor and
    /// ceiling, default 1 ms / 100 ms once retries are enabled).
    pub fn from_env() -> Self {
        let env_u64 =
            |key: &str| -> Option<u64> { std::env::var(key).ok()?.trim().parse::<u64>().ok() };
        let max_attempts = env_u64("MONGE_RETRY_MAX").map_or(1, |v| v.clamp(1, 64) as u32);
        if max_attempts <= 1 {
            return RetryPolicy::NONE;
        }
        let base = Duration::from_millis(env_u64("MONGE_RETRY_BASE_MS").unwrap_or(1));
        let max = Duration::from_millis(env_u64("MONGE_RETRY_MAX_MS").unwrap_or(100));
        RetryPolicy::retries(max_attempts, base, max)
    }

    /// Would this policy retry after `attempt` failed attempts?
    pub fn allows(&self, attempts_made: u32) -> bool {
        attempts_made < self.max_attempts
    }

    /// The decorrelated-jitter backoff before retry number `attempt`
    /// (1-based) of the solve identified by `salt`: uniformly drawn
    /// from `[base, 3 × previous]`, capped at `max_backoff`. Pure in
    /// `(seed, salt, attempt)`, so replays back off identically.
    pub fn backoff(&self, salt: u64, attempt: u32) -> Duration {
        if self.max_backoff.is_zero() {
            return Duration::ZERO;
        }
        let base = self.base_backoff.as_nanos() as u64;
        let mut prev = base.max(1);
        let cap = self.max_backoff.as_nanos() as u64;
        let mut delay = base;
        for k in 1..=attempt {
            let hi = prev.saturating_mul(3).clamp(base.max(1), cap.max(1));
            let lo = base.min(hi);
            let span = (hi - lo).max(1);
            let draw = mix(self.seed ^ mix(salt).wrapping_add(k as u64)) % span;
            delay = (lo + draw).min(cap);
            prev = delay.max(1);
        }
        Duration::from_nanos(delay)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::NONE
    }
}

/// The state of one backend's circuit breaker (see
/// `monge-parallel::health`): `Closed` admits solves, `Open` skips the
/// backend until a cooldown elapses, `HalfOpen` admits a single probe
/// whose outcome closes or re-opens the circuit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: every solve is admitted.
    #[default]
    Closed,
    /// Tripped: solves are skipped until the cooldown elapses.
    Open,
    /// Cooled down: one probe solve is admitted at a time.
    HalfOpen,
}

impl std::fmt::Display for BreakerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        })
    }
}

/// A point-in-time view of one backend's health record, as the
/// resilient serving layer's registry (`monge-parallel::health`)
/// reports it, so operators can see *why* a solve took the path it
/// did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BackendHealthSnapshot {
    /// Registry name of the backend.
    pub backend: &'static str,
    /// Breaker state at snapshot time.
    pub state: BreakerState,
    /// Faulted outcomes currently in the sliding window.
    pub window_failures: u32,
    /// Outcomes currently in the sliding window.
    pub window_len: u32,
    /// Exponentially-weighted moving average of per-solve latency, in
    /// nanoseconds (0 until the first completed solve).
    pub latency_ewma_nanos: u64,
}

/// A structure violation rendered for reporting: the witnessing
/// quadruple `(i, i', j, j')` with the four entry values formatted as
/// text (so the error type stays non-generic and `'static`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ViolationWitness {
    /// The structural promise that failed (`"Monge"`, `"inverse-Monge"`,
    /// `"staircase shape"`, …).
    pub structure: &'static str,
    /// Row `i` of the quadruple (`i < k`).
    pub i: usize,
    /// Row `i'` of the quadruple.
    pub k: usize,
    /// Column `j` of the quadruple (`j < l`).
    pub j: usize,
    /// Column `j'` of the quadruple.
    pub l: usize,
    /// The four entries `a[i,j], a[i,l], a[k,j], a[k,l]`, formatted.
    pub values: [String; 4],
}

impl ViolationWitness {
    /// Renders a typed [`MongeViolation`] into a witness.
    pub fn from_monge<T: Value>(structure: &'static str, v: &MongeViolation<T>) -> Self {
        ViolationWitness {
            structure,
            i: v.i,
            k: v.k,
            j: v.j,
            l: v.l,
            values: [
                format!("{:?}", v.a_ij),
                format!("{:?}", v.a_il),
                format!("{:?}", v.a_kj),
                format!("{:?}", v.a_kl),
            ],
        }
    }
}

impl std::fmt::Display for ViolationWitness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} violated at (i,i',j,j') = ({}, {}, {}, {}): a[i,j]={} a[i,j']={} a[i',j]={} a[i',j']={}",
            self.structure,
            self.i,
            self.k,
            self.j,
            self.l,
            self.values[0],
            self.values[1],
            self.values[2],
            self.values[3],
        )
    }
}

/// A typed failure of a guarded solve (or of a checked application
/// computation). Guaranteed to be produced instead of — never in
/// addition to — a propagating panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SolveError {
    /// Validation found the structural promise broken; carries the
    /// witnessing quadruple (boxed to keep the error small on the `Ok`
    /// path).
    StructureViolation(Box<ViolationWitness>),
    /// A backend (or the validator) panicked; the payload is captured.
    BackendPanic {
        /// Registry name of the panicking backend, or `"validator"`.
        backend: &'static str,
        /// The panic payload, rendered to text when it was a string.
        payload: String,
    },
    /// The solve (or an explicit cancellation) hit the deadline.
    DeadlineExceeded {
        /// Wall-clock time spent before the abort was observed.
        elapsed: Duration,
        /// The configured budget.
        deadline: Duration,
    },
    /// Checked arithmetic overflowed `i64` (adversarial weights).
    Overflow {
        /// Which computation overflowed.
        context: &'static str,
    },
    /// An application-level input precondition failed.
    InvalidInput {
        /// What was wrong with the input.
        reason: String,
    },
    /// Every admissible backend's circuit breaker was open, and the
    /// fallback budget did not reach the (always-admitted) brute-force
    /// terminal. Carries the shortest cooldown remaining among the
    /// skipped backends, so callers can schedule a re-submit.
    CircuitOpen {
        /// Registry name of the first breaker-skipped backend.
        backend: &'static str,
        /// Cooldown remaining before that breaker half-opens.
        retry_after: Duration,
    },
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::StructureViolation(w) => write!(f, "structure violation: {w}"),
            SolveError::BackendPanic { backend, payload } => {
                write!(f, "backend '{backend}' panicked: {payload}")
            }
            SolveError::DeadlineExceeded { elapsed, deadline } => write!(
                f,
                "deadline exceeded: {elapsed:?} elapsed against a budget of {deadline:?}"
            ),
            SolveError::Overflow { context } => write!(f, "i64 overflow in {context}"),
            SolveError::InvalidInput { reason } => write!(f, "invalid input: {reason}"),
            SolveError::CircuitOpen {
                backend,
                retry_after,
            } => write!(
                f,
                "circuit open for backend '{backend}': retry after {retry_after:?}"
            ),
        }
    }
}

impl std::error::Error for SolveError {}

/// What happened to one link of the fallback chain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AttemptOutcome {
    /// The backend returned a solution.
    Completed,
    /// The backend panicked and the chain moved on.
    Panicked,
    /// The cooperative deadline fired inside the backend.
    DeadlineExceeded,
}

/// One fallback-chain link: which backend ran and how it ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Attempt {
    /// Registry name of the backend (or `"brute"` for the terminal
    /// scan).
    pub backend: &'static str,
    /// How the attempt ended.
    pub outcome: AttemptOutcome,
}

/// The guard section of [`crate::problem::Telemetry`]: validation cost,
/// quarantine state and the fallback path actually taken.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GuardOutcome {
    /// The validation mode that ran.
    pub validation: Validation,
    /// Wall-clock nanoseconds spent validating.
    pub validation_nanos: u128,
    /// Was the solve quarantined to the brute-force scan?
    pub quarantined: bool,
    /// The witness that triggered the quarantine, if any.
    pub witness: Option<ViolationWitness>,
    /// The fallback chain, in execution order. A batch member whose
    /// group decision panicked starts with an `"autotune"` attempt.
    pub attempts: Vec<Attempt>,
}

impl GuardOutcome {
    /// How many fallbacks past the first attempt were needed (0 when
    /// the first backend completed).
    pub fn fallback_depth(&self) -> usize {
        self.attempts.len().saturating_sub(1)
    }

    /// The backend names attempted, in order.
    pub fn fallback_path(&self) -> Vec<&'static str> {
        self.attempts.iter().map(|a| a.backend).collect()
    }

    /// Did any attempt degrade (panic or deadline) before the last?
    pub fn degraded(&self) -> bool {
        self.quarantined
            || self
                .attempts
                .iter()
                .any(|a| a.outcome != AttemptOutcome::Completed)
    }
}

/// The panic payload [`checkpoint`] throws when the installed
/// [`CancelToken`] has fired. The guarded dispatcher downcasts unwind
/// payloads to this type to tell deadline aborts from real panics.
#[derive(Clone, Copy, Debug)]
pub struct Cancelled;

#[derive(Debug)]
struct CancelInner {
    flag: AtomicBool,
    deadline: Option<Instant>,
}

/// A cooperative cancellation handle: cancelled explicitly via
/// [`CancelToken::cancel`] or implicitly once its deadline passes.
/// Cloning shares the underlying state.
#[derive(Clone, Debug)]
pub struct CancelToken {
    inner: Arc<CancelInner>,
}

impl CancelToken {
    /// A token with no deadline (cancel explicitly).
    pub fn new() -> Self {
        CancelToken {
            inner: Arc::new(CancelInner {
                flag: AtomicBool::new(false),
                deadline: None,
            }),
        }
    }

    /// A token that fires once `budget` has elapsed from now.
    pub fn with_deadline(budget: Duration) -> Self {
        CancelToken {
            inner: Arc::new(CancelInner {
                flag: AtomicBool::new(false),
                deadline: Instant::now().checked_add(budget),
            }),
        }
    }

    /// Cancels the token.
    pub fn cancel(&self) {
        self.inner.flag.store(true, Ordering::Relaxed);
    }

    /// Wall-clock budget left before the deadline fires: `None` for
    /// tokens without a deadline, `Some(ZERO)` once cancelled or
    /// expired. The batch layer carves a batch budget into per-group
    /// slices from this.
    pub fn remaining(&self) -> Option<Duration> {
        if self.inner.flag.load(Ordering::Relaxed) {
            return self.inner.deadline.map(|_| Duration::ZERO);
        }
        self.inner
            .deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// Has the token been cancelled (or its deadline passed)?
    pub fn is_cancelled(&self) -> bool {
        if self.inner.flag.load(Ordering::Relaxed) {
            return true;
        }
        match self.inner.deadline {
            Some(d) if Instant::now() >= d => {
                // Latch, so later checks skip the clock read.
                self.inner.flag.store(true, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

/// Runs `f` with `token` installed as the calling thread's cancellation
/// token, observed by [`checkpoint`] here and in `f`'s forks. The
/// previous token (if any) is restored on exit, including unwinds.
pub fn with_cancellation<R>(token: &CancelToken, f: impl FnOnce() -> R) -> R {
    state::install(Some(token.clone()), state::kernel(), f)
}

/// The cooperative cancellation point the engines call at recursion
/// leaves and interval-scan boundaries.
///
/// Costs one thread-local read when no token is installed. When the
/// installed token has fired, panics with the [`Cancelled`] sentinel —
/// only call this under a `catch_unwind` boundary that understands it
/// (the guarded dispatcher's), or with no token installed.
#[inline]
pub fn checkpoint() {
    if state::cancelled() {
        panic_any(Cancelled);
    }
}

/// Renders an unwind payload (from `std::panic::catch_unwind`) to text:
/// `&str` and `String` payloads verbatim, anything else a placeholder.
pub fn payload_to_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

// ---------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------

/// Which faults a [`FaultInjector`] injects, at which rates. All site
/// choices are a pure function of `(seed, i, j)` — two injectors with
/// the same plan fault the same sites, so "solve the faulty array, then
/// compare against a brute scan of the same faulty array" is
/// deterministic.
#[derive(Clone, Copy, Debug)]
pub struct FaultPlan {
    /// Seed for the site-selection hash.
    pub seed: u64,
    /// Per-mille rate of Monge-violating entry perturbations.
    pub violation_per_mille: u32,
    /// Per-mille rate of panicking entry reads.
    pub panic_per_mille: u32,
    /// Cap on panics actually fired (`None` = unlimited). A finite
    /// budget models transient faults: once spent, the same sites read
    /// cleanly, so a fallback attempt can succeed.
    pub panic_budget: Option<u64>,
    /// Per-mille rate of artificially slow entry reads.
    pub latency_per_mille: u32,
    /// How long a slow read stalls.
    pub latency: Duration,
}

impl FaultPlan {
    /// A plan injecting nothing (useful as a builder base).
    pub fn none(seed: u64) -> Self {
        FaultPlan {
            seed,
            violation_per_mille: 0,
            panic_per_mille: 0,
            panic_budget: None,
            latency_per_mille: 0,
            latency: Duration::ZERO,
        }
    }

    /// Adds Monge-violating perturbations at `per_mille`/1000 sites.
    #[must_use]
    pub fn violations(mut self, per_mille: u32) -> Self {
        self.violation_per_mille = per_mille;
        self
    }

    /// Adds panicking reads at `per_mille`/1000 sites.
    #[must_use]
    pub fn panics(mut self, per_mille: u32) -> Self {
        self.panic_per_mille = per_mille;
        self
    }

    /// Caps the number of panics fired (transient-fault model).
    #[must_use]
    pub fn panic_budget(mut self, budget: u64) -> Self {
        self.panic_budget = Some(budget);
        self
    }

    /// Adds `latency`-long stalls at `per_mille`/1000 sites.
    #[must_use]
    pub fn latency(mut self, per_mille: u32, latency: Duration) -> Self {
        self.latency_per_mille = per_mille;
        self.latency = latency;
        self
    }
}

/// SplitMix64 — the standard 64-bit finalizer; pure, cheap, and good
/// enough to decorrelate (seed, i, j, stream) site choices.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An [`Array2d`] adaptor that deterministically injects faults —
/// Monge-violating entries, panicking reads, artificial latency — into
/// an inner array, for exercising the guarded dispatch layer.
///
/// Violation sites add (or, at the two corners where an increase cannot
/// break any adjacent quadruple, subtract) `delta` to the true entry.
/// For any site of an `m×n` array with `m, n ≥ 2` this breaks at least
/// one adjacent quadrangle inequality as long as `delta` exceeds the
/// quadruple's slack, so a full validation scan is guaranteed to notice.
/// The batched [`Array2d::fill_row`] path routes through [`Array2d::entry`]
/// so faults fire on every evaluation tier, and `row_view` opts out of
/// the zero-copy tier entirely.
pub struct FaultInjector<T, A> {
    inner: A,
    plan: FaultPlan,
    delta: T,
    panics_fired: AtomicU64,
}

impl<T: Value, A: Array2d<T>> FaultInjector<T, A> {
    /// Wraps `inner`, injecting per `plan`; `delta` is the perturbation
    /// magnitude for violation sites (pick it larger than any adjacent
    /// quadrangle slack of `inner`, and well below `T`'s infinity).
    pub fn new(inner: A, plan: FaultPlan, delta: T) -> Self {
        FaultInjector {
            inner,
            plan,
            delta,
            panics_fired: AtomicU64::new(0),
        }
    }

    /// The wrapped array.
    pub fn inner(&self) -> &A {
        &self.inner
    }

    /// How many injected panics have fired so far.
    pub fn panics_fired(&self) -> u64 {
        self.panics_fired.load(Ordering::Relaxed)
    }

    fn site(&self, i: usize, j: usize, stream: u64, per_mille: u32) -> bool {
        if per_mille == 0 {
            return false;
        }
        let h = mix(self
            .plan
            .seed
            .wrapping_add(mix(i as u64))
            .wrapping_add(mix((j as u64) << 1))
            .wrapping_add(stream));
        (h % 1000) < per_mille as u64
    }

    /// Is `(i, j)` a violation site under this plan? (Exposed so tests
    /// can count seeded corruption without re-deriving the hash.)
    pub fn is_violation_site(&self, i: usize, j: usize) -> bool {
        self.site(i, j, 0xA5A5, self.plan.violation_per_mille)
    }
}

impl<T: Value, A: Array2d<T>> Array2d<T> for FaultInjector<T, A> {
    fn rows(&self) -> usize {
        self.inner.rows()
    }

    fn cols(&self) -> usize {
        self.inner.cols()
    }

    fn entry(&self, i: usize, j: usize) -> T {
        if self.site(i, j, 0x5A5A, self.plan.panic_per_mille) {
            let allowed = match self.plan.panic_budget {
                Some(b) => self.panics_fired.fetch_add(1, Ordering::Relaxed) < b,
                None => {
                    self.panics_fired.fetch_add(1, Ordering::Relaxed);
                    true
                }
            };
            if allowed {
                panic!("injected fault: panic reading entry ({i}, {j})");
            }
        }
        if self.site(i, j, 0xC3C3, self.plan.latency_per_mille) {
            std::thread::sleep(self.plan.latency);
        }
        let v = self.inner.entry(i, j);
        if self.is_violation_site(i, j) {
            // An increase at (i,j) breaks an adjacent quadruple that has
            // (i,j) on its diagonal; such a quadruple exists unless the
            // site is the top-right or bottom-left corner, where the
            // site only ever sits on anti-diagonals — decrease instead.
            let diagonal_neighbor =
                (i > 0 && j > 0) || (i + 1 < self.rows() && j + 1 < self.cols());
            if diagonal_neighbor {
                v.add(self.delta)
            } else {
                v.sub(self.delta)
            }
        } else {
            v
        }
    }

    fn fill_row(&self, i: usize, cols: Range<usize>, out: &mut [T]) {
        // Route the batched tier through entry() so panic/latency/
        // violation sites fire identically on slice scans.
        for (slot, j) in out.iter_mut().zip(cols) {
            *slot = self.entry(i, j);
        }
    }

    fn prefers_streaming(&self) -> bool {
        self.inner.prefers_streaming()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array2d::Dense;
    use crate::monge::{check_monge, is_monge};

    fn monge_base() -> Dense<i64> {
        Dense::tabulate(8, 8, |i, j| {
            let (i, j) = (i as i64, j as i64);
            (i - j) * (i - j)
        })
    }

    #[test]
    fn no_faults_is_transparent() {
        let f = FaultInjector::new(monge_base(), FaultPlan::none(7), 1000i64);
        assert!(is_monge(&f));
        for i in 0..8 {
            for j in 0..8 {
                assert_eq!(f.entry(i, j), monge_base().entry(i, j));
            }
        }
    }

    #[test]
    fn violations_are_deterministic_and_detectable() {
        let f = FaultInjector::new(monge_base(), FaultPlan::none(11).violations(200), 1000i64);
        let g = FaultInjector::new(monge_base(), FaultPlan::none(11).violations(200), 1000i64);
        let mut sites = 0;
        for i in 0..8 {
            for j in 0..8 {
                assert_eq!(f.entry(i, j), g.entry(i, j), "determinism at ({i},{j})");
                sites += usize::from(f.is_violation_site(i, j));
            }
        }
        assert!(sites > 0, "a 20% plan over 64 cells should hit some site");
        let witness = check_monge(&f).expect_err("perturbed array must violate");
        assert!(witness.i < 8 && witness.j < 8);
    }

    #[test]
    fn panic_budget_caps_fired_panics() {
        let f = FaultInjector::new(
            monge_base(),
            FaultPlan::none(3).panics(1000).panic_budget(2),
            0i64,
        );
        for k in 0..2 {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f.entry(0, k)));
            assert!(r.is_err(), "read {k} should panic");
        }
        // Budget spent: every further read is clean.
        for i in 0..8 {
            for j in 0..8 {
                assert_eq!(f.entry(i, j), monge_base().entry(i, j));
            }
        }
    }

    #[test]
    fn fill_row_faults_match_entry_faults() {
        let f = FaultInjector::new(monge_base(), FaultPlan::none(13).violations(300), 500i64);
        let mut buf = vec![0i64; 8];
        for i in 0..8 {
            f.fill_row(i, 0..8, &mut buf);
            for (j, &v) in buf.iter().enumerate() {
                assert_eq!(v, f.entry(i, j));
            }
        }
    }

    #[test]
    fn cancel_token_deadline_fires() {
        let t = CancelToken::with_deadline(Duration::ZERO);
        assert!(t.is_cancelled());
        let t = CancelToken::with_deadline(Duration::from_secs(3600));
        assert!(!t.is_cancelled());
        t.cancel();
        assert!(t.is_cancelled());
    }

    #[test]
    fn remaining_tracks_the_deadline() {
        assert_eq!(CancelToken::new().remaining(), None);
        let t = CancelToken::with_deadline(Duration::from_secs(3600));
        let r = t.remaining().expect("deadline token reports remaining");
        assert!(r > Duration::from_secs(3000) && r <= Duration::from_secs(3600));
        t.cancel();
        assert_eq!(t.remaining(), Some(Duration::ZERO));
        let spent = CancelToken::with_deadline(Duration::ZERO);
        assert!(spent.is_cancelled());
        assert_eq!(spent.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn checkpoint_is_inert_without_a_token() {
        checkpoint(); // must not panic
    }

    #[test]
    fn checkpoint_panics_with_cancelled_sentinel() {
        let token = CancelToken::new();
        token.cancel();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with_cancellation(&token, checkpoint)
        }));
        let payload = r.expect_err("cancelled token must fire");
        assert!(payload.downcast_ref::<Cancelled>().is_some());
        // The guard was dropped during unwind: checkpoint is inert again.
        checkpoint();
    }

    #[test]
    fn retry_backoff_is_deterministic_and_bounded() {
        let p = RetryPolicy::retries(4, Duration::from_millis(2), Duration::from_millis(50))
            .with_seed(0xD00D);
        for attempt in 1..=3u32 {
            let a = p.backoff(7, attempt);
            let b = p.backoff(7, attempt);
            assert_eq!(a, b, "same (seed, salt, attempt) → same delay");
            assert!(a >= Duration::from_millis(2) && a <= Duration::from_millis(50));
        }
        // Different salts decorrelate.
        let delays: Vec<Duration> = (0..16).map(|s| p.backoff(s, 2)).collect();
        let distinct = delays
            .iter()
            .collect::<std::collections::HashSet<_>>()
            .len();
        assert!(distinct > 1, "jitter must not collapse to one delay");
        // The no-retry policy never sleeps.
        assert_eq!(RetryPolicy::NONE.backoff(1, 1), Duration::ZERO);
        assert!(RetryPolicy::NONE.allows(0) && !RetryPolicy::NONE.allows(1));
        assert!(p.allows(3) && !p.allows(4));
    }

    #[test]
    fn retry_ceiling_below_the_floor_is_raised_to_it() {
        let p = RetryPolicy::retries(2, Duration::from_millis(10), Duration::from_millis(1));
        assert_eq!(p.max_backoff, Duration::from_millis(10));
        for attempt in 1..=3 {
            assert_eq!(p.backoff(0, attempt), Duration::from_millis(10));
        }
    }

    #[test]
    fn solve_error_displays() {
        let e = SolveError::Overflow { context: "test" };
        assert!(format!("{e}").contains("overflow"));
        let e = SolveError::DeadlineExceeded {
            elapsed: Duration::from_millis(5),
            deadline: Duration::from_millis(1),
        };
        assert!(format!("{e}").contains("deadline"));
        let e = SolveError::CircuitOpen {
            backend: "rayon",
            retry_after: Duration::from_millis(3),
        };
        assert!(format!("{e}").contains("circuit open"));
    }
}
