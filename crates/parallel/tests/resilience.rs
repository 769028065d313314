//! Integration suite for the resilience layer (PR 9): circuit-breaker
//! transitions driven deterministically through `solve_guarded` on a
//! virtual clock, seeded retry/backoff against transient faults, the
//! global retry budget, typed `CircuitOpen` refusals, and the
//! `MONGE_BREAKER_*` / `MONGE_RETRY_*` environment knobs.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use monge_core::array2d::Dense;
use monge_core::generators::random_monge_dense;
use monge_core::guard::{
    BreakerState, FaultInjector, FaultPlan, GuardPolicy, RetryPolicy, SolveError,
};
use monge_core::problem::{Problem, Solution, Telemetry};
use monge_parallel::{
    Backend, Capabilities, Clock, Dispatcher, HealthConfig, HealthRegistry, SequentialBackend,
    Tuning, VirtualClock,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn monge(m: usize, n: usize, seed: u64) -> Dense<i64> {
    let mut rng = StdRng::seed_from_u64(seed);
    random_monge_dense(m, n, &mut rng)
}

/// A backend that panics while `failing` is set and otherwise delegates
/// to the sequential engine — the scripted fault source for driving the
/// breaker state machine from the outside.
struct ScriptedBackend {
    failing: Arc<AtomicBool>,
    solves: AtomicU64,
}

impl Backend<i64> for ScriptedBackend {
    fn name(&self) -> &'static str {
        "scripted"
    }

    fn capabilities(&self) -> Capabilities {
        <SequentialBackend as Backend<i64>>::capabilities(&SequentialBackend)
    }

    fn solve(
        &self,
        problem: &Problem<'_, i64>,
        tuning: &Tuning,
        telemetry: &mut Telemetry,
    ) -> Solution<i64> {
        self.solves.fetch_add(1, Ordering::Relaxed);
        if self.failing.load(Ordering::Relaxed) {
            panic!("scripted fault");
        }
        SequentialBackend.solve(problem, tuning, telemetry)
    }
}

fn scripted_dispatcher(
    config: HealthConfig,
) -> (
    Dispatcher<i64>,
    Arc<VirtualClock>,
    Arc<HealthRegistry>,
    Arc<AtomicBool>,
) {
    let clock = Arc::new(VirtualClock::new());
    let registry = Arc::new(HealthRegistry::new(config, clock.clone()));
    let failing = Arc::new(AtomicBool::new(false));
    let mut d = Dispatcher::with_default_backends().with_health_registry(registry.clone());
    d.register(Box::new(ScriptedBackend {
        failing: failing.clone(),
        solves: AtomicU64::new(0),
    }));
    (d, clock, registry, failing)
}

#[test]
fn breaker_lifecycle_is_deterministic_through_solve_guarded() {
    let config = HealthConfig {
        open_after: 3,
        window: 8,
        cooldown: Duration::from_millis(100),
        ..HealthConfig::DEFAULT
    };
    let (d, clock, registry, failing) = scripted_dispatcher(config);
    let a = monge(12, 12, 1);
    let p = Problem::row_minima(&a);
    let policy = GuardPolicy::default();

    // Phase 1: three faulting solves trip the scripted circuit. Each
    // one still answers via the fallback chain.
    failing.store(true, Ordering::Relaxed);
    for i in 0..3 {
        let (_, tel) = d
            .solve_guarded_on("scripted", &p, &policy, Tuning::DEFAULT)
            .unwrap_or_else(|e| panic!("fallback absorbs fault {i}: {e}"));
        let path = tel.guard.unwrap().fallback_path();
        assert_eq!(path.first(), Some(&"scripted"), "attempt {i}: {path:?}");
    }
    assert_eq!(registry.state("scripted"), BreakerState::Open, "K=3 trips");

    // Phase 2: while Open, the chain skips the pinned backend without
    // paying for an attempt, and counts the skip.
    let (_, tel) = d
        .solve_guarded_on("scripted", &p, &policy, Tuning::DEFAULT)
        .expect("open circuit degrades, not fails");
    assert!(tel.breaker_skips >= 1);
    let path = tel.guard.unwrap().fallback_path();
    assert!(
        !path.contains(&"scripted"),
        "open circuit must not be attempted: {path:?}"
    );

    // Phase 3: the cooldown elapses on the virtual clock; the backend
    // is healthy again; the half-open probe closes the circuit.
    failing.store(false, Ordering::Relaxed);
    clock.advance(Duration::from_millis(100));
    let (_, tel) = d
        .solve_guarded_on("scripted", &p, &policy, Tuning::DEFAULT)
        .expect("probe runs the recovered backend");
    assert_eq!(tel.guard.unwrap().fallback_path(), vec!["scripted"]);
    assert_eq!(registry.state("scripted"), BreakerState::Closed);

    // Phase 4: a faulting probe re-opens instead.
    failing.store(true, Ordering::Relaxed);
    for _ in 0..3 {
        let _ = d.solve_guarded_on("scripted", &p, &policy, Tuning::DEFAULT);
    }
    assert_eq!(registry.state("scripted"), BreakerState::Open);
    clock.advance(Duration::from_millis(100));
    let _ = d.solve_guarded_on("scripted", &p, &policy, Tuning::DEFAULT);
    assert_eq!(
        registry.state("scripted"),
        BreakerState::Open,
        "failed probe re-opens with a fresh cooldown"
    );
}

#[test]
fn retry_absorbs_a_transient_panic_on_the_same_backend() {
    let clock = Arc::new(VirtualClock::new());
    let registry = Arc::new(HealthRegistry::new(HealthConfig::DEFAULT, clock.clone()));
    let d = Dispatcher::with_default_backends().with_health_registry(registry);
    let base = monge(16, 16, 2);
    // One transient panic, then clean reads.
    let f = FaultInjector::new(base, FaultPlan::none(2).panics(1000).panic_budget(1), 0i64);
    let policy = GuardPolicy::default().with_retry(RetryPolicy::retries(
        3,
        Duration::from_millis(1),
        Duration::from_millis(10),
    ));
    let (sol, tel) = d
        .solve_guarded(&Problem::row_minima(&f), &policy)
        .expect("one retry clears a budget-1 panic plan");
    assert!(sol.rows().index.len() == 16);
    assert_eq!(tel.retries, 1, "exactly one retry was spent");
    let guard = tel.guard.unwrap();
    assert_eq!(
        guard.fallback_path(),
        vec!["sequential", "sequential"],
        "the retry stays on the same chain link"
    );
    assert!(guard.degraded(), "the first attempt is still recorded");
    // The backoff slept on the virtual clock, not the wall clock.
    assert!(
        clock.now() > Duration::ZERO,
        "backoff advanced virtual time"
    );
}

#[test]
fn exhausted_retry_budget_falls_through_to_the_next_link() {
    let clock = Arc::new(VirtualClock::new());
    let config = HealthConfig {
        retry_budget: 0,
        retry_credit_milli: 0,
        ..HealthConfig::DEFAULT
    };
    let registry = Arc::new(HealthRegistry::new(config, clock));
    let d = Dispatcher::with_default_backends().with_health_registry(registry.clone());
    let base = monge(16, 16, 3);
    let f = FaultInjector::new(base, FaultPlan::none(3).panics(1000).panic_budget(1), 0i64);
    let policy = GuardPolicy::default().with_retry(RetryPolicy::retries(
        3,
        Duration::from_millis(1),
        Duration::from_millis(10),
    ));
    let (_, tel) = d
        .solve_guarded(&Problem::row_minima(&f), &policy)
        .expect("the chain still absorbs the fault");
    assert_eq!(tel.retries, 0, "no budget, no retries");
    let guard = tel.guard.unwrap();
    assert!(
        guard.fallback_path().len() >= 2 && guard.fallback_path()[0] != guard.fallback_path()[1],
        "fault fell through to the next link: {:?}",
        guard.fallback_path()
    );
    assert_eq!(registry.retry_tokens(), 0);
}

#[test]
fn circuit_open_is_a_typed_error_when_the_chain_cannot_reach_brute() {
    let clock = Arc::new(VirtualClock::new());
    let registry = Arc::new(HealthRegistry::new(HealthConfig::DEFAULT, clock));
    let d = Dispatcher::with_default_backends().with_health_registry(registry.clone());
    registry.force_open("sequential");
    let a = monge(8, 8, 4);
    // Depth 0 pins the chain to the named backend alone: with its
    // circuit open and the brute terminal truncated away, the solve is
    // refused with a typed, retryable error.
    let policy = GuardPolicy {
        max_fallback_depth: 0,
        ..GuardPolicy::default()
    };
    match d.solve_guarded_on(
        "sequential",
        &Problem::row_minima(&a),
        &policy,
        Tuning::DEFAULT,
    ) {
        Err(SolveError::CircuitOpen {
            backend,
            retry_after,
        }) => {
            assert_eq!(backend, "sequential");
            assert_eq!(
                retry_after,
                HealthConfig::DEFAULT.cooldown,
                "retry_after is the remaining cooldown on the virtual clock"
            );
        }
        other => panic!("expected CircuitOpen, got {other:?}"),
    }
}

#[test]
fn registry_tracks_the_attempt_and_merge_sums_the_counters() {
    let clock = Arc::new(VirtualClock::new());
    let registry = Arc::new(HealthRegistry::new(HealthConfig::DEFAULT, clock));
    let d = Dispatcher::with_default_backends().with_health_registry(registry);
    let a = monge(10, 10, 5);
    let (_, tel) = d
        .solve_guarded(&Problem::row_minima(&a), &GuardPolicy::default())
        .unwrap();
    let snap = d.health().snapshot();
    let seq = snap
        .iter()
        .find(|s| s.backend == "sequential")
        .expect("the attempted backend is tracked");
    assert_eq!(seq.state, BreakerState::Closed);
    assert_eq!(seq.window_len, 1);
    assert_eq!(seq.window_failures, 0);
    // Merging sums the counters.
    let older = Telemetry {
        retries: 2,
        breaker_skips: 1,
        ..Telemetry::default()
    };
    let merged = Telemetry::merge(
        [&older, &tel]
            .into_iter()
            .cloned()
            .collect::<Vec<_>>()
            .iter(),
    );
    assert_eq!(merged.retries, 2);
    assert_eq!(merged.breaker_skips, 1);
}

#[test]
fn env_knobs_configure_breaker_and_retry() {
    // Serialized in this one test: set, read, remove. Other tests in
    // this binary attach explicit registries, so a transient env change
    // cannot leak into their breaker behavior.
    std::env::set_var("MONGE_BREAKER_WINDOW", "9");
    std::env::set_var("MONGE_BREAKER_OPEN_AFTER", "2");
    std::env::set_var("MONGE_BREAKER_COOLDOWN_MS", "250");
    std::env::set_var("MONGE_RETRY_BUDGET", "7");
    let c = HealthConfig::from_env();
    std::env::remove_var("MONGE_BREAKER_WINDOW");
    std::env::remove_var("MONGE_BREAKER_OPEN_AFTER");
    std::env::remove_var("MONGE_BREAKER_COOLDOWN_MS");
    std::env::remove_var("MONGE_RETRY_BUDGET");
    assert_eq!(c.window, 9);
    assert_eq!(c.open_after, 2);
    assert_eq!(c.cooldown, Duration::from_millis(250));
    assert_eq!(c.retry_budget, 7);

    std::env::set_var("MONGE_RETRY_MAX", "4");
    std::env::set_var("MONGE_RETRY_BASE_MS", "2");
    std::env::set_var("MONGE_RETRY_MAX_MS", "50");
    let r = RetryPolicy::from_env();
    std::env::remove_var("MONGE_RETRY_MAX");
    std::env::remove_var("MONGE_RETRY_BASE_MS");
    std::env::remove_var("MONGE_RETRY_MAX_MS");
    assert_eq!(r.max_attempts, 4);
    assert_eq!(r.base_backoff, Duration::from_millis(2));
    assert_eq!(r.max_backoff, Duration::from_millis(50));

    // Malformed values fall back to defaults, like the tuning knobs.
    std::env::set_var("MONGE_BREAKER_WINDOW", "not-a-number");
    let c = HealthConfig::from_env();
    std::env::remove_var("MONGE_BREAKER_WINDOW");
    assert_eq!(c.window, HealthConfig::DEFAULT.window);
}
