//! Concurrent guarded solves stay isolated: two threads solve problems
//! of different sizes at the same time, each forking inside its own
//! 2-thread pool. One runs with a deadline that fires mid-solve (a
//! latency-injected array) and `Kernel::Scalar`; the other with no
//! deadline and `Kernel::Auto`. Neither sees the other's deadline or
//! kernel pin, and every completed solve reports exactly the entry
//! evaluations, comparisons, tasks and arena checkouts it reports when
//! run alone. A forking solve also counts the same work on two threads
//! as on one.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::Duration;

use monge_core::array2d::Dense;
use monge_core::generators::random_monge_dense;
use monge_core::guard::{FaultInjector, FaultPlan, GuardPolicy, SolveError};
use monge_core::kernel::{self, Kernel};
use monge_core::problem::{Problem, Solution, Telemetry};
use monge_parallel::{Dispatcher, Tuning};
use rand::rngs::StdRng;
use rand::SeedableRng;

const ROUNDS: usize = 4;

fn monge(n: usize, seed: u64) -> Dense<i64> {
    random_monge_dense(n, n, &mut StdRng::seed_from_u64(seed))
}

fn in_pool<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("the pool builder never fails")
        .install(f)
}

fn counts(t: &Telemetry) -> [u64; 4] {
    [t.evaluations, t.comparisons, t.tasks, t.arena_checkouts]
}

/// One guarded solve on a dispatcher of its own (breakers are
/// per-dispatcher state, shared on purpose by the solves that share
/// one).
fn solve(
    p: &Problem<'_, i64>,
    policy: &GuardPolicy,
    tuning: Tuning,
) -> Result<(Solution<i64>, Telemetry), SolveError> {
    Dispatcher::with_default_backends().solve_guarded_with(p, policy, tuning)
}

#[test]
fn concurrent_solves_keep_their_deadlines_kernels_and_counts() {
    let scalar = Tuning {
        kernel: Kernel::Scalar,
        ..Tuning::DEFAULT
    };
    let auto = Tuning::DEFAULT;
    let (small, large) = (monge(300, 1), monge(600, 2));
    let slow = FaultInjector::new(
        monge(200, 3),
        FaultPlan::none(3).latency(50, Duration::from_millis(1)),
        0i64,
    );
    let (small_p, large_p, slow_p) = (
        Problem::row_minima(&small),
        Problem::row_minima(&large),
        Problem::row_minima(&slow),
    );
    let generous = GuardPolicy::default().with_deadline(Duration::from_secs(600));
    let tight = GuardPolicy::default().with_deadline(Duration::from_millis(20));
    let free = GuardPolicy::default();

    // Each solve alone, forking in a 2-thread pool like the race below.
    let alone_small = in_pool(2, || counts(&solve(&small_p, &generous, scalar).unwrap().1));
    let alone_large = in_pool(2, || counts(&solve(&large_p, &free, auto).unwrap().1));
    let unpinned = kernel::selected();

    let start = Barrier::new(2);
    let deadline_done = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            in_pool(2, || {
                start.wait();
                for round in 0..ROUNDS {
                    match solve(&slow_p, &tight, scalar) {
                        Err(SolveError::DeadlineExceeded { .. }) => {}
                        other => panic!("round {round}: the tight deadline must fire: {other:?}"),
                    }
                    let (_, t) = solve(&small_p, &generous, scalar).expect("no fault");
                    assert_eq!(counts(&t), alone_small, "round {round}: deadline thread");
                    assert_eq!(
                        kernel::selected(),
                        unpinned,
                        "the scalar pin outlived its solve"
                    );
                }
                deadline_done.store(true, Ordering::Relaxed);
            });
        });
        s.spawn(|| {
            in_pool(2, || {
                start.wait();
                let mut solves = 0;
                while solves == 0 || !deadline_done.load(Ordering::Relaxed) {
                    let (_, t) = solve(&large_p, &free, auto)
                        .unwrap_or_else(|e| panic!("deadline-free solve {solves} erred: {e:?}"));
                    assert_eq!(counts(&t), alone_large, "deadline-free solve {solves}");
                    assert_eq!(kernel::selected(), unpinned, "saw the other thread's pin");
                    solves += 1;
                }
            });
        });
    });
}

#[test]
fn forked_solves_count_like_one_thread() {
    // Grains this small make every rayon engine fork.
    let fine = Tuning {
        seq_rows: 4,
        seq_scan: 8,
        tube_seq_planes: 2,
        ..Tuning::DEFAULT
    };
    let (a, d, e) = (monge(96, 4), monge(24, 5), monge(24, 6));
    let boundary: Vec<usize> = (0..96).map(|i| 96 - i / 2).collect();
    let problems = [
        Problem::row_minima(&a),
        Problem::staircase_row_minima(&a, &boundary),
        Problem::tube_minima(&d, &e),
    ];
    let dispatcher = Dispatcher::with_default_backends();
    let solve_in = |threads: usize, p: &Problem<'_, i64>| {
        let tel = in_pool(threads, || dispatcher.solve_on("rayon", p, fine))
            .expect("rayon takes rows, staircase and tube problems")
            .1;
        [tel.evaluations, tel.comparisons, tel.tasks]
    };
    for p in &problems {
        let two = solve_in(2, p);
        assert!(two[2] > 0, "{:?} did not fork", p.kind());
        assert!(two[0] > 0, "{:?} evaluated nothing", p.kind());
        assert_eq!(two, solve_in(1, p), "{:?}: two threads vs one", p.kind());
    }
}
