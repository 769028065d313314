//! SIMD-vs-scalar differential conformance: every problem kind solved
//! twice — once with the kernel selection pinned to `Scalar`, once
//! pinned to `Simd` — must produce byte-identical solutions (values,
//! indices, tie-breaks). Under `--no-default-features` the `Simd` pin
//! degrades to scalar and the diff is trivially clean, so the suite is
//! meaningful in both CI feature legs without any cfg gymnastics.
//!
//! Fuzz instances are lane-hostile by size (most are *below*
//! `MIN_SIMD_LEN`, exercising the short-slice fallback); the dedicated
//! large-array and plateau tests push the scans well past the 4-lane
//! blocks and the 256-element streaming chunk.

use monge_conformance::fuzz::conformance_dispatcher;
use monge_conformance::gen::generate;
use monge_core::array2d::Dense;
use monge_core::generators::{random_monge_dense, random_monge_dense_f64};
use monge_core::kernel::Kernel;
use monge_core::problem::{Problem, ProblemKind, Solution};
use monge_core::Tie;
use monge_parallel::dispatch::Dispatcher;
use monge_parallel::Tuning;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SCALAR: Tuning = Tuning {
    kernel: Kernel::Scalar,
    ..Tuning::DEFAULT
};
const SIMD: Tuning = Tuning {
    kernel: Kernel::Simd,
    ..Tuning::DEFAULT
};

/// Solves `p` under both kernel pins on every eligible backend of `d`
/// and asserts the full solutions agree. Each solve pins its tuning's
/// kernel for itself alone, so these tests run in parallel unlocked.
fn diff_kernels(d: &Dispatcher<i64>, p: &Problem<'_, i64>, ctx: &str) {
    for b in d.eligible(p) {
        let Some((scalar, _)) = d.solve_on(b.name(), p, SCALAR) else {
            continue;
        };
        let (simd, _) = d.solve_on(b.name(), p, SIMD).unwrap();
        assert_eq!(
            scalar,
            simd,
            "{ctx}: backend {} disagrees between scalar and simd kernels",
            b.name()
        );
    }
}

#[test]
fn fuzz_instances_agree_across_kernels_every_problem_kind() {
    let d = conformance_dispatcher();
    let budget = std::env::var("MONGE_FUZZ_BUDGET")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&b| b > 0)
        .unwrap_or(60);
    for (k, kind) in ProblemKind::ALL.iter().enumerate() {
        for i in 0..budget {
            let seed = 0x51D_0000 + (k as u64) * 0x1_0000 + i as u64;
            let inst = generate(*kind, seed);
            diff_kernels(&d, &inst.problem(), &format!("{kind:?} seed {seed}"));
        }
    }
}

#[test]
fn large_monge_arrays_agree_across_kernels() {
    // Wide enough that every interval scan crosses many 4-lane blocks
    // and the streaming chunk boundary; tall enough to hit the
    // parallel row splits under the default grain.
    let d = conformance_dispatcher();
    let mut rng = StdRng::seed_from_u64(0xD1FF);
    let a = random_monge_dense(48, 700, &mut rng);
    for tie in [Tie::Left, Tie::Right] {
        let p = Problem::row_minima(&a).with_tie(tie);
        diff_kernels(&d, &p, &format!("large dense minima tie={tie:?}"));
        let p = Problem::row_maxima(&a).with_tie(tie);
        diff_kernels(&d, &p, &format!("large dense maxima tie={tie:?}"));
    }
}

#[test]
fn zero_slack_plateaus_agree_across_kernels() {
    // A constant array is Monge with zero slack everywhere: every
    // column ties, so the whole solve is one giant tie-break. Both
    // kernels must land on the identical (leftmost / rightmost) index
    // in every row, across lane and chunk boundaries.
    let d = conformance_dispatcher();
    for &n in &[16usize, 257, 600] {
        let a = Dense::tabulate(9, n, |_, _| 7i64);
        for tie in [Tie::Left, Tie::Right] {
            let p = Problem::row_minima(&a).with_tie(tie);
            let (sol, _) = d.solve_on("sequential", &p, SIMD).unwrap();
            let want = match tie {
                Tie::Left => 0,
                Tie::Right => n - 1,
            };
            for (i, &j) in sol.rows().index.iter().enumerate() {
                assert_eq!(j, want, "row {i} tie={tie:?} n={n}");
            }
            diff_kernels(&d, &p, &format!("plateau n={n} tie={tie:?}"));
        }
    }
}

#[test]
fn f64_solves_agree_across_kernels() {
    // The f64 lane bodies (ordered compares) against the scalar
    // `total_lt` scan, via the sequential backend's generic path.
    let mut rng = StdRng::seed_from_u64(0xF64);
    let a = random_monge_dense_f64(24, 300, &mut rng);
    let d: Dispatcher<f64> = Dispatcher::with_all_backends();
    for tie in [Tie::Left, Tie::Right] {
        let p = Problem::row_minima(&a).with_tie(tie);
        let scalar: Option<(Solution<f64>, _)> = d.solve_on("sequential", &p, SCALAR);
        let simd = d.solve_on("sequential", &p, SIMD);
        assert_eq!(scalar.unwrap().0, simd.unwrap().0, "f64 tie={tie:?}");
    }
}
