//! The autotuner: measured backend & tuning selection, one in-memory
//! table per [`Dispatcher`].
//!
//! The paper offers a *menu* of algorithms per problem shape, and the
//! workspace grew a matching menu of execution choices: host backend
//! (sequential SMAWK vs the rayon engines), grain cutoffs, and the
//! scalar-vs-SIMD kernel pin. The grain policy picks among them from
//! the problem's shape alone; this module measures instead:
//!
//! * an [`AutotuneKey`] — `(ProblemKind, structure class, element
//!   type, size-class bucket, kernel availability)` — identifies the
//!   family of problems one decision is valid for;
//! * on first encounter of a key, the eligible **candidate set**
//!   (host backend × tuning × kernel pin) is micro-benchmarked on a
//!   subsampled probe of the real problem, and the fastest candidate
//!   becomes the key's [`Winner`];
//! * the table caches winners with **single-flight** measurement:
//!   concurrent solves on the same cold key never measure twice —
//!   exactly one thread claims the measurement, everyone else runs
//!   that call on the environment-seeded defaults.
//!
//! Every [`Dispatcher`] owns its own table; several dispatchers share
//! one only when handed the same instance through
//! [`Dispatcher::with_autotuner`]. Nothing is persisted: a table lives
//! as long as the dispatchers holding it.
//!
//! ## Precedence
//!
//! The autotuner is the middle rung of the [`crate::tuning`] ladder:
//! *per-call > autotune > env-seeded defaults*. Which rung decided a
//! solve is stamped into
//! [`Telemetry::provenance`](monge_core::problem::Telemetry::provenance)
//! ([`TuningProvenance::Cached`](monge_core::problem::TuningProvenance::Cached)
//! / `Measured` / `Default`), so benches and tests can assert the
//! selection path.
//!
//! Winners affect **speed only**: every candidate backend returns
//! bitwise-identical solutions (the conformance lab's differential
//! enforces this), so a mis-measured winner can cost microseconds,
//! never correctness.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use monge_core::array2d::SubArray;
use monge_core::kernel::{self, Kernel};
use monge_core::problem::{Problem, ProblemKind, Structure};
use monge_core::value::Value;

use crate::dispatch::{Backend, Dispatcher};
use crate::runtime;
use crate::tuning::Tuning;

/// Rows (planes for tubes) of the subsampled measurement probe. Large
/// enough that grain and kernel effects show, small enough that a cold
/// key costs milliseconds, not the full solve.
pub const PROBE_ROWS: usize = 192;

/// Host backends the measurement races. Simulator backends are never
/// candidates for the same reason they are never auto-selected:
/// running them is never faster than running the host engines.
const HOST_CANDIDATES: [&str; 2] = ["sequential", "rayon"];

/// What the autotuner is allowed to do.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum AutotuneMode {
    /// Look up, and measure on a miss (the default).
    #[default]
    On,
    /// Bypass the table entirely.
    Off,
}

/// The family of problems one measured decision is valid for.
///
/// Deliberately coarse: the exact shape is bucketed into a power-of-two
/// size class (members of one class are within 2× in search area, so
/// one winner fits all), and the element type is keyed by its short
/// name so `i64` and `f64` — which have different kernel bodies and
/// different per-entry costs — never share a winner. The batch layer
/// groups its members by this key.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct AutotuneKey {
    /// The problem kind.
    pub kind: ProblemKind,
    /// Structure class: 0 = plain, 1 = Monge, 2 = inverse-Monge
    /// (banded and tube problems are Monge by construction).
    pub structure: u8,
    /// Short element type name (`"i64"`, `"f64"`).
    pub elem: &'static str,
    /// `floor(log2(search area)) + 1`.
    pub size_class: u32,
    /// Were the SIMD lane kernels available (compiled in *and*
    /// supported by this host) when the key was formed?
    pub simd: bool,
}

impl AutotuneKey {
    /// The key of a problem instance on this host/build.
    pub fn of<T: Value>(p: &Problem<'_, T>) -> AutotuneKey {
        let structure = match p {
            Problem::Rows { structure, .. } | Problem::Staircase { structure, .. } => {
                match structure {
                    Structure::Plain => 0,
                    Structure::Monge => 1,
                    Structure::InverseMonge => 2,
                }
            }
            Problem::Banded { .. } | Problem::Tube { .. } => 1,
        };
        let (m, n) = p.search_shape();
        let area = (m as u128 * n as u128).max(1);
        let full = std::any::type_name::<T>();
        AutotuneKey {
            kind: p.kind(),
            structure,
            elem: full.rsplit("::").next().unwrap_or(full),
            size_class: 128 - area.leading_zeros(),
            simd: kernel::simd_compiled() && kernel::simd_available(),
        }
    }
}

/// A measured decision: which backend to run and with what tuning.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Winner {
    /// Registry name of the fastest candidate backend.
    pub backend: &'static str,
    /// The tuning (grains + kernel pin) it won with.
    pub tuning: Tuning,
}

/// Table slot: a finished winner, or an in-flight measurement claim.
#[derive(Clone, Debug)]
enum Slot {
    Measuring,
    Ready(Winner),
}

/// What [`Autotuner::begin`] hands a caller.
pub enum Claim<'a> {
    /// The table has a winner for this key.
    Hit(Winner),
    /// This caller owns the (single-flight) measurement for the key:
    /// measure, then [`MeasureToken::fulfill`]. Dropping the token
    /// without fulfilling clears the claim so the key can be retried.
    Measure(MeasureToken<'a>),
    /// The autotuner has nothing for this call — it is off, or the key
    /// is being measured by another thread. Run on the defaults.
    Pass,
}

/// Single-flight measurement claim; see [`Claim::Measure`].
pub struct MeasureToken<'a> {
    tuner: &'a Autotuner,
    key: AutotuneKey,
    done: bool,
}

impl MeasureToken<'_> {
    /// Installs the measured winner.
    pub fn fulfill(mut self, winner: Winner) {
        self.tuner
            .lock_table()
            .insert(self.key, Slot::Ready(winner));
        self.done = true;
    }
}

impl Drop for MeasureToken<'_> {
    fn drop(&mut self) {
        if !self.done {
            // The measurement died (panic, no candidates): clear the
            // Measuring marker so a later call can claim the key.
            let mut table = self.tuner.lock_table();
            if matches!(table.get(&self.key), Some(Slot::Measuring)) {
                table.remove(&self.key);
            }
        }
    }
}

/// The winner table: mode, cached winners, and the measurement tally
/// the tests and benches read.
///
/// Each [`Dispatcher`] creates its own; attach a shared or disabled
/// instance with [`Dispatcher::with_autotuner`].
pub struct Autotuner {
    mode: AutotuneMode,
    table: Mutex<HashMap<AutotuneKey, Slot>>,
    measurements: AtomicU64,
}

impl Autotuner {
    /// An empty table in `mode`.
    pub fn in_memory(mode: AutotuneMode) -> Autotuner {
        Autotuner {
            mode,
            table: Mutex::new(HashMap::new()),
            measurements: AtomicU64::new(0),
        }
    }

    /// A disabled autotuner: every [`Autotuner::begin`] returns
    /// [`Claim::Pass`].
    pub fn off() -> Autotuner {
        Autotuner::in_memory(AutotuneMode::Off)
    }

    /// How many measurements this instance has *claimed* (the test
    /// hook behind the single-flight assertions).
    pub fn measurements(&self) -> u64 {
        self.measurements.load(Ordering::Relaxed)
    }

    /// Cached winners, in arbitrary order (the bench table writer).
    pub fn entries(&self) -> Vec<(AutotuneKey, Winner)> {
        self.lock_table()
            .iter()
            .filter_map(|(k, s)| match s {
                Slot::Ready(w) => Some((*k, w.clone())),
                Slot::Measuring => None,
            })
            .collect()
    }

    /// The cached winner for `key`, if measurement has completed.
    pub fn lookup(&self, key: &AutotuneKey) -> Option<Winner> {
        match self.lock_table().get(key) {
            Some(Slot::Ready(w)) => Some(w.clone()),
            _ => None,
        }
    }

    /// Looks up `key`, claiming the single-flight measurement when the
    /// key is cold.
    pub fn begin(&self, key: AutotuneKey) -> Claim<'_> {
        if self.mode == AutotuneMode::Off {
            return Claim::Pass;
        }
        let mut table = self.lock_table();
        match table.get(&key) {
            Some(Slot::Ready(w)) => Claim::Hit(w.clone()),
            Some(Slot::Measuring) => Claim::Pass,
            None => {
                table.insert(key, Slot::Measuring);
                self.measurements.fetch_add(1, Ordering::Relaxed);
                Claim::Measure(MeasureToken {
                    tuner: self,
                    key,
                    done: false,
                })
            }
        }
    }

    fn lock_table(&self) -> MutexGuard<'_, HashMap<AutotuneKey, Slot>> {
        // A panic while holding the lock leaves consistent data (every
        // mutation is a single insert/remove); keep serving.
        self.table.lock().unwrap_or_else(|e| e.into_inner())
    }
}

// ---------------------------------------------------------------------
// Host fingerprint
// ---------------------------------------------------------------------

/// The host identity a measured table is valid for: CPU model, core
/// count, AVX2 probe and the `simd` build leg, joined into one
/// comparable string. Benches record it beside their numbers.
pub fn host_fingerprint() -> String {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let avx2 = if cpu_has_avx2() { "yes" } else { "no" };
    let simd = if kernel::simd_compiled() { "yes" } else { "no" };
    format!(
        "cpu={}; cores={cores}; avx2={avx2}; simd-compiled={simd}",
        cpu_model()
    )
}

/// Raw AVX2 probe, independent of the `simd` cargo feature.
fn cpu_has_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Best-effort CPU model string (`/proc/cpuinfo` on Linux, `"unknown"`
/// elsewhere), sanitized so it can sit inside a JSON string literal.
fn cpu_model() -> String {
    let raw = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    raw.chars()
        .filter(|c| c.is_ascii() && *c != '"' && *c != '\\' && !c.is_ascii_control())
        .collect()
}

// ---------------------------------------------------------------------
// Measurement
// ---------------------------------------------------------------------

/// Micro-benchmarks the eligible candidate set on a subsampled probe of
/// `problem` and returns the fastest `(backend, tuning)` — or `None`
/// when no host candidate is eligible (which real problems never hit:
/// the sequential backend admits everything).
///
/// Candidates are each eligible host backend crossed with the grains
/// [`runtime::calibrate`] sizes for the probe and the env-seeded
/// defaults, each under both kernel pins when the SIMD kernels are
/// available.
///
/// The probe is the problem itself when it has at most [`PROBE_ROWS`]
/// rows (planes for tubes), else a prefix window of the real arrays —
/// sub-arrays of Monge arrays are Monge, staircase boundaries stay
/// valid under row-prefixing, so every candidate runs the real
/// algorithm on real data. Each candidate's kernel pin lasts only for
/// its own run, so a panicking candidate cannot leak it.
pub(crate) fn measure<T: Value>(d: &Dispatcher<T>, problem: &Problem<'_, T>) -> Option<Winner> {
    with_probe(problem, PROBE_ROWS, |probe| {
        let calibrated = runtime::calibrate(&probe.primary_array());
        let env = Tuning::from_env();
        let mut tunings = vec![calibrated];
        if env != calibrated {
            tunings.push(env);
        }
        let lanes = kernel::simd_compiled() && kernel::simd_available();
        let mut candidates: Vec<(&dyn Backend<T>, Tuning)> = Vec::new();
        for name in HOST_CANDIDATES {
            let Some(backend) = d.find(name) else {
                continue;
            };
            if !backend.eligible(probe) {
                continue;
            }
            for &t in &tunings {
                candidates.push((backend, t));
                if lanes {
                    // Race the opposite kernel pin too: vectorization
                    // is exactly the kind of choice that wants a
                    // measurement, not a guess.
                    let flipped = if t.kernel == Kernel::Scalar {
                        Kernel::Auto
                    } else {
                        Kernel::Scalar
                    };
                    let twin = Tuning {
                        kernel: flipped,
                        ..t
                    };
                    if !candidates
                        .iter()
                        .any(|(b, ct)| b.name() == name && *ct == twin)
                    {
                        candidates.push((backend, twin));
                    }
                }
            }
        }
        if candidates.is_empty() {
            return None;
        }
        // One untimed warm-up: fault in code paths and grow the scratch
        // arenas so the first timed candidate isn't penalized for them.
        let (b0, t0) = candidates[0];
        let _ = std::hint::black_box(d.run(b0, probe, &t0));
        let mut best: Option<(u128, usize)> = None;
        for (ci, (backend, tuning)) in candidates.iter().enumerate() {
            let mut fastest = u128::MAX;
            for _ in 0..2 {
                let t0 = Instant::now();
                let _ = std::hint::black_box(d.run(*backend, probe, tuning));
                fastest = fastest.min(t0.elapsed().as_nanos());
            }
            if best.is_none_or(|(t, _)| fastest < t) {
                best = Some((fastest, ci));
            }
        }
        best.map(|(_, ci)| Winner {
            backend: candidates[ci].0.name(),
            tuning: candidates[ci].1,
        })
    })
}

/// Runs `f` on a row-prefix window of `problem` with at most `max_rows`
/// rows (planes for tubes) — or on the problem itself when it already
/// fits. The window drops the rank form (host candidates never need
/// it).
fn with_probe<T: Value, R>(
    problem: &Problem<'_, T>,
    max_rows: usize,
    f: impl FnOnce(&Problem<'_, T>) -> R,
) -> R {
    let rows = problem.primary_array().rows();
    if rows <= max_rows {
        return f(problem);
    }
    match *problem {
        Problem::Rows {
            array,
            structure,
            objective,
            tie,
            ..
        } => {
            let sub = SubArray::new(array, 0..max_rows, 0..array.cols());
            f(&Problem::Rows {
                array: &sub,
                structure,
                objective,
                tie,
                rank: None,
            })
        }
        Problem::Staircase {
            array,
            boundary,
            structure,
            ..
        } => {
            let sub = SubArray::new(array, 0..max_rows, 0..array.cols());
            f(&Problem::Staircase {
                array: &sub,
                boundary: &boundary[..max_rows],
                structure,
                rank: None,
            })
        }
        Problem::Banded {
            array,
            lo,
            hi,
            objective,
        } => {
            let sub = SubArray::new(array, 0..max_rows, 0..array.cols());
            f(&Problem::Banded {
                array: &sub,
                lo: &lo[..max_rows],
                hi: &hi[..max_rows],
                objective,
            })
        }
        Problem::Tube { d, e, objective } => {
            let sub = SubArray::new(d, 0..max_rows, 0..d.cols());
            f(&Problem::Tube {
                d: &sub,
                e,
                objective,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monge_core::array2d::Dense;

    fn dense(m: usize, n: usize) -> Dense<i64> {
        Dense::tabulate(m, n, |i, j| {
            let d = i as i64 - j as i64;
            d * d
        })
    }

    #[test]
    fn keys_bucket_by_size_class_and_kind() {
        let small = dense(16, 16); // area 256 → class 9
        let twin = dense(8, 32); // same area, same class
        let big = dense(64, 64); // area 4096 → class 13
        let k1 = AutotuneKey::of(&Problem::row_minima(&small));
        let k2 = AutotuneKey::of(&Problem::row_minima(&twin));
        let k3 = AutotuneKey::of(&Problem::row_minima(&big));
        let k4 = AutotuneKey::of(&Problem::row_maxima(&small));
        assert_eq!(k1, k2);
        assert_ne!(k1, k3);
        assert_ne!(k1, k4);
        assert_eq!(k1.elem, "i64");
        assert_eq!(k1.size_class, 9);
        assert_eq!(k1.structure, 1);
    }

    #[test]
    fn plain_and_structured_rows_key_separately() {
        let a = dense(16, 16);
        let structured = AutotuneKey::of(&Problem::row_minima(&a));
        let plain = AutotuneKey::of(&Problem::plain_row_minima(&a));
        assert_ne!(structured, plain);
        assert_eq!(plain.structure, 0);
    }

    #[test]
    fn f64_and_i64_key_separately() {
        let a = dense(16, 16);
        let b = Dense::tabulate(16, 16, |i, j| {
            let d = i as f64 - j as f64;
            d * d
        });
        let ki = AutotuneKey::of(&Problem::row_minima(&a));
        let kf = AutotuneKey::of(&Problem::row_minima(&b));
        assert_ne!(ki, kf);
        assert_eq!(kf.elem, "f64");
    }

    #[test]
    fn single_flight_within_one_instance() {
        let tuner = Autotuner::in_memory(AutotuneMode::On);
        let a = dense(16, 16);
        let key = AutotuneKey::of(&Problem::row_minima(&a));
        let Claim::Measure(token) = tuner.begin(key) else {
            panic!("cold key must yield the measurement claim");
        };
        // A second caller on the in-flight key passes, never measures.
        assert!(matches!(tuner.begin(key), Claim::Pass));
        assert_eq!(tuner.measurements(), 1);
        let winner = Winner {
            backend: "sequential",
            tuning: Tuning::DEFAULT,
        };
        token.fulfill(winner.clone());
        match tuner.begin(key) {
            Claim::Hit(w) => assert_eq!(w, winner),
            _ => panic!("fulfilled key must hit"),
        }
        assert_eq!(tuner.measurements(), 1);
        assert_eq!(tuner.lookup(&key), Some(winner));
    }

    #[test]
    fn dropped_token_releases_the_claim() {
        let tuner = Autotuner::in_memory(AutotuneMode::On);
        let a = dense(16, 16);
        let key = AutotuneKey::of(&Problem::row_minima(&a));
        {
            let Claim::Measure(_token) = tuner.begin(key) else {
                panic!("cold key must yield the claim");
            };
            // _token dropped here without fulfilling.
        }
        assert!(
            matches!(tuner.begin(key), Claim::Measure(_)),
            "abandoned key must be claimable again"
        );
        assert_eq!(tuner.measurements(), 2);
    }

    #[test]
    fn off_always_passes() {
        let a = dense(16, 16);
        let off = Autotuner::off();
        assert!(matches!(
            off.begin(AutotuneKey::of(&Problem::row_minima(&a))),
            Claim::Pass
        ));
        assert_eq!(off.measurements(), 0);
    }

    #[test]
    fn measurement_returns_an_eligible_winner() {
        let d = Dispatcher::<i64>::with_default_backends();
        let a = dense(24, 40);
        let p = Problem::row_minima(&a);
        let before = kernel::selected();
        let w = measure(&d, &p).expect("host candidates are always eligible");
        assert!(HOST_CANDIDATES.contains(&w.backend));
        assert_eq!(
            kernel::selected(),
            before,
            "measurement must not leak a pin"
        );
    }

    #[test]
    fn probe_windows_large_problems() {
        let a = dense(1000, 8);
        let p = Problem::row_minima(&a);
        let probed_rows = with_probe(&p, PROBE_ROWS, |probe| probe.primary_array().rows());
        assert_eq!(probed_rows, PROBE_ROWS);
        let small = dense(5, 5);
        let p = Problem::row_minima(&small);
        assert_eq!(with_probe(&p, PROBE_ROWS, |q| q.primary_array().rows()), 5);
    }
}
