//! The persistent autotuner: measured backend & tuning selection,
//! cached across runs.
//!
//! The paper offers a *menu* of algorithms per problem shape, and the
//! workspace grew a matching menu of execution choices: host backend
//! (sequential SMAWK vs the rayon engines), grain cutoffs, and the
//! scalar-vs-SIMD kernel pin. [`crate::runtime::calibrate`] sizes the
//! grains from a one-shot per-entry-cost probe, but that probe is
//! re-paid every process, guesses rather than measures the *backend*
//! choice, and never learns. This module replaces guessing with
//! measurement, kubecl-style:
//!
//! * an [`AutotuneKey`] — `(ProblemKind, structure class, element
//!   type, size-class bucket, kernel availability)` — identifies the
//!   family of problems one decision is valid for;
//! * on first encounter of a key, the eligible **candidate set**
//!   (host backend × tuning × kernel pin) is micro-benchmarked on a
//!   subsampled probe of the real problem, and the fastest candidate
//!   becomes the key's [`Winner`];
//! * a process-global table caches winners with **single-flight**
//!   measurement: concurrent solves on the same cold key never measure
//!   twice — exactly one thread claims the measurement, everyone else
//!   falls back to the calibration probe for that call;
//! * winners persist to a versioned, host-fingerprinted JSON file, so
//!   the *next* process starts warm. Any mismatch — schema version,
//!   CPU model, core count, AVX2 probe — or any parse failure silently
//!   re-measures rather than erroring: the cache is a performance
//!   hint, never a correctness input.
//!
//! ## Environment
//!
//! | variable | values | effect |
//! |---|---|---|
//! | `MONGE_AUTOTUNE` | `on` (default) / `readonly` / `off` | `readonly` uses cached winners but never measures or writes; `off` bypasses the table entirely (pure calibrate-probe behavior) |
//! | `MONGE_AUTOTUNE_DIR` | path | where the table file lives; defaults to `$XDG_CACHE_HOME/monge-autotune` or `$HOME/.cache/monge-autotune`, memory-only when neither resolves |
//!
//! ## Precedence
//!
//! The autotuner slots into the [`crate::tuning`] precedence chain
//! between the environment and the calibration probe: *per-call >
//! `MONGE_*` env > autotune cache > calibrate probe > defaults*. A
//! cached winner's tuning is re-overlaid with the `MONGE_*` variables
//! on every use ([`Tuning::env_overlay`]), so a deployment-level pin
//! always beats a measured winner. Which path actually decided a solve
//! is stamped into [`Telemetry::provenance`](monge_core::problem::Telemetry::provenance)
//! ([`TuningProvenance::Cached`](monge_core::problem::TuningProvenance::Cached) / `Measured` / `Probed` / `Default`),
//! so benches and tests can assert the selection path — the CI
//! autotune leg requires a warm second run to report only `cached`
//! with zero measurements.
//!
//! Winners affect **speed only**: every candidate backend returns
//! bitwise-identical solutions (the conformance lab's differential
//! enforces this), so a stale or mis-measured winner can cost
//! microseconds, never correctness.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use monge_core::array2d::SubArray;
use monge_core::kernel::{self, Kernel};
use monge_core::problem::{Problem, ProblemKind, Structure};
use monge_core::value::Value;

use crate::dispatch::{Backend, Dispatcher};
use crate::runtime;
use crate::tuning::Tuning;

/// Version of the on-disk table schema. Bumped whenever the key or
/// winner encoding changes; files with any other version are ignored
/// wholesale (and re-measured).
pub const SCHEMA_VERSION: u32 = 1;

/// File name of the persisted table inside the autotune directory.
pub const TABLE_FILE: &str = "monge-autotune.json";

/// Rows (planes for tubes) of the subsampled measurement probe. Large
/// enough that grain and kernel effects show, small enough that a cold
/// key costs milliseconds, not the full solve.
pub const PROBE_ROWS: usize = 192;

/// Host backends the measurement races. Simulator backends are never
/// candidates for the same reason they are never auto-selected:
/// running them is never faster than running the host engines.
const HOST_CANDIDATES: [&str; 2] = ["sequential", "rayon"];

/// What the autotuner is allowed to do, from `MONGE_AUTOTUNE`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum AutotuneMode {
    /// Look up, measure on miss, persist winners (the default).
    #[default]
    On,
    /// Use cached winners but never measure and never write.
    ReadOnly,
    /// Bypass the table entirely.
    Off,
}

impl AutotuneMode {
    /// Parses `on` / `readonly` / `off` (ASCII case-insensitive).
    pub fn parse(s: &str) -> Option<AutotuneMode> {
        match s.trim().to_ascii_lowercase().as_str() {
            "on" => Some(AutotuneMode::On),
            "readonly" => Some(AutotuneMode::ReadOnly),
            "off" => Some(AutotuneMode::Off),
            _ => None,
        }
    }

    /// The `MONGE_AUTOTUNE` selection; [`AutotuneMode::On`] when unset
    /// or unparsable.
    pub fn from_env() -> AutotuneMode {
        std::env::var("MONGE_AUTOTUNE")
            .ok()
            .and_then(|s| AutotuneMode::parse(&s))
            .unwrap_or_default()
    }
}

/// The family of problems one measured decision is valid for.
///
/// Deliberately coarse: the exact shape is bucketed into a power-of-two
/// size class (members of one class are within 2× in search area, so
/// one winner fits all), and the element type is keyed by its short
/// name so `i64` and `f64` — which have different kernel bodies and
/// different per-entry costs — never share a winner.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct AutotuneKey {
    /// The problem kind.
    pub kind: ProblemKind,
    /// Structure class: 0 = plain, 1 = Monge, 2 = inverse-Monge.
    pub structure: u8,
    /// Short element type name (`"i64"`, `"f64"`).
    pub elem: String,
    /// `floor(log2(search area)) + 1` — same bucketing as the batch
    /// layer's grouping key.
    pub size_class: u32,
    /// Were the SIMD lane kernels available (compiled in *and*
    /// supported by this host) when the key was formed? A feature-flag
    /// or host change flips this, keying separate winners.
    pub simd: bool,
}

/// Structure class discriminant shared with the batch grouping key
/// (banded/tube problems are Monge by construction).
pub(crate) fn structure_code<T: Value>(p: &Problem<'_, T>) -> u8 {
    match p {
        Problem::Rows { structure, .. } | Problem::Staircase { structure, .. } => match structure {
            Structure::Plain => 0,
            Structure::Monge => 1,
            Structure::InverseMonge => 2,
        },
        Problem::Banded { .. } | Problem::Tube { .. } => 1,
    }
}

/// Power-of-two search-area bucket shared with the batch grouping key.
pub(crate) fn size_class<T: Value>(p: &Problem<'_, T>) -> u32 {
    let (m, n) = p.search_shape();
    let area = (m as u128 * n as u128).max(1);
    128 - area.leading_zeros()
}

/// The short (path-stripped) name of `T`, the table's element-type key.
fn elem_name<T: Value>() -> String {
    let full = std::any::type_name::<T>();
    full.rsplit("::").next().unwrap_or(full).to_string()
}

impl AutotuneKey {
    /// The key of a problem instance on this host/build.
    pub fn of<T: Value>(p: &Problem<'_, T>) -> AutotuneKey {
        AutotuneKey {
            kind: p.kind(),
            structure: structure_code(p),
            elem: elem_name::<T>(),
            size_class: size_class(p),
            simd: kernel::simd_compiled() && kernel::simd_available(),
        }
    }
}

/// A measured decision: which backend to run and with what tuning.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Winner {
    /// Registry name of the fastest candidate backend.
    pub backend: String,
    /// The tuning (grains + kernel pin) it won with. Re-overlaid with
    /// the `MONGE_*` environment at use time, preserving precedence.
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
    /// The autotuner has nothing for this call — it is off, the key is
    /// being measured by another thread, or the mode is read-only with
    /// a cold key. Fall back to the calibration probe.
    Pass,
}

/// Single-flight measurement claim; see [`Claim::Measure`].
pub struct MeasureToken<'a> {
    tuner: &'a Autotuner,
    key: AutotuneKey,
    done: bool,
}

impl MeasureToken<'_> {
    /// Installs the measured winner (and persists the table in
    /// [`AutotuneMode::On`]).
    pub fn fulfill(mut self, winner: Winner) {
        self.tuner.install(self.key.clone(), winner);
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

/// The winner table: mode, optional persistence directory, cached
/// winners, and the measurement tally the tests and the CI warm-cache
/// assertion read.
///
/// Most code uses the process-global instance implicitly through
/// [`Dispatcher::solve_calibrated`] / batch grouping; tests construct
/// isolated instances ([`Autotuner::in_memory`], [`Autotuner::with_dir`])
/// and attach them via [`Dispatcher::with_autotuner`].
pub struct Autotuner {
    mode: AutotuneMode,
    dir: Option<PathBuf>,
    table: Mutex<HashMap<AutotuneKey, Slot>>,
    measurements: AtomicU64,
}

impl Autotuner {
    /// An autotuner configured from the environment (`MONGE_AUTOTUNE`,
    /// `MONGE_AUTOTUNE_DIR`), loading any valid persisted table.
    pub fn from_env() -> Autotuner {
        match default_dir() {
            Some(dir) => Autotuner::with_dir(AutotuneMode::from_env(), dir),
            None => Autotuner::in_memory(AutotuneMode::from_env()),
        }
    }

    /// A memory-only autotuner (no persistence).
    pub fn in_memory(mode: AutotuneMode) -> Autotuner {
        Autotuner {
            mode,
            dir: None,
            table: Mutex::new(HashMap::new()),
            measurements: AtomicU64::new(0),
        }
    }

    /// An autotuner persisting under `dir`, seeded with whatever valid
    /// entries the directory's table file holds. A missing, corrupt,
    /// differently-versioned or differently-fingerprinted file seeds
    /// nothing — silently.
    pub fn with_dir(mode: AutotuneMode, dir: impl Into<PathBuf>) -> Autotuner {
        let dir = dir.into();
        let seeded = read_table(&dir.join(TABLE_FILE), &host_fingerprint()).unwrap_or_default();
        Autotuner {
            mode,
            dir: Some(dir),
            table: Mutex::new(
                seeded
                    .into_iter()
                    .map(|(k, w)| (k, Slot::Ready(w)))
                    .collect(),
            ),
            measurements: AtomicU64::new(0),
        }
    }

    /// A disabled autotuner: every [`Autotuner::begin`] returns
    /// [`Claim::Pass`].
    pub fn off() -> Autotuner {
        Autotuner::in_memory(AutotuneMode::Off)
    }

    /// The configured mode.
    pub fn mode(&self) -> AutotuneMode {
        self.mode
    }

    /// How many measurements this instance has *claimed* (the test
    /// hook behind the single-flight and warm-cache assertions).
    pub fn measurements(&self) -> u64 {
        self.measurements.load(Ordering::Relaxed)
    }

    /// Cached winners, in arbitrary order (the bench table writer).
    pub fn entries(&self) -> Vec<(AutotuneKey, Winner)> {
        self.lock_table()
            .iter()
            .filter_map(|(k, s)| match s {
                Slot::Ready(w) => Some((k.clone(), w.clone())),
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
    /// key is cold and the mode allows measuring.
    pub fn begin(&self, key: AutotuneKey) -> Claim<'_> {
        if self.mode == AutotuneMode::Off {
            return Claim::Pass;
        }
        let mut table = self.lock_table();
        match table.get(&key) {
            Some(Slot::Ready(w)) => Claim::Hit(w.clone()),
            Some(Slot::Measuring) => Claim::Pass,
            None => {
                if self.mode == AutotuneMode::ReadOnly {
                    return Claim::Pass;
                }
                table.insert(key.clone(), Slot::Measuring);
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

    fn install(&self, key: AutotuneKey, winner: Winner) {
        let mut table = self.lock_table();
        table.insert(key, Slot::Ready(winner));
        if self.mode == AutotuneMode::On {
            if let Some(dir) = &self.dir {
                let entries: Vec<(AutotuneKey, Winner)> = table
                    .iter()
                    .filter_map(|(k, s)| match s {
                        Slot::Ready(w) => Some((k.clone(), w.clone())),
                        Slot::Measuring => None,
                    })
                    .collect();
                // Best-effort: an unwritable directory degrades to
                // memory-only caching, never to an error.
                let _ = write_table(dir, &host_fingerprint(), &entries);
            }
        }
    }
}

/// The process-global autotuner behind [`Dispatcher::solve_calibrated`]
/// and batch group tuning, configured from the environment on first
/// use.
pub fn global() -> &'static Autotuner {
    static GLOBAL: OnceLock<Autotuner> = OnceLock::new();
    GLOBAL.get_or_init(Autotuner::from_env)
}

/// `MONGE_AUTOTUNE_DIR`, else the user cache directory, else `None`
/// (memory-only — the autotuner never invents a writable path).
fn default_dir() -> Option<PathBuf> {
    if let Ok(d) = std::env::var("MONGE_AUTOTUNE_DIR") {
        if !d.trim().is_empty() {
            return Some(PathBuf::from(d));
        }
    }
    if let Ok(x) = std::env::var("XDG_CACHE_HOME") {
        if !x.trim().is_empty() {
            return Some(Path::new(&x).join("monge-autotune"));
        }
    }
    if let Ok(h) = std::env::var("HOME") {
        if !h.trim().is_empty() {
            return Some(Path::new(&h).join(".cache").join("monge-autotune"));
        }
    }
    None
}

// ---------------------------------------------------------------------
// Host fingerprint
// ---------------------------------------------------------------------

/// The host identity a persisted table is valid for: CPU model, core
/// count, AVX2 probe, joined into one comparable string. Any component
/// changing (new machine, different container CPU allotment, feature
/// flags flipping the vector bodies) invalidates the whole file.
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
// Persistence (hand-rolled line-oriented JSON, like bench-results/)
// ---------------------------------------------------------------------

fn kind_str(k: ProblemKind) -> String {
    format!("{k:?}")
}

fn parse_kind(s: &str) -> Option<ProblemKind> {
    ProblemKind::ALL.into_iter().find(|k| kind_str(*k) == s)
}

fn kernel_str(k: Kernel) -> &'static str {
    match k {
        Kernel::Auto => "auto",
        Kernel::Scalar => "scalar",
        Kernel::Simd => "simd",
    }
}

/// `"key": value` extractor for the flat one-record-per-line encoding
/// (same dialect as `bench-results/`; the bench crate's copy is not
/// visible from here).
fn field(line: &str, key: &str) -> Option<String> {
    let tag = format!("\"{key}\": ");
    let start = line.find(&tag)? + tag.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim().trim_matches('"').to_string())
}

/// Renders the table file: a schema/host header and one entry per line.
fn render_table(fingerprint: &str, entries: &[(AutotuneKey, Winner)]) -> String {
    let mut lines: Vec<String> = entries
        .iter()
        .map(|(k, w)| {
            let t = &w.tuning;
            format!(
                "    {{\"kind\": \"{}\", \"structure\": {}, \"elem\": \"{}\", \"size_class\": {}, \"simd\": {}, \"backend\": \"{}\", \"seq_scan\": {}, \"seq_rows\": {}, \"tube_seq_planes\": {}, \"pram_base_rows\": {}, \"kernel\": \"{}\"}}",
                kind_str(k.kind),
                k.structure,
                k.elem,
                k.size_class,
                u8::from(k.simd),
                w.backend,
                t.seq_scan,
                t.seq_rows,
                t.tube_seq_planes,
                t.pram_base_rows,
                kernel_str(t.kernel),
            )
        })
        .collect();
    lines.sort(); // deterministic file for identical tables
    format!(
        "{{\n  \"schema\": {SCHEMA_VERSION},\n  \"host\": \"{fingerprint}\",\n  \"entries\": [\n{}\n  ]\n}}\n",
        lines.join(",\n")
    )
}

/// Parses a table file. `None` on *any* irregularity — missing file,
/// unreadable bytes, wrong schema, wrong host fingerprint, or a single
/// malformed entry — because a winner table is only a hint and a
/// partial one is not worth trusting.
fn read_table(path: &Path, fingerprint: &str) -> Option<Vec<(AutotuneKey, Winner)>> {
    let text = std::fs::read_to_string(path).ok()?;
    let mut schema: Option<u32> = None;
    let mut host: Option<String> = None;
    let mut entries = Vec::new();
    for line in text.lines() {
        let trimmed = line.trim();
        if trimmed.contains("\"kind\":") {
            entries.push(parse_entry(trimmed)?);
        } else if trimmed.starts_with("\"schema\":") {
            let v = trimmed
                .trim_start_matches("\"schema\":")
                .trim()
                .trim_end_matches(',');
            schema = Some(v.parse().ok()?);
        } else if trimmed.starts_with("\"host\":") {
            let v = trimmed
                .trim_start_matches("\"host\":")
                .trim()
                .trim_end_matches(',')
                .trim_matches('"');
            host = Some(v.to_string());
        }
    }
    if schema != Some(SCHEMA_VERSION) || host.as_deref() != Some(fingerprint) {
        return None;
    }
    Some(entries)
}

fn parse_entry(line: &str) -> Option<(AutotuneKey, Winner)> {
    let num = |k: &str| -> Option<usize> { field(line, k)?.parse().ok() };
    let key = AutotuneKey {
        kind: parse_kind(&field(line, "kind")?)?,
        structure: field(line, "structure")?.parse().ok()?,
        elem: field(line, "elem")?,
        size_class: field(line, "size_class")?.parse().ok()?,
        simd: match field(line, "simd")?.as_str() {
            "1" | "true" => true,
            "0" | "false" => false,
            _ => return None,
        },
    };
    // Zero cutoffs would recurse forever; reject them at parse time the
    // same way the env overlay does.
    let positive = |v: usize| if v > 0 { Some(v) } else { None };
    let tuning = Tuning {
        seq_scan: positive(num("seq_scan")?)?,
        seq_rows: positive(num("seq_rows")?)?,
        tube_seq_planes: positive(num("tube_seq_planes")?)?,
        pram_base_rows: positive(num("pram_base_rows")?)?,
        kernel: Kernel::parse(&field(line, "kernel")?)?,
    };
    let backend = field(line, "backend")?;
    if backend.is_empty() {
        return None;
    }
    Some((key, Winner { backend, tuning }))
}

/// Writes the table under `dir` (creating it), via a temp file + rename
/// so concurrent processes never observe a torn file. All failures are
/// reported, not panicked, and callers ignore them.
fn write_table(
    dir: &Path,
    fingerprint: &str,
    entries: &[(AutotuneKey, Winner)],
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let tmp = dir.join(format!(".{}.tmp-{}", TABLE_FILE, std::process::id()));
    std::fs::write(&tmp, render_table(fingerprint, entries))?;
    let result = std::fs::rename(&tmp, dir.join(TABLE_FILE));
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

// ---------------------------------------------------------------------
// Measurement
// ---------------------------------------------------------------------

/// Micro-benchmarks the eligible candidate set on a subsampled probe of
/// `problem` and returns the fastest `(backend, tuning)` — or `None`
/// when no host candidate is eligible (which real problems never hit:
/// the sequential backend admits everything).
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
            backend: candidates[ci].0.name().to_string(),
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
        let Claim::Measure(token) = tuner.begin(key.clone()) else {
            panic!("cold key must yield the measurement claim");
        };
        // A second caller on the in-flight key passes, never measures.
        assert!(matches!(tuner.begin(key.clone()), Claim::Pass));
        assert_eq!(tuner.measurements(), 1);
        let winner = Winner {
            backend: "sequential".to_string(),
            tuning: Tuning::DEFAULT,
        };
        token.fulfill(winner.clone());
        match tuner.begin(key.clone()) {
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
            let Claim::Measure(_token) = tuner.begin(key.clone()) else {
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
    fn readonly_never_measures_and_off_always_passes() {
        let a = dense(16, 16);
        let key = AutotuneKey::of(&Problem::row_minima(&a));
        let ro = Autotuner::in_memory(AutotuneMode::ReadOnly);
        assert!(matches!(ro.begin(key.clone()), Claim::Pass));
        assert_eq!(ro.measurements(), 0);
        let off = Autotuner::off();
        assert!(matches!(off.begin(key), Claim::Pass));
        assert_eq!(off.measurements(), 0);
    }

    #[test]
    fn table_roundtrips_through_the_file_encoding() {
        let key = AutotuneKey {
            kind: ProblemKind::StaircaseRowMinima,
            structure: 1,
            elem: "i64".to_string(),
            size_class: 17,
            simd: true,
        };
        let winner = Winner {
            backend: "rayon".to_string(),
            tuning: Tuning {
                seq_scan: 512,
                seq_rows: 32,
                tube_seq_planes: 4,
                pram_base_rows: 4,
                kernel: Kernel::Scalar,
            },
        };
        let fp = host_fingerprint();
        let rendered = render_table(&fp, &[(key.clone(), winner.clone())]);
        let dir = std::env::temp_dir().join(format!("monge-autotune-rt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(TABLE_FILE), &rendered).unwrap();
        let loaded = read_table(&dir.join(TABLE_FILE), &fp).expect("valid table must load");
        assert_eq!(loaded, vec![(key, winner)]);
        // Wrong fingerprint: the same bytes load as nothing.
        assert!(read_table(&dir.join(TABLE_FILE), "cpu=other; cores=1").is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn measurement_returns_an_eligible_winner() {
        let d = Dispatcher::<i64>::with_default_backends();
        let a = dense(24, 40);
        let p = Problem::row_minima(&a);
        let before = kernel::selected();
        let w = measure(&d, &p).expect("host candidates are always eligible");
        assert!(HOST_CANDIDATES.contains(&w.backend.as_str()));
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
