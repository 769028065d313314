//! The five workloads. Each builds its inputs from the seed, checks every
//! distinct input against the sequential core before timing, runs one op
//! per [`Runner::step`] and knows how to peel an op into its layers.

mod edit;
mod index;
mod serve;
mod solve;

use std::time::Instant;

use crate::trace::Tracer;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `SolverService` submit-then-drain of a 64-problem mixed batch.
    ServeMixed,
    /// One guarded solve of a small row-minima array.
    SolveSmall,
    /// One guarded solve each of four large problems of different kinds.
    SolveLarge,
    /// Rectangle queries on a service-built index, rebuilt periodically.
    IndexChurn,
    /// Edit distance through strip DIST matrices and tube-minima combines.
    EditDistance,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 5] = [
        Workload::ServeMixed,
        Workload::SolveSmall,
        Workload::SolveLarge,
        Workload::IndexChurn,
        Workload::EditDistance,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeMixed => "serve_mixed",
            Workload::SolveSmall => "solve_small",
            Workload::SolveLarge => "solve_large",
            Workload::IndexChurn => "index_churn",
            Workload::EditDistance => "edit_distance",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The tail percentile `tail_us` reports: the highest percentile with
    /// at least ten samples beyond it in a 15 s window on a 2-vCPU host,
    /// or a steadier neighbouring one where that percentile swung more
    /// across seeds in each of three 10-seed batches (p95 not p99 for
    /// `serve_mixed`, p98 not p99 for `solve_small`, p90 not p99 for
    /// `index_churn`). `solve_large` has p90, because its p95 has as few
    /// as 12 samples beyond it in a slow window.
    pub fn tail_pct(self) -> f64 {
        match self {
            Workload::ServeMixed | Workload::EditDistance => 95.0,
            Workload::SolveSmall => 98.0,
            Workload::SolveLarge | Workload::IndexChurn => 90.0,
        }
    }

    /// Builds the workload's inputs and runner, then hands the runner to
    /// `f`. The inputs live exactly as long as the call.
    pub fn with_runner<R>(
        self,
        scale: Scale,
        seed: u64,
        f: impl FnOnce(&mut dyn Runner) -> R,
    ) -> R {
        match self {
            Workload::ServeMixed => {
                let inputs = serve::Inputs::new(scale, seed);
                f(&mut serve::ServeRunner::new(&inputs))
            }
            Workload::SolveSmall => f(&mut solve::SolveRunner::small(scale, seed)),
            Workload::SolveLarge => f(&mut solve::SolveRunner::large(scale, seed)),
            Workload::IndexChurn => f(&mut index::IndexRunner::new(scale, seed)),
            Workload::EditDistance => f(&mut edit::EditRunner::new(scale, seed)),
        }
    }
}

/// Input sizes: the benchmark's own, or small ones for smoke runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark reports.
    Full,
    /// Small sizes that exercise the same calls.
    Smoke,
}

/// How one op ended.
pub enum Outcome {
    /// The answer matched the reference.
    Ok,
    /// The system returned a typed error or refused the request.
    Failed(String),
    /// The answer differs from the reference.
    Wrong(String),
}

impl Outcome {
    /// The set-up gate's reading: any outcome but a right answer is fatal.
    pub fn gate(self) -> Result<(), String> {
        match self {
            Outcome::Ok => Ok(()),
            Outcome::Failed(e) | Outcome::Wrong(e) => Err(format!("gate: {e}")),
        }
    }
}

/// A timed call the workload makes between ops (an index rebuild).
pub struct Maintenance {
    /// Span name of the call.
    pub name: &'static str,
    /// When it started.
    pub start: Instant,
    /// Its duration in nanoseconds.
    pub nanos: u64,
}

/// One op as the load generator saw it.
pub struct Step {
    /// When the op's timed interval opened.
    pub start: Instant,
    /// The op's latency in nanoseconds.
    pub nanos: u64,
    /// Whether its answer was right.
    pub outcome: Outcome,
    /// Maintenance done before the op, timed separately.
    pub maintenance: Option<Maintenance>,
}

impl Step {
    /// An op without maintenance.
    pub fn new(start: Instant, nanos: u64, outcome: Outcome) -> Step {
        Step {
            start,
            nanos,
            outcome,
            maintenance: None,
        }
    }
}

/// A workload with its inputs built and its references computed.
pub trait Runner {
    /// Checks every distinct input's answer against the sequential core
    /// and records the workload's exact per-op counts. Part of set-up.
    fn gate(&mut self) -> Result<(), String>;

    /// Runs op `i`; only calls into the system are inside its timed
    /// interval.
    fn step(&mut self, i: u64) -> Step;

    /// Span name of the op itself.
    fn op_span(&self) -> &'static str;

    /// Re-runs op `i`'s inputs one layer lower at a time, recording a
    /// span per call under the op's span `op`.
    fn peel(&mut self, i: u64, tr: &mut Tracer, op: usize) -> Result<(), String>;

    /// Peels a maintenance call recorded as span `span`.
    fn peel_maintenance(&mut self, _tr: &mut Tracer, _span: usize) -> Result<(), String> {
        Ok(())
    }

    /// Count metrics: exact per-op counts from the gate and tallies of
    /// the ops run so far.
    fn counts(&self) -> Vec<(&'static str, f64)>;

    /// Metrics the peels tally outside the span tree.
    fn tallies(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }

    /// Autotune measurements the workload's table has claimed.
    fn measurements(&self) -> u64;

    /// The workload's autotune winner table.
    fn winners(&self) -> Vec<String>;

    /// Corrupts one stored reference answer.
    #[cfg(test)]
    fn corrupt_reference(&mut self);
}

/// Nanoseconds since `t0`.
pub fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Runs `f` and records its interval as a child span of `parent`.
pub fn timed_span<T>(
    tr: &mut Tracer,
    name: &'static str,
    op: u64,
    parent: usize,
    f: impl FnOnce() -> T,
) -> (T, usize) {
    let start = Instant::now();
    let out = f();
    let id = tr.record(name, op, Some(parent), start, elapsed_ns(start));
    (out, id)
}

/// SplitMix64: the benchmark's own seeded stream for sizes, schedules
/// and rectangles (inputs themselves come from the repository's
/// generators, seeded from this stream).
pub struct Mix(u64);

impl Mix {
    /// A stream determined by `seed` and a per-use `tag`.
    pub fn new(seed: u64, tag: u64) -> Mix {
        Mix(seed ^ tag.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// The next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next()) * n as u128) >> 64) as usize
    }

    /// A seeded permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for k in (1..n).rev() {
            p.swap(k, self.below(k + 1));
        }
        p
    }
}

/// `count` sizes spaced evenly in log scale over `lo..=hi`.
pub fn log_sizes(lo: usize, hi: usize, count: usize) -> Vec<usize> {
    let ratio = hi as f64 / lo as f64;
    (0..count)
        .map(|k| {
            let t = if count > 1 {
                k as f64 / (count - 1) as f64
            } else {
                0.0
            };
            (lo as f64 * ratio.powf(t)).round() as usize
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_reference_trips_the_gate() {
        for w in Workload::ALL {
            w.with_runner(Scale::Smoke, 7, |r| {
                assert!(r.gate().is_ok(), "{} gate on true references", w.name());
                r.corrupt_reference();
                assert!(
                    r.gate().is_err(),
                    "{} gate missed a corrupt reference",
                    w.name()
                );
            });
        }
    }

    #[test]
    fn seeds_are_reproducible_and_sizes_span_the_range() {
        let a: Vec<u64> = (0..4).map(|_| Mix::new(5, 1).next()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        let mut m = Mix::new(5, 1);
        let p = m.permutation(10);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
        assert_eq!(log_sizes(32, 1024, 6), vec![32, 64, 128, 256, 512, 1024]);
    }
}
