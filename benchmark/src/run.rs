//! One benchmark run: repeated set-up, warm-up, the measured window of a
//! closed loop with one client, and (traced) the per-layer breakdown.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;
use crate::metrics::{self, END_TO_END, LAYERS};
use crate::stats::{self, Tail};
use crate::sut;
use crate::trace::Tracer;
use crate::workloads::{elapsed_ns, Outcome, Runner, Scale, Workload};

/// Peel an op after every this many ops.
const PEEL_EVERY: u64 = 8;
/// Peel an index rebuild after every this many rebuilds.
const PEEL_MAINTENANCE_EVERY: u64 = 4;
/// Peels per traced run at most, which bounds the span store.
const MAX_PEELS: u64 = 4096;
/// Runs of consecutive ops a window is cut into for its end-to-end
/// statistics.
const SLICES: usize = 20;

/// What to run.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// Seed of every input.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Report per-layer metrics from a traced window instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// Small inputs and a 0.5 s window.
    pub smoke: bool,
}

impl Config {
    fn scale(&self) -> Scale {
        if self.smoke {
            Scale::Smoke
        } else {
            Scale::Full
        }
    }

    /// Seconds of the measured window.
    pub fn window(&self) -> f64 {
        if self.smoke {
            0.5
        } else {
            self.seconds
        }
    }

    /// Seconds of unmeasured ops before the window.
    pub fn warmup(&self) -> f64 {
        if self.smoke {
            0.1
        } else {
            (self.seconds / 5.0).min(2.0)
        }
    }

    /// Whether to set up once more before the last, kept set-up, given
    /// the seconds the earlier ones took. `setup_s` is the median of all.
    /// A full run sets up at least 5 times, and up to 50 times while the
    /// set-ups have taken under a second, so that a set-up of a few
    /// milliseconds is timed often enough for a steady median.
    fn more_setups(&self, done: &[f64]) -> bool {
        let total = done.len() + 1;
        if self.smoke {
            total < 2
        } else {
            total < 5 || (total < 50 && done.iter().sum::<f64>() < 1.0)
        }
    }
}

/// A reported metric: `(name, value, unit)`.
pub type Metric = (&'static str, f64, &'static str);

/// A finished run: the result line's fields and the run document.
pub struct Report {
    /// Ops attempted in the measured window(s).
    pub attempted: u64,
    /// Of those, ops that ended in a typed error or a refusal.
    pub failed: u64,
    /// In catalog order.
    pub metrics: Vec<Metric>,
    /// Per-layer metrics of layers the workload's ops never reach; they
    /// read 0.
    pub unreached: Vec<&'static str>,
    /// Everything else the run knows, for the run document.
    pub doc: Json,
}

/// Ops driven through one stretch of the loop.
#[derive(Default)]
struct Window {
    /// Latencies of the ops that succeeded, in order, in ns.
    lat: Vec<f64>,
    ops: u64,
    failed: u64,
    /// Summed op and maintenance time, in ns.
    busy_ns: u64,
    /// Wall time of the stretch, in ns.
    wall_ns: u64,
    /// Wall time spent peeling, in ns.
    peel_ns: u64,
    /// Maintenance (index rebuild) calls: the index into `lat` of the op
    /// that followed, and the duration in ns.
    maintenance: Vec<(usize, f64)>,
}

/// Runs ops `*next..` for `seconds`. With a tracer, records the peeled
/// ops and their peels; a wrong answer ends the run.
fn drive(
    r: &mut dyn Runner,
    next: &mut u64,
    seconds: f64,
    mut tr: Option<&mut Tracer>,
) -> Result<Window, String> {
    let mut w = Window::default();
    let (mut peels, mut rebuilds) = (0u64, 0u64);
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < seconds {
        let i = *next;
        *next += 1;
        let step = r.step(i);
        if let Some(m) = &step.maintenance {
            w.busy_ns += m.nanos;
            w.maintenance.push((w.lat.len(), m.nanos as f64));
            if let Some(tr) = tr.as_mut() {
                let span = tr.record(m.name, i, None, m.start, m.nanos);
                if rebuilds.is_multiple_of(PEEL_MAINTENANCE_EVERY) {
                    let tp = Instant::now();
                    r.peel_maintenance(tr, span)?;
                    w.peel_ns += elapsed_ns(tp);
                }
                rebuilds += 1;
            }
        }
        w.ops += 1;
        w.busy_ns += step.nanos;
        match step.outcome {
            Outcome::Ok => w.lat.push(step.nanos as f64),
            Outcome::Failed(_) => w.failed += 1,
            Outcome::Wrong(e) => return Err(e),
        }
        if let Some(tr) = tr.as_mut() {
            if (i + 1).is_multiple_of(PEEL_EVERY) && peels < MAX_PEELS {
                let tp = Instant::now();
                let span = tr.record(r.op_span(), i, None, step.start, step.nanos);
                r.peel(i, tr, span)?;
                w.peel_ns += elapsed_ns(tp);
                peels += 1;
            }
        }
    }
    w.wall_ns = elapsed_ns(t0);
    Ok(w)
}

/// Runs the configured workload. `Err` means an answer was wrong.
pub fn run(cfg: &Config) -> Result<Report, String> {
    let mut setup_s = Vec::new();
    // Every set-up but the last is thrown away once timed.
    while cfg.more_setups(&setup_s) {
        let t0 = Instant::now();
        cfg.workload
            .with_runner(cfg.scale(), cfg.seed, |r| r.gate())?;
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let t0 = Instant::now();
    cfg.workload.with_runner(cfg.scale(), cfg.seed, |r| {
        r.gate()?;
        setup_s.push(t0.elapsed().as_secs_f64());
        measure(cfg, r, setup_s)
    })
}

fn measure(cfg: &Config, r: &mut dyn Runner, setup_s: Vec<f64>) -> Result<Report, String> {
    let mut next = 0u64;
    drive(r, &mut next, cfg.warmup(), None)?;
    let measurements_before = r.measurements();
    let mut doc = vec![
        ("workload", Json::str(cfg.workload.name())),
        ("seed", Json::Num(cfg.seed as f64)),
        ("loop", Json::str("closed")),
        ("clients", Json::Num(1.0)),
        ("warmup_s", Json::Num(cfg.warmup())),
        ("window_s", Json::Num(cfg.window())),
        ("smoke", Json::Bool(cfg.smoke)),
        ("trace", Json::Bool(cfg.trace)),
        (
            "setup_runs_s",
            Json::Arr(setup_s.iter().map(|&s| Json::Num(s)).collect()),
        ),
    ];
    let mut unreached = Vec::new();
    let (attempted, failed, metrics) = if cfg.trace {
        let base = drive(r, &mut next, cfg.window() / 2.0, None)?;
        let mut tr = Tracer::new();
        let traced = drive(r, &mut next, cfg.window() / 2.0, Some(&mut tr))?;
        let base_rate = base.ops as f64 / base.wall_ns as f64;
        let traced_rate = traced.ops as f64 / (traced.wall_ns - traced.peel_ns).max(1) as f64;
        let measured = r.measurements() - measurements_before;
        let reached = layers(cfg.seed, r, &tr, 1.0 - traced_rate / base_rate, measured);
        write_trace(cfg, &tr);
        unreached = LAYERS
            .iter()
            .map(|&(name, _)| name)
            .filter(|name| !reached.contains_key(name))
            .collect();
        let names = |v: Vec<&str>| Json::Arr(v.into_iter().map(Json::str).collect());
        doc.push(("unreached_layers", names(unreached.clone())));
        // Self times and the tracing overhead are differences of two
        // timings; a negative one is noise, flagged here and left out of
        // the baseline.
        let negative = reached.iter().filter(|(_, &v)| v < 0.0).map(|(&n, _)| n);
        doc.push(("negative_values", names(negative.collect())));
        let metrics = LAYERS
            .iter()
            .map(|&(name, unit)| (name, reached.get(name).copied().unwrap_or(0.0), unit))
            .collect();
        (base.ops + traced.ops, base.failed + traced.failed, metrics)
    } else {
        let w = drive(r, &mut next, cfg.window(), None)?;
        let mut lat = w.lat.clone();
        lat.sort_by(f64::total_cmp);
        let tail = stats::tail(&lat, cfg.workload.tail_pct());
        let sl = slices(&w);
        let values = [
            stats::percentile(&sl.throughputs, 90.0),
            stats::percentile(&sl.medians, 10.0) / 1e3,
            tail.value / 1e3,
            stats::median(&setup_s),
            peak_rss_mb()?,
        ];
        doc.extend(window_doc(tail, &w, &lat));
        let list =
            |v: &[f64], scale: f64| Json::Arr(v.iter().map(|x| Json::Num(x / scale)).collect());
        doc.push(("slice_ops_per_s", list(&sl.throughputs, 1.0)));
        doc.push(("slice_p50_us", list(&sl.medians, 1e3)));
        doc.push((
            "autotune_measurements_in_window",
            Json::Num((r.measurements() - measurements_before) as f64),
        ));
        let metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect();
        (w.ops, w.failed, metrics)
    };
    doc.push((
        "failed_frac",
        Json::Num(failed as f64 / attempted.max(1) as f64),
    ));
    doc.push((
        "autotune_winners",
        Json::Arr(r.winners().into_iter().map(Json::Str).collect()),
    ));
    Ok(Report {
        attempted,
        failed,
        metrics,
        unreached,
        doc: Json::obj(doc),
    })
}

/// Per-slice statistics of a window, each ascending.
struct Slices {
    /// Ops per second of op and maintenance time.
    throughputs: Vec<f64>,
    /// Median latency, ns.
    medians: Vec<f64>,
}

/// Cuts the window's ops, in order, into at most [`SLICES`] runs of whole
/// units, as equal as units allow. A unit is one op or, in a window with
/// maintenance, one maintenance cycle: a rebuild and the ops up to the
/// next one. The ops before the first rebuild and from the last one on
/// belong to no slice, so every slice holds whole cycles and its
/// throughput does not depend on where the window cut the rebuild cycle.
fn slice_bounds(w: &Window) -> Vec<(usize, usize)> {
    let cuts: Vec<usize> = if w.maintenance.len() >= 2 {
        w.maintenance.iter().map(|&(at, _)| at).collect()
    } else {
        (0..=w.lat.len()).collect()
    };
    let units = cuts.len() - 1;
    let k = SLICES.min(units);
    (0..k)
        .map(|s| (cuts[s * units / k], cuts[(s + 1) * units / k]))
        .collect()
}

/// Per-slice statistics of a window (see [`slice_bounds`]).
///
/// The host's contention arrives in bursts of seconds that slow every op
/// alike, so throughput and median read the calmer slices: the 90th
/// percentile of slice throughput and the 10th percentile of slice
/// medians. The tail is read from the whole window, bursts included.
fn slices(w: &Window) -> Slices {
    let mut out = Slices {
        throughputs: Vec::new(),
        medians: Vec::new(),
    };
    for (a, b) in slice_bounds(w) {
        let maintenance: f64 = w
            .maintenance
            .iter()
            .filter(|(at, _)| (a..b).contains(at))
            .map(|(_, ns)| ns)
            .sum();
        let busy: f64 = w.lat[a..b].iter().sum::<f64>() + maintenance;
        out.throughputs.push((b - a) as f64 / busy * 1e9);
        let mut lat = w.lat[a..b].to_vec();
        lat.sort_by(f64::total_cmp);
        out.medians.push(stats::percentile(&lat, 50.0));
    }
    for v in [&mut out.throughputs, &mut out.medians] {
        v.sort_by(f64::total_cmp);
    }
    out
}

/// Whole-window statistics for the run document; `sorted` is the
/// window's latencies, ascending.
fn window_doc(tail: Tail, w: &Window, sorted: &[f64]) -> Vec<(&'static str, Json)> {
    let pcts = [50.0, 75.0, 90.0, 95.0, 98.0, 99.0].map(|p| {
        (
            format!("p{p}_us"),
            Json::Num(stats::percentile(sorted, p) / 1e3),
        )
    });
    let mut out = vec![
        ("samples", Json::Num(w.lat.len() as f64)),
        (
            "window_ops_per_s",
            Json::Num(w.ops as f64 / (w.busy_ns as f64 / 1e9)),
        ),
        ("latency_percentiles", Json::obj(pcts)),
        ("tail_pct", Json::Num(tail.pct)),
        ("tail_beyond", Json::Num(tail.beyond as f64)),
        ("tail_resolved", Json::Bool(tail.resolved())),
    ];
    if !w.maintenance.is_empty() {
        let builds: Vec<f64> = w.maintenance.iter().map(|&(_, ns)| ns).collect();
        out.push((
            "index_build_p50_ms",
            Json::Num(stats::median(&builds) / 1e6),
        ));
    }
    out
}

/// The per-layer metrics this workload's own run determines: its trace,
/// its counts and the layer microbenchmarks. A metric of a layer the
/// workload's ops never reach is absent.
fn layers(
    seed: u64,
    r: &dyn Runner,
    tr: &Tracer,
    overhead: f64,
    measured_in_window: u64,
) -> BTreeMap<&'static str, f64> {
    let mut out = microbenchmarks(seed);
    out.extend(metrics::from_spans(tr, sut::nproc() as f64));
    out.extend(r.tallies());
    out.extend(r.counts());
    out.insert("autotune.measurements_in_window", measured_in_window as f64);
    out.insert("trace.overhead_frac", overhead);
    out
}

/// Layer microbenchmarks, each the median of five timings.
fn microbenchmarks(seed: u64) -> BTreeMap<&'static str, f64> {
    let med = |f: &dyn Fn() -> f64| stats::median(&(0..5).map(|_| f()).collect::<Vec<_>>());
    BTreeMap::from([
        (
            "tuning.from_env_ns",
            med(&|| sut::tuning_from_env_ns(10_000)),
        ),
        (
            "kernel.argmin_ns_per_entry",
            med(&|| sut::argmin_ns_per_entry(4096, 500, seed)),
        ),
        (
            "kernel.fill_row_ns_per_entry",
            med(&|| sut::fill_row_ns_per_entry(16384, 32, seed)),
        ),
        ("runtime.join_us", med(&|| sut::join_us(500))),
    ])
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib * 1024.0 / 1e6)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Where run documents and traces go, relative to the working directory.
pub const OUT_DIR: &str = "target/benchmark";

fn write_trace(cfg: &Config, tr: &Tracer) {
    let path = format!("{OUT_DIR}/trace-{}.jsonl", cfg.workload.name());
    if let Err(e) =
        std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, tr.to_jsonl()))
    {
        eprintln!("could not write {path}: {e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `ops` identical 1 µs ops with a 100 µs rebuild before every 100th
    /// op, the first before op `phase`.
    fn churn(phase: usize, ops: usize) -> Window {
        Window {
            lat: vec![1e3; ops],
            maintenance: (phase..ops).step_by(100).map(|at| (at, 1e5)).collect(),
            ..Window::default()
        }
    }

    #[test]
    fn slice_throughput_ignores_the_rebuild_phase() {
        // Each cycle is 100 ops in 100 µs of ops plus 100 µs of rebuild.
        let want = 100.0 / 200e3 * 1e9;
        for phase in [0, 1, 37, 99] {
            for ops in [2999, 3050, 4321] {
                let sl = slices(&churn(phase, ops));
                assert_eq!(sl.throughputs.len(), SLICES);
                for t in sl.throughputs {
                    assert!(
                        (t - want).abs() < 1e-9 * want,
                        "phase {phase}, {ops} ops: {t} ops/s, want {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn slices_without_maintenance_split_ops_evenly() {
        let w = Window {
            lat: (0..1000).map(f64::from).collect(),
            ..Window::default()
        };
        let bounds = slice_bounds(&w);
        assert_eq!(bounds.len(), SLICES);
        assert_eq!(bounds.first(), Some(&(0, 50)));
        assert_eq!(bounds.last(), Some(&(950, 1000)));
        assert!(bounds.windows(2).all(|p| p[0].1 == p[1].0));
    }
}
