//! The metric catalog and the per-layer metrics derived from spans.

use crate::sut::Kind;
use crate::trace::Tracer;

/// End-to-end metrics, reported by every untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("ops_per_s", "1/s"),
    ("p50_us", "us"),
    ("tail_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every traced run: `(name, unit)`.
pub const LAYERS: [(&str, &str); 40] = [
    ("batch.service_self_us", "us"),
    ("batch.wall_us", "us"),
    ("batch.engine_sum_us", "us"),
    ("batch.parallel_eff", "ratio"),
    ("batch.groups_per_drain", "count"),
    ("batch.shed_groups", "count"),
    ("autotune.lookup_us", "us"),
    ("autotune.cached_frac", "ratio"),
    ("autotune.measurements_in_window", "count"),
    ("autotune.measurements_setup", "count"),
    ("tuning.from_env_ns", "ns"),
    ("guarded.self_us", "us"),
    ("guarded.retries", "count"),
    ("guarded.breaker_skips", "count"),
    ("guarded.degraded_frac", "ratio"),
    ("dispatch.self_us", "us"),
    ("dispatch.rayon_frac", "ratio"),
    ("engine.dense_rows_ms", "ms"),
    ("engine.implicit_rows_ms", "ms"),
    ("engine.staircase_ms", "ms"),
    ("engine.tube_ms", "ms"),
    ("engine.seq_speedup.dense_rows", "ratio"),
    ("engine.seq_speedup.implicit_rows", "ratio"),
    ("engine.seq_speedup.staircase", "ratio"),
    ("engine.seq_speedup.tube", "ratio"),
    ("engine.evaluations_per_op", "count"),
    ("engine.comparisons_per_op", "count"),
    ("runtime.join_us", "us"),
    ("runtime.tasks_per_op", "count"),
    ("kernel.argmin_ns_per_entry", "ns"),
    ("kernel.fill_row_ns_per_entry", "ns"),
    ("scratch.checkouts_per_op", "count"),
    ("queryindex.build_ms", "ms"),
    ("queryindex.index_mb", "MB"),
    ("queryindex.breakpoints", "count"),
    ("queryindex.probes_per_query", "count"),
    ("string_edit.strip_dist_ms", "ms"),
    ("string_edit.combine_ms", "ms"),
    ("string_edit.parallel_eff", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Engine buckets: the kind whose spans feed them, and their metrics.
const ENGINES: [(Kind, &str, &str); 4] = [
    (
        Kind::RowMin,
        "engine.dense_rows_ms",
        "engine.seq_speedup.dense_rows",
    ),
    (
        Kind::ImplicitRowMin,
        "engine.implicit_rows_ms",
        "engine.seq_speedup.implicit_rows",
    ),
    (
        Kind::Staircase,
        "engine.staircase_ms",
        "engine.seq_speedup.staircase",
    ),
    (Kind::Tube, "engine.tube_ms", "engine.seq_speedup.tube"),
];

/// The per-layer metrics the spans in `tr` determine; a metric whose
/// spans were never recorded is absent.
pub fn from_spans(tr: &Tracer, nproc: f64) -> Vec<(&'static str, f64)> {
    let us = |ns: f64| ns / 1e3;
    let ms = |ns: f64| ns / 1e6;
    let both = |a: Option<f64>, b: Option<f64>| a.zip(b);
    let mut out: Vec<(&'static str, Option<f64>)> = Vec::new();

    let wall = tr.median_dur("batch.solve_batch_report");
    let engine_sum = tr.median_child_sum("batch.solve_batch_report", "dispatch.solve_on");
    out.push((
        "batch.service_self_us",
        tr.median_self("service.drain").map(us),
    ));
    out.push(("batch.wall_us", wall.map(us)));
    out.push(("batch.engine_sum_us", engine_sum.map(us)));
    out.push((
        "batch.parallel_eff",
        both(engine_sum, wall).map(|(e, w)| e / (w * nproc)),
    ));
    out.push((
        "autotune.lookup_us",
        tr.median_dur("autotune.lookup").map(us),
    ));
    out.push((
        "guarded.self_us",
        tr.median_self("guarded.solve_guarded").map(us),
    ));
    out.push((
        "dispatch.self_us",
        tr.median_self("dispatch.solve_on").map(us),
    ));
    for (kind, time, speedup) in ENGINES {
        let (backend, core) = kind.spans();
        let (b, c) = (tr.median_dur(backend), tr.median_dur(core));
        out.push((time, b.map(ms)));
        out.push((speedup, both(c, b).map(|(c, b)| c / b)));
    }
    out.push((
        "queryindex.build_ms",
        tr.median_dur("service.build_index").map(ms),
    ));
    let strips = tr.median_child_sum("string_edit.dist_tree", "string_edit.strip_dist");
    let combines = tr.median_child_sum("string_edit.dist_tree", "string_edit.combine");
    let op = tr.median_dur("string_edit.dist_tree");
    out.push(("string_edit.strip_dist_ms", strips.map(ms)));
    out.push(("string_edit.combine_ms", combines.map(ms)));
    out.push((
        "string_edit.parallel_eff",
        both(strips.zip(combines).map(|(s, c)| s + c), op).map(|(work, op)| work / (op * nproc)),
    ));
    out.into_iter()
        .filter_map(|(name, v)| v.map(|v| (name, v)))
        .collect()
}
