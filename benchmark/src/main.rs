//! The seeded benchmark of the Monge solver stack.
//!
//! ```text
//! benchmark --workload <name|all> [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
//! ```
//!
//! Generates every input from the seed, checks answers against the
//! sequential core before and during timing, prints each metric by name
//! and unit, writes a run document under `target/benchmark/`, and ends
//! its standard output with one JSON result line. See `README.md`.

mod json;
mod metrics;
mod run;
mod stats;
mod sut;
mod trace;
mod workloads;

use std::process::{Command, ExitCode};

use json::Json;
use run::{Config, Report, OUT_DIR};
use workloads::Workload;

const USAGE: &str = "usage: benchmark --workload <serve_mixed|solve_small|solve_large|index_churn|edit_distance|all> \
                     [--seed N] [--seconds S] [--trace [0|1]] [--smoke]";

/// Parsed command line; `workload` is `None` for `all`.
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: 15.0,
        trace: false,
        smoke: false,
    };
    let mut named = false;
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                named = true;
                if name != "all" {
                    out.workload =
                        Some(Workload::parse(name).ok_or(format!("unknown workload '{name}'"))?);
                }
            }
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(out.seconds > 0.0 && out.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                out.trace = it
                    .next_if(|v| *v == "0" || *v == "1")
                    .is_none_or(|v| v == "1");
            }
            "--smoke" => out.smoke = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if !named {
        return Err("--workload is required".to_string());
    }
    Ok(out)
}

fn main() -> ExitCode {
    let tuning_vars: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("MONGE_"))
        .collect();
    if !tuning_vars.is_empty() {
        eprintln!(
            "refusing to run with {} set: they override the tuning and autotune paths being measured",
            tuning_vars.join(", ")
        );
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(workload) => run_one(&Config {
            workload,
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            smoke: args.smoke,
        }),
        None => run_all(&args),
    }
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
fn result_line(report: Option<&Report>) -> Json {
    let (attempted, failed, metrics) = match report {
        Some(r) => (
            r.attempted,
            r.failed,
            r.metrics
                .iter()
                .map(|&(name, value, unit)| {
                    (
                        name,
                        Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
                    )
                })
                .collect(),
        ),
        None => (0, 0, Vec::new()),
    };
    Json::obj([
        ("correct", Json::Bool(report.is_some())),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
}

fn run_one(cfg: &Config) -> ExitCode {
    let report = match run::run(cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{}: wrong answer: {e}", cfg.workload.name());
            println!("{}", result_line(None).render());
            return ExitCode::FAILURE;
        }
    };
    for &(name, value, unit) in &report.metrics {
        let note = if report.unreached.contains(&name) {
            "  (layer not reached)"
        } else {
            ""
        };
        println!("{name:<36} {value:>18.6} {unit}{note}");
    }
    write_doc(cfg, &report);
    println!("{}", result_line(Some(&report)).render());
    ExitCode::SUCCESS
}

/// Writes the run document: the stamps, the result and the run's details.
fn write_doc(cfg: &Config, report: &Report) {
    // Only a repository rooted here counts: a checkout without one must
    // not report the revision of some repository above it.
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(|p| p.to_path_buf()))
        .unwrap_or_default();
    let git = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        });
    let leg = if sut::simd_compiled() {
        "simd"
    } else {
        "default"
    };
    let doc = Json::obj([
        ("host_fingerprint", Json::str(sut::host_fingerprint())),
        ("nproc", Json::Num(sut::nproc() as f64)),
        ("build", Json::str(leg)),
        ("git_rev", Json::str(git)),
        ("result", result_line(Some(report))),
        ("run", report.doc.clone()),
    ]);
    let mode = if cfg.trace { "trace" } else { "e2e" };
    let path = format!(
        "{OUT_DIR}/run-{}-s{}-{mode}.json",
        cfg.workload.name(),
        cfg.seed
    );
    let written =
        std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, doc.render() + "\n"));
    match written {
        Ok(()) => println!("run document: {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

/// Runs every workload in a child process of its own, so memory and
/// allocator state are per workload. Each child prints to this process's
/// output; the run fails if any child does.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in Workload::ALL {
        println!("== {}", w.name());
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if args.smoke {
            cmd.arg("--smoke");
        }
        match cmd.status() {
            Ok(status) => ok &= status.success(),
            Err(e) => {
                eprintln!("{}: could not start: {e}", w.name());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn to_args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn trace_takes_an_optional_flag_value() {
        let a = parse_args(&to_args("--workload solve_small --trace 0 --seed 9")).unwrap();
        assert!(!a.trace);
        assert_eq!(a.seed, 9);
        assert!(
            parse_args(&to_args("--workload all --trace"))
                .unwrap()
                .trace
        );
        assert!(
            parse_args(&to_args("--workload all --trace 1 --smoke"))
                .unwrap()
                .trace
        );
        assert!(parse_args(&to_args("--workload nope")).is_err());
        assert!(parse_args(&to_args("--seed 3")).is_err());
    }

    /// `(name, unit)` of every metric `BENCHMARK.json` lists under `key`.
    /// The file holds one metric per line, so a line scan reads it.
    fn declared(key: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let field = |line: &str, f: &str| -> Option<String> {
            let rest = &line[line.find(&format!("\"{f}\": \""))? + f.len() + 5..];
            Some(rest[..rest.find('"')?].to_string())
        };
        let mut section = "";
        let mut out = Vec::new();
        for line in text.lines() {
            if let Some(k) = line.trim().strip_suffix(": [") {
                section = k.trim_matches('"');
            } else if section == key {
                if let (Some(name), Some(unit)) = (field(line, "name"), field(line, "unit")) {
                    out.push((name, unit));
                }
            }
        }
        assert!(!out.is_empty(), "BENCHMARK.json lists no {key} metric");
        out
    }

    #[test]
    fn smoke_runs_emit_every_declared_metric_with_its_unit() {
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let want = declared(key);
            let mut reached = std::collections::BTreeSet::new();
            for workload in Workload::ALL {
                let cfg = Config {
                    workload,
                    seed: 3,
                    seconds: 1.0,
                    trace,
                    smoke: true,
                };
                let report = run::run(&cfg).expect("smoke run answers correctly");
                let got: Vec<(String, String)> = report
                    .metrics
                    .iter()
                    .map(|&(name, _, unit)| (name.to_string(), unit.to_string()))
                    .collect();
                assert_eq!(
                    got,
                    want,
                    "{}: every declared metric, in order",
                    workload.name()
                );
                for &(name, value, _) in &report.metrics {
                    assert!(value.is_finite(), "{}: {name} = {value}", workload.name());
                    if !report.unreached.contains(&name) {
                        reached.insert(name);
                    }
                }
                assert!(report.attempted > 0);
            }
            let missed: Vec<&String> = want
                .iter()
                .map(|(name, _)| name)
                .filter(|name| !reached.contains(name.as_str()))
                .collect();
            assert!(missed.is_empty(), "no workload reaches {missed:?}");
        }
    }
}
