//! `index_churn`: rectangle queries (alternating minimum and maximum) on
//! an index built through `SolverService::build_index`. Every 8192
//! queries the index is dropped and rebuilt over the next of four seeded
//! Monge arrays, so index writes sit beside reads: a change that speeds
//! builds but slows queries shows on both.

use std::time::Instant;

use super::{elapsed_ns, timed_span, Maintenance, Mix, Outcome, Runner, Scale, Step};
use crate::sut::{core_build_index, Index, IndexArray, IndexService, Rect, RectAnswer};
use crate::trace::Tracer;

const NAME: &str = "churn";

/// The arrays, their query rectangles and reference answers.
pub struct IndexRunner {
    arrays: Vec<IndexArray>,
    rects: Vec<Vec<Rect>>,
    /// Per array, the answer to each rectangle; query `q` is a maximum
    /// query when `q` is odd.
    refs: Vec<Vec<RectAnswer>>,
    /// Rectangles per array checked by a brute scan in the gate.
    brute_checks: usize,
    service: IndexService,
    current: Option<Index>,
    current_array: usize,
    counts: Vec<(&'static str, f64)>,
}

impl IndexRunner {
    /// Four `n × n` arrays (n = 2048 at full scale) with 8192 seeded
    /// rectangles each.
    pub fn new(scale: Scale, seed: u64) -> IndexRunner {
        let (n, queries, brute_checks) = match scale {
            Scale::Full => (2048, 8192, 64),
            Scale::Smoke => (96, 8, 8),
        };
        let mut mix = Mix::new(seed, 4);
        let arrays: Vec<IndexArray> = (0..4)
            .map(|_| IndexArray::generate(n, mix.next()))
            .collect();
        let span = |mix: &mut Mix| {
            let lo = mix.below(n);
            (lo, lo + 1 + mix.below(n - lo))
        };
        let rects = (0..arrays.len())
            .map(|_| {
                (0..queries)
                    .map(|_| Rect {
                        rows: span(&mut mix),
                        cols: span(&mut mix),
                    })
                    .collect()
            })
            .collect();
        IndexRunner {
            arrays,
            rects,
            refs: Vec::new(),
            brute_checks,
            service: IndexService::new(),
            current: None,
            current_array: 0,
            counts: Vec::new(),
        }
    }

    fn queries(&self) -> u64 {
        self.rects[0].len() as u64
    }

    /// Drops the live index and builds one over array `a`.
    fn rebuild(&mut self, a: usize) -> Result<(), String> {
        self.service.drop_index(NAME);
        // Release the old index first, so only one is ever resident.
        self.current = None;
        self.current = Some(self.service.build(NAME, &self.arrays[a])?);
        self.current_array = a;
        Ok(())
    }
}

impl Runner for IndexRunner {
    fn gate(&mut self) -> Result<(), String> {
        let (mut bytes, mut breakpoints, mut queries, mut probes) = (0u64, 0u64, 0u64, 0u64);
        let mut answers = Vec::new();
        // Array 0 is built last, so its index is live when timing starts.
        for a in (1..self.arrays.len()).chain([0]) {
            self.rebuild(a)?;
            let ix = self.current.as_ref().expect("just built");
            let got = self.rects[a]
                .iter()
                .enumerate()
                .map(|(q, &r)| ix.query(r, q % 2 == 1))
                .collect::<Result<Vec<RectAnswer>, String>>()
                .map_err(|e| format!("gate: {e}"))?;
            let stride = (got.len() / self.brute_checks).max(1);
            for q in (0..got.len()).step_by(stride) {
                if self.arrays[a].brute(self.rects[a][q], q % 2 == 1) != got[q] {
                    return Err(format!(
                        "gate: array {a} rectangle {q} differs from a brute scan"
                    ));
                }
            }
            if let Some(want) = self.refs.get(a) {
                if *want != got {
                    return Err(format!("gate: array {a} answers differ from the reference"));
                }
            }
            bytes += ix.bytes();
            breakpoints += ix.breakpoints();
            let (q, p) = ix.usage();
            queries += q;
            probes += p;
            answers.push((a, got));
        }
        if self.refs.is_empty() {
            answers.sort_by_key(|(a, _)| *a);
            self.refs = answers.into_iter().map(|(_, got)| got).collect();
        }
        let indexes = self.arrays.len() as f64;
        self.counts = vec![
            ("queryindex.index_mb", bytes as f64 / indexes / 1e6),
            ("queryindex.breakpoints", breakpoints as f64 / indexes),
            (
                "queryindex.probes_per_query",
                probes as f64 / queries.max(1) as f64,
            ),
        ];
        Ok(())
    }

    fn step(&mut self, i: u64) -> Step {
        let q = (i % self.queries()) as usize;
        let a = ((i / self.queries()) % self.arrays.len() as u64) as usize;
        let mut maintenance = None;
        let mut failed = None;
        if a != self.current_array || self.current.is_none() {
            let start = Instant::now();
            let built = self.rebuild(a);
            maintenance = Some(Maintenance {
                name: "service.build_index",
                start,
                nanos: elapsed_ns(start),
            });
            failed = built.err();
        }
        let rect = self.rects[a][q];
        let start = Instant::now();
        let got = self.current.as_ref().map(|ix| ix.query(rect, q % 2 == 1));
        let nanos = elapsed_ns(start);
        let outcome = match (failed, got) {
            (Some(e), _) => Outcome::Failed(e),
            (None, None) => Outcome::Failed("no index is live".to_string()),
            (None, Some(Err(e))) => Outcome::Failed(e),
            (None, Some(Ok(ans))) if ans != self.refs[a][q] => {
                Outcome::Wrong(format!("array {a} rectangle {q} answered wrongly"))
            }
            (None, Some(Ok(_))) => Outcome::Ok,
        };
        Step {
            start,
            nanos,
            outcome,
            maintenance,
        }
    }

    fn op_span(&self) -> &'static str {
        "index.query"
    }

    /// A query is the bottom layer: there is nothing below it to peel.
    fn peel(&mut self, _i: u64, _tr: &mut Tracer, _op: usize) -> Result<(), String> {
        Ok(())
    }

    fn peel_maintenance(&mut self, tr: &mut Tracer, span: usize) -> Result<(), String> {
        let a = self.current_array;
        let (built, _) = timed_span(tr, "queryindex.build", a as u64, span, || {
            core_build_index(&self.arrays[a])
        });
        let ix = built.map_err(|e| format!("peel: {e}"))?;
        let rect = self.rects[a][0];
        if ix.query(rect, false)? != self.refs[a][0] {
            return Err(format!(
                "peel: the core-built index of array {a} answers wrongly"
            ));
        }
        Ok(())
    }

    fn counts(&self) -> Vec<(&'static str, f64)> {
        self.counts.clone()
    }

    fn measurements(&self) -> u64 {
        self.service.measurements()
    }

    fn winners(&self) -> Vec<String> {
        Vec::new()
    }

    #[cfg(test)]
    fn corrupt_reference(&mut self) {
        for r in &mut self.refs {
            r[0].value += 1;
        }
    }
}
