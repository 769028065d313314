//! In-memory spans of a traced run, written out as newline JSON at exit.
//!
//! The benchmark records spans around its own calls into each layer. A
//! *peel* re-runs an op's inputs one layer lower at a time, so a peeled
//! span's children are re-executions of the layer below on the same
//! inputs: a layer's self time is its span's duration minus the
//! durations of its children. Being a difference of two timed calls, one
//! peel's self time can come out negative; the metrics take the median
//! over peels, and a median that is still negative is flagged, not
//! clamped.

use std::time::Instant;

use crate::stats;

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call, e.g. `batch.solve_batch_report`.
    pub name: &'static str,
    /// The op whose inputs the call ran on.
    pub op: u64,
    /// Index of the parent span.
    pub parent: Option<usize>,
    /// Nanoseconds from the tracer's origin.
    pub start: u64,
    /// Duration in nanoseconds.
    pub dur: u64,
}

/// The span store of one run.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty store whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Records a span that started at `start` and lasted `dur` ns.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start: Instant,
        dur: u64,
    ) -> usize {
        let start = start.saturating_duration_since(self.origin).as_nanos();
        self.spans.push(Span {
            name,
            op,
            parent,
            start: u64::try_from(start).unwrap_or(u64::MAX),
            dur,
        });
        self.spans.len() - 1
    }

    /// Records a `dur`-ns child of `parent` that starts with it: a layer's
    /// time as the layer above measured it around its own call.
    pub fn record_in(&mut self, name: &'static str, parent: usize, dur: u64) -> usize {
        let p = &self.spans[parent];
        let span = Span {
            name,
            op: p.op,
            parent: Some(parent),
            start: p.start,
            dur,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Median duration, in ns, of spans named `name`.
    pub fn median_dur(&self, name: &str) -> Option<f64> {
        median(
            self.spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.dur as f64),
        )
    }

    /// Median self time, in ns, of the *peeled* spans named `name` (those
    /// with children).
    pub fn median_self(&self, name: &str) -> Option<f64> {
        self.over_peeled(name, |s, kids| {
            s.dur as f64 - kids.iter().map(|c| c.dur as f64).sum::<f64>()
        })
    }

    /// Median, over peeled spans named `parent`, of the summed durations
    /// of their children named `child`.
    pub fn median_child_sum(&self, parent: &str, child: &str) -> Option<f64> {
        self.over_peeled(parent, |_, kids| {
            kids.iter()
                .filter(|c| c.name == child)
                .map(|c| c.dur as f64)
                .sum()
        })
    }

    /// Median of `f(span, children)` over the spans named `name` that
    /// have children.
    fn over_peeled(&self, name: &str, f: impl Fn(&Span, &[&Span]) -> f64) -> Option<f64> {
        let mut kids: Vec<Vec<&Span>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                kids[p].push(s);
            }
        }
        median(
            self.spans
                .iter()
                .zip(&kids)
                .filter(|(s, k)| s.name == name && !k.is_empty())
                .map(|(s, k)| f(s, k)),
        )
    }

    /// The spans as newline JSON, one object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\": {id}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}\n",
                s.name,
                s.op,
                s.start,
                s.start + s.dur
            ));
        }
        out
    }
}

fn median(values: impl Iterator<Item = f64>) -> Option<f64> {
    let values: Vec<f64> = values.collect();
    (!values.is_empty()).then(|| stats::median(&values))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_peeled_children() {
        let mut tr = Tracer::new();
        let t = Instant::now();
        let op = tr.record("op", 0, None, t, 100);
        let b = tr.record("batch", 0, Some(op), t, 70);
        tr.record("dispatch", 0, Some(b), t, 30);
        tr.record("dispatch", 0, Some(b), t, 20);
        tr.record("op", 1, None, t, 999);
        assert_eq!(tr.median_self("op"), Some(30.0), "unpeeled ops are skipped");
        assert_eq!(tr.median_self("batch"), Some(20.0));
        assert_eq!(tr.median_child_sum("batch", "dispatch"), Some(50.0));
        assert_eq!(tr.median_dur("dispatch"), Some(25.0));
        assert_eq!(tr.median_dur("missing"), None);
        assert_eq!(tr.to_jsonl().lines().count(), 5);
    }

    #[test]
    fn self_time_is_a_median_over_peels() {
        let mut tr = Tracer::new();
        let t = Instant::now();
        // Three peels of one layer: self times 10, 12 and -50 ns. The
        // outlier moves a mean below zero but not the median.
        for (op, (dur, child)) in [(100, 90), (100, 88), (100, 150)].into_iter().enumerate() {
            let s = tr.record("guarded", op as u64, None, t, dur);
            tr.record("dispatch", op as u64, Some(s), t, child);
        }
        assert_eq!(tr.median_self("guarded"), Some(10.0));
    }
}
