//! `solve_small` and `solve_large`: one-at-a-time guarded solves.
//!
//! `solve_small` solves one row-minima array of side 32, 64 or 128 per
//! op, so the fixed per-call cost of the guarded, dispatch and runtime
//! layers dominates; at 128 rows the solve crosses the sequential grain
//! and forks. `solve_large` solves four large problems per op (dense and
//! implicit row minima, staircase, tube), where engine, SMAWK and kernel
//! time dominate and dispatch overhead is noise.

use std::time::Instant;

use super::{elapsed_ns, timed_span, Mix, Outcome, Runner, Scale, Step};
use crate::sut::{Answer, Counts, Instance, Kind, Solved, Solver};
use crate::trace::Tracer;

/// A guarded solver over a fixed set of instances.
pub struct SolveRunner {
    solver: Solver,
    insts: Vec<Instance>,
    refs: Vec<Answer>,
    /// Instance indices each op solves, in order.
    ops: Vec<Vec<usize>>,
    /// Span of the op: the guarded call itself, or a cycle of them.
    op_span: &'static str,
    /// Backend each instance's guarded solve chose.
    backends: Vec<&'static str>,
    counts: Vec<(&'static str, f64)>,
    /// `(ops, degraded ops, retries, breaker skips)` over every step.
    tally: [u64; 4],
}

impl SolveRunner {
    /// 48 row-minima arrays, 16 each of side 32, 64 and 128, solved one
    /// per op in a seeded order.
    pub fn small(scale: Scale, seed: u64) -> SolveRunner {
        let per_size = match scale {
            Scale::Full => 16,
            Scale::Smoke => 2,
        };
        let mut mix = Mix::new(seed, 2);
        let insts: Vec<Instance> = [32, 64, 128]
            .into_iter()
            .flat_map(|n| (0..per_size).map(move |_| n))
            .map(|n| Instance::generate(Kind::RowMin, n, mix.next()))
            .collect();
        let ops = mix
            .permutation(insts.len())
            .into_iter()
            .map(|k| vec![k])
            .collect();
        SolveRunner::new(insts, ops, "guarded.solve_guarded")
    }

    /// Dense row minima at n = 4096 (128 MiB, past L2), implicit row
    /// minima at n = 16384 (generator-bound), staircase minima at
    /// n = 2048 and tube minima at 256³, all solved in every op.
    pub fn large(scale: Scale, seed: u64) -> SolveRunner {
        let sizes = match scale {
            Scale::Full => [4096, 16384, 2048, 256],
            Scale::Smoke => [256, 1024, 256, 32],
        };
        let kinds = [
            Kind::RowMin,
            Kind::ImplicitRowMin,
            Kind::Staircase,
            Kind::Tube,
        ];
        let mut mix = Mix::new(seed, 3);
        let insts = kinds
            .into_iter()
            .zip(sizes)
            .map(|(kind, n)| Instance::generate(kind, n, mix.next()))
            .collect();
        SolveRunner::new(insts, vec![vec![0, 1, 2, 3]], "op.cycle")
    }

    fn new(insts: Vec<Instance>, ops: Vec<Vec<usize>>, op_span: &'static str) -> SolveRunner {
        SolveRunner {
            solver: Solver::new(),
            refs: insts.iter().map(Instance::core_solve).collect(),
            backends: vec![""; insts.len()],
            insts,
            ops,
            op_span,
            counts: Vec::new(),
            tally: [0; 4],
        }
    }

    fn op_members(&self, i: u64) -> Vec<usize> {
        self.ops[(i % self.ops.len() as u64) as usize].clone()
    }

    fn judge(&mut self, k: usize, r: &Result<(Solved, Counts), String>) -> Outcome {
        match r {
            Err(e) => Outcome::Failed(e.clone()),
            Ok((s, _)) if !s.matches(&self.refs[k]) => {
                Outcome::Wrong(format!("instance {k} answered wrongly"))
            }
            Ok((_, c)) => {
                self.backends[k] = c.backend;
                Outcome::Ok
            }
        }
    }
}

impl Runner for SolveRunner {
    fn gate(&mut self) -> Result<(), String> {
        let mut totals = [0.0f64; 5];
        for k in 0..self.insts.len() {
            let r = self.solver.solve_guarded(&self.insts[k]);
            self.judge(k, &r).gate()?;
            if let Ok((_, c)) = r {
                let per = [c.evaluations, c.comparisons, c.tasks, c.checkouts];
                for (t, v) in totals.iter_mut().zip(per) {
                    *t += v as f64;
                }
                totals[4] += f64::from(u8::from(c.backend == "rayon"));
            }
        }
        // Every op solves the same number of instances.
        let per_op = self.ops[0].len() as f64 / self.insts.len() as f64;
        self.counts = vec![
            ("engine.evaluations_per_op", totals[0] * per_op),
            ("engine.comparisons_per_op", totals[1] * per_op),
            ("runtime.tasks_per_op", totals[2] * per_op),
            ("scratch.checkouts_per_op", totals[3] * per_op),
            ("dispatch.rayon_frac", totals[4] / self.insts.len() as f64),
            (
                "autotune.measurements_setup",
                self.solver.measurements() as f64,
            ),
        ];
        Ok(())
    }

    fn step(&mut self, i: u64) -> Step {
        let members = self.op_members(i);
        let start = Instant::now();
        let results: Vec<_> = members
            .iter()
            .map(|&k| self.solver.solve_guarded(&self.insts[k]))
            .collect();
        let nanos = elapsed_ns(start);
        let mut outcome = Outcome::Ok;
        for (&k, r) in members.iter().zip(&results) {
            if let Ok((_, c)) = r {
                self.tally[1] += u64::from(c.degraded);
                self.tally[2] += c.retries;
                self.tally[3] += c.breaker_skips;
            }
            match self.judge(k, r) {
                Outcome::Ok => {}
                bad => {
                    outcome = bad;
                    break;
                }
            }
        }
        self.tally[0] += 1;
        Step::new(start, nanos, outcome)
    }

    fn op_span(&self) -> &'static str {
        self.op_span
    }

    fn peel(&mut self, i: u64, tr: &mut Tracer, op: usize) -> Result<(), String> {
        let cycle = self.op_span != "guarded.solve_guarded";
        for k in self.op_members(i) {
            let inst = &self.insts[k];
            let parent = if cycle {
                let (r, guarded) = timed_span(tr, "guarded.solve_guarded", i, op, || {
                    self.solver.solve_guarded(inst)
                });
                let (s, _) = r.map_err(|e| format!("peel: {e}"))?;
                if !s.matches(&self.refs[k]) {
                    return Err(format!("peel: instance {k} answered wrongly"));
                }
                guarded
            } else {
                op
            };
            let (solved, dispatch) = timed_span(tr, "dispatch.solve_on", i, parent, || {
                self.solver.solve_on(self.backends[k], inst)
            });
            let (s, counts) = solved.ok_or("peel: the chosen backend refused the problem")?;
            if !s.matches(&self.refs[k]) {
                return Err(format!("peel: instance {k} answered wrongly"));
            }
            let (backend_span, core_span) = inst.kind().spans();
            let backend = tr.record_in(backend_span, dispatch, counts.backend_nanos);
            timed_span(tr, core_span, i, backend, || inst.core_solve());
        }
        Ok(())
    }

    fn counts(&self) -> Vec<(&'static str, f64)> {
        let [ops, degraded, retries, skips] = self.tally;
        let mut out = self.counts.clone();
        out.push(("guarded.degraded_frac", degraded as f64 / ops.max(1) as f64));
        out.push(("guarded.retries", retries as f64));
        out.push(("guarded.breaker_skips", skips as f64));
        out
    }

    fn measurements(&self) -> u64 {
        self.solver.measurements()
    }

    fn winners(&self) -> Vec<String> {
        self.solver.winners()
    }

    #[cfg(test)]
    fn corrupt_reference(&mut self) {
        for r in &mut self.refs {
            r.value[0] += 1;
        }
    }
}
