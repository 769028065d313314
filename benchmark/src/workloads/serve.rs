//! `serve_mixed`: the front door. Each op submits 64 problems from four
//! tenants to one `SolverService` and drains them as one batch: half row
//! minima, an eighth row maxima, an eighth staircase minima and a quarter
//! tube minima, drawn from a seeded pool. Batch grouping, Merge-Path
//! chunking, autotune lookups and the fused strips do the work.

use std::time::Instant;

use super::{elapsed_ns, log_sizes, timed_span, Mix, Outcome, Runner, Scale, Step};
use crate::sut::{global_counts, Answer, Instance, Kind, Service, Solved};
use crate::trace::Tracer;

const TENANTS: [&str; 4] = ["t0", "t1", "t2", "t3"];

/// The pool and the op schedule.
pub struct Inputs {
    pool: Vec<Instance>,
    /// Pool indices each op submits, in submission order.
    schedule: Vec<Vec<usize>>,
}

impl Inputs {
    /// Dense pool sizes are log-spaced over 32..=1024 and tube factor
    /// sizes over 16..=72, so the seed changes entries and picks but not
    /// the size mix.
    pub fn new(scale: Scale, seed: u64) -> Inputs {
        let (dense, max_n, tubes, tube_lo, tube_hi, ops, take) = match scale {
            Scale::Full => (64, 1024, 16, 16, 72, 16, [32, 8, 8, 16]),
            Scale::Smoke => (8, 128, 4, 8, 16, 2, [8, 2, 2, 4]),
        };
        let mut mix = Mix::new(seed, 1);
        let mut pool = Vec::new();
        for (k, n) in log_sizes(32, max_n, dense).into_iter().enumerate() {
            let kind = [Kind::RowMin, Kind::RowMin, Kind::RowMax, Kind::Staircase][k % 4];
            pool.push(Instance::generate(kind, n, mix.next()));
        }
        for n in log_sizes(tube_lo, tube_hi, tubes) {
            pool.push(Instance::generate(Kind::Tube, n, mix.next()));
        }
        let of_kind = |kind: Kind| -> Vec<usize> {
            (0..pool.len())
                .filter(|&k| pool[k].kind() == kind)
                .collect()
        };
        let groups = [
            of_kind(Kind::RowMin),
            of_kind(Kind::RowMax),
            of_kind(Kind::Staircase),
            of_kind(Kind::Tube),
        ];
        let schedule = (0..ops)
            .map(|_| {
                let mut picks: Vec<usize> = Vec::new();
                for (group, &count) in groups.iter().zip(&take) {
                    picks.extend((0..count).map(|_| group[mix.below(group.len())]));
                }
                mix.permutation(picks.len())
                    .into_iter()
                    .map(|k| picks[k])
                    .collect()
            })
            .collect();
        Inputs { pool, schedule }
    }
}

/// The service, the pool's reference answers and the exact per-drain
/// counts.
pub struct ServeRunner<'a> {
    inputs: &'a Inputs,
    refs: Vec<Answer>,
    service: Service<'a>,
    counts: Vec<(&'static str, f64)>,
    cached: usize,
    members: usize,
}

impl<'a> ServeRunner<'a> {
    /// A fresh service over `inputs`, with the sequential core's answers.
    pub fn new(inputs: &'a Inputs) -> ServeRunner<'a> {
        ServeRunner {
            inputs,
            refs: inputs.pool.iter().map(Instance::core_solve).collect(),
            service: Service::new(),
            counts: Vec::new(),
            cached: 0,
            members: 0,
        }
    }

    fn op_members(&self, i: u64) -> &'a [usize] {
        let s = &self.inputs.schedule;
        &s[(i % s.len() as u64) as usize]
    }

    fn judge(&self, members: &[usize], results: &[Result<Solved, String>]) -> Outcome {
        if results.len() != members.len() {
            return Outcome::Wrong(format!(
                "{} answers for {} problems",
                results.len(),
                members.len()
            ));
        }
        for (&k, r) in members.iter().zip(results) {
            match r {
                Err(e) => return Outcome::Failed(e.clone()),
                Ok(s) if !s.matches(&self.refs[k]) => {
                    return Outcome::Wrong(format!("pool problem {k} answered wrongly"))
                }
                Ok(_) => {}
            }
        }
        Outcome::Ok
    }

    /// Submits and drains op `i`'s problems; `Err` is a refusal.
    fn submit_and_drain(&mut self, i: u64) -> Result<Vec<Result<Solved, String>>, String> {
        let pool = &self.inputs.pool;
        for (j, &k) in self.op_members(i).iter().enumerate() {
            self.service.submit(TENANTS[j % TENANTS.len()], &pool[k])?;
        }
        Ok(self.service.drain())
    }
}

impl Runner for ServeRunner<'_> {
    fn gate(&mut self) -> Result<(), String> {
        let ops = self.inputs.schedule.len();
        let mut totals = [0.0f64; 6];
        for i in 0..ops as u64 {
            let members = self.op_members(i);
            let drained = self.submit_and_drain(i)?;
            self.judge(members, &drained).gate()?;
            let insts: Vec<&Instance> = members.iter().map(|&k| &self.inputs.pool[k]).collect();
            let g0 = global_counts();
            let run = self.service.solve_batch_report(&insts);
            let g1 = global_counts();
            self.judge(members, &run.results).gate()?;
            totals[0] += run.counts.iter().map(|c| c.evaluations as f64).sum::<f64>();
            for (t, (a, b)) in totals[1..4].iter_mut().zip(g0.iter().zip(&g1)) {
                *t += (b - a) as f64;
            }
            totals[4] += run.groups as f64;
            totals[5] += run.shed_groups as f64;
        }
        let per_op = |t: f64| t / ops as f64;
        self.counts = vec![
            ("engine.evaluations_per_op", per_op(totals[0])),
            ("engine.comparisons_per_op", per_op(totals[1])),
            ("runtime.tasks_per_op", per_op(totals[2])),
            ("scratch.checkouts_per_op", per_op(totals[3])),
            ("batch.groups_per_drain", per_op(totals[4])),
            ("batch.shed_groups", per_op(totals[5])),
            (
                "autotune.measurements_setup",
                self.service.measurements() as f64,
            ),
        ];
        Ok(())
    }

    fn step(&mut self, i: u64) -> Step {
        let start = Instant::now();
        let drained = self.submit_and_drain(i);
        let nanos = elapsed_ns(start);
        let outcome = match drained {
            Ok(results) => self.judge(self.op_members(i), &results),
            Err(refusal) => {
                // Clear whatever the refused op left queued.
                self.service.drain();
                Outcome::Failed(refusal)
            }
        };
        Step::new(start, nanos, outcome)
    }

    fn op_span(&self) -> &'static str {
        "service.drain"
    }

    fn peel(&mut self, i: u64, tr: &mut Tracer, op: usize) -> Result<(), String> {
        let members = self.op_members(i);
        let insts: Vec<&Instance> = members.iter().map(|&k| &self.inputs.pool[k]).collect();
        let (run, batch) = timed_span(tr, "batch.solve_batch_report", i, op, || {
            self.service.solve_batch_report(&insts)
        });
        if let Outcome::Wrong(e) = self.judge(members, &run.results) {
            return Err(format!("peel: {e}"));
        }
        self.cached += run.counts.iter().filter(|c| c.cached).count();
        self.members += run.counts.len();
        for (_, nanos) in self.service.time_lookups(&insts) {
            tr.record_in("autotune.lookup", batch, nanos);
        }
        for (&k, inst) in members.iter().zip(&insts) {
            let (solved, dispatch) = timed_span(tr, "dispatch.solve_on", i, batch, || {
                self.service.solve_sequential(inst)
            });
            let (s, counts) = solved.ok_or("peel: the sequential backend refused a problem")?;
            if !s.matches(&self.refs[k]) {
                return Err(format!("peel: pool problem {k} answered wrongly"));
            }
            let (backend_span, core_span) = inst.kind().spans();
            let backend = tr.record_in(backend_span, dispatch, counts.backend_nanos);
            timed_span(tr, core_span, i, backend, || inst.core_solve());
        }
        Ok(())
    }

    fn counts(&self) -> Vec<(&'static str, f64)> {
        self.counts.clone()
    }

    fn tallies(&self) -> Vec<(&'static str, f64)> {
        if self.members == 0 {
            return Vec::new();
        }
        vec![(
            "autotune.cached_frac",
            self.cached as f64 / self.members as f64,
        )]
    }

    fn measurements(&self) -> u64 {
        self.service.measurements()
    }

    fn winners(&self) -> Vec<String> {
        self.service.winners()
    }

    #[cfg(test)]
    fn corrupt_reference(&mut self) {
        for r in &mut self.refs {
            r.value[0] += 1;
        }
    }
}
