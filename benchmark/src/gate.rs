//! The correctness gate: every check must pass before a metric is printed.
//!
//! There are no golden numbers here. Each check compares the program with
//! itself (repetitions, thread counts, service against solo) or with the
//! small reference of Algorithm 1 below, so it keeps holding when the
//! program's random streams are rehomed.

use crate::adapter::{self, Backend, Outcome, Res};
use crate::jobs::Job;
use crate::stats::Fnv;

#[derive(Debug, Default)]
pub struct Gate {
    failures: Vec<String>,
    passed: usize,
}

impl Gate {
    pub fn check(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) {
        if ok {
            self.passed += 1;
        } else {
            self.failures.push(format!("{name}: {}", detail()));
        }
    }

    pub fn passed(&self) -> usize {
        self.passed
    }

    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// Every repetition of a deterministic computation printed the same
    /// digest.
    pub fn same_digests(&mut self, name: &str, digests: &[u64]) {
        self.check(name, digests.windows(2).all(|w| w[0] == w[1]), || {
            format!("digests differ across repetitions: {digests:x?}")
        });
    }
}

/// FNV over instance, nodes and duration bits of every outcome, in order.
pub fn outcome_digest(outcomes: &[Outcome]) -> u64 {
    let mut h = Fnv::new();
    for o in outcomes {
        h.bytes(o.instance.as_bytes());
        h.u64(o.nodes as u64);
        h.f64(o.duration_secs);
    }
    h.0
}

/// Algorithm 1 the dumb way, exploration off: one scalar `predict_each` per
/// `(instance, nodes)` cell, the mean over members, cells over the deadline
/// dropped, the cheapest kept. Ties go to the smaller `(cost, name, nodes)`,
/// as in the program. `None` when no cell is feasible.
pub fn reference_select(backend: &Backend, job: &Job) -> Res<Option<(String, usize)>> {
    let mut best: Option<(f64, &str, usize)> = None;
    for nodes in 1..=backend.max_nodes() {
        for (name, hourly_cost) in adapter::catalog() {
            let each = backend.predict_each(job, name, nodes)?;
            let time = each.iter().sum::<f64>() / each.len() as f64;
            // A non-positive predicted time would cost nothing and always
            // win; the program rejects such cells and so does the reference.
            if time <= 0.0 || time > adapter::T_MAX_SECS {
                continue;
            }
            let cost = hourly_cost * (time / 3600.0) * nodes as f64;
            let candidate = (cost, name.as_str(), nodes);
            if best.as_ref().is_none_or(|b| candidate < *b) {
                best = Some(candidate);
            }
        }
    }
    Ok(best.map(|(_, name, nodes)| (name.to_string(), nodes)))
}

/// Checks the program's Algorithm 1 against the reference on the sampled
/// jobs. Either side failing to answer fails the gate, and so does a sample on
/// which the reference never finds a feasible cell: agreement on nothing is
/// not agreement. Returns the mean share of the grid that was feasible.
pub fn check_selection(gate: &mut Gate, backend: &Backend, jobs: &[Job], seed: u64) -> f64 {
    let cells = (adapter::catalog().len() * backend.max_nodes()) as f64;
    let mut feasible_share = 0.0;
    let mut picks = 0;
    for (i, job) in jobs.iter().enumerate() {
        let reference = reference_select(backend, job);
        let fast = backend.fast_select(job, seed.wrapping_add(i as u64));
        match (&fast, &reference) {
            (Ok((name, nodes, feasible)), Ok(reference)) => {
                feasible_share += *feasible as f64 / cells / jobs.len() as f64;
                picks += usize::from(reference.is_some());
                gate.check(
                    "algorithm 1 equals its reference",
                    reference.as_ref() == Some(&(name.clone(), *nodes)),
                    || format!("job {job:?}: program chose {fast:?}, reference {reference:?}"),
                );
            }
            _ => gate.check("algorithm 1 and its reference answer", false, || {
                format!("job {job:?}: program {fast:?}, reference {reference:?}")
            }),
        }
    }
    gate.check("the reference picked on a sampled job", picks > 0, || {
        format!("no feasible cell on any of {} sampled jobs", jobs.len())
    });
    feasible_share
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failed_check_is_kept_with_its_detail() {
        let mut gate = Gate::default();
        gate.check("fine", true, || unreachable!());
        gate.same_digests("reps", &[1, 1, 1]);
        assert!(gate.failures().is_empty());
        assert_eq!(gate.passed(), 2);
        gate.same_digests("reps", &[1, 2]);
        gate.check("kb", false, || "3 != 4".to_string());
        assert_eq!(gate.failures().len(), 2);
        assert!(gate.failures()[1].contains("3 != 4"));
    }
}
