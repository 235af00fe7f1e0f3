//! Replays recorded registry rows and asserts bit-identical reproduction.
//!
//! Every experiment driver records enough in its row (`params` +
//! `input_hash`) to be re-run from scratch; `runbook` inverts that record:
//! rebuild the [`ExperimentCtx`], re-run the driver, and compare both the
//! input and output digests against what was recorded. A row from anything
//! but a registered driver (a `perf:<workload>` row, or a driver newer than
//! this build) is skipped.

use crate::campaign::CampaignConfig;
use crate::experiments::{by_name, ExperimentCtx};
use crate::registry::RegistryRow;

/// What replaying one row produced.
#[derive(Debug, Clone)]
pub enum ReplayOutcome {
    /// Replay reproduced the recorded digests bit-identically.
    Matched {
        /// The row's experiment name.
        experiment: String,
    },
    /// Replay produced different bits — the regression `runbook` exists to
    /// catch.
    Mismatched {
        /// The row's experiment name.
        experiment: String,
        /// Which digest diverged: `"input_hash"` or `"output_hash"`.
        what: &'static str,
        /// The digest on the recorded row.
        recorded: String,
        /// The digest the replay produced.
        replayed: String,
    },
    /// The row is outside the replay contract.
    Skipped {
        /// The row's experiment name.
        experiment: String,
        /// Why it was skipped.
        reason: String,
    },
}

impl ReplayOutcome {
    /// `true` only for [`ReplayOutcome::Mismatched`].
    pub fn is_failure(&self) -> bool {
        matches!(self, ReplayOutcome::Mismatched { .. })
    }

    /// One status line for the terminal.
    pub fn describe(&self) -> String {
        match self {
            ReplayOutcome::Matched { experiment } => format!("ok       {experiment}"),
            ReplayOutcome::Mismatched {
                experiment,
                what,
                recorded,
                replayed,
            } => format!("MISMATCH {experiment}: {what} recorded {recorded} != replayed {replayed}"),
            ReplayOutcome::Skipped { experiment, reason } => {
                format!("skip     {experiment}: {reason}")
            }
        }
    }
}

/// Replays one row: rebuild the context from `params`, re-run the driver,
/// compare digests.
pub fn replay_row(row: &RegistryRow) -> ReplayOutcome {
    let Some(run) = by_name(&row.experiment) else {
        return ReplayOutcome::Skipped {
            experiment: row.experiment.clone(),
            reason: "not a registered experiment driver".to_string(),
        };
    };
    let Some(ctx) = ExperimentCtx::from_params(&row.params) else {
        return ReplayOutcome::Skipped {
            experiment: row.experiment.clone(),
            reason: "params are not a replayable campaign context".to_string(),
        };
    };
    let fresh = run(&ctx);
    if fresh.input_hash != row.input_hash {
        return ReplayOutcome::Mismatched {
            experiment: row.experiment.clone(),
            what: "input_hash",
            recorded: row.input_hash.clone(),
            replayed: fresh.input_hash.clone(),
        };
    }
    if fresh.output_hash != row.output_hash {
        return ReplayOutcome::Mismatched {
            experiment: row.experiment.clone(),
            what: "output_hash",
            recorded: row.output_hash.clone(),
            replayed: fresh.output_hash.clone(),
        };
    }
    ReplayOutcome::Matched {
        experiment: row.experiment.clone(),
    }
}

/// Replays every row (optionally only those named `filter`), in file
/// order.
pub fn replay_all(rows: &[RegistryRow], filter: Option<&str>) -> Vec<ReplayOutcome> {
    rows.iter()
        .filter(|r| filter.is_none_or(|f| r.experiment == f))
        .map(replay_row)
        .collect()
}

/// Self-contained determinism smoke for CI: run one cheap driver, then
/// replay its row through the same path `runbook` uses for recorded rows,
/// and demand bit-identity. No registry file is touched.
pub fn check() -> Result<(), String> {
    let row = by_name("table2").expect("table2 is registered")(&tiny_ctx());
    match replay_row(&row) {
        ReplayOutcome::Matched { .. } => Ok(()),
        other => Err(other.describe()),
    }
}

/// The CI-sized context `check` runs: 60 campaign runs, seed 7, one thread.
fn tiny_ctx() -> ExperimentCtx {
    let cfg = CampaignConfig {
        n_runs: 60,
        n_outer: 200,
        n_inner: 20,
        max_nodes: 4,
        seed: 7,
    };
    ExperimentCtx::new(cfg, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use disar_math::json::Json;

    #[test]
    fn check_passes_on_a_deterministic_build() {
        check().expect("table2 replays bit-identically");
    }

    #[test]
    fn perf_rows_are_skipped() {
        let row = RegistryRow::new(
            "perf:campaign_paper",
            1,
            Json::obj([("seconds", 10u64.into())]),
            Json::Null,
            1,
        )
        .with_timings(Json::obj([("ops_per_s", 1u64.into())]));
        let out = replay_row(&row);
        assert!(matches!(out, ReplayOutcome::Skipped { .. }), "{out:?}");
        assert!(!out.is_failure());
    }

    #[test]
    fn corrupted_outputs_are_caught() {
        let mut row = by_name("table2").unwrap()(&tiny_ctx());
        row.output_hash = "fnv1a64:0000000000000000".to_string();
        let out = replay_row(&row);
        assert!(out.is_failure(), "{out:?}");
        assert!(out.describe().contains("output_hash"));
    }
}
