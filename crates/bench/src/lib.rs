//! Benchmark & experiment harness regenerating every table and figure of
//! the paper, and the one crate for results.
//!
//! | Paper artifact | Row | Computed by |
//! |---|---|---|
//! | Table I (per-classifier bias δ̄ per instance type) | `table1` | [`experiments::table1`] |
//! | Table II (per-simulation average cost) and Figure 4 (speedup vs sequential) | `table2` | [`experiments::table2`] |
//! | Figure 2 (predicted vs real scatter), Figure 3 (error histogram) and the ensemble-vs-single-models ablation | `fig2` | [`experiments::fig2`], [`experiments::fig2_summary`], [`experiments::fig3`] |
//! | §IV closing comparison (−54 % cost / −48 % time) | `comparison` | [`experiments::comparison`] |
//! | Ablation: ε-greedy exploration | `ablation_epsilon` | [`experiments::ablation_epsilon`] |
//! | Ablation: conservative deadline filtering | `ablation_deadline` | [`experiments::ablation_deadline`] |
//! | The self-optimizing loop's learning curve | `learning_curve` | [`experiments::learning_curve`] |
//! | Ablation: cross-company knowledge transfer | `ablation_transfer` | [`experiments::ablation_transfer`] |
//! | Ablation: Random-Forest feature importances | `ablation_features` | [`experiments::ablation_features`] |
//! | Ablation: billing-policy re-pricing | `ablation_billing` | [`experiments::ablation_billing`] |
//! | Ablation: LSMC vs plain nested MC | `ablation_lsmc` | [`experiments::ablation_lsmc`] |
//! | Ablation: drift adaptation | `ablation_drift` | [`experiments::ablation_drift`] |
//!
//! Each artifact's function returns its typed result; a driver turns the
//! artifacts that share their runs into one registry row, and
//! [`experiments::EXPERIMENTS`] maps each name to its driver. Run them all with
//! `cargo run --release -p disar-bench --bin experiments`; each run appends
//! one replayable row to `results/registry.jsonl` (see [`registry`]), and
//! `cargo run -p disar-bench --bin runbook` re-runs recorded rows and
//! asserts bit-identical reproduction (see [`runbook`]).
//!
//! Speed is measured by `bash benchmark/run.sh` (benchmark/README.md), which
//! builds offline and reports every layer by name; no timer lives here.

pub mod campaign;
pub mod experiments;
pub mod registry;
pub mod runbook;
