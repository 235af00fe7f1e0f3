//! Workspace registry plumbing: where bench/experiment rows land and how
//! this crate's input types canonicalize.
//!
//! Every producer in `disar-bench` — the `experiments` driver, the
//! hand-rolled bench harnesses — appends to one append-only
//! JSONL registry through [`workspace_registry`] (DESIGN.md §13). The old
//! per-artifact CSV/JSON writers are gone; `results/registry.jsonl` (or
//! `$DISAR_REGISTRY` / `$DISAR_RESULTS_DIR/registry.jsonl`) is the single
//! sink the CI regression gate diffs.

use crate::campaign::{CampaignConfig, EebJob};
use disar_math::json::Json;
use disar_registry::{CanonicalHasher, Canonicalize, Registry, RegistryRow};
use std::path::{Path, PathBuf};

/// The workspace root this crate was built from (`CARGO_MANIFEST_DIR`
/// anchored, so producers write the same registry regardless of the cwd
/// they were launched with).
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Opens the workspace registry (`results/registry.jsonl` under the repo
/// root unless `$DISAR_REGISTRY` / `$DISAR_RESULTS_DIR` override it).
pub fn workspace_registry() -> Registry {
    Registry::default_under(&workspace_root())
}

/// Builds a timing-only row for a hand-rolled bench harness.
///
/// The row's experiment name is `bench:<name>`, its `input_hash` digests
/// the name plus the compact (sorted-key) text of `params`, and
/// all measurements go in `timings` — outside the replay contract, which
/// is why `runbook` skips `bench:*` rows.
pub fn bench_row(name: &str, params: Json, timings: Json, wall_ns: u64) -> RegistryRow {
    let mut h = CanonicalHasher::new();
    h.field("bench");
    h.write_str(name);
    h.field("params");
    h.write_str(&params.to_string());
    RegistryRow::new(
        format!("bench:{name}"),
        h.finish(),
        params,
        Json::Null,
        wall_ns,
    )
    .with_timings(timings)
}

impl Canonicalize for CampaignConfig {
    fn canonicalize(&self, h: &mut CanonicalHasher) {
        h.field("n_runs");
        h.write_usize(self.n_runs);
        h.field("n_outer");
        h.write_usize(self.n_outer);
        h.field("n_inner");
        h.write_usize(self.n_inner);
        h.field("max_nodes");
        h.write_usize(self.max_nodes);
        h.field("seed");
        h.write_u64(self.seed);
        h.field("n_threads");
        h.write_usize(self.n_threads);
    }
}

impl Canonicalize for EebJob {
    fn canonicalize(&self, h: &mut CanonicalHasher) {
        h.field("portfolio");
        h.write_str(&self.portfolio);
        h.field("eeb_id");
        h.write_usize(self.eeb_id);
        h.field("profile");
        self.profile.canonicalize(h);
        h.field("workload");
        self.workload.canonicalize(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_rows_are_timing_only() {
        let params =
            |kb_size: u64| Json::obj([("model", "IBk".into()), ("kb_size", kb_size.into())]);
        let r = bench_row(
            "kb_scale/retrain",
            params(100),
            Json::obj([
                ("full_fit_ns", 10u64.into()),
                ("incremental_fit_ns", 2u64.into()),
            ]),
            42,
        );
        assert_eq!(r.experiment, "bench:kb_scale/retrain");
        assert_eq!(r.outputs, Json::Null);
        assert_ne!(r.timings, Json::Null);
        // Same name + params → same input hash; different params → different.
        let again = bench_row(
            "kb_scale/retrain",
            params(100),
            Json::obj([("full_fit_ns", 99u64.into())]),
            7,
        );
        assert_eq!(r.input_hash, again.input_hash);
        let other = bench_row("kb_scale/retrain", params(1000), Json::Null, 7);
        assert_ne!(r.input_hash, other.input_hash);
    }

    #[test]
    fn campaign_hash_is_field_sensitive() {
        let a = CampaignConfig::builder().seed(1).build();
        let b = CampaignConfig::builder().seed(2).build();
        assert_eq!(a.canonical_hash(), a.canonical_hash());
        assert_ne!(a.canonical_hash(), b.canonical_hash());
    }

    #[test]
    fn job_hash_covers_the_workload() {
        let cfg = CampaignConfig::builder()
            .n_outer(200)
            .n_inner(20)
            .n_threads(1)
            .build();
        let jobs = crate::campaign::paper_eeb_jobs(&cfg);
        let hashes: std::collections::BTreeSet<u64> =
            jobs.iter().map(|j| j.canonical_hash()).collect();
        assert_eq!(hashes.len(), jobs.len(), "15 distinct jobs, 15 digests");
        assert_eq!(jobs.canonical_hash(), jobs.clone().canonical_hash());
    }
}
