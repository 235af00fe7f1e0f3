//! Workspace registry plumbing: where experiment rows land.
//!
//! Every producer in `disar-bench` appends to one append-only JSONL
//! registry through [`workspace_registry`] (DESIGN.md §13). The old
//! per-artifact CSV/JSON writers are gone; `results/registry.jsonl` (or
//! `$DISAR_REGISTRY` / `$DISAR_RESULTS_DIR/registry.jsonl`) is the single
//! sink the CI regression gate diffs.

use disar_registry::Registry;
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
