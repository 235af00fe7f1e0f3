//! End-to-end replay proof: run an experiment driver, append its row to a
//! registry file on disk, reload it, and replay it from the recorded
//! `params` alone — the reloaded row must reproduce bit-identically (the
//! `runbook` contract on a committed row).

use disar_bench::campaign::CampaignConfig;
use disar_bench::experiments::{by_name, ExperimentCtx};
use disar_bench::registry::Registry;
use disar_bench::runbook::{replay_all, replay_row, ReplayOutcome};
use std::path::PathBuf;

fn temp_registry(name: &str) -> (Registry, PathBuf) {
    let dir = std::env::temp_dir().join("disar-bench-registry-e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{name}-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    (Registry::new(&path), path)
}

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

#[test]
fn recorded_row_replays_bit_identically_from_disk() {
    let row = by_name("table2").expect("table2 is registered")(&tiny_ctx());

    let (registry, path) = temp_registry("replay");
    registry.append(std::slice::from_ref(&row)).unwrap();
    let loaded = registry.load().unwrap();
    assert_eq!(loaded, [row], "the row survives the disk round-trip");

    match replay_row(&loaded[0]) {
        ReplayOutcome::Matched { .. } => {}
        other => panic!("expected a bit-identical replay, got: {}", other.describe()),
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn replay_all_filters_by_experiment_name() {
    let ctx = tiny_ctx();
    let rows: Vec<_> = ["table2", "ablation_lsmc"]
        .iter()
        .map(|n| by_name(n).expect("registered")(&ctx))
        .collect();

    let (registry, path) = temp_registry("filter");
    registry.append(&rows).unwrap();
    let loaded = registry.load().unwrap();

    let all = replay_all(&loaded, None);
    assert_eq!(all.len(), 2);
    assert!(all.iter().all(|o| !o.is_failure()));
    let only = replay_all(&loaded, Some("table2"));
    assert_eq!(only.len(), 1);
    assert!(matches!(only[0], ReplayOutcome::Matched { .. }));
    std::fs::remove_file(&path).ok();
}

/// A misspelt `--experiment` is a usage error before any file is read, not
/// an empty replay that passes.
#[test]
fn runbook_rejects_an_unknown_experiment_name() {
    let (_, path) = temp_registry("missing");
    let status = std::process::Command::new(env!("CARGO_BIN_EXE_runbook"))
        .arg("--registry")
        .arg(&path)
        .args(["--experiment", "tabel2"])
        .status()
        .expect("runbook starts");
    assert_eq!(status.code(), Some(2));
}

/// A removed or misspelt driver name is a usage error before any campaign is
/// built: nothing runs, nothing is printed to stdout and no row is appended.
#[test]
fn experiments_rejects_an_unknown_experiment_name() {
    let (_, path) = temp_registry("unknown-driver");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_experiments"))
        .env("DISAR_REGISTRY", &path)
        .args(["--quick", "fig3"])
        .output()
        .expect("experiments starts");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown experiment: fig3"), "{stderr}");
    assert!(out.stdout.is_empty());
    assert!(!path.exists());
}
