//! Replays recorded registry rows and asserts bit-identical reproduction.
//!
//! ```text
//! cargo run -p disar-bench --bin runbook -- --check        # CI smoke
//! cargo run --release -p disar-bench --bin runbook         # replay all
//! cargo run --release -p disar-bench --bin runbook -- --experiment table2
//! cargo run --release -p disar-bench --bin runbook -- --registry PATH
//! ```
//!
//! Exit status is nonzero when any replayed row's input or output digest
//! diverges from the record, and 2 when `--experiment` names no driver. Rows
//! from anything but a registered experiment driver are skipped.

use disar_bench::experiments::by_name;
use disar_bench::registry::{workspace_registry, Registry};
use disar_bench::runbook::{self, ReplayOutcome};

fn usage() -> ! {
    eprintln!("usage: runbook [--check] [--registry PATH] [--experiment NAME]");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut check = false;
    let mut registry_path: Option<String> = None;
    let mut experiment: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--check" => check = true,
            "--registry" => registry_path = Some(it.next().unwrap_or_else(|| usage())),
            "--experiment" => experiment = Some(it.next().unwrap_or_else(|| usage())),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage();
            }
        }
    }
    // A typo would otherwise replay nothing and pass.
    if let Some(name) = experiment.as_deref().filter(|n| by_name(n).is_none()) {
        eprintln!("unknown experiment: {name} (try `experiments --list`)");
        std::process::exit(2);
    }

    if check {
        match runbook::check() {
            Ok(()) => {
                println!("runbook check: replay is bit-identical");
                return;
            }
            Err(e) => {
                eprintln!("runbook check FAILED: {e}");
                std::process::exit(1);
            }
        }
    }

    let registry = registry_path
        .map(Registry::new)
        .unwrap_or_else(workspace_registry);
    let rows = registry.load().unwrap_or_else(|e| {
        eprintln!("cannot load {}: {e}", registry.path().display());
        std::process::exit(1);
    });
    if rows.is_empty() {
        println!("{} has no rows; nothing to replay", registry.path().display());
        return;
    }

    let outcomes = runbook::replay_all(&rows, experiment.as_deref());
    let mut matched = 0usize;
    let mut skipped = 0usize;
    let mut failed = 0usize;
    for o in &outcomes {
        println!("{}", o.describe());
        match o {
            ReplayOutcome::Matched { .. } => matched += 1,
            ReplayOutcome::Skipped { .. } => skipped += 1,
            ReplayOutcome::Mismatched { .. } => failed += 1,
        }
    }
    println!("\n{matched} matched, {skipped} skipped, {failed} mismatched");
    if failed > 0 {
        std::process::exit(1);
    }
}
