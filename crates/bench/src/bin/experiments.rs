//! Regenerates every table and figure of the paper through the name-keyed
//! driver table `EXPERIMENTS`.
//!
//! ```text
//! cargo run --release -p disar-bench --bin experiments              # all
//! cargo run --release -p disar-bench --bin experiments -- table1    # one
//! cargo run --release -p disar-bench --bin experiments -- --list
//! ```
//!
//! Flags: `--quick` (CI-sized campaign), `--seed S`, `--out FILE` (also
//! dump the produced rows as a pretty JSON array), `--list` (print
//! registered experiment names and exit). The model fits of `table1` and
//! `fig2` and the selections of `ablation_deadline` run on every core the
//! process may use; the rows are the same on any count, and
//! `taskset -c 0` runs them in sequence. Every run appends its replayable
//! rows to the append-only registry (`results/registry.jsonl`, or
//! `$DISAR_REGISTRY` / `$DISAR_RESULTS_DIR/registry.jsonl`); `runbook`
//! replays them.

use disar_bench::campaign::CampaignConfig;
use disar_bench::experiments::{by_name, Driver, ExperimentCtx, EXPERIMENTS};
use disar_bench::registry::{workspace_registry, RegistryRow};
use disar_math::json::Json;

fn usage() -> ! {
    eprintln!("usage: experiments [NAME ...] [--quick] [--seed S] [--out FILE] [--list]");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut seed: Option<u64> = None;
    let mut out: Option<String> = None;
    let mut names: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--list" => {
                for (name, _) in EXPERIMENTS {
                    println!("{name}");
                }
                return;
            }
            "--seed" => {
                let v = it.next().unwrap_or_else(|| usage());
                seed = Some(v.parse().unwrap_or_else(|_| usage()));
            }
            "--out" => out = Some(it.next().unwrap_or_else(|| usage())),
            "--help" | "-h" => usage(),
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag: {flag}");
                usage();
            }
            name => names.push(name.to_string()),
        }
    }

    // Resolve every requested driver up front so a typo fails before any
    // expensive campaign build.
    let selected: Vec<Driver> = if names.is_empty() {
        EXPERIMENTS.iter().map(|&(_, run)| run).collect()
    } else {
        names
            .iter()
            .map(|n| {
                by_name(n).unwrap_or_else(|| {
                    eprintln!("unknown experiment: {n} (try --list)");
                    std::process::exit(2);
                })
            })
            .collect()
    };

    let mut cfg = CampaignConfig::default();
    if quick {
        cfg.n_runs = 300;
    }
    if let Some(s) = seed {
        cfg.seed = s;
    }
    let ctx = ExperimentCtx::new(cfg, quick);

    println!(
        "== DISAR reproduction experiments ==\ncampaign: {} runs, nP={}, nQ={}, seed={}\n",
        ctx.cfg.n_runs, ctx.cfg.n_outer, ctx.cfg.n_inner, ctx.cfg.seed
    );

    let registry = workspace_registry();
    let t0 = std::time::Instant::now();
    let mut produced: Vec<RegistryRow> = Vec::new();
    for run in selected {
        let t1 = std::time::Instant::now();
        let row = run(&ctx);
        println!(
            "-- {} ({:.1}s) --\ninput  {}\noutput {}\n{}\n",
            row.experiment,
            t1.elapsed().as_secs_f64(),
            row.input_hash,
            row.output_hash,
            row.outputs.pretty()
        );
        registry
            .append(std::slice::from_ref(&row))
            .expect("registry append succeeds");
        produced.push(row);
    }

    if let Some(path) = out {
        std::fs::write(
            &path,
            Json::arr(produced.iter().map(RegistryRow::to_json)).pretty(),
        )
        .expect("write --out file");
        println!("wrote {} rows to {path}", produced.len());
    }

    println!(
        "all requested experiments done in {:.1}s; {} rows appended to {}",
        t0.elapsed().as_secs_f64(),
        produced.len(),
        registry.path().display()
    );
}
