//! Offline benchmark of the provisioning loop: one workload per invocation.
//!
//! `--workload W --seed N --seconds S --trace 0|1`; the last line of standard
//! output is one JSON object `{correct, attempted, failed, metrics}`. With
//! `--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
//! per-layer ones. A failed correctness gate prints no metrics and exits 1.

mod adapter;
mod clock;
mod gate;
mod jobs;
mod metrics;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{DeployKind, Plan, Report};

const DEFAULT_SEED: u64 = 20_160_627;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out-dir" => args.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {:?}, not {:?}",
            workloads::NAMES,
            args.workload
        ));
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(args)
}

/// The metrics of this run, in the order of the table in `metrics.rs`.
/// `None` for a per-layer metric of a layer this workload does not run.
fn metric_values(report: &Report, trace: bool) -> Vec<(&'static metrics::Def, Option<f64>)> {
    if trace {
        return metrics::PER_LAYER
            .iter()
            .map(|d| (d, report.layer.get(d.name).copied()))
            .collect();
    }
    let e2e = BTreeMap::from([
        ("ops_per_s", report.ops_per_s),
        ("op_p50_ms", report.op_p50_ms),
        ("peak_rss_mb", report.peak_rss_mb),
        ("setup_s", report.setup_s),
    ]);
    metrics::END_TO_END
        .iter()
        .map(|d| (d, Some(e2e[d.name])))
        .collect()
}

/// The result object. The contract wants every per-layer metric in it on
/// every workload, so one that does not apply is written as 0; the listing
/// above it says `n/a`, and README.md says which metric applies where.
fn result_json(report: &Report, values: &[(&metrics::Def, Option<f64>)]) -> String {
    let mut json = format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.attempted, report.failed
    );
    for (i, (def, value)) in values.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            def.name,
            value.unwrap_or(0.0),
            def.unit
        );
    }
    json.push_str("}}");
    json
}

fn run(args: &Args) -> Result<String, String> {
    std::fs::create_dir_all(&args.out_dir).map_err(|e| format!("{:?}: {e}", args.out_dir))?;
    let plan = Plan {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        out_dir: &args.out_dir,
    };
    let report = match args.workload.as_str() {
        "campaign_paper" => workloads::deploy_workload(DeployKind::CampaignPaper, &plan),
        "select_wide" => workloads::deploy_workload(DeployKind::SelectWide, &plan),
        "valuation_nested" => workloads::valuation_nested(&plan),
        _ => workloads::service_tenants(&plan),
    }?;

    if !report.gate.failures().is_empty() {
        return Err(format!(
            "correctness gate failed, no metrics printed:\n  {}",
            report.gate.failures().join("\n  ")
        ));
    }
    let values = metric_values(&report, args.trace);
    if let Some((def, v)) = values
        .iter()
        .find(|(_, v)| v.is_some_and(|v| !v.is_finite()))
    {
        return Err(format!("metric {} is not a finite number: {v:?}", def.name));
    }

    println!(
        "workload {} seed {} seconds {} trace {} threads available {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    println!("correctness gate: {} checks passed", report.gate.passed());
    for note in &report.notes {
        println!("  {note}");
    }
    for (def, value) in &values {
        match value {
            Some(value) => println!(
                "{:<40} {:>16.6} {:<6} ({} is better)",
                def.name, value, def.unit, def.better
            ),
            None => println!("{:<40} {:>16} (not on this workload)", def.name, "n/a"),
        }
    }
    if args.trace {
        let path = args.out_dir.join(format!("trace-{}.jsonl", args.workload));
        std::fs::write(&path, report.recorder.to_jsonl()).map_err(|e| format!("{path:?}: {e}"))?;
        println!(
            "{} spans written to {}",
            report.recorder.spans().len(),
            path.display()
        );
    }
    Ok(result_json(&report, &values))
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("disar-benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}
