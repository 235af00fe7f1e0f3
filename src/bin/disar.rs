//! `disar` — command-line interface to the DISAR reproduction.
//!
//! The DiInt stand-in: generate portfolios, run Solvency II valuations and
//! drive the ML-based cloud provisioning loop from a shell. The paper's
//! experiments run from their own binary, `experiments` (crate
//! `disar-bench`).
//!
//! ```text
//! disar portfolio  --policies 5000 --seed 42
//! disar value      --policies 500 --outer 200 --inner 20 --threads 4
//! disar deploy     --runs 40 --tmax 3600
//! disar curve      --rate 0.03
//! ```
//!
//! Commands are dispatched through a lookup table, and every command
//! accepts the uniform `--seed S`, `--threads N`, and `--out FILE`
//! flags (`--out` writes the command's JSON summary).

use disar_suite::actuarial::portfolio::PortfolioSpec;
use disar_suite::alm::SegregatedFund;
use disar_suite::cloudsim::{CloudProvider, InstanceCatalog, Workload};
use disar_suite::core::deploy::{DeployMode, DeployPolicy, Deployer, TransparentDeployer};
use disar_suite::core::JobProfile;
use disar_suite::engine::simulation::{MarketModel, SimulationSpec, DEFAULT_LANE};
use disar_suite::engine::{DisarMaster, EebCharacteristics};
use disar_suite::math::json::Json;
use disar_suite::stochastic::bonds::{zero_curve, BondPricing};
use disar_suite::stochastic::drivers::Vasicek;
use std::collections::HashMap;
use std::process::ExitCode;

type CmdResult = Result<Json, Box<dyn std::error::Error>>;

/// Parsed invocation: bare words in order, plus `--name [value]` flags.
struct Cli {
    positionals: Vec<String>,
    flags: HashMap<String, String>,
}

impl Cli {
    fn parse(args: &[String]) -> Self {
        let mut flags = HashMap::new();
        let mut positionals = Vec::new();
        let mut i = 0;
        while i < args.len() {
            if let Some(name) = args[i].strip_prefix("--") {
                let has_value = args.get(i + 1).is_some_and(|v| !v.starts_with("--"));
                if has_value {
                    flags.insert(name.to_string(), args[i + 1].clone());
                    i += 2;
                } else {
                    flags.insert(name.to_string(), String::new());
                    i += 1;
                }
            } else {
                positionals.push(args[i].clone());
                i += 1;
            }
        }
        Cli { positionals, flags }
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        self.flags
            .get(name)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// Uniform flags shared by every command.
    fn seed(&self) -> u64 {
        self.get("seed", 42)
    }

    fn threads(&self) -> usize {
        self.get("threads", 4).max(1)
    }

    fn out(&self) -> Option<&str> {
        self.flags.get("out").map(String::as_str)
    }
}

/// One table entry: the dispatch is a name lookup, not a string match.
struct Command {
    name: &'static str,
    usage: &'static str,
    about: &'static str,
    run: fn(&Cli) -> CmdResult,
}

static COMMANDS: &[Command] = &[
    Command {
        name: "portfolio",
        usage: "portfolio  --policies N",
        about: "generate & summarize a synthetic book",
        run: cmd_portfolio,
    },
    Command {
        name: "value",
        usage: "value      --policies N --outer P --inner Q",
        about: "run a Solvency II valuation locally",
        run: cmd_value,
    },
    Command {
        name: "deploy",
        usage: "deploy     --runs N --tmax SECS",
        about: "drive the ML provisioning loop",
        run: cmd_deploy,
    },
    Command {
        name: "curve",
        usage: "curve      --rate R",
        about: "print the Vasicek zero curve",
        run: cmd_curve,
    },
];

fn command(name: &str) -> Option<&'static Command> {
    COMMANDS.iter().find(|c| c.name == name)
}

fn cmd_portfolio(cli: &Cli) -> CmdResult {
    let n: usize = cli.get("policies", 5_000);
    let seed = cli.seed();
    let p = PortfolioSpec {
        n_policies: n,
        ..PortfolioSpec::default()
    }
    .generate("cli", seed)?;
    println!("portfolio (seed {seed}):");
    println!("  policies                 : {}", p.policy_count());
    println!("  representative contracts : {}", p.representative_contracts());
    println!("  total insured sum        : {:.0} EUR", p.total_insured_sum());
    println!("  max horizon              : {} years", p.max_horizon(120));
    Ok(Json::obj([
        ("seed", seed.into()),
        ("policies", p.policy_count().into()),
        (
            "representative_contracts",
            p.representative_contracts().into(),
        ),
        ("total_insured_sum", p.total_insured_sum().into()),
        ("max_horizon_years", p.max_horizon(120).into()),
    ]))
}

fn cmd_value(cli: &Cli) -> CmdResult {
    let n: usize = cli.get("policies", 500);
    let outer: usize = cli.get("outer", 200);
    let inner: usize = cli.get("inner", 20);
    let threads = cli.threads();
    let seed = cli.seed();
    let portfolio = PortfolioSpec {
        n_policies: n,
        ..PortfolioSpec::default()
    }
    .generate("cli", seed)?;
    let spec = SimulationSpec {
        portfolio,
        fund: SegregatedFund::italian_typical(30),
        market: MarketModel::RatesEquity,
        n_outer: outer,
        n_inner: inner,
        steps_per_year: 4,
        seed,
        lane: DEFAULT_LANE,
    };
    let master = DisarMaster::new(spec)?;
    println!("running nested Monte Carlo ({outer} x {inner}) on {threads} threads...");
    let out = master.run_local(threads)?;
    println!("  BEL            : {:.0}", out.bel);
    println!("  E[Y1]          : {:.0}", out.mean_y1);
    println!("  q99.5(Y1)      : {:.0}", out.var_quantile);
    println!("  SCR            : {:.0}", out.scr);
    println!("  wall time      : {:.2}s ({} type-B EEBs)", out.wall_secs, out.n_type_b);
    Ok(Json::obj([
        ("seed", seed.into()),
        ("threads", threads.into()),
        ("bel", out.bel.into()),
        ("mean_y1", out.mean_y1.into()),
        ("var_quantile", out.var_quantile.into()),
        ("scr", out.scr.into()),
        ("wall_secs", out.wall_secs.into()),
        ("n_type_b", out.n_type_b.into()),
    ]))
}

fn cmd_deploy(cli: &Cli) -> CmdResult {
    let runs: usize = cli.get("runs", 40);
    let t_max: f64 = cli.get("tmax", 3_600.0);
    let seed = cli.seed();
    let provider = CloudProvider::new(InstanceCatalog::paper_catalog(), seed);
    let policy = DeployPolicy {
        min_kb_samples: 15.min(runs / 2).max(2),
        ..DeployPolicy::paper_defaults(t_max)
    };
    let mut deployer = TransparentDeployer::new(provider, policy, seed);
    use disar_suite::math::rng::stream_rng;
    let mut rng = stream_rng(seed, 1);
    println!("self-optimizing loop: {runs} deploys, T_max = {t_max}s");
    let mut total_cost = 0.0;
    for i in 1..=runs {
        let contracts = rng.gen_range(100..600);
        let horizon = rng.gen_range(10..40);
        let profile = JobProfile {
            characteristics: EebCharacteristics {
                representative_contracts: contracts,
                max_horizon: horizon,
                fund_assets: 40,
                risk_factors: 2,
            },
            n_outer: 1000,
            n_inner: 50,
        };
        let wl = Workload::new(
            0.12 * contracts as f64 * horizon as f64,
            0.02 * contracts as f64,
            0.8 * contracts as f64,
            0.05,
        )?;
        let out = deployer.deploy(&profile, &wl)?;
        total_cost += out.report.prorated_cost;
        let mode = match out.mode {
            DeployMode::Bootstrap => "boot",
            DeployMode::Manual => "manual",
            DeployMode::MlGreedy => "ml",
            DeployMode::MlExplored => "ml-eps",
        };
        if i <= 5 || i % 10 == 0 {
            println!(
                "  #{i:>3} [{mode:>6}] {:>12} x{}  {:>6.0}s  {:.4}$  {}",
                out.report.instance,
                out.report.n_nodes,
                out.report.duration_secs,
                out.report.prorated_cost,
                out.predicted_secs
                    .map_or(String::new(), |p| format!("(pred {p:.0}s)")),
            );
        }
    }
    println!("knowledge base: {} runs", deployer.knowledge_base().len());
    Ok(Json::obj([
        ("seed", seed.into()),
        ("runs", runs.into()),
        ("t_max_secs", t_max.into()),
        ("total_cost", total_cost.into()),
        ("kb_runs", deployer.knowledge_base().len().into()),
    ]))
}

fn cmd_curve(cli: &Cli) -> CmdResult {
    let r: f64 = cli.get("rate", 0.03);
    let v = Vasicek::new(r, 0.6, 0.04, 0.015, 0.0)?;
    println!("Vasicek zero curve at r = {r}:");
    let mut points = Vec::new();
    for (t, y) in zero_curve(&v, r, &[1.0, 2.0, 5.0, 10.0, 20.0, 30.0])? {
        let p = v.zcb_price(r, t)?;
        println!("  {t:>5.0}y  yield {:>6.3}%  price {p:.4}", y * 100.0);
        points.push(Json::obj([
            ("maturity", t.into()),
            ("yield", y.into()),
            ("price", p.into()),
        ]));
    }
    Ok(Json::obj([
        ("rate", r.into()),
        ("points", Json::Arr(points)),
    ]))
}

fn usage() {
    eprintln!("usage: disar <command> [--flag value ...]\n\ncommands:");
    for c in COMMANDS {
        eprintln!("  {:<38} {}", c.usage, c.about);
    }
    eprintln!(
        "\nuniform flags: --seed S, --threads N, --out FILE (write the JSON summary to FILE)"
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = Cli::parse(&args);
    let Some(cmd) = cli.positionals.first().map(String::as_str).and_then(command) else {
        usage();
        return ExitCode::FAILURE;
    };
    match (cmd.run)(&cli) {
        Ok(summary) => {
            if let Some(path) = cli.out() {
                if let Err(e) = std::fs::write(path, summary.pretty()) {
                    eprintln!("error: cannot write {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
