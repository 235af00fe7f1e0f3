//! The self-optimizing loop in action: watch the provisioner learn.
//!
//! Simulates a quarter of operations: many Solvency II jobs of varying
//! size arrive, each is deployed to the cheapest configuration predicted to
//! meet the deadline, and every completed run sharpens the models.
//!
//! ```text
//! cargo run --release --example elastic_provisioning
//! ```

use disar_suite::cloudsim::{CloudProvider, InstanceCatalog};
use disar_suite::core::deploy::{DeployMode, DeployPolicy, Deployer, TransparentDeployer};
use disar_suite::core::{select_configuration, JobProfile, PredictorFamily, RetrainMode};
use disar_suite::engine::EebCharacteristics;
use disar_suite::math::rng::stream_rng;
use disar_suite::math::stats;

/// Builds a job of the given size class (a stand-in for DiMaS complexity
/// estimation; see `disar-engine` for the real pipeline).
fn job(contracts: usize, horizon: u32) -> (JobProfile, disar_suite::cloudsim::Workload) {
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
    let work = 0.12 * contracts as f64 * horizon as f64;
    let wl = disar_suite::cloudsim::Workload::new(
        work,
        0.02 * contracts as f64,
        0.8 * contracts as f64,
        0.05,
    )
    .expect("valid workload");
    (profile, wl)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let t_max = 2_000.0;
    let provider = CloudProvider::new(InstanceCatalog::paper_catalog(), 1);
    let policy = DeployPolicy::builder(t_max).min_kb_samples(25).build();
    let mut deployer = TransparentDeployer::new(provider, policy, 1);
    let mut rng = stream_rng(99, 0);

    println!("deploying 120 Solvency II jobs with T_max = {t_max}s, ε = 0.05\n");
    let mut window_errors: Vec<f64> = Vec::new();
    for i in 1..=120 {
        let contracts = rng.gen_range(100..600);
        let horizon = rng.gen_range(10..40);
        let (profile, wl) = job(contracts, horizon);
        let out = deployer.deploy(&profile, &wl)?;
        if let Some(err) = out.prediction_error() {
            window_errors.push(err.abs() / out.report.duration_secs);
        }
        if i % 20 == 0 {
            let mode = match out.mode {
                DeployMode::Bootstrap => "bootstrap",
                DeployMode::Manual => "manual",
                DeployMode::MlGreedy => "ml-greedy",
                DeployMode::MlExplored => "ml-explore",
            };
            println!(
                "after {i:>3} deploys: last pick {:>11} x{} ({mode}), mean |rel err| last 20 ML deploys: {}",
                out.report.instance,
                out.report.n_nodes,
                if window_errors.is_empty() {
                    "n/a".to_string()
                } else {
                    let tail = &window_errors[window_errors.len().saturating_sub(20)..];
                    format!("{:.1}%", 100.0 * stats::mean(tail))
                }
            );
        }
    }

    // Show the frontier Algorithm 1 reasons over for one concrete job.
    println!("\nAlgorithm 1 view of a 400-contract / 25-year job:");
    let (profile, _) = job(400, 25);
    let mut family = PredictorFamily::new(5, 2);
    family.retrain(deployer.knowledge_base(), RetrainMode::Full, 1)?;
    let sel = select_configuration(
        &family,
        deployer.provider().catalog(),
        &profile,
        t_max,
        8,
        0.0,
        7,
    )?;
    println!("  {:>12} {:>3} {:>10} {:>10}", "instance", "n", "pred time", "pred cost");
    for c in sel.feasible.iter().take(8) {
        println!(
            "  {:>12} {:>3} {:>9.0}s {:>9.4}$",
            c.instance, c.n_nodes, c.predicted_secs, c.predicted_cost
        );
    }
    println!(
        "  -> chosen: {} x{} ({} feasible configurations under T_max)",
        sel.chosen.instance,
        sel.chosen.n_nodes,
        sel.feasible.len()
    );
    Ok(())
}
