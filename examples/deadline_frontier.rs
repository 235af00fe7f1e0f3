//! Sweep the regulatory deadline `T_max` and watch Algorithm 1 trade money
//! for time: tight deadlines force big multi-node deploys of premium
//! instances, loose ones let a single cheap VM crawl through the job.
//!
//! ```text
//! cargo run --release --example deadline_frontier
//! ```

use disar_suite::cloudsim::{CloudProvider, InstanceCatalog, Workload};
use disar_suite::core::deploy::{DeployPolicy, Deployer, TransparentDeployer};
use disar_suite::core::{select_configuration, CoreError, JobProfile, PredictorFamily, RetrainMode};
use disar_suite::engine::EebCharacteristics;
use disar_suite::math::rng::stream_rng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Warm a knowledge base with 150 varied runs (bootstrap + ML).
    let provider = CloudProvider::new(InstanceCatalog::paper_catalog(), 3);
    let policy = DeployPolicy::builder(50_000.0)
        .epsilon(0.15) // explore hard while warming up
        .retrain_every(5)
        .build();
    let mut deployer = TransparentDeployer::new(provider, policy, 3);
    let mut rng = stream_rng(17, 0);
    for _ in 0..150 {
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
        deployer.deploy(&profile, &wl)?;
    }
    println!(
        "knowledge base warmed with {} runs\n",
        deployer.knowledge_base().len()
    );

    // The job we sweep the deadline for.
    let profile = JobProfile {
        characteristics: EebCharacteristics {
            representative_contracts: 500,
            max_horizon: 30,
            fund_assets: 40,
            risk_factors: 2,
        },
        n_outer: 1000,
        n_inner: 50,
    };
    let mut family = PredictorFamily::new(9, 2);
    family.retrain(deployer.knowledge_base(), RetrainMode::Full, 1)?;

    println!(
        "{:>9} | {:>12} {:>3} | {:>10} | {:>10} | feasible",
        "T_max", "instance", "n", "pred time", "pred cost"
    );
    println!("{}", "-".repeat(66));
    for t_max in [40.0, 80.0, 120.0, 200.0, 400.0, 1200.0] {
        match select_configuration(
            &family,
            deployer.provider().catalog(),
            &profile,
            t_max,
            8,
            0.0,
            1,
        ) {
            Ok(sel) => println!(
                "{:>8}s | {:>12} {:>3} | {:>9.0}s | {:>9.4}$ | {:>3}",
                t_max,
                sel.chosen.instance,
                sel.chosen.n_nodes,
                sel.chosen.predicted_secs,
                sel.chosen.predicted_cost,
                sel.feasible.len()
            ),
            Err(CoreError::NoFeasibleConfiguration { best_predicted, .. }) => println!(
                "{:>8}s | {:^18} | best predicted {:.0}s — deadline unattainable",
                t_max, "-- none --", best_predicted
            ),
            Err(e) => return Err(e.into()),
        }
    }
    println!(
        "\nreading: tight deadlines admit only big deploys (higher cost); as the\n\
         deadline relaxes, Algorithm 1 migrates to fewer nodes of cheaper types."
    );
    Ok(())
}
