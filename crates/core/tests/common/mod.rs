//! Fixtures the property files of this crate share.
#![allow(dead_code)] // every file uses a subset

use disar_cloudsim::{CloudProvider, InstanceCatalog, Workload};
use disar_core::deploy::{DeployOutcome, DeployPolicy, Deployer};
use disar_core::{JobProfile, KnowledgeBase, PipelineJob, PredictorFamily, RetrainMode, RunRecord};
use disar_engine::EebCharacteristics;
use std::sync::OnceLock;

pub fn profile(contracts: usize) -> JobProfile {
    JobProfile {
        characteristics: EebCharacteristics {
            representative_contracts: contracts,
            max_horizon: 20,
            fund_assets: 30,
            risk_factors: 2,
        },
        n_outer: 1000,
        n_inner: 50,
    }
}

pub fn workload(contracts: usize) -> Workload {
    Workload::new(
        30.0 * contracts as f64,
        0.02 * contracts as f64,
        0.8 * contracts as f64,
        0.05,
    )
    .expect("valid workload")
}

pub fn provider(seed: u64) -> CloudProvider {
    CloudProvider::new(InstanceCatalog::paper_catalog(), seed)
}

pub fn policy(min_kb_samples: usize, retrain_every: usize) -> DeployPolicy {
    DeployPolicy::builder(50_000.0)
        .max_nodes(4)
        .min_kb_samples(min_kb_samples)
        .retrain_every(retrain_every)
        .build()
}

/// Tenant `ix`'s job list: mostly auto (deployer-chosen) jobs with a sprinkle
/// of operator-forced ones, like a real campaign's manual training phase, and
/// unique to the tenant, so concurrent schedules never coincide.
pub fn schedule(ix: usize, n_jobs: usize, forced_every: usize) -> Vec<PipelineJob> {
    let names = InstanceCatalog::paper_catalog().names();
    (0..n_jobs)
        .map(|i| {
            let c = 60 + (i * 37 + ix * 13) % 320;
            if forced_every > 0 && i % forced_every == forced_every - 1 {
                let instance = &names[(i + ix) % names.len()];
                PipelineJob::forced(profile(c), workload(c), instance, 1 + i % 3)
            } else {
                PipelineJob::auto(profile(c), workload(c))
            }
        })
        .collect()
}

/// The sequential loop, one deploy after another: the reference that the
/// service and the other backends must replay.
pub fn run_jobs<D: Deployer>(d: &mut D, jobs: &[PipelineJob]) -> Vec<DeployOutcome> {
    jobs.iter()
        .map(|j| match &j.forced {
            Some((instance, n_nodes)) => d
                .deploy_manual(&j.profile, &j.workload, instance, *n_nodes)
                .expect("deploys succeed"),
            None => d.deploy(&j.profile, &j.workload).expect("deploys succeed"),
        })
        .collect()
}

/// One shared trained family (training is the slow part).
pub fn family() -> &'static (PredictorFamily, InstanceCatalog) {
    static CELL: OnceLock<(PredictorFamily, InstanceCatalog)> = OnceLock::new();
    CELL.get_or_init(|| {
        let cat = InstanceCatalog::paper_catalog();
        let names = cat.names();
        let mut kb = KnowledgeBase::new();
        for i in 0..300 {
            let inst = cat.get(&names[i % names.len()]).expect("known");
            let nodes = i % 6 + 1;
            let contracts = 50 + (i * 53) % 400;
            let time = 40_000.0 * contracts as f64 / 100.0 / (inst.compute_power() * nodes as f64);
            kb.record(RunRecord::new(profile(contracts), inst, nodes, time, 0.0));
        }
        let mut fam = PredictorFamily::new(5, 2);
        fam.retrain(&kb, RetrainMode::Full, 1)
            .expect("large enough");
        (fam, cat)
    })
}
