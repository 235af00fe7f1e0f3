//! Determinism properties of the deploy pipeline: for any depth
//! ≥ 1, [`DeployPipeline`] must produce bit-identical per-job outcomes and
//! final knowledge-base contents to the sequential loop, over both
//! deployer backends.

use disar_cloudsim::InstanceCatalog;
use disar_core::deploy::{DeployOutcome, DeployPolicy, Deployer, ShardedDeployer, TransparentDeployer};
use disar_core::{DeployPipeline, PipelineJob};
use disar_math::check::cases;
use disar_math::rng::Xoshiro256PlusPlus;

mod common;
use common::{policy, profile, provider, workload};

/// A mixed job list: mostly auto (deployer-chosen) jobs with a sprinkle of
/// operator-forced ones, like a real campaign's manual training phase.
fn jobs(n_jobs: usize, forced_every: usize) -> Vec<PipelineJob> {
    let names = InstanceCatalog::paper_catalog().names();
    (0..n_jobs)
        .map(|i| {
            let c = 60 + (i * 37) % 320;
            if forced_every > 0 && i % forced_every == forced_every - 1 {
                PipelineJob::forced(
                    profile(c),
                    workload(c),
                    &names[i % names.len()],
                    1 + i % 3,
                )
            } else {
                PipelineJob::auto(profile(c), workload(c))
            }
        })
        .collect()
}

/// What the two replay properties draw: a seed, a pipeline depth, a job list
/// and a retrain policy.
fn any_run(rng: &mut Xoshiro256PlusPlus) -> (u64, usize, Vec<PipelineJob>, DeployPolicy) {
    let (seed, depth) = (rng.gen_range(0u64..1_000), rng.gen_range(1usize..6));
    let n_jobs = rng.gen_range(6usize..22);
    let policy = policy(rng.gen_range(4usize..10), rng.gen_range(1usize..4));
    (seed, depth, jobs(n_jobs, rng.gen_range(0usize..6)), policy)
}

/// The pre-existing sequential loop, as the reference implementation.
fn sequential<D: Deployer>(mut d: D, jobs: &[PipelineJob]) -> (Vec<DeployOutcome>, D) {
    let outs = jobs
        .iter()
        .map(|j| match &j.forced {
            Some((instance, n_nodes)) => d
                .deploy_manual(&j.profile, &j.workload, instance, *n_nodes)
                .expect("deploys succeed"),
            None => d.deploy(&j.profile, &j.workload).expect("deploys succeed"),
        })
        .collect();
    (outs, d)
}

/// Monolithic backend: any pipeline depth replays the sequential loop
/// bit for bit — same per-job outcomes, same final knowledge base.
#[test]
fn monolithic_pipeline_matches_sequential() {
    cases(12, |rng| {
        let (seed, depth, jobs, policy) = any_run(rng);
        let mk = || TransparentDeployer::new(provider(seed), policy, seed);
        let (seq_outs, seq_d) = sequential(mk(), &jobs);
        let mut pipe = DeployPipeline::new(mk(), depth).expect("depth >= 1");
        let outs = pipe.run(&jobs).expect("pipeline deploys succeed");
        assert_eq!(&outs, &seq_outs);
        assert!(pipe.stats().max_in_flight <= depth);
        assert_eq!(
            pipe.into_deployer().knowledge_base(),
            seq_d.knowledge_base()
        );
    });
}

/// Sharded backend: the per-shard retrain gates make the readiness
/// rule instance-dependent; the pipeline must still replay the
/// sequential loop exactly.
#[test]
fn sharded_pipeline_matches_sequential() {
    cases(12, |rng| {
        let (seed, depth, jobs, policy) = any_run(rng);
        let mk = || ShardedDeployer::new(provider(seed), policy, seed);
        let (seq_outs, seq_d) = sequential(mk(), &jobs);
        let mut pipe = DeployPipeline::new(mk(), depth).expect("depth >= 1");
        let outs = pipe.run(&jobs).expect("pipeline deploys succeed");
        assert_eq!(&outs, &seq_outs);
        assert_eq!(
            pipe.into_deployer().knowledge_base(),
            seq_d.knowledge_base()
        );
    });
}

/// Both backends leave the provider's noise stream at the sequential
/// position: a follow-up run observes identical cloud conditions.
#[test]
fn pipeline_leaves_the_noise_stream_in_sequential_position() {
    cases(12, |rng| {
        let (seed, depth) = (rng.gen_range(0u64..500), rng.gen_range(2usize..6));
        let jobs = jobs(rng.gen_range(4usize..14), 4);
        let wl = workload(100);
        let mk = || TransparentDeployer::new(provider(seed), policy(6, 2), seed);
        let (_, seq_d) = sequential(mk(), &jobs);
        let mut pipe = DeployPipeline::new(mk(), depth).expect("depth >= 1");
        pipe.run(&jobs).expect("pipeline deploys succeed");
        let a = seq_d.provider().run_job("c3.4xlarge", 2, &wl).expect("runs");
        let b = pipe
            .deployer()
            .provider()
            .run_job("c3.4xlarge", 2, &wl)
            .expect("runs");
        assert_eq!(a, b);
    });
}
