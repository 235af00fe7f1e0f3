//! Determinism properties of the deploy pipeline: for any depth
//! ≥ 1, [`DeployPipeline`] must produce bit-identical per-job outcomes and
//! final knowledge-base contents to the sequential loop, over both
//! deployer backends.

use disar_core::deploy::{DeployPolicy, ShardedDeployer, TransparentDeployer};
use disar_core::{DeployPipeline, PipelineJob};
use disar_math::check::cases;
use disar_math::rng::Xoshiro256PlusPlus;

mod common;
use common::{policy, provider, run_jobs, schedule, workload};

/// What the two replay properties draw: a seed, a pipeline depth, a job list
/// and a retrain policy.
fn any_run(rng: &mut Xoshiro256PlusPlus) -> (u64, usize, Vec<PipelineJob>, DeployPolicy) {
    let (seed, depth) = (rng.gen_range(0u64..1_000), rng.gen_range(1usize..6));
    let n_jobs = rng.gen_range(6usize..22);
    let policy = policy(rng.gen_range(4usize..10), rng.gen_range(1usize..4));
    let jobs = schedule(0, n_jobs, rng.gen_range(0usize..6));
    (seed, depth, jobs, policy)
}

/// Monolithic backend: any pipeline depth replays the sequential loop
/// bit for bit — same per-job outcomes, same final knowledge base.
#[test]
fn monolithic_pipeline_matches_sequential() {
    cases(12, |rng| {
        let (seed, depth, jobs, policy) = any_run(rng);
        let mk = || TransparentDeployer::new(provider(seed), policy, seed);
        let mut seq_d = mk();
        let seq_outs = run_jobs(&mut seq_d, &jobs);
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
        let mut seq_d = mk();
        let seq_outs = run_jobs(&mut seq_d, &jobs);
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
        let jobs = schedule(0, rng.gen_range(4usize..14), 4);
        let wl = workload(100);
        let mk = || TransparentDeployer::new(provider(seed), policy(6, 2), seed);
        let mut seq_d = mk();
        run_jobs(&mut seq_d, &jobs);
        let mut pipe = DeployPipeline::new(mk(), depth).expect("depth >= 1");
        pipe.run(&jobs).expect("pipeline deploys succeed");
        let a = seq_d
            .provider()
            .run_job("c3.4xlarge", 2, &wl)
            .expect("runs");
        let b = pipe
            .deployer()
            .provider()
            .run_job("c3.4xlarge", 2, &wl)
            .expect("runs");
        assert_eq!(a, b);
    });
}
