//! Property tests of the multi-tenant deploy service.
//!
//! The contract under test:
//!
//! 1. **per-tenant bit-identity** — for 1–8 tenants, every tenant's
//!    outcome stream, final shard contents and retrain count through
//!    [`DeployService`] equal that tenant running *alone*, sequentially,
//!    through its own [`ShardedDeployer`] — for any interleaving of submissions,
//!    from one thread or from a thread per tenant, queue capacity, retrain
//!    cadence and auto/forced job mix;
//! 2. **backpressure** — a full submission queue rejects with
//!    [`disar_core::CoreError::Backpressure`], deterministically, and the
//!    admitted prefix still lands bit-identically.

use std::sync::Barrier;

use disar_cloudsim::{CloudProvider, InstanceCatalog};
use disar_core::deploy::{DeployOutcome, DeployPolicy};
use disar_core::service::{DeployService, PipelineJob, ServiceConfig, TenantHandle, TenantRun};
use disar_core::{CoreError, ShardedDeployer, TenantId};
use disar_math::check::cases;

mod common;
use common::{policy, run_jobs, schedule};

fn tenant_seed(base_seed: u64, ix: usize) -> u64 {
    base_seed.wrapping_mul(1_000_003).wrapping_add(ix as u64)
}

/// Ground truth: the tenant alone, sequentially, through its own sharded
/// deployer (fresh provider from the same seed).
fn solo_run(
    seed: u64,
    tenant: &TenantId,
    jobs: &[PipelineJob],
    pol: &DeployPolicy,
) -> (Vec<DeployOutcome>, ShardedDeployer) {
    let provider = CloudProvider::new(InstanceCatalog::paper_catalog(), seed);
    let mut solo = ShardedDeployer::new(provider, *pol, seed).with_tenant(tenant.clone());
    let outcomes = run_jobs(&mut solo, jobs);
    (outcomes, solo)
}

/// A service over the paper catalog, not yet started, with tenants
/// `company-0..n_tenants` registered under their `tenant_seed`s.
fn service_with(
    pol: DeployPolicy,
    config: ServiceConfig,
    base_seed: u64,
    n_tenants: usize,
) -> (DeployService, Vec<TenantId>, Vec<TenantHandle>) {
    let mut service =
        DeployService::new(InstanceCatalog::paper_catalog(), pol, config).expect("valid service");
    let tenants: Vec<TenantId> = (0..n_tenants)
        .map(|i| TenantId::new(format!("company-{i}")))
        .collect();
    let handles = (0..n_tenants)
        .map(|i| {
            service
                .register(tenants[i].clone(), tenant_seed(base_seed, i))
                .unwrap()
        })
        .collect();
    (service, tenants, handles)
}

/// Property 1: per-tenant bit-identity under concurrency. N tenants
/// submit interleaved schedules; each tenant's outcomes and final
/// shards equal its solo run.
#[test]
fn concurrent_tenants_bit_identical_to_solo() {
    cases(8, |rng| {
        let base_seed = rng.gen_range(0u64..300);
        let (n_tenants, n_jobs) = (rng.gen_range(1usize..=8), rng.gen_range(8usize..16));
        let pol = policy(rng.gen_range(4usize..8), rng.gen_range(1usize..4));
        let forced_every = rng.gen_range(0usize..5);
        let schedules: Vec<Vec<PipelineJob>> = (0..n_tenants)
            .map(|i| schedule(i, n_jobs, forced_every))
            .collect();
        let config = ServiceConfig {
            queue_capacity: n_jobs + 1,
            ..ServiceConfig::default()
        };
        let (mut service, tenants, handles) = service_with(pol, config, base_seed, n_tenants);
        service.start().expect("service starts");
        // Round-robin interleave, so that every tenant's jobs wait among the
        // others'.
        for j in 0..n_jobs {
            for (h, schedule) in handles.iter().zip(&schedules) {
                h.submit(schedule[j].clone())
                    .expect("queue sized for the schedule");
            }
        }
        let mut retrains = 0;
        for (i, h) in handles.into_iter().enumerate() {
            let run = h.finish().expect("tenant stream succeeds");
            let (expected, solo) =
                solo_run(tenant_seed(base_seed, i), &tenants[i], &schedules[i], &pol);
            retrains += solo.retrains();
            assert_eq!(
                &run.outcomes, &expected,
                "tenant {} diverged from its solo run",
                i
            );
            assert_eq!(run.stats.jobs, n_jobs);
            // Final shard contents match the solo base shard-for-shard.
            for (instance, shard) in solo.knowledge_base().shards() {
                let got = service
                    .shard(instance, &tenants[i])
                    .expect("service holds every solo shard");
                assert_eq!(got.records(), shard.records());
            }
        }
        let stats = service.join().expect("clean shutdown");
        assert_eq!(stats.admitted, n_tenants * n_jobs);
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.pipeline.jobs, n_tenants * n_jobs);
        assert_eq!(stats.retrains, retrains);
    });
}

/// Property 2: a full queue rejects deterministically with
/// `Backpressure`, and the admitted prefix still lands bit-identically
/// to the solo run over that prefix.
#[test]
fn backpressure_rejects_overflow_and_keeps_prefix_identity() {
    cases(8, |rng| {
        let base_seed = rng.gen_range(0u64..300);
        let (queue_capacity, overflow) = (rng.gen_range(1usize..6), rng.gen_range(1usize..4));
        let pol = policy(4, rng.gen_range(1usize..3));
        let jobs = schedule(0, queue_capacity + overflow, 0);
        let config = ServiceConfig {
            queue_capacity,
            ..ServiceConfig::default()
        };
        let (mut service, tenants, mut handles) = service_with(pol, config, base_seed, 1);
        let handle = handles.remove(0);
        // The service is not started: nothing drains, so exactly
        // `queue_capacity` jobs fit and the rest bounce.
        for j in &jobs[..queue_capacity] {
            assert!(handle.submit(j.clone()).is_ok());
        }
        for j in &jobs[queue_capacity..] {
            match handle.submit(j.clone()) {
                Err(CoreError::Backpressure { capacity }) => {
                    assert_eq!(capacity, queue_capacity);
                }
                other => panic!("expected Backpressure, got {other:?}"),
            }
        }
        service.start().expect("service starts");
        let run = handle.finish().expect("admitted prefix succeeds");
        let prefix = &jobs[..queue_capacity];
        let (expected, _) = solo_run(tenant_seed(base_seed, 0), &tenants[0], prefix, &pol);
        assert_eq!(run.outcomes, expected);
        let stats = service.join().expect("clean shutdown");
        assert_eq!(stats.submitted, queue_capacity + overflow);
        assert_eq!(stats.admitted, queue_capacity);
        assert_eq!(stats.rejected, overflow);
        assert_eq!(stats.max_queue_depth, queue_capacity);
    });
}

/// Property 3: tenants that each submit from their own thread, all released
/// at once, still each get their solo run.
#[test]
fn tenants_submitting_from_their_own_threads_match_solo() {
    cases(4, |rng| {
        let base_seed = rng.gen_range(0u64..300);
        let (n_tenants, n_jobs) = (rng.gen_range(2usize..=6), rng.gen_range(8usize..14));
        let pol = policy(rng.gen_range(4usize..8), rng.gen_range(1usize..3));
        let forced_every = rng.gen_range(0usize..4);
        let config = ServiceConfig {
            queue_capacity: n_jobs,
            ..ServiceConfig::default()
        };
        let (mut service, tenants, handles) = service_with(pol, config, base_seed, n_tenants);
        service.start().expect("service starts");
        let barrier = Barrier::new(n_tenants);
        let runs: Vec<TenantRun> = std::thread::scope(|s| {
            let submitters: Vec<_> = handles
                .into_iter()
                .enumerate()
                .map(|(i, h)| {
                    let barrier = &barrier;
                    s.spawn(move || {
                        let jobs = schedule(i, n_jobs, forced_every);
                        barrier.wait();
                        for job in jobs {
                            h.submit(job).expect("queue sized for the schedule");
                        }
                        h.finish().expect("tenant stream succeeds")
                    })
                })
                .collect();
            submitters
                .into_iter()
                .map(|t| t.join().expect("submitter panicked"))
                .collect()
        });
        for (i, run) in runs.iter().enumerate() {
            let jobs = schedule(i, n_jobs, forced_every);
            let (expected, _) = solo_run(tenant_seed(base_seed, i), &tenants[i], &jobs, &pol);
            assert_eq!(
                run.outcomes, expected,
                "tenant {i} diverged from its solo run"
            );
        }
        service.join().expect("clean shutdown");
    });
}
