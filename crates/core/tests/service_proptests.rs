//! Property tests of the concurrent multi-tenant deploy service.
//!
//! The contract under test:
//!
//! 1. **per-tenant bit-identity** — for 1–8 concurrently submitting
//!    tenants under [`TransferPolicy::Isolated`], every tenant's outcome
//!    stream and final shard contents through [`DeployService`] equal
//!    that tenant running *alone*, sequentially, through
//!    [`TenantShardedDeployer`] — for any pipeline depth, queue capacity,
//!    ingest batch size, retrain cadence and auto/forced job mix;
//! 2. **backpressure** — a full submission queue rejects with
//!    [`disar_core::CoreError::Backpressure`], deterministically, and the
//!    admitted prefix still lands bit-identically;
//! 3. **snapshot-swap linearizability** — concurrent observers only ever
//!    see whole snapshots: generations monotone, families never
//!    half-rebuilt (each family's `trained_on` is per-key monotone across
//!    observed generations and never exceeds the records landed).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use disar_cloudsim::{CloudProvider, InstanceCatalog};
use disar_core::deploy::{DeployOutcome, DeployPolicy};
use disar_core::pipeline::PipelineJob;
use disar_core::service::{DeployService, ServiceConfig, TenantHandle};
use disar_core::tenant::{TenantId, TenantShardedDeployer};
use disar_core::CoreError;
use disar_math::check::cases;

mod common;
use common::{policy, run_jobs, schedule};

fn tenant_seed(base_seed: u64, ix: usize) -> u64 {
    base_seed.wrapping_mul(1_000_003).wrapping_add(ix as u64)
}

/// Ground truth: the tenant alone, sequentially, through the solo two-key
/// deployer (fresh provider from the same seed).
fn solo_run(
    seed: u64,
    tenant: &TenantId,
    jobs: &[PipelineJob],
    pol: &DeployPolicy,
) -> (Vec<DeployOutcome>, TenantShardedDeployer) {
    let provider = CloudProvider::new(InstanceCatalog::paper_catalog(), seed);
    let mut solo = TenantShardedDeployer::new(provider, *pol, seed).with_tenant(tenant.clone());
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
        let (depth, batch_max) = (rng.gen_range(1usize..4), rng.gen_range(1usize..9));
        let schedules: Vec<Vec<PipelineJob>> = (0..n_tenants)
            .map(|i| schedule(i, n_jobs, forced_every))
            .collect();
        let config = ServiceConfig {
            depth,
            queue_capacity: n_jobs + 1,
            batch_max,
        };
        let (mut service, tenants, handles) = service_with(pol, config, base_seed, n_tenants);
        service.start().expect("service starts");
        // Round-robin interleave so every tenant is genuinely concurrent.
        for j in 0..n_jobs {
            for (h, schedule) in handles.iter().zip(&schedules) {
                h.submit(schedule[j].clone())
                    .expect("queue sized for the schedule");
            }
        }
        for (i, h) in handles.into_iter().enumerate() {
            let run = h.finish().expect("tenant stream succeeds");
            let (expected, solo) =
                solo_run(tenant_seed(base_seed, i), &tenants[i], &schedules[i], &pol);
            assert_eq!(
                &run.outcomes, &expected,
                "tenant {} diverged from its solo run",
                i
            );
            assert_eq!(run.stats.jobs, n_jobs);
            // Final shard contents match the solo base shard-for-shard.
            for (key, shard) in solo.knowledge_base().shards() {
                let got = service
                    .shard(&key.0, &key.1)
                    .expect("service holds every solo shard");
                assert_eq!(got.records(), shard.records());
            }
        }
        let stats = service.join().expect("clean shutdown");
        assert_eq!(stats.admitted, n_tenants * n_jobs);
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.pipeline.jobs, n_tenants * n_jobs);
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
            depth: 2,
            queue_capacity,
            batch_max: 4,
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

/// Property 3: snapshot swaps are linearizable from a concurrent
/// observer's point of view — generations move forward only, and a
/// family observed at a later generation was trained on at least as
/// many records as at any earlier one (no half-rebuilt snapshot is
/// ever visible).
#[test]
fn snapshot_swaps_are_linearizable() {
    cases(8, |rng| {
        let base_seed = rng.gen_range(0u64..300);
        let (n_tenants, n_jobs) = (rng.gen_range(2usize..5), rng.gen_range(8usize..14));
        let batch_max = rng.gen_range(1usize..6);
        let pol = policy(4, 1);
        let config = ServiceConfig {
            depth: 2,
            queue_capacity: n_jobs + 1,
            batch_max,
        };
        let (mut service, _, handles) = service_with(pol, config, base_seed, n_tenants);
        service.start().expect("service starts");

        let service = Arc::new(service);
        let stop = Arc::new(AtomicBool::new(false));
        let observer = {
            let service = Arc::clone(&service);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut last_generation = 0u64;
                let mut watermarks: BTreeMap<(String, TenantId), usize> = BTreeMap::new();
                let mut observations = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let snap = service.snapshot();
                    assert!(
                        snap.generation() >= last_generation,
                        "snapshot generation went backwards: {} < {}",
                        snap.generation(),
                        last_generation,
                    );
                    last_generation = snap.generation();
                    for (key, family) in snap.families() {
                        assert!(family.is_trained(), "published family untrained");
                        let seen = watermarks.entry(key.clone()).or_insert(0);
                        assert!(
                            family.trained_on() >= *seen,
                            "family {:?} shrank: {} < {}",
                            key,
                            family.trained_on(),
                            *seen,
                        );
                        *seen = family.trained_on();
                    }
                    observations += 1;
                    std::thread::yield_now();
                }
                observations
            })
        };

        for j in 0..n_jobs {
            for (i, h) in handles.iter().enumerate() {
                h.submit(schedule(i, n_jobs, 0)[j].clone()).unwrap();
            }
        }
        for h in handles {
            h.finish().expect("tenant stream succeeds");
        }
        stop.store(true, Ordering::Relaxed);
        let observations = observer.join().expect("observer clean");
        assert!(observations > 0);

        let final_snap = service.snapshot();
        // Every tenant landed n_jobs records, so no family can claim more.
        for ((_, tenant), family) in final_snap.families() {
            assert!(family.trained_on() <= n_jobs, "tenant {:?}", tenant);
        }
        let service = Arc::try_unwrap(service)
            .ok()
            .expect("observer released the service");
        let stats = service.join().expect("clean shutdown");
        assert!(stats.snapshot_generation > 0);
        assert!(stats.retrains > 0);
    });
}
