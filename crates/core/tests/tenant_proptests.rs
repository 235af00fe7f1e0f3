//! Property tests of the tenant-aware two-key layer.
//!
//! The contract under test:
//!
//! 1. with a single tenant, [`TenantShardedDeployer`] is bit-identical —
//!    selections, realized runs and knowledge-base contents — to the
//!    instance-sharded [`ShardedDeployer`] over full auto campaigns, and
//!    to **both** single-tenant backends (including the monolithic
//!    [`TransparentDeployer`]) over operator-forced streams;
//! 2. under [`TransferPolicy::Isolated`], tenant A's predictions are
//!    invariant under arbitrary tenant-B insertions;
//! 3. [`TransferPolicy::BorrowUntil`] crossovers are deterministic: the
//!    pooled→local flip happens exactly at the threshold and replays
//!    bit-identically.

use disar_cloudsim::InstanceCatalog;
use disar_core::deploy::{
    DeployOutcome, DeployPolicy, Deployer, ShardedDeployer, TransparentDeployer,
};
use disar_core::tenant::{
    TenantId, TenantShardedDeployer, TenantShardedKnowledgeBase, TenantShardedPredictor,
    TransferPolicy,
};
use disar_core::{RetrainMode, RunRecord, TimePredictor};
use disar_math::check::{cases, vec_of};

mod common;
use common::{profile, provider, run_jobs, schedule, workload};

fn policy(min_kb_samples: usize, retrain_every: usize, transfer: TransferPolicy) -> DeployPolicy {
    DeployPolicy {
        transfer,
        ..common::policy(min_kb_samples, retrain_every)
    }
}

/// Drives one deployer through a mixed auto/forced campaign.
fn campaign<D: Deployer>(d: &mut D, n_jobs: usize, forced_every: usize) -> Vec<DeployOutcome> {
    run_jobs(d, &schedule(0, n_jobs, forced_every))
}

/// Single tenant, Isolated or Pooled: the tenant-aware backend replays
/// the instance-sharded backend bit for bit across the full bootstrap →
/// ML campaign — selections, realized runs and the canonical record
/// stream. (Under one tenant the two-key partition and the pooled
/// partition both collapse to the per-instance partition.)
#[test]
fn single_tenant_matches_sharded_deployer() {
    cases(10, |rng| {
        let (seed, n_jobs) = (rng.gen_range(0u64..500), rng.gen_range(20usize..45));
        let (min_kb_samples, retrain_every) = (rng.gen_range(4usize..10), rng.gen_range(1usize..4));
        let forced_every = rng.gen_range(0usize..6);
        let transfer = if rng.gen_bool(0.5) {
            TransferPolicy::Pooled
        } else {
            TransferPolicy::Isolated
        };
        let mut tenant_d = TenantShardedDeployer::new(
            provider(seed),
            policy(min_kb_samples, retrain_every, transfer),
            seed,
        );
        let mut sharded_d = ShardedDeployer::new(
            provider(seed),
            policy(min_kb_samples, retrain_every, transfer),
            seed,
        );
        let t_outs = campaign(&mut tenant_d, n_jobs, forced_every);
        let s_outs = campaign(&mut sharded_d, n_jobs, forced_every);
        assert_eq!(&t_outs, &s_outs);
        assert_eq!(
            tenant_d.knowledge_base().to_monolithic(),
            sharded_d.knowledge_base().to_monolithic()
        );
    });
}

/// Operator-forced streams never consult a predictor, so all three
/// backends — monolithic, instance-sharded and tenant-aware — must
/// produce identical outcomes and identical canonical record streams.
#[test]
fn all_backends_agree_on_forced_streams() {
    cases(10, |rng| {
        let (seed, n_jobs) = (rng.gen_range(0u64..500), rng.gen_range(4usize..16));
        let mk_policy = || policy(6, 1, TransferPolicy::Isolated);
        let mut mono = TransparentDeployer::new(provider(seed), mk_policy(), seed);
        let mut sharded = ShardedDeployer::new(provider(seed), mk_policy(), seed);
        let mut tenant = TenantShardedDeployer::new(provider(seed), mk_policy(), seed);
        let m_outs = campaign(&mut mono, n_jobs, 1);
        let s_outs = campaign(&mut sharded, n_jobs, 1);
        let t_outs = campaign(&mut tenant, n_jobs, 1);
        assert_eq!(&m_outs, &s_outs);
        assert_eq!(&m_outs, &t_outs);
        let m_kb = mono.into_knowledge_base();
        assert_eq!(&sharded.into_knowledge_base().to_monolithic(), &m_kb);
        assert_eq!(&tenant.into_knowledge_base().to_monolithic(), &m_kb);
    });
}

/// Isolation: under [`TransferPolicy::Isolated`], tenant A's
/// predictions do not move — to the bit — no matter what tenant B
/// records (arbitrary instances, node counts and volumes).
#[test]
fn isolated_predictions_invariant_under_foreign_insertions() {
    cases(10, |rng| {
        let seed = rng.gen_range(0u64..500);
        let b_inserts = vec_of(rng, 1..12, |rng| {
            (
                rng.gen_range(0usize..6),
                rng.gen_range(1usize..4),
                rng.gen_range(50usize..400),
            )
        });
        let a = TenantId::new("acme-life");
        let mut d = TenantShardedDeployer::new(
            provider(seed),
            policy(6, 1, TransferPolicy::Isolated),
            seed,
        )
        .with_tenant(a.clone());
        // Drive tenant A through a fixed campaign (long enough to train
        // every local shard).
        campaign(&mut d, 30, 3);

        let cat = InstanceCatalog::paper_catalog();
        let names = cat.names();
        let probe = |d: &TenantShardedDeployer| -> Vec<Vec<(&'static str, f64)>> {
            let view = d.predictor().view(&a, d.knowledge_base().local_lens(&a));
            names
                .iter()
                .filter(|n| d.predictor().is_trained_local(n.as_str(), &a))
                .map(|n| {
                    view.predict_each(&profile(150), cat.get(n).expect("known"), 2)
                        .expect("trained local shard answers")
                })
                .collect()
        };
        let before = probe(&d);
        assert!(!before.is_empty(), "no local shard trained after 30 runs");

        // Tenant B lands arbitrary runs.
        d.set_tenant(TenantId::new("bolt-re"));
        for &(inst_idx, n_nodes, contracts) in &b_inserts {
            d.deploy_manual(
                &profile(contracts),
                &workload(contracts),
                &names[inst_idx % names.len()],
                n_nodes,
            )
            .expect("deploys succeed");
        }
        d.set_tenant(a.clone());

        let after = probe(&d);
        assert_eq!(before.len(), after.len());
        for (b, aft) in before.iter().zip(&after) {
            for ((mb, vb), (ma, va)) in b.iter().zip(aft) {
                assert_eq!(mb, ma);
                assert_eq!(
                    vb.to_bits(),
                    va.to_bits(),
                    "{} moved after tenant-B insertions",
                    mb
                );
            }
        }
    });
}

/// BorrowUntil crossover: the pooled→local flip happens exactly at the
/// threshold, and both the flip point and the predictions on each side
/// replay bit-identically.
#[test]
fn borrow_until_crossover_is_deterministic() {
    cases(10, |rng| {
        let (seed, threshold) = (rng.gen_range(0u64..500), rng.gen_range(1usize..12));
        let a = TenantId::new("acme-life");
        let b = TenantId::new("bolt-re");
        let cat = InstanceCatalog::paper_catalog();
        let names = cat.names();
        let build = || {
            let mut kb = TenantShardedKnowledgeBase::new();
            for i in 0..48 {
                // Flip the tenant once per pass over the catalog: `i % 2` would
                // alias with `i % names.len()` and give each type one tenant.
                let tenant = if (i / names.len()).is_multiple_of(2) {
                    a.clone()
                } else {
                    b.clone()
                };
                let inst = cat.get(&names[i % names.len()]).expect("known");
                let contracts = 50 + (i * 53 + seed as usize) % 400;
                let time = 40_000.0 * contracts as f64
                    / 100.0
                    / (inst.compute_power() * (i % 4 + 1) as f64);
                kb.record(
                    RunRecord::new(profile(contracts), inst, i % 4 + 1, time, 0.0)
                        .with_tenant(tenant),
                );
            }
            let mut p =
                TenantShardedPredictor::new(seed, 2, TransferPolicy::BorrowUntil(threshold));
            p.retrain_all(&kb, RetrainMode::Full, 1)
                .expect("large enough shards");
            (kb, p)
        };
        let (kb, p) = build();
        let (kb2, p2) = build();
        assert_eq!(&kb, &kb2);

        let instance = &names[0];
        let inst = cat.get(instance).expect("known");
        let predict = |p: &TenantShardedPredictor, lens: usize| {
            let view = p.view(
                &a,
                std::collections::BTreeMap::from([(instance.clone(), lens)]),
            );
            view.predict_each(&profile(150), inst, 2).expect("trained")
        };
        for lens in 0..(2 * threshold) {
            let flipped = lens >= threshold;
            // The routed family is the pooled one below the threshold and
            // the local one at/after it.
            let want = if flipped {
                p.local_family(instance, &a).expect("trained")
            } else {
                p.pooled_family(instance).expect("trained")
            };
            let got = p.route(instance, &a, lens).expect("routes");
            let got_pred = got.predict_each(&profile(150), inst, 2).expect("trained");
            let want_pred = want.predict_each(&profile(150), inst, 2).expect("trained");
            assert_eq!(&got_pred, &want_pred);
            // And the whole view replays bit-identically across builds.
            let (aa, bb) = (predict(&p, lens), predict(&p2, lens));
            for ((ma, va), (mb, vb)) in aa.iter().zip(&bb) {
                assert_eq!(ma, mb);
                assert_eq!(va.to_bits(), vb.to_bits());
            }
        }
    });
}
