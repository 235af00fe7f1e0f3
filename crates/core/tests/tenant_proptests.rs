//! Property-based tests of the tenant-aware two-key layer.
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

use disar_cloudsim::{CloudProvider, InstanceCatalog, Workload};
use disar_core::deploy::{DeployOutcome, DeployPolicy, Deployer, ShardedDeployer, TransparentDeployer};
use disar_core::tenant::{
    TenantId, TenantShardedDeployer, TenantShardedKnowledgeBase, TenantShardedPredictor,
    TransferPolicy,
};
use disar_core::{JobProfile, RetrainMode, RunRecord, TimePredictor};
use disar_engine::EebCharacteristics;
use proptest::prelude::*;

fn profile(contracts: usize) -> JobProfile {
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

fn workload(contracts: usize) -> Workload {
    Workload::new(
        30.0 * contracts as f64,
        0.02 * contracts as f64,
        0.8 * contracts as f64,
        0.05,
    )
    .expect("valid workload")
}

fn policy(min_kb_samples: usize, retrain_every: usize, transfer: TransferPolicy) -> DeployPolicy {
    DeployPolicy::builder(50_000.0)
        .max_nodes(4)
        .min_kb_samples(min_kb_samples)
        .retrain_every(retrain_every)
        .n_threads(1)
        .transfer(transfer)
        .build()
}

/// Drives one deployer through a mixed auto/forced campaign.
fn campaign<D: Deployer>(d: &mut D, n_jobs: usize, forced_every: usize) -> Vec<DeployOutcome> {
    let names = InstanceCatalog::paper_catalog().names();
    (0..n_jobs)
        .map(|i| {
            let c = 60 + (i * 37) % 320;
            if forced_every > 0 && i % forced_every == forced_every - 1 {
                d.deploy_manual(&profile(c), &workload(c), &names[i % names.len()], 1 + i % 3)
                    .expect("deploys succeed")
            } else {
                d.deploy(&profile(c), &workload(c)).expect("deploys succeed")
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Single tenant, Isolated or Pooled: the tenant-aware backend replays
    /// the instance-sharded backend bit for bit across the full bootstrap →
    /// ML campaign — selections, realized runs and the canonical record
    /// stream. (Under one tenant the two-key partition and the pooled
    /// partition both collapse to the per-instance partition.)
    #[test]
    fn single_tenant_matches_sharded_deployer(
        seed in 0u64..500,
        n_jobs in 20usize..45,
        min_kb_samples in 4usize..10,
        retrain_every in 1usize..4,
        forced_every in 0usize..6,
        pooled in proptest::bool::ANY,
    ) {
        let transfer = if pooled { TransferPolicy::Pooled } else { TransferPolicy::Isolated };
        let mut tenant_d = TenantShardedDeployer::new(
            CloudProvider::new(InstanceCatalog::paper_catalog(), seed),
            policy(min_kb_samples, retrain_every, transfer),
            seed,
        );
        let mut sharded_d = ShardedDeployer::new(
            CloudProvider::new(InstanceCatalog::paper_catalog(), seed),
            policy(min_kb_samples, retrain_every, transfer),
            seed,
        );
        let t_outs = campaign(&mut tenant_d, n_jobs, forced_every);
        let s_outs = campaign(&mut sharded_d, n_jobs, forced_every);
        prop_assert_eq!(&t_outs, &s_outs);
        prop_assert_eq!(
            tenant_d.knowledge_base().to_monolithic(),
            sharded_d.knowledge_base().to_monolithic()
        );
    }

    /// Operator-forced streams never consult a predictor, so all three
    /// backends — monolithic, instance-sharded and tenant-aware — must
    /// produce identical outcomes and identical canonical record streams.
    #[test]
    fn all_backends_agree_on_forced_streams(
        seed in 0u64..500,
        n_jobs in 4usize..16,
    ) {
        let mk_policy = || policy(6, 1, TransferPolicy::Isolated);
        let mut mono = TransparentDeployer::new(
            CloudProvider::new(InstanceCatalog::paper_catalog(), seed),
            mk_policy(),
            seed,
        );
        let mut sharded = ShardedDeployer::new(
            CloudProvider::new(InstanceCatalog::paper_catalog(), seed),
            mk_policy(),
            seed,
        );
        let mut tenant = TenantShardedDeployer::new(
            CloudProvider::new(InstanceCatalog::paper_catalog(), seed),
            mk_policy(),
            seed,
        );
        let m_outs = campaign(&mut mono, n_jobs, 1);
        let s_outs = campaign(&mut sharded, n_jobs, 1);
        let t_outs = campaign(&mut tenant, n_jobs, 1);
        prop_assert_eq!(&m_outs, &s_outs);
        prop_assert_eq!(&m_outs, &t_outs);
        let m_kb = mono.into_knowledge_base();
        prop_assert_eq!(&sharded.into_knowledge_base().to_monolithic(), &m_kb);
        prop_assert_eq!(&tenant.into_knowledge_base().to_monolithic(), &m_kb);
    }

    /// Isolation: under [`TransferPolicy::Isolated`], tenant A's
    /// predictions do not move — to the bit — no matter what tenant B
    /// records (arbitrary instances, node counts and volumes).
    #[test]
    fn isolated_predictions_invariant_under_foreign_insertions(
        seed in 0u64..500,
        b_inserts in proptest::collection::vec((0usize..6, 1usize..4, 50usize..400), 1..12),
    ) {
        let a = TenantId::new("acme-life");
        let mut d = TenantShardedDeployer::new(
            CloudProvider::new(InstanceCatalog::paper_catalog(), seed),
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
            let view = d
                .predictor()
                .view(&a, d.knowledge_base().local_lens(&a));
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
        prop_assert!(!before.is_empty(), "no local shard trained after 30 runs");

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
        prop_assert_eq!(before.len(), after.len());
        for (b, aft) in before.iter().zip(&after) {
            for ((mb, vb), (ma, va)) in b.iter().zip(aft) {
                prop_assert_eq!(mb, ma);
                prop_assert_eq!(
                    vb.to_bits(), va.to_bits(),
                    "{} moved after tenant-B insertions", mb
                );
            }
        }
    }

    /// BorrowUntil crossover: the pooled→local flip happens exactly at the
    /// threshold, and both the flip point and the predictions on each side
    /// replay bit-identically.
    #[test]
    fn borrow_until_crossover_is_deterministic(
        seed in 0u64..500,
        threshold in 1usize..12,
    ) {
        let a = TenantId::new("acme-life");
        let b = TenantId::new("bolt-re");
        let cat = InstanceCatalog::paper_catalog();
        let names = cat.names();
        let build = || {
            let mut kb = TenantShardedKnowledgeBase::new();
            for i in 0..48 {
                // Flip the tenant once per pass over the catalog: `i % 2` would
                // alias with `i % names.len()` and give each type one tenant.
                let tenant = if (i / names.len()) % 2 == 0 { a.clone() } else { b.clone() };
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
            p.retrain_all(&kb, RetrainMode::Full, 1).expect("large enough shards");
            (kb, p)
        };
        let (kb, p) = build();
        let (kb2, p2) = build();
        prop_assert_eq!(&kb, &kb2);

        let instance = &names[0];
        let inst = cat.get(instance).expect("known");
        let predict = |p: &TenantShardedPredictor, lens: usize| {
            let view = p.view(&a, std::collections::BTreeMap::from([(instance.clone(), lens)]));
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
            prop_assert_eq!(&got_pred, &want_pred);
            // And the whole view replays bit-identically across builds.
            let (aa, bb) = (predict(&p, lens), predict(&p2, lens));
            for ((ma, va), (mb, vb)) in aa.iter().zip(&bb) {
                prop_assert_eq!(ma, mb);
                prop_assert_eq!(va.to_bits(), vb.to_bits());
            }
        }
    }
}
