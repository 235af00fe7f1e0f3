//! Property-based tests of the provisioning layer.

use disar_cloudsim::{CloudProvider, DriftModel, InstanceCatalog, Workload};
use disar_core::deploy::{DeployPolicy, TransparentDeployer};
use disar_core::{
    select_configuration, select_configuration_with_rule, select_hetero_configuration,
    CoreError, JobProfile, KnowledgeBase, PredictorFamily, RetrainMode, RunRecord,
    ShardedKnowledgeBase, TimeEstimate,
};
use disar_engine::EebCharacteristics;
use proptest::prelude::*;
use std::sync::OnceLock;

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

/// One shared trained family (training is the slow part).
fn family() -> &'static (PredictorFamily, InstanceCatalog) {
    static CELL: OnceLock<(PredictorFamily, InstanceCatalog)> = OnceLock::new();
    CELL.get_or_init(|| {
        let cat = InstanceCatalog::paper_catalog();
        let names = cat.names();
        let mut kb = KnowledgeBase::new();
        for i in 0..300 {
            let inst = cat.get(&names[i % names.len()]).expect("known");
            let nodes = i % 6 + 1;
            let contracts = 50 + (i * 53) % 400;
            let time =
                40_000.0 * contracts as f64 / 100.0 / (inst.compute_power() * nodes as f64);
            kb.record(RunRecord::new(profile(contracts), inst, nodes, time, 0.0));
        }
        let mut fam = PredictorFamily::new(5, 2);
        fam.retrain(&kb, RetrainMode::Full, 1).expect("large enough");
        (fam, cat)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Algorithm 1's feasible set is monotone in the deadline: relaxing
    /// `T_max` never removes a candidate.
    #[test]
    fn feasible_set_monotone_in_deadline(
        contracts in 60usize..420,
        t1 in 200.0f64..5_000.0,
        extra in 100.0f64..20_000.0,
    ) {
        let (fam, cat) = family();
        let p = profile(contracts);
        let tight = select_configuration(fam, cat, &p, t1, 6, 0.0, 1);
        let loose = select_configuration(fam, cat, &p, t1 + extra, 6, 0.0, 1)
            .expect("looser deadline at least as feasible");
        if let Ok(tight) = tight {
            prop_assert!(tight.feasible.len() <= loose.feasible.len());
            for c in &tight.feasible {
                prop_assert!(
                    loose
                        .feasible
                        .iter()
                        .any(|l| l.instance == c.instance && l.n_nodes == c.n_nodes),
                    "tight candidate lost on relaxation"
                );
            }
            // Cheapest pick can only get (weakly) cheaper with more slack.
            prop_assert!(loose.chosen.predicted_cost <= tight.chosen.predicted_cost + 1e-9);
        }
    }

    /// The greedy choice is always the cost-minimum of the feasible set,
    /// and every feasible candidate honours the deadline.
    #[test]
    fn greedy_optimality(
        contracts in 60usize..420,
        t_max in 500.0f64..50_000.0,
        max_nodes in 1usize..8,
    ) {
        let (fam, cat) = family();
        let Ok(sel) = select_configuration(fam, cat, &profile(contracts), t_max, max_nodes, 0.0, 1)
        else {
            return Ok(());
        };
        for c in &sel.feasible {
            prop_assert!(c.predicted_secs <= t_max);
            prop_assert!(c.n_nodes >= 1 && c.n_nodes <= max_nodes);
            prop_assert!(c.predicted_cost >= sel.chosen.predicted_cost - 1e-9);
        }
    }

    /// The conservative rule's feasible set is a subset of the mean
    /// rule's, for any deadline.
    #[test]
    fn conservative_subset(contracts in 60usize..420, t_max in 500.0f64..20_000.0) {
        let (fam, cat) = family();
        let p = profile(contracts);
        let mean = select_configuration(fam, cat, &p, t_max, 5, 0.0, 1);
        let cons = select_configuration_with_rule(
            fam, cat, &p, t_max, 5, 0.0, 1, TimeEstimate::Conservative,
        );
        match (mean, cons) {
            (Ok(m), Ok(c)) => {
                prop_assert!(c.feasible.len() <= m.feasible.len());
            }
            (Err(_), Ok(_)) => prop_assert!(false, "conservative feasible but mean not"),
            _ => {}
        }
    }

    /// Hetero selection dominates homogeneous selection on predicted cost
    /// whenever both succeed.
    #[test]
    fn hetero_weakly_dominates(contracts in 60usize..420, t_max in 500.0f64..20_000.0) {
        let (fam, cat) = family();
        let p = profile(contracts);
        let homo = select_configuration(fam, cat, &p, t_max, 4, 0.0, 1);
        let hetero = select_hetero_configuration(fam, cat, &p, t_max, 4, 0.0, 1);
        if let Ok(h) = &homo {
            let het = hetero.as_ref().expect("superset feasibility");
            prop_assert!(het.chosen.predicted_cost <= h.chosen.predicted_cost + 1e-9);
        }
        if homo.is_err() {
            // Hetero may still succeed (mixes are faster) — and when it
            // fails too, the reported best prediction must exceed t_max.
            if let Err(CoreError::NoFeasibleConfiguration { best_predicted, .. }) = hetero {
                prop_assert!(best_predicted > t_max);
            }
        }
    }

    /// Sharding is presentation-invariant: the shards reassemble to the
    /// monolithic record stream, every shard equals the monolithic
    /// per-instance filter, and a family trained on a shard is bit-identical
    /// to one trained on that filter.
    #[test]
    fn sharded_kb_bit_identical_to_monolithic(seed in 0u64..200, n in 12usize..40) {
        use disar_math::rng::stream_rng;
        let cat = InstanceCatalog::paper_catalog();
        let names = cat.names();
        let mut rng = stream_rng(seed, 0x5AD);
        let mut mono = KnowledgeBase::new();
        let mut skb = ShardedKnowledgeBase::new();
        for i in 0..n {
            let name = &names[rng.gen_range(0..names.len())];
            let inst = cat.get(name).expect("known");
            let nodes = rng.gen_range(1..5);
            let contracts = 50 + (i * 53) % 400;
            let time =
                40_000.0 * contracts as f64 / 100.0 / (inst.compute_power() * nodes as f64);
            let rec = RunRecord::new(profile(contracts), inst, nodes, time, 0.0);
            mono.record(rec.clone());
            skb.record(rec);
        }
        prop_assert_eq!(&skb.to_monolithic(), &mono);
        prop_assert_eq!(skb.len(), mono.len());
        for (name, shard) in skb.shards() {
            prop_assert_eq!(shard, &mono.for_instance(name));
            if shard.len() < 2 {
                continue;
            }
            let mut from_shard = PredictorFamily::new(9, 2);
            from_shard
                .retrain(shard, RetrainMode::Full, 1)
                .expect("enough records");
            let mut from_filter = PredictorFamily::new(9, 2);
            from_filter
                .retrain(&mono.for_instance(name), RetrainMode::Full, 1)
                .expect("enough records");
            let inst = cat.get(name).expect("known");
            for nodes in 1..3usize {
                let a = from_shard
                    .predict_each(&profile(150), inst, nodes)
                    .expect("trained");
                let b = from_filter
                    .predict_each(&profile(150), inst, nodes)
                    .expect("trained");
                for ((ma, va), (mb, vb)) in a.iter().zip(&b) {
                    prop_assert_eq!(ma, mb);
                    prop_assert_eq!(va.to_bits(), vb.to_bits(), "{} diverges on {}", ma, name);
                }
            }
        }
    }

    /// The deployer's knowledge base grows by exactly one per deploy and
    /// deploys are deterministic per seed.
    #[test]
    fn deployer_accounting(seed in 0u64..50, deploys in 1usize..8) {
        let run = |seed: u64| {
            let provider = CloudProvider::new(InstanceCatalog::paper_catalog(), seed);
            let policy = DeployPolicy::builder(1e6)
                .epsilon(0.1)
                .max_nodes(4)
                .min_kb_samples(3)
                .retrain_every(2)
                .n_threads(1)
                .build();
            let mut d = TransparentDeployer::new(provider, policy, seed);
            let wl = Workload::new(5_000.0, 4.0, 40.0, 0.05).expect("valid");
            let mut picks = Vec::new();
            for i in 0..deploys {
                let out = d.deploy(&profile(100 + i * 31), &wl).expect("deploys");
                picks.push((out.report.instance.clone(), out.report.n_nodes));
            }
            (picks, d.knowledge_base().len())
        };
        let (picks_a, len_a) = run(seed);
        let (picks_b, len_b) = run(seed);
        prop_assert_eq!(len_a, deploys);
        prop_assert_eq!(len_b, deploys);
        prop_assert_eq!(picks_a, picks_b);
    }

    /// A stationary cloud is the bit-identical default: deploying against
    /// a provider carrying an explicit [`DriftModel::None`] reproduces the
    /// no-drift provider's decisions, realized reports, and costs bit for
    /// bit under the default (drift-off) policy.
    #[test]
    fn stationary_drift_model_is_bit_identical(seed in 0u64..50, deploys in 1usize..8) {
        let run = |drifted: bool| {
            let mut provider = CloudProvider::new(InstanceCatalog::paper_catalog(), seed);
            if drifted {
                provider = provider.with_drift(DriftModel::None);
            }
            let policy = DeployPolicy::builder(1e6)
                .epsilon(0.1)
                .max_nodes(4)
                .min_kb_samples(3)
                .retrain_every(2)
                .n_threads(1)
                .build();
            let mut d = TransparentDeployer::new(provider, policy, seed);
            let wl = Workload::new(5_000.0, 4.0, 40.0, 0.05).expect("valid");
            let mut outs = Vec::new();
            for i in 0..deploys {
                let out = d.deploy(&profile(100 + i * 31), &wl).expect("deploys");
                outs.push((
                    out.decision.instance.clone(),
                    out.decision.n_nodes,
                    out.decision.predicted_secs.map(f64::to_bits),
                    out.report.duration_secs.to_bits(),
                    out.report.prorated_cost.to_bits(),
                ));
            }
            (outs, d.drift_fires())
        };
        let (plain, fires_plain) = run(false);
        let (stationary, fires_stationary) = run(true);
        prop_assert_eq!(plain, stationary);
        // The default policy keeps the detector off entirely.
        prop_assert_eq!(fires_plain, 0u64);
        prop_assert_eq!(fires_stationary, 0u64);
    }
}
