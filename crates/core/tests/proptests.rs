//! Property tests of the provisioning layer.

use disar_cloudsim::{CloudProvider, DriftModel, InstanceCatalog, Workload};
use disar_core::deploy::{DeployPolicy, Deployer, ShardedDeployer, TransparentDeployer};
use disar_core::{
    select_configuration, select_configuration_with_workspace, KnowledgeBase, PredictorFamily,
    RetrainMode, RunRecord, SelectionWorkspace, ShardedKnowledgeBase, TimeEstimate,
};
use disar_math::check::cases;

mod common;
use common::{family, profile, provider, run_jobs, schedule};

/// Algorithm 1's feasible set is monotone in the deadline: relaxing
/// `T_max` never removes a candidate.
#[test]
fn feasible_set_monotone_in_deadline() {
    cases(32, |rng| {
        let contracts = rng.gen_range(60usize..420);
        let t1 = rng.gen_range(200.0..5_000.0);
        let extra = rng.gen_range(100.0..20_000.0);
        let (fam, cat) = family();
        let p = profile(contracts);
        let tight = select_configuration(fam, cat, &p, t1, 6, 0.0, 1);
        let loose = select_configuration(fam, cat, &p, t1 + extra, 6, 0.0, 1)
            .expect("looser deadline at least as feasible");
        if let Ok(tight) = tight {
            assert!(tight.feasible.len() <= loose.feasible.len());
            for c in &tight.feasible {
                assert!(
                    loose
                        .feasible
                        .iter()
                        .any(|l| l.instance == c.instance && l.n_nodes == c.n_nodes),
                    "tight candidate lost on relaxation"
                );
            }
            // Cheapest pick can only get (weakly) cheaper with more slack.
            assert!(loose.chosen.predicted_cost <= tight.chosen.predicted_cost + 1e-9);
        }
    });
}

/// The greedy choice is always the cost-minimum of the feasible set,
/// and every feasible candidate honours the deadline.
#[test]
fn greedy_optimality() {
    cases(32, |rng| {
        let contracts = rng.gen_range(60usize..420);
        let (t_max, max_nodes) = (rng.gen_range(500.0..50_000.0), rng.gen_range(1usize..8));
        let (fam, cat) = family();
        let Ok(sel) = select_configuration(fam, cat, &profile(contracts), t_max, max_nodes, 0.0, 1)
        else {
            return;
        };
        for c in &sel.feasible {
            assert!(c.predicted_secs <= t_max);
            assert!(c.n_nodes >= 1 && c.n_nodes <= max_nodes);
            assert!(c.predicted_cost >= sel.chosen.predicted_cost - 1e-9);
        }
    });
}

/// The conservative rule's feasible set is a subset of the mean
/// rule's, for any deadline.
#[test]
fn conservative_subset() {
    cases(32, |rng| {
        let (contracts, t_max) = (rng.gen_range(60usize..420), rng.gen_range(500.0..20_000.0));
        let (fam, cat) = family();
        let p = profile(contracts);
        let mean = select_configuration(fam, cat, &p, t_max, 5, 0.0, 1);
        let cons = select_configuration_with_workspace(
            fam,
            cat,
            &p,
            t_max,
            5,
            0.0,
            1,
            TimeEstimate::Conservative,
            1,
            &mut SelectionWorkspace::new(),
        );
        match (mean, cons) {
            (Ok(m), Ok(c)) => assert!(c.feasible.len() <= m.feasible.len()),
            (Err(_), Ok(_)) => panic!("conservative feasible but mean not"),
            _ => {}
        }
    });
}

/// Sharding is presentation-invariant: the shards reassemble to the
/// monolithic record stream, every shard equals the monolithic
/// per-instance filter, and a family trained on a shard is bit-identical
/// to one trained on that filter.
#[test]
fn sharded_kb_bit_identical_to_monolithic() {
    cases(32, |rng| {
        let n = rng.gen_range(12usize..40);
        let cat = InstanceCatalog::paper_catalog();
        let names = cat.names();
        let mut mono = KnowledgeBase::new();
        let mut skb = ShardedKnowledgeBase::new();
        for i in 0..n {
            let name = &names[rng.gen_range(0..names.len())];
            let inst = cat.get(name).expect("known");
            let nodes = rng.gen_range(1..5);
            let contracts = 50 + (i * 53) % 400;
            let time = 40_000.0 * contracts as f64 / 100.0 / (inst.compute_power() * nodes as f64);
            let rec = RunRecord::new(profile(contracts), inst, nodes, time, 0.0);
            mono.record(rec.clone());
            skb.record(rec);
        }
        assert_eq!(&skb.to_monolithic(), &mono);
        assert_eq!(skb.len(), mono.len());
        for (name, shard) in skb.shards() {
            assert_eq!(shard, &mono.for_instance(name));
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
                    assert_eq!(ma, mb);
                    assert_eq!(va.to_bits(), vb.to_bits(), "{} diverges on {}", ma, name);
                }
            }
        }
    });
}

/// The deployer both deploy properties drive, on `cloud`.
fn deployer(cloud: CloudProvider, seed: u64) -> TransparentDeployer {
    let policy = DeployPolicy::builder(1e6)
        .epsilon(0.1)
        .max_nodes(4)
        .min_kb_samples(3)
        .retrain_every(2)
        .n_threads(1)
        .build();
    TransparentDeployer::new(cloud, policy, seed)
}

/// The deployer's knowledge base grows by exactly one per deploy and
/// deploys are deterministic per seed.
#[test]
fn deployer_accounting() {
    cases(32, |rng| {
        let (seed, deploys) = (rng.gen_range(0u64..50), rng.gen_range(1usize..8));
        let run = || {
            let mut d = deployer(provider(seed), seed);
            let wl = Workload::new(5_000.0, 4.0, 40.0, 0.05).expect("valid");
            let mut picks = Vec::new();
            for i in 0..deploys {
                let out = d.deploy(&profile(100 + i * 31), &wl).expect("deploys");
                picks.push((out.report.instance.clone(), out.report.n_nodes));
            }
            (picks, d.knowledge_base().len())
        };
        let (picks_a, len_a) = run();
        let (picks_b, len_b) = run();
        assert_eq!(len_a, deploys);
        assert_eq!(len_b, deploys);
        assert_eq!(picks_a, picks_b);
    });
}

/// A stationary cloud is the bit-identical default: deploying against
/// a provider carrying an explicit [`DriftModel::None`] reproduces the
/// no-drift provider's decisions, realized reports, and costs bit for
/// bit under the default policy.
#[test]
fn stationary_drift_model_is_bit_identical() {
    cases(32, |rng| {
        let (seed, deploys) = (rng.gen_range(0u64..50), rng.gen_range(1usize..8));
        let run = |drifted: bool| {
            let mut cloud = provider(seed);
            if drifted {
                cloud = cloud.with_drift(DriftModel::None);
            }
            let mut d = deployer(cloud, seed);
            let wl = Workload::new(5_000.0, 4.0, 40.0, 0.05).expect("valid");
            let mut outs = Vec::new();
            for i in 0..deploys {
                let out = d.deploy(&profile(100 + i * 31), &wl).expect("deploys");
                outs.push((
                    out.report.instance.clone(),
                    out.report.n_nodes,
                    out.predicted_secs.map(f64::to_bits),
                    out.report.duration_secs.to_bits(),
                    out.report.prorated_cost.to_bits(),
                ));
            }
            outs
        };
        assert_eq!(run(false), run(true));
    });
}

/// Operator-forced streams never consult a predictor, so both layouts —
/// monolithic and instance-sharded — must produce identical outcomes and
/// identical canonical record streams.
#[test]
fn all_backends_agree_on_forced_streams() {
    cases(10, |rng| {
        let (seed, n_jobs) = (rng.gen_range(0u64..500), rng.gen_range(4usize..16));
        let jobs = schedule(0, n_jobs, 1);
        let mut mono = TransparentDeployer::new(provider(seed), common::policy(6, 1), seed);
        let mut sharded = ShardedDeployer::new(provider(seed), common::policy(6, 1), seed);
        assert_eq!(run_jobs(&mut mono, &jobs), run_jobs(&mut sharded, &jobs));
        assert_eq!(
            sharded.into_knowledge_base().to_monolithic(),
            mono.into_knowledge_base()
        );
    });
}
