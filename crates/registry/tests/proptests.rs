//! Property tests for the registry row schema and canonical hashing:
//! a row's line reads back as the row, input hashes are stable and sensitive
//! to every policy field, and knowledge fingerprints are layout-independent.

use disar_cloudsim::InstanceCatalog;
use disar_core::deploy::DeployPolicy;
use disar_core::drift::{DetectorKind, DriftConfig};
use disar_core::predictor::RetrainMode;
use disar_core::tenant::{TenantId, TenantShardedKnowledgeBase, TransferPolicy};
use disar_core::{JobProfile, KnowledgeBase, RunRecord, ShardedKnowledgeBase};
use disar_engine::EebCharacteristics;
use disar_math::check::{cases, vec_of};
use disar_math::json::Json;
use disar_math::rng::Xoshiro256PlusPlus;
use disar_registry::{knowledge_fingerprint, Canonicalize, RegistryRow};

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

fn record(
    cat: &InstanceCatalog,
    contracts: usize,
    nodes: usize,
    inst_ix: usize,
    tenant: usize,
) -> RunRecord {
    let names = cat.names();
    let inst = cat
        .get(&names[inst_ix % names.len()])
        .expect("known instance");
    let time = 1_000.0 + contracts as f64;
    RunRecord::new(profile(contracts), inst, nodes, time, time / 3_600.0)
        .with_tenant(TenantId::new(format!("company-{tenant}")))
}

/// One to twelve lowercase letters.
fn any_name(rng: &mut Xoshiro256PlusPlus) -> String {
    let letters = vec_of(rng, 1..=12, |rng| {
        char::from(b'a' + rng.gen_range(0u32..26) as u8)
    });
    letters.into_iter().collect()
}

/// Any finite `f64`, drawn by bit pattern so that every exponent turns up.
fn any_finite(rng: &mut Xoshiro256PlusPlus) -> f64 {
    loop {
        let v = f64::from_bits(rng.next_u64());
        if v.is_finite() {
            return v;
        }
    }
}

/// write → parse → identical, for rows with and without timings.
#[test]
fn row_serialization_roundtrips() {
    cases(256, |rng| {
        let (experiment, input) = (any_name(rng), rng.next_u64());
        let (x, y) = (rng.next_u64(), any_finite(rng));
        let (wall, timed) = (rng.next_u64(), rng.gen_bool(0.5));
        let mut row = RegistryRow::new(
            experiment,
            input,
            Json::obj([("x", x.into())]),
            Json::obj([("y", y.into())]),
            wall,
        );
        if timed {
            row = row.with_timings(Json::obj([("ns", wall.into())]));
        }
        let line = row.to_json().to_string();
        let parsed = RegistryRow::from_json(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(parsed, row);
        assert!(parsed.outputs_match(&row.outputs));
    });
}

/// Hashing is a pure function of the values, and every policy field
/// participates: any single-field change moves the digest.
#[test]
fn policy_hash_is_stable_and_field_sensitive() {
    cases(256, |rng| {
        let (t_max, epsilon) = (rng.gen_range(1.0..100_000.0), rng.gen_range(0.0..0.5));
        let (max_nodes, min_kb_samples) = (rng.gen_range(1usize..32), rng.gen_range(1usize..50));
        let (retrain_every, n_threads) = (rng.gen_range(1usize..20), rng.gen_range(1usize..16));
        let base = DeployPolicy {
            t_max_secs: t_max,
            epsilon,
            max_nodes,
            min_kb_samples,
            retrain_every,
            n_threads,
            transfer: TransferPolicy::Isolated,
            retrain_mode: RetrainMode::Incremental,
            drift: DriftConfig::default(),
        };
        let h0 = base.canonical_hash();
        // Same values assembled through the builder digest identically.
        let rebuilt = DeployPolicy::builder(t_max)
            .epsilon(epsilon)
            .max_nodes(max_nodes)
            .min_kb_samples(min_kb_samples)
            .retrain_every(retrain_every)
            .n_threads(n_threads)
            .transfer(TransferPolicy::Isolated)
            .build();
        assert_eq!(h0, rebuilt.canonical_hash());

        let mut m = base;
        m.t_max_secs += 1.0;
        assert_ne!(h0, m.canonical_hash());
        let mut m = base;
        m.epsilon += 1.0;
        assert_ne!(h0, m.canonical_hash());
        let mut m = base;
        m.max_nodes += 1;
        assert_ne!(h0, m.canonical_hash());
        let mut m = base;
        m.min_kb_samples += 1;
        assert_ne!(h0, m.canonical_hash());
        let mut m = base;
        m.retrain_every += 1;
        assert_ne!(h0, m.canonical_hash());
        let mut m = base;
        m.n_threads += 1;
        assert_ne!(h0, m.canonical_hash());
        let mut m = base;
        m.transfer = TransferPolicy::Pooled;
        assert_ne!(h0, m.canonical_hash());
        let mut m = base;
        m.retrain_mode = RetrainMode::Windowed {
            window: 32,
            decay: 0.5,
        };
        assert_ne!(h0, m.canonical_hash());
        let mut m = base;
        m.drift.detector = DetectorKind::PageHinkley;
        assert_ne!(h0, m.canonical_hash());
    });
}

/// The same run stream fingerprints identically however it is stored
/// (monolithic, instance-sharded, tenant-sharded), and any appended
/// record moves the fingerprint.
#[test]
fn knowledge_fingerprint_is_layout_independent() {
    cases(256, |rng| {
        let cat = InstanceCatalog::paper_catalog();
        let records = vec_of(rng, 0..24, |rng| {
            let (contracts, nodes) = (rng.gen_range(1usize..400), rng.gen_range(1usize..4));
            let (inst_ix, tenant) = (rng.gen_range(0usize..8), rng.gen_range(0usize..4));
            record(&cat, contracts, nodes, inst_ix, tenant)
        });
        let mut mono = KnowledgeBase::new();
        let mut sharded = ShardedKnowledgeBase::new();
        let mut tenant = TenantShardedKnowledgeBase::new();
        for r in &records {
            mono.record(r.clone());
            sharded.record(r.clone());
            tenant.record(r.clone());
        }
        let f = knowledge_fingerprint(&mono);
        assert_eq!(f, knowledge_fingerprint(&sharded));
        assert_eq!(f, knowledge_fingerprint(&tenant));
        if let Some(r) = records.first() {
            mono.record(r.clone());
            assert_ne!(f, knowledge_fingerprint(&mono));
        }
    });
}
