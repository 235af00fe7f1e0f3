//! Property tests for the registry row schema and canonical hashing:
//! row serialization round-trips, input hashes are stable and sensitive
//! to every policy field, knowledge fingerprints are layout-independent,
//! and pre-version knowledge-base JSON still loads via the serde default.

use disar_cloudsim::InstanceCatalog;
use disar_core::deploy::DeployPolicy;
use disar_core::drift::{DetectorKind, DriftConfig};
use disar_core::predictor::RetrainMode;
use disar_core::tenant::{TenantId, TenantShardedKnowledgeBase, TransferPolicy};
use disar_core::{
    JobProfile, KnowledgeBase, KnowledgeStore, RunRecord, SchemaVersion, ShardedKnowledgeBase,
};
use disar_engine::EebCharacteristics;
use disar_math::check::{cases, vec_of};
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

/// serialize → parse → identical, for rows with and without timings.
#[test]
fn row_serialization_roundtrips() {
    cases(256, |rng| {
        let (experiment, input) = (any_name(rng), rng.next_u64());
        let (x, y) = (rng.next_u64() as i64, any_finite(rng));
        let (wall, timed) = (rng.next_u64(), rng.gen_bool(0.5));
        let mut row = RegistryRow::new(
            experiment,
            input,
            serde_json::json!({ "x": x }),
            serde_json::json!({ "y": y }),
            wall,
        );
        if timed {
            row = row.with_timings(serde_json::json!({ "ns": wall }));
        }
        let line = serde_json::to_string(&row).unwrap();
        let parsed: RegistryRow = serde_json::from_str(&line).unwrap();
        assert_eq!(parsed, row);
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

/// Pre-version knowledge-base JSON (no `schema_version` field) loads via
/// the serde default and round-trips to the same base.
#[test]
fn pre_version_kb_json_loads_with_default_schema() {
    let cat = InstanceCatalog::paper_catalog();
    let mut kb = KnowledgeBase::new();
    kb.record(record(&cat, 100, 2, 0, 0));
    kb.record(record(&cat, 250, 1, 3, 1));

    let mut v = serde_json::to_value(&kb).unwrap();
    let removed = v.as_object_mut().unwrap().remove("schema_version");
    assert!(removed.is_some(), "serialized KB is schema-versioned");
    let loaded: KnowledgeBase = serde_json::from_value(v).unwrap();
    assert_eq!(loaded.len(), kb.len());
    assert_eq!(loaded, kb, "default schema version matches a fresh base");
    assert_eq!(knowledge_fingerprint(&loaded), knowledge_fingerprint(&kb));

    // The re-serialized form is versioned at CURRENT again.
    let v = serde_json::to_value(&loaded).unwrap();
    let version: SchemaVersion = serde_json::from_value(v["schema_version"].clone()).unwrap();
    assert_eq!(version, SchemaVersion::CURRENT);
}

/// Same back-compat contract for the instance-sharded layout.
#[test]
fn pre_version_sharded_kb_json_loads_with_default_schema() {
    let cat = InstanceCatalog::paper_catalog();
    let mut kb = ShardedKnowledgeBase::new();
    kb.record(record(&cat, 80, 3, 1, 0));

    let mut v = serde_json::to_value(&kb).unwrap();
    let removed = v.as_object_mut().unwrap().remove("schema_version");
    assert!(
        removed.is_some(),
        "serialized sharded KB is schema-versioned"
    );
    let loaded: ShardedKnowledgeBase = serde_json::from_value(v).unwrap();
    assert_eq!(loaded.len(), kb.len());
    assert_eq!(knowledge_fingerprint(&loaded), knowledge_fingerprint(&kb));
}
