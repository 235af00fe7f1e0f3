//! Tenant-aware knowledge sharding and cross-company transfer.
//!
//! The paper observes that the knowledge base's parameters "are not
//! necessarily bound to a specific" company: the job profile and machine
//! capabilities are numeric, so execution-time knowledge gathered while
//! serving one insurance undertaking can inform provisioning for another.
//! This module makes that claim operational. Records carry a [`TenantId`],
//! the base is partitioned by the *two-key* (instance type × tenant)
//! ([`TenantShardedKnowledgeBase`]), and a pluggable [`TransferPolicy`]
//! decides whose records a tenant's predictions may learn from:
//!
//! - [`TransferPolicy::Isolated`] — every tenant trains only on its own
//!   runs (the regulatory-conservative default: no information crosses a
//!   company boundary);
//! - [`TransferPolicy::Pooled`] — all tenants train on the union of
//!   records per instance type (the paper's transfer argument taken at
//!   face value);
//! - [`TransferPolicy::BorrowUntil`] — a tenant borrows the pooled model
//!   per instance type until it has accumulated enough *local*
//!   observations there, then switches to its own (cold-start borrowing).
//!
//! [`TenantShardedDeployer`] is the one deploy loop
//! ([`crate::deploy::DeployLoop`]) over this layout, behind the existing
//! [`crate::deploy::Deployer`] trait, so the service and the experiment
//! drivers run unchanged over a multi-tenant base. With a single tenant and [`TransferPolicy::Isolated`] (or
//! [`TransferPolicy::Pooled`] — the partitions coincide), the backend is
//! bit-identical to [`crate::deploy::ShardedDeployer`].

use crate::deploy::{Backend, DeployLoop, DeployPolicy, Local, Shard, SHARD_FLOOR};
use crate::knowledge::{
    read_records, KnowledgeBase, KnowledgeStore, Partitioned, RunRecord, ShardedKnowledgeBase,
};
use crate::predictor::{
    FamilyRouter, PredictorFamily, RetrainMode, ShardedPredictor, TimePredictor,
};
use crate::CoreError;
use disar_cloudsim::CloudProvider;
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

/// Identifies the company (tenant) a run belongs to.
///
/// A plain string key: tenants are administrative, not numeric, and never
/// enter the feature vector. The default tenant (`"default"`) is what every
/// pre-tenancy record and single-tenant deployment uses.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(String);

impl TenantId {
    /// Creates a tenant id from a name.
    pub fn new(name: impl Into<String>) -> Self {
        TenantId(name.into())
    }

    /// The tenant name.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl Default for TenantId {
    fn default() -> Self {
        TenantId("default".to_string())
    }
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// How knowledge crosses company boundaries (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransferPolicy {
    /// Each tenant trains and predicts only on its own records.
    #[default]
    Isolated,
    /// All tenants share one model per instance type, trained on the union
    /// of every tenant's records.
    Pooled,
    /// Predict from the pooled model for an instance type until the tenant
    /// holds at least this many *local* records there, then switch to the
    /// tenant's own model. `BorrowUntil(0)` behaves like
    /// [`TransferPolicy::Isolated`] with pooled models kept warm.
    BorrowUntil(usize),
}

impl TransferPolicy {
    /// Whether per-(instance, tenant) local models are trained and may
    /// serve predictions.
    pub fn uses_local(self) -> bool {
        !matches!(self, TransferPolicy::Pooled)
    }

    /// Whether per-instance pooled models are trained and may serve
    /// predictions.
    pub fn uses_pooled(self) -> bool {
        !matches!(self, TransferPolicy::Isolated)
    }

    /// Whether a tenant holding `local_len` records on an instance type is
    /// served there by its own model (rather than the pooled one).
    pub(crate) fn routes_local(self, local_len: usize) -> bool {
        match self {
            TransferPolicy::Isolated => true,
            TransferPolicy::Pooled => false,
            TransferPolicy::BorrowUntil(n) => local_len >= n,
        }
    }
}

/// A knowledge base partitioned by the two-key (instance type × tenant).
///
/// The two-key shards are a [`Partitioned`] store (which this type derefs
/// to for every read: `len`, `shard_count`, `records_in_arrival_order`,
/// `to_monolithic`, `save`, …), so a `record()` touches exactly one shard
/// and a local retrain scales with one tenant's records on one instance
/// type. Alongside them the base maintains *pooled* per-instance copies —
/// a [`ShardedKnowledgeBase`] fed the same stream, i.e. the union of all
/// tenants' records for each instance type, in arrival order — so pooled
/// retrains need no re-partitioning pass. The pooled copies double record
/// memory; they are derived state, excluded from equality, never saved and
/// rebuilt as [`TenantShardedKnowledgeBase::load`] records the file's stream.
#[derive(Debug, Clone, Default)]
pub struct TenantShardedKnowledgeBase {
    store: Partitioned<(String, TenantId)>,
    /// Derived per-instance unions, rebuilt on load.
    pooled: ShardedKnowledgeBase,
}

/// Equality is over the two-key shards and arrival order only — the pooled
/// copies (like the per-shard dataset caches) are derived state.
impl PartialEq for TenantShardedKnowledgeBase {
    fn eq(&self, other: &Self) -> bool {
        self.store == other.store
    }
}

impl std::ops::Deref for TenantShardedKnowledgeBase {
    type Target = Partitioned<(String, TenantId)>;

    fn deref(&self) -> &Self::Target {
        &self.store
    }
}

impl TenantShardedKnowledgeBase {
    /// Creates an empty two-key base.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a two-key base holding the same record stream as `kb`,
    /// routing each record by its own tenant tag.
    pub fn from_monolithic(kb: &KnowledgeBase) -> Self {
        let mut sharded = TenantShardedKnowledgeBase::new();
        for r in kb.records() {
            sharded.record(r.clone());
        }
        sharded
    }

    /// Assembles a two-key base from per-shard record streams (e.g. the
    /// shards of the deploy service's tenants). Each record routes by its own
    /// instance/tenant tags, so the per-shard streams are preserved
    /// exactly; the global arrival order is shard-major in the order
    /// given — the cross-shard interleaving of the original stream is
    /// not reconstructible from shards alone and is not claimed.
    pub fn from_shards<I>(shards: I) -> Self
    where
        I: IntoIterator<Item = KnowledgeBase>,
    {
        let mut out = TenantShardedKnowledgeBase::new();
        for shard in shards {
            for r in shard.records() {
                out.record(r.clone());
            }
        }
        out
    }

    /// Appends one run to the shard owning its (instance, tenant) key and
    /// to the instance's pooled copy, creating both on first sight.
    pub fn record(&mut self, record: RunRecord) {
        self.pooled.record(record.clone());
        let key = (record.instance.clone(), record.tenant.clone());
        self.store.record_under(key, record);
    }

    /// Distinct tenants seen, in first-seen order.
    pub fn tenants(&self) -> Vec<TenantId> {
        let mut out: Vec<TenantId> = Vec::new();
        for (_, t) in self.store.keys() {
            if !out.contains(t) {
                out.push(t.clone());
            }
        }
        out
    }

    /// The shard holding one tenant's records on one instance type.
    pub fn shard(&self, instance: &str, tenant: &TenantId) -> Option<&KnowledgeBase> {
        self.store.find(|(i, t)| i == instance && t == tenant)
    }

    /// The pooled (all-tenant) copy of one instance type's records, in
    /// arrival order.
    pub fn pooled_shard(&self, instance: &str) -> Option<&KnowledgeBase> {
        self.pooled.shard(instance)
    }

    /// Iterates `((instance, tenant), shard)` pairs in first-seen order.
    pub fn shards(&self) -> impl Iterator<Item = (&(String, TenantId), &KnowledgeBase)> {
        self.store.keyed_shards()
    }

    /// Iterates `(instance name, pooled copy)` pairs in first-seen order.
    pub fn pooled_shards(&self) -> impl Iterator<Item = (&str, &KnowledgeBase)> {
        self.pooled.shards()
    }

    /// Per-instance record counts of one tenant's shards — the local-
    /// observation counts [`TransferPolicy::BorrowUntil`] routes on.
    pub fn local_lens(&self, tenant: &TenantId) -> BTreeMap<String, usize> {
        let mut out = BTreeMap::new();
        for ((instance, t), shard) in self.shards() {
            if t == tenant {
                out.insert(instance.clone(), shard.len());
            }
        }
        out
    }

    /// Loads a base from a file any layout's `save` wrote.
    ///
    /// # Errors
    ///
    /// As [`KnowledgeBase::load`].
    pub fn load(path: &Path) -> Result<Self, CoreError> {
        read_records(path)
    }
}

impl KnowledgeStore for TenantShardedKnowledgeBase {
    fn record(&mut self, record: RunRecord) {
        TenantShardedKnowledgeBase::record(self, record);
    }

    fn len(&self) -> usize {
        self.store.len()
    }

    fn records_in_arrival_order(&self) -> Box<dyn Iterator<Item = &RunRecord> + '_> {
        Box::new(self.store.records_in_arrival_order())
    }
}

/// One [`PredictorFamily`] per two-key shard, plus (policy permitting) one
/// per pooled instance shard, with a [`TransferPolicy`] routing every
/// query to the family a tenant is entitled to.
///
/// Both sets are [`ShardedPredictor`]s — one per tenant and one pooled —
/// created from the same `(seed, min_samples)` pair, so a local family is
/// bit-identical to a monolithic family trained on the same shard — the
/// invariant the backend-equivalence proofs rest on.
pub struct TenantShardedPredictor {
    transfer: TransferPolicy,
    /// tenant → that tenant's local families, per instance type.
    local: BTreeMap<TenantId, ShardedPredictor>,
    /// The all-tenant pooled families, per instance type.
    pooled: ShardedPredictor,
    seed: u64,
}

impl TenantShardedPredictor {
    /// Creates an empty two-key predictor; families materialize lazily on
    /// the first retrain of their shard, all seeded identically.
    pub fn new(seed: u64, min_samples: usize, transfer: TransferPolicy) -> Self {
        TenantShardedPredictor {
            transfer,
            local: BTreeMap::new(),
            pooled: ShardedPredictor::new(seed, min_samples),
            seed,
        }
    }

    /// The knowledge-base size below which a shard's training is refused.
    pub fn min_samples(&self) -> usize {
        self.pooled.min_samples()
    }

    /// The active transfer policy.
    pub fn transfer(&self) -> TransferPolicy {
        self.transfer
    }

    /// The local family of one (instance, tenant), if it exists.
    pub fn local_family(&self, instance: &str, tenant: &TenantId) -> Option<&PredictorFamily> {
        self.local.get(tenant).and_then(|p| p.family(instance))
    }

    /// The pooled family of one instance type, if it exists.
    pub fn pooled_family(&self, instance: &str) -> Option<&PredictorFamily> {
        self.pooled.family(instance)
    }

    /// `true` once the (instance, tenant) pair has a trained local family.
    pub fn is_trained_local(&self, instance: &str, tenant: &TenantId) -> bool {
        self.local
            .get(tenant)
            .is_some_and(|p| p.is_trained_for(instance))
    }

    /// `true` once the instance type has a trained pooled family.
    pub fn is_trained_pooled(&self, instance: &str) -> bool {
        self.pooled.is_trained_for(instance)
    }

    /// Number of trained local families across all (instance, tenant)
    /// pairs.
    pub fn trained_local_shards(&self) -> usize {
        self.local
            .values()
            .map(ShardedPredictor::trained_shards)
            .sum()
    }

    /// The family `tenant`'s queries on `instance` route to under the
    /// transfer policy, given the tenant's local observation count there.
    pub fn route(
        &self,
        instance: &str,
        tenant: &TenantId,
        local_len: usize,
    ) -> Option<&PredictorFamily> {
        if self.transfer.routes_local(local_len) {
            self.local_family(instance, tenant)
        } else {
            self.pooled_family(instance)
        }
    }

    /// Retrains the local family of one (instance, tenant) on that shard's
    /// records, creating the family on first use. `mode` and `n_threads`
    /// behave as in [`PredictorFamily::retrain`].
    ///
    /// # Errors
    ///
    /// Same contract as [`PredictorFamily::retrain`].
    pub fn retrain_local(
        &mut self,
        instance: &str,
        tenant: &TenantId,
        shard: &KnowledgeBase,
        mode: RetrainMode,
        n_threads: usize,
    ) -> Result<(), CoreError> {
        let (seed, min_samples) = (self.seed, self.min_samples());
        self.local
            .entry(tenant.clone())
            .or_insert_with(|| ShardedPredictor::new(seed, min_samples))
            .retrain_shard(instance, shard, mode, n_threads)
    }

    /// Retrains the pooled family of one instance type on the pooled
    /// shard's records, creating the family on first use.
    ///
    /// # Errors
    ///
    /// Same contract as [`PredictorFamily::retrain`].
    pub fn retrain_pooled(
        &mut self,
        instance: &str,
        shard: &KnowledgeBase,
        mode: RetrainMode,
        n_threads: usize,
    ) -> Result<(), CoreError> {
        self.pooled.retrain_shard(instance, shard, mode, n_threads)
    }

    /// Retrains every shard the transfer policy consults that holds at
    /// least `min_samples` records — the bulk warm-up after a load or
    /// bootstrap; smaller shards are skipped, not errors.
    ///
    /// # Errors
    ///
    /// Propagates the first shard-retrain failure.
    pub fn retrain_all(
        &mut self,
        kb: &TenantShardedKnowledgeBase,
        mode: RetrainMode,
        n_threads: usize,
    ) -> Result<(), CoreError> {
        if self.transfer.uses_local() {
            for ((instance, tenant), shard) in kb.shards() {
                if shard.len() >= self.min_samples() {
                    self.retrain_local(instance, tenant, shard, mode, n_threads)?;
                }
            }
        }
        if self.transfer.uses_pooled() {
            self.pooled.retrain_all(&kb.pooled, mode, n_threads)?;
        }
        Ok(())
    }

    /// A [`TimePredictor`] view of the predictor as seen by one tenant,
    /// routing with the given per-instance local observation counts
    /// (the deployer passes [`TenantShardedKnowledgeBase::local_lens`]).
    pub fn view<'a>(
        &'a self,
        tenant: &'a TenantId,
        local_lens: BTreeMap<String, usize>,
    ) -> TenantView<'a> {
        TenantView {
            predictor: self,
            tenant,
            local_lens,
        }
    }
}

/// What one tenant sees of a [`TenantShardedPredictor`]: Algorithm 1
/// queries route per instance type to the local or pooled family the
/// transfer policy grants this tenant.
pub struct TenantView<'a> {
    predictor: &'a TenantShardedPredictor,
    tenant: &'a TenantId,
    local_lens: BTreeMap<String, usize>,
}

impl FamilyRouter for TenantView<'_> {
    fn family_for(&self, instance: &str) -> Option<&PredictorFamily> {
        let local_len = self.local_lens.get(instance).copied().unwrap_or(0);
        self.predictor.route(instance, self.tenant, local_len)
    }
}

impl Backend for Local<TenantShardedKnowledgeBase, TenantShardedPredictor> {
    fn len(&self) -> usize {
        self.kb.len()
    }

    fn tenant(&self) -> &TenantId {
        &self.tenant
    }

    fn shards(&self, instance: &str) -> Vec<Shard> {
        vec![
            Shard::Local(instance.to_string(), self.tenant.clone()),
            Shard::Instance(instance.to_string()),
        ]
    }

    fn floor(&self, shard: &Shard, _policy: &DeployPolicy) -> usize {
        let trains = match shard {
            Shard::Local(..) => self.predictor.transfer().uses_local(),
            _ => self.predictor.transfer().uses_pooled(),
        };
        if trains {
            SHARD_FLOOR
        } else {
            usize::MAX
        }
    }

    fn size(&self, shard: &Shard) -> usize {
        match shard {
            Shard::Local(instance, tenant) => self.kb.shard(instance, tenant),
            pooled => self.kb.pooled_shard(pooled.instance()),
        }
        .map_or(0, KnowledgeBase::len)
    }

    fn trained(&self, shard: &Shard) -> bool {
        match shard {
            Shard::Local(instance, tenant) => self.predictor.is_trained_local(instance, tenant),
            pooled => self.predictor.is_trained_pooled(pooled.instance()),
        }
    }

    fn serving(&self, instance: &str) -> Shard {
        let local = Shard::Local(instance.to_string(), self.tenant.clone());
        if self.predictor.transfer().routes_local(self.size(&local)) {
            local
        } else {
            Shard::Instance(instance.to_string())
        }
    }

    fn with_view<R>(&self, f: impl FnOnce(&dyn TimePredictor) -> R) -> R {
        f(&self
            .predictor
            .view(&self.tenant, self.kb.local_lens(&self.tenant)))
    }

    fn append(&mut self, record: RunRecord) {
        self.kb.record(record);
    }

    fn retrain(
        &mut self,
        shard: &Shard,
        mode: RetrainMode,
        n_threads: usize,
    ) -> Result<(), CoreError> {
        match shard {
            Shard::Local(instance, tenant) => {
                let records = self
                    .kb
                    .shard(instance, tenant)
                    .expect("a due shard holds records");
                self.predictor
                    .retrain_local(instance, tenant, records, mode, n_threads)
            }
            pooled => {
                let records = self
                    .kb
                    .pooled_shard(pooled.instance())
                    .expect("a due shard holds records");
                self.predictor
                    .retrain_pooled(pooled.instance(), records, mode, n_threads)
            }
        }
    }

    fn warm(&mut self, mode: RetrainMode, n_threads: usize) -> Result<(), CoreError> {
        self.predictor.retrain_all(&self.kb, mode, n_threads)
    }
}

/// The self-optimizing deployer over the two-key tenant layout.
///
/// Behaviourally a [`crate::deploy::ShardedDeployer`] whose records land
/// in (instance × tenant) shards, whose retrains follow the
/// [`TransferPolicy`] (local families, pooled families, or both), and
/// whose selections see only the families the active tenant is entitled
/// to. The deployer serves one tenant at a time
/// ([`DeployLoop::set_tenant`] switches); a run is attributed to the
/// tenant that is active when it is recorded.
pub type TenantShardedDeployer =
    DeployLoop<Local<TenantShardedKnowledgeBase, TenantShardedPredictor>>;

impl DeployLoop<Local<TenantShardedKnowledgeBase, TenantShardedPredictor>> {
    /// Creates a tenant-aware deployer with an empty knowledge base,
    /// serving the default tenant under `policy.transfer`.
    pub fn new(provider: CloudProvider, policy: DeployPolicy, seed: u64) -> Self {
        let backend = Local {
            kb: TenantShardedKnowledgeBase::new(),
            predictor: TenantShardedPredictor::new(seed, SHARD_FLOOR, policy.transfer),
            tenant: TenantId::default(),
        };
        Self::assemble(provider, policy, seed, backend)
    }

    /// Sets the tenant subsequent deploys are attributed to
    /// (builder-style).
    pub fn with_tenant(mut self, tenant: TenantId) -> Self {
        self.backend.tenant = tenant;
        self
    }

    /// Switches the tenant subsequent deploys are attributed to.
    pub fn set_tenant(&mut self, tenant: TenantId) {
        self.backend.tenant = tenant;
    }

    /// The tenant deploys are currently attributed to.
    pub fn tenant(&self) -> &TenantId {
        &self.backend.tenant
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::{DeployMode, DeployOutcome, Deployer, ShardedDeployer};
    use crate::profile::JobProfile;
    use disar_cloudsim::{InstanceCatalog, Workload};
    use disar_engine::EebCharacteristics;

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
        .unwrap()
    }

    /// An interleaved two-tenant record stream: instance types cycle
    /// fastest, the tenant flips after each pass over the catalog, so every
    /// instance type sees both tenants.
    fn mixed_records(n: usize) -> Vec<RunRecord> {
        let cat = InstanceCatalog::paper_catalog();
        let names = cat.names();
        let tenants = [TenantId::new("acme-life"), TenantId::new("bolt-re")];
        (0..n)
            .map(|i| {
                let inst = cat.get(&names[i % names.len()]).unwrap();
                RunRecord::new(
                    profile(50 + (i * 37) % 400),
                    inst,
                    i % 4 + 1,
                    10.0 + i as f64,
                    0.01 * i as f64,
                )
                .with_tenant(tenants[(i / names.len()) % tenants.len()].clone())
            })
            .collect()
    }

    fn test_policy(transfer: TransferPolicy) -> DeployPolicy {
        DeployPolicy::builder(50_000.0)
            .max_nodes(4)
            .min_kb_samples(8)
            .n_threads(1)
            .transfer(transfer)
            .build()
    }

    #[test]
    fn two_key_routing_and_local_lens() {
        let mut kb = TenantShardedKnowledgeBase::new();
        for r in mixed_records(24) {
            kb.record(r);
        }
        let n_types = InstanceCatalog::paper_catalog().names().len();
        assert_eq!(kb.len(), 24);
        assert_eq!(kb.tenants().len(), 2);
        assert_eq!(kb.shard_count(), n_types * 2);
        let a = TenantId::new("acme-life");
        for ((instance, tenant), shard) in kb.shards() {
            assert!(shard
                .records()
                .iter()
                .all(|r| r.instance == *instance && r.tenant == *tenant));
            assert_eq!(shard.len(), 2);
        }
        // Pooled copies aggregate both tenants per instance type.
        for (name, pooled) in kb.pooled_shards() {
            assert_eq!(pooled.len(), 4);
            assert!(pooled.records().iter().all(|r| r.instance == name));
        }
        let lens = kb.local_lens(&a);
        assert_eq!(lens.len(), n_types);
        assert!(lens.values().all(|&l| l == 2));
        assert!(kb.shard("c3.4xlarge", &TenantId::new("nobody")).is_none());
    }

    #[test]
    fn arrival_order_survives_two_key_sharding() {
        let records = mixed_records(25);
        let mut kb = TenantShardedKnowledgeBase::new();
        let mut mono = KnowledgeBase::new();
        for r in &records {
            kb.record(r.clone());
            mono.record(r.clone());
        }
        let replayed: Vec<&RunRecord> = kb.records_in_arrival_order().collect();
        assert_eq!(replayed.len(), records.len());
        for (got, want) in replayed.iter().zip(&records) {
            assert_eq!(*got, want);
        }
        assert_eq!(kb.to_monolithic(), mono);
        assert_eq!(TenantShardedKnowledgeBase::from_monolithic(&mono), kb);
        // Pooled copies preserve per-instance arrival order too.
        for (name, pooled) in kb.pooled_shards() {
            let want: Vec<&RunRecord> =
                records.iter().filter(|r| r.instance == name).collect();
            assert_eq!(pooled.records().iter().collect::<Vec<_>>(), want);
        }
    }

    #[test]
    fn save_load_rebuilds_pooled_copies() {
        let mut kb = TenantShardedKnowledgeBase::new();
        for r in mixed_records(18) {
            kb.record(r);
        }
        let dir = std::env::temp_dir().join("disar-tkb-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tkb.json");
        kb.save(&path).unwrap();
        let loaded = TenantShardedKnowledgeBase::load(&path).unwrap();
        assert_eq!(kb, loaded);
        assert_eq!(loaded.to_monolithic(), kb.to_monolithic());
        for (name, pooled) in kb.pooled_shards() {
            assert_eq!(loaded.pooled_shard(name).unwrap(), pooled);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn transfer_policy_routing_table() {
        assert!(TransferPolicy::Isolated.uses_local());
        assert!(!TransferPolicy::Isolated.uses_pooled());
        assert!(!TransferPolicy::Pooled.uses_local());
        assert!(TransferPolicy::Pooled.uses_pooled());
        assert!(TransferPolicy::BorrowUntil(5).uses_local());
        assert!(TransferPolicy::BorrowUntil(5).uses_pooled());
    }

    /// Trains local families for tenant A and a pooled family, then checks
    /// each policy routes queries to the family it promises.
    #[test]
    fn routing_respects_transfer_policy() {
        let mut kb = TenantShardedKnowledgeBase::new();
        for r in mixed_records(48) {
            kb.record(r);
        }
        let a = TenantId::new("acme-life");
        let instance = "c3.4xlarge";
        let local_shard = kb.shard(instance, &a).unwrap();
        let pooled_shard = kb.pooled_shard(instance).unwrap();

        for transfer in [
            TransferPolicy::Isolated,
            TransferPolicy::Pooled,
            TransferPolicy::BorrowUntil(3),
        ] {
            let mut p = TenantShardedPredictor::new(7, 2, transfer);
            if transfer.uses_local() {
                p.retrain_local(instance, &a, local_shard, RetrainMode::Incremental, 1)
                    .unwrap();
            }
            if transfer.uses_pooled() {
                p.retrain_pooled(instance, pooled_shard, RetrainMode::Incremental, 1)
                    .unwrap();
            }
            // Reference families trained on the same shards.
            let mut local_ref = PredictorFamily::new(7, 2);
            local_ref
                .retrain(local_shard, RetrainMode::Incremental, 1)
                .unwrap();
            let mut pooled_ref = PredictorFamily::new(7, 2);
            pooled_ref
                .retrain(pooled_shard, RetrainMode::Incremental, 1)
                .unwrap();

            let cat = InstanceCatalog::paper_catalog();
            let inst = cat.get(instance).unwrap();
            let below = p.route(instance, &a, 2).unwrap();
            let above = p.route(instance, &a, 3).unwrap();
            let (want_below, want_above): (&PredictorFamily, &PredictorFamily) = match transfer {
                TransferPolicy::Isolated => (&local_ref, &local_ref),
                TransferPolicy::Pooled => (&pooled_ref, &pooled_ref),
                TransferPolicy::BorrowUntil(_) => (&pooled_ref, &local_ref),
            };
            for (got, want) in [(below, want_below), (above, want_above)] {
                assert_eq!(
                    got.predict_each(&profile(123), inst, 2).unwrap(),
                    want.predict_each(&profile(123), inst, 2).unwrap(),
                    "routing diverged under {transfer:?}"
                );
            }
        }
    }

    #[test]
    fn single_tenant_isolated_matches_sharded_deployer() {
        // The acceptance invariant, deterministic edition: one tenant,
        // Isolated transfer → selections, outcomes and the canonical KB
        // stream are bit-identical to the instance-sharded backend.
        let run_tenant = || {
            let provider = CloudProvider::new(InstanceCatalog::paper_catalog(), 23);
            let mut d =
                TenantShardedDeployer::new(provider, test_policy(TransferPolicy::Isolated), 23);
            let outs: Vec<DeployOutcome> = (0..30)
                .map(|i| {
                    let c = 70 + (i * 13) % 250;
                    d.deploy(&profile(c), &workload(c)).unwrap()
                })
                .collect();
            (outs, d.into_knowledge_base().to_monolithic())
        };
        let run_sharded = || {
            let provider = CloudProvider::new(InstanceCatalog::paper_catalog(), 23);
            let mut d = ShardedDeployer::new(provider, test_policy(TransferPolicy::Isolated), 23);
            let outs: Vec<DeployOutcome> = (0..30)
                .map(|i| {
                    let c = 70 + (i * 13) % 250;
                    d.deploy(&profile(c), &workload(c)).unwrap()
                })
                .collect();
            (outs, d.into_knowledge_base().to_monolithic())
        };
        let (t_outs, t_kb) = run_tenant();
        let (s_outs, s_kb) = run_sharded();
        assert_eq!(t_outs, s_outs);
        assert_eq!(t_kb, s_kb);
    }

    #[test]
    fn pooled_transfer_lets_a_new_tenant_skip_bootstrap() {
        // Tenant A bootstraps the pooled families; a fresh tenant B then
        // deploys ML-first under Pooled, but must re-bootstrap under
        // Isolated.
        let reach_ml = |d: &mut TenantShardedDeployer| {
            for i in 0..200 {
                let c = 80 + (i * 19) % 300;
                if d.deploy(&profile(c), &workload(c)).unwrap().mode != DeployMode::Bootstrap {
                    return true;
                }
            }
            false
        };
        let provider = CloudProvider::new(InstanceCatalog::paper_catalog(), 31);
        let mut pooled =
            TenantShardedDeployer::new(provider, test_policy(TransferPolicy::Pooled), 31)
                .with_tenant(TenantId::new("acme-life"));
        assert!(reach_ml(&mut pooled), "tenant A never reached the ML phase");
        pooled.set_tenant(TenantId::new("bolt-re"));
        let out = pooled.deploy(&profile(150), &workload(150)).unwrap();
        assert!(
            matches!(out.mode, DeployMode::MlGreedy | DeployMode::MlExplored),
            "pooled transfer should serve the new tenant immediately"
        );

        let provider = CloudProvider::new(InstanceCatalog::paper_catalog(), 31);
        let mut isolated =
            TenantShardedDeployer::new(provider, test_policy(TransferPolicy::Isolated), 31)
                .with_tenant(TenantId::new("acme-life"));
        assert!(reach_ml(&mut isolated), "tenant A never reached the ML phase");
        isolated.set_tenant(TenantId::new("bolt-re"));
        let out = isolated.deploy(&profile(150), &workload(150)).unwrap();
        assert_eq!(
            out.mode,
            DeployMode::Bootstrap,
            "isolated tenants must not see each other's knowledge"
        );
    }

    #[test]
    fn borrow_until_switches_from_pooled_to_local() {
        // Under BorrowUntil(n), a tenant's routing flips to its own family
        // exactly when its local count on the instance reaches n.
        let mut kb = TenantShardedKnowledgeBase::new();
        for r in mixed_records(48) {
            kb.record(r);
        }
        let a = TenantId::new("acme-life");
        let instance = "c3.4xlarge";
        let mut p = TenantShardedPredictor::new(3, 2, TransferPolicy::BorrowUntil(4));
        p.retrain_local(
            instance,
            &a,
            kb.shard(instance, &a).unwrap(),
            RetrainMode::Incremental,
            1,
        )
        .unwrap();
        p.retrain_pooled(
            instance,
            kb.pooled_shard(instance).unwrap(),
            RetrainMode::Incremental,
            1,
        )
        .unwrap();
        let cat = InstanceCatalog::paper_catalog();
        let inst = cat.get(instance).unwrap();
        let predict = |lens: usize| {
            let view = p.view(&a, BTreeMap::from([(instance.to_string(), lens)]));
            view.predict_each(&profile(123), inst, 2).unwrap()
        };
        assert_eq!(predict(0), predict(3), "below the threshold: pooled");
        assert_eq!(predict(4), predict(9), "at/past the threshold: local");
        assert_ne!(
            predict(3),
            predict(4),
            "pooled and local families should differ on a two-tenant base"
        );
    }

    #[test]
    fn warm_trains_preseeded_two_key_base() {
        let mut kb = TenantShardedKnowledgeBase::new();
        for r in mixed_records(48) {
            kb.record(r);
        }
        let provider = CloudProvider::new(InstanceCatalog::paper_catalog(), 41);
        let mut d = TenantShardedDeployer::new(
            provider,
            test_policy(TransferPolicy::BorrowUntil(10)),
            41,
        )
        .with_knowledge_base(kb)
        .with_tenant(TenantId::new("acme-life"));
        d.warm().unwrap();
        let n_types = InstanceCatalog::paper_catalog().names().len();
        // Both tenants' local families and every pooled family trained.
        assert_eq!(d.predictor().trained_local_shards(), n_types * 2);
        for name in InstanceCatalog::paper_catalog().names() {
            assert!(d.predictor().is_trained_pooled(&name));
        }
        // Local counts (2 each) sit below BorrowUntil(10): the first
        // selection routes pooled and is ML immediately.
        let out = d.deploy(&profile(150), &workload(150)).unwrap();
        assert!(matches!(
            out.mode,
            DeployMode::MlGreedy | DeployMode::MlExplored
        ));
    }
}
