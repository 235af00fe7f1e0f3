//! The knowledge base.
//!
//! "This information is stored in a database which is then coupled with
//! runtime data. Whenever a new simulation is run, the system stores the
//! execution time into the database" (§III). Each record pairs the job's
//! characteristic parameters and the deploy configuration with the
//! *measured* execution time; the base is replayed into [`Dataset`]s for
//! (re)training, and is serializable to a human-inspectable JSON file.
//!
//! Machine capabilities enter the feature vector numerically (vCPUs,
//! per-core speed, RAM) rather than as an opaque name, so knowledge
//! transfers across instance types — and, as the paper notes, across
//! companies: the parameters "are not necessarily bound to a specific one".

use crate::profile::JobProfile;
use crate::tenant::TenantId;
use crate::CoreError;
use disar_cloudsim::InstanceType;
use disar_ml::Dataset;
use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};
use std::cell::{Ref, RefCell};
use std::fmt;
use std::path::Path;

/// Version stamp of a persisted artifact's JSON layout.
///
/// Every knowledge-base layout (and the result registry's rows) carries
/// one, `#[serde(default)]`-ed so pre-version files load as version
/// [`SchemaVersion::CURRENT`] — the layout they were in fact written in.
/// Loads reject versions *newer* than this build supports
/// ([`CoreError::UnsupportedSchema`]) instead of silently misreading a
/// future format; older versions are the serde defaults' job to upgrade.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct SchemaVersion(pub u32);

impl SchemaVersion {
    /// The layout this build writes. History: `1` = first stamped layout
    /// (identical to the pre-version layout except for the stamp itself).
    pub const CURRENT: SchemaVersion = SchemaVersion(1);

    /// `true` when this build can read the version.
    pub fn is_supported(self) -> bool {
        self <= Self::CURRENT
    }
}

impl Default for SchemaVersion {
    fn default() -> Self {
        Self::CURRENT
    }
}

impl fmt::Display for SchemaVersion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Shared load-time gate: every layout's `load` rejects files stamped by
/// a newer build the same way.
pub(crate) fn check_schema(version: SchemaVersion) -> Result<(), CoreError> {
    if version.is_supported() {
        Ok(())
    } else {
        Err(CoreError::UnsupportedSchema {
            found: version.0,
            supported: SchemaVersion::CURRENT.0,
        })
    }
}

/// One executed simulation: the ML training row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunRecord {
    /// The job's characteristic parameters.
    pub profile: JobProfile,
    /// Instance-type name the job ran on.
    pub instance: String,
    /// Machine capability features at run time (vCPUs, per-core speed,
    /// memory GiB) — duplicated from the catalog so old records survive
    /// catalog changes.
    pub vcpus: u32,
    /// Per-core speed of the instance.
    pub per_core_speed: f64,
    /// Memory (GiB) of the instance.
    pub memory_gib: f64,
    /// Number of nodes of the deploy.
    pub n_nodes: usize,
    /// Measured execution time in seconds (the ML target Θ).
    pub duration_secs: f64,
    /// Realized prorated cost in USD.
    pub cost: f64,
    /// Owning company (tenant) of the run. Deliberately *not* part of the
    /// feature vector — the paper's transfer argument is that the job and
    /// machine parameters "are not necessarily bound to a specific"
    /// company, so the tenant key only routes records into shards and
    /// never biases predictions. Defaults (also for pre-tenancy JSON via
    /// serde) to [`TenantId::default`].
    #[serde(default)]
    pub tenant: TenantId,
}

impl RunRecord {
    /// Builds a record from a job profile, the instance it ran on and the
    /// realized measurements.
    pub fn new(
        profile: JobProfile,
        instance: &InstanceType,
        n_nodes: usize,
        duration_secs: f64,
        cost: f64,
    ) -> Self {
        RunRecord {
            profile,
            instance: instance.name.clone(),
            vcpus: instance.vcpus,
            per_core_speed: instance.per_core_speed,
            memory_gib: instance.memory_gib,
            n_nodes,
            duration_secs,
            cost,
            tenant: TenantId::default(),
        }
    }

    /// Tags the record with its owning tenant (builder-style).
    pub fn with_tenant(mut self, tenant: TenantId) -> Self {
        self.tenant = tenant;
        self
    }

    /// The full ML feature vector: job profile + machine capabilities +
    /// node count. The tenant tag is intentionally excluded.
    pub fn features(&self) -> Vec<f64> {
        let mut f = self.profile.to_features();
        f.push(self.vcpus as f64);
        f.push(self.per_core_speed);
        f.push(self.memory_gib);
        f.push(self.n_nodes as f64);
        f
    }

    /// Assembles the feature vector for a *hypothetical* configuration —
    /// what Algorithm 1 evaluates predictions on.
    pub fn features_for(profile: &JobProfile, instance: &InstanceType, n_nodes: usize) -> Vec<f64> {
        let mut f = Vec::new();
        Self::features_into(profile, instance, n_nodes, &mut f);
        f
    }

    /// Appends the features of [`RunRecord::features_for`] onto `out` in the
    /// same push order — the allocation-free variant the batched grid sweep
    /// uses to fill a feature matrix in place.
    pub fn features_into(
        profile: &JobProfile,
        instance: &InstanceType,
        n_nodes: usize,
        out: &mut Vec<f64>,
    ) {
        profile.features_into(out);
        out.push(instance.vcpus as f64);
        out.push(instance.per_core_speed);
        out.push(instance.memory_gib);
        out.push(n_nodes as f64);
    }

    /// Names matching [`RunRecord::features`].
    pub fn feature_names() -> Vec<String> {
        let mut names = JobProfile::feature_names();
        names.push("vcpus".to_string());
        names.push("per_core_speed".to_string());
        names.push("memory_gib".to_string());
        names.push("n_nodes".to_string());
        names
    }
}

/// The one API every knowledge-base layout speaks.
///
/// Three layouts store the same append-only record stream with different
/// partitioning: the monolithic [`KnowledgeBase`] (one flat vector), the
/// per-instance [`ShardedKnowledgeBase`], and the two-key
/// per-(instance, tenant) [`crate::tenant::TenantShardedKnowledgeBase`].
/// Code that only appends runs, replays the stream, or persists the base
/// can be written once against this trait; layout-specific accessors
/// (per-shard views, pooled views) stay inherent on each type.
///
/// Every implementation preserves the *global arrival order*:
/// [`KnowledgeStore::records_in_arrival_order`] yields the exact stream a
/// monolithic base fed the same runs would hold, which is what the
/// sharding bit-identity proofs replay.
pub trait KnowledgeStore {
    /// Appends one executed run.
    fn record(&mut self, record: RunRecord);

    /// Total number of stored runs across all partitions.
    fn len(&self) -> usize;

    /// `true` when no runs are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates every record in global arrival order, regardless of the
    /// physical partitioning.
    fn records_in_arrival_order(&self) -> Box<dyn Iterator<Item = &RunRecord> + '_>;

    /// Reconstructs the equivalent monolithic base (records in arrival
    /// order) — the layout-independent canonical form.
    fn to_monolithic(&self) -> KnowledgeBase {
        let mut kb = KnowledgeBase::new();
        for r in self.records_in_arrival_order() {
            kb.record(r.clone());
        }
        kb
    }

    /// Saves the base as pretty JSON.
    ///
    /// # Errors
    ///
    /// Propagates I/O and serialization failures.
    fn save(&self, path: &Path) -> Result<(), CoreError>;
}

/// The persistent store of executed runs.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct KnowledgeBase {
    /// JSON layout version (serde-defaulted so pre-version files load).
    #[serde(default)]
    pub schema_version: SchemaVersion,
    records: Vec<RunRecord>,
    /// Featurized view of `records`, built lazily by [`KnowledgeBase::dataset`]
    /// and kept in sync incrementally by [`KnowledgeBase::record`], so one
    /// retrain featurizes the base once instead of once per model. Never
    /// serialized; rebuilt on demand after a load.
    #[serde(skip)]
    cache: RefCell<Option<Dataset>>,
}

/// Equality is over the stored records only — the lazily built dataset
/// cache is derived state and must not distinguish two bases (e.g. one
/// freshly loaded from JSON from the original that already featurized).
/// The schema version is metadata about the *file*, not the knowledge, so
/// a base loaded from an old stamp equals the freshly built one.
impl PartialEq for KnowledgeBase {
    fn eq(&self, other: &Self) -> bool {
        self.records == other.records
    }
}

impl KnowledgeBase {
    /// Creates an empty knowledge base.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one run.
    pub fn record(&mut self, record: RunRecord) {
        let cache = self.cache.get_mut();
        if let Some(d) = cache.as_mut() {
            let in_sync = d.len() == self.records.len();
            if !in_sync || d.push(record.features(), record.duration_secs).is_err() {
                *cache = None;
            }
        }
        self.records.push(record);
    }

    /// Number of stored runs.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when no runs are stored.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The stored records, oldest first.
    pub fn records(&self) -> &[RunRecord] {
        &self.records
    }

    /// Converts the whole base into an ML training set (target: measured
    /// execution time in seconds).
    ///
    /// Clones out of the shared cache; callers that only need to read the
    /// rows should prefer [`KnowledgeBase::dataset`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InsufficientKnowledge`] when empty.
    pub fn to_dataset(&self) -> Result<Dataset, CoreError> {
        Ok(self.dataset()?.clone())
    }

    /// A shared view of the featurized base, built at most once per batch
    /// of appended records.
    ///
    /// The first call (or the first call after a [`KnowledgeBase::load`] or
    /// a cache invalidation) featurizes every record; subsequent calls and
    /// records appended through [`KnowledgeBase::record`] reuse the cached
    /// rows. Records are append-only, so a length match means the cache is
    /// current.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InsufficientKnowledge`] when empty.
    pub fn dataset(&self) -> Result<Ref<'_, Dataset>, CoreError> {
        if self.records.is_empty() {
            return Err(CoreError::InsufficientKnowledge { have: 0, need: 1 });
        }
        let stale = match &*self.cache.borrow() {
            Some(d) => d.len() != self.records.len(),
            None => true,
        };
        if stale {
            let mut d = Dataset::new(RunRecord::feature_names());
            for r in &self.records {
                d.push(r.features(), r.duration_secs)
                    .map_err(CoreError::from)?;
            }
            *self.cache.borrow_mut() = Some(d);
        }
        Ok(Ref::map(self.cache.borrow(), |c| {
            c.as_ref().expect("cache populated above")
        }))
    }

    /// Subset of records executed on the named instance type (per-instance
    /// Table I columns).
    pub fn for_instance(&self, instance: &str) -> KnowledgeBase {
        KnowledgeBase {
            schema_version: SchemaVersion::CURRENT,
            records: self
                .records
                .iter()
                .filter(|r| r.instance == instance)
                .cloned()
                .collect(),
            cache: RefCell::new(None),
        }
    }

    /// Saves the base as pretty JSON.
    ///
    /// # Errors
    ///
    /// Propagates I/O and serialization failures.
    pub fn save(&self, path: &Path) -> Result<(), CoreError> {
        let json = serde_json::to_string_pretty(self)?;
        std::fs::write(path, json)?;
        Ok(())
    }

    /// Loads a base previously written with [`KnowledgeBase::save`].
    ///
    /// # Errors
    ///
    /// Propagates I/O and deserialization failures; rejects files stamped
    /// with a newer [`SchemaVersion`] than this build supports.
    pub fn load(path: &Path) -> Result<Self, CoreError> {
        let json = std::fs::read_to_string(path)?;
        let kb: KnowledgeBase = serde_json::from_str(&json)?;
        check_schema(kb.schema_version)?;
        Ok(kb)
    }
}

impl KnowledgeStore for KnowledgeBase {
    fn record(&mut self, record: RunRecord) {
        KnowledgeBase::record(self, record);
    }

    fn len(&self) -> usize {
        KnowledgeBase::len(self)
    }

    fn records_in_arrival_order(&self) -> Box<dyn Iterator<Item = &RunRecord> + '_> {
        Box::new(self.records.iter())
    }

    /// A monolithic base is already its own canonical form.
    fn to_monolithic(&self) -> KnowledgeBase {
        self.clone()
    }

    fn save(&self, path: &Path) -> Result<(), CoreError> {
        KnowledgeBase::save(self, path)
    }
}

/// A knowledge base partitioned by a key `K` of its records — the store
/// under both the per-instance [`ShardedKnowledgeBase`] (`K` = instance
/// type) and the two-key [`crate::tenant::TenantShardedKnowledgeBase`]
/// (`K` = instance type × tenant).
///
/// Each shard is a plain [`KnowledgeBase`] holding the records of one key
/// (with its own incrementally maintained featurized [`Dataset`] cache), so
/// `record()` touches exactly one shard and a per-shard retrain scales with
/// that shard's size, not the total base. The global arrival order is kept
/// alongside the shards, so the exact monolithic record stream can always
/// be reconstructed ([`Partitioned::to_monolithic`]) — sharding never loses
/// or reorders information.
///
/// Equality (like [`KnowledgeBase`]'s) is over records and arrival order
/// only, never over derived caches or the file-metadata schema stamp.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Partitioned<K> {
    /// JSON layout version (serde-defaulted so pre-version files load).
    #[serde(default)]
    pub schema_version: SchemaVersion,
    /// Key of each shard, in first-seen order (`names` in per-instance
    /// files written before the two layouts shared this store).
    #[serde(alias = "names")]
    keys: Vec<K>,
    shards: Vec<KnowledgeBase>,
    /// Shard slot of each record, in global arrival order.
    arrival: Vec<u32>,
}

/// A knowledge base partitioned by instance type — the million-record-scale
/// layout of the self-optimizing loop.
pub type ShardedKnowledgeBase = Partitioned<String>;

impl<K: PartialEq> PartialEq for Partitioned<K> {
    fn eq(&self, other: &Self) -> bool {
        self.keys == other.keys && self.shards == other.shards && self.arrival == other.arrival
    }
}

impl<K> Partitioned<K> {
    /// Total number of stored runs across all shards.
    pub fn len(&self) -> usize {
        self.arrival.len()
    }

    /// `true` when no runs are stored.
    pub fn is_empty(&self) -> bool {
        self.arrival.is_empty()
    }

    /// Number of shards (distinct keys seen).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The keys with a shard, in first-seen order.
    pub fn keys(&self) -> &[K] {
        &self.keys
    }

    /// The shard of the first key `matches` accepts.
    pub(crate) fn find(&self, matches: impl Fn(&K) -> bool) -> Option<&KnowledgeBase> {
        self.keys
            .iter()
            .position(matches)
            .map(|slot| &self.shards[slot])
    }

    /// Iterates `(key, shard)` pairs in first-seen order.
    pub(crate) fn keyed_shards(&self) -> impl Iterator<Item = (&K, &KnowledgeBase)> {
        self.keys.iter().zip(self.shards.iter())
    }

    /// Iterates every record in global arrival order — the exact stream a
    /// monolithic [`KnowledgeBase`] fed the same runs would hold.
    pub fn records_in_arrival_order(&self) -> impl Iterator<Item = &RunRecord> + '_ {
        let mut cursors = vec![0usize; self.shards.len()];
        self.arrival.iter().map(move |&slot| {
            let slot = slot as usize;
            let r = &self.shards[slot].records()[cursors[slot]];
            cursors[slot] += 1;
            r
        })
    }

    /// Reconstructs the equivalent monolithic base (records in arrival
    /// order, tenant tags intact).
    pub fn to_monolithic(&self) -> KnowledgeBase {
        let mut kb = KnowledgeBase::new();
        for r in self.records_in_arrival_order() {
            kb.record(r.clone());
        }
        kb
    }
}

impl<K: Default + PartialEq> Partitioned<K> {
    /// Creates an empty partitioned base.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one run to the shard of `key` (creating the shard on first
    /// sight of the key). Only that shard's dataset cache is touched.
    pub(crate) fn record_under(&mut self, key: K, record: RunRecord) {
        let slot = match self.keys.iter().position(|k| *k == key) {
            Some(slot) => slot,
            None => {
                self.keys.push(key);
                self.shards.push(KnowledgeBase::new());
                self.keys.len() - 1
            }
        };
        self.arrival.push(slot as u32);
        self.shards[slot].record(record);
    }
}

impl<K: Serialize + DeserializeOwned> Partitioned<K> {
    /// Saves the partitioned base as pretty JSON.
    ///
    /// # Errors
    ///
    /// Propagates I/O and serialization failures.
    pub fn save(&self, path: &Path) -> Result<(), CoreError> {
        let json = serde_json::to_string_pretty(self)?;
        std::fs::write(path, json)?;
        Ok(())
    }

    /// Loads a base previously written with [`Partitioned::save`].
    ///
    /// # Errors
    ///
    /// Propagates I/O and deserialization failures; rejects files stamped
    /// with a newer [`SchemaVersion`] than this build supports.
    pub fn load(path: &Path) -> Result<Self, CoreError> {
        let json = std::fs::read_to_string(path)?;
        let kb: Self = serde_json::from_str(&json)?;
        check_schema(kb.schema_version)?;
        Ok(kb)
    }
}

impl Partitioned<String> {
    /// Builds a sharded base holding the same record stream as `kb`.
    pub fn from_monolithic(kb: &KnowledgeBase) -> Self {
        let mut sharded = ShardedKnowledgeBase::new();
        for r in kb.records() {
            sharded.record(r.clone());
        }
        sharded
    }

    /// Appends one run to the shard owning its instance type.
    pub fn record(&mut self, record: RunRecord) {
        self.record_under(record.instance.clone(), record);
    }

    /// Instance-type names with a shard, in first-seen order.
    pub fn shard_names(&self) -> &[String] {
        &self.keys
    }

    /// The shard holding the named instance type's records.
    pub fn shard(&self, instance: &str) -> Option<&KnowledgeBase> {
        self.find(|n| n == instance)
    }

    /// Iterates `(instance name, shard)` pairs in first-seen order.
    pub fn shards(&self) -> impl Iterator<Item = (&str, &KnowledgeBase)> {
        self.keyed_shards().map(|(n, s)| (n.as_str(), s))
    }
}

impl KnowledgeStore for ShardedKnowledgeBase {
    fn record(&mut self, record: RunRecord) {
        ShardedKnowledgeBase::record(self, record);
    }

    fn len(&self) -> usize {
        ShardedKnowledgeBase::len(self)
    }

    fn records_in_arrival_order(&self) -> Box<dyn Iterator<Item = &RunRecord> + '_> {
        Box::new(ShardedKnowledgeBase::records_in_arrival_order(self))
    }

    fn save(&self, path: &Path) -> Result<(), CoreError> {
        ShardedKnowledgeBase::save(self, path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn instance() -> InstanceType {
        disar_cloudsim::InstanceCatalog::paper_catalog()
            .get("c3.4xlarge")
            .unwrap()
            .clone()
    }

    #[test]
    fn record_features_shape() {
        let r = RunRecord::new(profile(100), &instance(), 4, 312.0, 0.29);
        let f = r.features();
        assert_eq!(f.len(), RunRecord::feature_names().len());
        assert_eq!(f[0], 100.0); // contracts first
        assert_eq!(f[f.len() - 1], 4.0); // node count last
        assert_eq!(f[6], 16.0); // vcpus of c3.4xlarge
    }

    #[test]
    fn features_for_matches_record_features() {
        let p = profile(42);
        let inst = instance();
        let via_record = RunRecord::new(p, &inst, 2, 1.0, 0.0).features();
        let direct = RunRecord::features_for(&p, &inst, 2);
        assert_eq!(via_record, direct);
    }

    #[test]
    fn dataset_roundtrip() {
        let mut kb = KnowledgeBase::new();
        for i in 1..=20 {
            kb.record(RunRecord::new(
                profile(i * 10),
                &instance(),
                i % 4 + 1,
                100.0 * i as f64,
                0.01 * i as f64,
            ));
        }
        let d = kb.to_dataset().unwrap();
        assert_eq!(d.len(), 20);
        assert_eq!(d.dim(), RunRecord::feature_names().len());
        assert_eq!(d.targets()[4], 500.0);
    }

    #[test]
    fn empty_base_cannot_train() {
        let kb = KnowledgeBase::new();
        assert!(matches!(
            kb.to_dataset(),
            Err(CoreError::InsufficientKnowledge { .. })
        ));
    }

    #[test]
    fn per_instance_filter() {
        let mut kb = KnowledgeBase::new();
        let cat = disar_cloudsim::InstanceCatalog::paper_catalog();
        kb.record(RunRecord::new(
            profile(1),
            cat.get("c3.4xlarge").unwrap(),
            1,
            1.0,
            0.0,
        ));
        kb.record(RunRecord::new(
            profile(2),
            cat.get("m4.4xlarge").unwrap(),
            1,
            2.0,
            0.0,
        ));
        assert_eq!(kb.for_instance("c3.4xlarge").len(), 1);
        assert_eq!(kb.for_instance("m4.4xlarge").len(), 1);
        assert_eq!(kb.for_instance("c4.8xlarge").len(), 0);
    }

    #[test]
    fn save_load_roundtrip() {
        let mut kb = KnowledgeBase::new();
        kb.record(RunRecord::new(profile(7), &instance(), 3, 99.5, 0.07));
        let dir = std::env::temp_dir().join("disar-kb-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("kb.json");
        kb.save(&path).unwrap();
        let loaded = KnowledgeBase::load(&path).unwrap();
        assert_eq!(kb, loaded);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_missing_file_is_io_error() {
        let path = Path::new("/nonexistent/disar/kb.json");
        assert!(matches!(KnowledgeBase::load(path), Err(CoreError::Io(_))));
    }

    #[test]
    fn cached_dataset_tracks_incremental_records() {
        let mut kb = KnowledgeBase::new();
        for i in 1..=10 {
            kb.record(RunRecord::new(profile(i * 10), &instance(), 1, i as f64, 0.0));
        }
        // Build the cache, then append through it.
        assert_eq!(kb.dataset().unwrap().len(), 10);
        for i in 11..=15 {
            kb.record(RunRecord::new(profile(i * 10), &instance(), 2, i as f64, 0.0));
        }
        // The incrementally maintained cache must match a from-scratch
        // featurization of the same records.
        let mut fresh = Dataset::new(RunRecord::feature_names());
        for r in kb.records() {
            fresh.push(r.features(), r.duration_secs).unwrap();
        }
        assert_eq!(*kb.dataset().unwrap(), fresh);
        assert_eq!(kb.to_dataset().unwrap(), fresh);
    }

    /// An interleaved multi-instance record stream for sharding tests.
    fn mixed_records(n: usize) -> Vec<RunRecord> {
        let cat = disar_cloudsim::InstanceCatalog::paper_catalog();
        let names = cat.names();
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
            })
            .collect()
    }

    #[test]
    fn sharded_routes_records_by_instance() {
        let mut skb = ShardedKnowledgeBase::new();
        for r in mixed_records(30) {
            skb.record(r);
        }
        assert_eq!(skb.len(), 30);
        assert!(!skb.is_empty());
        let n_types = disar_cloudsim::InstanceCatalog::paper_catalog()
            .names()
            .len();
        assert_eq!(skb.shard_count(), n_types);
        for (name, shard) in skb.shards() {
            assert_eq!(shard.len(), 30 / n_types);
            assert!(shard.records().iter().all(|r| r.instance == name));
        }
        assert!(skb.shard("no-such-type").is_none());
    }

    #[test]
    fn sharded_preserves_arrival_order() {
        let records = mixed_records(25);
        let mut skb = ShardedKnowledgeBase::new();
        let mut mono = KnowledgeBase::new();
        for r in &records {
            skb.record(r.clone());
            mono.record(r.clone());
        }
        let replayed: Vec<&RunRecord> = skb.records_in_arrival_order().collect();
        assert_eq!(replayed.len(), records.len());
        for (got, want) in replayed.iter().zip(&records) {
            assert_eq!(*got, want);
        }
        assert_eq!(skb.to_monolithic(), mono);
    }

    #[test]
    fn sharded_shard_matches_for_instance_filter() {
        let mut skb = ShardedKnowledgeBase::new();
        let mut mono = KnowledgeBase::new();
        for r in mixed_records(24) {
            skb.record(r.clone());
            mono.record(r);
        }
        for name in skb.shard_names().to_vec() {
            let shard = skb.shard(&name).unwrap();
            assert_eq!(*shard, mono.for_instance(&name));
            assert_eq!(
                *shard.dataset().unwrap(),
                *mono.for_instance(&name).dataset().unwrap()
            );
        }
    }

    #[test]
    fn sharded_from_monolithic_roundtrip() {
        let mut mono = KnowledgeBase::new();
        for r in mixed_records(18) {
            mono.record(r);
        }
        let skb = ShardedKnowledgeBase::from_monolithic(&mono);
        assert_eq!(skb.to_monolithic(), mono);
    }

    #[test]
    fn sharded_save_load_roundtrip() {
        let mut skb = ShardedKnowledgeBase::new();
        for r in mixed_records(12) {
            skb.record(r);
        }
        // Warm a shard cache pre-save; the cache is skipped, not serialized.
        let first = skb.shard_names()[0].clone();
        let _ = skb.shard(&first).unwrap().dataset().unwrap();
        let dir = std::env::temp_dir().join("disar-skb-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("skb.json");
        skb.save(&path).unwrap();
        let loaded = ShardedKnowledgeBase::load(&path).unwrap();
        assert_eq!(skb, loaded);
        assert_eq!(loaded.to_monolithic(), skb.to_monolithic());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn knowledge_store_trait_unifies_layouts() {
        let records = mixed_records(20);
        let mut stores: Vec<Box<dyn KnowledgeStore>> = vec![
            Box::new(KnowledgeBase::new()),
            Box::new(ShardedKnowledgeBase::new()),
        ];
        for store in &mut stores {
            for r in &records {
                store.record(r.clone());
            }
            assert_eq!(store.len(), records.len());
            assert!(!store.is_empty());
            let replayed: Vec<RunRecord> =
                store.records_in_arrival_order().cloned().collect();
            assert_eq!(replayed, records);
        }
        assert_eq!(stores[0].to_monolithic(), stores[1].to_monolithic());
    }

    #[test]
    fn with_tenant_tags_record_without_touching_features() {
        let plain = RunRecord::new(profile(7), &instance(), 3, 99.5, 0.07);
        let tagged = plain.clone().with_tenant(TenantId::new("acme-life"));
        assert_eq!(plain.tenant, TenantId::default());
        assert_eq!(tagged.tenant, TenantId::new("acme-life"));
        assert_ne!(plain, tagged);
        // The tenant key routes shards; it must never leak into the ML view.
        assert_eq!(plain.features(), tagged.features());
    }

    #[test]
    fn pre_tenancy_json_loads_with_default_tenant() {
        let r = RunRecord::new(profile(7), &instance(), 3, 99.5, 0.07);
        let mut v = serde_json::to_value(&r).unwrap();
        v.as_object_mut().unwrap().remove("tenant").unwrap();
        let loaded: RunRecord = serde_json::from_value(v).unwrap();
        assert_eq!(loaded.tenant, TenantId::default());
        assert_eq!(loaded, r);
    }

    #[test]
    fn pre_version_json_loads_with_current_schema() {
        // Strip the stamp to simulate a file written before versioning.
        let mut kb = KnowledgeBase::new();
        kb.record(RunRecord::new(profile(7), &instance(), 3, 99.5, 0.07));
        let mut v = serde_json::to_value(&kb).unwrap();
        v.as_object_mut().unwrap().remove("schema_version").unwrap();
        let dir = std::env::temp_dir().join("disar-kb-schema-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pre_version.json");
        std::fs::write(&path, v.to_string()).unwrap();
        let loaded = KnowledgeBase::load(&path).unwrap();
        assert_eq!(loaded.schema_version, SchemaVersion::CURRENT);
        assert_eq!(loaded, kb);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn newer_schema_is_rejected_by_every_layout() {
        let dir = std::env::temp_dir().join("disar-kb-schema-test");
        std::fs::create_dir_all(&dir).unwrap();
        let future = SchemaVersion(SchemaVersion::CURRENT.0 + 1);
        assert!(!future.is_supported());

        let mut kb = KnowledgeBase::new();
        kb.record(RunRecord::new(profile(7), &instance(), 3, 99.5, 0.07));
        kb.schema_version = future;
        let path = dir.join("future_mono.json");
        kb.save(&path).unwrap();
        assert!(matches!(
            KnowledgeBase::load(&path),
            Err(CoreError::UnsupportedSchema { found, supported })
                if found == future.0 && supported == SchemaVersion::CURRENT.0
        ));
        std::fs::remove_file(&path).ok();

        let mut skb = ShardedKnowledgeBase::from_monolithic(&kb);
        skb.schema_version = future;
        let path = dir.join("future_sharded.json");
        skb.save(&path).unwrap();
        assert!(matches!(
            ShardedKnowledgeBase::load(&path),
            Err(CoreError::UnsupportedSchema { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn schema_stamp_does_not_enter_equality() {
        let mut a = KnowledgeBase::new();
        a.record(RunRecord::new(profile(7), &instance(), 3, 99.5, 0.07));
        let mut b = a.clone();
        b.schema_version = SchemaVersion(0);
        assert_eq!(a, b);
    }

    #[test]
    fn loaded_base_rebuilds_dataset() {
        let mut kb = KnowledgeBase::new();
        kb.record(RunRecord::new(profile(7), &instance(), 3, 99.5, 0.07));
        kb.record(RunRecord::new(profile(9), &instance(), 1, 42.0, 0.03));
        let _ = kb.dataset().unwrap(); // warm the cache pre-save
        let dir = std::env::temp_dir().join("disar-kb-cache-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("kb.json");
        kb.save(&path).unwrap();
        let loaded = KnowledgeBase::load(&path).unwrap();
        assert_eq!(kb, loaded);
        assert_eq!(*loaded.dataset().unwrap(), *kb.dataset().unwrap());
        std::fs::remove_file(&path).ok();
    }
}
