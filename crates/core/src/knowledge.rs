//! The knowledge base.
//!
//! "This information is stored in a database which is then coupled with
//! runtime data. Whenever a new simulation is run, the system stores the
//! execution time into the database" (§III). Each record pairs the job's
//! characteristic parameters and the deploy configuration with the
//! *measured* execution time; the base is replayed into [`Dataset`]s for
//! (re)training, and is saved to a human-inspectable JSON file.
//!
//! There is one file format, whatever layout wrote it and whatever layout
//! reads it: the records in arrival order, one to a line.
//!
//! ```text
//! {"schema_version": 1, "records": [
//! {"cost":0.29,"duration_secs":312.0,"instance":"c3.4xlarge","memory_gib":30.0,"n_nodes":4,"per_core_speed":1.06,"profile":{"characteristics":{"fund_assets":30,"max_horizon":20,"representative_contracts":100,"risk_factors":2},"n_inner":50,"n_outer":1000},"tenant":"default","vcpus":16},
//! {"cost":0.31, …}
//! ]}
//! ```
//!
//! One function streams it (`write_records`, behind every `save`) and one
//! parses it, checks the version and hands each record to the layout's own
//! `record` (`read_records`, behind every `load`), so shard keys, shard
//! contents and arrival slots are always rebuilt, never read.
//!
//! Machine capabilities enter the feature vector numerically (vCPUs,
//! per-core speed, RAM) rather than as an opaque name, so knowledge
//! transfers across instance types — and, as the paper notes, across
//! companies: the parameters "are not necessarily bound to a specific one".

use crate::profile::JobProfile;
use crate::CoreError;
use disar_cloudsim::InstanceType;
use disar_math::json::{Json, JsonError};
use disar_ml::Dataset;
use std::cell::{Ref, RefCell};
use std::fmt;
use std::io::Write as _;
use std::path::Path;

/// Version stamp of a persisted artifact's JSON layout.
///
/// Every knowledge-base file and every row of the result registry carries
/// one. Loads reject versions *newer* than this build supports
/// ([`CoreError::UnsupportedSchema`]) instead of silently misreading a
/// future format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
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

impl fmt::Display for SchemaVersion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Writes a knowledge-base file: the one writer behind every layout's `save`.
///
/// Record by record through a buffer, so saving a large base holds one
/// record's text in memory and not the document's.
pub(crate) fn write_records<'a>(
    path: &Path,
    records: impl Iterator<Item = &'a RunRecord>,
) -> Result<(), CoreError> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(
        out,
        "{{\"schema_version\": {}, \"records\": [",
        SchemaVersion::CURRENT
    )?;
    for (i, record) in records.enumerate() {
        let separator = if i == 0 { "" } else { "," };
        write!(out, "{separator}\n{}", record.to_json())?;
    }
    writeln!(out, "\n]}}")?;
    out.flush()?;
    Ok(())
}

/// Reads a knowledge-base file into any layout: the one reader behind every
/// layout's `load`. Only the records are taken from the file; `S::record`
/// rebuilds whatever partitioning and derived state the layout keeps.
pub(crate) fn read_records<S: KnowledgeStore + Default>(path: &Path) -> Result<S, CoreError> {
    let document = Json::parse(&std::fs::read_to_string(path)?)?;
    let found = document.uint_at("schema_version")?;
    if !SchemaVersion(found).is_supported() {
        return Err(CoreError::UnsupportedSchema {
            found,
            supported: SchemaVersion::CURRENT.0,
        });
    }
    let mut store = S::default();
    for record in document.arr_at("records")? {
        store.record(RunRecord::from_json(record)?);
    }
    Ok(store)
}

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

/// One executed simulation: the ML training row.
#[derive(Debug, Clone, PartialEq)]
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
    /// company, so the tag records whose run it was and never biases
    /// predictions. The deployer that lands the run stamps it with its
    /// active tenant ([`crate::deploy::DeployLoop::set_tenant`]). Defaults
    /// to [`TenantId::default`].
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

    /// The record as one object of a knowledge-base file.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("profile", self.profile.to_json()),
            ("instance", self.instance.as_str().into()),
            ("vcpus", self.vcpus.into()),
            ("per_core_speed", self.per_core_speed.into()),
            ("memory_gib", self.memory_gib.into()),
            ("n_nodes", self.n_nodes.into()),
            ("duration_secs", self.duration_secs.into()),
            ("cost", self.cost.into()),
            ("tenant", self.tenant.as_str().into()),
        ])
    }

    /// Reads a record back from [`RunRecord::to_json`]'s object.
    ///
    /// # Errors
    ///
    /// Names the first field that is missing or holds another type. A run
    /// no deploy can have made is the wrong type too: no vCPUs or nodes, a
    /// duration that is not positive or a negative cost.
    pub fn from_json(json: &Json) -> Result<Self, JsonError> {
        let record = RunRecord {
            profile: JobProfile::from_json(json.at("profile")?)?,
            instance: json.str_at("instance")?.to_string(),
            vcpus: json.uint_at("vcpus")?,
            per_core_speed: json.f64_at("per_core_speed")?,
            memory_gib: json.f64_at("memory_gib")?,
            n_nodes: json.uint_at("n_nodes")?,
            duration_secs: json.f64_at("duration_secs")?,
            cost: json.f64_at("cost")?,
            tenant: TenantId::new(json.str_at("tenant")?),
        };
        let impossible = [
            ("vcpus", "a positive integer", record.vcpus == 0),
            ("n_nodes", "a positive integer", record.n_nodes == 0),
            (
                "duration_secs",
                "a positive number",
                record.duration_secs <= 0.0,
            ),
            ("cost", "a non-negative number", record.cost < 0.0),
        ];
        match impossible.into_iter().find(|&(.., bad)| bad) {
            Some((field, expected, _)) => Err(JsonError::WrongType {
                field: field.to_string(),
                expected,
            }),
            None => Ok(record),
        }
    }
}

/// The one API every knowledge-base layout speaks.
///
/// Two layouts store the same append-only record stream with different
/// partitioning: the monolithic [`KnowledgeBase`] (one flat vector) and the
/// per-instance [`ShardedKnowledgeBase`]. Code that only appends runs,
/// replays the stream, or persists the base can be written once against
/// this trait; per-shard views stay inherent on the sharded type.
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

    /// Saves the base in the one knowledge-base file format (module docs).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    fn save(&self, path: &Path) -> Result<(), CoreError> {
        write_records(path, self.records_in_arrival_order())
    }
}

/// The persistent store of executed runs.
#[derive(Debug, Clone, Default)]
pub struct KnowledgeBase {
    records: Vec<RunRecord>,
    /// Featurized view of `records`, built lazily by [`KnowledgeBase::dataset`]
    /// and kept in sync incrementally by [`KnowledgeBase::record`], so one
    /// retrain featurizes the base once instead of once per model. Never
    /// saved; rebuilt on demand after a load.
    cache: RefCell<Option<Dataset>>,
}

/// Equality is over the stored records only — the lazily built dataset
/// cache is derived state and must not distinguish two bases (e.g. one
/// freshly loaded from JSON from the original that already featurized).
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
            records: self
                .records
                .iter()
                .filter(|r| r.instance == instance)
                .cloned()
                .collect(),
            cache: RefCell::new(None),
        }
    }

    /// Saves the base in the one knowledge-base file format (module docs).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn save(&self, path: &Path) -> Result<(), CoreError> {
        write_records(path, self.records.iter())
    }

    /// Loads a base from a file any layout's `save` wrote.
    ///
    /// # Errors
    ///
    /// [`CoreError::Io`] when the file cannot be read, [`CoreError::Json`]
    /// when it is not a knowledge-base file, and
    /// [`CoreError::UnsupportedSchema`] when it is stamped with a newer
    /// [`SchemaVersion`] than this build supports.
    pub fn load(path: &Path) -> Result<Self, CoreError> {
        read_records(path)
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
}

/// A knowledge base partitioned by instance type — the million-record-scale
/// layout of the self-optimizing loop.
///
/// Each shard is a plain [`KnowledgeBase`] holding the records of one
/// instance type (with its own incrementally maintained featurized
/// [`Dataset`] cache), so `record()` touches exactly one shard and a
/// per-shard retrain scales with that shard's size, not the total base. The
/// global arrival order is kept alongside the shards, so the exact
/// monolithic record stream can always be reconstructed
/// ([`ShardedKnowledgeBase::to_monolithic`]) — sharding never loses or
/// reorders information. Records of several tenants share a shard; each
/// keeps its own [`RunRecord::tenant`] tag.
///
/// Equality (like [`KnowledgeBase`]'s) is over records and arrival order
/// only, never over derived caches.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardedKnowledgeBase {
    /// Instance type of each shard, in first-seen order.
    names: Vec<String>,
    shards: Vec<KnowledgeBase>,
    /// Shard slot of each record, in global arrival order.
    arrival: Vec<u32>,
}

impl ShardedKnowledgeBase {
    /// Creates an empty sharded base.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a sharded base holding the same record stream as `kb`.
    pub fn from_monolithic(kb: &KnowledgeBase) -> Self {
        let mut sharded = ShardedKnowledgeBase::new();
        for r in kb.records() {
            sharded.record(r.clone());
        }
        sharded
    }

    /// Appends one run to the shard owning its instance type (creating the
    /// shard on first sight of the type). Only that shard's dataset cache
    /// is touched.
    pub fn record(&mut self, record: RunRecord) {
        let slot = match self.names.iter().position(|n| *n == record.instance) {
            Some(slot) => slot,
            None => {
                self.names.push(record.instance.clone());
                self.shards.push(KnowledgeBase::new());
                self.names.len() - 1
            }
        };
        self.arrival.push(slot as u32);
        self.shards[slot].record(record);
    }

    /// Total number of stored runs across all shards.
    pub fn len(&self) -> usize {
        self.arrival.len()
    }

    /// `true` when no runs are stored.
    pub fn is_empty(&self) -> bool {
        self.arrival.is_empty()
    }

    /// Number of shards (distinct instance types seen).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Instance-type names with a shard, in first-seen order.
    pub fn shard_names(&self) -> &[String] {
        &self.names
    }

    /// The shard holding the named instance type's records.
    pub fn shard(&self, instance: &str) -> Option<&KnowledgeBase> {
        let slot = self.names.iter().position(|n| n == instance)?;
        Some(&self.shards[slot])
    }

    /// Iterates `(instance name, shard)` pairs in first-seen order.
    pub fn shards(&self) -> impl Iterator<Item = (&str, &KnowledgeBase)> {
        self.names
            .iter()
            .map(String::as_str)
            .zip(self.shards.iter())
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

    /// Saves the base in the one knowledge-base file format (module docs).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn save(&self, path: &Path) -> Result<(), CoreError> {
        write_records(path, self.records_in_arrival_order())
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use disar_engine::EebCharacteristics;
    use std::path::PathBuf;

    /// A file of its own for one test, in a directory the tests share.
    fn temp_file(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("disar-kb-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.json", std::process::id()))
    }

    /// What loading `text` as a knowledge-base file says, in every layout.
    fn load_text(name: &str, text: &str) -> [Result<usize, CoreError>; 2] {
        let path = temp_file(name);
        std::fs::write(&path, text).unwrap();
        let loaded = [
            KnowledgeBase::load(&path).map(|kb| kb.len()),
            ShardedKnowledgeBase::load(&path).map(|kb| kb.len()),
        ];
        std::fs::remove_file(&path).ok();
        loaded
    }

    /// The text `save` writes for a base of two records.
    fn saved_text(name: &str) -> String {
        let mut kb = KnowledgeBase::new();
        kb.record(RunRecord::new(profile(7), &instance(), 3, 99.5, 0.07));
        kb.record(RunRecord::new(profile(9), &instance(), 1, 42.0, 0.03));
        let path = temp_file(name);
        kb.save(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        text
    }

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
        let path = temp_file("mono");
        kb.save(&path).unwrap();
        let loaded = KnowledgeBase::load(&path).unwrap();
        assert_eq!(kb, loaded);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("{\"schema_version\": 1, \"records\": [\n{\"cost\":0.07,"));
        std::fs::remove_file(&path).ok();

        // An empty base is a file too.
        KnowledgeBase::new().save(&path).unwrap();
        assert!(KnowledgeBase::load(&path).unwrap().is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_file_is_a_typed_error() {
        let text = saved_text("truncated");
        for cut in [0, 1, text.len() / 2, text.len() - 2] {
            for loaded in load_text("truncated-cut", &text[..cut]) {
                assert!(
                    matches!(loaded, Err(CoreError::Json(JsonError::Syntax { .. }))),
                    "cut at {cut}: {loaded:?}"
                );
            }
        }
    }

    #[test]
    fn wrong_type_in_a_field_is_a_typed_error() {
        let text =
            saved_text("wrong-type").replace("\"duration_secs\":42.0", "\"duration_secs\":\"42\"");
        for loaded in load_text("wrong-type-edited", &text) {
            assert!(matches!(
                loaded,
                Err(CoreError::Json(JsonError::WrongType { ref field, .. })) if field == "duration_secs"
            ));
        }
        // An integer that does not fit the field is the wrong type too.
        let text = saved_text("wrong-range").replace("\"vcpus\":16", "\"vcpus\":4294967296");
        for loaded in load_text("wrong-range-edited", &text) {
            assert!(matches!(
                loaded,
                Err(CoreError::Json(JsonError::WrongType { ref field, .. })) if field == "vcpus"
            ));
        }
    }

    #[test]
    fn impossible_runs_are_typed_load_errors() {
        let text = saved_text("impossible");
        for (from, to) in [
            ("\"duration_secs\":42.0", "\"duration_secs\":0.0"),
            ("\"duration_secs\":42.0", "\"duration_secs\":-42.0"),
            ("\"cost\":0.03", "\"cost\":-0.03"),
            ("\"n_nodes\":1,", "\"n_nodes\":0,"),
            ("\"vcpus\":16", "\"vcpus\":0"),
        ] {
            let field = to.split('"').nth(1).unwrap();
            let edited = text.replace(from, to);
            assert_ne!(edited, text, "{from} is in the saved text");
            for loaded in load_text("impossible-edited", &edited) {
                assert!(
                    matches!(
                        loaded,
                        Err(CoreError::Json(JsonError::WrongType { field: ref f, .. })) if f == field
                    ),
                    "{to}: {loaded:?}"
                );
            }
        }
        // A free run is possible.
        let free = text.replace("\"cost\":0.03", "\"cost\":0.0");
        assert_ne!(free, text);
        for loaded in load_text("free-run", &free) {
            assert_eq!(loaded.unwrap(), 2);
        }
    }

    #[test]
    fn missing_field_is_a_typed_error() {
        let text = saved_text("missing").replace("\"tenant\":\"default\",", "");
        for loaded in load_text("missing-edited", &text) {
            assert!(matches!(
                loaded,
                Err(CoreError::Json(JsonError::MissingField(ref field))) if field == "tenant"
            ));
        }
        for loaded in load_text("missing-records", "{\"schema_version\": 1}") {
            assert!(matches!(
                loaded,
                Err(CoreError::Json(JsonError::MissingField(ref field))) if field == "records"
            ));
        }
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
        // Warm a shard cache pre-save; the cache is derived, never saved.
        let first = skb.shard_names()[0].clone();
        let _ = skb.shard(&first).unwrap().dataset().unwrap();
        let path = temp_file("sharded");
        skb.save(&path).unwrap();
        let loaded = ShardedKnowledgeBase::load(&path).unwrap();
        assert_eq!(skb, loaded);
        assert_eq!(loaded.to_monolithic(), skb.to_monolithic());
        std::fs::remove_file(&path).ok();
    }

    /// One file format: a stream saved from any layout loads into any layout
    /// as the same stream, with that layout's own partitioning rebuilt.
    #[test]
    fn every_layout_loads_every_layouts_file() {
        let tenants = ["acme-life", "bolt-re", "default"];
        let records: Vec<RunRecord> = mixed_records(20)
            .into_iter()
            .enumerate()
            .map(|(i, r)| r.with_tenant(TenantId::new(tenants[i % 3])))
            .collect();
        let mut writers: [Box<dyn KnowledgeStore>; 2] = [
            Box::new(KnowledgeBase::new()),
            Box::new(ShardedKnowledgeBase::new()),
        ];
        for (w, writer) in writers.iter_mut().enumerate() {
            for r in &records {
                writer.record(r.clone());
            }
            let path = temp_file(&format!("cross-{w}"));
            writer.save(&path).unwrap();
            let readers: [Box<dyn KnowledgeStore>; 2] = [
                Box::new(KnowledgeBase::load(&path).unwrap()),
                Box::new(ShardedKnowledgeBase::load(&path).unwrap()),
            ];
            for (r, reader) in readers.iter().enumerate() {
                let replayed: Vec<RunRecord> = reader.records_in_arrival_order().cloned().collect();
                assert_eq!(replayed, records, "layout {w}'s file in layout {r}");
            }
            std::fs::remove_file(&path).ok();
        }
        // Every layout wrote the same bytes.
        let texts: Vec<String> = writers
            .iter()
            .map(|writer| {
                let path = temp_file("cross-bytes");
                writer.save(&path).unwrap();
                std::fs::read_to_string(&path).unwrap()
            })
            .collect();
        assert_eq!(texts[0], texts[1]);
        std::fs::remove_file(temp_file("cross-bytes")).ok();
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
        // The tenant tag names the owner; it must never leak into the ML view.
        assert_eq!(plain.features(), tagged.features());
    }

    #[test]
    fn newer_schema_is_rejected_by_every_layout() {
        let future = SchemaVersion(SchemaVersion::CURRENT.0 + 1);
        assert!(!future.is_supported());
        let text = saved_text("future").replace("\"schema_version\": 1", "\"schema_version\": 2");
        for loaded in load_text("future-edited", &text) {
            assert!(matches!(
                loaded,
                Err(CoreError::UnsupportedSchema { found, supported })
                    if found == future.0 && supported == SchemaVersion::CURRENT.0
            ));
        }
    }

    #[test]
    fn loaded_base_rebuilds_dataset() {
        let mut kb = KnowledgeBase::new();
        kb.record(RunRecord::new(profile(7), &instance(), 3, 99.5, 0.07));
        kb.record(RunRecord::new(profile(9), &instance(), 1, 42.0, 0.03));
        let _ = kb.dataset().unwrap(); // warm the cache pre-save
        let path = temp_file("cache");
        kb.save(&path).unwrap();
        let loaded = KnowledgeBase::load(&path).unwrap();
        assert_eq!(kb, loaded);
        assert_eq!(*loaded.dataset().unwrap(), *kb.dataset().unwrap());
        std::fs::remove_file(&path).ok();
    }
}
