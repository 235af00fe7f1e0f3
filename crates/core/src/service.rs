//! The concurrent multi-tenant deploy service.
//!
//! [`crate::pipeline::DeployPipeline`] overlaps one tenant's selections
//! with its own cloud runs; [`DeployService`] is the concurrent exterior
//! around the same bit-identity machinery, serving N companies at once
//! over one shared knowledge base:
//!
//! - **per-tenant handles** — every registered tenant submits
//!   [`PipelineJob`]s through its own bounded queue ([`TenantHandle`]);
//!   a full queue surfaces [`CoreError::Backpressure`] instead of
//!   growing without bound;
//! - **lock-free prediction reads** — selections read an atomically
//!   swapped, read-mostly [`PredictorSnapshot`] (an `arc-swap`-style
//!   double buffer rebuilt off the hot path after retrains). In steady
//!   state a reader costs one atomic generation load; it never blocks on
//!   a writer;
//! - **shard-local writes** — `record()` appends under the one
//!   per-(instance × tenant) shard lock that owns the record; no global
//!   lock exists;
//! - **batching ingester** — landed records stream to a single ingester
//!   thread that coalesces them and triggers at most one incremental
//!   retrain per dirty shard per batch, then publishes a fresh snapshot.
//!
//! # Bit-identity
//!
//! Under [`TransferPolicy::Isolated`] (the only policy the service
//! accepts — pooled families would make predictions depend on the
//! nondeterministic cross-tenant arrival interleaving) a tenant's
//! knowledge never crosses its own boundary, so each tenant's outcome
//! stream is **bit-identical to that tenant running alone** through
//! [`crate::tenant::TenantShardedDeployer`]: same per-tenant provider
//! seed, and a lane is the same [`DeployLoop`], so the decision-counter
//! seed stream and the retrain gates are the solo run's own code. Two
//! rules keep the asynchronous retrains on the solo schedule:
//!
//! 1. **flush-before-append** — a shard with a fired-but-unpublished
//!    retrain must not grow: the ingester retrains on the shard exactly
//!    as the solo loop saw it at the gate;
//! 2. **watermark stall** — an ML selection waits until every retrain
//!    its tenant has fired is published, mirroring the synchronous
//!    retrain the solo `record()` performs before the next selection.
//!
//! Bootstrap and manual selections consult neither families nor
//! snapshot, so they never wait.

use crate::deploy::{Backend, DeployLoop, DeployOutcome, DeployPolicy, Shard, SHARD_FLOOR};
use crate::knowledge::{KnowledgeBase, RunRecord};
use crate::pipeline::{DeployPipeline, PipelineJob, PipelineStats};
use crate::predictor::{FamilyRouter, PredictorFamily, RetrainMode, TimePredictor};
use crate::tenant::{TenantId, TenantShardedKnowledgeBase, TransferPolicy};
use crate::CoreError;
use disar_cloudsim::{CloudProvider, InstanceCatalog};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// Sizing knobs of a [`DeployService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Per-tenant pipeline depth (in-flight runs; `1` = sequential).
    pub depth: usize,
    /// Per-tenant submission-queue bound; a full queue rejects with
    /// [`CoreError::Backpressure`].
    pub queue_capacity: usize,
    /// Most landed-record messages the ingester coalesces into one batch.
    pub batch_max: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            depth: 4,
            queue_capacity: 64,
            batch_max: 32,
        }
    }
}

impl ServiceConfig {
    fn validate(&self) -> Result<(), CoreError> {
        if self.depth == 0 {
            return Err(CoreError::InvalidParameter("service depth must be > 0"));
        }
        if self.queue_capacity == 0 {
            return Err(CoreError::InvalidParameter(
                "service queue_capacity must be > 0",
            ));
        }
        if self.batch_max == 0 {
            return Err(CoreError::InvalidParameter("service batch_max must be > 0"));
        }
        Ok(())
    }
}

/// [`PipelineStats`] plus the service's admission, queue-depth and
/// backpressure counters.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ServiceStats {
    /// Pipeline occupancy/overlap counters, aggregated over every tenant
    /// that has finished (jobs and overlap counts sum; `max_in_flight` is
    /// the max; `mean_in_flight` is the job-weighted mean).
    pub pipeline: PipelineStats,
    /// Registered tenants.
    pub tenants: usize,
    /// Jobs offered to `submit` (admitted + rejected).
    pub submitted: usize,
    /// Jobs accepted into a queue.
    pub admitted: usize,
    /// Jobs rejected with [`CoreError::Backpressure`].
    pub rejected: usize,
    /// Largest queue depth observed across all tenants.
    pub max_queue_depth: usize,
    /// Ingester batches processed (coalescing windows).
    pub ingest_batches: usize,
    /// Incremental shard retrains performed by the ingester.
    pub retrains: usize,
    /// Generation of the current predictor snapshot (0 = never published).
    pub snapshot_generation: u64,
}

/// One tenant's results after [`TenantHandle::finish`].
#[derive(Debug, Clone, PartialEq)]
pub struct TenantRun {
    /// The tenant the run belongs to.
    pub tenant: TenantId,
    /// Per-job outcomes in submission order.
    pub outcomes: Vec<DeployOutcome>,
    /// This tenant's aggregated pipeline counters.
    pub stats: PipelineStats,
}

/// An immutable, atomically swapped view of every tenant's trained
/// predictor families, plus the publish watermarks the bit-identity
/// stalls wait on.
#[derive(Clone, Default)]
pub struct PredictorSnapshot {
    generation: u64,
    families: BTreeMap<(String, TenantId), Arc<PredictorFamily>>,
    /// Published retrain-fire count per tenant (selection watermark).
    fires_by_tenant: BTreeMap<TenantId, u64>,
    /// Published retrain-fire count per (instance, tenant) shard
    /// (flush-before-append watermark).
    fires_by_shard: BTreeMap<(String, TenantId), u64>,
}

impl PredictorSnapshot {
    /// Monotone publish counter: 0 before the first retrain, +1 per
    /// published batch.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The published family of one (instance, tenant), if any.
    pub fn family(&self, instance: &str, tenant: &TenantId) -> Option<&PredictorFamily> {
        self.families
            .get(&(instance.to_string(), tenant.clone()))
            .map(Arc::as_ref)
    }

    /// Number of published families.
    pub fn family_count(&self) -> usize {
        self.families.len()
    }

    /// Iterates the published families with their (instance, tenant) keys.
    pub fn families(&self) -> impl Iterator<Item = (&(String, TenantId), &PredictorFamily)> {
        self.families.iter().map(|(k, f)| (k, f.as_ref()))
    }

    /// Published retrain fires of one tenant.
    pub fn fires_for_tenant(&self, tenant: &TenantId) -> u64 {
        self.fires_by_tenant.get(tenant).copied().unwrap_or(0)
    }

    fn fires_for_shard(&self, key: &(String, TenantId)) -> u64 {
        self.fires_by_shard.get(key).copied().unwrap_or(0)
    }
}

/// The swap point: writers publish a whole new [`PredictorSnapshot`];
/// readers take the read lock only for the pointer clone (and, via the
/// generation fast path, usually not even that). The condvar wakes
/// watermark waiters after each publish.
struct SnapshotCell {
    generation: AtomicU64,
    current: RwLock<Arc<PredictorSnapshot>>,
    /// Closed once the ingester is gone — waiters must error, not spin.
    gate: Mutex<Gate>,
    cond: Condvar,
}

/// Whether the ingester still publishes and, if not, why it stopped.
enum Gate {
    Open,
    /// Shut down: every fired retrain was applied first.
    Stopped,
    /// A shard's retrain failed; nothing fired since was applied.
    Failed {
        instance: String,
        tenant: TenantId,
        cause: Arc<CoreError>,
    },
}

impl Gate {
    /// What an operation that needs the ingester reports once it is gone.
    fn error(&self) -> Option<CoreError> {
        match self {
            Gate::Open => None,
            Gate::Stopped => Some(CoreError::ServiceStopped("predictor ingester stopped")),
            Gate::Failed {
                instance,
                tenant,
                cause,
            } => Some(CoreError::ShardRetrainFailed {
                instance: instance.clone(),
                tenant: tenant.clone(),
                cause: Arc::clone(cause),
            }),
        }
    }
}

impl SnapshotCell {
    fn new() -> Self {
        SnapshotCell {
            generation: AtomicU64::new(0),
            current: RwLock::new(Arc::new(PredictorSnapshot::default())),
            gate: Mutex::new(Gate::Open),
            cond: Condvar::new(),
        }
    }

    fn load(&self) -> Arc<PredictorSnapshot> {
        Arc::clone(&self.current.read().expect("snapshot lock poisoned"))
    }

    /// Swaps in `next` and wakes every watermark waiter.
    fn publish(&self, next: PredictorSnapshot) {
        let generation = next.generation;
        *self.current.write().expect("snapshot lock poisoned") = Arc::new(next);
        self.generation.store(generation, Ordering::Release);
        let _guard = self.gate.lock().expect("snapshot gate poisoned");
        self.cond.notify_all();
    }

    /// Marks the ingester gone (`why`: normal shutdown or failure) and
    /// wakes every waiter so they can error out instead of spinning. The
    /// first reason given stands.
    fn close(&self, why: Gate) {
        let mut gate = self.gate.lock().expect("snapshot gate poisoned");
        if matches!(*gate, Gate::Open) {
            *gate = why;
        }
        self.cond.notify_all();
    }

    /// Why an ingester that no longer takes messages stopped.
    fn stopped(&self) -> CoreError {
        let gate = self.gate.lock().expect("snapshot gate poisoned");
        gate.error()
            .unwrap_or(CoreError::ServiceStopped("predictor ingester stopped"))
    }

    /// Blocks until the current snapshot satisfies `pred`, rechecking on
    /// every publish.
    ///
    /// # Errors
    ///
    /// If the cell closes first: [`CoreError::ShardRetrainFailed`] when a
    /// retrain failure closed it, else [`CoreError::ServiceStopped`].
    fn wait_for<F: Fn(&PredictorSnapshot) -> bool>(
        &self,
        pred: F,
    ) -> Result<Arc<PredictorSnapshot>, CoreError> {
        loop {
            let snap = self.load();
            if pred(&snap) {
                return Ok(snap);
            }
            let closed = self.gate.lock().expect("snapshot gate poisoned");
            // Re-check under the gate: publish() takes the gate after the
            // swap, so a satisfied predicate cannot slip between this
            // check and the wait below.
            let snap = self.load();
            if pred(&snap) {
                return Ok(snap);
            }
            if let Some(why) = closed.error() {
                return Err(why);
            }
            // The timeout is belt-and-braces only: every publish and the
            // close path notify under the gate.
            let _ = self
                .cond
                .wait_timeout(closed, Duration::from_millis(50))
                .expect("snapshot gate poisoned");
        }
    }
}

/// A worker-local cache over [`SnapshotCell`]: in steady state (no new
/// publish) a read is one atomic load and no lock at all.
struct SnapshotReader {
    cached: Arc<PredictorSnapshot>,
}

impl SnapshotReader {
    fn new(cell: &SnapshotCell) -> Self {
        SnapshotReader { cached: cell.load() }
    }

    fn current(&mut self, cell: &SnapshotCell) -> &Arc<PredictorSnapshot> {
        if cell.generation.load(Ordering::Acquire) != self.cached.generation {
            self.cached = cell.load();
        }
        &self.cached
    }

    fn wait_for<F: Fn(&PredictorSnapshot) -> bool>(
        &mut self,
        cell: &SnapshotCell,
        pred: F,
    ) -> Result<&Arc<PredictorSnapshot>, CoreError> {
        if !pred(self.current(cell)) {
            self.cached = cell.wait_for(pred)?;
        }
        Ok(&self.cached)
    }
}

/// What one tenant sees of a [`PredictorSnapshot`] — the service-side
/// mirror of [`crate::tenant::TenantView`] under
/// [`TransferPolicy::Isolated`]: queries route to the tenant's own local
/// family per instance type.
struct SnapshotTenantView<'a> {
    snapshot: &'a PredictorSnapshot,
    tenant: &'a TenantId,
}

impl FamilyRouter for SnapshotTenantView<'_> {
    fn family_for(&self, instance: &str) -> Option<&PredictorFamily> {
        self.snapshot.family(instance, self.tenant)
    }
}

/// A landed-record notification to the ingester.
struct LandedMsg {
    instance: String,
    tenant: TenantId,
    /// The tenant's seed: what the ingester builds the shard's family from
    /// on its first retrain.
    seed: u64,
    /// Whether this landing fired the tenant's retrain gate.
    fired: bool,
    /// The retrain mode the recording side's escalation ladder selected
    /// at fire time (meaningful only when `fired`; the base policy mode
    /// otherwise). Carried in the message so the batching ingester needs
    /// no drift state of its own.
    mode: RetrainMode,
}

/// The two-key shard map: one lockable base per (instance type, tenant).
type ShardMap = BTreeMap<(String, TenantId), Arc<Mutex<KnowledgeBase>>>;

/// Everything the worker, ingester and handle threads share.
struct ServiceShared {
    policy: DeployPolicy,
    /// The two-key shard map; the outer lock guards only map growth —
    /// steady-state `record()` takes a read lock plus the one shard lock.
    shards: RwLock<ShardMap>,
    snapshot: SnapshotCell,
    // Admission / queue counters (ServiceStats).
    submitted: AtomicUsize,
    admitted: AtomicUsize,
    rejected: AtomicUsize,
    queue_depth: AtomicUsize,
    max_queue_depth: AtomicUsize,
    ingest_batches: AtomicUsize,
    retrains: AtomicUsize,
    /// Pipeline counters merged in as tenants finish.
    pipeline: Mutex<PipelineStats>,
}

impl ServiceShared {
    fn shard_handle(&self, instance: &str, tenant: &TenantId) -> Arc<Mutex<KnowledgeBase>> {
        let key = (instance.to_string(), tenant.clone());
        {
            let map = self.shards.read().expect("shard map poisoned");
            if let Some(shard) = map.get(&key) {
                return Arc::clone(shard);
            }
        }
        let mut map = self.shards.write().expect("shard map poisoned");
        Arc::clone(
            map.entry(key)
                .or_insert_with(|| Arc::new(Mutex::new(KnowledgeBase::new()))),
        )
    }
}

/// A service lane's storage, driven by the same [`DeployLoop`] as the solo
/// [`crate::tenant::TenantShardedDeployer`] under
/// [`TransferPolicy::Isolated`]: records land in the shared shard map and
/// retrains are handed to the ingester, so the schedule reads counters
/// kept here instead of the shards and families themselves.
pub(crate) struct ServiceTenant {
    tenant: TenantId,
    seed: u64,
    shared: Arc<ServiceShared>,
    reader: SnapshotReader,
    ingest: mpsc::Sender<LandedMsg>,
    /// Records this tenant has landed (the solo run's `kb.len()`).
    len: usize,
    /// Per-instance local record counts (the solo `local_lens`).
    local_lens: BTreeMap<String, usize>,
    /// Retrains fired so far per instance type. A shard with one counts as
    /// trained (a fire needs the floor, and selections wait for its
    /// publish); the counts are the targets of both waits.
    fires: BTreeMap<String, u64>,
}

impl Backend for ServiceTenant {
    fn len(&self) -> usize {
        self.len
    }

    fn shards(&self, instance: &str) -> Vec<Shard> {
        vec![Shard::Local(instance.to_string(), self.tenant.clone())]
    }

    fn size(&self, shard: &Shard) -> usize {
        self.local_lens.get(shard.instance()).copied().unwrap_or(0)
    }

    fn trained(&self, shard: &Shard) -> bool {
        self.fires.contains_key(shard.instance())
    }

    fn with_view<R>(
        &mut self,
        _sizes: &BTreeMap<Shard, usize>,
        f: impl FnOnce(&dyn TimePredictor) -> R,
    ) -> Result<R, CoreError> {
        // Watermark stall: the solo loop retrains synchronously inside
        // record(), so by its next ML selection every fired retrain is
        // visible. Wait until the published snapshot has caught up with
        // every fire this tenant's landings produced.
        let target: u64 = self.fires.values().sum();
        let tenant = self.tenant.clone();
        let snapshot = self
            .reader
            .wait_for(&self.shared.snapshot, move |s| {
                s.fires_for_tenant(&tenant) >= target
            })?
            .clone();
        Ok(f(&SnapshotTenantView {
            snapshot: snapshot.as_ref(),
            tenant: &self.tenant,
        }))
    }

    fn append(&mut self, record: RunRecord) -> Result<(), CoreError> {
        // Flush-before-append: if this shard has a fired retrain the
        // ingester has not published yet, appending now would let that
        // retrain see records the solo schedule trained without. Wait for
        // the publish first (the fire message is already queued, so the
        // ingester cannot miss it).
        if let Some(&fires) = self.fires.get(&record.instance) {
            let key = (record.instance.clone(), self.tenant.clone());
            self.reader.wait_for(&self.shared.snapshot, move |s| {
                s.fires_for_shard(&key) >= fires
            })?;
        }
        *self.local_lens.entry(record.instance.clone()).or_insert(0) += 1;
        self.len += 1;
        let shard = self.shared.shard_handle(&record.instance, &self.tenant);
        let mut guard = shard.lock().expect("shard poisoned");
        guard.record(record.with_tenant(self.tenant.clone()));
        Ok(())
    }

    fn retrain(
        &mut self,
        instance: &str,
        due: &[Shard],
        mode: RetrainMode,
        _n_threads: usize,
    ) -> Result<(), CoreError> {
        // The queued fire is guaranteed to be retrained by the ingester,
        // with the mode the loop's ladder resolved: the message carries it,
        // so the ingester needs no drift state of its own.
        let fired = !due.is_empty();
        if fired {
            *self.fires.entry(instance.to_string()).or_insert(0) += 1;
        }
        self.ingest
            .send(LandedMsg {
                instance: instance.to_string(),
                tenant: self.tenant.clone(),
                seed: self.seed,
                fired,
                mode,
            })
            .map_err(|_| self.shared.snapshot.stopped())
    }

    fn warm(&mut self, _mode: RetrainMode, _n_threads: usize) -> Result<(), CoreError> {
        // The service starts from an empty base; there is nothing to warm.
        Ok(())
    }
}

/// Commands on a tenant's submission queue.
enum Cmd {
    Job(Box<PipelineJob>),
    Finish,
}

/// A tenant's submission endpoint. Created by [`DeployService::register`];
/// `submit` jobs (possibly from any thread), then [`TenantHandle::finish`]
/// to drain the queue and collect the outcomes.
pub struct TenantHandle {
    tenant: TenantId,
    capacity: usize,
    cmd_tx: SyncSender<Cmd>,
    result_rx: Receiver<Result<TenantRun, CoreError>>,
    shared: Arc<ServiceShared>,
}

impl TenantHandle {
    /// The tenant this handle submits for.
    pub fn tenant(&self) -> &TenantId {
        &self.tenant
    }

    /// Enqueues one job without blocking.
    ///
    /// # Errors
    ///
    /// [`CoreError::Backpressure`] when the bounded queue is full;
    /// [`CoreError::ServiceStopped`] when the worker is gone.
    pub fn submit(&self, job: PipelineJob) -> Result<(), CoreError> {
        self.shared.submitted.fetch_add(1, Ordering::Relaxed);
        match self.cmd_tx.try_send(Cmd::Job(Box::new(job))) {
            Ok(()) => {
                self.shared.admitted.fetch_add(1, Ordering::Relaxed);
                let depth = self.shared.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
                self.shared.max_queue_depth.fetch_max(depth, Ordering::Relaxed);
                Ok(())
            }
            Err(TrySendError::Full(_)) => {
                self.shared.rejected.fetch_add(1, Ordering::Relaxed);
                Err(CoreError::Backpressure {
                    capacity: self.capacity,
                })
            }
            Err(TrySendError::Disconnected(_)) => {
                Err(CoreError::ServiceStopped("tenant worker exited"))
            }
        }
    }

    /// Signals end-of-stream, waits for every queued job to land and
    /// returns this tenant's outcomes in submission order.
    ///
    /// # Errors
    ///
    /// The first deploy error of the tenant's stream (later queued jobs
    /// are dropped, as the solo loop would stop at the same point) — a
    /// [`CoreError::ShardRetrainFailed`] when the ingester could not retrain
    /// a shard, whichever tenant's — or [`CoreError::ServiceStopped`] if the
    /// worker died.
    pub fn finish(self) -> Result<TenantRun, CoreError> {
        self.cmd_tx
            .send(Cmd::Finish)
            .map_err(|_| CoreError::ServiceStopped("tenant worker exited"))?;
        match self.result_rx.recv() {
            Ok(run) => run,
            Err(_) => Err(CoreError::ServiceStopped("tenant worker died")),
        }
    }
}

/// A not-yet-started tenant lane.
struct Registration {
    tenant: TenantId,
    seed: u64,
    cmd_rx: Receiver<Cmd>,
    result_tx: mpsc::Sender<Result<TenantRun, CoreError>>,
}

/// The concurrent multi-tenant deploy service (see the module docs).
///
/// Lifecycle: [`DeployService::new`] → [`DeployService::register`] each
/// tenant → [`DeployService::start`] → submit through the handles →
/// [`TenantHandle::finish`] each handle → [`DeployService::join`].
pub struct DeployService {
    catalog: InstanceCatalog,
    config: ServiceConfig,
    shared: Arc<ServiceShared>,
    ingest_tx: Option<mpsc::Sender<LandedMsg>>,
    // The two receiver-holding fields sit behind a `Mutex` only to keep
    // the service `Sync` (mpsc receivers are not) so tests and callers
    // can observe a started service from other threads; every mutation
    // happens behind `&mut self`.
    ingest_rx: Mutex<Option<Receiver<LandedMsg>>>,
    registrations: Mutex<Vec<Registration>>,
    tenants: BTreeSet<TenantId>,
    workers: Vec<JoinHandle<()>>,
    ingester: Option<JoinHandle<()>>,
    started: bool,
}

impl DeployService {
    /// Creates a stopped service over one instance catalog and one shared
    /// policy.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] for an invalid policy or config,
    /// and for any transfer policy other than
    /// [`TransferPolicy::Isolated`]: pooled families are trained on the
    /// cross-tenant arrival interleaving, which concurrency makes
    /// nondeterministic — sharing knowledge across concurrent tenants
    /// deterministically is an open extension (DESIGN.md §11).
    pub fn new(
        catalog: InstanceCatalog,
        policy: DeployPolicy,
        config: ServiceConfig,
    ) -> Result<Self, CoreError> {
        policy.validate()?;
        config.validate()?;
        if policy.transfer != TransferPolicy::Isolated {
            return Err(CoreError::InvalidParameter(
                "DeployService requires TransferPolicy::Isolated",
            ));
        }
        let (ingest_tx, ingest_rx) = mpsc::channel();
        Ok(DeployService {
            catalog,
            config,
            shared: Arc::new(ServiceShared {
                policy,
                shards: RwLock::new(BTreeMap::new()),
                snapshot: SnapshotCell::new(),
                submitted: AtomicUsize::new(0),
                admitted: AtomicUsize::new(0),
                rejected: AtomicUsize::new(0),
                queue_depth: AtomicUsize::new(0),
                max_queue_depth: AtomicUsize::new(0),
                ingest_batches: AtomicUsize::new(0),
                retrains: AtomicUsize::new(0),
                pipeline: Mutex::new(PipelineStats::default()),
            }),
            ingest_tx: Some(ingest_tx),
            ingest_rx: Mutex::new(Some(ingest_rx)),
            registrations: Mutex::new(Vec::new()),
            tenants: BTreeSet::new(),
            workers: Vec::new(),
            ingester: None,
            started: false,
        })
    }

    /// Registers a tenant lane. `seed` plays the role the solo
    /// deployer's seed does: it feeds this tenant's cloud noise streams,
    /// decision counter and family initialization, so a service run with
    /// seed `s` is comparable bit-for-bit to
    /// `TenantShardedDeployer::new(provider(s), policy, s)`.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] after `start()` or for a duplicate
    /// tenant.
    pub fn register(&mut self, tenant: TenantId, seed: u64) -> Result<TenantHandle, CoreError> {
        if self.started {
            return Err(CoreError::InvalidParameter(
                "register tenants before start()",
            ));
        }
        if !self.tenants.insert(tenant.clone()) {
            return Err(CoreError::InvalidParameter("tenant already registered"));
        }
        let (cmd_tx, cmd_rx) = mpsc::sync_channel(self.config.queue_capacity);
        let (result_tx, result_rx) = mpsc::channel();
        self.registrations
            .get_mut()
            .expect("registrations poisoned")
            .push(Registration {
                tenant: tenant.clone(),
                seed,
                cmd_rx,
                result_tx,
            });
        Ok(TenantHandle {
            tenant,
            capacity: self.config.queue_capacity,
            cmd_tx,
            result_rx,
            shared: Arc::clone(&self.shared),
        })
    }

    /// Spawns the ingester and one worker per registered tenant. Jobs
    /// submitted before `start()` wait in their queues (which is what
    /// makes [`CoreError::Backpressure`] deterministic to provoke).
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] when already started.
    pub fn start(&mut self) -> Result<(), CoreError> {
        if self.started {
            return Err(CoreError::InvalidParameter("service already started"));
        }
        self.started = true;
        let ingest_rx = self
            .ingest_rx
            .get_mut()
            .expect("ingest receiver poisoned")
            .take()
            .expect("ingest receiver present");
        let shared = Arc::clone(&self.shared);
        let batch_max = self.config.batch_max;
        // The ingester owns the service's only large allocations (every
        // shard's predictor family and each snapshot built from them), so it
        // starts alone and allocates once before a worker exists. glibc gives
        // a thread, at its first allocation, the arena the last exited thread
        // handed back, and `join` retires the ingester last: the ingester of
        // the next service of the process then takes over its predecessor's
        // pages. Were the threads started together, whichever allocated
        // first would take them and the ingester fill a second arena: the
        // resident peak of eight tenants is 14 MB, and 20 MB by that race.
        let (first_tx, first_rx) = mpsc::channel();
        self.ingester = Some(std::thread::spawn(move || {
            let _ = first_tx.send(Box::new(0u8));
            ingester_loop(&shared, &ingest_rx, batch_max);
        }));
        let _ = first_rx.recv();
        let ingest_tx = self.ingest_tx.clone().expect("ingest sender present");
        let registrations =
            std::mem::take(self.registrations.get_mut().expect("registrations poisoned"));
        for reg in registrations {
            let backend = ServiceTenant {
                tenant: reg.tenant,
                seed: reg.seed,
                shared: Arc::clone(&self.shared),
                reader: SnapshotReader::new(&self.shared.snapshot),
                ingest: ingest_tx.clone(),
                len: 0,
                local_lens: BTreeMap::new(),
                fires: BTreeMap::new(),
            };
            let provider = Arc::new(CloudProvider::new(self.catalog.clone(), reg.seed));
            let dep = DeployLoop::assemble(provider, self.shared.policy, reg.seed, backend);
            let shared = Arc::clone(&self.shared);
            let depth = self.config.depth;
            let cmd_rx = reg.cmd_rx;
            let result_tx = reg.result_tx;
            self.workers.push(std::thread::spawn(move || {
                worker_loop(dep, &cmd_rx, depth, &result_tx, &shared);
            }));
        }
        Ok(())
    }

    /// Point-in-time service counters. Pipeline counters aggregate as
    /// tenants finish.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            pipeline: *self.shared.pipeline.lock().expect("stats poisoned"),
            tenants: self.tenants.len(),
            submitted: self.shared.submitted.load(Ordering::Relaxed),
            admitted: self.shared.admitted.load(Ordering::Relaxed),
            rejected: self.shared.rejected.load(Ordering::Relaxed),
            max_queue_depth: self.shared.max_queue_depth.load(Ordering::Relaxed),
            ingest_batches: self.shared.ingest_batches.load(Ordering::Relaxed),
            retrains: self.shared.retrains.load(Ordering::Relaxed),
            snapshot_generation: self.shared.snapshot.generation.load(Ordering::Acquire),
        }
    }

    /// The current predictor snapshot (for inspection and the
    /// linearizability tests).
    pub fn snapshot(&self) -> Arc<PredictorSnapshot> {
        self.shared.snapshot.load()
    }

    /// A copy of one (instance, tenant) shard, if it exists.
    pub fn shard(&self, instance: &str, tenant: &TenantId) -> Option<KnowledgeBase> {
        let key = (instance.to_string(), tenant.clone());
        let map = self.shared.shards.read().expect("shard map poisoned");
        map.get(&key)
            .map(|s| s.lock().expect("shard poisoned").clone())
    }

    /// Exports the accumulated knowledge as a two-key base (shard-major
    /// arrival order; see [`TenantShardedKnowledgeBase::from_shards`]).
    pub fn export_knowledge_base(&self) -> TenantShardedKnowledgeBase {
        let map = self.shared.shards.read().expect("shard map poisoned");
        TenantShardedKnowledgeBase::from_shards(
            map.values().map(|s| s.lock().expect("shard poisoned").clone()),
        )
    }

    /// Stops the service once every handle has finished: joins the
    /// workers, retires the ingester and returns the final counters.
    ///
    /// Call only after [`TenantHandle::finish`] (or drop) on every
    /// handle — a live handle keeps its worker waiting for jobs and
    /// `join` would block on it.
    ///
    /// # Errors
    ///
    /// [`CoreError::ServiceStopped`] if a worker or the ingester thread
    /// panicked.
    pub fn join(mut self) -> Result<ServiceStats, CoreError> {
        let mut lost = false;
        for worker in self.workers.drain(..) {
            lost |= worker.join().is_err();
        }
        // Workers are gone; dropping the service's sender disconnects the
        // ingester, which publishes nothing further and exits.
        self.ingest_tx = None;
        if let Some(ingester) = self.ingester.take() {
            lost |= ingester.join().is_err();
        }
        if lost {
            return Err(CoreError::ServiceStopped("a service thread panicked"));
        }
        Ok(self.stats())
    }
}

/// Merges one pipeline run's counters into a tenant/service aggregate.
fn merge_pipeline_stats(acc: &mut PipelineStats, s: &PipelineStats) {
    let total = acc.jobs + s.jobs;
    if total > 0 {
        acc.mean_in_flight = (acc.mean_in_flight * acc.jobs as f64
            + s.mean_in_flight * s.jobs as f64)
            / total as f64;
    }
    acc.jobs = total;
    acc.max_in_flight = acc.max_in_flight.max(s.max_in_flight);
    acc.overlapped_selections += s.overlapped_selections;
    acc.stalled_selections += s.stalled_selections;
}

/// One tenant's worker: drain whatever is queued, pipeline the batch,
/// repeat; report on `Finish` (or handle drop).
fn worker_loop(
    mut dep: DeployLoop<ServiceTenant>,
    cmd_rx: &Receiver<Cmd>,
    depth: usize,
    result_tx: &mpsc::Sender<Result<TenantRun, CoreError>>,
    shared: &Arc<ServiceShared>,
) {
    let tenant = dep.backend.tenant.clone();
    let mut outcomes: Vec<DeployOutcome> = Vec::new();
    let mut stats = PipelineStats::default();
    let mut failed: Option<CoreError> = None;
    // The loop also ends when the handle is dropped without finish().
    'serve: while let Ok(first) = cmd_rx.recv() {
        let mut batch: Vec<PipelineJob> = Vec::new();
        let mut finish = false;
        match first {
            Cmd::Finish => break,
            Cmd::Job(job) => {
                shared.queue_depth.fetch_sub(1, Ordering::Relaxed);
                batch.push(*job);
            }
        }
        // Coalesce whatever else is already queued, preserving order.
        while let Ok(cmd) = cmd_rx.try_recv() {
            match cmd {
                Cmd::Finish => {
                    finish = true;
                    break;
                }
                Cmd::Job(job) => {
                    shared.queue_depth.fetch_sub(1, Ordering::Relaxed);
                    batch.push(*job);
                }
            }
        }
        if failed.is_none() {
            // Bit-identity across batches: the pipeline drains fully
            // between run() calls and every counter lives in `dep`, so
            // batch boundaries cannot shift any decision.
            let mut pipeline =
                DeployPipeline::new(dep, depth).expect("depth validated by ServiceConfig");
            let res = pipeline.run(&batch);
            merge_pipeline_stats(&mut stats, pipeline.stats());
            dep = pipeline.into_deployer();
            match res {
                Ok(outs) => outcomes.extend(outs),
                Err(e) => failed = Some(e),
            }
        }
        if finish {
            break 'serve;
        }
    }
    merge_pipeline_stats(
        &mut shared.pipeline.lock().expect("stats poisoned"),
        &stats,
    );
    let run = match failed {
        None => Ok(TenantRun {
            tenant,
            outcomes,
            stats,
        }),
        Some(e) => Err(e),
    };
    let _ = result_tx.send(run);
}

/// The batching ingester: coalesce landed-record messages, retrain each
/// dirty shard once, publish one new snapshot per batch.
fn ingester_loop(shared: &Arc<ServiceShared>, rx: &Receiver<LandedMsg>, batch_max: usize) {
    let mut masters: BTreeMap<(String, TenantId), PredictorFamily> = BTreeMap::new();
    // Until every worker and the service handle are gone.
    while let Ok(first) = rx.recv() {
        let mut batch = vec![first];
        while batch.len() < batch_max {
            match rx.try_recv() {
                Ok(msg) => batch.push(msg),
                Err(_) => break,
            }
        }
        shared.ingest_batches.fetch_add(1, Ordering::Relaxed);
        // Dirty = shards whose gate fired in this batch. The
        // flush-before-append rule guarantees at most one fire per shard
        // per batch, so "one retrain per dirty shard" is exact, not an
        // approximation.
        let mut dirty: Vec<((String, TenantId), RetrainMode, u64)> = Vec::new();
        for msg in batch.iter().filter(|m| m.fired) {
            let key = (msg.instance.clone(), msg.tenant.clone());
            if !dirty.iter().any(|(k, ..)| *k == key) {
                dirty.push((key, msg.mode, msg.seed));
            }
        }
        if dirty.is_empty() {
            continue;
        }
        let mut next = (*shared.snapshot.load()).clone();
        for (key, mode, seed) in &dirty {
            let shard = shared.shard_handle(&key.0, &key.1);
            let guard = shard.lock().expect("shard poisoned");
            let family = masters
                .entry(key.clone())
                .or_insert_with(|| PredictorFamily::new(*seed, SHARD_FLOOR));
            if let Err(cause) = family.retrain(&guard, *mode, shared.policy.n_threads) {
                // A retrain failure poisons the whole service: close the
                // cell with the cause and its shard, so every watermark
                // waiter reports them instead of spinning forever.
                shared.snapshot.close(Gate::Failed {
                    instance: key.0.clone(),
                    tenant: key.1.clone(),
                    cause: Arc::new(cause),
                });
                return;
            }
            shared.retrains.fetch_add(1, Ordering::Relaxed);
            next.families.insert(key.clone(), Arc::new(family.clone()));
        }
        for msg in batch.iter().filter(|m| m.fired) {
            *next.fires_by_tenant.entry(msg.tenant.clone()).or_insert(0) += 1;
            *next
                .fires_by_shard
                .entry((msg.instance.clone(), msg.tenant.clone()))
                .or_insert(0) += 1;
        }
        next.generation += 1;
        shared.snapshot.publish(next);
    }
    // Normal shutdown: wake any (stray) waiter so it errors instead of
    // blocking.
    shared.snapshot.close(Gate::Stopped);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::{DeployDecision, DeployMode, Deployer, PendingSim};
    use crate::drift::{DetectorKind, DriftConfig};
    use crate::profile::JobProfile;
    use crate::tenant::TenantShardedDeployer;
    use disar_cloudsim::{JobReport, Workload};
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

    fn test_policy() -> DeployPolicy {
        DeployPolicy::builder(50_000.0)
            .max_nodes(4)
            .min_kb_samples(8)
            .n_threads(1)
            .transfer(TransferPolicy::Isolated)
            .build()
    }

    fn jobs_for(tenant_ix: usize, n: usize) -> Vec<PipelineJob> {
        (0..n)
            .map(|i| {
                let c = 60 + (i * 23 + tenant_ix * 7) % 280;
                PipelineJob::auto(profile(c), workload(c))
            })
            .collect()
    }

    /// The ground truth: the same tenant running alone, sequentially,
    /// through the solo two-key deployer.
    fn solo_run(seed: u64, tenant: &TenantId, jobs: &[PipelineJob]) -> Vec<DeployOutcome> {
        let provider = CloudProvider::new(InstanceCatalog::paper_catalog(), seed);
        let mut solo = TenantShardedDeployer::new(provider, test_policy(), seed)
            .with_tenant(tenant.clone());
        jobs.iter()
            .map(|j| solo.deploy(&j.profile, &j.workload).unwrap())
            .collect()
    }

    #[test]
    fn service_is_send_and_sync() {
        // The linearizability tests observe a started service from other
        // threads through an `Arc`, which needs `DeployService: Send +
        // Sync` — pinned here so a field change cannot silently lose it.
        fn assert_send_sync<T: Send + Sync>() {}
        fn assert_send<T: Send>() {}
        assert_send_sync::<DeployService>();
        assert_send_sync::<PredictorSnapshot>();
        // The handle owns its result receiver, so it is Send, not Sync.
        assert_send::<TenantHandle>();
    }

    #[test]
    fn rejects_bad_config_and_non_isolated_policy() {
        let cat = InstanceCatalog::paper_catalog();
        let pooled = DeployPolicy::builder(50_000.0)
            .transfer(TransferPolicy::Pooled)
            .build();
        assert!(matches!(
            DeployService::new(cat.clone(), pooled, ServiceConfig::default()),
            Err(CoreError::InvalidParameter(_))
        ));
        for bad in [
            ServiceConfig { depth: 0, ..ServiceConfig::default() },
            ServiceConfig { queue_capacity: 0, ..ServiceConfig::default() },
            ServiceConfig { batch_max: 0, ..ServiceConfig::default() },
        ] {
            assert!(matches!(
                DeployService::new(cat.clone(), test_policy(), bad),
                Err(CoreError::InvalidParameter(_))
            ));
        }
    }

    #[test]
    fn rejects_duplicate_and_post_start_registration() {
        let mut service = DeployService::new(
            InstanceCatalog::paper_catalog(),
            test_policy(),
            ServiceConfig::default(),
        )
        .unwrap();
        let t = TenantId::new("acme-life");
        let h = service.register(t.clone(), 7).unwrap();
        assert!(matches!(
            service.register(t.clone(), 8),
            Err(CoreError::InvalidParameter(_))
        ));
        service.start().unwrap();
        assert!(matches!(
            service.register(TenantId::new("late"), 9),
            Err(CoreError::InvalidParameter(_))
        ));
        h.finish().unwrap();
        service.join().unwrap();
    }

    #[test]
    fn single_tenant_stream_is_bit_identical_to_solo() {
        let tenant = TenantId::new("acme-life");
        let jobs = jobs_for(0, 14);
        let expected = solo_run(11, &tenant, &jobs);

        let mut service = DeployService::new(
            InstanceCatalog::paper_catalog(),
            test_policy(),
            ServiceConfig { depth: 3, queue_capacity: 32, batch_max: 8 },
        )
        .unwrap();
        let handle = service.register(tenant.clone(), 11).unwrap();
        service.start().unwrap();
        for j in &jobs {
            handle.submit(j.clone()).unwrap();
        }
        let run = handle.finish().unwrap();
        assert_eq!(run.outcomes, expected);
        assert_eq!(run.stats.jobs, jobs.len());

        // The shared shards hold exactly the solo base, shard by shard.
        let provider = CloudProvider::new(InstanceCatalog::paper_catalog(), 11);
        let mut solo = TenantShardedDeployer::new(provider, test_policy(), 11)
            .with_tenant(tenant.clone());
        for j in &jobs {
            solo.deploy(&j.profile, &j.workload).unwrap();
        }
        for (key, shard) in solo.knowledge_base().shards() {
            let got = service.shard(&key.0, &key.1).expect("service shard exists");
            assert_eq!(got.records(), shard.records());
        }
        let stats = service.join().unwrap();
        assert_eq!(stats.admitted, jobs.len());
        assert_eq!(stats.rejected, 0);
        assert!(stats.retrains > 0);
        assert!(stats.snapshot_generation > 0);
    }

    #[test]
    fn concurrent_tenants_each_match_their_solo_run() {
        let tenants: Vec<TenantId> = (0..3)
            .map(|i| TenantId::new(format!("company-{i}")))
            .collect();
        let mut service = DeployService::new(
            InstanceCatalog::paper_catalog(),
            test_policy(),
            ServiceConfig { depth: 2, queue_capacity: 32, batch_max: 4 },
        )
        .unwrap();
        let handles: Vec<TenantHandle> = tenants
            .iter()
            .enumerate()
            .map(|(i, t)| service.register(t.clone(), 20 + i as u64).unwrap())
            .collect();
        service.start().unwrap();
        let all_jobs: Vec<Vec<PipelineJob>> =
            (0..tenants.len()).map(|i| jobs_for(i, 12)).collect();
        // Interleave submissions across tenants to exercise concurrency.
        for j in 0..12 {
            for (h, jobs) in handles.iter().zip(&all_jobs) {
                h.submit(jobs[j].clone()).unwrap();
            }
        }
        for (i, h) in handles.into_iter().enumerate() {
            let run = h.finish().unwrap();
            let expected = solo_run(20 + i as u64, &tenants[i], &all_jobs[i]);
            assert_eq!(run.outcomes, expected, "tenant {i} diverged from solo");
        }
        service.join().unwrap();
    }

    #[test]
    fn full_queue_surfaces_backpressure() {
        let capacity = 4;
        let mut service = DeployService::new(
            InstanceCatalog::paper_catalog(),
            test_policy(),
            ServiceConfig { depth: 1, queue_capacity: capacity, batch_max: 8 },
        )
        .unwrap();
        let tenant = TenantId::new("acme-life");
        let handle = service.register(tenant, 5).unwrap();
        // Workers are not started yet, so nothing drains: fills are
        // deterministic.
        let jobs = jobs_for(0, capacity + 2);
        for j in &jobs[..capacity] {
            handle.submit(j.clone()).unwrap();
        }
        for j in &jobs[capacity..] {
            match handle.submit(j.clone()) {
                Err(CoreError::Backpressure { capacity: c }) => assert_eq!(c, capacity),
                other => panic!("expected Backpressure, got {other:?}"),
            }
        }
        service.start().unwrap();
        let run = handle.finish().unwrap();
        assert_eq!(run.outcomes.len(), capacity);
        let stats = service.join().unwrap();
        assert_eq!(stats.submitted, capacity + 2);
        assert_eq!(stats.admitted, capacity);
        assert_eq!(stats.rejected, 2);
        assert_eq!(stats.max_queue_depth, capacity);
    }

    #[test]
    fn exported_base_matches_shard_contents() {
        let tenant = TenantId::new("acme-life");
        let jobs = jobs_for(0, 6);
        let mut service = DeployService::new(
            InstanceCatalog::paper_catalog(),
            test_policy(),
            ServiceConfig::default(),
        )
        .unwrap();
        let handle = service.register(tenant.clone(), 3).unwrap();
        service.start().unwrap();
        for j in &jobs {
            handle.submit(j.clone()).unwrap();
        }
        handle.finish().unwrap();
        let exported = service.export_knowledge_base();
        assert_eq!(exported.len(), jobs.len());
        assert!(exported
            .records_in_arrival_order()
            .all(|r| r.tenant == tenant));
        service.join().unwrap();
    }

    /// A service lane outside a running service: the deployer a worker
    /// would drive, and the ingester thread that applies its retrains.
    fn lane(policy: DeployPolicy, seed: u64) -> (DeployLoop<ServiceTenant>, JoinHandle<()>) {
        let catalog = InstanceCatalog::paper_catalog();
        let mut service =
            DeployService::new(catalog.clone(), policy, ServiceConfig::default()).unwrap();
        let rx = service.ingest_rx.get_mut().unwrap().take().unwrap();
        let shared = Arc::clone(&service.shared);
        let ingester = std::thread::spawn(move || ingester_loop(&shared, &rx, 8));
        let backend = ServiceTenant {
            tenant: TenantId::new("acme-life"),
            seed,
            shared: Arc::clone(&service.shared),
            reader: SnapshotReader::new(&service.shared.snapshot),
            ingest: service.ingest_tx.take().unwrap(),
            len: 0,
            local_lens: BTreeMap::new(),
            fires: BTreeMap::new(),
        };
        let provider = Arc::new(CloudProvider::new(catalog, seed));
        (
            DeployLoop::assemble(provider, policy, seed, backend),
            ingester,
        )
    }

    /// A shard that cannot be retrained stops the service, and everything
    /// that waits on the ingester from then on says which shard and why.
    #[test]
    fn a_failed_retrain_is_reported_with_its_shard_and_cause() {
        let (mut d, ingester) = lane(test_policy(), 11);
        let catalog = InstanceCatalog::paper_catalog();
        let instance = catalog.get(&catalog.names()[0]).unwrap();
        // A duration that is not a number cannot be featurized: the refit of
        // its shard fails before any model sees it.
        for secs in [120.0, f64::NAN] {
            let record = RunRecord::new(profile(100), instance, 2, secs, 1.0);
            d.backend.append(record).unwrap();
        }
        let shard = d.backend.shards(&instance.name);
        d.backend
            .retrain(&instance.name, &shard, RetrainMode::Full, 1)
            .unwrap();
        ingester.join().unwrap();

        let same_failure = |e: CoreError| {
            let text = e.to_string();
            assert!(
                text.contains(&instance.name) && text.contains("acme-life"),
                "{text}"
            );
            let CoreError::ShardRetrainFailed {
                instance: at,
                tenant,
                cause,
            } = e
            else {
                panic!("not a retrain failure: {e}");
            };
            assert_eq!(
                (at.as_str(), tenant.as_str()),
                (instance.name.as_str(), "acme-life")
            );
            assert!(
                matches!(*cause, CoreError::Ml(disar_ml::MlError::NonFiniteInput)),
                "{cause}"
            );
        };
        // The selection that waits for the fire, the next record of the
        // shard, and the next fire handed to an ingester that is gone.
        same_failure(d.backend.with_view(&BTreeMap::new(), |_| ()).unwrap_err());
        let next = RunRecord::new(profile(100), instance, 1, 90.0, 1.0);
        same_failure(d.backend.append(next).unwrap_err());
        let again = d
            .backend
            .retrain(&instance.name, &shard, RetrainMode::Full, 1);
        same_failure(again.unwrap_err());
    }

    /// `n` forced decisions over an uneven cycle of instance types, with the
    /// reports of their runs. Every fourth decision claims a prediction 40×
    /// the realized time (the others claim the realized time exactly), so
    /// an enabled detector fires now and then.
    fn decided_runs<B: Backend>(
        d: &DeployLoop<B>,
        n: usize,
        offset: usize,
    ) -> Vec<(JobProfile, DeployDecision, JobReport)> {
        let names = InstanceCatalog::paper_catalog().names();
        (offset..offset + n)
            .map(|i| {
                let contracts = 80 + (i * 37) % 200;
                let instance = &names[(i * 5 + i / 7) % names.len()];
                let n_nodes = 1 + i % 3;
                let report = d
                    .provider()
                    .run_job(instance, n_nodes, &workload(contracts))
                    .unwrap();
                let claimed = report.duration_secs * if i % 4 == 3 { 40.0 } else { 1.0 };
                let decision = DeployDecision {
                    mode: DeployMode::Manual,
                    instance: instance.clone(),
                    n_nodes,
                    predicted_secs: Some(claimed),
                };
                (profile(contracts), decision, report)
            })
            .collect()
    }

    /// Replays every prefix of `k` pending decisions from the deployer's
    /// present state, then lands the same records one by one and compares
    /// the two after each.
    fn replay_matches_landing<B: Backend>(mut d: DeployLoop<B>, k: usize, label: &str) {
        let policy = *d.policy();
        let runs = decided_runs(&d, k, 100);
        let pending: Vec<DeployDecision> = runs.iter().map(|(_, dec, _)| dec.clone()).collect();
        let sims: Vec<PendingSim> = (0..=k).map(|j| d.replay(&pending[..j])).collect();
        let escalated = |level: usize| match level {
            0 => policy.retrain_mode,
            1 => RetrainMode::Windowed {
                window: policy.drift.window,
                decay: policy.drift.decay,
            },
            _ => RetrainMode::Full,
        };
        let mut ladders: BTreeMap<Shard, usize> = BTreeMap::new();
        let (mut fires, mut absorbed) = (0, 0);
        for (j, (profile, decision, report)) in runs.iter().enumerate() {
            let at = format!("{label}, record {j}");
            let detector_fires = d.drift_fires();
            d.record(profile, decision, report).unwrap();
            let sim = &sims[j + 1];

            // The fire sequence: a record fired exactly when the replay
            // said it would, whatever the detector made of its residual.
            let fired = d.runs_since_retrain == 0;
            assert_eq!(fired, sim.runs_since_retrain == 0, "fire at {at}");
            assert_eq!(
                d.runs_since_retrain, sim.runs_since_retrain,
                "cadence at {at}"
            );
            fires += usize::from(fired);
            assert_eq!(sim.retrain_pending, fires > 0, "retrain_pending at {at}");

            // Sizes, trained flags and coverage.
            assert_eq!(d.kb_len(), sim.virtual_len, "virtual_len at {at}");
            for (shard, size) in &sim.sizes {
                assert_eq!(d.backend.size(shard), *size, "size of {shard:?} at {at}");
            }
            let landed = d.replay(&[]);
            assert_eq!(landed.covered, sim.covered, "covered at {at}");
            assert!(!landed.retrain_pending && landed.sizes.is_empty());

            // The rest of the replay from here agrees with the whole.
            let rest = d.replay(&pending[j + 1..]);
            let whole = &sims[k];
            assert_eq!(rest.virtual_len, whole.virtual_len, "suffix len at {at}");
            assert_eq!(rest.covered, whole.covered, "suffix covered at {at}");
            assert_eq!(
                rest.runs_since_retrain, whole.runs_since_retrain,
                "suffix cadence at {at}"
            );

            // The ladder of the record's own shard: one rung up per detector
            // fire, back to the base mode once a retrain of the shard fired.
            let own = d.backend.shards(&decision.instance).swap_remove(0);
            let level = ladders.entry(own.clone()).or_insert(0);
            if d.drift_fires() > detector_fires {
                *level = (*level + 1).min(2);
                absorbed += usize::from(fired);
            }
            if fired {
                *level = 0;
            }
            let mode = d.drift.get(&own).map_or(policy.retrain_mode, |s| {
                s.next_mode(policy.retrain_mode, &policy.drift)
            });
            assert_eq!(mode, escalated(*level), "ladder of {own:?} at {at}");
        }
        assert!(!sims[0].covered, "{label}: covered before the first record");
        if policy.retrain_every == 1 {
            assert!(
                sims[k].covered,
                "{label}: {k} records never covered the catalog"
            );
        }
        assert!(fires > 0, "{label}: no retrain fired in {k} records");
        assert!(d.drift_fires() > 0, "{label}: the detector never fired");
        assert!(absorbed > 0, "{label}: no escalated retrain was applied");
    }

    #[test]
    fn pending_replay_matches_landing_on_every_layout() {
        use crate::deploy::{ShardedDeployer, TransparentDeployer};
        let provider = |seed| CloudProvider::new(InstanceCatalog::paper_catalog(), seed);
        for retrain_every in [1, 3] {
            let policy = |transfer| {
                DeployPolicy::builder(50_000.0)
                    .max_nodes(4)
                    .min_kb_samples(5)
                    .retrain_every(retrain_every)
                    .n_threads(1)
                    .transfer(transfer)
                    .drift(DriftConfig {
                        detector: DetectorKind::PageHinkley,
                        ..DriftConfig::default()
                    })
                    .build()
            };
            let isolated = policy(TransferPolicy::Isolated);
            let k = 40;
            let label = |layout: &str| format!("{layout}, retrain_every {retrain_every}");

            let mono = TransparentDeployer::new(provider(3), isolated, 3);
            replay_matches_landing(mono, k, &label("monolithic"));
            let sharded = ShardedDeployer::new(provider(5), isolated, 5);
            replay_matches_landing(sharded, k, &label("per-instance"));
            for transfer in [
                TransferPolicy::Isolated,
                TransferPolicy::Pooled,
                TransferPolicy::BorrowUntil(3),
            ] {
                // Another tenant's records first, so that pooled and local
                // shards differ and the replay starts from a grown base.
                let mut d = TenantShardedDeployer::new(provider(7), policy(transfer), 7)
                    .with_tenant(TenantId::new("bolt-re"));
                for (profile, decision, report) in decided_runs(&d, 9, 0) {
                    d.record(&profile, &decision, &report).unwrap();
                }
                d.set_tenant(TenantId::new("acme-life"));
                replay_matches_landing(d, k, &label(&format!("tenant {transfer:?}")));
            }
            let (d, ingester) = lane(isolated, 11);
            replay_matches_landing(d, k, &label("service lane"));
            ingester.join().unwrap();
        }
    }
}
