//! The multi-tenant deploy service.
//!
//! [`DeployService`] serves N companies at once. Each registered tenant is
//! a lane: its own [`ShardedDeployer`], built as its solo deployer is and
//! tagging every run with the tenant. One service thread, spawned by
//! [`DeployService::start`], takes the commands of every [`TenantHandle`]
//! off one channel and runs each job on its tenant's lane, in arrival order.
//!
//! What a handle guarantees:
//!
//! - **the solo run, bit for bit** — a tenant's jobs run on its lane in the
//!   order it submitted them, and a lane reads and writes only its own
//!   knowledge, so the tenant's outcomes and shards are those of the tenant
//!   running alone, whatever the others submit and when;
//! - **a bounded queue** — at most `queue_capacity` of its jobs wait at
//!   once, and [`TenantHandle::submit`] refuses the next with
//!   [`CoreError::Backpressure`];
//! - **failures stay inside their tenant** — a lane's first error (a
//!   [`CoreError::ShardRetrainFailed`], say) drops the tenant's later jobs
//!   and is what its [`TenantHandle::finish`] returns; the other tenants go
//!   on.
//!
//! One thread running lanes one job at a time is a measured choice
//! (DESIGN.md §11): a thread per tenant, with or without a run thread per
//! job beside it, ran slower and larger on one pinned CPU.

use crate::deploy::{DeployOutcome, DeployPolicy, Deployer, ShardedDeployer};
use crate::knowledge::{KnowledgeBase, ShardedKnowledgeBase, TenantId};
use crate::profile::JobProfile;
use crate::CoreError;
use disar_cloudsim::{CloudProvider, InstanceCatalog, Workload};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// One job for a tenant's lane.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineJob {
    /// The job's characteristic parameters (predictor features).
    pub profile: JobProfile,
    /// The cloud workload to execute.
    pub workload: Workload,
    /// `Some((instance, n_nodes))` forces this configuration (the manual
    /// override of [`crate::deploy::Deployer::deploy_manual`]); `None` lets
    /// the deployer choose.
    pub forced: Option<(String, usize)>,
}

impl PipelineJob {
    /// A job whose configuration the deployer chooses.
    pub fn auto(profile: JobProfile, workload: Workload) -> Self {
        PipelineJob {
            profile,
            workload,
            forced: None,
        }
    }

    /// A job pinned to an operator-chosen configuration.
    pub fn forced(profile: JobProfile, workload: Workload, instance: &str, n_nodes: usize) -> Self {
        PipelineJob {
            profile,
            workload,
            forced: Some((instance.to_string(), n_nodes)),
        }
    }
}

/// Job counters of a lane ([`TenantRun::stats`]) or of the whole service
/// ([`ServiceStats::pipeline`]). Only `jobs` is counted; the other fields
/// are always 0 and are removed with ROADMAP direction 1a.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PipelineStats {
    /// Jobs run.
    pub jobs: usize,
    /// Always 0.
    pub max_in_flight: usize,
    /// Always 0.
    pub mean_in_flight: f64,
    /// Always 0.
    pub overlapped_selections: usize,
    /// Always 0.
    pub stalled_selections: usize,
}

/// Sizing of a [`DeployService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Ignored: a lane runs one job at a time. Removed with ROADMAP
    /// direction 1a (the benchmark's adapter sets it).
    pub depth: usize,
    /// Most jobs a handle may have waiting; the next `submit` is refused
    /// with [`CoreError::Backpressure`].
    pub queue_capacity: usize,
    /// Ignored: nothing batches records. Removed with ROADMAP direction 1a.
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

/// The service's admission counters, and what its tenants' lanes did.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ServiceStats {
    /// `jobs` counts the deploys of every tenant that has finished; the
    /// other counters are always 0 and are removed with ROADMAP direction 1a.
    pub pipeline: PipelineStats,
    /// Registered tenants.
    pub tenants: usize,
    /// Jobs offered to `submit` (admitted + rejected).
    pub submitted: usize,
    /// Jobs accepted into a queue.
    pub admitted: usize,
    /// Jobs rejected with [`CoreError::Backpressure`].
    pub rejected: usize,
    /// Most jobs waiting at once, across all tenants.
    pub max_queue_depth: usize,
    /// Always 0; removed with ROADMAP direction 1a.
    pub ingest_batches: usize,
    /// Shard retrains of every tenant that has finished
    /// ([`crate::deploy::DeployLoop::retrains`], summed).
    pub retrains: usize,
    /// Always 0; removed with ROADMAP direction 1a.
    pub snapshot_generation: u64,
}

/// One tenant's results after [`TenantHandle::finish`].
#[derive(Debug, Clone, PartialEq)]
pub struct TenantRun {
    /// The tenant the run belongs to.
    pub tenant: TenantId,
    /// Per-job outcomes in submission order.
    pub outcomes: Vec<DeployOutcome>,
    /// `jobs` counts the deploys; the other counters are always 0 and are
    /// removed with ROADMAP direction 1a.
    pub stats: PipelineStats,
}

/// A command from a handle, sent with the index of its tenant's lane.
enum Cmd {
    Job(PipelineJob),
    /// End of the tenant's stream; the run goes back on the sender.
    Finish(Sender<Result<TenantRun, CoreError>>),
}

/// What the handles, the service thread and the service share.
#[derive(Default)]
struct Shared {
    submitted: AtomicUsize,
    admitted: AtomicUsize,
    rejected: AtomicUsize,
    /// Jobs waiting across all tenants, and the most seen at once.
    queued: AtomicUsize,
    max_queued: AtomicUsize,
    retired: Mutex<Retired>,
}

/// What lanes leave behind once their tenants finish.
#[derive(Default)]
struct Retired {
    bases: BTreeMap<TenantId, ShardedKnowledgeBase>,
    deploys: usize,
    retrains: usize,
}

const POISONED: &str = "a thread panicked holding the retired lanes";
const GONE: &str = "the service thread is gone";

/// A tenant's submission endpoint. Created by [`DeployService::register`];
/// `submit` jobs, then [`TenantHandle::finish`] to collect the outcomes.
pub struct TenantHandle {
    tenant: TenantId,
    lane: usize,
    capacity: usize,
    /// This tenant's jobs waiting for the service thread. `Relaxed` is
    /// enough: a job is counted before it is sent and uncounted after it is
    /// received, and the channel orders the two.
    queued: Arc<AtomicUsize>,
    tx: Sender<(usize, Cmd)>,
    shared: Arc<Shared>,
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
    /// [`CoreError::Backpressure`] when `queue_capacity` of this tenant's
    /// jobs are waiting; [`CoreError::ServiceStopped`] when the service
    /// thread is gone.
    pub fn submit(&self, job: PipelineJob) -> Result<(), CoreError> {
        let s = &self.shared;
        s.submitted.fetch_add(1, Relaxed);
        let admitted = self
            .queued
            .fetch_update(Relaxed, Relaxed, |n| (n < self.capacity).then_some(n + 1));
        if admitted.is_err() {
            s.rejected.fetch_add(1, Relaxed);
            return Err(CoreError::Backpressure {
                capacity: self.capacity,
            });
        }
        let waiting = s.queued.fetch_add(1, Relaxed) + 1;
        s.max_queued.fetch_max(waiting, Relaxed);
        if self.tx.send((self.lane, Cmd::Job(job))).is_err() {
            self.queued.fetch_sub(1, Relaxed);
            s.queued.fetch_sub(1, Relaxed);
            return Err(CoreError::ServiceStopped(GONE));
        }
        s.admitted.fetch_add(1, Relaxed);
        Ok(())
    }

    /// Signals end-of-stream, waits for this tenant's queued jobs to run and
    /// returns its outcomes in submission order.
    ///
    /// # Errors
    ///
    /// The first error of the tenant's stream (its later jobs were dropped,
    /// as the solo loop stops there), such as
    /// [`CoreError::ShardRetrainFailed`]; [`CoreError::ServiceStopped`] when
    /// the service thread is gone.
    pub fn finish(self) -> Result<TenantRun, CoreError> {
        let (reply, run) = mpsc::channel();
        self.tx
            .send((self.lane, Cmd::Finish(reply)))
            .map_err(|_| CoreError::ServiceStopped(GONE))?;
        run.recv().map_err(|_| CoreError::ServiceStopped(GONE))?
    }
}

/// A tenant's deployer on the service thread, with what it has produced.
struct Lane {
    deployer: ShardedDeployer,
    queued: Arc<AtomicUsize>,
    outcomes: Vec<DeployOutcome>,
    /// The first error; the tenant's later jobs are dropped.
    failed: Option<CoreError>,
}

impl Lane {
    fn run(&mut self, job: &PipelineJob, shared: &Shared) {
        self.queued.fetch_sub(1, Relaxed);
        shared.queued.fetch_sub(1, Relaxed);
        if self.failed.is_some() {
            return;
        }
        let d = &mut self.deployer;
        let outcome = match &job.forced {
            Some((instance, n_nodes)) => {
                d.deploy_manual(&job.profile, &job.workload, instance, *n_nodes)
            }
            None => d.deploy(&job.profile, &job.workload),
        };
        match outcome {
            Ok(outcome) => self.outcomes.push(outcome),
            Err(e) => self.failed = Some(e),
        }
    }

    /// Leaves the lane's knowledge base and counters with the service and
    /// returns the tenant's run.
    fn retire(self, retired: &Mutex<Retired>) -> Result<TenantRun, CoreError> {
        let tenant = self.deployer.tenant().clone();
        let mut r = retired.lock().expect(POISONED);
        r.deploys += self.outcomes.len();
        r.retrains += self.deployer.retrains();
        r.bases
            .insert(tenant.clone(), self.deployer.into_knowledge_base());
        drop(r);
        match self.failed {
            Some(e) => Err(e),
            None => Ok(TenantRun {
                stats: PipelineStats {
                    jobs: self.outcomes.len(),
                    ..PipelineStats::default()
                },
                tenant,
                outcomes: self.outcomes,
            }),
        }
    }
}

/// The service thread: runs every job on its tenant's lane in arrival
/// order, until every handle has finished or been dropped.
fn serve(mut lanes: Vec<Option<Lane>>, rx: &Receiver<(usize, Cmd)>, shared: &Shared) {
    const FINISHED: &str = "a finished handle sends nothing more";
    while let Ok((lane, cmd)) = rx.recv() {
        match cmd {
            Cmd::Job(job) => lanes[lane].as_mut().expect(FINISHED).run(&job, shared),
            Cmd::Finish(reply) => {
                let run = lanes[lane].take().expect(FINISHED).retire(&shared.retired);
                // `finish` waits for the reply unless its thread panicked.
                let _ = reply.send(run);
            }
        }
    }
    // Dropped handles: their jobs ran, and their knowledge stays exportable.
    for lane in lanes.into_iter().flatten() {
        let _ = lane.retire(&shared.retired);
    }
}

/// The multi-tenant deploy service (see the module docs).
///
/// Lifecycle: [`DeployService::new`] → [`DeployService::register`] each
/// tenant → [`DeployService::start`] → submit through the handles →
/// [`TenantHandle::finish`] each handle → [`DeployService::join`].
pub struct DeployService {
    catalog: InstanceCatalog,
    policy: DeployPolicy,
    capacity: usize,
    /// Registered tenants, in lane order: name, seed, queued jobs.
    tenants: Vec<(TenantId, u64, Arc<AtomicUsize>)>,
    shared: Arc<Shared>,
    /// Cloned into each handle and dropped by `start()`, so the service
    /// thread ends once every handle is gone.
    tx: Option<Sender<(usize, Cmd)>>,
    /// Taken by `start()`; behind a `Mutex` only so that the service is
    /// `Sync` (a receiver is not).
    rx: Mutex<Option<Receiver<(usize, Cmd)>>>,
    thread: Option<JoinHandle<()>>,
}

impl DeployService {
    /// Creates a stopped service over one instance catalog and one shared
    /// policy.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] for an invalid policy and a zero
    /// `queue_capacity`.
    pub fn new(
        catalog: InstanceCatalog,
        policy: DeployPolicy,
        config: ServiceConfig,
    ) -> Result<Self, CoreError> {
        policy.validate()?;
        if config.queue_capacity == 0 {
            return Err(CoreError::InvalidParameter(
                "service queue_capacity must be > 0",
            ));
        }
        let (tx, rx) = mpsc::channel();
        Ok(DeployService {
            catalog,
            policy,
            capacity: config.queue_capacity,
            tenants: Vec::new(),
            shared: Arc::default(),
            tx: Some(tx),
            rx: Mutex::new(Some(rx)),
            thread: None,
        })
    }

    /// Registers a tenant. `seed` plays the role the solo deployer's seed
    /// does (cloud noise, decision counter, family initialization), so a
    /// service run with seed `s` compares bit for bit with
    /// `ShardedDeployer::new(provider(s), policy, s).with_tenant(tenant)`.
    /// Jobs submitted
    /// before `start()` wait in the queue, which is what makes
    /// [`CoreError::Backpressure`] deterministic to provoke.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] after `start()` or for a duplicate
    /// tenant.
    pub fn register(&mut self, tenant: TenantId, seed: u64) -> Result<TenantHandle, CoreError> {
        let Some(tx) = &self.tx else {
            return Err(CoreError::InvalidParameter(
                "register tenants before start()",
            ));
        };
        if self.tenants.iter().any(|(t, ..)| *t == tenant) {
            return Err(CoreError::InvalidParameter("tenant already registered"));
        }
        let queued = Arc::new(AtomicUsize::new(0));
        self.tenants
            .push((tenant.clone(), seed, Arc::clone(&queued)));
        Ok(TenantHandle {
            tenant,
            lane: self.tenants.len() - 1,
            capacity: self.capacity,
            queued,
            tx: tx.clone(),
            shared: Arc::clone(&self.shared),
        })
    }

    /// Builds every tenant's lane and spawns the service thread.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] when already started.
    pub fn start(&mut self) -> Result<(), CoreError> {
        let rx = self
            .rx
            .get_mut()
            .expect("the receiver is only taken here")
            .take()
            .ok_or(CoreError::InvalidParameter("service already started"))?;
        self.tx = None;
        let lanes = self
            .tenants
            .iter()
            .map(|(tenant, seed, queued)| {
                let provider = CloudProvider::new(self.catalog.clone(), *seed);
                Some(Lane {
                    deployer: ShardedDeployer::new(provider, self.policy, *seed)
                        .with_tenant(tenant.clone()),
                    queued: Arc::clone(queued),
                    outcomes: Vec::new(),
                    failed: None,
                })
            })
            .collect();
        let shared = Arc::clone(&self.shared);
        self.thread = Some(std::thread::spawn(move || serve(lanes, &rx, &shared)));
        Ok(())
    }

    /// Point-in-time service counters; the lanes' counters are added as
    /// their tenants finish.
    pub fn stats(&self) -> ServiceStats {
        let s = &self.shared;
        let retired = s.retired.lock().expect(POISONED);
        ServiceStats {
            pipeline: PipelineStats {
                jobs: retired.deploys,
                ..PipelineStats::default()
            },
            tenants: self.tenants.len(),
            submitted: s.submitted.load(Relaxed),
            admitted: s.admitted.load(Relaxed),
            rejected: s.rejected.load(Relaxed),
            max_queue_depth: s.max_queued.load(Relaxed),
            ingest_batches: 0,
            retrains: retired.retrains,
            snapshot_generation: 0,
        }
    }

    /// A copy of a finished tenant's shard of one instance type, if it
    /// exists.
    pub fn shard(&self, instance: &str, tenant: &TenantId) -> Option<KnowledgeBase> {
        let retired = self.shared.retired.lock().expect(POISONED);
        retired.bases.get(tenant)?.shard(instance).cloned()
    }

    /// Exports every finished tenant's records as one base: tenant-major in
    /// tenant order, each tenant's records in its arrival order.
    pub fn export_knowledge_base(&self) -> ShardedKnowledgeBase {
        let retired = self.shared.retired.lock().expect(POISONED);
        let mut out = ShardedKnowledgeBase::new();
        for kb in retired.bases.values() {
            for r in kb.records_in_arrival_order() {
                out.record(r.clone());
            }
        }
        out
    }

    /// Waits for the service thread to end and returns the final counters.
    /// The thread ends once every handle has finished or been dropped, so
    /// a live handle keeps `join` waiting.
    ///
    /// # Errors
    ///
    /// [`CoreError::ServiceStopped`] if the service thread panicked.
    pub fn join(mut self) -> Result<ServiceStats, CoreError> {
        if let Some(thread) = self.thread.take() {
            thread
                .join()
                .map_err(|_| CoreError::ServiceStopped("the service thread panicked"))?;
        }
        Ok(self.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::{DeployDecision, DeployMode};
    use crate::profile::JobProfile;
    use disar_cloudsim::{InstanceType, Workload};
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

    fn solo(catalog: &InstanceCatalog, seed: u64, tenant: &TenantId) -> ShardedDeployer {
        let provider = CloudProvider::new(catalog.clone(), seed);
        ShardedDeployer::new(provider, test_policy(), seed).with_tenant(tenant.clone())
    }

    /// The ground truth: the same tenant running alone, sequentially,
    /// through its own deployer.
    fn solo_run(seed: u64, tenant: &TenantId, jobs: &[PipelineJob]) -> Vec<DeployOutcome> {
        let mut solo = solo(&InstanceCatalog::paper_catalog(), seed, tenant);
        jobs.iter()
            .map(|j| solo.deploy(&j.profile, &j.workload).unwrap())
            .collect()
    }

    #[test]
    fn service_is_send_and_sync() {
        // A started service can be shared behind an `Arc` and its handles
        // moved to the threads that submit: pinned here so that a field
        // change cannot silently lose either.
        fn assert_send_sync<T: Send + Sync>() {}
        fn assert_send<T: Send>() {}
        assert_send_sync::<DeployService>();
        assert_send::<TenantHandle>();
    }

    #[test]
    fn rejects_a_zero_queue_capacity() {
        let cat = InstanceCatalog::paper_catalog();
        let no_queue = ServiceConfig {
            queue_capacity: 0,
            ..ServiceConfig::default()
        };
        assert!(matches!(
            DeployService::new(cat, test_policy(), no_queue),
            Err(CoreError::InvalidParameter(_))
        ));
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
        assert!(matches!(
            service.start(),
            Err(CoreError::InvalidParameter(_))
        ));
        h.finish().unwrap();
        service.join().unwrap();
    }

    #[test]
    fn single_tenant_stream_is_bit_identical_to_solo() {
        let tenant = TenantId::new("acme-life");
        let jobs = jobs_for(0, 14);
        let mut service = DeployService::new(
            InstanceCatalog::paper_catalog(),
            test_policy(),
            ServiceConfig {
                queue_capacity: 32,
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        let handle = service.register(tenant.clone(), 11).unwrap();
        service.start().unwrap();
        for j in &jobs {
            handle.submit(j.clone()).unwrap();
        }
        let run = handle.finish().unwrap();
        assert_eq!(run.stats.jobs, jobs.len());

        // The same outcomes, the same shards and the same retrains as alone.
        let mut solo = solo(&InstanceCatalog::paper_catalog(), 11, &tenant);
        let expected: Vec<DeployOutcome> = jobs
            .iter()
            .map(|j| solo.deploy(&j.profile, &j.workload).unwrap())
            .collect();
        assert_eq!(run.outcomes, expected);
        for (instance, shard) in solo.knowledge_base().shards() {
            let got = service
                .shard(instance, &tenant)
                .expect("service shard exists");
            assert_eq!(got.records(), shard.records());
        }
        let stats = service.join().unwrap();
        assert_eq!(stats.admitted, jobs.len());
        assert_eq!(stats.rejected, 0);
        assert!(solo.retrains() > 0);
        assert_eq!(stats.retrains, solo.retrains());
        assert_eq!(stats.pipeline.jobs, jobs.len());
    }

    #[test]
    fn concurrent_tenants_each_match_their_solo_run() {
        let tenants: Vec<TenantId> = (0..3)
            .map(|i| TenantId::new(format!("company-{i}")))
            .collect();
        let mut service = DeployService::new(
            InstanceCatalog::paper_catalog(),
            test_policy(),
            ServiceConfig {
                queue_capacity: 32,
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        let handles: Vec<TenantHandle> = tenants
            .iter()
            .enumerate()
            .map(|(i, t)| service.register(t.clone(), 20 + i as u64).unwrap())
            .collect();
        service.start().unwrap();
        let all_jobs: Vec<Vec<PipelineJob>> = (0..tenants.len()).map(|i| jobs_for(i, 12)).collect();
        // Interleave submissions across tenants.
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
            ServiceConfig {
                queue_capacity: capacity,
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        let tenant = TenantId::new("acme-life");
        let handle = service.register(tenant, 5).unwrap();
        // The service thread is not started yet, so nothing drains: fills
        // are deterministic.
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

    #[test]
    fn a_dropped_handle_still_lets_join_return() {
        let mut service = DeployService::new(
            InstanceCatalog::paper_catalog(),
            test_policy(),
            ServiceConfig::default(),
        )
        .unwrap();
        let kept = service.register(TenantId::new("acme-life"), 5).unwrap();
        let dropped = service.register(TenantId::new("bolt-re"), 6).unwrap();
        service.start().unwrap();
        for j in jobs_for(1, 3) {
            dropped.submit(j).unwrap();
        }
        drop(dropped);
        for j in jobs_for(0, 4) {
            kept.submit(j).unwrap();
        }
        assert_eq!(kept.finish().unwrap().outcomes.len(), 4);
        // The dropped tenant's queued jobs still ran.
        assert_eq!(service.join().unwrap().pipeline.jobs, 7);
    }

    /// A shard that cannot be refitted: the deployer says which shard and
    /// why, and in the service only that shard's tenant stops.
    #[test]
    fn a_failed_retrain_is_reported_with_its_shard_and_cause() {
        let is_the_failure = |e: CoreError, instance: &str, tenant: &str| {
            let text = e.to_string();
            assert!(text.contains(instance) && text.contains(tenant), "{text}");
            let CoreError::ShardRetrainFailed {
                instance: at,
                tenant: of,
                cause,
            } = e
            else {
                panic!("not a retrain failure: {text}");
            };
            assert_eq!((at.as_str(), of.as_str()), (instance, tenant));
            assert!(
                matches!(*cause, CoreError::Ml(disar_ml::MlError::NonFiniteInput)),
                "{cause}"
            );
        };
        let acme = TenantId::new("acme-life");

        // A duration that is not a number cannot be featurized: the refit
        // its shard fires at two records fails before any model sees it.
        let catalog = InstanceCatalog::paper_catalog();
        let instance = catalog.names()[0].clone();
        let mut d = solo(&catalog, 11, &acme);
        let decision = DeployDecision {
            mode: DeployMode::Manual,
            instance: instance.clone(),
            n_nodes: 2,
            predicted_secs: None,
        };
        let mut report = d.provider().run_job(&instance, 2, &workload(100)).unwrap();
        d.record(&profile(100), &decision, &report).unwrap();
        report.duration_secs = f64::NAN;
        let failed = d.record(&profile(100), &decision, &report).unwrap_err();
        is_the_failure(failed, &instance, "acme-life");
        assert_eq!(d.knowledge_base().len(), 2, "the record lands first");

        // In the service, an instance type of unbounded memory does the same
        // to the tenant that runs on it: the cloud runs its jobs, the shard
        // cannot be fitted. The other tenant's stream is its solo run.
        // `InstanceType::new` refuses a non-finite memory, so the entry is
        // built field by field, as a catalog that skips the constructor would.
        let mut catalog = InstanceCatalog::paper_catalog();
        let names = catalog.names();
        catalog.register(InstanceType {
            name: "x1.unbounded".to_string(),
            vcpus: 16,
            memory_gib: f64::INFINITY,
            hourly_cost: 1.0,
            per_core_speed: 1.0,
        });
        let forced = |i: usize, instance: &str| {
            let c = 80 + 13 * i;
            PipelineJob::forced(profile(c), workload(c), instance, 1 + i % 2)
        };
        let bolt = TenantId::new("bolt-re");
        let bolt_jobs: Vec<PipelineJob> = (0..6).map(|i| forced(i, &names[i % 2])).collect();
        let mut service =
            DeployService::new(catalog.clone(), test_policy(), ServiceConfig::default()).unwrap();
        let a = service.register(acme, 3).unwrap();
        let b = service.register(bolt.clone(), 4).unwrap();
        service.start().unwrap();
        for (i, job) in bolt_jobs.iter().enumerate() {
            a.submit(forced(i, "x1.unbounded")).unwrap();
            b.submit(job.clone()).unwrap();
        }
        is_the_failure(a.finish().unwrap_err(), "x1.unbounded", "acme-life");
        let mut alone = solo(&catalog, 4, &bolt);
        let expected: Vec<DeployOutcome> = bolt_jobs
            .iter()
            .map(|j| {
                let (instance, n_nodes) = j.forced.as_ref().unwrap();
                alone
                    .deploy_manual(&j.profile, &j.workload, instance, *n_nodes)
                    .unwrap()
            })
            .collect();
        assert_eq!(b.finish().unwrap().outcomes, expected);
        assert!(alone.retrains() > 0);
        service.join().unwrap();
    }
}
