//! The event-driven deploy pipeline: overlapping Algorithm 1's selection
//! sweep with the cloud runs it steers.
//!
//! The paper's transparent deployer runs strictly in sequence per job:
//! select → run → record → retrain. But the selection for job *k+1* only
//! *needs* the knowledge base as of the last landed record — whenever the
//! retrain schedule guarantees that the records still in flight cannot
//! change the predictor snapshot (bootstrap-phase selections, selections
//! inside a `retrain_every > 1` window, manual overrides), the sweep for
//! job *k+1* may legally start while job *k* is still executing.
//!
//! [`DeployPipeline`] exploits exactly that window and nothing more:
//!
//! - **submission queue** — jobs are issued in order, each selection
//!   seeing the decisions of all in-flight runs
//!   ([`Deployer::select`]'s `pending` contract);
//! - **in-flight table** — each issued job holds a reserved noise-stream
//!   slot ([`CloudProvider::begin_job`]) and executes on its own scoped
//!   thread, so realized durations replay the sequential `run_job`
//!   stream bit-for-bit; the table keeps each thread's handle;
//! - **completion stage** — reports land strictly in job order by joining
//!   the oldest run's thread, and each record is fed back
//!   ([`Deployer::record`]) before the next selection that is allowed
//!   to observe it.
//!
//! The feedback-visibility rule ([`Deployer::selection_ready`]) makes
//! the pipeline *deterministic*: outcomes and the final knowledge base
//! are bit-identical to the sequential loop for **any** `depth ≥ 1`,
//! with `depth: 1` as the sequential escape hatch (mirroring the
//! `n_threads: 1` convention). Only [`PipelineStats`] — occupancy and
//! overlap counters — may vary with scheduling.

use crate::deploy::{DeployDecision, DeployOutcome, Deployer};
use crate::profile::JobProfile;
use crate::CoreError;
use disar_cloudsim::{CloudError, JobReport, Workload};
use std::collections::VecDeque;
use std::thread::ScopedJoinHandle;

/// One unit of work for the pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineJob {
    /// The job's characteristic parameters (predictor features).
    pub profile: JobProfile,
    /// The cloud workload to execute.
    pub workload: Workload,
    /// `Some((instance, n_nodes))` forces this configuration (the manual
    /// override of [`Deployer::deploy_manual`]); `None` lets the deployer
    /// choose.
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

/// Occupancy and overlap counters of one [`DeployPipeline::run`].
///
/// Diagnostics only: for `depth ≥ 2` the counters depend on which runs
/// happen to still be executing when a selection is issued, so they may
/// vary between executions even though the *outcomes* never do.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PipelineStats {
    /// Jobs submitted.
    pub jobs: usize,
    /// Largest number of simultaneously in-flight runs observed.
    pub max_in_flight: usize,
    /// Mean number of in-flight runs, sampled at each completion wait.
    pub mean_in_flight: f64,
    /// Selections issued while at least one run was still in flight — the
    /// overlap the sequential loop forgoes.
    pub overlapped_selections: usize,
    /// Times the feedback-visibility rule stalled the next selection until
    /// in-flight records landed.
    pub stalled_selections: usize,
}

/// The pipelined deploy service. Generic over the [`Deployer`] backend;
/// see the module docs for the execution model.
pub struct DeployPipeline<D: Deployer> {
    deployer: D,
    depth: usize,
    stats: PipelineStats,
    /// Test-only fault injection: the job whose run thread panics.
    #[cfg(test)]
    panic_at: Option<usize>,
}

impl<D: Deployer> DeployPipeline<D> {
    /// Wraps a deployer in a pipeline holding up to `depth` runs in
    /// flight. `depth: 1` degenerates to the sequential loop.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] when `depth` is zero.
    pub fn new(deployer: D, depth: usize) -> Result<Self, CoreError> {
        if depth == 0 {
            return Err(CoreError::InvalidParameter("pipeline depth must be > 0"));
        }
        Ok(DeployPipeline {
            deployer,
            depth,
            stats: PipelineStats::default(),
            #[cfg(test)]
            panic_at: None,
        })
    }

    /// The configured in-flight bound.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Counters of the most recent [`DeployPipeline::run`].
    pub fn stats(&self) -> &PipelineStats {
        &self.stats
    }

    /// The wrapped deployer.
    pub fn deployer(&self) -> &D {
        &self.deployer
    }

    /// Test-only: make the run thread of `job` panic in the next
    /// [`DeployPipeline::run`].
    #[cfg(test)]
    fn with_panic_at(mut self, job: usize) -> Self {
        self.panic_at = Some(job);
        self
    }

    /// Unwraps the pipeline, returning the deployer (with everything it
    /// learned).
    pub fn into_deployer(self) -> D {
        self.deployer
    }

    /// Runs every job, overlapping selections with in-flight executions
    /// wherever the feedback-visibility rule allows, and returns the
    /// per-job outcomes in submission order.
    ///
    /// # Errors
    ///
    /// A selection failure (e.g. [`CoreError::NoFeasibleConfiguration`])
    /// stops issuing; already-issued runs still land and are recorded, so
    /// the deployer's knowledge matches the sequential loop's at the same
    /// failure point, then the error is returned. A cloud or record
    /// failure is returned as soon as its job would land. A run thread
    /// that panics (e.g. inside the cloud run) surfaces as
    /// [`CoreError::PipelineWorkerLost`] — never a hang, never a
    /// propagated panic. [`PipelineStats`] (including `mean_in_flight`)
    /// are finalized on every exit path, successful or not.
    pub fn run(&mut self, jobs: &[PipelineJob]) -> Result<Vec<DeployOutcome>, CoreError> {
        let n = jobs.len();
        let provider = self.deployer.provider_handle();
        let depth = self.depth;
        let mut outcomes: Vec<DeployOutcome> = Vec::with_capacity(n);
        let mut stats = PipelineStats {
            jobs: n,
            ..PipelineStats::default()
        };
        let mut issue_err: Option<CoreError> = None;
        #[cfg(test)]
        let panic_at = self.panic_at;

        let landed: Result<(), CoreError> = std::thread::scope(|scope| {
            // Issued runs, oldest first, each with the handle of the thread
            // executing it.
            let mut in_flight: VecDeque<(
                DeployDecision,
                ScopedJoinHandle<'_, Result<JobReport, CloudError>>,
            )> = VecDeque::new();
            let mut next_issue = 0usize;
            let mut occupancy_sum = 0usize;
            let mut occupancy_samples = 0usize;

            let mut land_all = || -> Result<(), CoreError> {
                while outcomes.len() < n {
                    // Fill: issue jobs while the depth bound and the
                    // feedback-visibility rule allow.
                    while issue_err.is_none() && next_issue < n && in_flight.len() < depth {
                        let job = &jobs[next_issue];
                        let pending: Vec<DeployDecision> =
                            in_flight.iter().map(|(d, _)| d.clone()).collect();
                        let decided = if let Some((instance, n_nodes)) = &job.forced {
                            self.deployer.begin_manual(instance, *n_nodes)
                        } else {
                            if !pending.is_empty() && !self.deployer.selection_ready(&pending) {
                                stats.stalled_selections += 1;
                                break;
                            }
                            if !pending.is_empty() {
                                stats.overlapped_selections += 1;
                            }
                            self.deployer.select(&job.profile, &pending)
                        };
                        let decision = match decided {
                            Ok(d) => d,
                            Err(e) => {
                                issue_err = Some(e);
                                break;
                            }
                        };
                        // Reserve the noise-stream slot only now: a failed
                        // selection must leave the run stream exactly where
                        // the sequential loop would.
                        let handle = provider.begin_job();
                        let instance = decision.instance.clone();
                        let n_nodes = decision.n_nodes;
                        let workload = &job.workload;
                        #[cfg(test)]
                        let idx = next_issue;
                        let run = scope.spawn(move || {
                            #[cfg(test)]
                            if panic_at == Some(idx) {
                                panic!("injected worker panic");
                            }
                            handle.execute(&instance, n_nodes, workload)
                        });
                        in_flight.push_back((decision, run));
                        next_issue += 1;
                    }

                    if in_flight.is_empty() {
                        // Nothing issued and nothing to land: only reachable
                        // after a selection error stopped the queue.
                        break;
                    }
                    stats.max_in_flight = stats.max_in_flight.max(in_flight.len());
                    occupancy_sum += in_flight.len();
                    occupancy_samples += 1;

                    // Complete: wait for the oldest in-flight run, then land
                    // it and every consecutive run that has finished too,
                    // feeding each record back before any later selection
                    // can observe it.
                    loop {
                        let (decision, run) = in_flight
                            .pop_front()
                            .expect("checked non-empty before each pass");
                        let job = outcomes.len();
                        // A run thread that panicked has no report: the
                        // provider's state is per reserved slot and the
                        // pipeline abandons the whole run, so nothing is
                        // left half-updated.
                        let report = run
                            .join()
                            .map_err(|_| CoreError::PipelineWorkerLost { job })??;
                        self.deployer
                            .record(&jobs[job].profile, &decision, &report)?;
                        outcomes.push(DeployOutcome {
                            mode: decision.mode,
                            predicted_secs: decision.predicted_secs,
                            report,
                        });
                        if !in_flight.front().is_some_and(|(_, run)| run.is_finished()) {
                            break;
                        }
                    }
                }
                Ok(())
            };
            let res = land_all();

            // An error abandons the runs still in flight; join them here so
            // that a panic in one of them is not raised again by the scope.
            for (_, run) in in_flight {
                let _ = run.join();
            }
            // Finalize occupancy on every exit path — cloud errors, record
            // failures and worker loss included — so `stats()` never
            // reports a zero mean alongside non-zero samples.
            if occupancy_samples > 0 {
                stats.mean_in_flight = occupancy_sum as f64 / occupancy_samples as f64;
            }
            res
        });

        self.stats = stats;
        landed?;
        match issue_err {
            Some(e) => Err(e),
            None => Ok(outcomes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::{DeployMode, DeployPolicy, ShardedDeployer, TransparentDeployer};
    use disar_cloudsim::{CloudProvider, InstanceCatalog};
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
        Workload::new(30.0 * contracts as f64, 0.02 * contracts as f64, 0.8 * contracts as f64, 0.05)
            .unwrap()
    }

    fn policy(retrain_every: usize) -> DeployPolicy {
        DeployPolicy::builder(50_000.0)
            .max_nodes(4)
            .min_kb_samples(8)
            .retrain_every(retrain_every)
            .n_threads(1)
            .build()
    }

    fn auto_jobs(n: usize) -> Vec<PipelineJob> {
        (0..n)
            .map(|i| {
                let c = 90 + i * 19;
                PipelineJob::auto(profile(c), workload(c))
            })
            .collect()
    }

    /// The pre-existing sequential loop, as a reference.
    fn sequential<D: Deployer>(mut d: D, jobs: &[PipelineJob]) -> (Vec<DeployOutcome>, D) {
        let outs = jobs
            .iter()
            .map(|j| match &j.forced {
                Some((instance, n_nodes)) => d
                    .deploy_manual(&j.profile, &j.workload, instance, *n_nodes)
                    .unwrap(),
                None => d.deploy(&j.profile, &j.workload).unwrap(),
            })
            .collect();
        (outs, d)
    }

    #[test]
    fn depth_zero_is_rejected() {
        let provider = CloudProvider::new(InstanceCatalog::paper_catalog(), 1);
        let d = TransparentDeployer::new(provider, policy(1), 1);
        assert!(DeployPipeline::new(d, 0).is_err());
    }

    #[test]
    fn empty_job_list_is_a_no_op() {
        let provider = CloudProvider::new(InstanceCatalog::paper_catalog(), 2);
        let d = TransparentDeployer::new(provider, policy(1), 2);
        let mut p = DeployPipeline::new(d, 4).unwrap();
        assert_eq!(p.run(&[]).unwrap(), Vec::new());
        assert_eq!(p.stats().jobs, 0);
    }

    #[test]
    fn depth_one_is_the_sequential_loop() {
        let jobs = auto_jobs(14);
        let mk = |seed| TransparentDeployer::new(
            CloudProvider::new(InstanceCatalog::paper_catalog(), seed),
            policy(1),
            seed,
        );
        let (seq_outs, seq_d) = sequential(mk(31), &jobs);
        let mut p = DeployPipeline::new(mk(31), 1).unwrap();
        let outs = p.run(&jobs).unwrap();
        assert_eq!(outs, seq_outs);
        assert_eq!(p.stats().overlapped_selections, 0);
        assert_eq!(p.stats().max_in_flight, 1);
        assert_eq!(
            p.into_deployer().knowledge_base(),
            seq_d.knowledge_base()
        );
    }

    #[test]
    fn deep_pipeline_is_bit_identical_to_sequential() {
        // retrain_every = 3 opens real overlap windows in the ML phase;
        // the bootstrap overlaps throughout.
        let jobs = auto_jobs(20);
        let mk = |seed| TransparentDeployer::new(
            CloudProvider::new(InstanceCatalog::paper_catalog(), seed),
            policy(3),
            seed,
        );
        let (seq_outs, seq_d) = sequential(mk(37), &jobs);
        for depth in [2usize, 4, 8] {
            let mut p = DeployPipeline::new(mk(37), depth).unwrap();
            let outs = p.run(&jobs).unwrap();
            assert_eq!(outs, seq_outs, "depth {depth} diverged");
            assert!(p.stats().max_in_flight <= depth);
            assert!(p.stats().overlapped_selections > 0, "no overlap at depth {depth}");
            assert_eq!(
                p.into_deployer().knowledge_base(),
                seq_d.knowledge_base(),
                "KB diverged at depth {depth}"
            );
        }
    }

    #[test]
    fn deep_pipeline_matches_sequential_on_sharded_backend() {
        let jobs = auto_jobs(24);
        let mk = |seed| ShardedDeployer::new(
            CloudProvider::new(InstanceCatalog::paper_catalog(), seed),
            policy(2),
            seed,
        );
        let (seq_outs, seq_d) = sequential(mk(41), &jobs);
        let mut p = DeployPipeline::new(mk(41), 4).unwrap();
        let outs = p.run(&jobs).unwrap();
        assert_eq!(outs, seq_outs);
        assert_eq!(p.into_deployer().knowledge_base(), seq_d.knowledge_base());
    }

    #[test]
    fn forced_jobs_replay_manual_deploys() {
        let names = InstanceCatalog::paper_catalog().names();
        let jobs: Vec<PipelineJob> = (0..12)
            .map(|i| {
                let c = 70 + i * 23;
                PipelineJob::forced(
                    profile(c),
                    workload(c),
                    &names[i % names.len()],
                    1 + i % 3,
                )
            })
            .collect();
        let mk = |seed| TransparentDeployer::new(
            CloudProvider::new(InstanceCatalog::paper_catalog(), seed),
            policy(1),
            seed,
        );
        let (seq_outs, seq_d) = sequential(mk(43), &jobs);
        assert!(seq_outs.iter().all(|o| o.mode == DeployMode::Manual));
        let mut p = DeployPipeline::new(mk(43), 6).unwrap();
        let outs = p.run(&jobs).unwrap();
        assert_eq!(outs, seq_outs);
        // Forced jobs never consult the predictor, so a full-depth overlap
        // is always legal.
        assert_eq!(p.stats().stalled_selections, 0);
        assert_eq!(p.stats().max_in_flight, 6);
        assert_eq!(p.into_deployer().knowledge_base(), seq_d.knowledge_base());
    }

    #[test]
    fn selection_error_lands_issued_runs_then_reports() {
        // An impossible deadline makes the first ML selection fail with
        // NoFeasibleConfiguration; every bootstrap run issued before it
        // must still land, leaving the KB exactly as the sequential loop's.
        let mk = |seed| {
            let policy = DeployPolicy::builder(1e-6)
                .epsilon(0.0)
                .max_nodes(4)
                .min_kb_samples(4)
                .n_threads(1)
                .build();
            TransparentDeployer::new(
                CloudProvider::new(InstanceCatalog::paper_catalog(), seed),
                policy,
                seed,
            )
        };
        let jobs = auto_jobs(10);
        let mut seq_d = mk(47);
        let mut seq_landed = 0;
        let seq_err = loop {
            match seq_d.deploy(&jobs[seq_landed].profile, &jobs[seq_landed].workload) {
                Ok(_) => seq_landed += 1,
                Err(e) => break e,
            }
        };
        assert!(matches!(seq_err, CoreError::NoFeasibleConfiguration { .. }));

        let mut p = DeployPipeline::new(mk(47), 3).unwrap();
        let err = p.run(&jobs).unwrap_err();
        assert!(matches!(err, CoreError::NoFeasibleConfiguration { .. }));
        assert_eq!(p.deployer().knowledge_base(), seq_d.knowledge_base());
        assert_eq!(p.deployer().kb_len(), seq_landed);
        // Stats are finalized on the error path too: non-zero occupancy
        // samples must never report a zero mean.
        let s = *p.stats();
        assert!(s.jobs > 0 && s.max_in_flight > 0);
        assert!(
            s.mean_in_flight > 0.0,
            "error path skipped mean_in_flight finalization: {s:?}"
        );
    }

    #[test]
    fn worker_panic_surfaces_as_pipeline_worker_lost() {
        // A worker that panics mid-run must neither hang run() nor
        // propagate the panic: joining its handle reports the job that
        // never delivered.
        let provider = CloudProvider::new(InstanceCatalog::paper_catalog(), 59);
        let d = TransparentDeployer::new(provider, policy(1), 59);
        let mut p = DeployPipeline::new(d, 3)
            .unwrap()
            .with_panic_at(4);
        let err = p.run(&auto_jobs(10)).unwrap_err();
        assert!(
            matches!(err, CoreError::PipelineWorkerLost { job: 4 }),
            "expected PipelineWorkerLost for job 4, got {err:?}"
        );
        // The stats of the aborted run are still finalized.
        let s = *p.stats();
        assert!(s.jobs == 10 && s.max_in_flight > 0 && s.mean_in_flight > 0.0);
    }

    #[test]
    fn cloud_error_path_still_finalizes_stats() {
        // A forced job on an unknown instance passes selection (manual
        // overrides are not validated against the catalog) and fails in
        // the cloud run — the early `res?` exit that used to skip stats
        // finalization.
        let provider = CloudProvider::new(InstanceCatalog::paper_catalog(), 67);
        let d = TransparentDeployer::new(provider, policy(1), 67);
        let mut p = DeployPipeline::new(d, 3).unwrap();
        let mut jobs = auto_jobs(6);
        jobs[3] = PipelineJob::forced(profile(120), workload(120), "no-such-instance", 1);
        let err = p.run(&jobs).unwrap_err();
        assert!(matches!(err, CoreError::Cloud(_)), "got {err:?}");
        let s = *p.stats();
        assert!(s.jobs > 0 && s.max_in_flight > 0);
        assert!(
            s.mean_in_flight > 0.0,
            "cloud-error path skipped mean_in_flight finalization: {s:?}"
        );
    }

    #[test]
    fn stats_report_the_configured_shape() {
        let jobs = auto_jobs(9);
        let provider = CloudProvider::new(InstanceCatalog::paper_catalog(), 53);
        let d = TransparentDeployer::new(provider, policy(1), 53);
        let mut p = DeployPipeline::new(d, 3).unwrap();
        p.run(&jobs).unwrap();
        let s = *p.stats();
        assert_eq!(s.jobs, 9);
        assert!(s.max_in_flight >= 1 && s.max_in_flight <= 3);
        assert!(s.mean_in_flight >= 1.0 && s.mean_in_flight <= 3.0);
    }
}
