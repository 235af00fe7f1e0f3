//! The only file that names items of the repository's crates.
//!
//! Every other module works on the plain types declared here, so a change
//! to the program's API is met in one place. README.md lists the public
//! items this file touches; a PR that changes one of them needs a benchmark
//! PR first. Policies come from `DeployPolicy::builder`, deployers are driven
//! through the `Deployer` trait, and `n_threads` is never set: the program
//! sizes its fan-outs from the CPUs it may use, which is one under `run.sh`'s
//! pin and all of them with `--no-pin`.

use crate::jobs::Job;
use disar_actuarial::engine::ActuarialEngine;
use disar_actuarial::lapse::DurationLapse;
use disar_actuarial::mortality::LifeTable;
use disar_actuarial::portfolio::PortfolioSpec;
use disar_alm::liability::LiabilityPosition;
use disar_alm::nested::NestedMonteCarlo;
use disar_alm::{SegregatedFund, ValuationWorkspace};
use disar_cloudsim::{CloudProvider, InstanceCatalog, Workload};
use disar_core::deploy::{DeployPolicy, Deployer, ShardedDeployer, TransparentDeployer};
use disar_core::{
    select_configuration_with_workspace, CoreError, DeployMode, DeployOutcome, DeployService,
    GridScratch, JobProfile, KnowledgeBase, PipelineJob, PredictorFamily, RetrainMode,
    SelectionWorkspace, ServiceConfig, TenantId, TenantShardedDeployer, TimeEstimate,
    TimePredictor,
};
use disar_engine::simulation::{MarketModel, SimulationSpec, DEFAULT_LANE};
use disar_engine::{DisarMaster, EebCharacteristics, EebKind};
use disar_math::parallel::{default_n_threads, parallel_map};
use disar_math::rng::{stream_rng, StandardNormal};
use disar_ml::{Dataset, FeatureMatrix, ModelKind, PredictScratch};
use disar_stochastic::scenario::{Measure, ScenarioBuffer};
use std::hint::black_box;
use std::path::Path;
use std::sync::LazyLock;
use std::time::Instant;

/// The Solvency II deadline every deploy workload runs under.
pub const T_MAX_SECS: f64 = 2_000.0;

pub type Res<T> = Result<T, String>;

fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn profile(job: &Job) -> JobProfile {
    JobProfile {
        characteristics: EebCharacteristics {
            representative_contracts: job.contracts,
            max_horizon: job.horizon,
            fund_assets: 40,
            risk_factors: 2,
        },
        n_outer: 1000,
        n_inner: 50,
    }
}

fn workload(job: &Job) -> Workload {
    let contracts = job.contracts as f64;
    Workload::new(
        0.12 * contracts * f64::from(job.horizon),
        0.02 * contracts,
        0.8 * contracts,
        0.05,
    )
    .expect("job sizes are positive")
}

static PAPER_CATALOG: LazyLock<InstanceCatalog> = LazyLock::new(InstanceCatalog::paper_catalog);

/// `(name, hourly cost)` of every instance type, in catalog order.
pub fn catalog() -> &'static [(String, f64)] {
    static LISTED: LazyLock<Vec<(String, f64)>> = LazyLock::new(|| {
        PAPER_CATALOG
            .iter()
            .map(|i| (i.name.clone(), i.hourly_cost))
            .collect()
    });
    &LISTED
}

/// What one deploy produced, as far as the harness looks at it.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub instance: String,
    pub nodes: usize,
    /// Simulated (virtual) run time; never part of a wall-clock metric.
    pub duration_secs: f64,
    pub prorated_cost: f64,
    /// `Some` when Algorithm 1 chose the configuration.
    pub predicted_secs: Option<f64>,
    pub explored: bool,
}

impl From<DeployOutcome> for Outcome {
    fn from(o: DeployOutcome) -> Self {
        Outcome {
            instance: o.report.instance,
            nodes: o.report.n_nodes,
            duration_secs: o.report.duration_secs,
            prorated_cost: o.report.prorated_cost,
            predicted_secs: o.predicted_secs,
            explored: o.mode == DeployMode::MlExplored,
        }
    }
}

/// Wall-clock boundaries of one deploy: before `select`, before `run_job`,
/// before `record`, after `record`.
#[derive(Debug, Clone, Copy)]
pub struct Stamps(pub [Instant; 4]);

fn deploy_timed(d: &mut dyn Deployer, job: &Job) -> Result<(Outcome, Stamps), CoreError> {
    let (profile, workload) = (profile(job), workload(job));
    let t0 = Instant::now();
    let decision = d.select(&profile, &[])?;
    let t1 = Instant::now();
    let report = d
        .provider()
        .run_job(&decision.instance, decision.n_nodes, &workload)?;
    let t2 = Instant::now();
    d.record(&profile, &decision, &report)?;
    let t3 = Instant::now();
    let outcome = DeployOutcome {
        mode: decision.mode,
        predicted_secs: decision.predicted_secs,
        report,
    };
    Ok((outcome.into(), Stamps([t0, t1, t2, t3])))
}

/// A sequential deployer under one of the three policies the workloads use.
pub enum Backend {
    Paper(TransparentDeployer),
    Wide(ShardedDeployer),
    Solo(TenantShardedDeployer),
}

/// One forced run used to pre-seed a knowledge base.
#[derive(Debug, Clone, Copy)]
pub struct SeedingRun {
    pub job: Job,
    /// Index into [`catalog`].
    pub instance: usize,
    pub nodes: usize,
}

pub const WIDE_MAX_NODES: usize = 64;
/// One retrain per 40-deploy episode: retraining is almost absent, not absent.
pub const WIDE_RETRAIN_EVERY: usize = 25;
pub const TENANT_MIN_KB_SAMPLES: usize = 12;

fn provider(seed: u64) -> CloudProvider {
    CloudProvider::new(PAPER_CATALOG.clone(), seed)
}

fn tenant_policy() -> DeployPolicy {
    DeployPolicy::builder(T_MAX_SECS)
        .min_kb_samples(TENANT_MIN_KB_SAMPLES)
        .build()
}

/// The largest per-instance shard of a set of records: what a sharded
/// backend actually fits its families on.
fn largest_shard(all: &KnowledgeBase) -> KnowledgeBase {
    catalog()
        .iter()
        .map(|(name, _)| all.for_instance(name))
        .max_by_key(KnowledgeBase::len)
        .unwrap_or_default()
}

impl Backend {
    /// The paper's literal loop: fresh knowledge base, `paper_defaults`.
    pub fn paper(seed: u64) -> Backend {
        let policy = DeployPolicy::builder(T_MAX_SECS).build();
        Backend::Paper(TransparentDeployer::new(provider(seed), policy, seed))
    }

    /// A sharded deployer over a knowledge base pre-seeded with forced runs
    /// (through a deployer that never retrains), then warmed.
    pub fn wide(seed: u64, seeding: &[SeedingRun]) -> Res<Backend> {
        let names = catalog();
        let no_retrain = DeployPolicy::builder(T_MAX_SECS)
            .max_nodes(WIDE_MAX_NODES)
            .retrain_every(usize::MAX)
            .build();
        let mut seeder = ShardedDeployer::new(provider(seed ^ 0x5EED), no_retrain, seed);
        for run in seeding {
            Deployer::deploy_manual(
                &mut seeder,
                &profile(&run.job),
                &workload(&run.job),
                &names[run.instance].0,
                run.nodes,
            )
            .map_err(err)?;
        }
        let policy = DeployPolicy::builder(T_MAX_SECS)
            .max_nodes(WIDE_MAX_NODES)
            .retrain_every(WIDE_RETRAIN_EVERY)
            .build();
        let mut deployer = ShardedDeployer::new(provider(seed), policy, seed)
            .with_knowledge_base(seeder.into_knowledge_base());
        Deployer::warm(&mut deployer).map_err(err)?;
        Ok(Backend::Wide(deployer))
    }

    /// The solo deployer a service tenant registered with `seed` must equal.
    pub fn solo(seed: u64, tenant: &str) -> Backend {
        Backend::Solo(
            TenantShardedDeployer::new(provider(seed), tenant_policy(), seed)
                .with_tenant(TenantId::new(tenant)),
        )
    }

    fn deployer(&self) -> &dyn Deployer {
        match self {
            Backend::Paper(d) => d,
            Backend::Wide(d) => d,
            Backend::Solo(d) => d,
        }
    }

    pub fn deploy(&mut self, job: &Job) -> Res<(Outcome, Stamps)> {
        let deployer: &mut dyn Deployer = match self {
            Backend::Paper(d) => d,
            Backend::Wide(d) => d,
            Backend::Solo(d) => d,
        };
        deploy_timed(deployer, job).map_err(err)
    }

    fn policy(&self) -> &DeployPolicy {
        self.deployer().policy()
    }

    pub fn max_nodes(&self) -> usize {
        self.policy().max_nodes
    }

    pub fn kb_len(&self) -> usize {
        self.deployer().kb_len()
    }

    /// Rows the predictors are currently trained on, summed over families.
    /// It changes exactly when a `record` retrained something.
    pub fn trained_rows(&self) -> usize {
        let names = catalog();
        match self {
            Backend::Paper(d) => d.family().trained_on(),
            Backend::Wide(d) => names
                .iter()
                .filter_map(|(n, _)| d.predictor().family(n))
                .map(PredictorFamily::trained_on)
                .sum(),
            Backend::Solo(d) => names
                .iter()
                .filter_map(|(n, _)| d.predictor().local_family(n, d.tenant()))
                .map(PredictorFamily::trained_on)
                .sum(),
        }
    }

    fn with_predictor<R>(&self, f: impl FnOnce(&dyn TimePredictor) -> R) -> R {
        match self {
            Backend::Paper(d) => f(d.family()),
            Backend::Wide(d) => f(d.predictor()),
            Backend::Solo(d) => f(&d
                .predictor()
                .view(d.tenant(), d.knowledge_base().local_lens(d.tenant()))),
        }
    }

    /// Every member's prediction for one `(instance, nodes)` cell, through
    /// the scalar `predict_each` path the reference Algorithm 1 is built on.
    pub fn predict_each(&self, job: &Job, instance: &str, nodes: usize) -> Res<Vec<f64>> {
        let inst = PAPER_CATALOG.get(instance).map_err(err)?;
        self.with_predictor(|p| p.predict_each(&profile(job), inst, nodes))
            .map(|each| each.into_iter().map(|(_, t)| t).collect())
            .map_err(err)
    }

    /// The program's Algorithm 1 with exploration off: the chosen
    /// `(instance, nodes)` and the number of feasible cells.
    pub fn fast_select(&self, job: &Job, seed: u64) -> Res<(String, usize, usize)> {
        let policy = self.policy();
        let mut ws = SelectionWorkspace::new();
        let selection = self
            .with_predictor(|p| {
                select_configuration_with_workspace(
                    p,
                    &PAPER_CATALOG,
                    &profile(job),
                    policy.t_max_secs,
                    policy.max_nodes,
                    0.0,
                    seed,
                    TimeEstimate::EnsembleMean,
                    policy.n_threads,
                    &mut ws,
                )
            })
            .map_err(err)?;
        Ok((
            selection.chosen.instance,
            selection.chosen.n_nodes,
            selection.feasible.len(),
        ))
    }

    /// Wall time of the batched `predict_grid` sweep over the whole
    /// `(instance, nodes)` grid for one job, warm scratch.
    pub fn probe_predict_grid_ns_per_cell(&self, job: &Job, reps: usize) -> Res<f64> {
        let catalog = &*PAPER_CATALOG;
        let nodes: Vec<usize> = (1..=self.max_nodes()).collect();
        let (mut out, mut scratch) = (Vec::new(), GridScratch::new());
        let profile = profile(job);
        self.with_predictor(|p| {
            let mut sweep = || -> Result<(), CoreError> {
                for inst in catalog.iter() {
                    p.predict_grid(&profile, inst, &nodes, &mut out, &mut scratch)?;
                    black_box(&out);
                }
                Ok(())
            };
            sweep()?;
            let t = Instant::now();
            for _ in 0..reps {
                sweep()?;
            }
            Ok(secs_since(t) * 1e9 / (reps * catalog.len() * nodes.len()) as f64)
        })
        .map_err(|e: CoreError| err(e))
    }

    /// `save` must never be a silent no-op: it either fails with a typed
    /// error (the std-only stand-ins cannot serialize) or leaves a file.
    /// Returns whether persistence is available in this build.
    pub fn persistence_available(&self, scratch_file: &Path) -> Res<bool> {
        let _ = std::fs::remove_file(scratch_file);
        let saved = match self {
            Backend::Paper(d) => d.knowledge_base().save(scratch_file),
            Backend::Wide(d) => d.knowledge_base().save(scratch_file),
            Backend::Solo(d) => d.knowledge_base().save(scratch_file),
        };
        let exists = scratch_file.exists();
        let _ = std::fs::remove_file(scratch_file);
        match (saved, exists) {
            (Err(_), _) => Ok(false),
            (Ok(()), true) => Ok(true),
            (Ok(()), false) => Err("KnowledgeBase::save returned Ok and wrote nothing".into()),
        }
    }

    /// The records the `ml` and retrain probes run on: the whole base for the
    /// monolithic backend, the largest shard for the sharded ones.
    pub fn probe_records(&self) -> KbProbe {
        KbProbe(match self {
            Backend::Paper(d) => d.knowledge_base().clone(),
            Backend::Wide(d) => largest_shard(&d.knowledge_base().to_monolithic()),
            Backend::Solo(d) => largest_shard(&d.knowledge_base().to_monolithic()),
        })
    }
}

/// Cheapest prorated cost, over the whole grid, of a configuration whose
/// noise-free duration meets the deadline: the simulator's oracle.
pub fn oracle_cheapest_cost(job: &Job, max_nodes: usize) -> Res<Option<f64>> {
    static ORACLE: LazyLock<CloudProvider> = LazyLock::new(|| provider(0));
    let oracle = &*ORACLE;
    let wl = workload(job);
    let mut best: Option<f64> = None;
    for (name, _) in catalog() {
        for n in 1..=max_nodes {
            let plan = oracle.oracle_plan(name, n, &wl, 0).map_err(err)?;
            if plan.duration_secs <= T_MAX_SECS && best.is_none_or(|b| plan.prorated_cost < b) {
                best = Some(plan.prorated_cost);
            }
        }
    }
    Ok(best)
}

/// A knowledge base frozen for the per-layer probes.
pub struct KbProbe(KnowledgeBase);

fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, secs_since(t) * 1e3)
}

fn short_name(kind: ModelKind) -> &'static str {
    match kind {
        ModelKind::Mlp => "mlp",
        ModelKind::RandomTree => "rt",
        ModelKind::RandomForest => "rf",
        ModelKind::IbK => "ibk",
        ModelKind::KStar => "kstar",
        ModelKind::DecisionTable => "dt",
    }
}

impl KbProbe {
    pub fn rows(&self) -> usize {
        self.0.len()
    }

    fn prefix(&self, len: usize) -> KnowledgeBase {
        let mut kb = KnowledgeBase::new();
        for r in &self.0.records()[..len] {
            kb.record(r.clone());
        }
        kb
    }

    /// `(full, incremental)` wall of `PredictorFamily::retrain` in ms: a
    /// from-scratch fit of all records, and the retrain after appending the
    /// last record to a family trained on the rest.
    pub fn retrain_ms(&self, seed: u64) -> Res<(f64, f64)> {
        let n = self.0.len();
        let threads = default_n_threads();
        let mut family = PredictorFamily::new(seed, 2);
        let (full, full_ms) = time_ms(|| family.retrain(&self.0, RetrainMode::Full, threads));
        full.map_err(err)?;
        let mut family = PredictorFamily::new(seed, 2);
        family
            .retrain(&self.prefix(n - 1), RetrainMode::Full, threads)
            .map_err(err)?;
        let (inc, inc_ms) = time_ms(|| family.retrain(&self.0, RetrainMode::Incremental, threads));
        inc.map_err(err)?;
        Ok((full_ms, inc_ms))
    }

    /// Per member (built as `default_family` builds it): `fit` wall in ms,
    /// `predict_batch` ns per row over the training rows and, for members
    /// that support it, `partial_fit` of the last row in µs.
    pub fn member_costs(&self, seed: u64) -> Res<Vec<(String, f64)>> {
        let data = self.0.to_dataset().map_err(err)?;
        let n = data.len();
        let mut head = Dataset::new(data.feature_names().to_vec());
        for i in 0..n - 1 {
            let (x, y) = data.get(i);
            head.push(x.to_vec(), y).map_err(err)?;
        }
        let mut xs = FeatureMatrix::with_capacity(n, data.dim());
        for row in data.rows() {
            xs.push_row(row);
        }
        let mut out = vec![0.0; n];
        let mut scratch = PredictScratch::default();
        let mut metrics = Vec::new();
        for kind in ModelKind::ALL {
            let name = short_name(kind);
            let mut model = kind.instantiate(seed);
            let (fit, fit_ms) = time_ms(|| model.fit(&data));
            fit.map_err(err)?;
            metrics.push((format!("ml.fit_ms.{name}"), fit_ms));

            model
                .predict_batch(&xs, &mut out, &mut scratch)
                .map_err(err)?;
            let reps = 5;
            let t = Instant::now();
            for _ in 0..reps {
                model
                    .predict_batch(&xs, &mut out, &mut scratch)
                    .map_err(err)?;
                black_box(&out);
            }
            metrics.push((
                format!("ml.predict_batch_ns_per_row.{name}"),
                secs_since(t) * 1e9 / (reps * n) as f64,
            ));

            if matches!(kind, ModelKind::IbK | ModelKind::KStar) {
                let mut model = kind.instantiate(seed);
                model.fit(&head).map_err(err)?;
                let inc = model
                    .as_incremental()
                    .ok_or_else(|| format!("{name} is not incremental"))?;
                let (fit, ms) = time_ms(|| inc.partial_fit(&data, n - 1));
                fit.map_err(err)?;
                metrics.push((format!("ml.partial_fit_us.{name}"), ms * 1e3));
            }
        }
        Ok(metrics)
    }
}

/// Cost in µs of fanning a trivial map of `items` out over two threads,
/// beyond running it on one: what `parallel_map` pays to spawn and join.
pub fn probe_parallel_map_spawn_us(items: usize, reps: usize) -> f64 {
    let run = |threads: usize| {
        let t = Instant::now();
        for _ in 0..reps {
            black_box(parallel_map(items, threads, |i| black_box(i) + 1));
        }
        secs_since(t) * 1e6 / reps as f64
    };
    run(2);
    run(2) - run(1)
}

// ---------------------------------------------------------------- service

pub const SERVICE_DEPTH: usize = 4;
pub const SERVICE_BATCH_MAX: usize = 32;

pub fn tenant_name(index: usize) -> String {
    format!("tenant-{index}")
}

/// A service with every tenant registered and every job already queued.
pub struct QueuedService {
    service: DeployService,
    handles: Vec<disar_core::TenantHandle>,
}

/// Counters of one finished service run.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceCounters {
    pub ingest_batches: usize,
    pub retrains: usize,
    pub max_queue_depth: usize,
    pub rejected: usize,
    pub snapshot_generation: u64,
    pub overlapped: usize,
    pub stalled: usize,
    pub mean_in_flight: f64,
    pub kb_len: usize,
}

pub struct ServiceRun {
    /// Per tenant, in registration order.
    pub outcomes: Vec<Vec<Outcome>>,
    /// Seconds from `start()` to each tenant's `finish()` returning.
    pub tenant_done_secs: Vec<f64>,
    /// Seconds from `start()` to the last `finish()`.
    pub wall_secs: f64,
    pub counters: ServiceCounters,
    pub start: Instant,
    pub end: Instant,
}

impl QueuedService {
    /// Builds the service and queues `schedules[t]` for tenant `t` (seeded
    /// `tenant_seeds[t]`). The queues hold a whole schedule, so nothing is
    /// submitted while the service runs.
    pub fn new(tenant_seeds: &[u64], schedules: &[Vec<Job>]) -> Res<QueuedService> {
        let config = ServiceConfig {
            depth: SERVICE_DEPTH,
            queue_capacity: schedules.iter().map(Vec::len).max().unwrap_or(0) + 1,
            batch_max: SERVICE_BATCH_MAX,
        };
        let mut service =
            DeployService::new(PAPER_CATALOG.clone(), tenant_policy(), config).map_err(err)?;
        let mut handles = Vec::new();
        for (t, (seed, schedule)) in tenant_seeds.iter().zip(schedules).enumerate() {
            let handle = service
                .register(TenantId::new(tenant_name(t)), *seed)
                .map_err(err)?;
            for job in schedule {
                handle
                    .submit(PipelineJob::auto(profile(job), workload(job)))
                    .map_err(err)?;
            }
            handles.push(handle);
        }
        Ok(QueuedService { service, handles })
    }

    /// Starts the service and waits for every tenant. One waiting thread per
    /// handle, so each tenant's completion is stamped when it happens.
    pub fn run(self) -> Res<ServiceRun> {
        let QueuedService {
            mut service,
            handles,
        } = self;
        let start = Instant::now();
        service.start().map_err(err)?;
        let finished: Vec<Result<_, CoreError>> = std::thread::scope(|s| {
            let waiters: Vec<_> = handles
                .into_iter()
                .map(|h| s.spawn(move || h.finish().map(|run| (run, secs_since(start)))))
                .collect();
            waiters
                .into_iter()
                .map(|w| w.join().expect("waiting thread panicked"))
                .collect()
        });
        let end = Instant::now();
        let kb_len = service.export_knowledge_base().len();
        let stats = service.join().map_err(err)?;
        let mut run = ServiceRun {
            outcomes: Vec::new(),
            tenant_done_secs: Vec::new(),
            wall_secs: (end - start).as_secs_f64(),
            counters: ServiceCounters {
                ingest_batches: stats.ingest_batches,
                retrains: stats.retrains,
                max_queue_depth: stats.max_queue_depth,
                rejected: stats.rejected,
                snapshot_generation: stats.snapshot_generation,
                overlapped: stats.pipeline.overlapped_selections,
                stalled: stats.pipeline.stalled_selections,
                mean_in_flight: stats.pipeline.mean_in_flight,
                kb_len,
            },
            start,
            end,
        };
        for tenant in finished {
            let (tenant_run, done) = tenant.map_err(err)?;
            run.outcomes
                .push(tenant_run.outcomes.into_iter().map(Outcome::from).collect());
            run.tenant_done_secs.push(done);
        }
        Ok(run)
    }
}

// -------------------------------------------------------------- valuation

pub const VALUATION_POLICIES: usize = 400;
/// Terms up to 40 years and no whole-life product: the longest policy, and
/// with it the inner scenario horizon, is 40 years, as for the largest
/// generated job. (A whole-life policy would stretch it to about 80 years and
/// one valuation past the run's budget.)
pub const VALUATION_TERM_RANGE: (u32, u32) = (5, 40);
pub const VALUATION_AGE_RANGE: (u32, u32) = (30, 60);
pub const VALUATION_PRODUCT_WEIGHTS: (f64, f64, f64, f64) = (0.25, 0.55, 0.20, 0.0);
/// The portfolio is the same company for every seed, so that every run does
/// the same amount of work; `--seed` drives the Monte Carlo streams.
pub const VALUATION_PORTFOLIO_SEED: u64 = 20_160_627;
/// A 200-path outer stage instead of the paper's 1000: a valuation then
/// takes well under a second, so five pairs of them fit in a run.
pub const VALUATION_N_OUTER: usize = 200;
pub const VALUATION_N_INNER: usize = 50;
pub const VALUATION_STEPS_PER_YEAR: usize = 4;

/// The computation the paper ships to the cloud, set up for local runs.
pub struct Valuation {
    master: DisarMaster,
}

/// The figures of one valuation, compared bit for bit by the gate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValuationFigures {
    pub scr: f64,
    pub bel: f64,
    pub mean_y1: f64,
    pub var_quantile: f64,
    pub n_type_b: usize,
}

impl Valuation {
    pub fn new(seed: u64, n_outer: usize) -> Res<Valuation> {
        let portfolio = PortfolioSpec {
            n_policies: VALUATION_POLICIES,
            term_range: VALUATION_TERM_RANGE,
            age_range: VALUATION_AGE_RANGE,
            product_weights: VALUATION_PRODUCT_WEIGHTS,
            ..PortfolioSpec::default()
        }
        .generate("benchmark-co", VALUATION_PORTFOLIO_SEED)
        .map_err(err)?;
        let spec = SimulationSpec {
            portfolio,
            fund: SegregatedFund::italian_typical(30),
            market: MarketModel::RatesEquity,
            n_outer,
            n_inner: VALUATION_N_INNER,
            steps_per_year: VALUATION_STEPS_PER_YEAR,
            seed,
            lane: DEFAULT_LANE,
        };
        Ok(Valuation {
            master: DisarMaster::new(spec).map_err(err)?,
        })
    }

    pub fn run_local(&self, threads: usize) -> Res<(ValuationFigures, [Instant; 2])> {
        let t0 = Instant::now();
        let out = self.master.run_local(threads).map_err(err)?;
        let t1 = Instant::now();
        Ok((
            ValuationFigures {
                scr: out.scr,
                bel: out.bel,
                mean_y1: out.mean_y1,
                var_quantile: out.var_quantile,
                n_type_b: out.n_type_b,
            },
            [t0, t1],
        ))
    }

    /// Per-layer probes under the valuation, as `(metric, value)`.
    pub fn layer_probes(&self) -> Res<Vec<(String, f64)>> {
        let spec = self.master.spec();
        let mut metrics = Vec::new();

        let (eebs, decompose_ms) = time_ms(|| self.master.eebs());
        let eebs = eebs.map_err(err)?;
        metrics.push(("engine.decompose_ms".to_string(), decompose_ms));

        let mut normals = vec![0.0; 1_000_000];
        let mut rng = stream_rng(spec.seed, 0);
        let ((), fill_ms) = time_ms(|| StandardNormal::new().fill(&mut rng, &mut normals));
        black_box(&normals);
        metrics.push((
            "math.normal_fill_ns_per_sample".to_string(),
            fill_ms * 1e6 / normals.len() as f64,
        ));

        let horizon = self
            .master
            .characteristics()
            .map_err(err)?
            .max_horizon
            .max(1);
        let inner_gen = spec
            .market
            .build_generator(f64::from(horizon), spec.steps_per_year)
            .map_err(err)?;
        let outer_gen = spec
            .market
            .build_generator(1.0, spec.steps_per_year)
            .map_err(err)?;
        let paths = 4_000;
        let mut buf = ScenarioBuffer::new();
        buf.reserve_for(&inner_gen, paths);
        let (filled, generate_ms) = time_ms(|| {
            inner_gen.generate_into(Measure::RiskNeutral, paths, spec.seed, None, &mut buf)
        });
        filled.map_err(err)?;
        let path_steps = (paths * inner_gen.grid().n_steps()) as f64;
        metrics.push(("stochastic.path_steps".to_string(), path_steps));
        metrics.push((
            "stochastic.generate_ns_per_path_step".to_string(),
            generate_ms * 1e6 / path_steps,
        ));

        let table = LifeTable::italian_population();
        let lapse = DurationLapse::italian_typical();
        let actuarial = ActuarialEngine::new(&table, &lapse);
        let block = eebs
            .iter()
            .find(|e| e.kind == EebKind::AlmValuation)
            .ok_or("no type-B block")?;
        let (positions, schedule_ms) = time_ms(|| {
            block
                .model_points
                .iter()
                .map(|mp| {
                    Ok(LiabilityPosition {
                        schedule: actuarial.cash_flow_schedule(mp).map_err(err)?,
                        profit_sharing: mp.contract.profit_sharing,
                    })
                })
                .collect::<Res<Vec<_>>>()
        });
        let positions = positions?;
        metrics.push((
            "actuarial.schedule_us_per_model_point".to_string(),
            schedule_ms * 1e3 / positions.len() as f64,
        ));

        // One block's nested run at a tenth of the outer paths: long enough
        // to time, short enough to leave the run's budget alone.
        let mut config = spec.nested_config();
        config.n_outer = (spec.n_outer / 10).max(1);
        let nested = NestedMonteCarlo::new(
            &outer_gen,
            &inner_gen,
            &spec.fund,
            spec.market.equity_driver(),
            spec.market.rate_driver(),
        )
        .map_err(err)?;
        let mut ws = ValuationWorkspace::new();
        let (result, nested_ms) =
            time_ms(|| nested.run_with_workspace(&positions, &config, &mut ws));
        black_box(result.map_err(err)?);
        let inner_paths = (config.n_outer * config.n_inner) as f64;
        metrics.push(("alm.inner_paths".to_string(), inner_paths));
        metrics.push((
            "alm.nested_ns_per_inner_path".to_string(),
            nested_ms * 1e6 / inner_paths,
        ));
        Ok(metrics)
    }
}
