//! Every table/figure of the paper's §IV plus the ablations DESIGN.md calls
//! out. Each artifact is one plain `pub fn` returning its typed result (for
//! example [`table2`]), and one driver turns it into a row, together with
//! the artifacts read off the same runs: `fig2`'s row carries Figure 3 and
//! the ensemble ablation, `table2`'s Figure 4.
//!
//! [`EXPERIMENTS`] is a table of `(name, driver)` pairs, and [`by_name`]
//! looks a driver up. A [`Driver`] is a plain `fn(&ExperimentCtx) ->
//! RegistryRow`: it returns one replayable [`RegistryRow`] whose `input_hash` digests the
//! driver's name, the row's `params`, the job list and (where consumed) the
//! knowledge base's records ([`input_hash`]) — the contract `runbook`
//! replays against (DESIGN.md §13).

use crate::campaign::{build_knowledge_base, paper_eeb_jobs, CampaignConfig, EebJob, Oracle};
use crate::registry::{json_hash, RegistryRow};
use disar_actuarial::contracts::{Contract, ProductKind, ProfitSharing};
use disar_actuarial::engine::ActuarialEngine;
use disar_actuarial::lapse::DurationLapse;
use disar_actuarial::model_points::ModelPoint;
use disar_actuarial::mortality::{Gender, LifeTable};
use disar_alm::liability::LiabilityPosition;
use disar_alm::lsmc::{Lsmc, LsmcConfig};
use disar_alm::nested::{NestedConfig, NestedMonteCarlo};
use disar_alm::SegregatedFund;
use disar_cloudsim::{CloudProvider, DriftModel, InstanceCatalog};
use disar_core::deploy::{DeployPolicy, Deployer, ShardedDeployer, TransparentDeployer};
use disar_core::{
    select_configuration, select_configuration_with_workspace, CoreError, DeployMode,
    KnowledgeBase, PredictorFamily, RetrainMode, RunRecord, SelectionWorkspace, TenantId,
    TimeEstimate,
};
use disar_math::json::Json;
use disar_math::parallel::{default_n_threads, parallel_map};
use disar_math::rng::stream_rng;
use disar_math::stats;
use disar_ml::metrics::evaluate;
use disar_ml::regressor::ModelKind;
use disar_ml::Regressor;
use disar_stochastic::scenario::TimeGrid;
use disar_stochastic::{drivers, CorrelationMatrix};
use std::time::Instant;

/// The 40 %/60 % train/test split of Table I.
pub const TABLE1_TRAIN_FRACTION: f64 = 0.4;

/// Everything a driver needs: the campaign configuration (which
/// seeds the knowledge base, the provider noise streams, and every model
/// fit) plus the quick-mode flag that shrinks the slow deploy loops.
#[derive(Debug, Clone)]
pub struct ExperimentCtx {
    /// Campaign configuration shared by every experiment.
    pub cfg: CampaignConfig,
    /// Shrink the self-optimizing loops to CI-sized runs.
    pub quick: bool,
}

impl ExperimentCtx {
    /// Builds a context.
    pub fn new(cfg: CampaignConfig, quick: bool) -> Self {
        Self { cfg, quick }
    }

    /// Builds the campaign knowledge base, provider, and job list afresh.
    /// Replay determinism requires every driver to start from the same
    /// provider noise-stream position, so nothing is cached or shared.
    pub fn campaign(&self) -> (KnowledgeBase, CloudProvider, Vec<EebJob>) {
        build_knowledge_base(&self.cfg)
    }

    /// The paper's EEB jobs under this campaign's Monte Carlo sizes.
    pub fn jobs(&self) -> Vec<EebJob> {
        paper_eeb_jobs(&self.cfg)
    }

    /// The replayable parameter object recorded on every row; inverted by
    /// [`ExperimentCtx::from_params`].
    pub fn params(&self) -> Json {
        let campaign = Json::obj([
            ("n_runs", self.cfg.n_runs.into()),
            ("n_outer", self.cfg.n_outer.into()),
            ("n_inner", self.cfg.n_inner.into()),
            ("max_nodes", self.cfg.max_nodes.into()),
            ("seed", self.cfg.seed.into()),
        ]);
        Json::obj([("campaign", campaign), ("quick", self.quick.into())])
    }

    /// Rebuilds a context from a recorded row's `params`; `None` when the
    /// row was written by something other than an experiment driver.
    pub fn from_params(params: &Json) -> Option<Self> {
        let c = params.at("campaign").ok()?;
        let get = |k: &str| c.uint_at::<u64>(k).ok();
        let cfg = CampaignConfig {
            n_runs: get("n_runs")? as usize,
            n_outer: get("n_outer")? as usize,
            n_inner: get("n_inner")? as usize,
            max_nodes: get("max_nodes")? as usize,
            seed: get("seed")?,
        };
        let quick = params.at("quick") == Ok(&Json::Bool(true));
        Some(Self { cfg, quick })
    }
}

/// The input digest of a driver's row: [`json_hash`] of one object holding
/// the driver's name, the row's `params` (campaign config, quick flag and
/// the driver's own extras), the job list, and the knowledge base's records
/// in arrival order — `null` when the driver reads no base.
pub fn input_hash(
    experiment: &str,
    params: &Json,
    jobs: &[EebJob],
    kb: Option<&KnowledgeBase>,
) -> u64 {
    let kb = kb.map_or(Json::Null, |kb| {
        Json::arr(kb.records().iter().map(RunRecord::to_json))
    });
    json_hash(&Json::obj([
        ("experiment", experiment.into()),
        ("params", params.clone()),
        ("jobs", Json::arr(jobs.iter().map(EebJob::to_json))),
        ("kb", kb),
    ]))
}

/// A driver: runs one artifact and returns its one registry row.
pub type Driver = fn(&ExperimentCtx) -> RegistryRow;

/// Every driver, keyed by its registry name (also the CLI argument that
/// selects it).
pub static EXPERIMENTS: &[(&str, Driver)] = &[
    ("table1", table1_row),
    ("table2", table2_row),
    ("fig2", fig2_row),
    ("comparison", comparison_row),
    ("ablation_epsilon", ablation_epsilon_row),
    ("ablation_deadline", ablation_deadline_row),
    ("learning_curve", learning_curve_row),
    ("ablation_transfer", ablation_transfer_row),
    ("ablation_features", ablation_features_row),
    ("ablation_billing", ablation_billing_row),
    ("ablation_lsmc", ablation_lsmc_row),
    ("ablation_drift", ablation_drift_row),
];

/// Looks a driver up by its registry name.
pub fn by_name(name: &str) -> Option<Driver> {
    EXPERIMENTS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, run)| run)
}

/// `[name, value, ...]`: one row of a table keyed by a name.
fn named_row(name: &str, values: &[f64]) -> Json {
    let values = values.iter().map(|&x| Json::from(x));
    Json::Arr(std::iter::once(Json::from(name)).chain(values).collect())
}

/// Assembles the one row a driver emits: `ctx.params()` plus any
/// experiment-specific extras, the input digest, and the wall
/// time since `t0` (kept out of the replay contract via `wall_ns`).
fn finish(
    name: &str,
    ctx: &ExperimentCtx,
    kb: Option<&KnowledgeBase>,
    jobs: &[EebJob],
    extra_params: &[(&str, Json)],
    outputs: Json,
    t0: Instant,
) -> RegistryRow {
    let mut params = ctx.params();
    if let Json::Obj(fields) = &mut params {
        for (k, v) in extra_params {
            fields.insert((*k).to_string(), v.clone());
        }
    }
    let wall_ns = t0.elapsed().as_nanos() as u64;
    RegistryRow::new(
        name,
        input_hash(name, &params, jobs, kb),
        params,
        outputs,
        wall_ns,
    )
}

/// Table I: signed bias δ̄ (seconds) per classifier per instance type.
#[derive(Debug, Clone)]
pub struct Table1 {
    /// Instance-type names (columns).
    pub instances: Vec<String>,
    /// Model abbreviations (rows).
    pub models: Vec<String>,
    /// `bias[model][instance]` in seconds.
    pub bias: Vec<Vec<f64>>,
}

impl Table1 {
    /// The fields as the registry row's `outputs` holds them.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "instances",
                Json::arr(self.instances.iter().map(String::as_str)),
            ),
            ("models", Json::arr(self.models.iter().map(String::as_str))),
            (
                "bias",
                Json::arr(self.bias.iter().map(|row| Json::arr(row.iter().copied()))),
            ),
        ])
    }
}

/// Regenerates Table I from a knowledge base: per instance type, train
/// each of the six classifiers on 40 % of that type's runs and report
/// the signed mean error on the remaining 60 %.
///
/// The `instances × models` train/evaluate cells spread over up to
/// `n_threads` workers. Every cell depends only on its instance's
/// (deterministic) split and its own model seed, so the table is
/// bit-identical for any thread count; `1` is the sequential escape
/// hatch.
pub fn table1(
    kb: &KnowledgeBase,
    catalog: &InstanceCatalog,
    seed: u64,
    n_threads: usize,
) -> Table1 {
    let instances = catalog.names();
    let models: Vec<String> = ModelKind::ALL
        .iter()
        .map(|k| k.abbreviation().to_string())
        .collect();
    // Per-instance splits are cheap; precompute them sequentially so the
    // workers share plain `Dataset`s (the knowledge base's dataset cache
    // is not Sync).
    let splits: Vec<_> = instances
        .iter()
        .map(|inst| {
            kb.for_instance(inst)
                .to_dataset()
                .expect("campaign covers every instance")
                .split(TABLE1_TRAIN_FRACTION, seed)
                .expect("instance subsets are large enough")
        })
        .collect();
    let total = instances.len() * ModelKind::ALL.len();
    let cells = parallel_map(total, n_threads.max(1), |i| {
        let (ii, mi) = (i / ModelKind::ALL.len(), i % ModelKind::ALL.len());
        let (train, test) = &splits[ii];
        let mut model = ModelKind::ALL[mi].instantiate(seed ^ (mi as u64) << 8);
        model.fit(train).expect("training succeeds");
        evaluate(model.as_ref(), test)
            .expect("evaluation succeeds")
            .bias
    });
    let mut bias = vec![vec![f64::NAN; instances.len()]; models.len()];
    for (i, b) in cells.into_iter().enumerate() {
        bias[i % ModelKind::ALL.len()][i / ModelKind::ALL.len()] = b;
    }
    Table1 {
        instances,
        models,
        bias,
    }
}

/// Driver for Table I (`table1`).
fn table1_row(ctx: &ExperimentCtx) -> RegistryRow {
    let t0 = Instant::now();
    let (kb, provider, jobs) = ctx.campaign();
    let t = table1(&kb, provider.catalog(), ctx.cfg.seed, default_n_threads());
    finish("table1", ctx, Some(&kb), &jobs, &[], t.to_json(), t0)
}

/// One instance type's row of Table II and Figure 4.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Instance-type name.
    pub instance: String,
    /// Table II: mean prorated per-simulation cost (USD).
    pub mean_cost: f64,
    /// Figure 4: mean speedup over the sequential execution.
    pub mean_speedup: f64,
}

impl Table2Row {
    /// The fields as the registry row's `outputs` holds them.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("instance", self.instance.as_str().into()),
            ("mean_cost", self.mean_cost.into()),
            ("mean_speedup", self.mean_speedup.into()),
        ])
    }
}

/// Table II and Figure 4 from one pass: every EEB job runs once on a
/// single node of each type, instance-major. Table II is the runs' mean
/// prorated cost per type, Figure 4 their mean speedup over the
/// sequential (one reference core) execution.
///
/// The sequential baseline uses the simulator's ground-truth model —
/// an *oracle* read, legitimate here because the baseline is a
/// measurement protocol, not a provisioning decision.
pub fn table2(jobs: &[EebJob], provider: &CloudProvider) -> Vec<Table2Row> {
    provider
        .catalog()
        .names()
        .into_iter()
        .map(|instance| {
            let (costs, speedups): (Vec<f64>, Vec<f64>) = jobs
                .iter()
                .map(|job| {
                    let seq = provider.ground_truth().sequential_secs(&job.workload);
                    let report = provider
                        .run_job(&instance, 1, &job.workload)
                        .expect("catalog instance");
                    (report.prorated_cost, seq / report.duration_secs)
                })
                .unzip();
            Table2Row {
                instance,
                mean_cost: stats::mean(&costs),
                mean_speedup: stats::mean(&speedups),
            }
        })
        .collect()
}

/// Driver for Table II and Figure 4 (`table2`).
fn table2_row(ctx: &ExperimentCtx) -> RegistryRow {
    let t0 = Instant::now();
    let (kb, provider, jobs) = ctx.campaign();
    let rows = table2(&jobs, &provider);
    let outputs = Json::arr(rows.iter().map(Table2Row::to_json));
    finish("table2", ctx, Some(&kb), &jobs, &[], outputs, t0)
}

/// One point of Figure 2's scatter.
#[derive(Debug, Clone)]
pub struct Fig2Point {
    /// Model abbreviation.
    pub model: String,
    /// Measured execution time (seconds).
    pub real: f64,
    /// Predicted execution time (seconds).
    pub predicted: f64,
}

impl Fig2Point {
    /// The fields as the registry row's `outputs` holds them.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("model", self.model.as_str().into()),
            ("real", self.real.into()),
            ("predicted", self.predicted.into()),
        ])
    }
}

/// Figure 2: per-model predicted-vs-real pairs on a held-out 60 %
/// split of the whole knowledge base.
///
/// The six model fits spread over up to `n_threads` workers,
/// concatenating the per-model point runs in model order —
/// bit-identical for any thread count; `1` is the sequential escape
/// hatch.
pub fn fig2(kb: &KnowledgeBase, seed: u64, n_threads: usize) -> Vec<Fig2Point> {
    let data = kb.to_dataset().expect("knowledge base is non-empty");
    let (train, test) = data
        .split(TABLE1_TRAIN_FRACTION, seed)
        .expect("knowledge base is large enough");
    let per_model = parallel_map(ModelKind::ALL.len(), n_threads.max(1), |mi| {
        let kind = ModelKind::ALL[mi];
        let mut model = kind.instantiate(seed ^ (mi as u64) << 8);
        model.fit(&train).expect("training succeeds");
        let ev = evaluate(model.as_ref(), &test).expect("evaluation succeeds");
        ev.pairs
            .into_iter()
            .map(|(real, predicted)| Fig2Point {
                model: kind.abbreviation().to_string(),
                real,
                predicted,
            })
            .collect::<Vec<_>>()
    });
    per_model.into_iter().flatten().collect()
}

/// Per-model correlation, RMSE and bias of a point cloud — the scalar
/// claims the paper reads off the scatter — then the same for the
/// `"Ensemble"`, Algorithm 1's average of the members: per held-out row,
/// the member predictions summed in model order from 0.0 and divided by
/// the member count (the single-model-vs-ensemble ablation).
pub fn fig2_summary(points: &[Fig2Point]) -> Json {
    let row = |model: &str, real: &[f64], predicted: &[f64]| {
        Json::obj([
            ("model", model.into()),
            ("points", real.len().into()),
            ("r", stats::correlation(real, predicted).into()),
            ("rmse_secs", stats::rmse(predicted, real).into()),
            ("bias", stats::bias(predicted, real).into()),
        ])
    };
    let members: Vec<(Vec<f64>, Vec<f64>)> = ModelKind::ALL
        .iter()
        .map(|kind| {
            points
                .iter()
                .filter(|p| p.model == kind.abbreviation())
                .map(|p| (p.real, p.predicted))
                .unzip()
        })
        .collect();
    let (real, _) = &members[0];
    let mut mean = vec![0.0; real.len()];
    for (_, predicted) in &members {
        for (sum, p) in mean.iter_mut().zip(predicted) {
            *sum += p;
        }
    }
    for sum in &mut mean {
        *sum /= members.len() as f64;
    }
    let mut rows: Vec<Json> = ModelKind::ALL
        .iter()
        .zip(&members)
        .map(|(kind, (real, predicted))| row(kind.abbreviation(), real, predicted))
        .collect();
    rows.push(row("Ensemble", real, &mean));
    Json::Arr(rows)
}

/// Driver for Figures 2 and 3 and the single-model-vs-ensemble ablation
/// (`fig2`): one held-out fit of the six members.
fn fig2_row(ctx: &ExperimentCtx) -> RegistryRow {
    let t0 = Instant::now();
    let (kb, _, jobs) = ctx.campaign();
    let points = fig2(&kb, ctx.cfg.seed, default_n_threads());
    let outputs = Json::obj([
        ("summary", fig2_summary(&points)),
        ("fig3", fig3(&points).to_json()),
        ("points", Json::arr(points.iter().map(Fig2Point::to_json))),
    ]);
    finish("fig2", ctx, Some(&kb), &jobs, &[], outputs, t0)
}

/// Figure 3: the pooled error histogram.
#[derive(Debug, Clone)]
pub struct Fig3 {
    /// `(bin lower edge, percentage)` pairs.
    pub bins: Vec<(f64, f64)>,
    /// Fraction of predictions with |error| ≤ 200 s (the paper reports
    /// ≈ 0.8).
    pub within_200s: f64,
}

impl Fig3 {
    /// The fields as the registry row's `outputs` holds them.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "bins",
                Json::arr(self.bins.iter().map(|&(edge, pct)| Json::arr([edge, pct]))),
            ),
            ("within_200s", self.within_200s.into()),
        ])
    }
}

/// Builds Figure 3 from Figure 2's points.
pub fn fig3(points: &[Fig2Point]) -> Fig3 {
    let errors: Vec<f64> = points.iter().map(|p| p.predicted - p.real).collect();
    let lo = errors.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = errors.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    // Paper's axis: roughly [-6000, 4000]; adapt to the observed range
    // but keep 200 s bins like the paper's granularity claim.
    let lo = (lo / 200.0).floor() * 200.0;
    let hi = ((hi / 200.0).ceil() * 200.0).max(lo + 200.0);
    let bins = ((hi - lo) / 200.0) as usize;
    let mut h = disar_math::stats::Histogram::new(lo, hi, bins).expect("valid range");
    h.extend(errors.iter().copied());
    let pct = h.percentages();
    let within = errors.iter().filter(|e| e.abs() <= 200.0).count() as f64 / errors.len() as f64;
    Fig3 {
        bins: (0..bins).map(|i| (h.bin_lo(i), pct[i])).collect(),
        within_200s: within,
    }
}

/// §IV closing comparison: the ML-selected configuration versus forcing
/// the higher-end VM and versus the most cost-effective VM.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Instance Algorithm 1 chose.
    pub ml_instance: String,
    /// Node count Algorithm 1 chose.
    pub ml_nodes: usize,
    /// Realized ML-deploy execution time (s).
    pub ml_secs: f64,
    /// Realized ML-deploy prorated cost ($).
    pub ml_cost: f64,
    /// Forced higher-end VM (m4.10xlarge × 1) time and cost.
    pub highend_secs: f64,
    /// Cost of the forced higher-end deploy.
    pub highend_cost: f64,
    /// Forced most-cost-effective VM (Table II winner × 1) time and cost.
    pub cheap_secs: f64,
    /// Cost of the forced cheapest deploy.
    pub cheap_cost: f64,
    /// Cost decrease of ML vs the higher-end machine (%).
    pub cost_decrease_pct: f64,
    /// Time reduction of ML vs the most cost-effective machine (%).
    pub time_reduction_pct: f64,
}

impl Comparison {
    /// The fields as the registry row's `outputs` holds them.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("ml_instance", self.ml_instance.as_str().into()),
            ("ml_nodes", self.ml_nodes.into()),
            ("ml_secs", self.ml_secs.into()),
            ("ml_cost", self.ml_cost.into()),
            ("highend_secs", self.highend_secs.into()),
            ("highend_cost", self.highend_cost.into()),
            ("cheap_secs", self.cheap_secs.into()),
            ("cheap_cost", self.cheap_cost.into()),
            ("cost_decrease_pct", self.cost_decrease_pct.into()),
            ("time_reduction_pct", self.time_reduction_pct.into()),
        ])
    }
}

/// Runs the closing comparison on the largest EEB job.
pub fn comparison(
    kb: &KnowledgeBase,
    jobs: &[EebJob],
    provider: &CloudProvider,
    seed: u64,
) -> Comparison {
    let mut family = PredictorFamily::new(seed, 2);
    family
        .retrain(kb, RetrainMode::Full, 1)
        .expect("knowledge base is large enough");

    // "A large configuration": the EEB with the most work.
    let job = jobs
        .iter()
        .max_by(|a, b| {
            a.workload
                .work_units
                .partial_cmp(&b.workload.work_units)
                .expect("finite work")
        })
        .expect("non-empty job list");

    // Forced deploys.
    let highend = provider
        .run_job("m4.10xlarge", 1, &job.workload)
        .expect("catalog instance");
    let cheap_name = table2(jobs, provider)
        .into_iter()
        .min_by(|a, b| a.mean_cost.partial_cmp(&b.mean_cost).expect("finite costs"))
        .expect("catalog non-empty")
        .instance;
    let cheap = provider
        .run_job(&cheap_name, 1, &job.workload)
        .expect("catalog instance");

    // ML deploy: deadline set below the cheap machine's realized time
    // so Algorithm 1 must find something faster yet still cheap.
    let t_max = cheap.duration_secs * 0.75;
    let sel = select_configuration(
        &family,
        provider.catalog(),
        &job.profile,
        t_max,
        8,
        0.0,
        seed,
    )
    .expect("a feasible configuration exists");
    let ml = provider
        .run_job(&sel.chosen.instance, sel.chosen.n_nodes, &job.workload)
        .expect("catalog instance");

    Comparison {
        ml_instance: sel.chosen.instance.clone(),
        ml_nodes: sel.chosen.n_nodes,
        ml_secs: ml.duration_secs,
        ml_cost: ml.prorated_cost,
        highend_secs: highend.duration_secs,
        highend_cost: highend.prorated_cost,
        cheap_secs: cheap.duration_secs,
        cheap_cost: cheap.prorated_cost,
        cost_decrease_pct: 100.0 * (1.0 - ml.prorated_cost / highend.prorated_cost),
        time_reduction_pct: 100.0 * (1.0 - ml.duration_secs / cheap.duration_secs),
    }
}

/// Driver for the §IV closing comparison (`comparison`).
fn comparison_row(ctx: &ExperimentCtx) -> RegistryRow {
    let t0 = Instant::now();
    let (kb, provider, jobs) = ctx.campaign();
    let c = comparison(&kb, &jobs, &provider, ctx.cfg.seed);
    finish("comparison", ctx, Some(&kb), &jobs, &[], c.to_json(), t0)
}

/// Ablation: effect of ε-greedy exploration on knowledge-base coverage and
/// long-run deploy cost.
#[derive(Debug, Clone)]
pub struct EpsilonAblation {
    /// The ε used.
    pub epsilon: f64,
    /// Distinct `(instance, n)` configurations present in the final
    /// knowledge base.
    pub distinct_configs: usize,
    /// Mean realized cost over the final third of the deploys ($).
    pub late_mean_cost: f64,
    /// Deadline violations over the whole run.
    pub deadline_misses: usize,
}

impl EpsilonAblation {
    /// The fields as the registry row's `outputs` holds them.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("epsilon", self.epsilon.into()),
            ("distinct_configs", self.distinct_configs.into()),
            ("late_mean_cost", self.late_mean_cost.into()),
            ("deadline_misses", self.deadline_misses.into()),
        ])
    }
}

/// Runs `n_deploys` self-optimizing deploys at the given ε and
/// summarizes.
pub fn ablation_epsilon(
    cfg: &CampaignConfig,
    jobs: &[EebJob],
    epsilon: f64,
    n_deploys: usize,
) -> EpsilonAblation {
    let provider = CloudProvider::new(InstanceCatalog::paper_catalog(), cfg.seed ^ 0xEE);
    let t_max = 3_000.0;
    let policy = DeployPolicy::builder(t_max)
        .epsilon(epsilon)
        .max_nodes(cfg.max_nodes)
        .min_kb_samples(30)
        .retrain_every(10)
        .build();
    let mut deployer = TransparentDeployer::new(provider, policy, cfg.seed ^ 0xEE);
    let mut rng = stream_rng(cfg.seed, 0xE9);
    let mut costs = Vec::with_capacity(n_deploys);
    let mut misses = 0;
    for _ in 0..n_deploys {
        let job = &jobs[rng.gen_range(0..jobs.len())];
        let out = deployer
            .deploy(&job.profile, &job.workload)
            .expect("deploys succeed under a generous deadline");
        costs.push(out.report.prorated_cost);
        if out.missed_deadline(t_max) {
            misses += 1;
        }
    }
    let configs: std::collections::BTreeSet<(String, usize)> = deployer
        .knowledge_base()
        .records()
        .iter()
        .map(|r| (r.instance.clone(), r.n_nodes))
        .collect();
    let late = &costs[costs.len() - costs.len() / 3..];
    EpsilonAblation {
        epsilon,
        distinct_configs: configs.len(),
        late_mean_cost: stats::mean(late),
        deadline_misses: misses,
    }
}

/// Driver for the ε-greedy exploration ablation (`ablation_epsilon`).
fn ablation_epsilon_row(ctx: &ExperimentCtx) -> RegistryRow {
    let t0 = Instant::now();
    let jobs = ctx.jobs();
    let n = if ctx.quick { 120 } else { 400 };
    let greedy = ablation_epsilon(&ctx.cfg, &jobs, 0.0, n);
    let explore = ablation_epsilon(&ctx.cfg, &jobs, 0.1, n);
    let outputs = Json::obj([("rows", Json::arr([greedy.to_json(), explore.to_json()]))]);
    let extra = [("n_deploys", n.into())];
    finish("ablation_epsilon", ctx, None, &jobs, &extra, outputs, t0)
}

/// Ablation: ensemble-mean vs conservative (worst-member) deadline filter.
#[derive(Debug, Clone, PartialEq)]
pub struct DeadlineRuleAblation {
    /// Rule name.
    pub rule: String,
    /// Number of (job, deadline) cases where a configuration was feasible.
    pub feasible_cases: usize,
    /// Deadline violations among the executed picks.
    pub misses: usize,
    /// Mean realized cost of the executed picks ($).
    pub mean_cost: f64,
}

impl DeadlineRuleAblation {
    /// The fields as the registry row's `outputs` holds them.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("rule", self.rule.as_str().into()),
            ("feasible_cases", self.feasible_cases.into()),
            ("misses", self.misses.into()),
            ("mean_cost", self.mean_cost.into()),
        ])
    }
}

/// Sweeps moderately tight deadlines over every EEB job and compares
/// the deadline-miss rate and cost of the two filtering rules.
///
/// Every selection of the `rules × jobs × deadlines` sweep spreads over up
/// to `n_threads` workers: a selection is a pure read of the trained
/// family. The realized runs are then one plain loop
/// in (rule, job, deadline) order, each feasible case drawing the next
/// run of the provider's noise stream. Bit-identical for any thread
/// count; `1` is the sequential escape hatch.
pub fn ablation_deadline(
    kb: &KnowledgeBase,
    jobs: &[EebJob],
    provider: &CloudProvider,
    seed: u64,
    n_threads: usize,
) -> Vec<DeadlineRuleAblation> {
    let n_threads = n_threads.max(1);
    let mut family = PredictorFamily::new(seed, 2);
    family
        .retrain(kb, RetrainMode::Incremental, 1)
        .expect("knowledge base is large enough");
    let rules = [
        ("mean", TimeEstimate::EnsembleMean),
        ("conservative", TimeEstimate::Conservative),
    ];
    const MULTS: [f64; 3] = [1.05, 1.3, 2.0];

    // Per-job deadline anchor: a deadline near the best mean prediction
    // — tight enough that optimistic filtering risks violations. The
    // anchor is rule-independent.
    let best: Vec<f64> = parallel_map(jobs.len(), n_threads, |ji| {
        let loose = select_configuration(
            &family,
            provider.catalog(),
            &jobs[ji].profile,
            1e12,
            6,
            0.0,
            seed,
        )
        .expect("feasible at infinite deadline");
        loose
            .feasible
            .iter()
            .map(|c| c.predicted_secs)
            .fold(f64::INFINITY, f64::min)
    });

    // Every (rule, job, deadline) selection, rule-major like the run loop.
    let per_rule = jobs.len() * MULTS.len();
    let sels = parallel_map(rules.len() * per_rule, n_threads, |i| {
        let (ri, rem) = (i / per_rule, i % per_rule);
        let (ji, mi) = (rem / MULTS.len(), rem % MULTS.len());
        let t_max = best[ji] * MULTS[mi];
        let sel = select_configuration_with_workspace(
            &family,
            provider.catalog(),
            &jobs[ji].profile,
            t_max,
            6,
            0.0,
            seed ^ ji as u64,
            rules[ri].1,
            1,
            &mut SelectionWorkspace::new(),
        )
        .ok();
        (t_max, sel)
    });

    rules
        .iter()
        .enumerate()
        .map(|(ri, (rule, _))| {
            let mut misses = 0;
            let mut costs = Vec::new();
            let cases = &sels[ri * per_rule..(ri + 1) * per_rule];
            for (i, (t_max, sel)) in cases.iter().enumerate() {
                let Some(sel) = sel else { continue };
                let job = &jobs[i / MULTS.len()];
                let r = provider
                    .run_job(&sel.chosen.instance, sel.chosen.n_nodes, &job.workload)
                    .expect("valid instance");
                if r.duration_secs > *t_max {
                    misses += 1;
                }
                costs.push(r.prorated_cost);
            }
            DeadlineRuleAblation {
                rule: rule.to_string(),
                feasible_cases: costs.len(),
                misses,
                mean_cost: stats::mean(&costs),
            }
        })
        .collect()
}

/// Driver for the deadline-rule ablation (`ablation_deadline`).
fn ablation_deadline_row(ctx: &ExperimentCtx) -> RegistryRow {
    let t0 = Instant::now();
    let (kb, provider, jobs) = ctx.campaign();
    let rows = ablation_deadline(&kb, &jobs, &provider, ctx.cfg.seed, default_n_threads());
    let outputs = Json::arr(rows.iter().map(DeadlineRuleAblation::to_json));
    finish("ablation_deadline", ctx, Some(&kb), &jobs, &[], outputs, t0)
}

/// The self-optimizing loop's learning curve — the paper's claim that
/// learning from useful work "allows to significantly reduce the training
/// phase of the system".
#[derive(Debug, Clone)]
pub struct LearningCurve {
    /// `(deploy index, rolling mean |relative error|)` for ML-mode deploys
    /// (window of 20).
    pub points: Vec<(usize, f64)>,
    /// Mean |relative error| over the first 30 ML deploys.
    pub early_mae: f64,
    /// Mean |relative error| over the last 30 ML deploys.
    pub late_mae: f64,
}

impl LearningCurve {
    /// The fields as the registry row's `outputs` holds them.
    pub fn to_json(&self) -> Json {
        let points = self
            .points
            .iter()
            .map(|&(deploy, mae)| Json::Arr(vec![deploy.into(), mae.into()]));
        Json::obj([
            ("points", Json::arr(points)),
            ("early_mae", self.early_mae.into()),
            ("late_mae", self.late_mae.into()),
        ])
    }
}

/// Runs `n_deploys` self-optimizing deploys over random EEB jobs and
/// tracks how the ensemble's relative prediction error shrinks with
/// knowledge-base size.
pub fn learning_curve(cfg: &CampaignConfig, jobs: &[EebJob], n_deploys: usize) -> LearningCurve {
    let provider = CloudProvider::new(InstanceCatalog::paper_catalog(), cfg.seed ^ 0x1EA2);
    // No deadline pressure (t_max = 1e9): isolate accuracy.
    let policy = DeployPolicy::builder(1e9)
        .epsilon(0.1)
        .max_nodes(cfg.max_nodes)
        .min_kb_samples(30)
        .retrain_every(5)
        .build();
    let mut deployer = TransparentDeployer::new(provider, policy, cfg.seed ^ 0x1EA2);
    let mut rng = stream_rng(cfg.seed, 0x1C);
    let mut rel_errors: Vec<(usize, f64)> = Vec::new();
    for i in 0..n_deploys {
        let job = &jobs[rng.gen_range(0..jobs.len())];
        let out = deployer
            .deploy(&job.profile, &job.workload)
            .expect("generous deadline");
        if let Some(err) = out.prediction_error() {
            rel_errors.push((i, (err / out.report.duration_secs).abs()));
        }
    }
    let window = 20;
    let points: Vec<(usize, f64)> = rel_errors
        .iter()
        .enumerate()
        .map(|(k, &(i, _))| {
            let lo = k.saturating_sub(window - 1);
            let vals: Vec<f64> = rel_errors[lo..=k].iter().map(|&(_, e)| e).collect();
            (i, stats::mean(&vals))
        })
        .collect();
    // With no ML deploy at all (n = 0) both windows are empty and both
    // means read `stats::mean`'s 0.0.
    let n = rel_errors.len();
    let take = 30.min(n / 2).max(1).min(n);
    let early: Vec<f64> = rel_errors[..take].iter().map(|&(_, e)| e).collect();
    let late: Vec<f64> = rel_errors[n - take..].iter().map(|&(_, e)| e).collect();
    LearningCurve {
        points,
        early_mae: stats::mean(&early),
        late_mae: stats::mean(&late),
    }
}

/// Driver for the learning curve (`learning_curve`).
fn learning_curve_row(ctx: &ExperimentCtx) -> RegistryRow {
    let t0 = Instant::now();
    let jobs = ctx.jobs();
    let n = if ctx.quick { 150 } else { 400 };
    let lc = learning_curve(&ctx.cfg, &jobs, n);
    let extra = [("n_deploys", n.into())];
    finish("learning_curve", ctx, None, &jobs, &extra, lc.to_json(), t0)
}

/// Ablation: cross-company knowledge transfer. One row per arm,
/// summarizing how the *second* company onboards.
#[derive(Debug, Clone)]
pub struct TransferAblationRow {
    /// Arm name: `isolated` or `pooled`.
    pub policy: String,
    /// Bootstrap (random-configuration) deploys company B needed.
    pub b_bootstrap_deploys: usize,
    /// ML-mode deploys company B made.
    pub b_ml_deploys: usize,
    /// Mean |relative prediction error| over company B's ML deploys.
    pub b_mean_abs_rel_err: f64,
    /// Mean realized cost of company B's deploys ($).
    pub b_mean_cost: f64,
    /// Mean decision regret (%) over all of company B's deploys: the
    /// noise-free cost of the chosen configuration over the [`Oracle`]'s
    /// cheapest cell, minus 1.
    pub b_mean_regret_pct: f64,
}

impl TransferAblationRow {
    /// The fields as the registry row's `outputs` holds them.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("policy", self.policy.as_str().into()),
            ("b_bootstrap_deploys", self.b_bootstrap_deploys.into()),
            ("b_ml_deploys", self.b_ml_deploys.into()),
            ("b_mean_abs_rel_err", self.b_mean_abs_rel_err.into()),
            ("b_mean_cost", self.b_mean_cost.into()),
            ("b_mean_regret_pct", self.b_mean_regret_pct.into()),
        ])
    }
}

/// The multi-tenant ablation: company A runs `n_per_tenant` deploys from a
/// cold start, then company B runs `n_per_tenant` deploys over the same
/// job mix. In the `isolated` arm B runs on a deployer of its own, as a
/// [`disar_core::DeployService`] lane does, and repeats the whole
/// manual-training phase; in the `pooled` arm B runs on A's deployer and
/// starts from A's knowledge — the paper's observation that the
/// knowledge-base parameters "are not necessarily bound to a specific"
/// company, quantified.
pub fn ablation_transfer(
    cfg: &CampaignConfig,
    jobs: &[EebJob],
    n_per_tenant: usize,
) -> Vec<TransferAblationRow> {
    let catalog = InstanceCatalog::paper_catalog();
    // Generous deadline to isolate onboarding; the paper's after-every-run
    // retrain cadence, so a shard trains exactly when it reaches the
    // family's minimum sample count.
    let policy = DeployPolicy::builder(1e9)
        .epsilon(0.1)
        .max_nodes(cfg.max_nodes)
        .min_kb_samples(30)
        .build();
    let deployer = |seed: u64, tenant: &str| {
        let provider = CloudProvider::new(catalog.clone(), seed);
        ShardedDeployer::new(provider, policy, seed).with_tenant(TenantId::new(tenant))
    };
    let mut rng = stream_rng(cfg.seed, 0x7A);
    let mut draw = |n: usize| -> Vec<&EebJob> {
        (0..n)
            .map(|_| &jobs[rng.gen_range(0..jobs.len())])
            .collect()
    };
    let (a_jobs, b_jobs) = (draw(n_per_tenant), draw(n_per_tenant));
    let mut pooled = deployer(cfg.seed ^ 0x7E, "company-a");
    for job in &a_jobs {
        pooled
            .deploy(&job.profile, &job.workload)
            .expect("generous deadline");
    }
    pooled.set_tenant(TenantId::new("company-b"));
    let isolated = deployer(cfg.seed ^ 0x7F, "company-b");
    let oracle = Oracle::new(
        CloudProvider::new(catalog.clone(), cfg.seed ^ 0x7E),
        cfg.max_nodes,
    );
    [("isolated", isolated), ("pooled", pooled)]
        .into_iter()
        .map(|(name, mut d)| {
            let mut bootstrap = 0;
            let mut rel_errors = Vec::new();
            let mut costs = Vec::with_capacity(n_per_tenant);
            let mut regrets = Vec::with_capacity(n_per_tenant);
            for job in &b_jobs {
                let out = d
                    .deploy(&job.profile, &job.workload)
                    .expect("generous deadline");
                match out.mode {
                    DeployMode::Bootstrap => bootstrap += 1,
                    _ => {
                        if let Some(err) = out.prediction_error() {
                            rel_errors.push((err / out.report.duration_secs).abs());
                        }
                    }
                }
                costs.push(out.report.prorated_cost);
                let (_, best) = oracle
                    .cheapest(&job.workload, f64::INFINITY, 0)
                    .expect("non-empty grid");
                let chosen =
                    oracle.plan(&out.report.instance, out.report.n_nodes, &job.workload, 0);
                regrets.push(100.0 * (chosen.prorated_cost / best.prorated_cost - 1.0));
            }
            TransferAblationRow {
                policy: name.to_string(),
                b_bootstrap_deploys: bootstrap,
                b_ml_deploys: rel_errors.len(),
                b_mean_abs_rel_err: stats::mean(&rel_errors),
                b_mean_cost: stats::mean(&costs),
                b_mean_regret_pct: stats::mean(&regrets),
            }
        })
        .collect()
}

/// Driver for the cross-company transfer ablation (`ablation_transfer`).
fn ablation_transfer_row(ctx: &ExperimentCtx) -> RegistryRow {
    let t0 = Instant::now();
    let jobs = ctx.jobs();
    let n = if ctx.quick { 60 } else { 150 };
    let rows = ablation_transfer(&ctx.cfg, &jobs, n);
    let outputs = Json::arr(rows.iter().map(TransferAblationRow::to_json));
    let extra = [("n_per_tenant", n.into())];
    finish("ablation_transfer", ctx, None, &jobs, &extra, outputs, t0)
}

/// Ablation: which features actually drive execution time, per the
/// Random Forest's variance-reduction importances — validating the
/// paper's claim that its characteristic parameters "induce the
/// highest variability in the execution time".
pub fn ablation_features(kb: &KnowledgeBase, seed: u64) -> Vec<(String, f64)> {
    use disar_core::RunRecord;
    let data = kb.to_dataset().expect("knowledge base is non-empty");
    let mut rf = disar_ml::RandomForest::new(seed);
    rf.fit(&data).expect("training succeeds");
    let names = RunRecord::feature_names();
    let mut rows: Vec<(String, f64)> = names.into_iter().zip(rf.importances()).collect();
    rows.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite importances"));
    rows
}

/// Driver for the feature-importance ablation (`ablation_features`).
fn ablation_features_row(ctx: &ExperimentCtx) -> RegistryRow {
    let t0 = Instant::now();
    let (kb, _, jobs) = ctx.campaign();
    let rows = ablation_features(&kb, ctx.cfg.seed);
    let outputs = Json::arr(rows.iter().map(|(name, x)| named_row(name, &[*x])));
    finish("ablation_features", ctx, Some(&kb), &jobs, &[], outputs, t0)
}

/// Ablation: what the campaign would have been invoiced under different
/// billing policies (2016 per-hour vs modern per-second).
#[derive(Debug, Clone)]
pub struct BillingAblation {
    /// Total prorated (economic) cost of all campaign runs ($).
    pub prorated_total: f64,
    /// Total under per-hour (2016 EC2) invoicing ($).
    pub per_hour_total: f64,
    /// Total under per-second invoicing with a 60 s minimum ($).
    pub per_second_total: f64,
}

impl BillingAblation {
    /// The fields as the registry row's `outputs` holds them.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("prorated_total", self.prorated_total.into()),
            ("per_hour_total", self.per_hour_total.into()),
            ("per_second_total", self.per_second_total.into()),
        ])
    }
}

/// Re-prices every knowledge-base run under the alternative billing
/// policies. The paper's "total cost of 128 $" for 1500 runs only
/// makes sense with sub-hour granularity; this quantifies how much the
/// 2016 hourly rounding inflates short Solvency II jobs.
pub fn ablation_billing(kb: &KnowledgeBase, catalog: &InstanceCatalog) -> BillingAblation {
    use disar_cloudsim::billing::BillingPolicy;
    let mut prorated_total = 0.0;
    let mut per_hour_total = 0.0;
    let mut per_second_total = 0.0;
    for r in kb.records() {
        let rate = catalog
            .get(&r.instance)
            .expect("campaign instances are in the catalog")
            .hourly_cost;
        // Uptime ≈ duration + boot; the recorded cost is prorated
        // uptime, so recover uptime from it exactly.
        let uptime = r.cost / (rate * r.n_nodes as f64) * 3600.0;
        prorated_total += r.cost;
        per_hour_total += BillingPolicy::PerHour
            .cost(uptime, rate, r.n_nodes)
            .expect("valid inputs");
        per_second_total += BillingPolicy::PerSecond { min_secs: 60.0 }
            .cost(uptime, rate, r.n_nodes)
            .expect("valid inputs");
    }
    BillingAblation {
        prorated_total,
        per_hour_total,
        per_second_total,
    }
}

/// Driver for the billing-policy ablation (`ablation_billing`).
fn ablation_billing_row(ctx: &ExperimentCtx) -> RegistryRow {
    let t0 = Instant::now();
    let (kb, provider, jobs) = ctx.campaign();
    let b = ablation_billing(&kb, provider.catalog());
    finish(
        "ablation_billing",
        ctx,
        Some(&kb),
        &jobs,
        &[],
        b.to_json(),
        t0,
    )
}

/// Ablation: LSMC vs plain nested Monte Carlo on a real valuation.
#[derive(Debug, Clone)]
pub struct LsmcAblation {
    /// Wall seconds of the plain nested run.
    pub nested_secs: f64,
    /// Wall seconds of the LSMC run.
    pub lsmc_secs: f64,
    /// SCR from the nested run.
    pub nested_scr: f64,
    /// SCR from the LSMC run.
    pub lsmc_scr: f64,
    /// Mean `Y_1` relative gap between the two methods.
    pub mean_rel_gap: f64,
}

/// Runs both valuation methods on the same small book and times them.
pub fn ablation_lsmc(seed: u64) -> LsmcAblation {
    let table = LifeTable::italian_population();
    let lapse = DurationLapse::italian_typical();
    let act = ActuarialEngine::new(&table, &lapse);
    let positions: Vec<LiabilityPosition> = [(45u32, 10u32), (55, 15), (60, 8)]
        .iter()
        .map(|&(age, term)| {
            let ps = ProfitSharing::new(0.8, 0.02).expect("valid");
            let c = Contract::new(ProductKind::Endowment, age, Gender::Male, term, 1000.0, ps)
                .expect("valid");
            let mp = ModelPoint {
                contract: c,
                policy_count: 1,
            };
            LiabilityPosition {
                schedule: act.cash_flow_schedule(&mp).expect("valid"),
                profit_sharing: ps,
            }
        })
        .collect();

    let build = |h: f64| {
        disar_stochastic::scenario::ScenarioGenerator::builder()
            .driver(Box::new(
                drivers::Vasicek::new(0.025, 0.4, 0.028, 0.009, 0.15).expect("valid"),
            ))
            .driver(Box::new(
                drivers::Gbm::new(100.0, 0.065, 0.17, 0.025).expect("valid"),
            ))
            .correlation(
                CorrelationMatrix::new(vec![vec![1.0, -0.25], vec![-0.25, 1.0]]).expect("valid"),
            )
            .grid(TimeGrid::new(h, 12).expect("valid"))
            .build()
            .expect("valid")
    };
    let outer = build(1.0);
    let inner = build(15.0);
    let fund = SegregatedFund::italian_typical(30);

    let nested = NestedMonteCarlo::new(&outer, &inner, &fund, 1, 0).expect("valid");
    let t0 = std::time::Instant::now();
    let nres = nested
        .run(
            &positions,
            &NestedConfig {
                n_outer: 300,
                n_inner: 40,
                seed,
                threads: 1,
            },
        )
        .expect("nested run succeeds");
    let nested_secs = t0.elapsed().as_secs_f64();

    let lsmc = Lsmc::new(&outer, &inner, &fund, 1, 0).expect("valid");
    let t1 = std::time::Instant::now();
    let lres = lsmc
        .run(
            &positions,
            &LsmcConfig {
                calibration_outer: 60,
                calibration_inner: 40,
                n_outer: 300,
                seed,
            },
        )
        .expect("LSMC run succeeds");
    let lsmc_secs = t1.elapsed().as_secs_f64();

    let gap = (stats::mean(&lres.y1) - stats::mean(&nres.y1)).abs() / stats::mean(&nres.y1);
    LsmcAblation {
        nested_secs,
        lsmc_secs,
        nested_scr: nres.scr,
        lsmc_scr: lres.scr,
        mean_rel_gap: gap,
    }
}

/// Driver for the LSMC-vs-nested ablation (`ablation_lsmc`). Wall times
/// are machine noise: they go in `timings`, outside the replay contract, so
/// only the numeric results are hash-checked.
fn ablation_lsmc_row(ctx: &ExperimentCtx) -> RegistryRow {
    let t0 = Instant::now();
    let a = ablation_lsmc(ctx.cfg.seed);
    let outputs = Json::obj([
        ("nested_scr", a.nested_scr.into()),
        ("lsmc_scr", a.lsmc_scr.into()),
        ("mean_rel_gap", a.mean_rel_gap.into()),
    ]);
    finish("ablation_lsmc", ctx, None, &[], &[], outputs, t0).with_timings(Json::obj([
        ("nested_secs", a.nested_secs.into()),
        ("lsmc_secs", a.lsmc_secs.into()),
    ]))
}

/// Ablation: drift adaptation. Selection-regret traces of an adaptive
/// deployer (windowed retraining after every run) and a frozen baseline
/// over the same non-stationary cloud.
#[derive(Debug, Clone)]
pub struct DriftAblation {
    /// Run index of the injected hardware-regime change.
    pub change_at: usize,
    /// Deadline both arms deploy under (seconds), placed between the
    /// post-change duration of the pre-change cost optimum and the
    /// fastest post-change configuration.
    pub t_max_secs: f64,
    /// Per-ML-deploy selection regret of the adaptive arm (deploy order;
    /// the change lands after the pre-change prefix).
    pub adaptive_regret: Vec<f64>,
    /// Per-ML-deploy selection regret of the frozen baseline.
    pub frozen_regret: Vec<f64>,
    /// Post-change deploys until the adaptive arm's rolling regret
    /// re-enters the in-band threshold (capped at the post horizon).
    pub adaptive_recovery: usize,
    /// Same for the frozen baseline (the cap, in practice: its model
    /// never sees the new regime).
    pub frozen_recovery: usize,
}

impl DriftAblation {
    /// The fields as the registry row's `outputs` holds them.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("change_at", self.change_at.into()),
            ("t_max_secs", self.t_max_secs.into()),
            (
                "adaptive_regret",
                Json::arr(self.adaptive_regret.iter().copied()),
            ),
            (
                "frozen_regret",
                Json::arr(self.frozen_regret.iter().copied()),
            ),
            ("adaptive_recovery", self.adaptive_recovery.into()),
            ("frozen_recovery", self.frozen_recovery.into()),
        ])
    }
}

/// Runs both arms over a [`DriftModel::StepRegime`] cloud: a manual
/// grid warm-up, a pre-change ML phase, then a 3.3× hardware slowdown
/// at a known run index. Per deploy, *selection regret* is the extra
/// noise-free cost of the chosen configuration over the oracle argmin
/// on the sim's true times, plus one oracle-cost penalty per oracle
/// deadline miss. The adaptive arm retrains after every run on the
/// 16 most recent records; the frozen arm trains once at warm-up and never
/// again.
///
/// Everything is a pure function of the campaign seed: both arms
/// replay identical run indices, and the [`Oracle`] reads the drifted
/// ground truth at each of them (a benchmark privilege the deployers
/// themselves never get).
pub fn ablation_drift(cfg: &CampaignConfig, jobs: &[EebJob]) -> DriftAblation {
    let warmup = 36;
    let pre_ml = 20;
    let post = 48;
    let roll = 8;
    let change_at = warmup + pre_ml;
    let horizon = change_at + post;
    let catalog = InstanceCatalog::paper_catalog();
    let names = catalog.names();
    let max_nodes = cfg.max_nodes.clamp(2, 4);
    let drift = DriftModel::StepRegime {
        period: change_at as u64,
        speed_factor: 0.3,
        price_factor: 1.0,
    };
    let oracle = Oracle::new(
        CloudProvider::new(catalog.clone(), cfg.seed ^ 0xD21F).with_drift(drift.clone()),
        max_nodes,
    );
    let job = &jobs[0];
    let wl = &job.workload;
    // Deadline: pre-change, the cost optimum fits comfortably; after
    // the slowdown it no longer does, while faster configurations
    // still do — so a stale model keeps choosing configurations that
    // now miss.
    let ((pre_inst, pre_n), pre_plan) = oracle
        .cheapest(wl, f64::INFINITY, 0)
        .expect("non-empty grid");
    let d0_post = oracle
        .plan(pre_inst, *pre_n, wl, change_at as u64)
        .duration_secs;
    let dmin_post = oracle.fastest(wl, change_at as u64).1.duration_secs;
    let t_max = (0.5 * (dmin_post + d0_post)).max(1.15 * pre_plan.duration_secs);
    // Cheapest oracle cost among deadline-feasible configurations
    // (falling back to the unconstrained optimum if none fits).
    let best_feasible = |idx: u64| {
        oracle
            .cheapest(wl, t_max, idx)
            .or_else(|| oracle.cheapest(wl, f64::INFINITY, idx))
            .expect("non-empty grid")
            .1
            .prorated_cost
    };
    let run_arm = |adaptive: bool| -> Vec<f64> {
        let provider =
            CloudProvider::new(catalog.clone(), cfg.seed ^ 0xD21F).with_drift(drift.clone());
        let mut builder = DeployPolicy::builder(t_max)
            .epsilon(0.0)
            .max_nodes(max_nodes)
            .min_kb_samples(warmup)
            .retrain_every(if adaptive { 1 } else { 10_000 });
        if adaptive {
            builder = builder.retrain_mode(RetrainMode::Windowed { window: 16 });
        }
        let mut d = TransparentDeployer::new(provider, builder.build(), cfg.seed ^ 0xD21F);
        // Manual grid warm-up: both arms record the same runs, so
        // their noise streams and knowledge bases stay aligned.
        for i in 0..warmup {
            let inst = &names[i % names.len()];
            let n = 1 + (i / names.len()) % max_nodes;
            d.deploy_manual(&job.profile, &job.workload, inst, n)
                .expect("catalog configuration");
        }
        d.warm().expect("warm-up records train the family");
        let mut regret = Vec::with_capacity(horizon - warmup);
        for i in warmup..horizon {
            let idx = i as u64;
            let out = match d.deploy(&job.profile, &job.workload) {
                Ok(out) => out,
                Err(CoreError::NoFeasibleConfiguration { .. }) => {
                    // A mis-calibrated model can reject everything;
                    // fall back to the fastest machine so the loop
                    // keeps learning (the regret speaks for itself).
                    let ((nm, n), _) = oracle.fastest(wl, idx);
                    d.deploy_manual(&job.profile, wl, nm, *n)
                        .expect("catalog configuration")
                }
                Err(e) => panic!("drift-ablation deploy failed: {e}"),
            };
            let chosen = oracle.plan(&out.report.instance, out.report.n_nodes, wl, idx);
            let best = best_feasible(idx);
            let mut r = (chosen.prorated_cost - best).max(0.0);
            if chosen.duration_secs > t_max {
                r += best;
            }
            regret.push(r);
        }
        regret
    };
    let adaptive_regret = run_arm(true);
    let frozen_regret = run_arm(false);
    // In-band: rolling mean regret at or below a band derived from
    // the arm's own pre-change level, floored at a quarter of the
    // post-change oracle cost — one deadline miss per rolling window
    // already exceeds the floor, so a stale arm cannot sneak in.
    let post_costs: Vec<f64> = (change_at..horizon)
        .map(|i| best_feasible(i as u64))
        .collect();
    let floor = 0.25 * stats::mean(&post_costs);
    let recovery = |regret: &[f64]| -> usize {
        let band = (1.5 * stats::mean(&regret[..pre_ml])).max(floor);
        let trace = &regret[pre_ml..];
        for k in roll..=trace.len() {
            if stats::mean(&trace[k - roll..k]) <= band {
                return k;
            }
        }
        trace.len()
    };
    let adaptive_recovery = recovery(&adaptive_regret);
    let frozen_recovery = recovery(&frozen_regret);
    DriftAblation {
        change_at,
        t_max_secs: t_max,
        adaptive_regret,
        frozen_regret,
        adaptive_recovery,
        frozen_recovery,
    }
}

/// Driver for the drift-adaptation ablation (`ablation_drift`).
fn ablation_drift_row(ctx: &ExperimentCtx) -> RegistryRow {
    let t0 = Instant::now();
    let jobs = ctx.jobs();
    let a = ablation_drift(&ctx.cfg, &jobs);
    finish("ablation_drift", ctx, None, &jobs, &[], a.to_json(), t0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::build_knowledge_base;

    fn small_campaign() -> (KnowledgeBase, CloudProvider, Vec<EebJob>) {
        build_knowledge_base(&CampaignConfig {
            n_runs: 240,
            n_outer: 400,
            n_inner: 30,
            max_nodes: 4,
            seed: 11,
        })
    }

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        let names: std::collections::BTreeSet<&str> =
            EXPERIMENTS.iter().map(|(name, _)| *name).collect();
        assert_eq!(names.len(), EXPERIMENTS.len(), "duplicate experiment name");
        assert_eq!(EXPERIMENTS.len(), 12);
        for (name, _) in EXPERIMENTS {
            assert!(by_name(name).is_some(), "{name}");
        }
        assert!(by_name("no_such_experiment").is_none());
    }

    #[test]
    fn ctx_params_roundtrip() {
        let ctx = ExperimentCtx::new(
            CampaignConfig {
                n_runs: 60,
                n_outer: 200,
                n_inner: 20,
                max_nodes: 4,
                seed: 7,
            },
            true,
        );
        let back = ExperimentCtx::from_params(&ctx.params()).expect("round-trips");
        assert_eq!(back.cfg.n_runs, ctx.cfg.n_runs);
        assert_eq!(back.cfg.n_outer, ctx.cfg.n_outer);
        assert_eq!(back.cfg.n_inner, ctx.cfg.n_inner);
        assert_eq!(back.cfg.max_nodes, ctx.cfg.max_nodes);
        assert_eq!(back.cfg.seed, ctx.cfg.seed);
        assert_eq!(back.quick, ctx.quick);
        assert_eq!(back.params(), ctx.params());
        assert!(ExperimentCtx::from_params(&Json::obj([("model", "IBk".into())])).is_none());
    }

    #[test]
    fn input_hash_is_stable_and_moves_with_every_input() {
        let cfg = CampaignConfig {
            n_runs: 20,
            n_outer: 200,
            n_inner: 20,
            max_nodes: 4,
            seed: 7,
        };
        let (kb, _, jobs) = build_knowledge_base(&cfg);
        let digest = |ctx: &ExperimentCtx, jobs: &[EebJob], kb: &KnowledgeBase| {
            input_hash("table2", &ctx.params(), jobs, Some(kb))
        };
        let ctx = ExperimentCtx::new(cfg, true);
        let h0 = digest(&ctx, &jobs, &kb);
        // An equal context, base and job list built afresh digest alike.
        let equal = ExperimentCtx::from_params(&ctx.params()).unwrap();
        let (kb_again, _, jobs_again) = build_knowledge_base(&cfg);
        assert_eq!(h0, digest(&equal, &jobs_again, &kb_again));
        assert_ne!(h0, input_hash("table2", &ctx.params(), &jobs, None));
        assert_ne!(h0, input_hash("fig2", &ctx.params(), &jobs, Some(&kb)));

        let fields: [fn(&mut CampaignConfig); 5] = [
            |c| c.n_runs += 1,
            |c| c.n_outer += 1,
            |c| c.n_inner += 1,
            |c| c.max_nodes += 1,
            |c| c.seed += 1,
        ];
        for (i, bump) in fields.iter().enumerate() {
            let mut moved = cfg;
            bump(&mut moved);
            let h = digest(&ExperimentCtx::new(moved, true), &jobs, &kb);
            assert_ne!(h0, h, "campaign field {i}");
        }
        assert_ne!(h0, digest(&ExperimentCtx::new(cfg, false), &jobs, &kb));

        let mut moved_jobs = jobs.clone();
        moved_jobs[3].workload.serial_fraction += 0.01;
        assert_ne!(h0, digest(&ctx, &moved_jobs, &kb));

        let mut records = kb.records().to_vec();
        records[5].duration_secs += 1.0;
        let mut moved_kb = KnowledgeBase::new();
        for r in records {
            moved_kb.record(r);
        }
        assert_ne!(h0, digest(&ctx, &jobs, &moved_kb));
    }

    #[test]
    fn driver_emits_one_replayable_row() {
        let ctx = ExperimentCtx::new(
            CampaignConfig {
                n_runs: 60,
                n_outer: 200,
                n_inner: 20,
                max_nodes: 4,
                seed: 7,
            },
            true,
        );
        let row = table2_row(&ctx);
        assert_eq!(row.experiment, "table2");
        // Replaying from the recorded params must reproduce both hashes
        // bit-identically — the runbook contract.
        let replay_ctx = ExperimentCtx::from_params(&row.params).expect("driver params");
        let again = table2_row(&replay_ctx);
        assert_eq!(again.input_hash, row.input_hash);
        assert_eq!(again.output_hash, row.output_hash);
        assert!(row.outputs_match(&again.outputs));
    }

    #[test]
    fn table1_has_full_shape_and_moderate_bias() {
        let (kb, provider, _) = small_campaign();
        let t = table1(&kb, provider.catalog(), 1, 1);
        assert_eq!(t.models.len(), 6);
        assert_eq!(t.instances.len(), 6);
        let times: Vec<f64> = kb.records().iter().map(|r| r.duration_secs).collect();
        let scale = stats::mean(&times);
        for row in &t.bias {
            for &b in row {
                assert!(b.is_finite());
                assert!(
                    b.abs() < scale,
                    "bias {b} should be below the mean duration {scale}"
                );
            }
        }
    }

    #[test]
    fn table2_costs_differ_and_speedups_sit_in_the_paper_band() {
        let (_, provider, jobs) = small_campaign();
        let t2 = table2(&jobs, &provider);
        assert_eq!(t2.len(), 6);
        for r in &t2 {
            assert!(r.mean_cost > 0.0);
            assert!((2.0..12.0).contains(&r.mean_speedup), "{r:?}");
        }
        let costs: Vec<f64> = t2.iter().map(|r| r.mean_cost).collect();
        assert!(stats::std_dev(&costs) > 0.0);
    }

    #[test]
    fn parallel_table1_fig2_match_sequential() {
        let (kb, provider, _) = small_campaign();
        let seq = table1(&kb, provider.catalog(), 1, 1);
        let par = table1(&kb, provider.catalog(), 1, 4);
        assert_eq!(seq.instances, par.instances);
        assert_eq!(seq.models, par.models);
        assert_eq!(seq.bias, par.bias);

        let f_seq = fig2(&kb, 3, 1);
        let f_par = fig2(&kb, 3, 4);
        assert_eq!(f_seq.len(), f_par.len());
        for (a, b) in f_seq.iter().zip(&f_par) {
            assert_eq!(a.model, b.model);
            assert_eq!(a.real.to_bits(), b.real.to_bits());
            assert_eq!(a.predicted.to_bits(), b.predicted.to_bits());
        }
    }

    #[test]
    fn parallel_deadline_ablation_matches_sequential() {
        // Separate providers so both variants see identical noise-stream
        // positions, and both must leave their stream at the same point.
        let (kb, seq_provider, jobs) = small_campaign();
        let (_, par_provider, _) = small_campaign();
        assert_eq!(
            ablation_deadline(&kb, &jobs, &seq_provider, 5, 1),
            ablation_deadline(&kb, &jobs, &par_provider, 5, 4)
        );
        let wl = jobs[0].workload;
        assert_eq!(
            seq_provider.run_job("c4.8xlarge", 2, &wl).unwrap(),
            par_provider.run_job("c4.8xlarge", 2, &wl).unwrap()
        );
    }

    #[test]
    fn fig2_fig3_consistency() {
        let (kb, _, _) = small_campaign();
        let pts = fig2(&kb, 3, 1);
        assert!(!pts.is_empty());
        // 6 models × 60% of the KB.
        assert_eq!(pts.len(), 6 * (kb.len() - (kb.len() as f64 * 0.4) as usize));
        let f3 = fig3(&pts);
        let total_pct: f64 = f3.bins.iter().map(|(_, p)| p).sum();
        assert!((total_pct - 100.0).abs() < 1e-6);
        assert!((0.0..=1.0).contains(&f3.within_200s));
        // The summary covers all six models, then their average.
        let Json::Arr(rows) = fig2_summary(&pts) else {
            panic!("the summary is an array")
        };
        assert_eq!(rows.len(), 7);
        assert_eq!(rows[6].str_at("model"), Ok("Ensemble"));
        for row in &rows {
            assert!(row.f64_at("bias").unwrap().is_finite());
            assert!(row.f64_at("rmse_secs").unwrap() >= 0.0);
        }
    }

    #[test]
    fn comparison_shows_both_wins() {
        let (kb, provider, jobs) = small_campaign();
        let c = comparison(&kb, &jobs, &provider, 5);
        assert!(
            c.cost_decrease_pct > 0.0,
            "ML should beat the high-end machine on cost: {c:?}"
        );
        assert!(
            c.time_reduction_pct > 0.0,
            "ML should beat the cheapest machine on time: {c:?}"
        );
    }

    #[test]
    fn epsilon_widens_coverage() {
        let cfg = CampaignConfig {
            n_runs: 0,
            n_outer: 400,
            n_inner: 30,
            max_nodes: 6,
            seed: 17,
        };
        let jobs = crate::campaign::paper_eeb_jobs(&cfg);
        let greedy = ablation_epsilon(&cfg, &jobs, 0.0, 120);
        let explore = ablation_epsilon(&cfg, &jobs, 0.25, 120);
        assert!(
            explore.distinct_configs >= greedy.distinct_configs,
            "exploration must not shrink coverage: {greedy:?} vs {explore:?}"
        );
    }

    #[test]
    fn conservative_rule_shrinks_feasibility() {
        let (kb, provider, jobs) = small_campaign();
        let rows = ablation_deadline(&kb, &jobs, &provider, 5, 1);
        assert_eq!(rows.len(), 2);
        let mean = &rows[0];
        let cons = &rows[1];
        assert_eq!(mean.rule, "mean");
        // Structural guarantee: filtering on the worst member prediction
        // can only shrink the set of accepted (job, deadline) cases. The
        // realized miss *rate* is noise-dependent and is reported, not
        // asserted (see ablation_deadline_rule.md in the harness output).
        assert!(cons.feasible_cases <= mean.feasible_cases);
        assert!(cons.feasible_cases > 0, "some cases must remain feasible");
        assert!(mean.misses <= mean.feasible_cases);
        assert!(cons.misses <= cons.feasible_cases);
        assert!(mean.mean_cost > 0.0 && cons.mean_cost > 0.0);
    }

    #[test]
    fn deadline_ablation_draws_one_run_per_feasible_case() {
        // The sweep runs each feasible case once on the campaign's provider,
        // in order: it leaves the noise stream exactly as far on as a fresh
        // campaign provider that made that many runs.
        let (kb, provider, jobs) = small_campaign();
        let rows = ablation_deadline(&kb, &jobs, &provider, 5, 2);
        let feasible: usize = rows.iter().map(|r| r.feasible_cases).sum();
        assert!(feasible > 0);
        let (_, fresh, _) = small_campaign();
        let wl = jobs[0].workload;
        for _ in 0..feasible {
            fresh.run_job("c3.4xlarge", 1, &wl).unwrap();
        }
        assert_eq!(
            provider.run_job("c4.8xlarge", 2, &wl).unwrap(),
            fresh.run_job("c4.8xlarge", 2, &wl).unwrap()
        );
    }

    #[test]
    fn learning_curve_without_ml_deploys_is_empty() {
        // Ten deploys under `min_kb_samples(30)` are all bootstrap: no
        // prediction error to average, so no point and both means 0.0.
        let cfg = CampaignConfig {
            n_runs: 0,
            n_outer: 400,
            n_inner: 30,
            max_nodes: 4,
            seed: 23,
        };
        let jobs = crate::campaign::paper_eeb_jobs(&cfg);
        let lc = learning_curve(&cfg, &jobs, 10);
        assert!(lc.points.is_empty());
        assert_eq!(lc.early_mae, 0.0);
        assert_eq!(lc.late_mae, 0.0);
    }

    #[test]
    fn learning_curve_improves() {
        let cfg = CampaignConfig {
            n_runs: 0,
            n_outer: 400,
            n_inner: 30,
            max_nodes: 4,
            seed: 23,
        };
        let jobs = crate::campaign::paper_eeb_jobs(&cfg);
        let lc = learning_curve(&cfg, &jobs, 200);
        assert!(!lc.points.is_empty());
        assert!(
            lc.late_mae < lc.early_mae,
            "late {} should beat early {}",
            lc.late_mae,
            lc.early_mae
        );
        assert!(lc.late_mae < 0.5, "late relative error {}", lc.late_mae);
    }

    /// The transfer ablation at CI scale: two arms, one by name.
    fn transfer_rows() -> (TransferAblationRow, TransferAblationRow) {
        let cfg = CampaignConfig {
            n_runs: 0,
            n_outer: 400,
            n_inner: 30,
            max_nodes: 4,
            seed: 29,
        };
        let jobs = crate::campaign::paper_eeb_jobs(&cfg);
        let rows = ablation_transfer(&cfg, &jobs, 60);
        assert_eq!(rows.len(), 2);
        let by_name = |n: &str| rows.iter().find(|r| r.policy == n).unwrap().clone();
        (by_name("isolated"), by_name("pooled"))
    }

    #[test]
    fn transfer_ablation_quantifies_onboarding() {
        let (isolated, pooled) = transfer_rows();
        // Isolated: company B repeats the whole manual-training phase.
        assert!(
            isolated.b_bootstrap_deploys > 10,
            "isolated B should re-bootstrap: {isolated:?}"
        );
        // Transfer: company B starts from company A's knowledge.
        assert_eq!(pooled.b_bootstrap_deploys, 0, "{pooled:?}");
        assert!(pooled.b_ml_deploys > 0);
        for r in [&isolated, &pooled] {
            assert!(r.b_mean_cost > 0.0);
            assert!(r.b_mean_regret_pct >= 0.0, "{r:?}");
            assert_eq!(r.b_bootstrap_deploys + r.b_ml_deploys, 60, "{r:?}");
        }
    }

    /// A company on its own deployer counts only its own records toward
    /// the bootstrap gate, so it stays in bootstrap for at least the
    /// policy's `min_kb_samples` (30) deploys.
    #[test]
    fn isolated_company_bootstraps_on_its_own_records() {
        let (isolated, _) = transfer_rows();
        assert!(isolated.b_bootstrap_deploys >= 30, "{isolated:?}");
    }

    #[test]
    fn feature_importances_find_the_real_drivers() {
        let (kb, _, _) = small_campaign();
        let rows = ablation_features(&kb, 1);
        assert_eq!(rows.len(), disar_core::RunRecord::feature_names().len());
        let total: f64 = rows.iter().map(|(_, i)| i).sum();
        assert!((total - 1.0).abs() < 1e-9);
        // Sorted descending.
        for w in rows.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        // nP and nQ are constant in the campaign, so they cannot explain
        // any variance; the cost drivers must be the EEB characteristics
        // and the deploy configuration.
        let imp = |name: &str| rows.iter().find(|(n, _)| n == name).unwrap().1;
        assert!(imp("n_outer") < 1e-9);
        assert!(imp("n_inner") < 1e-9);
        let config_side = imp("vcpus") + imp("per_core_speed") + imp("n_nodes");
        let job_side = imp("representative_contracts") + imp("max_horizon");
        assert!(config_side > 0.05, "deploy features matter: {rows:?}");
        assert!(job_side > 0.05, "EEB features matter: {rows:?}");
    }

    #[test]
    fn billing_ablation_orders_policies() {
        let (kb, provider, _) = small_campaign();
        let b = ablation_billing(&kb, provider.catalog());
        // Per-hour rounding can only add money; per-second sits between
        // prorated and per-hour.
        assert!(b.per_hour_total >= b.per_second_total - 1e-9);
        assert!(b.per_second_total >= b.prorated_total - 1e-9);
        assert!(b.prorated_total > 0.0);
        // Short jobs make hourly rounding expensive: expect a real markup.
        assert!(
            b.per_hour_total > 1.2 * b.prorated_total,
            "per-hour {} vs prorated {}",
            b.per_hour_total,
            b.prorated_total
        );
    }

    #[test]
    fn lsmc_is_faster_and_close() {
        let a = ablation_lsmc(9);
        assert!(
            a.lsmc_secs < a.nested_secs,
            "LSMC ({}) should beat nested ({})",
            a.lsmc_secs,
            a.nested_secs
        );
        assert!(a.mean_rel_gap < 0.05, "mean gap {}", a.mean_rel_gap);
        assert!(a.nested_scr >= 0.0 && a.lsmc_scr >= 0.0);
    }

    #[test]
    fn drift_ablation_adapts_faster_than_frozen() {
        let cfg = CampaignConfig {
            n_runs: 0,
            n_outer: 400,
            n_inner: 30,
            max_nodes: 3,
            seed: 31,
        };
        let jobs = crate::campaign::paper_eeb_jobs(&cfg);
        let a = ablation_drift(&cfg, &jobs);
        assert!(a.t_max_secs > 0.0);
        assert_eq!(a.adaptive_regret.len(), a.frozen_regret.len());
        for r in a.adaptive_regret.iter().chain(&a.frozen_regret) {
            assert!(r.is_finite() && *r >= 0.0, "regret {r}");
        }
        // The acceptance bar: windowed retraining recovers strictly faster
        // than the never-adapting baseline.
        assert!(
            a.adaptive_recovery < a.frozen_recovery,
            "adaptive {} vs frozen {}",
            a.adaptive_recovery,
            a.frozen_recovery
        );
    }
}
