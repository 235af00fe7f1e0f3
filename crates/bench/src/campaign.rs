//! The experimental campaign of §IV: three portfolios, 15 EEBs, ≈1500
//! cloud runs feeding the knowledge base.

use disar_actuarial::portfolio::paper_portfolios;
use disar_alm::SegregatedFund;
use disar_cloudsim::{CloudProvider, InstanceCatalog, OraclePlan, Workload};
use disar_core::{JobProfile, KnowledgeBase, RunRecord};
use disar_engine::complexity::ComplexityModel;
use disar_engine::eeb::{decompose, EebKind};
use disar_engine::simulation::{MarketModel, SimulationSpec, DEFAULT_LANE};
use disar_math::json::Json;
use disar_math::rng::stream_rng;

/// One runnable EEB job: profile (what the ML sees) + workload (what the
/// cloud executes).
#[derive(Debug, Clone)]
pub struct EebJob {
    /// Portfolio name the EEB came from.
    pub portfolio: String,
    /// EEB id within its portfolio.
    pub eeb_id: usize,
    /// ML-visible characteristic parameters.
    pub profile: JobProfile,
    /// Cloud workload of the block.
    pub workload: Workload,
}

impl EebJob {
    /// The job as a row's input digest holds it (every field).
    pub fn to_json(&self) -> Json {
        let w = &self.workload;
        Json::obj([
            ("portfolio", self.portfolio.as_str().into()),
            ("eeb_id", self.eeb_id.into()),
            ("profile", self.profile.to_json()),
            ("work_units", w.work_units.into()),
            ("memory_gib", w.memory_gib.into()),
            ("transfer_mib", w.transfer_mib.into()),
            ("serial_fraction", w.serial_fraction.into()),
        ])
    }
}

/// Campaign configuration (defaults follow §IV). Call sites state their
/// deltas with struct-update syntax:
/// `CampaignConfig { n_runs: 300, ..Default::default() }`.
#[derive(Debug, Clone, Copy)]
pub struct CampaignConfig {
    /// Total cloud runs recorded into the knowledge base.
    pub n_runs: usize,
    /// Natural iterations per simulation (`nP`).
    pub n_outer: usize,
    /// Risk-neutral iterations (`nQ`).
    pub n_inner: usize,
    /// Node-count range sampled during the campaign.
    pub max_nodes: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for CampaignConfig {
    /// §IV: "1500 runs", `nQ = 50`, `nP = 1000 for illustrative purposes".
    fn default() -> Self {
        CampaignConfig {
            n_runs: 1500,
            n_outer: 1000,
            n_inner: 50,
            max_nodes: 8,
            seed: 20160627, // ICDCS 2016 opening day
        }
    }
}

/// Builds the paper's 15 EEB jobs: three synthetic company portfolios,
/// five type-B blocks each, with varying market-model richness and fund
/// sizes so the characteristic parameters actually vary.
pub fn paper_eeb_jobs(cfg: &CampaignConfig) -> Vec<EebJob> {
    let portfolios = paper_portfolios(cfg.seed).expect("builtin specs are valid");
    let markets = [
        MarketModel::RatesEquity,
        MarketModel::RatesEquityFx,
        MarketModel::Full,
    ];
    let fund_sizes = [20usize, 40, 80];
    let complexity = ComplexityModel::default();
    let mut jobs = Vec::with_capacity(15);
    for (pi, portfolio) in portfolios.into_iter().enumerate() {
        let spec = SimulationSpec {
            fund: SegregatedFund::italian_typical(fund_sizes[pi]),
            market: markets[pi],
            n_outer: cfg.n_outer,
            n_inner: cfg.n_inner,
            steps_per_year: 12,
            seed: cfg.seed.wrapping_add(pi as u64),
            portfolio,
            lane: DEFAULT_LANE,
        };
        let eebs = decompose(&spec, 5).expect("portfolios have >= 5 model points");
        for eeb in eebs.iter().filter(|e| e.kind == EebKind::AlmValuation) {
            jobs.push(EebJob {
                portfolio: spec.portfolio.name.clone(),
                eeb_id: eeb.id,
                profile: JobProfile {
                    characteristics: eeb.characteristics,
                    n_outer: cfg.n_outer,
                    n_inner: cfg.n_inner,
                },
                workload: complexity
                    .workload(eeb, &spec)
                    .expect("type-B blocks have workloads"),
            });
        }
    }
    assert_eq!(jobs.len(), 15, "the paper uses 15 EEBs");
    jobs
}

/// Runs the campaign: `n_runs` jobs sampled uniformly over (EEB, instance
/// type, node count), every realized duration recorded — the knowledge
/// base Table I and Figure 2 are computed from.
///
/// One run at a time: draw the run's configuration from the campaign's own
/// RNG stream (untouched by the cloud), run it, record it.
///
/// Returns the knowledge base and the provider (with its noise stream
/// advanced), so follow-up experiments see fresh cloud conditions.
pub fn build_knowledge_base(cfg: &CampaignConfig) -> (KnowledgeBase, CloudProvider, Vec<EebJob>) {
    let jobs = paper_eeb_jobs(cfg);
    let provider = CloudProvider::new(InstanceCatalog::paper_catalog(), cfg.seed);
    let names = provider.catalog().names();
    let mut rng = stream_rng(cfg.seed, 0xCA3F);
    let mut kb = KnowledgeBase::new();
    for _ in 0..cfg.n_runs {
        let job = &jobs[rng.gen_range(0..jobs.len())];
        let instance = &names[rng.gen_range(0..names.len())];
        let n_nodes = rng.gen_range(1..=cfg.max_nodes);
        let report = provider
            .run_job(instance, n_nodes, &job.workload)
            .expect("catalog instances are valid");
        let inst = provider.catalog().get(instance).expect("catalog instance");
        kb.record(RunRecord::new(
            job.profile,
            inst,
            n_nodes,
            report.duration_secs,
            report.prorated_cost,
        ));
    }
    (kb, provider, jobs)
}

/// The noise-free yardstick of every decision-regret figure: a probe
/// provider whose run counter never advances, so
/// [`CloudProvider::oracle_plan`] reads the ground truth at any run index,
/// over the `catalog × 1..=max_nodes` grid in catalog-major order. Of cells
/// that tie, the first in grid order wins.
#[derive(Debug)]
pub struct Oracle {
    probe: CloudProvider,
    grid: Vec<(String, usize)>,
}

impl Oracle {
    /// The oracle of `probe`'s catalog (and drift) up to `max_nodes` nodes.
    pub fn new(probe: CloudProvider, max_nodes: usize) -> Self {
        let grid = probe
            .catalog()
            .names()
            .into_iter()
            .flat_map(|name| (1..=max_nodes).map(move |n| (name.clone(), n)))
            .collect();
        Self { probe, grid }
    }

    /// The noise-free run of `workload` on `n_nodes` × `instance` at run
    /// `run_index`.
    pub fn plan(
        &self,
        instance: &str,
        n_nodes: usize,
        workload: &Workload,
        run_index: u64,
    ) -> OraclePlan {
        self.probe
            .oracle_plan(instance, n_nodes, workload, run_index)
            .expect("catalog configuration")
    }

    /// The cheapest cell whose noise-free duration is at most `t_max`, with
    /// its plan; `None` when no cell fits.
    pub fn cheapest(
        &self,
        workload: &Workload,
        t_max: f64,
        run_index: u64,
    ) -> Option<(&(String, usize), OraclePlan)> {
        self.plans(*workload, run_index)
            .filter(|(_, p)| p.duration_secs <= t_max)
            .min_by(|a, b| a.1.prorated_cost.total_cmp(&b.1.prorated_cost))
    }

    /// The cell with the shortest noise-free duration, with its plan.
    pub fn fastest(&self, workload: &Workload, run_index: u64) -> (&(String, usize), OraclePlan) {
        self.plans(*workload, run_index)
            .min_by(|a, b| a.1.duration_secs.total_cmp(&b.1.duration_secs))
            .expect("non-empty grid")
    }

    /// Every cell of the grid with its noise-free run, in grid order.
    fn plans(
        &self,
        workload: Workload,
        run_index: u64,
    ) -> impl Iterator<Item = (&(String, usize), OraclePlan)> {
        self.grid
            .iter()
            .map(move |cell| (cell, self.plan(&cell.0, cell.1, &workload, run_index)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disar_core::{DeployPolicy, Deployer, TransparentDeployer};

    fn small_cfg() -> CampaignConfig {
        CampaignConfig {
            n_runs: 60,
            n_outer: 200,
            n_inner: 20,
            max_nodes: 4,
            seed: 7,
        }
    }

    #[test]
    fn fifteen_jobs_with_varying_characteristics() {
        let jobs = paper_eeb_jobs(&small_cfg());
        assert_eq!(jobs.len(), 15);
        // Characteristic parameters must vary across jobs or the ML problem
        // degenerates. What varies is the company: `decompose` deals a
        // portfolio's contracts evenly over its five blocks (they differ by
        // at most one), so the campaign spans three job families, one per
        // portfolio size, market model and fund size, and the rest of the
        // learning signal is the instance type and node count of each run.
        let distinct = |feature: fn(&EebJob) -> usize| {
            let values: std::collections::BTreeSet<usize> = jobs.iter().map(feature).collect();
            values.len()
        };
        let mut sizes = Vec::new();
        for company in jobs.chunks(5) {
            let contracts = company
                .iter()
                .map(|j| j.profile.characteristics.representative_contracts);
            let (min, max) = (contracts.clone().min().unwrap(), contracts.max().unwrap());
            assert!(max - min <= 1, "{} is dealt evenly", company[0].portfolio);
            sizes.push(min);
        }
        sizes.sort_unstable();
        assert!(
            sizes[0] < sizes[1] && sizes[1] < sizes[2] && sizes[2] > 2 * sizes[0],
            "portfolio sizes too uniform: {sizes:?}"
        );
        assert_eq!(distinct(|j| j.profile.characteristics.risk_factors), 3);
        assert_eq!(distinct(|j| j.profile.characteristics.fund_assets), 3);
    }

    #[test]
    fn knowledge_base_covers_all_instances() {
        let (kb, provider, _) = build_knowledge_base(&small_cfg());
        assert_eq!(kb.len(), 60);
        for name in provider.catalog().names() {
            assert!(
                !kb.for_instance(&name).is_empty(),
                "{name} never sampled in 60 runs"
            );
        }
    }

    #[test]
    fn durations_are_positive_and_varied() {
        let (kb, _, _) = build_knowledge_base(&small_cfg());
        let times: Vec<f64> = kb.records().iter().map(|r| r.duration_secs).collect();
        assert!(times.iter().all(|&t| t > 0.0));
        assert!(disar_math::stats::std_dev(&times) > 1.0);
    }

    #[test]
    fn campaign_is_deterministic() {
        let (a, _, _) = build_knowledge_base(&small_cfg());
        let (b, _, _) = build_knowledge_base(&small_cfg());
        assert_eq!(a, b);
    }

    #[test]
    fn oracle_searches_the_whole_grid() {
        let cfg = small_cfg();
        let wl = paper_eeb_jobs(&cfg)[0].workload;
        let catalog = InstanceCatalog::paper_catalog();
        let oracle = Oracle::new(CloudProvider::new(catalog.clone(), cfg.seed), cfg.max_nodes);
        let mut plans = Vec::new();
        for name in catalog.names() {
            for n in 1..=cfg.max_nodes {
                plans.push(oracle.plan(&name, n, &wl, 3));
            }
        }
        let least = |f: fn(&OraclePlan) -> f64| plans.iter().map(f).fold(f64::INFINITY, f64::min);
        let (fastest_cell, fastest) = oracle.fastest(&wl, 3);
        assert_eq!(fastest.duration_secs, least(|p| p.duration_secs));
        let (_, cheapest) = oracle.cheapest(&wl, f64::INFINITY, 3).unwrap();
        assert_eq!(cheapest.prorated_cost, least(|p| p.prorated_cost));
        // A deadline only the fastest cell meets leaves it the cheapest; a
        // tighter one leaves none.
        let (cell, _) = oracle.cheapest(&wl, fastest.duration_secs, 3).unwrap();
        assert_eq!(cell, fastest_cell);
        assert!(oracle
            .cheapest(&wl, 0.5 * fastest.duration_secs, 3)
            .is_none());
    }

    #[test]
    fn campaign_loop_matches_manual_deploys() {
        // The reference: the same triples, drawn from the same stream, each
        // through a transparent deployer's manual override. The campaign
        // must record the same base and leave its provider's noise stream
        // at the same position.
        let cfg = small_cfg();
        let jobs = paper_eeb_jobs(&cfg);
        let names = InstanceCatalog::paper_catalog().names();
        let policy = DeployPolicy::builder(f64::MAX)
            .max_nodes(cfg.max_nodes)
            .min_kb_samples(usize::MAX)
            .build();
        let provider = CloudProvider::new(InstanceCatalog::paper_catalog(), cfg.seed);
        let mut reference = TransparentDeployer::new(provider, policy, cfg.seed);
        let mut rng = stream_rng(cfg.seed, 0xCA3F);
        for _ in 0..cfg.n_runs {
            let job = &jobs[rng.gen_range(0..jobs.len())];
            let instance = &names[rng.gen_range(0..names.len())];
            let n_nodes = rng.gen_range(1..=cfg.max_nodes);
            reference
                .deploy_manual(&job.profile, &job.workload, instance, n_nodes)
                .unwrap();
        }
        let (kb, provider, _) = build_knowledge_base(&cfg);
        assert_eq!(&kb, reference.knowledge_base());
        let wl = jobs[0].workload;
        let a = provider.run_job("c3.4xlarge", 2, &wl).unwrap();
        let b = reference.provider().run_job("c3.4xlarge", 2, &wl).unwrap();
        assert_eq!(a, b);
    }
}
