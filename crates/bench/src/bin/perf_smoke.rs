//! `perf_smoke` — dependency-free timing of the nested Monte Carlo kernel.
//!
//! This binary deliberately uses **std `Instant` only**, so the lane
//! contract can be timed on hardware where the cargo registry is
//! unreachable (the layered numbers come from `bash benchmark/run.sh`):
//!
//! ```text
//! cargo run --release -p disar-bench --bin perf_smoke
//! ```
//!
//! It times the full nested valuation at lane ∈ {1, 8} (the scalar escape
//! hatch vs the default block width), checks the two runs are bit-identical
//! (the lane contract), prints the medians and the speedup, and appends one
//! row to the append-only registry (`results/registry.jsonl`) through the
//! advisory file lock — the measured medians live in `timings`, outside the
//! replay contract, while the deterministic valuation scalars land in
//! `outputs`.

use disar_actuarial::contracts::{Contract, ProductKind, ProfitSharing};
use disar_actuarial::engine::ActuarialEngine;
use disar_actuarial::lapse::ConstantLapse;
use disar_actuarial::model_points::ModelPoint;
use disar_actuarial::mortality::{Gender, LifeTable};
use disar_alm::liability::LiabilityPosition;
use disar_alm::nested::{NestedConfig, NestedMonteCarlo, NestedResult};
use disar_alm::SegregatedFund;
use disar_bench::registry::workspace_registry;
use disar_cloudsim::{InstanceCatalog, InstanceType};
use disar_core::{
    select_configuration_with_workspace, CoreError, JobProfile, KnowledgeBase, PredictorFamily,
    RetrainMode, RunRecord, Selection, SelectionWorkspace, TimeEstimate, TimePredictor,
};
use disar_engine::EebCharacteristics;
use disar_registry::{CanonicalHasher, RegistryRow};
use disar_stochastic::drivers::{Gbm, Vasicek};
use disar_stochastic::scenario::{ScenarioGenerator, TimeGrid};
use std::hint::black_box;
use std::time::Instant;

const N_OUTER: usize = 150;
const N_INNER: usize = 40;
const REPS: usize = 9;
const SELECT_MAX_NODES: usize = 32;

fn generators(inner_horizon: f64) -> (ScenarioGenerator, ScenarioGenerator) {
    let build = |h: f64| {
        ScenarioGenerator::builder()
            .driver(Box::new(Vasicek::new(0.03, 0.5, 0.03, 0.008, 0.15).expect("valid")))
            .driver(Box::new(Gbm::new(100.0, 0.07, 0.18, 0.03).expect("valid")))
            .grid(TimeGrid::new(h, 12).expect("valid"))
            .build()
            .expect("valid")
    };
    (build(1.0), build(inner_horizon))
}

fn positions(term: u32) -> Vec<LiabilityPosition> {
    let table = LifeTable::italian_population();
    let lapse = ConstantLapse::new(0.03).expect("valid");
    let engine = ActuarialEngine::new(&table, &lapse);
    [0.0, 0.02]
        .iter()
        .map(|&tech| {
            let ps = ProfitSharing::new(0.8, tech).expect("valid");
            let c = Contract::new(ProductKind::Endowment, 50, Gender::Male, term, 1000.0, ps)
                .expect("valid");
            let mp = ModelPoint {
                contract: c,
                policy_count: 1,
            };
            LiabilityPosition {
                schedule: engine.cash_flow_schedule(&mp).expect("valid"),
                profit_sharing: ps,
            }
        })
        .collect()
}

/// Median wall time (ns) of `REPS` sequential runs through a warm
/// caller-owned workspace, plus the last result for identity checking.
fn time_lane(
    mc: &NestedMonteCarlo<'_>,
    pos: &[LiabilityPosition],
    lane: usize,
) -> (u128, NestedResult) {
    let config = NestedConfig {
        n_outer: N_OUTER,
        n_inner: N_INNER,
        confidence: 0.995,
        seed: 17,
        threads: 1,
        antithetic: false,
        lane,
    };
    let mut ws = mc.workspace_for(&config, pos.len());
    // Warm-up fills the workspace so the timed runs are steady-state.
    let mut res = mc.run_with_workspace(pos, &config, &mut ws).expect("runs");
    let mut times: Vec<u128> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            res = mc.run_with_workspace(pos, &config, &mut ws).expect("runs");
            let ns = t.elapsed().as_nanos();
            black_box(&res);
            ns
        })
        .collect();
    times.sort_unstable();
    (times[times.len() / 2], res)
}

/// Hides the family's batched `predict_grid` override so the trait's
/// default per-cell scalar loop runs — the pre-batching baseline of the
/// Algorithm 1 sweep.
struct ScalarOnly<'a>(&'a PredictorFamily);

impl TimePredictor for ScalarOnly<'_> {
    fn predict_each(
        &self,
        profile: &JobProfile,
        instance: &InstanceType,
        n_nodes: usize,
    ) -> Result<Vec<(&'static str, f64)>, CoreError> {
        self.0.predict_each(profile, instance, n_nodes)
    }
}

fn job_profile(contracts: usize) -> JobProfile {
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

/// Median selection wall time (ns) of `REPS` sweeps through the given
/// predictor, plus the (stable) Selection for identity checking.
fn time_selection(predictor: &dyn TimePredictor, catalog: &InstanceCatalog) -> (u128, Selection) {
    let mut ws = SelectionWorkspace::new();
    let p = job_profile(200);
    let mut run = |ws: &mut SelectionWorkspace| {
        select_configuration_with_workspace(
            predictor,
            catalog,
            &p,
            50_000.0,
            SELECT_MAX_NODES,
            0.0,
            9,
            TimeEstimate::EnsembleMean,
            1,
            ws,
        )
        .expect("feasible")
    };
    // Warm-up sizes the workspace so the timed runs are steady-state.
    let mut sel = run(&mut ws);
    let mut times: Vec<u128> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            sel = run(&mut ws);
            let ns = t.elapsed().as_nanos();
            black_box(&sel);
            ns
        })
        .collect();
    times.sort_unstable();
    (times[times.len() / 2], sel)
}

fn main() {
    let t0 = Instant::now();
    let (outer, inner) = generators(10.0);
    let fund = SegregatedFund::italian_typical(20);
    let pos = positions(10);
    let mc = NestedMonteCarlo::new(&outer, &inner, &fund, 1, 0).expect("engine");

    let (scalar_ns, scalar_res) = time_lane(&mc, &pos, 1);
    let (block_ns, block_res) = time_lane(&mc, &pos, 8);
    assert_eq!(
        scalar_res, block_res,
        "lane contract violated: lane=8 must be bit-identical to lane=1"
    );

    let speedup = scalar_ns as f64 / block_ns as f64;
    println!("nested kernel {N_OUTER}x{N_INNER}, sequential, plain:");
    println!("  lane 1: {scalar_ns:>12} ns/run (median of {REPS})");
    println!("  lane 8: {block_ns:>12} ns/run (median of {REPS})");
    println!("  speedup lane8/lane1: {speedup:.2}x");

    // One registry row: deterministic valuation scalars in `outputs`
    // (hash-checked), machine-dependent medians in `timings` (not).
    let params = serde_json::json!({
        "n_outer": N_OUTER,
        "n_inner": N_INNER,
        "reps": REPS,
        "seed": 17,
        "threads": 1,
        "antithetic": false,
        "lanes": [1, 8],
    });
    let mut h = CanonicalHasher::new();
    h.field("bench");
    h.write_str("perf_smoke");
    h.field("params");
    h.write_str(&params.to_string());
    let row = RegistryRow::new(
        "perf_smoke",
        h.finish(),
        params,
        serde_json::json!({
            "mean": block_res.mean,
            "var_quantile": block_res.var_quantile,
            "scr": block_res.scr,
            "bel": block_res.bel,
            "std_error": block_res.std_error,
        }),
        t0.elapsed().as_nanos() as u64,
    )
    .with_timings(serde_json::json!({
        "lane1_median_ns": scalar_ns as u64,
        "lane8_median_ns": block_ns as u64,
        "speedup_lane8": speedup,
    }));

    // Second surface: the Algorithm 1 grid sweep, batched member kernels
    // vs the per-cell scalar path — same dependency-free discipline, same
    // bit-identity assertion as the selection proptests.
    let catalog = InstanceCatalog::paper_catalog();
    let names = catalog.names();
    let mut kb = KnowledgeBase::new();
    for i in 0..300 {
        let inst = catalog.get(&names[i % names.len()]).expect("known");
        let nodes = i % 6 + 1;
        let contracts = 50 + (i * 53) % 400;
        let time = 40_000.0 * contracts as f64 / 100.0 / (inst.compute_power() * nodes as f64);
        kb.record(RunRecord::new(job_profile(contracts), inst, nodes, time, 0.0));
    }
    let mut family = PredictorFamily::new(5, 2);
    family
        .retrain(&kb, RetrainMode::Full, 1)
        .expect("large enough");

    let (batched_ns, batched_sel) = time_selection(&family, &catalog);
    let (cell_ns, cell_sel) = time_selection(&ScalarOnly(&family), &catalog);
    assert_eq!(
        batched_sel, cell_sel,
        "batched sweep must be bit-identical to the per-cell scalar sweep"
    );
    let select_speedup = cell_ns as f64 / batched_ns as f64;
    let cells = SELECT_MAX_NODES * names.len();
    println!("algorithm 1 sweep, {cells} cells, sequential:");
    println!("  batched: {batched_ns:>12} ns/selection (median of {REPS})");
    println!("  scalar:  {cell_ns:>12} ns/selection (median of {REPS})");
    println!("  speedup_vs_scalar: {select_speedup:.2}x");

    let select_params = serde_json::json!({
        "max_nodes": SELECT_MAX_NODES,
        "reps": REPS,
        "seed": 9,
        "threads": 1,
        "t_max": 50_000.0,
    });
    let mut h2 = CanonicalHasher::new();
    h2.field("bench");
    h2.write_str("perf_smoke_select");
    h2.field("params");
    h2.write_str(&select_params.to_string());
    let select_row = RegistryRow::new(
        "perf_smoke_select",
        h2.finish(),
        select_params,
        serde_json::json!({
            "chosen_instance": batched_sel.chosen.instance,
            "chosen_n_nodes": batched_sel.chosen.n_nodes,
            "predicted_secs": batched_sel.chosen.predicted_secs,
            "feasible": batched_sel.feasible.len(),
        }),
        t0.elapsed().as_nanos() as u64,
    )
    .with_timings(serde_json::json!({
        "batched_median_ns": batched_ns as u64,
        "scalar_median_ns": cell_ns as u64,
        "speedup_vs_scalar": select_speedup,
    }));

    let registry = workspace_registry();
    registry
        .append(&[row, select_row])
        .expect("registry append succeeds");
    println!("appended 2 rows to {}", registry.path().display());
}
