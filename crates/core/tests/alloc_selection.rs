//! Counting-allocator regression test for the Algorithm 1 grid sweep.
//!
//! The batched selection layer promises that a deployer holding a warm
//! [`SelectionWorkspace`] performs (amortized) no per-cell heap
//! allocations: featurization writes into a retained [`FeatureMatrix`],
//! every member kernel runs out of a retained scratch, and the mean /
//! Conservative folds read one member-major block. What legitimately still
//! allocates per *selection* is size-independent bookkeeping — the
//! instance list, the result vector, the feasible set's `CandidateConfig`
//! strings — so the gate has two prongs: a comparative one (growing the
//! grid 8× must not grow the allocation count with it) and an absolute one
//! (a realistic selection stays under 0.05 allocations per grid cell, the
//! ISSUE budget).
//!
//! The counts are per thread (`disar_math::check::CountingAlloc`): a
//! selection runs its sweep and its members on the calling thread, and what
//! the test harness allocates on its threads never lands in a window. What
//! keeps a count clean is that nothing else runs on the test's thread while
//! a window is open, and that the selection hands no work to another thread
//! (`disar-core` fans out nothing since its sweep became a plain loop).

use disar_cloudsim::InstanceCatalog;
use disar_core::{
    select_configuration_with_workspace, CoreError, JobProfile, KnowledgeBase, PredictorFamily,
    RetrainMode, RunRecord, SelectionWorkspace, TimeEstimate,
};
use disar_engine::EebCharacteristics;
use disar_math::check::{allocations, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

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

fn trained_family() -> (PredictorFamily, InstanceCatalog) {
    let cat = InstanceCatalog::paper_catalog();
    let names = cat.names();
    let mut kb = KnowledgeBase::new();
    for i in 0..300 {
        let inst = cat.get(&names[i % names.len()]).expect("known");
        let nodes = i % 6 + 1;
        let contracts = 50 + (i * 53) % 400;
        let time = 40_000.0 * contracts as f64 / 100.0 / (inst.compute_power() * nodes as f64);
        kb.record(RunRecord::new(profile(contracts), inst, nodes, time, 0.0));
    }
    let mut fam = PredictorFamily::new(5, 2);
    fam.retrain(&kb, RetrainMode::Full, 1).expect("large enough");
    (fam, cat)
}

#[test]
fn steady_state_selection_is_allocation_free_per_cell() {
    let (fam, cat) = trained_family();
    let p = profile(200);
    let n_types = cat.iter().count();
    let mut ws = SelectionWorkspace::new();

    let select = |ws: &mut SelectionWorkspace, t_max: f64, max_nodes: usize| {
        select_configuration_with_workspace(
            &fam,
            &cat,
            &p,
            t_max,
            max_nodes,
            0.0,
            11,
            TimeEstimate::EnsembleMean,
            1,
            ws,
        )
    };

    // Prong 1 — comparative: with an unattainable deadline the sweep runs
    // every cell but builds no candidates, so the count isolates the grid
    // hot path. Growing the grid from 8 to 64 node counts (8× the cells)
    // must leave the warm-workspace allocation count flat.
    let (small_cells, large_cells) = (8 * n_types, 64 * n_types);
    // Warm-up: both shapes size every buffer once.
    for max_nodes in [8, 64, 8, 64] {
        assert!(matches!(
            select(&mut ws, 1e-3, max_nodes),
            Err(CoreError::NoFeasibleConfiguration { .. })
        ));
    }
    let (res_small, small_allocs) = allocations(|| select(&mut ws, 1e-3, 8));
    let (res_large, large_allocs) = allocations(|| select(&mut ws, 1e-3, 64));
    assert!(res_small.is_err() && res_large.is_err(), "deadline unattainable by design");
    let leaked = large_allocs.saturating_sub(small_allocs);
    let extra_cells = (large_cells - small_cells) as f64;
    assert!(
        (leaked as f64) / extra_cells < 0.05,
        "{leaked} extra allocations across {extra_cells} extra grid cells \
         (small grid: {small_allocs}, large grid: {large_allocs})"
    );

    // Prong 2 — absolute: a realistic selection (feasible set nonempty but
    // modest) on the 384-cell grid stays under the ISSUE budget of 0.05
    // allocations per cell. The deadline is derived from the model's own
    // predictions so roughly the 8 fastest cells pass the filter,
    // whatever the fitted surface looks like.
    let all = select(&mut ws, 1e12, 64).expect("everything feasible");
    let mut secs: Vec<f64> = all.feasible.iter().map(|c| c.predicted_secs).collect();
    secs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let t_max = secs[7.min(secs.len() - 1)];
    // Warm-up at this shape, then measure.
    select(&mut ws, t_max, 64).expect("kth-smallest time is feasible");
    let (sel, allocs) = allocations(|| select(&mut ws, t_max, 64));
    let sel = sel.expect("kth-smallest time is feasible");
    assert!(!sel.feasible.is_empty() && sel.feasible.len() <= 12);
    let budget = 0.05 * large_cells as f64;
    assert!(
        (allocs as f64) < budget,
        "warm selection allocated {allocs} times over {large_cells} cells \
         (budget {budget}, feasible set {})",
        sel.feasible.len()
    );
}
