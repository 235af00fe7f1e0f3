//! Counting-allocator regression test for the nested Monte Carlo hot path.
//!
//! The kernel layer (DESIGN.md §10) promises that once a
//! [`ValuationWorkspace`] is warm, the `nP × nQ` inner stage performs zero
//! steady-state heap allocations. Measuring "zero per inner path" directly
//! is brittle (a run has constant-count bookkeeping allocations: the outer
//! scenario set, the shifted schedules, the result vectors), but those are
//! *size-independent in count*. So the test compares the allocation count
//! of a small steady-state run against a much larger one: any per-path or
//! per-inner-path allocation would scale the large run's count by the path
//! difference, which the assertion bounds at a small fraction of one
//! allocation per extra inner path.
//!
//! The counts are per thread (`disar_math::check::CountingAlloc`): a run
//! with one thread and a workspace runs its outer loop on the calling
//! thread, and what the test harness allocates on its threads never lands
//! in a window. What keeps a count clean is that nothing else runs on the
//! test's thread while a window is open, and that the measured runs keep
//! `threads: 1`: a worker thread's allocations would go uncounted.

use disar_actuarial::contracts::{Contract, ProductKind, ProfitSharing};
use disar_actuarial::engine::ActuarialEngine;
use disar_actuarial::lapse::ConstantLapse;
use disar_actuarial::model_points::ModelPoint;
use disar_actuarial::mortality::{Gender, LifeTable};
use disar_alm::liability::LiabilityPosition;
use disar_alm::nested::{NestedConfig, NestedMonteCarlo};
use disar_alm::SegregatedFund;
use disar_math::check::{allocations, CountingAlloc};
use disar_stochastic::drivers::{Gbm, Vasicek};
use disar_stochastic::scenario::{ScenarioGenerator, TimeGrid};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn generators(inner_horizon: f64) -> (ScenarioGenerator, ScenarioGenerator) {
    let build = |h: f64| {
        ScenarioGenerator::builder()
            .driver(Box::new(Vasicek::new(0.03, 0.5, 0.03, 0.008, 0.15).unwrap()))
            .driver(Box::new(Gbm::new(100.0, 0.07, 0.18, 0.03).unwrap()))
            .grid(TimeGrid::new(h, 12).unwrap())
            .build()
            .unwrap()
    };
    (build(1.0), build(inner_horizon))
}

fn positions(term: u32) -> Vec<LiabilityPosition> {
    let table = LifeTable::italian_population();
    let lapse = ConstantLapse::new(0.03).unwrap();
    let engine = ActuarialEngine::new(&table, &lapse);
    [0.0, 0.02]
        .iter()
        .map(|&tech| {
            let ps = ProfitSharing::new(0.8, tech).unwrap();
            let c = Contract::new(ProductKind::Endowment, 50, Gender::Male, term, 1000.0, ps)
                .unwrap();
            let mp = ModelPoint {
                contract: c,
                policy_count: 1,
            };
            LiabilityPosition {
                schedule: engine.cash_flow_schedule(&mp).unwrap(),
                profit_sharing: ps,
            }
        })
        .collect()
}

#[test]
fn steady_state_inner_loop_is_allocation_free() {
    let (outer, inner) = generators(8.0);
    let fund = SegregatedFund::italian_typical(10);
    let pos = positions(8);
    let mc = NestedMonteCarlo::new(&outer, &inner, &fund, 1, 0).unwrap();

    // The run goes through the block kernels and the year-major panels —
    // the very code this gate must keep allocation-free.
    let config = |n_outer, n_inner| NestedConfig {
        n_outer,
        n_inner,
        seed: 17,
        threads: 1,
    };

    let small = config(8, 6);
    let large = config(40, 30);
    let mut ws = mc.workspace_for(&large, pos.len());

    // Warm-up: both shapes fill the workspace once so later runs are
    // steady-state.
    mc.run_with_workspace(&pos, &small, &mut ws).unwrap();
    mc.run_with_workspace(&pos, &large, &mut ws).unwrap();

    let (small_res, small_allocs) =
        allocations(|| mc.run_with_workspace(&pos, &small, &mut ws).unwrap());
    let (large_res, large_allocs) =
        allocations(|| mc.run_with_workspace(&pos, &large, &mut ws).unwrap());

    // Sanity: the measured runs are real runs.
    assert_eq!(small_res.y1.len(), 8);
    assert_eq!(large_res.y1.len(), 40);

    // 40·30 − 8·6 = 1152 extra inner paths. If even one allocation per
    // inner path (or per outer path) survived in the kernels, the large
    // run's count would exceed the small run's by hundreds; the per-run
    // bookkeeping (outer set, shifted schedules, result vectors) is
    // identical in *count* for both sizes.
    let leaked = large_allocs.saturating_sub(small_allocs);
    let extra_inner_paths = (40 * 30 - 8 * 6) as f64;
    assert!(
        (leaked as f64) / extra_inner_paths < 0.05,
        "{leaked} extra allocations across {extra_inner_paths} extra inner paths \
         (small run: {small_allocs}, large run: {large_allocs})"
    );
}
