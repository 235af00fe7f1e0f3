//! Property tests of the ALM valuation layer.

use disar_actuarial::contracts::{Contract, ProductKind, ProfitSharing};
use disar_actuarial::engine::ActuarialEngine;
use disar_actuarial::lapse::ConstantLapse;
use disar_actuarial::model_points::ModelPoint;
use disar_actuarial::mortality::{Gender, LifeTable};
use disar_alm::liability::{
    shift_schedule, value_positions_all_paths, value_positions_on_path, LiabilityPosition,
};
use disar_alm::nested::{NestedConfig, NestedMonteCarlo, SCR_CONFIDENCE};
use disar_alm::SegregatedFund;
use disar_math::check::{cases, vec_of};
use disar_math::parallel::parallel_map;
use disar_math::rng::{split_seed, stream_rng, StandardNormal};
use disar_math::stats;
use disar_stochastic::drivers::{Gbm, Vasicek};
use disar_stochastic::scenario::{Measure, ScenarioBuffer, ScenarioGenerator, TimeGrid};

fn scenario_set(horizon: f64, n_paths: usize, seed: u64) -> ScenarioBuffer {
    let mut buf = ScenarioBuffer::new();
    ScenarioGenerator::builder()
        .driver(Box::new(
            Vasicek::new(0.025, 0.4, 0.028, 0.009, 0.1).expect("valid"),
        ))
        .driver(Box::new(Gbm::new(100.0, 0.06, 0.18, 0.025).expect("valid")))
        .grid(TimeGrid::new(horizon, 12).expect("valid"))
        .build()
        .expect("valid")
        .generate_into(Measure::RiskNeutral, n_paths, seed, None, &mut buf)
        .expect("valid");
    buf
}

fn position(age: u32, term: u32, beta: f64, sum: f64) -> LiabilityPosition {
    let table = LifeTable::italian_population();
    let lapse = ConstantLapse::new(0.03).expect("valid");
    let engine = ActuarialEngine::new(&table, &lapse);
    let ps = ProfitSharing::new(beta, 0.02).expect("valid");
    let c = Contract::new(ProductKind::Endowment, age, Gender::Male, term, sum, ps).expect("valid");
    LiabilityPosition {
        schedule: engine
            .cash_flow_schedule(&ModelPoint {
                contract: c,
                policy_count: 1,
            })
            .expect("valid"),
        profit_sharing: ps,
    }
}

/// Valuation is homogeneous of degree one in the insured sum.
#[test]
fn valuation_linear_in_sum() {
    cases(24, |rng| {
        let (age, term) = (rng.gen_range(30u32..65), rng.gen_range(3u32..15));
        let (scale, seed) = (rng.gen_range(1.5..10.0), rng.gen_range(0u64..50));
        let buf = scenario_set(16.0, 3, seed);
        let set = buf.view();
        let fund = SegregatedFund::italian_typical(20);
        let base = [position(age, term, 0.8, 1000.0)];
        let scaled = [position(age, term, 0.8, 1000.0 * scale)];
        for p in 0..set.n_paths() {
            let v1 = value_positions_on_path(&base, &fund, &set, p, 1, 0).expect("ok");
            let v2 = value_positions_on_path(&scaled, &fund, &set, p, 1, 0).expect("ok");
            assert!((v2 - scale * v1).abs() < 1e-6 * v2.max(1.0));
        }
    });
}

/// Valuations are strictly positive and finite across random books.
#[test]
fn valuations_positive_finite() {
    cases(24, |rng| {
        let ages = vec_of(rng, 1..5, |rng| rng.gen_range(25u32..70));
        let (term, seed) = (rng.gen_range(3u32..20), rng.gen_range(0u64..50));
        let buf = scenario_set(21.0, 4, seed);
        let fund = SegregatedFund::italian_typical(30);
        let positions: Vec<LiabilityPosition> = ages
            .iter()
            .map(|&a| position(a, term, 0.8, 500.0))
            .collect();
        let values = value_positions_all_paths(&positions, &fund, &buf.view(), 1, 0).expect("ok");
        for v in values {
            assert!(v.is_finite());
            assert!(v > 0.0);
        }
    });
}

/// Shifting a schedule by its full term leaves nothing; shifting by zero is
/// the identity; intermediate shifts conserve the remaining flows' amounts.
#[test]
fn shift_schedule_properties() {
    cases(24, |rng| {
        let (age, term) = (rng.gen_range(30u32..60), rng.gen_range(2u32..20));
        let by = rng.gen_range(0u32..25);
        let pos = position(age, term, 0.8, 1000.0);
        let shifted = shift_schedule(&pos.schedule, by);
        if by == 0 {
            assert_eq!(&shifted, &pos.schedule);
        }
        if by >= term {
            assert!(shifted.flows.is_empty());
        }
        let expect: f64 = pos
            .schedule
            .flows
            .iter()
            .filter(|f| f.year > by)
            .map(|f| f.total())
            .sum();
        let got: f64 = shifted.flows.iter().map(|f| f.total()).sum();
        assert!((expect - got).abs() < 1e-9);
        for f in &shifted.flows {
            assert!(f.year >= 1);
        }
    });
}

/// parallel_map equals the sequential map for arbitrary sizes/threads.
#[test]
fn parallel_map_equivalence() {
    cases(24, |rng| {
        let (n, threads) = (rng.gen_range(0usize..200), rng.gen_range(1usize..9));
        let salt = rng.gen_range(0u64..100);
        let f = |i: usize| (i as u64).wrapping_mul(salt.wrapping_add(11)) ^ salt;
        let seq: Vec<u64> = (0..n).map(f).collect();
        assert_eq!(seq, parallel_map(n, threads, f));
    });
}

fn nested_generators(inner_horizon: f64) -> (ScenarioGenerator, ScenarioGenerator) {
    let build = |h: f64| {
        ScenarioGenerator::builder()
            .driver(Box::new(
                Vasicek::new(0.03, 0.5, 0.03, 0.008, 0.15).expect("valid"),
            ))
            .driver(Box::new(Gbm::new(100.0, 0.07, 0.18, 0.03).expect("valid")))
            .grid(TimeGrid::new(h, 4).expect("valid"))
            .build()
            .expect("valid")
    };
    (build(1.0), build(inner_horizon))
}

/// The nested procedure with a fresh outer buffer and every inner path's
/// series drawn on its own, year by year, position by position — the
/// reference the workspace-backed kernel path must match to the bit. Each position's inner
/// sum is taken in the book's order: `Φ` folded per path, the discounted
/// `Φ` summed over the paths (`q` ascending) per year, then the residual
/// flows against those sums, year ascending, flows past the horizon on the
/// last year.
fn reference_nested(
    outer: &ScenarioGenerator,
    inner: &ScenarioGenerator,
    fund: &SegregatedFund,
    positions: &[LiabilityPosition],
    config: &NestedConfig,
) -> (Vec<f64>, f64, f64, f64) {
    let mut outer_buf = ScenarioBuffer::new();
    outer
        .generate_into(
            Measure::RealWorld,
            config.n_outer,
            config.seed,
            None,
            &mut outer_buf,
        )
        .expect("outer generation");
    let outer_set = outer_buf.view();
    let spy = outer_set.grid().steps_per_year();
    let shifted: Vec<LiabilityPosition> = positions
        .iter()
        .map(|p| LiabilityPosition {
            schedule: shift_schedule(&p.schedule, 1),
            profit_sharing: p.profit_sharing,
        })
        .collect();

    let mut y1 = Vec::new();
    let mut year1_pv = Vec::new();
    let mut dfs = Vec::new();
    for p in 0..config.n_outer {
        let mut returns = Vec::new();
        fund.annual_returns_into(&outer_set, p, 1, 0, &mut returns)
            .expect("fund returns");
        let i1 = returns[0];
        let df1 = outer_set.discount_factor(p, spy);
        let mut year1 = 0.0;
        let mut phi1 = Vec::new();
        for pos in positions {
            let phi = 1.0 + pos.profit_sharing.readjustment_rate(i1);
            if let Some(flow) = pos.schedule.flows.first() {
                if flow.year == 1 {
                    year1 += flow.total() * phi * df1;
                }
            }
            phi1.push(phi);
        }
        // The inner paths open at the outer path's rate at t = 1 and are
        // drawn a policy year at a time: path `q` takes three normals a year
        // from its stream.
        let rate_start = outer_set.value(p, 0, spy);
        let inner_seed = split_seed(config.seed ^ 0x1AAE_5EED, p as u64);
        let law = inner
            .annual_rates_equity(Measure::RiskNeutral, 0, 1)
            .expect("inner law");
        let points = (law.steps_per_year() + 1) as f64;
        let series: Vec<(Vec<f64>, Vec<f64>)> = (0..config.n_inner)
            .map(|q| {
                let mut z = vec![0.0; 3 * law.n_years()];
                StandardNormal::new().fill(&mut stream_rng(inner_seed, q as u64), &mut z);
                let mut accounts = fund.opening_accounts();
                let (mut rate, mut integral) = (rate_start, 0.0);
                let (mut returns, mut dfs) = (Vec::new(), Vec::new());
                for z in z.chunks(3) {
                    let year = law.draw(rate, [z[0], z[1], z[2]]);
                    let eq_return = year.log_return.exp() - 1.0;
                    returns.push(fund.close_year(&mut accounts, eq_return, year.rate_sum / points));
                    integral += law.dt() * (year.rate_sum - 0.5 * (rate + year.rate_end));
                    dfs.push((-integral).exp());
                    rate = year.rate_end;
                }
                (returns, dfs)
            })
            .collect();
        let n_years = series[0].0.len();
        let mut acc = Vec::new();
        for pos in &shifted {
            let mut phis = vec![1.0; series.len()];
            let mut t = Vec::new();
            for k in 0..n_years {
                let mut sum = 0.0;
                for (phi, (returns, dfs)) in phis.iter_mut().zip(&series) {
                    *phi *= 1.0 + pos.profit_sharing.readjustment_rate(returns[k]);
                    sum += *phi * dfs[k];
                }
                t.push(sum);
            }
            let mut a = 0.0;
            for flow in &pos.schedule.flows {
                a += flow.total() * t[(flow.year as usize).min(n_years) - 1];
            }
            acc.push(a);
        }
        let y: f64 = acc
            .iter()
            .zip(&phi1)
            .map(|(a, phi)| phi * a / config.n_inner as f64)
            .sum();
        y1.push(y);
        year1_pv.push(year1);
        dfs.push(df1);
    }

    let mean = stats::mean(&y1);
    let var_quantile = stats::quantile(&y1, SCR_CONFIDENCE);
    let avg_df = stats::mean(&dfs);
    let scr = (var_quantile - mean) * avg_df;
    let bel = stats::mean(
        &y1.iter()
            .zip(&dfs)
            .zip(&year1_pv)
            .map(|((y, df), fy)| y * df + fy)
            .collect::<Vec<f64>>(),
    );
    (y1, mean, scr, bel)
}

/// The workspace-backed nested engine is bit-identical to the allocating
/// reference — sequential and threaded, for arbitrary seeds and path counts (the reference fills a fresh outer buffer, draws
/// each inner path's series on its own and values the positions one by one
/// from them).
#[test]
fn nested_kernel_bitwise_matches_allocating_reference() {
    cases(8, |rng| {
        let (outer, inner) = nested_generators(6.0);
        let fund = SegregatedFund::italian_typical(10);
        let positions = vec![position(45, 6, 0.8, 1000.0), position(55, 6, 0.85, 700.0)];
        let config = NestedConfig {
            seed: rng.gen_range(0u64..200),
            n_outer: rng.gen_range(2usize..8),
            n_inner: rng.gen_range(1usize..7),
            threads: rng.gen_range(1usize..4),
        };
        let (y1, mean, scr, bel) = reference_nested(&outer, &inner, &fund, &positions, &config);
        let mc = NestedMonteCarlo::new(&outer, &inner, &fund, 1, 0).expect("engine");
        let res = mc.run(&positions, &config).expect("run");
        assert_eq!(res.y1.len(), y1.len());
        for (a, b) in res.y1.iter().zip(&y1) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(res.mean.to_bits(), mean.to_bits());
        assert_eq!(res.scr.to_bits(), scr.to_bits());
        assert_eq!(res.bel.to_bits(), bel.to_bits());
    });
}

/// A single workspace driven through an arbitrary sequence of
/// differently-shaped runs never leaks state: every run equals the same run
/// on a fresh engine-allocated workspace.
#[test]
fn workspace_reuse_never_leaks_state() {
    cases(8, |rng| {
        let (outer, inner) = nested_generators(6.0);
        let fund = SegregatedFund::italian_typical(10);
        let positions = vec![position(50, 6, 0.8, 1000.0)];
        let mc = NestedMonteCarlo::new(&outer, &inner, &fund, 1, 0).expect("engine");
        let mut ws = disar_alm::ValuationWorkspace::new();
        for _ in 0..rng.gen_range(2..4) {
            let config = NestedConfig {
                seed: rng.gen_range(0u64..100),
                n_outer: rng.gen_range(2usize..6),
                n_inner: rng.gen_range(1usize..5),
                threads: 1,
            };
            let reused = mc
                .run_with_workspace(&positions, &config, &mut ws)
                .expect("run");
            let fresh = mc.run(&positions, &config).expect("run");
            assert_eq!(reused, fresh);
        }
    });
}
