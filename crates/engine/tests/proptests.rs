//! Property tests of the DISAR orchestration layer.

use disar_actuarial::portfolio::PortfolioSpec;
use disar_alm::SegregatedFund;
use disar_engine::complexity::ComplexityModel;
use disar_engine::eeb::{decompose, EebKind};
use disar_engine::simulation::{MarketModel, SimulationSpec, DEFAULT_LANE};
use disar_math::check::cases;
use disar_math::rng::Xoshiro256PlusPlus;

fn any_spec(rng: &mut Xoshiro256PlusPlus) -> SimulationSpec {
    let n_policies = rng.gen_range(50usize..400);
    let (n_outer, n_inner) = (rng.gen_range(10usize..200), rng.gen_range(2usize..30));
    let markets = [
        MarketModel::RatesEquity,
        MarketModel::RatesEquityFx,
        MarketModel::Full,
    ];
    let market = markets[rng.gen_range(0..markets.len())];
    let seed = rng.gen_range(0u64..100);
    let portfolio = PortfolioSpec {
        n_policies,
        ..PortfolioSpec::default()
    }
    .generate("prop", seed)
    .expect("valid spec");
    SimulationSpec {
        portfolio,
        fund: SegregatedFund::italian_typical(20),
        market,
        n_outer,
        n_inner,
        steps_per_year: 12,
        seed,
        lane: DEFAULT_LANE,
    }
}

/// Decomposition conserves model points (in the type-B view), pairs every
/// block with a type-A sibling, and yields balanced block sizes.
#[test]
fn decomposition_invariants() {
    cases(48, |rng| {
        let (spec, n_blocks) = (any_spec(rng), rng.gen_range(1usize..10));
        let points = spec.portfolio.model_points.len();
        if n_blocks > points {
            return;
        }
        let eebs = decompose(&spec, n_blocks).expect("valid");
        assert_eq!(eebs.len(), 2 * n_blocks);
        let b_sizes: Vec<usize> = eebs
            .iter()
            .filter(|e| e.kind == EebKind::AlmValuation)
            .map(|e| e.model_points.len())
            .collect();
        assert_eq!(b_sizes.iter().sum::<usize>(), points);
        let min = b_sizes.iter().min().expect("non-empty");
        let max = b_sizes.iter().max().expect("non-empty");
        assert!(max - min <= 1);
        for e in &eebs {
            assert_eq!(
                e.characteristics.representative_contracts,
                e.model_points.len()
            );
            assert_eq!(e.characteristics.risk_factors, spec.market.risk_factors());
        }
    });
}

/// Complexity estimates are positive, linear in path pairs, and monotone in
/// every characteristic parameter.
#[test]
fn complexity_monotonicity() {
    cases(48, |rng| {
        let spec = any_spec(rng);
        let m = ComplexityModel::default();
        let eebs = decompose(&spec, 2).expect("valid");
        let b = eebs
            .iter()
            .find(|e| e.kind == EebKind::AlmValuation)
            .expect("exists");
        let w = m.work_units(b, &spec);
        assert!(w > 0.0);

        let mut doubled = spec.clone();
        doubled.n_outer *= 2;
        let w2 = m.work_units(b, &doubled);
        assert!((w2 / w - 2.0).abs() < 1e-9);

        let mut bigger = b.clone();
        bigger.characteristics.representative_contracts += 10;
        assert!(m.work_units(&bigger, &spec) > w);
        let mut longer = b.clone();
        longer.characteristics.max_horizon += 5;
        assert!(m.work_units(&longer, &spec) > w);
    });
}

/// The merged cloud workload equals the sum of per-block workloads.
#[test]
fn merged_workload_additive() {
    cases(48, |rng| {
        let (spec, n_blocks) = (any_spec(rng), rng.gen_range(1usize..8));
        if n_blocks > spec.portfolio.model_points.len() {
            return;
        }
        let m = ComplexityModel::default();
        let eebs = decompose(&spec, n_blocks).expect("valid");
        let merged = m.merged_workload(&eebs, &spec).expect("has type-B");
        let sum: f64 = eebs
            .iter()
            .filter(|e| e.kind == EebKind::AlmValuation)
            .map(|e| m.workload(e, &spec).expect("type-B").work_units)
            .sum();
        assert!((merged.work_units - sum).abs() < 1e-6 * sum.max(1.0));
    });
}
