//! Property tests of the actuarial substrate.

use disar_actuarial::contracts::{Contract, ProductKind, ProfitSharing};
use disar_actuarial::engine::ActuarialEngine;
use disar_actuarial::lapse::ConstantLapse;
use disar_actuarial::model_points::{group_into_model_points, ModelPoint};
use disar_actuarial::mortality::{Gender, LifeTable};
use disar_math::check::{cases, vec_of};

const GENDERS: [Gender; 2] = [Gender::Male, Gender::Female];
const PRODUCTS: [ProductKind; 5] = [
    ProductKind::PureEndowment,
    ProductKind::Endowment,
    ProductKind::TermInsurance,
    ProductKind::WholeLife,
    ProductKind::LifeAnnuity,
];

/// Without lapse, an endowment's expected (undiscounted, pre-readjustment)
/// benefits always equal the insured sum: death and maturity exhaust the
/// probability mass.
#[test]
fn endowment_mass_conservation() {
    cases(64, |rng| {
        let (age, term) = (rng.gen_range(20u32..80), rng.gen_range(1u32..40));
        let sum = rng.gen_range(1.0..1e6);
        let (beta, tech) = (rng.gen_range(0.05..0.95), rng.gen_range(0.0..0.04));
        let table = LifeTable::italian_population();
        let lapse = ConstantLapse::new(0.0).expect("valid");
        let engine = ActuarialEngine::new(&table, &lapse);
        let ps = ProfitSharing::new(beta, tech).expect("valid");
        let c = Contract::new(ProductKind::Endowment, age, Gender::Female, term, sum, ps)
            .expect("valid");
        let sched = engine
            .cash_flow_schedule(&ModelPoint {
                contract: c,
                policy_count: 1,
            })
            .expect("valid");
        let total = sched.total_expected_benefits();
        assert!(
            (total - sum).abs() < 1e-6 * sum,
            "total {total} vs sum {sum}"
        );
    });
}

/// Every schedule's flows are non-negative and within the insured sum per
/// year; the term respects ω.
#[test]
fn schedule_flows_bounded() {
    cases(64, |rng| {
        let kind = PRODUCTS[rng.gen_range(0..PRODUCTS.len())];
        let gender = GENDERS[rng.gen_range(0..GENDERS.len())];
        let (age, term) = (rng.gen_range(20u32..95), rng.gen_range(1u32..40));
        let (sum, lapse_rate) = (rng.gen_range(1.0..1e5), rng.gen_range(0.0..0.3));
        let table = LifeTable::italian_population();
        let lapse = ConstantLapse::new(lapse_rate).expect("valid");
        let engine = ActuarialEngine::new(&table, &lapse);
        let ps = ProfitSharing::new(0.8, 0.02).expect("valid");
        let c = Contract::new(kind, age, gender, term, sum, ps).expect("valid");
        let sched = engine
            .cash_flow_schedule(&ModelPoint {
                contract: c,
                policy_count: 1,
            })
            .expect("age within table");
        assert!(sched.term >= 1);
        assert!(age + sched.term <= table.omega());
        for f in &sched.flows {
            assert!(f.death_benefit >= 0.0);
            assert!(f.lapse_benefit >= 0.0);
            assert!(f.maturity_benefit >= 0.0);
            assert!(f.annuity_benefit >= 0.0);
            assert!(f.total() <= sum * (1.0 + 1e-12), "yearly flow exceeds sum");
        }
        // Total expected benefits never exceed what paying the full sum
        // every possible year would cost.
        assert!(sched.total_expected_benefits() <= sum * sched.term as f64 + 1e-9);
    });
}

/// Grouping into model points conserves policy count and insured sum and is
/// idempotent.
#[test]
fn grouping_conserves_and_is_idempotent() {
    cases(64, |rng| {
        let ages = vec_of(rng, 1..40, |rng| rng.gen_range(20u32..70));
        let term = rng.gen_range(5u32..20);
        let ps = ProfitSharing::new(0.8, 0.02).expect("valid");
        let contracts: Vec<Contract> = ages
            .iter()
            .map(|&a| {
                Contract::new(
                    ProductKind::Endowment,
                    a - a % 5,
                    Gender::Male,
                    term,
                    100.0,
                    ps,
                )
                .expect("valid")
            })
            .collect();
        let n = contracts.len();
        let total: f64 = contracts.iter().map(|c| c.insured_sum).sum();
        let points = group_into_model_points(contracts).expect("non-empty");
        let count: usize = points.iter().map(|p| p.policy_count).sum();
        let grouped: f64 = points.iter().map(|p| p.contract.insured_sum).sum();
        assert_eq!(count, n);
        assert!((grouped - total).abs() < 1e-9);
        // Re-grouping the representatives changes nothing.
        let again = group_into_model_points(points.iter().map(|p| p.contract.clone()).collect())
            .expect("non-empty");
        assert_eq!(again.len(), points.len());
    });
}

/// Higher lapse always weakly lowers total expected benefits (the surrender
/// penalty destroys value).
#[test]
fn lapse_monotonically_erodes_value() {
    cases(64, |rng| {
        let (age, term) = (rng.gen_range(30u32..60), rng.gen_range(5u32..25));
        let (r1, extra): (f64, f64) = (rng.gen_range(0.0..0.15), rng.gen_range(0.01..0.15));
        let table = LifeTable::italian_population();
        let ps = ProfitSharing::new(0.8, 0.02).expect("valid");
        let c = Contract::new(ProductKind::Endowment, age, Gender::Male, term, 1000.0, ps)
            .expect("valid");
        let point = ModelPoint {
            contract: c,
            policy_count: 1,
        };
        let value_at = |rate: f64| {
            let lapse = ConstantLapse::new(rate).expect("valid");
            ActuarialEngine::new(&table, &lapse)
                .cash_flow_schedule(&point)
                .expect("valid")
                .total_expected_benefits()
        };
        let (v_lo, v_hi) = (value_at(r1), value_at((r1 + extra).min(1.0)));
        assert!(
            v_hi <= v_lo + 1e-9,
            "lapse {r1}->{} raised value",
            r1 + extra
        );
    });
}

/// The insured-sum path under profit sharing is exactly `C_0 · Φ_t`.
#[test]
fn sum_path_matches_factor() {
    cases(64, |rng| {
        let (beta, tech) = (rng.gen_range(0.05..0.95), rng.gen_range(0.0..0.05));
        let c0 = rng.gen_range(1.0..1e5);
        let returns = vec_of(rng, 1..20, |rng| rng.gen_range(-0.3..0.3));
        let ps = ProfitSharing::new(beta, tech).expect("valid");
        let path = ps.insured_sum_path(c0, &returns);
        for (t, ct) in path.iter().enumerate() {
            let phi = ps.readjustment_factor(&returns[..t]);
            assert!((ct - c0 * phi).abs() < 1e-9 * ct.max(1.0));
        }
    });
}
