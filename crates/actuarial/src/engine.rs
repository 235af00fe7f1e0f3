//! DiActEng — the Disar Actuarial Engine (type-A EEB evaluation).
//!
//! "DiActEng … receives as input the contractual information, the
//! consistency of policies and the technical information, and it computes on
//! the related schedule the aggregate probabilized flows related to net
//! performance, without loss of information" (§II).
//!
//! Concretely, for each model point this engine computes, per policy year
//! `t`, the probability-weighted *benefit units*: the expected amount that
//! will be paid in year `t` per unit of (pre-readjustment) insured sum,
//! split by decrement cause. The financial part — the readjustment factor
//! `Φ_t` and discounting — is applied later by the ALM engine on each
//! scenario, so no information is lost by this factorization: benefits are
//! linear in the readjusted sum `C_t = C_0 Φ_t`, and the decrements are
//! independent of the financial drivers by assumption.
//!
//! The decrement order within a policy year is: death during the year
//! (mortality table), then lapse at year end conditional on survival.

use crate::contracts::Contract;
use crate::lapse::LapseModel;
use crate::model_points::ModelPoint;
use crate::mortality::LifeTable;
use crate::ActuarialError;

/// Probability-weighted flows for one policy year of one model point.
///
/// All amounts are in *currency units*: decrement probability × total
/// insured sum of the model point (pre-readjustment, i.e. to be multiplied
/// by `Φ_t` scenario-wise).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct YearFlow {
    /// Policy year `t` (1-based: flows paid at the end of year `t`).
    pub year: u32,
    /// Expected death-benefit amount (zero for products without death
    /// cover).
    pub death_benefit: f64,
    /// Expected surrender payment (already scaled by the surrender factor).
    pub lapse_benefit: f64,
    /// Expected maturity payment (non-zero only in the final year of
    /// products with a survival benefit).
    pub maturity_benefit: f64,
    /// Expected annual survival payment (life annuities: the probability-
    /// weighted annuity instalment of the year; zero otherwise).
    pub annuity_benefit: f64,
}

impl YearFlow {
    /// Total expected payment of the year (pre-readjustment).
    pub fn total(&self) -> f64 {
        self.death_benefit + self.lapse_benefit + self.maturity_benefit + self.annuity_benefit
    }
}

/// The probabilized cash-flow schedule of one model point — the output of a
/// type-A elementary elaboration block.
#[derive(Debug, Clone, PartialEq)]
pub struct CashFlowSchedule {
    /// Contract term in years (after whole-life normalization).
    pub term: u32,
    /// One entry per policy year, `flows[t-1]` paid at end of year `t`.
    pub flows: Vec<YearFlow>,
    /// Probability of remaining in force (alive, not lapsed) through the
    /// whole schedule *without* collecting the maturity benefit — zero for
    /// maturity-paying products, positive e.g. for term insurance.
    pub residual_in_force: f64,
}

impl CashFlowSchedule {
    /// Sum of all expected payments (pre-readjustment).
    pub fn total_expected_benefits(&self) -> f64 {
        self.flows.iter().map(YearFlow::total).sum()
    }
}

/// The actuarial engine: owns the mortality table and the lapse model.
pub struct ActuarialEngine<'a> {
    table: &'a LifeTable,
    lapse: &'a dyn LapseModel,
}

impl<'a> ActuarialEngine<'a> {
    /// Creates an engine over a mortality table and a lapse model.
    pub fn new(table: &'a LifeTable, lapse: &'a dyn LapseModel) -> Self {
        ActuarialEngine { table, lapse }
    }

    /// Evaluates the type-A EEB for one model point.
    ///
    /// # Errors
    ///
    /// Returns [`ActuarialError::AgeOutOfRange`] if the issue age exceeds
    /// the table's terminal age.
    pub fn cash_flow_schedule(
        &self,
        point: &ModelPoint,
    ) -> Result<CashFlowSchedule, ActuarialError> {
        let c: &Contract = &point.contract;
        let omega = self.table.omega();
        if c.age > omega {
            return Err(ActuarialError::AgeOutOfRange { age: c.age, omega });
        }
        let term = c.term_years(omega).min(omega - c.age).max(1);
        let sum = c.insured_sum;

        let mut flows = Vec::with_capacity(term as usize);
        // State at the start of year t (1-based): alive and in force.
        let mut in_force = 1.0;
        for t in 1..=term {
            let qx = self.table.qx(c.age + t - 1).unwrap_or(1.0);
            let death_prob = in_force * qx;
            let survive = in_force * (1.0 - qx);
            // Lapse at year end, conditional on having survived the year;
            // no lapse in the maturity year (maturity benefit dominates)
            // and none at all on non-surrenderable products (annuities).
            let lapse_rate = if t < term && c.kind.is_surrenderable() {
                self.lapse.annual_rate(t - 1)
            } else {
                0.0
            };
            let lapse_prob = survive * lapse_rate;

            let death_benefit = if c.kind.has_death_benefit() {
                death_prob * sum
            } else {
                0.0
            };
            let lapse_benefit = lapse_prob * sum * c.surrender_factor;
            let maturity_benefit = if t == term && c.kind.has_maturity_benefit() {
                survive * (1.0 - lapse_rate) * sum
            } else {
                0.0
            };
            let annuity_benefit = if c.kind.has_annual_benefit() {
                survive * sum
            } else {
                0.0
            };
            flows.push(YearFlow {
                year: t,
                death_benefit,
                lapse_benefit,
                maturity_benefit,
                annuity_benefit,
            });
            in_force = survive * (1.0 - lapse_rate);
        }

        let residual_in_force = if c.kind.has_maturity_benefit() {
            0.0
        } else {
            in_force
        };
        Ok(CashFlowSchedule {
            term,
            flows,
            residual_in_force,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contracts::{ProductKind, ProfitSharing};
    use crate::lapse::{ConstantLapse, DurationLapse};
    use crate::mortality::Gender;

    fn point(kind: ProductKind, age: u32, term: u32) -> ModelPoint {
        let c = Contract::new(
            kind,
            age,
            Gender::Male,
            term,
            1000.0,
            ProfitSharing::new(0.8, 0.02).unwrap(),
        )
        .unwrap();
        ModelPoint {
            contract: c,
            policy_count: 1,
        }
    }

    #[test]
    fn pure_endowment_no_lapse_matches_survival() {
        let table = LifeTable::italian_population();
        let lapse = ConstantLapse::new(0.0).unwrap();
        let eng = ActuarialEngine::new(&table, &lapse);
        let sched = eng
            .cash_flow_schedule(&point(ProductKind::PureEndowment, 40, 20))
            .unwrap();
        assert_eq!(sched.flows.len(), 20);
        // Only the final year pays, exactly 20p40 · 1000.
        for f in &sched.flows[..19] {
            assert_eq!(f.total(), 0.0);
        }
        let expect = table.survival_probability(40, 20) * 1000.0;
        assert!((sched.flows[19].maturity_benefit - expect).abs() < 1e-9);
    }

    #[test]
    fn endowment_death_plus_maturity_mass_balances() {
        // Without lapse, P(death in term) + P(survive term) = 1 and the
        // endowment pays in both cases, so expected benefit units over the
        // schedule sum to the full insured amount.
        let table = LifeTable::italian_population();
        let lapse = ConstantLapse::new(0.0).unwrap();
        let eng = ActuarialEngine::new(&table, &lapse);
        let sched = eng
            .cash_flow_schedule(&point(ProductKind::Endowment, 50, 15))
            .unwrap();
        let total = sched.total_expected_benefits();
        assert!((total - 1000.0).abs() < 1e-6, "total {total}");
        assert_eq!(sched.residual_in_force, 0.0);
    }

    #[test]
    fn whole_life_pays_eventually_in_full() {
        let table = LifeTable::italian_population();
        let lapse = ConstantLapse::new(0.0).unwrap();
        let eng = ActuarialEngine::new(&table, &lapse);
        let sched = eng
            .cash_flow_schedule(&point(ProductKind::WholeLife, 60, 0))
            .unwrap();
        // Death is certain by ω, so total death benefits = sum insured.
        let total = sched.total_expected_benefits();
        assert!((total - 1000.0).abs() < 1e-6, "total {total}");
    }

    #[test]
    fn term_insurance_has_residual_survivors() {
        let table = LifeTable::italian_population();
        let lapse = ConstantLapse::new(0.0).unwrap();
        let eng = ActuarialEngine::new(&table, &lapse);
        let sched = eng
            .cash_flow_schedule(&point(ProductKind::TermInsurance, 40, 10))
            .unwrap();
        assert!(sched.residual_in_force > 0.9, "most 40-year-olds survive 10y");
        let death_total: f64 = sched.flows.iter().map(|f| f.death_benefit).sum();
        let expect = (1.0 - table.survival_probability(40, 10)) * 1000.0;
        assert!((death_total - expect).abs() < 1e-9);
        assert_eq!(sched.flows.last().unwrap().maturity_benefit, 0.0);
    }

    #[test]
    fn lapse_shifts_mass_from_maturity_to_surrender() {
        let table = LifeTable::italian_population();
        let no_lapse = ConstantLapse::new(0.0).unwrap();
        let with_lapse = ConstantLapse::new(0.06).unwrap();
        let p = point(ProductKind::Endowment, 45, 20);
        let s0 = ActuarialEngine::new(&table, &no_lapse)
            .cash_flow_schedule(&p)
            .unwrap();
        let s1 = ActuarialEngine::new(&table, &with_lapse)
            .cash_flow_schedule(&p)
            .unwrap();
        let lapse_total: f64 = s1.flows.iter().map(|f| f.lapse_benefit).sum();
        assert!(lapse_total > 0.0);
        assert!(
            s1.flows.last().unwrap().maturity_benefit < s0.flows.last().unwrap().maturity_benefit
        );
        // Surrender penalty makes total expected benefits smaller.
        assert!(s1.total_expected_benefits() < s0.total_expected_benefits());
    }

    #[test]
    fn no_lapse_in_maturity_year() {
        let table = LifeTable::italian_population();
        let lapse = DurationLapse::italian_typical();
        let eng = ActuarialEngine::new(&table, &lapse);
        let sched = eng
            .cash_flow_schedule(&point(ProductKind::Endowment, 40, 10))
            .unwrap();
        assert_eq!(sched.flows[9].lapse_benefit, 0.0);
        assert!(sched.flows[0].lapse_benefit > 0.0);
    }

    #[test]
    fn age_beyond_omega_rejected() {
        let table = LifeTable::italian_population();
        let lapse = ConstantLapse::new(0.0).unwrap();
        let eng = ActuarialEngine::new(&table, &lapse);
        let mut p = point(ProductKind::Endowment, 40, 10);
        p.contract.age = 130;
        assert!(matches!(
            eng.cash_flow_schedule(&p),
            Err(ActuarialError::AgeOutOfRange { .. })
        ));
    }

    #[test]
    fn term_clamped_to_omega() {
        let table = LifeTable::italian_population();
        let lapse = ConstantLapse::new(0.0).unwrap();
        let eng = ActuarialEngine::new(&table, &lapse);
        // 110 + 30 > ω = 120 → clamped to 10 years.
        let sched = eng
            .cash_flow_schedule(&point(ProductKind::Endowment, 110, 30))
            .unwrap();
        assert_eq!(sched.term, 10);
    }

    #[test]
    fn annuity_expected_payments_equal_life_expectancy() {
        // E[Σ annual payments] = R · e_x (curtate life expectancy) when
        // lapse is impossible — the classical actuarial identity.
        let table = LifeTable::italian_population();
        let lapse = ConstantLapse::new(0.10).unwrap(); // must be ignored
        let eng = ActuarialEngine::new(&table, &lapse);
        let p = point(ProductKind::LifeAnnuity, 65, 0);
        let sched = eng.cash_flow_schedule(&p).unwrap();
        let total = sched.total_expected_benefits();
        let expect = 1000.0 * table.curtate_expectancy(65);
        assert!(
            (total - expect).abs() < 1e-6,
            "total {total} vs R*e_x {expect}"
        );
        // No death, lapse or maturity payments on a pure life annuity.
        for f in &sched.flows {
            assert_eq!(f.death_benefit, 0.0);
            assert_eq!(f.lapse_benefit, 0.0);
            assert_eq!(f.maturity_benefit, 0.0);
        }
    }

    #[test]
    fn annuity_payments_decline_with_survivorship() {
        let table = LifeTable::italian_population();
        let lapse = ConstantLapse::new(0.0).unwrap();
        let eng = ActuarialEngine::new(&table, &lapse);
        let sched = eng
            .cash_flow_schedule(&point(ProductKind::LifeAnnuity, 70, 0))
            .unwrap();
        for w in sched.flows.windows(2) {
            assert!(w[1].annuity_benefit <= w[0].annuity_benefit);
        }
        assert!(sched.flows[0].annuity_benefit > 900.0, "most 70-year-olds survive a year");
    }

    #[test]
    fn flows_scale_with_insured_sum() {
        let table = LifeTable::italian_population();
        let lapse = ConstantLapse::new(0.03).unwrap();
        let eng = ActuarialEngine::new(&table, &lapse);
        let p1 = point(ProductKind::Endowment, 40, 10);
        let mut p2 = p1.clone();
        p2.contract.insured_sum *= 3.0;
        let s1 = eng.cash_flow_schedule(&p1).unwrap();
        let s2 = eng.cash_flow_schedule(&p2).unwrap();
        assert!(
            (s2.total_expected_benefits() - 3.0 * s1.total_expected_benefits()).abs() < 1e-9
        );
    }
}
