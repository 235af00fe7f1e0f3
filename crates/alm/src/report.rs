//! Solvency II balance-sheet composition.
//!
//! The Directive's headline number is the *solvency ratio*: eligible own
//! funds over the SCR. This module composes it from the valuation outputs:
//!
//! ```text
//! technical provisions = BEL + risk margin
//! own funds            = assets − technical provisions
//! solvency ratio       = own funds / SCR
//! ```
//!
//! The risk margin uses the standard cost-of-capital simplification
//! (EIOPA "method 4"): `RM = CoC · SCR · modified duration`, with the
//! regulatory cost-of-capital rate of 6 %.

use crate::nested::NestedResult;
use crate::AlmError;

/// The regulatory cost-of-capital rate (Delegated Regulation art. 39).
pub const COST_OF_CAPITAL_RATE: f64 = 0.06;

/// A composed Solvency II position.
#[derive(Debug, Clone, PartialEq)]
pub struct SolvencyReport {
    /// Market value of assets backing the liabilities.
    pub asset_value: f64,
    /// Best-estimate liability.
    pub bel: f64,
    /// Cost-of-capital risk margin.
    pub risk_margin: f64,
    /// Technical provisions (`BEL + RM`).
    pub technical_provisions: f64,
    /// Eligible own funds (`assets − TP`).
    pub own_funds: f64,
    /// Solvency Capital Requirement.
    pub scr: f64,
    /// `own funds / SCR` — must exceed 1.0 for a compliant undertaking.
    pub solvency_ratio: f64,
}

impl SolvencyReport {
    /// Composes a report from a valuation result.
    ///
    /// `liability_duration` is the modified duration (years) used by the
    /// duration-based risk-margin simplification.
    ///
    /// # Errors
    ///
    /// Returns [`AlmError::InvalidParameter`] for a non-positive asset
    /// value or duration, or a non-positive SCR (the ratio would be
    /// undefined).
    pub fn from_valuation(
        asset_value: f64,
        valuation: &NestedResult,
        liability_duration: f64,
    ) -> Result<Self, AlmError> {
        if !(asset_value > 0.0) {
            return Err(AlmError::InvalidParameter("asset_value must be positive"));
        }
        if !(liability_duration > 0.0) {
            return Err(AlmError::InvalidParameter(
                "liability_duration must be positive",
            ));
        }
        if !(valuation.scr > 0.0) {
            return Err(AlmError::InvalidParameter(
                "SCR must be positive to form a solvency ratio",
            ));
        }
        let risk_margin = COST_OF_CAPITAL_RATE * valuation.scr * liability_duration;
        let technical_provisions = valuation.bel + risk_margin;
        let own_funds = asset_value - technical_provisions;
        Ok(SolvencyReport {
            asset_value,
            bel: valuation.bel,
            risk_margin,
            technical_provisions,
            own_funds,
            scr: valuation.scr,
            solvency_ratio: own_funds / valuation.scr,
        })
    }

    /// `true` when own funds cover the SCR (ratio ≥ 1).
    pub fn is_compliant(&self) -> bool {
        self.solvency_ratio >= 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valuation(bel: f64, scr: f64) -> NestedResult {
        NestedResult {
            y1: vec![bel],
            mean: bel,
            var_quantile: bel + scr,
            scr,
            mean_df1: 1.0,
            bel,
            std_error: 1.0,
        }
    }

    #[test]
    fn composition_identities() {
        let v = valuation(1_000_000.0, 80_000.0);
        let r = SolvencyReport::from_valuation(1_200_000.0, &v, 8.0).unwrap();
        assert!((r.risk_margin - 0.06 * 80_000.0 * 8.0).abs() < 1e-9);
        assert!((r.technical_provisions - (r.bel + r.risk_margin)).abs() < 1e-9);
        assert!((r.own_funds - (r.asset_value - r.technical_provisions)).abs() < 1e-9);
        assert!((r.solvency_ratio - r.own_funds / r.scr).abs() < 1e-12);
    }

    #[test]
    fn compliance_threshold() {
        let v = valuation(1_000_000.0, 100_000.0);
        // Own funds exactly 1x SCR: assets = BEL + RM + SCR.
        let rm = 0.06 * 100_000.0 * 5.0;
        let assets = 1_000_000.0 + rm + 100_000.0;
        let r = SolvencyReport::from_valuation(assets, &v, 5.0).unwrap();
        assert!((r.solvency_ratio - 1.0).abs() < 1e-9);
        assert!(r.is_compliant());
        let thin = SolvencyReport::from_valuation(assets - 50_000.0, &v, 5.0).unwrap();
        assert!(!thin.is_compliant());
    }

    #[test]
    fn more_capital_requirement_lower_ratio() {
        let lo = SolvencyReport::from_valuation(1_500_000.0, &valuation(1e6, 5e4), 8.0).unwrap();
        let hi = SolvencyReport::from_valuation(1_500_000.0, &valuation(1e6, 2e5), 8.0).unwrap();
        assert!(hi.solvency_ratio < lo.solvency_ratio);
    }

    #[test]
    fn validation() {
        let v = valuation(1e6, 8e4);
        assert!(SolvencyReport::from_valuation(0.0, &v, 8.0).is_err());
        assert!(SolvencyReport::from_valuation(1e6, &v, 0.0).is_err());
        let zero_scr = valuation(1e6, 0.0);
        assert!(SolvencyReport::from_valuation(1.5e6, &zero_scr, 8.0).is_err());
    }

    #[test]
    fn report_from_real_valuation() {
        use crate::liability::LiabilityPosition;
        use crate::nested::{NestedConfig, NestedMonteCarlo};
        use crate::SegregatedFund;
        use disar_actuarial::contracts::{Contract, ProductKind, ProfitSharing};
        use disar_actuarial::engine::ActuarialEngine;
        use disar_actuarial::lapse::ConstantLapse;
        use disar_actuarial::model_points::ModelPoint;
        use disar_actuarial::mortality::{Gender, LifeTable};
        use disar_stochastic::drivers::{Gbm, Vasicek};
        use disar_stochastic::scenario::{ScenarioGenerator, TimeGrid};

        let table = LifeTable::italian_population();
        let lapse = ConstantLapse::new(0.03).unwrap();
        let engine = ActuarialEngine::new(&table, &lapse);
        let ps = ProfitSharing::new(0.8, 0.02).unwrap();
        let c = Contract::new(ProductKind::Endowment, 50, Gender::Male, 10, 1000.0, ps)
            .unwrap();
        let positions = vec![LiabilityPosition {
            schedule: engine
                .cash_flow_schedule(&ModelPoint { contract: c, policy_count: 1 })
                .unwrap(),
            profit_sharing: ps,
        }];
        let build = |h: f64| {
            ScenarioGenerator::builder()
                .driver(Box::new(Vasicek::new(0.025, 0.4, 0.028, 0.009, 0.15).unwrap()))
                .driver(Box::new(Gbm::new(100.0, 0.065, 0.17, 0.025).unwrap()))
                .grid(TimeGrid::new(h, 12).unwrap())
                .build()
                .unwrap()
        };
        let outer = build(1.0);
        let inner = build(10.0);
        let fund = SegregatedFund::italian_typical(20);
        let mc = NestedMonteCarlo::new(&outer, &inner, &fund, 1, 0).unwrap();
        let res = mc
            .run(
                &positions,
                &NestedConfig {
                    n_outer: 80,
                    n_inner: 20,
                    seed: 3,
                    threads: 1,
                },
            )
            .unwrap();
        // Assets at 130% of BEL: a well-capitalized book.
        let report = SolvencyReport::from_valuation(1.3 * res.bel, &res, 7.0).unwrap();
        assert!(report.own_funds > 0.0);
        assert!(report.solvency_ratio > 1.0, "{report:?}");
    }
}
