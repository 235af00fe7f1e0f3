//! Complexity estimation — DiMaS "estimates the complexity of the
//! elaborations" (§II).
//!
//! The cost drivers of a type-B EEB are exactly the paper's characteristic
//! parameters: a nested valuation touches every (outer path × inner path ×
//! policy year × representative contract), risk-factor count scales the
//! scenario-generation work, and the fund's asset count scales the per-step
//! bookkeeping. The estimator maps an EEB to a [`Workload`] in abstract
//! work units (≈ reference-core seconds) that the cloud simulator prices.

use crate::eeb::{Eeb, EebKind};
use crate::simulation::SimulationSpec;
use crate::EngineError;
use disar_cloudsim::Workload;

/// Tunable coefficients of the complexity model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComplexityModel {
    /// Work units per (contract × horizon-year × path-pair) for type B.
    pub alm_unit_cost: f64,
    /// Work units per (contract × horizon-year) for type A.
    pub actuarial_unit_cost: f64,
    /// Extra work per risk factor (scenario generation), multiplicative.
    pub risk_factor_cost: f64,
    /// Extra work per fund asset position, multiplicative per 10 assets.
    pub asset_cost: f64,
    /// Memory per representative contract (GiB).
    pub memory_per_contract_gib: f64,
    /// Scatter+gather payload per contract (MiB).
    pub transfer_per_contract_mib: f64,
    /// Serial (non-parallelizable) fraction of a type-B job.
    pub serial_fraction: f64,
}

impl Default for ComplexityModel {
    fn default() -> Self {
        ComplexityModel {
            alm_unit_cost: 2.4e-6,
            actuarial_unit_cost: 1e-5,
            risk_factor_cost: 0.35,
            asset_cost: 0.08,
            memory_per_contract_gib: 0.02,
            transfer_per_contract_mib: 0.8,
            serial_fraction: 0.05,
        }
    }
}

impl ComplexityModel {
    /// Estimated work units for one EEB under the given simulation sizes.
    pub fn work_units(&self, eeb: &Eeb, spec: &SimulationSpec) -> f64 {
        let c = &eeb.characteristics;
        let contracts = c.representative_contracts as f64;
        let horizon = c.max_horizon as f64;
        let factor_scale = 1.0 + self.risk_factor_cost * (c.risk_factors as f64 - 1.0);
        let asset_scale = 1.0 + self.asset_cost * (c.fund_assets as f64 / 10.0);
        match eeb.kind {
            EebKind::ActuarialValuation => {
                self.actuarial_unit_cost * contracts * horizon
            }
            EebKind::AlmValuation => {
                let path_pairs = (spec.n_outer * spec.n_inner) as f64;
                self.alm_unit_cost
                    * contracts
                    * horizon
                    * path_pairs
                    * factor_scale
                    * asset_scale
                    * spec.steps_per_year as f64
                    / 12.0
            }
        }
    }

    /// The full cloud workload of one type-B EEB.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidParameter`] when called on a type-A
    /// block (those are not offloaded) or when the estimate degenerates.
    pub fn workload(&self, eeb: &Eeb, spec: &SimulationSpec) -> Result<Workload, EngineError> {
        if eeb.kind != EebKind::AlmValuation {
            return Err(EngineError::InvalidParameter(
                "only type-B EEBs are offloaded to the cloud",
            ));
        }
        let contracts = eeb.characteristics.representative_contracts as f64;
        Workload::new(
            self.work_units(eeb, spec),
            self.memory_per_contract_gib * contracts,
            self.transfer_per_contract_mib * contracts,
            self.serial_fraction,
        )
        .map_err(|_| EngineError::InvalidParameter("degenerate workload estimate"))
    }

    /// Merged workload of several type-B EEBs submitted as one cloud job.
    ///
    /// # Errors
    ///
    /// Propagates [`ComplexityModel::workload`]; rejects an empty slice.
    pub fn merged_workload(
        &self,
        eebs: &[Eeb],
        spec: &SimulationSpec,
    ) -> Result<Workload, EngineError> {
        let mut iter = eebs
            .iter()
            .filter(|e| e.kind == EebKind::AlmValuation);
        let first = iter
            .next()
            .ok_or(EngineError::InvalidParameter("no type-B EEBs to merge"))?;
        let mut acc = self.workload(first, spec)?;
        for e in iter {
            acc = acc.merge(&self.workload(e, spec)?);
        }
        Ok(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eeb::decompose;
    use crate::simulation::MarketModel;
    use disar_actuarial::portfolio::PortfolioSpec;
    use disar_alm::SegregatedFund;

    fn spec(n_outer: usize, n_inner: usize, market: MarketModel) -> SimulationSpec {
        let portfolio = PortfolioSpec {
            n_policies: 1_500,
            ..PortfolioSpec::default()
        }
        .generate("t", 5)
        .unwrap();
        SimulationSpec {
            portfolio,
            fund: SegregatedFund::italian_typical(30),
            market,
            n_outer,
            n_inner,
            steps_per_year: 12,
            seed: 1,
            lane: crate::simulation::DEFAULT_LANE,
        }
    }

    #[test]
    fn type_b_dominates_type_a() {
        let s = spec(1000, 50, MarketModel::RatesEquity);
        let eebs = decompose(&s, 3).unwrap();
        let m = ComplexityModel::default();
        let a: f64 = eebs
            .iter()
            .filter(|e| e.kind == EebKind::ActuarialValuation)
            .map(|e| m.work_units(e, &s))
            .sum();
        let b: f64 = eebs
            .iter()
            .filter(|e| e.kind == EebKind::AlmValuation)
            .map(|e| m.work_units(e, &s))
            .sum();
        assert!(
            b > 100.0 * a,
            "ALM work ({b}) must dwarf actuarial work ({a}) — the paper's premise"
        );
    }

    #[test]
    fn work_scales_linearly_in_paths() {
        let s1 = spec(500, 50, MarketModel::RatesEquity);
        let s2 = spec(1000, 50, MarketModel::RatesEquity);
        let m = ComplexityModel::default();
        let e1 = decompose(&s1, 2).unwrap();
        let e2 = decompose(&s2, 2).unwrap();
        let b1 = m.work_units(&e1[1], &s1);
        let b2 = m.work_units(&e2[1], &s2);
        assert!((b2 / b1 - 2.0).abs() < 1e-9, "ratio {}", b2 / b1);
    }

    #[test]
    fn more_risk_factors_more_work() {
        let s2 = spec(500, 50, MarketModel::RatesEquity);
        let s4 = spec(500, 50, MarketModel::Full);
        let m = ComplexityModel::default();
        let b2 = m.work_units(&decompose(&s2, 2).unwrap()[1], &s2);
        let b4 = m.work_units(&decompose(&s4, 2).unwrap()[1], &s4);
        assert!(b4 > b2);
    }

    #[test]
    fn workload_only_for_type_b() {
        let s = spec(100, 10, MarketModel::RatesEquity);
        let eebs = decompose(&s, 2).unwrap();
        let m = ComplexityModel::default();
        let a = eebs
            .iter()
            .find(|e| e.kind == EebKind::ActuarialValuation)
            .unwrap();
        let b = eebs
            .iter()
            .find(|e| e.kind == EebKind::AlmValuation)
            .unwrap();
        assert!(m.workload(a, &s).is_err());
        let wl = m.workload(b, &s).unwrap();
        assert!(wl.work_units > 0.0);
        assert!(wl.memory_gib > 0.0);
        assert_eq!(wl.serial_fraction, m.serial_fraction);
    }

    #[test]
    fn merged_workload_adds_up() {
        let s = spec(100, 10, MarketModel::RatesEquity);
        let eebs = decompose(&s, 3).unwrap();
        let m = ComplexityModel::default();
        let merged = m.merged_workload(&eebs, &s).unwrap();
        let sum: f64 = eebs
            .iter()
            .filter(|e| e.kind == EebKind::AlmValuation)
            .map(|e| m.workload(e, &s).unwrap().work_units)
            .sum();
        assert!((merged.work_units - sum).abs() < 1e-9);
        assert!(m.merged_workload(&[], &s).is_err());
    }

    #[test]
    fn paper_scale_runs_take_minutes_not_days() {
        // The paper reports execution times up to ~4000 s (Fig. 2). A full
        // paper-scale simulation (1000×50) on our default complexity model
        // should land in that order of magnitude on one reference core
        // (before the ~5-9× instance speedup).
        let s = spec(1000, 50, MarketModel::RatesEquity);
        let m = ComplexityModel::default();
        let merged = m
            .merged_workload(&decompose(&s, 5).unwrap(), &s)
            .unwrap();
        assert!(
            (1_000.0..100_000.0).contains(&merged.work_units),
            "sequential seconds ≈ {}",
            merged.work_units
        );
    }
}
