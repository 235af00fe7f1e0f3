//! Simulation specification and market-model construction.
//!
//! A [`SimulationSpec`] is everything a Solvency II run needs: the policy
//! portfolio, the segregated fund backing it, the market model (risk
//! drivers + correlations) and the Monte Carlo sizes `nP`/`nQ`. It also
//! carries the *characteristic parameters* the paper's ML models key on.

use crate::EngineError;
use disar_actuarial::portfolio::Portfolio;
use disar_alm::{NestedConfig, SegregatedFund};
use disar_stochastic::drivers::{Cir, FxRate, Gbm, Vasicek};
use disar_stochastic::scenario::{ScenarioGenerator, TimeGrid};
use disar_stochastic::CorrelationMatrix;

/// The value of the ignored [`SimulationSpec::lane`]. Only the frozen
/// benchmark adapter's `SimulationSpec` literal needs the name; ROADMAP
/// direction 1a deletes it together with `SimulationSpec.lane`.
pub const DEFAULT_LANE: usize = 8;

/// How rich the market model is — drives the paper's "number of financial
/// risk-factors" feature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MarketModel {
    /// Short rate + equity (2 risk factors).
    RatesEquity,
    /// Short rate + equity + FX (3 risk factors).
    RatesEquityFx,
    /// Short rate + equity + FX + credit intensity (4 risk factors).
    Full,
}

impl MarketModel {
    /// Number of financial risk factors in the model.
    pub fn risk_factors(self) -> usize {
        match self {
            MarketModel::RatesEquity => 2,
            MarketModel::RatesEquityFx => 3,
            MarketModel::Full => 4,
        }
    }

    /// Index of the equity driver in generators built from this model.
    pub fn equity_driver(self) -> usize {
        1
    }

    /// Index of the short-rate driver in generators built from this model.
    pub fn rate_driver(self) -> usize {
        0
    }

    /// Builds a scenario generator over `horizon` years at `steps_per_year`
    /// resolution. Driver order: rate, equity, \[fx\], \[credit\].
    ///
    /// # Errors
    ///
    /// Propagates driver/grid construction failures (none for the built-in
    /// parameterization).
    pub fn build_generator(
        self,
        horizon: f64,
        steps_per_year: usize,
    ) -> Result<ScenarioGenerator, EngineError> {
        let mut builder = ScenarioGenerator::builder()
            .driver(Box::new(Vasicek::new(0.025, 0.35, 0.028, 0.009, 0.18)?))
            .driver(Box::new(Gbm::new(100.0, 0.065, 0.17, 0.025)?));
        let correlation = match self {
            MarketModel::RatesEquity => {
                CorrelationMatrix::new(vec![vec![1.0, -0.25], vec![-0.25, 1.0]])?
            }
            MarketModel::RatesEquityFx => {
                builder = builder.driver(Box::new(FxRate::new(1.1, 0.01, 0.09, 0.005)?));
                CorrelationMatrix::new(vec![
                    vec![1.0, -0.25, 0.10],
                    vec![-0.25, 1.0, -0.15],
                    vec![0.10, -0.15, 1.0],
                ])?
            }
            MarketModel::Full => {
                builder = builder
                    .driver(Box::new(FxRate::new(1.1, 0.01, 0.09, 0.005)?))
                    .driver(Box::new(Cir::default_intensity(0.012, 0.6, 0.015, 0.05)?));
                CorrelationMatrix::new(vec![
                    vec![1.0, -0.25, 0.10, 0.20],
                    vec![-0.25, 1.0, -0.15, -0.30],
                    vec![0.10, -0.15, 1.0, 0.05],
                    vec![0.20, -0.30, 0.05, 1.0],
                ])?
            }
        };
        builder
            .correlation(correlation)
            .grid(TimeGrid::new(horizon, steps_per_year)?)
            .build()
            .map_err(EngineError::from)
    }
}

/// A complete Solvency II simulation request — what a DISAR user submits
/// through DiInt.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationSpec {
    /// The policy portfolio.
    pub portfolio: Portfolio,
    /// The segregated fund backing the portfolio.
    pub fund: SegregatedFund,
    /// Market-model richness.
    pub market: MarketModel,
    /// Outer ("natural") path count `nP`.
    pub n_outer: usize,
    /// Inner (risk-neutral) path count `nQ`.
    pub n_inner: usize,
    /// Scenario resolution (steps per year of the fine grid).
    pub steps_per_year: usize,
    /// Master seed of the whole run.
    pub seed: u64,
    /// Ignored: the scenario fill steps one path at a time and takes no
    /// width. Declared only because the struct literal in
    /// `benchmark/src/adapter.rs` names it; it goes when a benchmark PR
    /// drops it from that literal.
    pub lane: usize,
}

impl SimulationSpec {
    /// The paper's §IV setting: `nQ = 50`, `nP = 1000`, monthly grid.
    pub fn paper_defaults(
        portfolio: Portfolio,
        fund: SegregatedFund,
        seed: u64,
    ) -> Self {
        SimulationSpec {
            portfolio,
            fund,
            market: MarketModel::RatesEquity,
            n_outer: 1000,
            n_inner: 50,
            steps_per_year: 12,
            seed,
            lane: DEFAULT_LANE,
        }
    }

    /// The nested-Monte-Carlo configuration this spec induces: its path
    /// counts and seed, sequential. Callers that parallelize set `threads`
    /// on the copy they pass down, as the master's local run does: the
    /// fan-out is over the outer paths of one nested run, never across
    /// EEBs, which would regenerate the same scenarios once per EEB.
    pub fn nested_config(&self) -> NestedConfig {
        NestedConfig {
            n_outer: self.n_outer,
            n_inner: self.n_inner,
            seed: self.seed,
            threads: 1,
        }
    }

    /// Validates the Monte Carlo sizes.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidParameter`] for zero path counts or
    /// resolution.
    pub fn validate(&self) -> Result<(), EngineError> {
        if self.n_outer == 0 || self.n_inner == 0 {
            return Err(EngineError::InvalidParameter(
                "n_outer and n_inner must be > 0",
            ));
        }
        if self.steps_per_year == 0 {
            return Err(EngineError::InvalidParameter("steps_per_year must be > 0"));
        }
        if self.portfolio.model_points.is_empty() {
            return Err(EngineError::InvalidParameter("portfolio is empty"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disar_actuarial::portfolio::PortfolioSpec;
    use disar_stochastic::scenario::{Measure, ScenarioBuffer};

    fn small_portfolio() -> Portfolio {
        PortfolioSpec {
            n_policies: 100,
            ..PortfolioSpec::default()
        }
        .generate("t", 1)
        .unwrap()
    }

    #[test]
    fn risk_factor_counts() {
        assert_eq!(MarketModel::RatesEquity.risk_factors(), 2);
        assert_eq!(MarketModel::RatesEquityFx.risk_factors(), 3);
        assert_eq!(MarketModel::Full.risk_factors(), 4);
    }

    #[test]
    fn generators_have_declared_driver_count() {
        for m in [
            MarketModel::RatesEquity,
            MarketModel::RatesEquityFx,
            MarketModel::Full,
        ] {
            let g = m.build_generator(5.0, 12).unwrap();
            assert_eq!(g.n_drivers(), m.risk_factors());
            // Smoke-generate a couple of paths.
            let mut buf = ScenarioBuffer::new();
            g.generate_into(Measure::RiskNeutral, 2, 1, None, &mut buf)
                .unwrap();
            assert_eq!(buf.view().n_drivers(), m.risk_factors());
            assert_eq!(buf.view().short_rate_index(), Some(0));
        }
    }

    #[test]
    fn paper_defaults_match_section_iv() {
        let spec = SimulationSpec::paper_defaults(
            small_portfolio(),
            SegregatedFund::italian_typical(30),
            7,
        );
        assert_eq!(spec.n_outer, 1000);
        assert_eq!(spec.n_inner, 50);
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn nested_config_mirrors_spec() {
        let spec = SimulationSpec::paper_defaults(
            small_portfolio(),
            SegregatedFund::italian_typical(30),
            42,
        );
        let cfg = spec.nested_config();
        assert_eq!(cfg.n_outer, spec.n_outer);
        assert_eq!(cfg.n_inner, spec.n_inner);
        assert_eq!(cfg.seed, spec.seed);
        assert_eq!(cfg.threads, 1);
    }

    #[test]
    fn validation_rejects_bad_sizes() {
        let mut spec = SimulationSpec::paper_defaults(
            small_portfolio(),
            SegregatedFund::italian_typical(30),
            7,
        );
        spec.n_outer = 0;
        assert!(spec.validate().is_err());
        spec.n_outer = 10;
        spec.steps_per_year = 0;
        assert!(spec.validate().is_err());
    }
}
