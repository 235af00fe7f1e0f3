//! Per-worker valuation workspaces for the nested Monte Carlo hot path.
//!
//! The nested procedure evaluates `nP × nQ` inner valuations; before this
//! layer existed, every one of them heap-allocated (a fresh inner scenario
//! set, fund-return and discount-factor vectors, a per-position result
//! `Vec`). A [`ValuationWorkspace`] gathers all of the scratch into
//! one struct that is created **once per outer-loop worker thread** and
//! reused across every outer path of that worker's chunk — steady-state
//! inner-loop allocations drop to zero.
//!
//! Every field is pure scratch: it is fully rewritten before being read on
//! each outer path, so reuse cannot leak state between paths, runs or
//! configurations — which is also why the workspace-backed loop stays
//! bit-identical to the allocating implementation it replaced (see
//! DESIGN.md §10).

use crate::liability::ValuationPanels;
use crate::nested::NestedConfig;
use disar_stochastic::scenario::ScenarioGenerator;

/// Reusable scratch for valuing outer paths of a nested Monte Carlo run.
///
/// Obtain one presized via `NestedMonteCarlo::workspace_for` (or start
/// empty with [`ValuationWorkspace::new`] — the first outer path then
/// warms it up). The workspace owns:
///
/// * the year-major panels of the inner paths' fund returns and discount
///   factors, with one path's normals,
/// * the per-position inner-PV accumulator, the pairs' `Φ_1` factors, one
///   pair's cumulative `Φ` row over all inner paths, the pairs' discounted
///   `Φ` summed over the paths per year, and the outer path's annual
///   returns.
#[derive(Debug, Clone, Default)]
pub struct ValuationWorkspace {
    /// The inner paths' year-major return and discount-factor panels.
    pub(crate) panels: ValuationPanels,
    /// One pair's cumulative `Φ` up to the year being folded, one entry per
    /// inner path.
    pub(crate) phi: Vec<f64>,
    /// Per pair and year, `Σ_q Φ · df` over the inner paths, `[pair][year]`.
    pub(crate) table: Vec<f64>,
    /// Per-position accumulator over the `nQ` inner paths.
    pub(crate) acc: Vec<f64>,
    /// Per-pair first-year readjustment factors `Φ_1`.
    pub(crate) phi1: Vec<f64>,
    /// Annual fund returns along the outer path.
    pub(crate) outer_returns: Vec<f64>,
}

impl ValuationWorkspace {
    /// An empty workspace; the first outer path sizes it.
    pub fn new() -> Self {
        Self::default()
    }

    /// A workspace presized for `config` runs of a nested engine built on
    /// `outer`/`inner` generators and `n_positions` liability positions —
    /// even the first outer path then performs zero heap allocations
    /// (`phi1` and `table`: as if every position had its own pair).
    pub fn sized_for(
        outer: &ScenarioGenerator,
        inner: &ScenarioGenerator,
        config: &NestedConfig,
        n_positions: usize,
    ) -> Self {
        let mut ws = Self::default();
        let inner_years = inner.grid().n_steps() / inner.grid().steps_per_year();
        let outer_years = outer.grid().n_steps() / outer.grid().steps_per_year();
        ws.panels.reserve(config.n_inner, inner_years);
        ws.phi.reserve(config.n_inner);
        ws.table.reserve(n_positions * inner_years);
        ws.acc.reserve(n_positions);
        ws.phi1.reserve(n_positions);
        ws.outer_returns.reserve(outer_years.max(1));
        ws
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disar_stochastic::drivers::{Gbm, Vasicek};
    use disar_stochastic::scenario::TimeGrid;

    fn generator(horizon: f64) -> ScenarioGenerator {
        ScenarioGenerator::builder()
            .driver(Box::new(Vasicek::new(0.03, 0.5, 0.03, 0.008, 0.15).unwrap()))
            .driver(Box::new(Gbm::new(100.0, 0.07, 0.18, 0.03).unwrap()))
            .grid(TimeGrid::new(horizon, 12).unwrap())
            .build()
            .unwrap()
    }

    #[test]
    fn sized_for_reserves_position_vectors() {
        let outer = generator(1.0);
        let inner = generator(10.0);
        let config = NestedConfig::paper_defaults(1);
        let ws = ValuationWorkspace::sized_for(&outer, &inner, &config, 7);
        assert!(ws.phi.capacity() >= 50);
        assert!(ws.table.capacity() >= 7 * 10);
        assert!(ws.acc.capacity() >= 7);
        assert!(ws.phi1.capacity() >= 7);
        assert!(ws.outer_returns.capacity() >= 1);
        assert!(ws.panels.returns.capacity() >= 50 * 10);
        assert!(ws.panels.dfs.capacity() >= 50 * 10);
    }

    #[test]
    fn default_workspace_is_empty() {
        let ws = ValuationWorkspace::new();
        assert!(ws.phi.is_empty() && ws.acc.is_empty() && ws.phi1.is_empty());
    }
}
