//! The nested Monte Carlo procedure of §II and the SCR.
//!
//! "A nested Monte Carlo simulation is … a two stage procedure in which:
//! (1) nP independent sample paths of the risk drivers are generated from
//! t = 0 to t = 1 under the real world measure P …; (2) for each of the nP
//! paths, nQ independent sample paths from t = 1 to t = T are generated
//! under risk-neutral probability Q, conditional to the filtration F_1."
//!
//! The quantity of interest is the distribution of `Y_1` — the value at
//! `t = 1` of the liabilities — whose 99.5 % quantile defines the Solvency
//! Capital Requirement. Each outer path contributes
//!
//! ```text
//! Y_1(p) = Σ_pos Φ_1^pos(p) · (1/nQ) Σ_q PV_inner(pos, q | state_p)
//! ```
//!
//! where `Φ_1^pos(p)` is the position's first-year readjustment realized on
//! the outer path (benefits are linear in the readjusted sum, so the
//! factorization is exact). The inner sum is taken over the paths before the
//! flows: `Φ` depends on a position only through its profit-sharing pair, so
//! the discounted `Φ` is summed over the `nQ` paths once per pair and year,
//! and each position's residual flows are weighted by its pair's sums
//! (DESIGN.md §10.5). That exchange is exact in real arithmetic and moves the
//! figures by rounding only. The inner paths are not stepped on the grid:
//! each is drawn one policy year at a time from the exact Gaussian law of
//! what the fund and the book read of the year (the equity ratio, the
//! closing rate, the rate's grid sum) given the year's opening rate, three
//! normals a year ([`AnnualRatesEquity`], DESIGN.md §12.4); a step-by-step
//! path gives the same law. The segregated fund's accounting state is
//! re-initialized at `t = 1` — a documented approximation: the book-yield
//! EMA carries one year of memory that we reset, which perturbs values far
//! less than the Monte Carlo noise at the paper's `nQ = 50`.

use crate::fund::SegregatedFund;
use crate::liability::{LiabilityBook, LiabilityPosition, PathValue};
use crate::workspace::ValuationWorkspace;
use crate::AlmError;
use disar_math::parallel::parallel_map_mut;
use disar_math::rng::split_seed;
use disar_math::stats;
use disar_stochastic::annual::AnnualRatesEquity;
use disar_stochastic::scenario::{Measure, ScenarioBuffer, ScenarioGenerator, ScenarioView};

/// The confidence level of the one-year VaR that defines the SCR, fixed by
/// the Solvency II Directive: the nested run, LSMC and the master's
/// aggregate all take their quantile here.
pub const SCR_CONFIDENCE: f64 = 0.995;

/// Configuration of a nested run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NestedConfig {
    /// Number of outer (real-world, "natural") paths `nP`.
    pub n_outer: usize,
    /// Number of inner (risk-neutral) paths `nQ` per outer path.
    pub n_inner: usize,
    /// Master seed; outer/inner streams are derived deterministically.
    pub seed: u64,
    /// Worker threads for the outer loop (1 = sequential).
    pub threads: usize,
}

impl NestedConfig {
    /// The paper's experimental setting: `nQ = 50` inner iterations,
    /// `nP = 1000` natural iterations, sequential.
    pub fn paper_defaults(seed: u64) -> Self {
        NestedConfig {
            n_outer: 1000,
            n_inner: 50,
            seed,
            threads: 1,
        }
    }

    fn validate(&self) -> Result<(), AlmError> {
        if self.n_outer == 0 || self.n_inner == 0 {
            return Err(AlmError::InvalidParameter(
                "n_outer and n_inner must be > 0",
            ));
        }
        if self.threads == 0 {
            return Err(AlmError::InvalidParameter("threads must be > 0"));
        }
        Ok(())
    }
}

/// Result of a nested (or LSMC) valuation.
#[derive(Debug, Clone, PartialEq)]
pub struct NestedResult {
    /// Liability value at `t = 1` per outer path.
    pub y1: Vec<f64>,
    /// Mean of `y1`.
    pub mean: f64,
    /// Quantile of `y1` at [`SCR_CONFIDENCE`].
    pub var_quantile: f64,
    /// Solvency Capital Requirement: `(quantile − mean)` discounted to 0 at
    /// `mean_df1`.
    pub scr: f64,
    /// Mean over the outer paths of the discount factor from `t = 1` to 0.
    /// Every block of one run shares the outer paths, so it shares this too.
    pub mean_df1: f64,
    /// Best-estimate liability at `t = 0`: discounted mean of `y1` plus the
    /// discounted expected first-year flows.
    pub bel: f64,
    /// Monte Carlo standard error of `mean`.
    pub std_error: f64,
}

/// The nested Monte Carlo valuation engine.
///
/// Owns the two scenario generators: `outer` must cover `[0, 1]` years,
/// `inner` must cover the residual liability horizon, and both must be
/// built over the *same driver list in the same order* (the inner paths are
/// re-anchored at outer endpoint states).
///
/// The outer stage steps `outer`'s grid. The inner stage does not: it draws
/// each inner path one policy year at a time from the exact law of the
/// year's equity ratio, closing rate and rate sum given the opening rate
/// ([`AnnualRatesEquity`], built once from `inner`), which is all the fund
/// and the book read of a path. The fund reads equity ratios only, so the
/// outer endpoint's rate `r_1` is the whole anchor; `inner`'s other drivers
/// (an FX rate, a credit intensity) are not drawn.
pub struct NestedMonteCarlo<'a> {
    outer: &'a ScenarioGenerator,
    inner: &'a ScenarioGenerator,
    /// The inner stage's one-year law under `Q`.
    inner_years: AnnualRatesEquity,
    fund: &'a SegregatedFund,
    equity_driver: usize,
    rate_driver: usize,
}

impl<'a> NestedMonteCarlo<'a> {
    /// Creates the engine.
    ///
    /// # Errors
    ///
    /// Returns [`AlmError::ScenarioMismatch`] if the two generators have a
    /// different driver count, the driver indices are out of range, the
    /// outer grid is shorter than a year, or `inner` has no one-year law for
    /// the pair ([`ScenarioGenerator::annual_rates_equity`]: the rate driver
    /// is not a Vasicek short rate, say a CIR one, or the equity driver does
    /// not step by the exact lognormal transition, say a driver on the
    /// `Generic` coefficients).
    pub fn new(
        outer: &'a ScenarioGenerator,
        inner: &'a ScenarioGenerator,
        fund: &'a SegregatedFund,
        equity_driver: usize,
        rate_driver: usize,
    ) -> Result<Self, AlmError> {
        if outer.n_drivers() != inner.n_drivers() {
            return Err(AlmError::ScenarioMismatch(format!(
                "outer has {} drivers, inner has {}",
                outer.n_drivers(),
                inner.n_drivers()
            )));
        }
        if equity_driver >= outer.n_drivers() || rate_driver >= outer.n_drivers() {
            return Err(AlmError::ScenarioMismatch(
                "driver index out of range".to_string(),
            ));
        }
        if outer.grid().horizon() < 1.0 {
            return Err(AlmError::ScenarioMismatch(
                "outer grid must cover at least one year".to_string(),
            ));
        }
        let inner_years = inner
            .annual_rates_equity(Measure::RiskNeutral, rate_driver, equity_driver)
            .map_err(|e| AlmError::ScenarioMismatch(format!("inner stage: {e}")))?;
        Ok(NestedMonteCarlo {
            outer,
            inner,
            inner_years,
            fund,
            equity_driver,
            rate_driver,
        })
    }

    /// A [`ValuationWorkspace`] presized for this engine, `config` and
    /// `n_positions` liability positions.
    pub fn workspace_for(&self, config: &NestedConfig, n_positions: usize) -> ValuationWorkspace {
        ValuationWorkspace::sized_for(self.outer, self.inner, config, n_positions)
    }

    /// Runs the full nested procedure for the given liability positions:
    /// the one-block case of [`NestedMonteCarlo::run_blocks`].
    ///
    /// # Errors
    ///
    /// Propagates configuration, generation and valuation errors.
    pub fn run(
        &self,
        positions: &[LiabilityPosition],
        config: &NestedConfig,
    ) -> Result<NestedResult, AlmError> {
        let mut results = self.run_impl(&[positions], config, None, &mut ScenarioBuffer::new())?;
        Ok(results.pop().expect("one block, one result"))
    }

    /// Like [`NestedMonteCarlo::run`], but backing the **sequential**
    /// (`threads == 1`) outer loop with the caller's workspace so
    /// successive runs reuse its storage. Multi-threaded runs still
    /// provision one workspace per worker internally and leave `ws`
    /// untouched. Results are identical to [`NestedMonteCarlo::run`] in
    /// both cases.
    ///
    /// # Errors
    ///
    /// Same contract as [`NestedMonteCarlo::run`].
    pub fn run_with_workspace(
        &self,
        positions: &[LiabilityPosition],
        config: &NestedConfig,
        ws: &mut ValuationWorkspace,
    ) -> Result<NestedResult, AlmError> {
        let mut results =
            self.run_impl(&[positions], config, Some(ws), &mut ScenarioBuffer::new())?;
        Ok(results.pop().expect("one block, one result"))
    }

    /// Values several blocks of positions in one nested run: one
    /// [`NestedResult`] per block, each bit-identical to what
    /// [`NestedMonteCarlo::run`] returns for that block alone.
    ///
    /// The scenarios do not depend on the positions: the outer set is
    /// generated once and the inner set and its panels once per outer path,
    /// for all blocks. `config.threads` workers each take a contiguous run
    /// of outer paths with one presized [`ValuationWorkspace`] (zero
    /// steady-state heap allocations in the `nP × nQ` inner stage); each
    /// path writes its own row of the result buffer, so the thread count
    /// cannot change a bit.
    ///
    /// # Errors
    ///
    /// Propagates configuration, generation and valuation errors;
    /// [`AlmError::InvalidParameter`] for an empty block (list) or a
    /// schedule that is not one flow per policy year.
    pub fn run_blocks(
        &self,
        blocks: &[&[LiabilityPosition]],
        config: &NestedConfig,
    ) -> Result<Vec<NestedResult>, AlmError> {
        self.run_impl(blocks, config, None, &mut ScenarioBuffer::new())
    }

    /// The body of the three public runs. The outer set is generated into
    /// `outer_buf` and left there for the caller: LSMC reads its calibration
    /// states from it.
    pub(crate) fn run_impl(
        &self,
        blocks: &[&[LiabilityPosition]],
        config: &NestedConfig,
        caller_ws: Option<&mut ValuationWorkspace>,
        outer_buf: &mut ScenarioBuffer,
    ) -> Result<Vec<NestedResult>, AlmError> {
        config.validate()?;
        let book = LiabilityBook::new(blocks)?;
        let n_blocks = blocks.len();

        // Outer stage: nP real-world paths over [0, 1].
        self.outer.generate_into(
            Measure::RealWorld,
            config.n_outer,
            config.seed,
            None,
            outer_buf,
        )?;
        let outer = outer_buf.view();

        // Inner stage: one row per outer path, one entry per block.
        let mut values = vec![PathValue::default(); config.n_outer * n_blocks];
        let value_paths = |first: usize, rows: &mut [PathValue], ws: &mut ValuationWorkspace| {
            for (i, row) in rows.chunks_mut(n_blocks).enumerate() {
                self.value_outer_path(&outer, first + i, &book, config, ws, row)?;
            }
            Ok::<(), AlmError>(())
        };
        match caller_ws {
            Some(ws) if config.threads == 1 => value_paths(0, &mut values, ws)?,
            _ => {
                let per_worker = config.n_outer.div_ceil(config.threads);
                let mut parts: Vec<_> = values.chunks_mut(per_worker * n_blocks).collect();
                parallel_map_mut(&mut parts, config.threads, |t, part| {
                    let mut ws = self.workspace_for(config, book.n_positions());
                    value_paths(t * per_worker, part, &mut ws)
                })
                .into_iter()
                .collect::<Result<(), _>>()?;
            }
        }

        let column = |b: usize, f: fn(&PathValue) -> f64| -> Vec<f64> {
            values.iter().skip(b).step_by(n_blocks).map(f).collect()
        };
        let mean_df1 = stats::mean(&column(0, |v| v.df1));
        Ok((0..n_blocks)
            .map(|b| {
                let y1 = column(b, |v| v.y1);
                let mean = stats::mean(&y1);
                let var_quantile = stats::quantile(&y1, SCR_CONFIDENCE);
                NestedResult {
                    mean,
                    var_quantile,
                    scr: (var_quantile - mean) * mean_df1,
                    mean_df1,
                    bel: stats::mean(&column(b, |v| v.y1 * v.df1 + v.year1)),
                    std_error: stats::std_error(&y1),
                    y1,
                }
            })
            .collect())
    }

    /// Outer path `p`'s first-year fund return `i1` and discount factor
    /// `df1` to `t = 1`; `returns` is scratch for the path's annual returns.
    pub(crate) fn first_year(
        &self,
        outer: &ScenarioView<'_>,
        p: usize,
        returns: &mut Vec<f64>,
    ) -> Result<(f64, f64), AlmError> {
        self.fund
            .annual_returns_into(outer, p, self.equity_driver, self.rate_driver, returns)?;
        let spy = outer.grid().steps_per_year();
        Ok((returns[0], outer.discount_factor(p, spy)))
    }

    /// Values one outer path for every block of `book`, writing one
    /// [`PathValue`] per block into `out`. All intermediates live in `ws`,
    /// which is fully rewritten before being read — reusing it across paths
    /// performs zero steady-state allocations without changing a single bit
    /// of the result.
    fn value_outer_path(
        &self,
        outer: &ScenarioView<'_>,
        p: usize,
        book: &LiabilityBook,
        config: &NestedConfig,
        ws: &mut ValuationWorkspace,
        out: &mut [PathValue],
    ) -> Result<(), AlmError> {
        // First-year fund return on the outer path drives Φ_1 and the
        // year-1 flows.
        let (i1, df1) = self.first_year(outer, p, &mut ws.outer_returns)?;

        // Inner stage: nQ risk-neutral paths opening at the outer path's
        // rate at t = 1, drawn year by year into the workspace's panels.
        let r1 = outer.value(p, self.rate_driver, outer.grid().steps_per_year());
        let inner_seed = split_seed(config.seed ^ 0x1AAE_5EED, p as u64);
        ws.panels
            .fill(self.fund, &self.inner_years, r1, inner_seed, config.n_inner);

        // Each pair's discounted `Φ` summed over the paths once, and each
        // position valued against its pair's sums.
        // `resize` without `clear`: every entry is overwritten below.
        ws.acc.resize(book.n_positions(), 0.0);
        book.residuals_over_paths(
            &ws.panels.returns,
            &ws.panels.dfs,
            config.n_inner,
            &mut ws.phi,
            &mut ws.table,
            &mut ws.acc,
        );
        book.block_values(i1, df1, &ws.acc, config.n_inner as f64, &mut ws.phi1, out);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disar_actuarial::contracts::{Contract, ProductKind, ProfitSharing};
    use disar_actuarial::engine::ActuarialEngine;
    use disar_actuarial::lapse::ConstantLapse;
    use disar_actuarial::model_points::ModelPoint;
    use disar_actuarial::mortality::{Gender, LifeTable};
    use disar_stochastic::drivers::{Cir, Gbm, RiskDriver, Vasicek};
    use disar_stochastic::scenario::TimeGrid;

    fn generators(horizon: f64) -> (ScenarioGenerator, ScenarioGenerator) {
        let build = |h: f64| {
            ScenarioGenerator::builder()
                .driver(Box::new(Vasicek::new(0.03, 0.5, 0.03, 0.008, 0.15).unwrap()))
                .driver(Box::new(Gbm::new(100.0, 0.07, 0.18, 0.03).unwrap()))
                .grid(TimeGrid::new(h, 12).unwrap())
                .build()
                .unwrap()
        };
        (build(1.0), build(horizon))
    }

    fn position(term: u32, beta: f64, tech: f64) -> LiabilityPosition {
        let table = LifeTable::italian_population();
        let lapse = ConstantLapse::new(0.03).unwrap();
        let engine = ActuarialEngine::new(&table, &lapse);
        let ps = ProfitSharing::new(beta, tech).unwrap();
        let c = Contract::new(ProductKind::Endowment, 50, Gender::Male, term, 1000.0, ps).unwrap();
        let mp = ModelPoint {
            contract: c,
            policy_count: 1,
        };
        LiabilityPosition {
            schedule: engine.cash_flow_schedule(&mp).unwrap(),
            profit_sharing: ps,
        }
    }

    fn positions(term: u32) -> Vec<LiabilityPosition> {
        vec![position(term, 0.8, 0.0), position(term, 0.8, 0.02)]
    }

    fn small_config(seed: u64) -> NestedConfig {
        NestedConfig {
            n_outer: 60,
            n_inner: 20,
            seed,
            threads: 1,
        }
    }

    #[test]
    fn paper_defaults_match_section_iv() {
        let c = NestedConfig::paper_defaults(1);
        assert_eq!(c.n_outer, 1000);
        assert_eq!(c.n_inner, 50);
    }

    #[test]
    fn run_produces_consistent_result() {
        let (outer, inner) = generators(10.0);
        let fund = SegregatedFund::italian_typical(20);
        let mc = NestedMonteCarlo::new(&outer, &inner, &fund, 1, 0).unwrap();
        let res = mc.run(&positions(10), &small_config(3)).unwrap();
        assert_eq!(res.y1.len(), 60);
        assert!(res.mean > 0.0);
        assert!(res.var_quantile >= res.mean, "q99.5 must exceed the mean");
        assert!(res.scr >= 0.0);
        assert!(res.bel > 0.0);
        assert!(res.std_error > 0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let (outer, inner) = generators(10.0);
        let fund = SegregatedFund::italian_typical(20);
        let mc = NestedMonteCarlo::new(&outer, &inner, &fund, 1, 0).unwrap();
        let a = mc.run(&positions(10), &small_config(5)).unwrap();
        let b = mc.run(&positions(10), &small_config(5)).unwrap();
        assert_eq!(a, b);
        let c = mc.run(&positions(10), &small_config(6)).unwrap();
        assert_ne!(a.y1, c.y1);
    }

    #[test]
    fn threads_do_not_change_the_result() {
        let (outer, inner) = generators(8.0);
        let fund = SegregatedFund::italian_typical(10);
        let mc = NestedMonteCarlo::new(&outer, &inner, &fund, 1, 0).unwrap();
        let seq = mc.run(&positions(8), &small_config(7)).unwrap();
        let par_cfg = NestedConfig {
            threads: 4,
            ..small_config(7)
        };
        let par = mc.run(&positions(8), &par_cfg).unwrap();
        assert_eq!(seq, par);
    }

    /// Every field of a result, as bits.
    fn bits(r: &NestedResult) -> Vec<u64> {
        [r.mean, r.var_quantile, r.scr, r.bel, r.std_error]
            .iter()
            .chain(&r.y1)
            .map(|x| x.to_bits())
            .collect()
    }

    #[test]
    fn run_blocks_matches_per_block_runs_bitwise() {
        // A 6-year inner horizon under an 11-year residual term takes the
        // beyond-horizon branch; the 1-year position has no residual flow;
        // four distinct profit-sharing pairs, shared across blocks.
        let (outer, inner) = generators(6.0);
        let fund = SegregatedFund::italian_typical(10);
        let mc = NestedMonteCarlo::new(&outer, &inner, &fund, 1, 0).unwrap();
        let blocks = [
            vec![
                position(12, 0.8, 0.0),
                position(1, 0.9, 0.01),
                position(5, 0.8, 0.02),
            ],
            vec![position(1, 0.8, 0.0)],
            vec![
                position(7, 0.7, 0.03),
                position(12, 0.8, 0.02),
                position(3, 0.9, 0.01),
            ],
        ];
        let refs: Vec<&[LiabilityPosition]> = blocks.iter().map(Vec::as_slice).collect();
        for threads in [1, 2, 3] {
            let config = NestedConfig {
                n_outer: 7,
                n_inner: 6,
                threads,
                ..small_config(19)
            };
            let shared = mc.run_blocks(&refs, &config).unwrap();
            assert_eq!(shared.len(), blocks.len());
            let mut solo = config;
            solo.threads = 1;
            for (block, res) in blocks.iter().zip(&shared) {
                let alone = mc.run(block, &solo).unwrap();
                assert_eq!(bits(res), bits(&alone), "threads {threads}");
            }
        }
    }

    #[test]
    fn empty_block_list_is_rejected() {
        let (outer, inner) = generators(5.0);
        let fund = SegregatedFund::italian_typical(10);
        let mc = NestedMonteCarlo::new(&outer, &inner, &fund, 1, 0).unwrap();
        assert!(matches!(
            mc.run_blocks(&[], &small_config(1)),
            Err(AlmError::InvalidParameter(_))
        ));
    }

    #[test]
    fn empty_block_is_rejected() {
        let (outer, inner) = generators(5.0);
        let fund = SegregatedFund::italian_typical(10);
        let mc = NestedMonteCarlo::new(&outer, &inner, &fund, 1, 0).unwrap();
        let pos = positions(5);
        assert!(matches!(
            mc.run_blocks(&[&pos, &[]], &small_config(1)),
            Err(AlmError::InvalidParameter(_))
        ));
    }

    #[test]
    fn schedule_with_a_missing_year_is_rejected() {
        let (outer, inner) = generators(5.0);
        let fund = SegregatedFund::italian_typical(10);
        let mc = NestedMonteCarlo::new(&outer, &inner, &fund, 1, 0).unwrap();
        let mut pos = positions(5);
        pos[1].schedule.flows.remove(2);
        assert!(matches!(
            mc.run(&pos, &small_config(1)),
            Err(AlmError::InvalidParameter(_))
        ));
        // Not starting at year 1 is a gap too.
        let mut pos = positions(5);
        pos[0].schedule.flows.remove(0);
        assert!(mc.run(&pos, &small_config(1)).is_err());
    }

    #[test]
    fn config_validation() {
        let (outer, inner) = generators(5.0);
        let fund = SegregatedFund::italian_typical(10);
        let mc = NestedMonteCarlo::new(&outer, &inner, &fund, 1, 0).unwrap();
        let pos = positions(5);
        for bad in [
            NestedConfig { n_outer: 0, ..small_config(1) },
            NestedConfig { n_inner: 0, ..small_config(1) },
            NestedConfig { threads: 0, ..small_config(1) },
        ] {
            assert!(mc.run(&pos, &bad).is_err());
        }
        assert!(mc.run(&[], &small_config(1)).is_err());
    }

    #[test]
    fn engine_validation() {
        let (outer, inner) = generators(5.0);
        let fund = SegregatedFund::italian_typical(10);
        assert!(NestedMonteCarlo::new(&outer, &inner, &fund, 5, 0).is_err());
        // Outer grid shorter than a year.
        let short = ScenarioGenerator::builder()
            .driver(Box::new(Vasicek::new(0.03, 0.5, 0.03, 0.008, 0.0).unwrap()))
            .driver(Box::new(Gbm::new(100.0, 0.07, 0.18, 0.03).unwrap()))
            .grid(TimeGrid::new(0.5, 12).unwrap())
            .build()
            .unwrap();
        assert!(NestedMonteCarlo::new(&short, &inner, &fund, 1, 0).is_err());
    }

    /// A driver on the default `Generic` coefficients.
    struct Drifting;

    impl RiskDriver for Drifting {
        fn initial_value(&self) -> f64 {
            100.0
        }
        fn step(&self, state: f64, dt: f64, shock: f64, _measure: Measure) -> f64 {
            state + dt + shock
        }
    }

    #[test]
    fn inner_market_without_a_one_year_law_is_a_scenario_mismatch() {
        // A CIR short rate, and an equity on the `Generic` coefficients:
        // neither has the inner stage's closed-form year, and there is no
        // step-by-step fallback.
        let build = |rate: Box<dyn RiskDriver>, equity: Box<dyn RiskDriver>, h: f64| {
            ScenarioGenerator::builder()
                .driver(rate)
                .driver(equity)
                .grid(TimeGrid::new(h, 4).unwrap())
                .build()
                .unwrap()
        };
        let cir = || Box::new(Cir::short_rate(0.03, 0.5, 0.03, 0.05, 0.1).unwrap());
        let vasicek = || Box::new(Vasicek::new(0.03, 0.5, 0.03, 0.008, 0.15).unwrap());
        let gbm = || Box::new(Gbm::new(100.0, 0.07, 0.18, 0.03).unwrap());
        let fund = SegregatedFund::italian_typical(10);
        for (outer, inner) in [
            (build(cir(), gbm(), 1.0), build(cir(), gbm(), 5.0)),
            (
                build(vasicek(), Box::new(Drifting), 1.0),
                build(vasicek(), Box::new(Drifting), 5.0),
            ),
        ] {
            assert!(matches!(
                NestedMonteCarlo::new(&outer, &inner, &fund, 1, 0),
                Err(AlmError::ScenarioMismatch(_))
            ));
        }
    }

    #[test]
    fn workspace_reuse_across_runs_matches_fresh_workspaces() {
        let (outer, inner) = generators(8.0);
        let fund = SegregatedFund::italian_typical(10);
        let mc = NestedMonteCarlo::new(&outer, &inner, &fund, 1, 0).unwrap();
        let pos = positions(8);
        let mut ws = mc.workspace_for(&small_config(3), pos.len());
        // Two successive runs through the same workspace — including a
        // config change in between — must equal fresh-workspace runs.
        let first = mc.run_with_workspace(&pos, &small_config(3), &mut ws).unwrap();
        let other_cfg = NestedConfig {
            n_inner: 7,
            ..small_config(7)
        };
        let second = mc.run_with_workspace(&pos, &other_cfg, &mut ws).unwrap();
        assert_eq!(first, mc.run(&pos, &small_config(3)).unwrap());
        assert_eq!(second, mc.run(&pos, &other_cfg).unwrap());
    }

    #[test]
    fn more_inner_paths_reduce_inner_noise() {
        // With a fixed outer stage, increasing nQ should not blow up the
        // spread of Y_1 — crude but catches sign errors in averaging.
        let (outer, inner) = generators(6.0);
        let fund = SegregatedFund::italian_typical(10);
        let mc = NestedMonteCarlo::new(&outer, &inner, &fund, 1, 0).unwrap();
        let pos = positions(6);
        let lo = mc
            .run(&pos, &NestedConfig { n_inner: 2, ..small_config(9) })
            .unwrap();
        let hi = mc
            .run(&pos, &NestedConfig { n_inner: 40, ..small_config(9) })
            .unwrap();
        let sd_lo = disar_math::stats::std_dev(&lo.y1);
        let sd_hi = disar_math::stats::std_dev(&hi.y1);
        assert!(sd_hi <= sd_lo * 1.2, "sd_hi {sd_hi} vs sd_lo {sd_lo}");
    }
}
