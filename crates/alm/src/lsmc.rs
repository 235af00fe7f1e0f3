//! Least-Squares Monte Carlo (Bauer, Reuss & Singer 2012).
//!
//! "The number of inner simulations can be strongly reduced if the so-called
//! Least Square Monte Carlo technique is used. With LSMC, the plain Monte
//! Carlo determination of Y_t is replaced by a truncated series expansion in
//! orthonormal polynomials, whose parameters are calibrated with a
//! n'_P × n'_Q smaller sample obtained by plain nested Monte Carlo
//! simulation" (§II).
//!
//! Implementation: a small calibration run produces noisy `(state_1, Y_1)`
//! pairs; we regress `Y_1` on an orthonormal polynomial basis of the
//! (standardized) outer state and then evaluate the fitted expansion on the
//! full set of `nP` outer paths — no inner simulations needed there.
//!
//! The calibration stage is a plain nested run (the body of
//! [`NestedMonteCarlo::run`]), so it inherits the allocation-free kernel
//! layer (per-worker [`crate::workspace::ValuationWorkspace`]s, DESIGN.md
//! §10) — the `n'_P × n'_Q` inner evaluations reuse each worker's buffers —
//! and the regression reads its states from the outer set that run
//! generated, not from a second one.

use crate::fund::SegregatedFund;
use crate::liability::{LiabilityBook, LiabilityPosition, PathValue};
use crate::nested::{NestedConfig, NestedMonteCarlo, NestedResult, SCR_CONFIDENCE};
use crate::AlmError;
use disar_math::matrix::ridge_least_squares;
use disar_math::poly::MultiBasis;
use disar_math::stats;
use disar_stochastic::scenario::{Measure, ScenarioBuffer, ScenarioGenerator};

/// Total degree of the Hermite basis the inner value is expanded in.
const DEGREE: usize = 2;

/// Ridge penalty of the regression (0 would be ordinary least squares).
const RIDGE: f64 = 1e-8;

/// Configuration of an LSMC valuation. The calibration run is sequential.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LsmcConfig {
    /// Outer paths of the calibration sample (`n'_P`, typically ≪ `nP`).
    pub calibration_outer: usize,
    /// Inner paths per calibration outer path (`n'_Q`).
    pub calibration_inner: usize,
    /// Outer paths of the final evaluation (`nP`).
    pub n_outer: usize,
    /// Master seed.
    pub seed: u64,
}

impl LsmcConfig {
    /// A sensible default mirroring the paper's setup: calibrate on
    /// 100 × 50, evaluate on 1000 outer paths.
    pub fn paper_defaults(seed: u64) -> Self {
        LsmcConfig {
            calibration_outer: 100,
            calibration_inner: 50,
            n_outer: 1000,
            seed,
        }
    }
}

/// LSMC valuation engine wrapping a [`NestedMonteCarlo`] for calibration.
pub struct Lsmc<'a> {
    nested: NestedMonteCarlo<'a>,
    outer: &'a ScenarioGenerator,
}

impl<'a> Lsmc<'a> {
    /// Creates the engine over the same generator pair as the nested one.
    ///
    /// # Errors
    ///
    /// Same validation as [`NestedMonteCarlo::new`].
    pub fn new(
        outer: &'a ScenarioGenerator,
        inner: &'a ScenarioGenerator,
        fund: &'a SegregatedFund,
        equity_driver: usize,
        rate_driver: usize,
    ) -> Result<Self, AlmError> {
        Ok(Lsmc {
            nested: NestedMonteCarlo::new(outer, inner, fund, equity_driver, rate_driver)?,
            outer,
        })
    }

    /// Runs the LSMC procedure.
    ///
    /// # Errors
    ///
    /// Propagates calibration, regression and generation failures.
    pub fn run(
        &self,
        positions: &[LiabilityPosition],
        config: &LsmcConfig,
    ) -> Result<NestedResult, AlmError> {
        if config.n_outer == 0 || config.calibration_outer == 0 {
            return Err(AlmError::InvalidParameter("path counts must be > 0"));
        }
        // 1. Calibration: plain nested MC on the small n'_P × n'_Q sample.
        let calib_cfg = NestedConfig {
            n_outer: config.calibration_outer,
            n_inner: config.calibration_inner,
            seed: config.seed ^ 0xCA11_B0A7,
            threads: 1,
        };
        // Its outer set stays in `buf` for the endpoint states; one buffer
        // holds the calibration set, then the evaluation set.
        let mut buf = ScenarioBuffer::new();
        let calib = self
            .nested
            .run_impl(&[positions], &calib_cfg, None, &mut buf)?
            .pop()
            .expect("one block, one result");

        // Outer endpoint states of the calibration sample.
        let calib_view = buf.view();
        let spy = calib_view.grid().steps_per_year();
        let mut state = Vec::new();
        let calib_states: Vec<Vec<f64>> = (0..config.calibration_outer)
            .map(|p| {
                calib_view.state_into(p, spy, &mut state);
                state.clone()
            })
            .collect();

        // Standardize states so the orthonormal bases see O(1) inputs.
        let dim = calib_states[0].len();
        let mut means = vec![0.0; dim];
        let mut sds = vec![0.0; dim];
        for j in 0..dim {
            let col: Vec<f64> = calib_states.iter().map(|s| s[j]).collect();
            means[j] = stats::mean(&col);
            let sd = stats::std_dev(&col);
            sds[j] = if sd == 0.0 { 1.0 } else { sd };
        }
        let standardize = |s: &[f64]| -> Vec<f64> {
            s.iter()
                .enumerate()
                .map(|(j, v)| (v - means[j]) / sds[j])
                .collect()
        };

        // 2. Regression of Y_1 on the polynomial basis.
        let basis = MultiBasis::new(dim, DEGREE);
        let design_rows: Vec<Vec<f64>> =
            calib_states.iter().map(|s| standardize(s)).collect();
        let design = basis.design_matrix(&design_rows);
        let beta = ridge_least_squares(&design, &calib.y1, RIDGE)?;

        // 3. Evaluation: full nP outer set, expansion instead of inner sims.
        self.outer.generate_into(
            Measure::RealWorld,
            config.n_outer,
            config.seed,
            None,
            &mut buf,
        )?;
        let eval_view = buf.view();
        let y1: Vec<f64> = (0..config.n_outer)
            .map(|p| {
                eval_view.state_into(p, spy, &mut state);
                let s = standardize(&state);
                basis
                    .eval(&s)
                    .iter()
                    .zip(&beta)
                    .map(|(b, w)| b * w)
                    .sum()
            })
            .collect();
        // The BEL adds each path's year-1 flows, readjusted by the path's
        // first-year fund return, as the nested run's does.
        let book = LiabilityBook::new(&[positions])?;
        let (mut returns, mut phi1) = (Vec::new(), Vec::new());
        let mut first = [PathValue::default()];
        let mut dfs = Vec::with_capacity(config.n_outer);
        let mut discounted = Vec::with_capacity(config.n_outer);
        for (p, y) in y1.iter().enumerate() {
            let (i1, df1) = self.nested.first_year(&eval_view, p, &mut returns)?;
            book.first_year_values(i1, df1, &mut phi1, &mut first);
            dfs.push(df1);
            discounted.push(y * df1 + first[0].year1);
        }

        let mean = stats::mean(&y1);
        let var_quantile = stats::quantile(&y1, SCR_CONFIDENCE);
        let mean_df1 = stats::mean(&dfs);
        Ok(NestedResult {
            scr: (var_quantile - mean) * mean_df1,
            mean_df1,
            bel: stats::mean(&discounted),
            std_error: stats::std_error(&y1),
            mean,
            var_quantile,
            y1,
        })
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
    use disar_stochastic::drivers::{Gbm, Vasicek};
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

    fn positions(term: u32) -> Vec<LiabilityPosition> {
        let table = LifeTable::italian_population();
        let lapse = ConstantLapse::new(0.03).unwrap();
        let engine = ActuarialEngine::new(&table, &lapse);
        let ps = ProfitSharing::new(0.8, 0.02).unwrap();
        let c = Contract::new(ProductKind::Endowment, 50, Gender::Male, term, 1000.0, ps)
            .unwrap();
        let mp = ModelPoint {
            contract: c,
            policy_count: 1,
        };
        vec![LiabilityPosition {
            schedule: engine.cash_flow_schedule(&mp).unwrap(),
            profit_sharing: ps,
        }]
    }

    fn small_lsmc(seed: u64) -> LsmcConfig {
        LsmcConfig {
            calibration_outer: 40,
            calibration_inner: 10,
            n_outer: 120,
            seed,
        }
    }

    #[test]
    fn lsmc_tracks_nested_mean() {
        let (outer, inner) = generators(8.0);
        let fund = SegregatedFund::italian_typical(10);
        let pos = positions(8);
        let lsmc = Lsmc::new(&outer, &inner, &fund, 1, 0).unwrap();
        let l = lsmc.run(&pos, &small_lsmc(3)).unwrap();
        let nested = NestedMonteCarlo::new(&outer, &inner, &fund, 1, 0).unwrap();
        let n = nested
            .run(
                &pos,
                &NestedConfig {
                    n_outer: 120,
                    n_inner: 20,
                    seed: 3,
                    threads: 1,
                },
            )
            .unwrap();
        let rel = (l.mean - n.mean).abs() / n.mean;
        assert!(rel < 0.05, "LSMC mean off by {:.1}%", rel * 100.0);
    }

    #[test]
    fn lsmc_bel_agrees_with_the_nested_bel() {
        // Same book, seed and outer paths: the two BELs differ by the
        // regression's error and the inner noise only. Both add the
        // discounted year-1 flows to the discounted `Y_1`; without them the
        // LSMC figure reads about 4 % low, tens of standard errors.
        let (outer, inner) = generators(8.0);
        let fund = SegregatedFund::italian_typical(10);
        let pos = positions(8);
        let lsmc = Lsmc::new(&outer, &inner, &fund, 1, 0).unwrap();
        let l = lsmc
            .run(
                &pos,
                &LsmcConfig {
                    calibration_outer: 100,
                    calibration_inner: 20,
                    n_outer: 400,
                    ..small_lsmc(3)
                },
            )
            .unwrap();
        let nested = NestedMonteCarlo::new(&outer, &inner, &fund, 1, 0).unwrap();
        let n = nested
            .run(
                &pos,
                &NestedConfig {
                    n_outer: 400,
                    n_inner: 20,
                    seed: 3,
                    threads: 1,
                },
            )
            .unwrap();
        let noise = 4.0 * l.std_error.hypot(n.std_error);
        assert!(
            (l.bel - n.bel).abs() < noise,
            "LSMC BEL {} vs nested BEL {} (4 standard errors: {noise})",
            l.bel,
            n.bel
        );
    }

    #[test]
    fn lsmc_is_deterministic() {
        let (outer, inner) = generators(6.0);
        let fund = SegregatedFund::italian_typical(10);
        let pos = positions(6);
        let lsmc = Lsmc::new(&outer, &inner, &fund, 1, 0).unwrap();
        let a = lsmc.run(&pos, &small_lsmc(5)).unwrap();
        let b = lsmc.run(&pos, &small_lsmc(5)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn lsmc_validates_config() {
        let (outer, inner) = generators(6.0);
        let fund = SegregatedFund::italian_typical(10);
        let lsmc = Lsmc::new(&outer, &inner, &fund, 1, 0).unwrap();
        let mut cfg = small_lsmc(1);
        cfg.n_outer = 0;
        assert!(lsmc.run(&positions(6), &cfg).is_err());
    }

    #[test]
    fn paper_defaults_are_smaller_than_nested() {
        let c = LsmcConfig::paper_defaults(0);
        assert!(c.calibration_outer * c.calibration_inner < 1000 * 50);
        assert_eq!(c.n_outer, 1000);
    }
}
