//! Closed-form zero-coupon bond prices for the affine short-rate models.
//!
//! Both Vasicek and CIR admit exponential-affine bond prices
//! `P(r, τ) = A(τ) · e^{−B(τ) r}`. These formulas serve two purposes in
//! the reproduction:
//!
//! 1. **validation** — the Monte Carlo money-market discount factor
//!    `E_Q[e^{−∫ r}]` must converge to the analytic price, which pins down
//!    the correctness of the whole scenario/discounting pipeline (the
//!    `mc_discount_matches_*` tests below);
//! 2. **asset valuation** — the segregated fund's bond book can be marked
//!    to model at any scenario node.

use crate::drivers::{Cir, Vasicek};
use crate::scenario::Measure;
use crate::StochasticError;

/// Analytic zero-coupon bond prices under a short-rate model.
pub trait BondPricing {
    /// Price at short-rate state `r` of a unit zero-coupon bond maturing
    /// in `maturity` years (risk-neutral measure).
    ///
    /// # Errors
    ///
    /// Returns [`StochasticError::InvalidParameter`] for a negative
    /// maturity.
    fn zcb_price(&self, r: f64, maturity: f64) -> Result<f64, StochasticError>;

    /// Continuously-compounded zero yield implied by
    /// [`BondPricing::zcb_price`].
    ///
    /// # Errors
    ///
    /// Propagates [`BondPricing::zcb_price`]; additionally rejects a zero
    /// maturity (the yield is undefined there).
    fn zero_yield(&self, r: f64, maturity: f64) -> Result<f64, StochasticError> {
        if maturity <= 0.0 {
            return Err(StochasticError::InvalidParameter(
                "maturity must be positive for a yield",
            ));
        }
        Ok(-self.zcb_price(r, maturity)?.ln() / maturity)
    }
}

impl BondPricing for Vasicek {
    fn zcb_price(&self, r: f64, maturity: f64) -> Result<f64, StochasticError> {
        if maturity < 0.0 {
            return Err(StochasticError::InvalidParameter("maturity must be >= 0"));
        }
        let a = self.speed();
        let b = self.long_run_mean(Measure::RiskNeutral);
        let sigma = self.sigma();
        let big_b = (1.0 - (-a * maturity).exp()) / a;
        let ln_a = (big_b - maturity) * (a * a * b - sigma * sigma / 2.0) / (a * a)
            - sigma * sigma * big_b * big_b / (4.0 * a);
        Ok((ln_a - big_b * r).exp())
    }
}

impl BondPricing for Cir {
    fn zcb_price(&self, r: f64, maturity: f64) -> Result<f64, StochasticError> {
        if maturity < 0.0 {
            return Err(StochasticError::InvalidParameter("maturity must be >= 0"));
        }
        if maturity == 0.0 {
            return Ok(1.0);
        }
        let a = self.speed();
        let b = self.long_run();
        let sigma = self.sigma();
        let h = (a * a + 2.0 * sigma * sigma).sqrt();
        let e_ht = (h * maturity).exp();
        let denom = 2.0 * h + (a + h) * (e_ht - 1.0);
        let big_a = (2.0 * h * ((a + h) * maturity / 2.0).exp() / denom)
            .powf(2.0 * a * b / (sigma * sigma).max(1e-300));
        let big_b = 2.0 * (e_ht - 1.0) / denom;
        Ok(big_a * (-big_b * r).exp())
    }
}

/// Builds a zero-coupon curve `(maturity, yield)` from any pricing model.
///
/// # Errors
///
/// Propagates pricing failures; rejects an empty maturity list.
pub fn zero_curve<M: BondPricing>(
    model: &M,
    r: f64,
    maturities: &[f64],
) -> Result<Vec<(f64, f64)>, StochasticError> {
    if maturities.is_empty() {
        return Err(StochasticError::InvalidParameter(
            "at least one maturity is required",
        ));
    }
    maturities
        .iter()
        .map(|&t| Ok((t, model.zero_yield(r, t)?)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{ScenarioBuffer, ScenarioGenerator, TimeGrid};
    use disar_math::stats;

    fn vasicek() -> Vasicek {
        Vasicek::new(0.03, 0.6, 0.04, 0.015, 0.0).expect("valid")
    }

    fn cir() -> Cir {
        Cir::short_rate(0.03, 0.6, 0.04, 0.08, 0.0).expect("valid")
    }

    #[test]
    fn zero_maturity_is_par() {
        assert!((vasicek().zcb_price(0.03, 0.0).unwrap() - 1.0).abs() < 1e-12);
        assert!((cir().zcb_price(0.03, 0.0).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn prices_decrease_with_maturity_at_positive_rates() {
        for model in [&vasicek() as &dyn BondPricing, &cir()] {
            let mut prev = 1.0;
            for t in 1..=30 {
                let p = model.zcb_price(0.03, t as f64).unwrap();
                assert!(p < prev, "P({t}) = {p} >= P({}) = {prev}", t - 1);
                assert!(p > 0.0);
                prev = p;
            }
        }
    }

    #[test]
    fn higher_rate_lower_price() {
        for model in [&vasicek() as &dyn BondPricing, &cir()] {
            let lo = model.zcb_price(0.01, 10.0).unwrap();
            let hi = model.zcb_price(0.06, 10.0).unwrap();
            assert!(hi < lo);
        }
    }

    #[test]
    fn negative_maturity_rejected() {
        assert!(vasicek().zcb_price(0.03, -1.0).is_err());
        assert!(cir().zcb_price(0.03, -1.0).is_err());
        assert!(vasicek().zero_yield(0.03, 0.0).is_err());
    }

    #[test]
    fn long_yield_approaches_asymptote_direction() {
        // Vasicek long-maturity yield tends to b − σ²/(2a²); check the
        // 30y yield is between r0-side and the asymptote neighbourhood.
        let v = vasicek();
        let y30 = v.zero_yield(0.03, 30.0).unwrap();
        let asymptote = 0.04 - 0.015f64.powi(2) / (2.0 * 0.6 * 0.6);
        assert!((y30 - asymptote).abs() < 0.01, "y30 {y30} vs {asymptote}");
    }

    #[test]
    fn mc_discount_matches_vasicek_analytic() {
        // The pipeline test: E_Q[exp(-∫ r dt)] from simulated paths must
        // converge to the closed-form bond price.
        let v = vasicek();
        let gen = ScenarioGenerator::builder()
            .driver(Box::new(v.clone()))
            .grid(TimeGrid::new(5.0, 24).unwrap())
            .build()
            .unwrap();
        let mut buf = ScenarioBuffer::new();
        gen.generate_into(Measure::RiskNeutral, 20_000, 42, None, &mut buf)
            .unwrap();
        let set = buf.view();
        let steps = set.grid().n_steps();
        let dfs: Vec<f64> = (0..set.n_paths())
            .map(|p| set.discount_factor(p, steps))
            .collect();
        let mc = stats::mean(&dfs);
        let analytic = v.zcb_price(0.03, 5.0).unwrap();
        let rel = (mc - analytic).abs() / analytic;
        assert!(rel < 0.005, "MC {mc} vs analytic {analytic} ({rel:.4} rel)");
    }

    #[test]
    fn mc_discount_matches_cir_analytic() {
        let c = cir();
        let gen = ScenarioGenerator::builder()
            .driver(Box::new(c.clone()))
            .grid(TimeGrid::new(5.0, 48).unwrap()) // finer grid: Euler bias
            .build()
            .unwrap();
        let mut buf = ScenarioBuffer::new();
        gen.generate_into(Measure::RiskNeutral, 20_000, 7, None, &mut buf)
            .unwrap();
        let set = buf.view();
        let steps = set.grid().n_steps();
        let dfs: Vec<f64> = (0..set.n_paths())
            .map(|p| set.discount_factor(p, steps))
            .collect();
        let mc = stats::mean(&dfs);
        let analytic = c.zcb_price(0.03, 5.0).unwrap();
        let rel = (mc - analytic).abs() / analytic;
        assert!(rel < 0.01, "MC {mc} vs analytic {analytic} ({rel:.4} rel)");
    }

    #[test]
    fn curve_is_well_formed() {
        let curve = zero_curve(&vasicek(), 0.03, &[1.0, 5.0, 10.0, 30.0]).unwrap();
        assert_eq!(curve.len(), 4);
        for (t, y) in curve {
            assert!(t > 0.0);
            assert!(y.is_finite());
            assert!(y > -0.05 && y < 0.2, "implausible yield {y} at {t}");
        }
        assert!(zero_curve(&vasicek(), 0.03, &[]).is_err());
    }
}
