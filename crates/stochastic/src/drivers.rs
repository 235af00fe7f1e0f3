//! Risk-driver models.
//!
//! Each driver evolves one state variable on a discrete time grid given a
//! standard-normal shock per step. Models know both probability measures:
//!
//! - under the **real-world measure `P`** the drift contains risk premia —
//!   this is what the paper's *outer* (natural) simulations use;
//! - under the **risk-neutral measure `Q`** the drift is the risk-free one —
//!   used by the *inner* simulations for market-consistent valuation.

use crate::scenario::Measure;
use crate::StochasticError;

/// The first check of every driver constructor: a NaN or infinite parameter
/// is an error, not a scenario of NaNs.
fn check_finite(params: &[f64]) -> Result<(), StochasticError> {
    if !params.iter().all(|p| p.is_finite()) {
        return Err(StochasticError::InvalidParameter("non-finite parameter"));
    }
    Ok(())
}

/// A driver's one-step transition as affine coefficients, for a given
/// `(dt, measure)`: [`RiskDriver::step_coeffs`].
///
/// Only [`crate::scenario::ScenarioGenerator::annual_rates_equity`] reads
/// them: it folds a year of a rate's and an equity's steps into one Gaussian
/// law ([`crate::annual`]), which needs the exact Ornstein–Uhlenbeck rate
/// and the exact lognormal equity. Every other driver keeps the default
/// [`StepCoeffs::Generic`], and the annual law then answers a typed error.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StepCoeffs {
    /// Exact lognormal step `s ← s · exp(log_drift + vol_sqrt_dt · z)`
    /// ([`Gbm`]); `log_drift = (drift − σ²/2)·dt`, `vol_sqrt_dt = σ·√dt`.
    Lognormal {
        /// `(drift − σ²/2)·dt` under the requested measure.
        log_drift: f64,
        /// `σ·√dt`.
        vol_sqrt_dt: f64,
    },
    /// Exact Ornstein–Uhlenbeck step
    /// `s ← (mean_level + (s − mean_level)·decay) + vol·z` ([`Vasicek`]);
    /// `decay = e^{−a·dt}`, `vol = √(σ²/(2a)·(1 − decay²))`.
    OrnsteinUhlenbeck {
        /// Measure-adjusted long-run mean `b`.
        mean_level: f64,
        /// `e^{−a·dt}`.
        decay: f64,
        /// Conditional standard deviation of one step.
        vol: f64,
    },
    /// No coefficients the annual law reads (a [`Cir`] process, an
    /// [`FxRate`], a custom driver).
    Generic,
}

/// A one-dimensional stochastic risk driver.
///
/// Implementations must be deterministic functions of `(state, dt, shock,
/// measure)` so that scenario generation is reproducible.
pub trait RiskDriver: Send + Sync {
    /// The driver's value at `t = 0`.
    fn initial_value(&self) -> f64;

    /// Advances the state by one step of length `dt` (in years) given a
    /// standard-normal `shock`.
    fn step(&self, state: f64, dt: f64, shock: f64, measure: Measure) -> f64;

    /// The step's affine coefficients for `(dt, measure)` ([`StepCoeffs`]).
    /// The default, [`StepCoeffs::Generic`], says there are none.
    fn step_coeffs(&self, dt: f64, measure: Measure) -> StepCoeffs {
        let _ = (dt, measure);
        StepCoeffs::Generic
    }

    /// `true` when this driver is a short rate usable for discounting.
    fn is_short_rate(&self) -> bool {
        false
    }
}

/// Geometric Brownian motion — the classical equity model.
///
/// Under `P`: `dS = μ S dt + σ S dW`; under `Q`: `dS = r S dt + σ S dW`.
/// The step is exact (lognormal), so no discretization bias is introduced.
///
/// # Example
///
/// ```
/// use disar_stochastic::drivers::{Gbm, RiskDriver};
/// use disar_stochastic::scenario::Measure;
///
/// let gbm = Gbm::new(100.0, 0.08, 0.2, 0.03).unwrap();
/// let s1 = gbm.step(100.0, 1.0, 0.0, Measure::RiskNeutral);
/// // With zero shock the exact step is S exp((r - σ²/2) dt).
/// assert!((s1 - 100.0 * (0.03f64 - 0.02).exp()).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Gbm {
    s0: f64,
    mu: f64,
    sigma: f64,
    risk_free: f64,
}

impl Gbm {
    /// Creates a GBM with initial value `s0`, real-world drift `mu`,
    /// volatility `sigma` and risk-free rate `risk_free` (the `Q` drift).
    ///
    /// # Errors
    ///
    /// Returns [`StochasticError::InvalidParameter`] if a parameter is not
    /// finite, `s0 <= 0` or `sigma < 0`.
    pub fn new(s0: f64, mu: f64, sigma: f64, risk_free: f64) -> Result<Self, StochasticError> {
        check_finite(&[s0, mu, sigma, risk_free])?;
        if !(s0 > 0.0) {
            return Err(StochasticError::InvalidParameter("s0 must be positive"));
        }
        if !(sigma >= 0.0) {
            return Err(StochasticError::InvalidParameter("sigma must be >= 0"));
        }
        Ok(Gbm {
            s0,
            mu,
            sigma,
            risk_free,
        })
    }

    /// Volatility parameter.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }
}

impl RiskDriver for Gbm {
    fn initial_value(&self) -> f64 {
        self.s0
    }

    fn step(&self, state: f64, dt: f64, shock: f64, measure: Measure) -> f64 {
        let drift = match measure {
            Measure::RealWorld => self.mu,
            Measure::RiskNeutral => self.risk_free,
        };
        state * ((drift - 0.5 * self.sigma * self.sigma) * dt + self.sigma * dt.sqrt() * shock)
            .exp()
    }

    fn step_coeffs(&self, dt: f64, measure: Measure) -> StepCoeffs {
        let drift = match measure {
            Measure::RealWorld => self.mu,
            Measure::RiskNeutral => self.risk_free,
        };
        StepCoeffs::Lognormal {
            log_drift: (drift - 0.5 * self.sigma * self.sigma) * dt,
            vol_sqrt_dt: self.sigma * dt.sqrt(),
        }
    }
}

/// Vasicek short-rate model: `dr = a (b − r) dt + σ dW`.
///
/// Under `P` the long-run level is shifted by the market price of risk
/// `λ`: `b_P = b_Q + λ σ / a`. The transition is exact (Ornstein–Uhlenbeck
/// Gaussian step).
#[derive(Debug, Clone, PartialEq)]
pub struct Vasicek {
    r0: f64,
    a: f64,
    b: f64,
    sigma: f64,
    lambda: f64,
}

impl Vasicek {
    /// Creates a Vasicek model with initial rate `r0`, mean-reversion speed
    /// `a`, risk-neutral long-run mean `b`, volatility `sigma` and market
    /// price of risk `lambda`.
    ///
    /// # Errors
    ///
    /// Returns [`StochasticError::InvalidParameter`] if a parameter is not
    /// finite, `a <= 0` or `sigma < 0`.
    pub fn new(r0: f64, a: f64, b: f64, sigma: f64, lambda: f64) -> Result<Self, StochasticError> {
        check_finite(&[r0, a, b, sigma, lambda])?;
        if !(a > 0.0) {
            return Err(StochasticError::InvalidParameter("a must be positive"));
        }
        if !(sigma >= 0.0) {
            return Err(StochasticError::InvalidParameter("sigma must be >= 0"));
        }
        Ok(Vasicek {
            r0,
            a,
            b,
            sigma,
            lambda,
        })
    }

    /// The effective long-run mean under the given measure.
    pub fn long_run_mean(&self, measure: Measure) -> f64 {
        match measure {
            Measure::RiskNeutral => self.b,
            Measure::RealWorld => self.b + self.lambda * self.sigma / self.a,
        }
    }

    /// Mean-reversion speed `a`.
    pub fn speed(&self) -> f64 {
        self.a
    }

    /// Volatility `σ`.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }
}

impl RiskDriver for Vasicek {
    fn initial_value(&self) -> f64 {
        self.r0
    }

    fn step(&self, state: f64, dt: f64, shock: f64, measure: Measure) -> f64 {
        let b = self.long_run_mean(measure);
        let e = (-self.a * dt).exp();
        let mean = b + (state - b) * e;
        let var = self.sigma * self.sigma / (2.0 * self.a) * (1.0 - e * e);
        mean + var.sqrt() * shock
    }

    fn step_coeffs(&self, dt: f64, measure: Measure) -> StepCoeffs {
        let e = (-self.a * dt).exp();
        let var = self.sigma * self.sigma / (2.0 * self.a) * (1.0 - e * e);
        StepCoeffs::OrnsteinUhlenbeck {
            mean_level: self.long_run_mean(measure),
            decay: e,
            vol: var.sqrt(),
        }
    }

    fn is_short_rate(&self) -> bool {
        true
    }
}

/// Cox–Ingersoll–Ross process: `dx = a (b − x) dt + σ √x dW`, kept
/// non-negative with the full-truncation Euler scheme.
///
/// Used both as an alternative short-rate model and as a default-intensity
/// (credit) driver.
#[derive(Debug, Clone, PartialEq)]
pub struct Cir {
    x0: f64,
    a: f64,
    b: f64,
    sigma: f64,
    lambda: f64,
    short_rate: bool,
}

impl Cir {
    /// Creates a CIR short-rate model.
    ///
    /// # Errors
    ///
    /// Returns [`StochasticError::InvalidParameter`] if a parameter is not
    /// finite, `x0 < 0`, `a <= 0`, `b < 0` or `sigma < 0`.
    pub fn short_rate(
        x0: f64,
        a: f64,
        b: f64,
        sigma: f64,
        lambda: f64,
    ) -> Result<Self, StochasticError> {
        Self::validated(x0, a, b, sigma, lambda, true)
    }

    /// Creates a CIR default-intensity (credit-spread) driver.
    ///
    /// # Errors
    ///
    /// Same domain checks as [`Cir::short_rate`].
    pub fn default_intensity(
        x0: f64,
        a: f64,
        b: f64,
        sigma: f64,
    ) -> Result<Self, StochasticError> {
        Self::validated(x0, a, b, sigma, 0.0, false)
    }

    fn validated(
        x0: f64,
        a: f64,
        b: f64,
        sigma: f64,
        lambda: f64,
        short_rate: bool,
    ) -> Result<Self, StochasticError> {
        check_finite(&[x0, a, b, sigma, lambda])?;
        if !(x0 >= 0.0) {
            return Err(StochasticError::InvalidParameter("x0 must be >= 0"));
        }
        if !(a > 0.0) {
            return Err(StochasticError::InvalidParameter("a must be positive"));
        }
        if !(b >= 0.0) {
            return Err(StochasticError::InvalidParameter("b must be >= 0"));
        }
        if !(sigma >= 0.0) {
            return Err(StochasticError::InvalidParameter("sigma must be >= 0"));
        }
        Ok(Cir {
            x0,
            a,
            b,
            sigma,
            lambda,
            short_rate,
        })
    }

    /// `true` when `2ab ≥ σ²` (the Feller condition: the exact process
    /// never touches zero).
    pub fn feller_condition(&self) -> bool {
        2.0 * self.a * self.b >= self.sigma * self.sigma
    }

    /// Mean-reversion speed `a`.
    pub fn speed(&self) -> f64 {
        self.a
    }

    /// Risk-neutral long-run level `b`.
    pub fn long_run(&self) -> f64 {
        self.b
    }

    /// Volatility `σ`.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }
}

impl RiskDriver for Cir {
    fn initial_value(&self) -> f64 {
        self.x0
    }

    fn step(&self, state: f64, dt: f64, shock: f64, measure: Measure) -> f64 {
        let b = match measure {
            Measure::RiskNeutral => self.b,
            Measure::RealWorld => self.b + self.lambda * self.sigma / self.a,
        };
        let xp = state.max(0.0);
        let next = state + self.a * (b - xp) * dt + self.sigma * xp.sqrt() * dt.sqrt() * shock;
        next.max(0.0)
    }

    fn is_short_rate(&self) -> bool {
        self.short_rate
    }
}

/// Lognormal FX-rate driver: like GBM but with the interest-rate
/// differential as the risk-neutral drift (covered interest parity).
#[derive(Debug, Clone, PartialEq)]
pub struct FxRate {
    x0: f64,
    mu: f64,
    sigma: f64,
    rate_differential: f64,
}

impl FxRate {
    /// Creates an FX driver with spot `x0`, real-world drift `mu`,
    /// volatility `sigma` and domestic-minus-foreign rate differential.
    ///
    /// # Errors
    ///
    /// Returns [`StochasticError::InvalidParameter`] if a parameter is not
    /// finite, `x0 <= 0` or `sigma < 0`.
    pub fn new(
        x0: f64,
        mu: f64,
        sigma: f64,
        rate_differential: f64,
    ) -> Result<Self, StochasticError> {
        check_finite(&[x0, mu, sigma, rate_differential])?;
        if !(x0 > 0.0) {
            return Err(StochasticError::InvalidParameter("x0 must be positive"));
        }
        if !(sigma >= 0.0) {
            return Err(StochasticError::InvalidParameter("sigma must be >= 0"));
        }
        Ok(FxRate {
            x0,
            mu,
            sigma,
            rate_differential,
        })
    }
}

impl RiskDriver for FxRate {
    fn initial_value(&self) -> f64 {
        self.x0
    }

    fn step(&self, state: f64, dt: f64, shock: f64, measure: Measure) -> f64 {
        let drift = match measure {
            Measure::RealWorld => self.mu,
            Measure::RiskNeutral => self.rate_differential,
        };
        state * ((drift - 0.5 * self.sigma * self.sigma) * dt + self.sigma * dt.sqrt() * shock)
            .exp()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use disar_math::rng::{stream_rng, StandardNormal};
    use disar_math::stats;

    fn simulate<D: RiskDriver>(
        d: &D,
        measure: Measure,
        t: f64,
        steps: usize,
        n: usize,
        seed: u64,
    ) -> Vec<f64> {
        let dt = t / steps as f64;
        (0..n)
            .map(|i| {
                let mut rng = stream_rng(seed, i as u64);
                let mut g = StandardNormal::new();
                let mut x = d.initial_value();
                for _ in 0..steps {
                    x = d.step(x, dt, g.sample(&mut rng), measure);
                }
                x
            })
            .collect()
    }

    #[test]
    fn gbm_risk_neutral_martingale() {
        // E_Q[S_T e^{-rT}] = S_0.
        let gbm = Gbm::new(100.0, 0.1, 0.25, 0.02).unwrap();
        let finals = simulate(&gbm, Measure::RiskNeutral, 1.0, 12, 50_000, 7);
        let disc = (-0.02f64).exp();
        let m = stats::mean(&finals) * disc;
        assert!((m - 100.0).abs() < 0.7, "martingale mean {m}");
    }

    #[test]
    fn gbm_real_world_drift_higher() {
        let gbm = Gbm::new(100.0, 0.10, 0.2, 0.02).unwrap();
        let p = simulate(&gbm, Measure::RealWorld, 1.0, 12, 20_000, 3);
        let q = simulate(&gbm, Measure::RiskNeutral, 1.0, 12, 20_000, 3);
        assert!(stats::mean(&p) > stats::mean(&q) + 4.0);
    }

    #[test]
    fn gbm_lognormal_variance() {
        // Var[ln S_T] = σ² T.
        let gbm = Gbm::new(1.0, 0.0, 0.3, 0.0).unwrap();
        let finals = simulate(&gbm, Measure::RiskNeutral, 2.0, 24, 40_000, 11);
        let logs: Vec<f64> = finals.iter().map(|s| s.ln()).collect();
        let v = stats::variance(&logs);
        assert!((v - 0.18).abs() < 0.01, "log variance {v}");
    }

    /// `new` accepts `base`, and rejects it with any one parameter set to NaN
    /// or to either infinity.
    fn assert_non_finite_rejected<T, const N: usize>(
        base: [f64; N],
        new: impl Fn([f64; N]) -> Result<T, StochasticError>,
    ) {
        assert!(new(base).is_ok());
        for i in 0..N {
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let mut params = base;
                params[i] = bad;
                assert!(
                    matches!(new(params), Err(StochasticError::InvalidParameter(_))),
                    "parameter {i} = {bad}"
                );
            }
        }
    }

    #[test]
    fn non_finite_gbm_parameters_are_typed_errors() {
        assert_non_finite_rejected([100.0, 0.05, 0.2, 0.02], |[s0, mu, sigma, r]| {
            Gbm::new(s0, mu, sigma, r)
        });
    }

    #[test]
    fn non_finite_vasicek_parameters_are_typed_errors() {
        assert_non_finite_rejected([0.02, 0.5, 0.03, 0.01, 0.2], |[r0, a, b, sigma, lambda]| {
            Vasicek::new(r0, a, b, sigma, lambda)
        });
    }

    #[test]
    fn non_finite_cir_parameters_are_typed_errors() {
        assert_non_finite_rejected([0.02, 0.5, 0.03, 0.01, 0.2], |[x0, a, b, sigma, lambda]| {
            Cir::short_rate(x0, a, b, sigma, lambda)
        });
        assert_non_finite_rejected([0.01, 0.3, 0.02, 0.5], |[x0, a, b, sigma]| {
            Cir::default_intensity(x0, a, b, sigma)
        });
    }

    #[test]
    fn non_finite_fx_parameters_are_typed_errors() {
        assert_non_finite_rejected([1.1, 0.02, 0.1, 0.015], |[x0, mu, sigma, diff]| {
            FxRate::new(x0, mu, sigma, diff)
        });
    }

    #[test]
    fn gbm_rejects_bad_params() {
        assert!(Gbm::new(0.0, 0.0, 0.1, 0.0).is_err());
        assert!(Gbm::new(1.0, 0.0, -0.1, 0.0).is_err());
    }

    #[test]
    fn vasicek_mean_reverts() {
        let v = Vasicek::new(0.10, 0.8, 0.03, 0.01, 0.0).unwrap();
        let finals = simulate(&v, Measure::RiskNeutral, 10.0, 120, 5_000, 5);
        let m = stats::mean(&finals);
        assert!((m - 0.03).abs() < 0.003, "long-run mean {m}");
    }

    #[test]
    fn vasicek_stationary_variance() {
        // Var_∞ = σ² / (2a).
        let v = Vasicek::new(0.03, 0.5, 0.03, 0.02, 0.0).unwrap();
        let finals = simulate(&v, Measure::RiskNeutral, 30.0, 360, 20_000, 9);
        let var = stats::variance(&finals);
        let expect = 0.02 * 0.02 / (2.0 * 0.5);
        assert!((var - expect).abs() < 0.1 * expect, "stationary var {var} vs {expect}");
    }

    #[test]
    fn vasicek_market_price_of_risk_shifts_p_mean() {
        let v = Vasicek::new(0.03, 0.5, 0.03, 0.02, 0.5).unwrap();
        assert!(v.long_run_mean(Measure::RealWorld) > v.long_run_mean(Measure::RiskNeutral));
        let p = simulate(&v, Measure::RealWorld, 20.0, 240, 10_000, 1);
        let q = simulate(&v, Measure::RiskNeutral, 20.0, 240, 10_000, 1);
        assert!(stats::mean(&p) > stats::mean(&q));
    }

    #[test]
    fn cir_stays_non_negative() {
        // Aggressive volatility, Feller violated — truncation must still
        // keep the path at or above zero.
        let c = Cir::short_rate(0.01, 0.3, 0.02, 0.5, 0.0).unwrap();
        assert!(!c.feller_condition());
        let mut rng = stream_rng(13, 0);
        let mut g = StandardNormal::new();
        let mut x = c.initial_value();
        for _ in 0..10_000 {
            x = c.step(x, 1.0 / 12.0, g.sample(&mut rng), Measure::RiskNeutral);
            assert!(x >= 0.0);
        }
    }

    #[test]
    fn cir_mean_reverts() {
        let c = Cir::short_rate(0.08, 1.0, 0.03, 0.05, 0.0).unwrap();
        assert!(c.feller_condition());
        let finals = simulate(&c, Measure::RiskNeutral, 10.0, 120, 10_000, 21);
        let m = stats::mean(&finals);
        assert!((m - 0.03).abs() < 0.003, "CIR mean {m}");
    }

    #[test]
    fn cir_rejects_bad_params() {
        assert!(Cir::short_rate(-0.01, 1.0, 0.03, 0.05, 0.0).is_err());
        assert!(Cir::short_rate(0.01, 0.0, 0.03, 0.05, 0.0).is_err());
        assert!(Cir::default_intensity(0.01, 1.0, -0.1, 0.05).is_err());
    }

    #[test]
    fn fx_parity_drift() {
        let fx = FxRate::new(1.1, 0.02, 0.1, 0.015).unwrap();
        let finals = simulate(&fx, Measure::RiskNeutral, 1.0, 12, 40_000, 17);
        let m = stats::mean(&finals);
        let expect = 1.1 * (0.015f64).exp();
        assert!((m - expect).abs() < 0.005, "fx mean {m} vs {expect}");
    }

    #[test]
    fn short_rate_flags() {
        assert!(Vasicek::new(0.02, 0.5, 0.03, 0.01, 0.0).unwrap().is_short_rate());
        assert!(Cir::short_rate(0.02, 0.5, 0.03, 0.01, 0.0).unwrap().is_short_rate());
        assert!(!Cir::default_intensity(0.02, 0.5, 0.03, 0.01).unwrap().is_short_rate());
        assert!(!Gbm::new(1.0, 0.0, 0.1, 0.0).unwrap().is_short_rate());
    }

    /// A driver that keeps the default `Generic` coefficients.
    pub(crate) struct Drifting;

    impl RiskDriver for Drifting {
        fn initial_value(&self) -> f64 {
            1.0
        }
        fn step(&self, state: f64, dt: f64, shock: f64, _measure: Measure) -> f64 {
            state + dt * 0.01 + shock * 0.1
        }
    }
}
