//! The segregated fund with book-value accounting.
//!
//! Italian profit-sharing returns are credited from the *book-value* return
//! of the segregated fund, not its market return. The fund manager smooths
//! returns by (a) holding bonds at amortized cost — their contribution is a
//! slowly moving *book yield*, modelled as an exponential moving average of
//! market rates — and (b) deciding each year what fraction of unrealized
//! equity gains to realize. This module implements exactly that mechanism;
//! its single output is the annual fund return series `I_t` that feeds the
//! contract readjustment of Eq. (3)–(5).

use crate::AlmError;
use disar_stochastic::scenario::ScenarioView;

/// The fund's accounting carried from one policy year into the next: the
/// bond book yield and the unrealized equity gains per unit of fund book
/// value ([`SegregatedFund::close_year`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FundAccounts {
    book_yield: f64,
    unrealized: f64,
}

/// A segregated fund: asset mix, accounting state and management strategy.
///
/// # Example
///
/// ```
/// use disar_alm::SegregatedFund;
///
/// let fund = SegregatedFund::italian_typical(30);
/// assert_eq!(fund.asset_count(), 30);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SegregatedFund {
    bond_weight: f64,
    equity_weight: f64,
    dividend_yield: f64,
    /// EMA factor of the bond book yield (`1.0` = frozen at initial).
    book_yield_smoothing: f64,
    initial_book_yield: f64,
    /// Fraction of positive unrealized equity gains realized each year.
    gain_realization: f64,
    /// Fraction of unrealized equity *losses* recognized each year
    /// (impairment policy).
    loss_recognition: f64,
    /// Number of asset positions — a pure complexity driver (the paper's
    /// "segregated fund asset number" ML feature): more positions mean more
    /// bookkeeping work per step, not a different return.
    asset_count: usize,
}

impl SegregatedFund {
    /// Builds a fund with full parameter control.
    ///
    /// # Errors
    ///
    /// Returns [`AlmError::InvalidParameter`] unless the weights are
    /// non-negative and sum to at most 1, all fractions are in `[0, 1]`,
    /// `initial_book_yield` is finite and `asset_count > 0`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        bond_weight: f64,
        equity_weight: f64,
        dividend_yield: f64,
        book_yield_smoothing: f64,
        initial_book_yield: f64,
        gain_realization: f64,
        loss_recognition: f64,
        asset_count: usize,
    ) -> Result<Self, AlmError> {
        if !(bond_weight >= 0.0
            && equity_weight >= 0.0
            && bond_weight + equity_weight <= 1.0 + 1e-12)
        {
            return Err(AlmError::InvalidParameter(
                "weights must be non-negative and sum to <= 1",
            ));
        }
        for (v, what) in [
            (dividend_yield, "dividend_yield"),
            (book_yield_smoothing, "book_yield_smoothing"),
            (gain_realization, "gain_realization"),
            (loss_recognition, "loss_recognition"),
        ] {
            if !(0.0..=1.0).contains(&v) {
                let _ = what;
                return Err(AlmError::InvalidParameter("fractions must be in [0, 1]"));
            }
        }
        if !initial_book_yield.is_finite() {
            return Err(AlmError::InvalidParameter("book yield must be finite"));
        }
        if asset_count == 0 {
            return Err(AlmError::InvalidParameter("asset_count must be > 0"));
        }
        Ok(SegregatedFund {
            bond_weight,
            equity_weight,
            dividend_yield,
            book_yield_smoothing,
            initial_book_yield,
            gain_realization,
            loss_recognition,
            asset_count,
        })
    }

    /// A typical Italian segregated fund: 85 % bonds at amortized cost,
    /// 15 % equity, 2 % dividend yield, strong book-yield smoothing and a
    /// 30 % annual gain-realization policy.
    pub fn italian_typical(asset_count: usize) -> Self {
        SegregatedFund {
            bond_weight: 0.85,
            equity_weight: 0.15,
            dividend_yield: 0.02,
            book_yield_smoothing: 0.85,
            initial_book_yield: 0.03,
            gain_realization: 0.30,
            loss_recognition: 0.50,
            asset_count: asset_count.max(1),
        }
    }

    /// Number of asset positions (complexity driver).
    pub fn asset_count(&self) -> usize {
        self.asset_count
    }

    /// Equity weight of the strategic mix.
    pub fn equity_weight(&self) -> f64 {
        self.equity_weight
    }

    /// The accounts at the start of a path: the initial book yield and no
    /// unrealized gains.
    pub fn opening_accounts(&self) -> FundAccounts {
        FundAccounts {
            book_yield: self.initial_book_yield,
            unrealized: 0.0,
        }
    }

    /// Closes one policy year of `accounts` given the year's equity return
    /// and average short rate, and returns the year's fund return `I_t`.
    /// The one fold of the fund's accounting:
    /// [`SegregatedFund::annual_returns_into`] runs it over a generated path,
    /// and the nested run's inner stage over years drawn one at a time.
    #[inline]
    pub fn close_year(&self, accounts: &mut FundAccounts, eq_return: f64, avg_rate: f64) -> f64 {
        // Bond book yield: EMA towards the current market rate.
        accounts.book_yield = self.book_yield_smoothing * accounts.book_yield
            + (1.0 - self.book_yield_smoothing) * avg_rate;

        // Equity: dividends are cash income; the price move accrues to the
        // unrealized-gains pot, of which the strategy realizes a fraction
        // (asymmetric for gains vs losses).
        let dividends = self.equity_weight * self.dividend_yield;
        let price_move = self.equity_weight * (eq_return - self.dividend_yield);
        accounts.unrealized += price_move;
        let realized = if accounts.unrealized >= 0.0 {
            self.gain_realization * accounts.unrealized
        } else {
            self.loss_recognition * accounts.unrealized
        };
        accounts.unrealized -= realized;

        self.bond_weight * accounts.book_yield + dividends + realized
    }

    /// Writes the annual fund-return series `I_1 … I_n` along one scenario
    /// path into `out` (cleared first), allocating nothing once `out` is
    /// warm.
    ///
    /// `equity_driver` and `rate_driver` are driver indices in `set`. Years
    /// are aggregated from the fine grid: the equity return of year `k` is
    /// the index ratio over the year, the bond book yield follows an EMA of
    /// the year's average short rate.
    ///
    /// # Errors
    ///
    /// Returns [`AlmError::ScenarioMismatch`] for out-of-range indices or a
    /// grid shorter than one year.
    pub fn annual_returns_into(
        &self,
        set: &ScenarioView<'_>,
        path: usize,
        equity_driver: usize,
        rate_driver: usize,
        out: &mut Vec<f64>,
    ) -> Result<(), AlmError> {
        if path >= set.n_paths() {
            return Err(AlmError::ScenarioMismatch(format!(
                "path {path} out of range ({})",
                set.n_paths()
            )));
        }
        if equity_driver >= set.n_drivers() || rate_driver >= set.n_drivers() {
            return Err(AlmError::ScenarioMismatch(
                "driver index out of range".to_string(),
            ));
        }
        let spy = set.grid().steps_per_year();
        let n_years = set.grid().n_steps() / spy;
        if n_years == 0 {
            return Err(AlmError::ScenarioMismatch(
                "grid shorter than one year".to_string(),
            ));
        }
        let equity = set.path(path, equity_driver);
        let rates = set.path(path, rate_driver);

        out.clear();
        out.reserve(n_years); // no-op once the buffer is warm
        let mut accounts = self.opening_accounts();
        for k in 0..n_years {
            let a = k * spy;
            let b = (k + 1) * spy;
            let eq_return = equity[b] / equity[a] - 1.0;
            let avg_rate = rates[a..=b].iter().sum::<f64>() / (spy + 1) as f64;
            out.push(self.close_year(&mut accounts, eq_return, avg_rate));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disar_math::stats;
    use disar_stochastic::drivers::{Gbm, Vasicek};
    use disar_stochastic::scenario::{Measure, ScenarioBuffer, ScenarioGenerator, TimeGrid};

    fn scenario_set(horizon: f64, n_paths: usize, equity_sigma: f64) -> ScenarioBuffer {
        let mut buf = ScenarioBuffer::new();
        ScenarioGenerator::builder()
            .driver(Box::new(Vasicek::new(0.03, 0.5, 0.03, 0.008, 0.0).unwrap()))
            .driver(Box::new(Gbm::new(100.0, 0.06, equity_sigma, 0.03).unwrap()))
            .grid(TimeGrid::new(horizon, 12).unwrap())
            .build()
            .unwrap()
            .generate_into(Measure::RealWorld, n_paths, 77, None, &mut buf)
            .unwrap();
        buf
    }

    /// Path `p`'s annual returns into a fresh vector.
    fn returns(
        fund: &SegregatedFund,
        set: &ScenarioBuffer,
        p: usize,
        equity_driver: usize,
        rate_driver: usize,
    ) -> Result<Vec<f64>, AlmError> {
        let mut out = Vec::new();
        fund.annual_returns_into(&set.view(), p, equity_driver, rate_driver, &mut out)?;
        Ok(out)
    }

    #[test]
    fn returns_have_one_entry_per_year() {
        let set = scenario_set(10.0, 3, 0.2);
        let fund = SegregatedFund::italian_typical(20);
        let r = returns(&fund, &set, 0, 1, 0).unwrap();
        assert_eq!(r.len(), 10);
        assert!(r.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn book_returns_smoother_than_market() {
        // The whole point of book-value accounting: fund returns are less
        // volatile than the underlying equity market returns.
        let set = scenario_set(20.0, 40, 0.25);
        let fund = SegregatedFund::italian_typical(20);
        let mut fund_sd = Vec::new();
        let mut market_sd = Vec::new();
        let view = set.view();
        for p in 0..view.n_paths() {
            let fr = returns(&fund, &set, p, 1, 0).unwrap();
            fund_sd.push(stats::std_dev(&fr));
            let eq = view.path(p, 1);
            let spy = view.grid().steps_per_year();
            let mr: Vec<f64> = (0..20)
                .map(|k| eq[(k + 1) * spy] / eq[k * spy] - 1.0)
                .collect();
            market_sd.push(stats::std_dev(&mr));
        }
        let f = stats::mean(&fund_sd);
        let m = stats::mean(&market_sd);
        assert!(f < 0.5 * m, "fund sd {f} should be far below market sd {m}");
    }

    #[test]
    fn all_bond_fund_tracks_book_yield() {
        let set = scenario_set(5.0, 2, 0.2);
        let fund = SegregatedFund::new(1.0, 0.0, 0.0, 1.0, 0.04, 0.0, 0.0, 10).unwrap();
        // Smoothing = 1.0 freezes the book yield at its initial value.
        let r = returns(&fund, &set, 0, 1, 0).unwrap();
        for x in r {
            assert!((x - 0.04).abs() < 1e-12);
        }
    }

    #[test]
    fn higher_equity_weight_raises_volatility() {
        let set = scenario_set(20.0, 30, 0.25);
        let lo = SegregatedFund::new(0.95, 0.05, 0.02, 0.85, 0.03, 0.3, 0.5, 10).unwrap();
        let hi = SegregatedFund::new(0.55, 0.45, 0.02, 0.85, 0.03, 0.3, 0.5, 10).unwrap();
        let mut sd_lo = Vec::new();
        let mut sd_hi = Vec::new();
        for p in 0..set.view().n_paths() {
            sd_lo.push(stats::std_dev(&returns(&lo, &set, p, 1, 0).unwrap()));
            sd_hi.push(stats::std_dev(&returns(&hi, &set, p, 1, 0).unwrap()));
        }
        assert!(stats::mean(&sd_hi) > stats::mean(&sd_lo));
    }

    #[test]
    fn constructor_validation() {
        assert!(SegregatedFund::new(0.9, 0.2, 0.02, 0.8, 0.03, 0.3, 0.5, 10).is_err());
        assert!(SegregatedFund::new(-0.1, 0.5, 0.02, 0.8, 0.03, 0.3, 0.5, 10).is_err());
        assert!(SegregatedFund::new(0.8, 0.2, 1.5, 0.8, 0.03, 0.3, 0.5, 10).is_err());
        assert!(SegregatedFund::new(0.8, 0.2, 0.02, 0.8, 0.03, 0.3, 0.5, 0).is_err());
    }

    #[test]
    fn non_finite_fund_parameters_are_typed_errors() {
        let base = [0.8, 0.2, 0.02, 0.8, 0.03, 0.3, 0.5];
        let new = |p: [f64; 7]| SegregatedFund::new(p[0], p[1], p[2], p[3], p[4], p[5], p[6], 10);
        assert!(new(base).is_ok());
        for i in 0..base.len() {
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let mut params = base;
                params[i] = bad;
                assert!(
                    matches!(new(params), Err(AlmError::InvalidParameter(_))),
                    "parameter {i} = {bad}"
                );
            }
        }
    }

    #[test]
    fn index_validation() {
        let set = scenario_set(2.0, 2, 0.2);
        let fund = SegregatedFund::italian_typical(5);
        assert!(returns(&fund, &set, 99, 1, 0).is_err());
        assert!(returns(&fund, &set, 0, 7, 0).is_err());
        assert!(returns(&fund, &set, 0, 1, 7).is_err());
    }

    #[test]
    fn deterministic_per_path() {
        let set = scenario_set(5.0, 4, 0.2);
        let fund = SegregatedFund::italian_typical(5);
        let a = returns(&fund, &set, 2, 1, 0).unwrap();
        let b = returns(&fund, &set, 2, 1, 0).unwrap();
        assert_eq!(a, b);
        let c = returns(&fund, &set, 3, 1, 0).unwrap();
        assert_ne!(a, c);
    }
}
