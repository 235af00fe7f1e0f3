//! Profit-sharing contract mechanics — Equations (1)–(5) of the paper.
//!
//! Italian segregated-fund ("gestione separata") policies credit the
//! policyholder each year with a share of the fund return in excess of the
//! technical rate: the *readjustment rate*
//!
//! ```text
//! ρ_t = (max(β I_t, i) − i) / (1 + i)          (Eq. 3)
//! ```
//!
//! raises the insured sum `C_t = C_{t−1} (1 + ρ_t)` (Eq. 5), and the
//! cumulative *readjustment factor* is
//!
//! ```text
//! Φ_T = Π_{t=1..T} (1 + ρ_t)
//!     = (1 + i)^{−T} Π_{t=1..T} (1 + max(β I_t, i))   (Eq. 2)
//! ```

use crate::mortality::Gender;
use crate::ActuarialError;

/// Profit-sharing parameters contractually specified for a policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfitSharing {
    /// Participation coefficient `β ∈ (0, 1)`.
    pub participation: f64,
    /// Technical (minimum guaranteed) rate `i ≥ 0`.
    pub technical_rate: f64,
}

impl ProfitSharing {
    /// Validates and creates the parameter pair.
    ///
    /// # Errors
    ///
    /// Returns [`ActuarialError::InvalidParameter`] unless
    /// `participation ∈ (0, 1)` and `technical_rate ≥ 0`.
    pub fn new(participation: f64, technical_rate: f64) -> Result<Self, ActuarialError> {
        if !(participation > 0.0 && participation < 1.0) {
            return Err(ActuarialError::InvalidParameter(
                "participation must be in (0, 1)",
            ));
        }
        if technical_rate < 0.0 {
            return Err(ActuarialError::InvalidParameter(
                "technical_rate must be >= 0",
            ));
        }
        Ok(ProfitSharing {
            participation,
            technical_rate,
        })
    }

    /// The readjustment rate `ρ_t` for one annual fund return `I_t`
    /// (Eq. 3). Always non-negative: the technical rate is a floor.
    pub fn readjustment_rate(&self, fund_return: f64) -> f64 {
        let i = self.technical_rate;
        ((self.participation * fund_return).max(i) - i) / (1.0 + i)
    }

    /// The cumulative readjustment factor `Φ_T` over a path of annual fund
    /// returns (Eq. 2).
    pub fn readjustment_factor(&self, fund_returns: &[f64]) -> f64 {
        fund_returns
            .iter()
            .map(|&it| 1.0 + self.readjustment_rate(it))
            .product()
    }

    /// The insured-sum path `C_0, C_1, …, C_T` under Eq. (5).
    pub fn insured_sum_path(&self, c0: f64, fund_returns: &[f64]) -> Vec<f64> {
        let mut path = Vec::with_capacity(fund_returns.len() + 1);
        let mut c = c0;
        path.push(c);
        for &it in fund_returns {
            c *= 1.0 + self.readjustment_rate(it);
            path.push(c);
        }
        path
    }
}

/// The product families DISAR's Italian book contains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProductKind {
    /// Pays the readjusted sum at maturity if the insured survives (the
    /// paper's running example, Eq. 1).
    PureEndowment,
    /// Pays at maturity on survival *and* at death during the term.
    Endowment,
    /// Pays the readjusted sum at death during the term only.
    TermInsurance,
    /// Pays the readjusted sum at death, whenever it happens.
    WholeLife,
    /// Immediate life annuity: pays the readjusted annual amount at the end
    /// of every survived year, for life. `insured_sum` is the *annual*
    /// payment `R_0`; profit sharing revalues it through `Φ_t` exactly as
    /// it revalues an endowment's insured sum. Not surrenderable (typical
    /// for Italian "rendita vitalizia" in payout phase).
    LifeAnnuity,
}

impl ProductKind {
    /// `true` if the product pays a survival benefit at maturity.
    pub fn has_maturity_benefit(self) -> bool {
        matches!(self, ProductKind::PureEndowment | ProductKind::Endowment)
    }

    /// `true` if the product pays a death benefit during the term.
    pub fn has_death_benefit(self) -> bool {
        matches!(
            self,
            ProductKind::Endowment | ProductKind::TermInsurance | ProductKind::WholeLife
        )
    }

    /// `true` if the product pays an annual survival benefit (annuities).
    pub fn has_annual_benefit(self) -> bool {
        matches!(self, ProductKind::LifeAnnuity)
    }

    /// `true` if the policyholder can surrender the contract.
    pub fn is_surrenderable(self) -> bool {
        !matches!(self, ProductKind::LifeAnnuity)
    }
}

/// A single-premium profit-sharing contract, written at `t = 0` on a life
/// aged `age`.
#[derive(Debug, Clone, PartialEq)]
pub struct Contract {
    /// Product family.
    pub kind: ProductKind,
    /// Age of the insured at issue.
    pub age: u32,
    /// Gender of the insured (drives table selection).
    pub gender: Gender,
    /// Contract term in years (ignored for [`ProductKind::WholeLife`]; see
    /// [`Contract::term_years`]).
    pub term: u32,
    /// Initial insured sum `C_0`.
    pub insured_sum: f64,
    /// Profit-sharing parameters.
    pub profit_sharing: ProfitSharing,
    /// Fraction of the current insured sum paid on surrender (lapse).
    pub surrender_factor: f64,
}

impl Contract {
    /// Validates and creates a contract.
    ///
    /// # Errors
    ///
    /// Returns [`ActuarialError::InvalidParameter`] for a non-positive
    /// insured sum, a zero term on term-limited products, or a surrender
    /// factor outside `[0, 1]`.
    pub fn new(
        kind: ProductKind,
        age: u32,
        gender: Gender,
        term: u32,
        insured_sum: f64,
        profit_sharing: ProfitSharing,
    ) -> Result<Self, ActuarialError> {
        if insured_sum <= 0.0 {
            return Err(ActuarialError::InvalidParameter(
                "insured_sum must be positive",
            ));
        }
        if term == 0 && !matches!(kind, ProductKind::WholeLife | ProductKind::LifeAnnuity) {
            return Err(ActuarialError::InvalidParameter("term must be >= 1"));
        }
        Ok(Contract {
            kind,
            age,
            gender,
            term,
            insured_sum,
            profit_sharing,
            surrender_factor: 0.9,
        })
    }

    /// Overrides the surrender factor.
    ///
    /// # Errors
    ///
    /// Returns [`ActuarialError::InvalidParameter`] outside `[0, 1]`.
    pub fn with_surrender_factor(mut self, factor: f64) -> Result<Self, ActuarialError> {
        if !(0.0..=1.0).contains(&factor) {
            return Err(ActuarialError::InvalidParameter(
                "surrender_factor must be in [0, 1]",
            ));
        }
        self.surrender_factor = factor;
        Ok(self)
    }

    /// Effective term in years given a table horizon `omega`: whole-life
    /// contracts run to ω.
    pub fn term_years(&self, omega: u32) -> u32 {
        match self.kind {
            ProductKind::WholeLife | ProductKind::LifeAnnuity => {
                omega.saturating_sub(self.age).max(1)
            }
            _ => self.term,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ps() -> ProfitSharing {
        ProfitSharing::new(0.8, 0.02).unwrap()
    }

    #[test]
    fn validation_of_profit_sharing() {
        assert!(ProfitSharing::new(0.0, 0.02).is_err());
        assert!(ProfitSharing::new(1.0, 0.02).is_err());
        assert!(ProfitSharing::new(0.8, -0.01).is_err());
    }

    #[test]
    fn readjustment_rate_floor() {
        let p = ps();
        // Fund return below the guarantee: rate is zero (guarantee binds).
        assert_eq!(p.readjustment_rate(0.0), 0.0);
        assert_eq!(p.readjustment_rate(-0.10), 0.0);
        assert_eq!(p.readjustment_rate(0.02), 0.0); // β·2% = 1.6% < 2%
    }

    #[test]
    fn readjustment_rate_formula() {
        let p = ps();
        // β I = 0.8 * 0.10 = 8% > 2% ⇒ ρ = (0.08 − 0.02)/1.02.
        let rho = p.readjustment_rate(0.10);
        assert!((rho - 0.06 / 1.02).abs() < 1e-12);
    }

    #[test]
    fn equation_two_identity() {
        // Π (1+ρ_t) must equal (1+i)^{-T} Π (1 + max(βI_t, i)).
        let p = ps();
        let returns = [0.10, -0.03, 0.05, 0.00, 0.12];
        let lhs = p.readjustment_factor(&returns);
        let i = p.technical_rate;
        let rhs = (1.0 + i).powi(-(returns.len() as i32))
            * returns
                .iter()
                .map(|&it| 1.0 + (p.participation * it).max(i))
                .product::<f64>();
        assert!((lhs - rhs).abs() < 1e-12, "lhs {lhs} rhs {rhs}");
    }

    #[test]
    fn insured_sum_never_decreases() {
        // ρ_t ≥ 0 always (minimum guarantee), so C_t is non-decreasing.
        let p = ps();
        let returns = [0.10, -0.20, 0.04, -0.02, 0.30];
        let path = p.insured_sum_path(1000.0, &returns);
        for w in path.windows(2) {
            assert!(w[1] >= w[0]);
        }
        assert_eq!(path.len(), 6);
        assert_eq!(path[0], 1000.0);
    }

    #[test]
    fn factor_equals_sum_path_ratio() {
        let p = ps();
        let returns = [0.06, 0.03, 0.09];
        let phi = p.readjustment_factor(&returns);
        let path = p.insured_sum_path(500.0, &returns);
        assert!((path[3] / path[0] - phi).abs() < 1e-12);
    }

    #[test]
    fn contract_validation() {
        assert!(Contract::new(
            ProductKind::PureEndowment,
            40,
            Gender::Male,
            10,
            0.0,
            ps()
        )
        .is_err());
        assert!(Contract::new(
            ProductKind::Endowment,
            40,
            Gender::Male,
            0,
            100.0,
            ps()
        )
        .is_err());
        // Whole life ignores term.
        assert!(Contract::new(
            ProductKind::WholeLife,
            40,
            Gender::Male,
            0,
            100.0,
            ps()
        )
        .is_ok());
    }

    #[test]
    fn whole_life_term_runs_to_omega() {
        let c = Contract::new(ProductKind::WholeLife, 40, Gender::Female, 0, 100.0, ps()).unwrap();
        assert_eq!(c.term_years(120), 80);
        let c2 =
            Contract::new(ProductKind::PureEndowment, 40, Gender::Female, 15, 100.0, ps()).unwrap();
        assert_eq!(c2.term_years(120), 15);
    }

    #[test]
    fn surrender_factor_bounds() {
        let c = Contract::new(ProductKind::Endowment, 40, Gender::Male, 10, 100.0, ps()).unwrap();
        assert!(c.clone().with_surrender_factor(1.5).is_err());
        assert!(c.clone().with_surrender_factor(-0.1).is_err());
        assert_eq!(c.with_surrender_factor(0.8).unwrap().surrender_factor, 0.8);
    }

    #[test]
    fn product_benefit_flags() {
        assert!(ProductKind::PureEndowment.has_maturity_benefit());
        assert!(!ProductKind::PureEndowment.has_death_benefit());
        assert!(ProductKind::Endowment.has_maturity_benefit());
        assert!(ProductKind::Endowment.has_death_benefit());
        assert!(!ProductKind::TermInsurance.has_maturity_benefit());
        assert!(ProductKind::WholeLife.has_death_benefit());
    }
}
