//! Synthetic policy-portfolio generation.
//!
//! The paper evaluates on "three portfolios mimicking typical Italian
//! insurance company ones" — proprietary data we cannot ship. This generator
//! produces statistically similar books: a configurable mix of
//! profit-sharing products, realistic age/term/sum distributions, and a
//! small set of distinct profit-sharing parameter combinations so that
//! grouping yields a controllable number of representative contracts (the
//! paper's first characteristic parameter).

use crate::contracts::{Contract, ProductKind, ProfitSharing};
use crate::model_points::{group_into_model_points, ModelPoint};
use crate::mortality::Gender;
use crate::ActuarialError;
use disar_math::rng::stream_rng;

/// A policy portfolio backed by one segregated fund.
#[derive(Debug, Clone, PartialEq)]
pub struct Portfolio {
    /// Human-readable name (e.g. `"company-A"`).
    pub name: String,
    /// Grouped representative contracts.
    pub model_points: Vec<ModelPoint>,
}

impl Portfolio {
    /// Builds a portfolio from raw contracts, grouping them into model
    /// points.
    ///
    /// # Errors
    ///
    /// Returns [`ActuarialError::EmptyPortfolio`] for an empty contract
    /// list.
    pub fn from_contracts(name: &str, contracts: Vec<Contract>) -> Result<Self, ActuarialError> {
        Ok(Portfolio {
            name: name.to_string(),
            model_points: group_into_model_points(contracts)?,
        })
    }

    /// Number of representative contracts — the paper's first ML feature.
    pub fn representative_contracts(&self) -> usize {
        self.model_points.len()
    }

    /// Number of underlying policies.
    pub fn policy_count(&self) -> usize {
        self.model_points.iter().map(|p| p.policy_count).sum()
    }

    /// Total insured sum.
    pub fn total_insured_sum(&self) -> f64 {
        self.model_points
            .iter()
            .map(|p| p.contract.insured_sum)
            .sum()
    }

    /// The maximum time horizon of the policies (in years, against table
    /// horizon `omega`) — the paper's second ML feature.
    pub fn max_horizon(&self, omega: u32) -> u32 {
        self.model_points
            .iter()
            .map(|p| p.contract.term_years(omega))
            .max()
            .unwrap_or(0)
    }
}

/// Configuration of the synthetic generator.
#[derive(Debug, Clone, PartialEq)]
pub struct PortfolioSpec {
    /// Number of raw policies to draw.
    pub n_policies: usize,
    /// Issue-age range (inclusive).
    pub age_range: (u32, u32),
    /// Term range in years (inclusive), for term-limited products.
    pub term_range: (u32, u32),
    /// Insured-sum range in euros.
    pub sum_range: (f64, f64),
    /// Available participation coefficients (sampled uniformly).
    pub participations: Vec<f64>,
    /// Available technical rates (sampled uniformly).
    pub technical_rates: Vec<f64>,
    /// Product-mix weights `(pure endowment, endowment, term, whole life)`.
    pub product_weights: (f64, f64, f64, f64),
}

impl Default for PortfolioSpec {
    /// A typical Italian profit-sharing book: endowment-dominated, ages
    /// 30–70, terms 5–30 years, two participation levels and three
    /// guarantee levels.
    fn default() -> Self {
        PortfolioSpec {
            n_policies: 10_000,
            age_range: (30, 70),
            term_range: (5, 30),
            sum_range: (10_000.0, 250_000.0),
            participations: vec![0.80, 0.85],
            technical_rates: vec![0.0, 0.01, 0.02],
            product_weights: (0.25, 0.55, 0.10, 0.10),
        }
    }
}

impl PortfolioSpec {
    /// Draws a synthetic portfolio deterministically from `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`ActuarialError::InvalidParameter`] for inconsistent ranges
    /// or zero policies, and propagates contract-validation errors.
    pub fn generate(&self, name: &str, seed: u64) -> Result<Portfolio, ActuarialError> {
        if self.n_policies == 0 {
            return Err(ActuarialError::InvalidParameter("n_policies must be > 0"));
        }
        if self.age_range.0 > self.age_range.1
            || self.term_range.0 > self.term_range.1
            || self.term_range.0 == 0
        {
            return Err(ActuarialError::InvalidParameter("invalid range bounds"));
        }
        if !(self.sum_range.0 > 0.0 && self.sum_range.1 >= self.sum_range.0) {
            return Err(ActuarialError::InvalidParameter("invalid sum range"));
        }
        if self.participations.is_empty() || self.technical_rates.is_empty() {
            return Err(ActuarialError::InvalidParameter(
                "parameter menus must be non-empty",
            ));
        }
        let (w_pe, w_en, w_ti, w_wl) = self.product_weights;
        let w_total = w_pe + w_en + w_ti + w_wl;
        if w_total <= 0.0 {
            return Err(ActuarialError::InvalidParameter(
                "product weights must sum to a positive value",
            ));
        }

        let mut rng = stream_rng(seed, 0xF0F0);
        let mut contracts = Vec::with_capacity(self.n_policies);
        for _ in 0..self.n_policies {
            let u: f64 = rng.gen_range(0.0..w_total);
            let kind = if u < w_pe {
                ProductKind::PureEndowment
            } else if u < w_pe + w_en {
                ProductKind::Endowment
            } else if u < w_pe + w_en + w_ti {
                ProductKind::TermInsurance
            } else {
                ProductKind::WholeLife
            };
            let age = rng.gen_range(self.age_range.0..=self.age_range.1);
            // Bucket ages into 5-year bands so grouping actually merges
            // policies, like real model-point construction does.
            let age = age - age % 5;
            let term = rng.gen_range(self.term_range.0..=self.term_range.1);
            let term = (term - term % 5).max(self.term_range.0);
            let gender = if rng.gen_bool(0.5) {
                Gender::Male
            } else {
                Gender::Female
            };
            let sum = rng.gen_range(self.sum_range.0..=self.sum_range.1);
            let beta = self.participations[rng.gen_range(0..self.participations.len())];
            let tech = self.technical_rates[rng.gen_range(0..self.technical_rates.len())];
            let ps = ProfitSharing::new(beta, tech)?;
            contracts.push(Contract::new(kind, age, gender, term, sum, ps)?);
        }
        Portfolio::from_contracts(name, contracts)
    }
}

/// The paper's experimental setup: three company-like portfolios of
/// different sizes, generated deterministically from `seed`.
///
/// # Errors
///
/// Propagates generation errors (none for the built-in specs).
pub fn paper_portfolios(seed: u64) -> Result<Vec<Portfolio>, ActuarialError> {
    let small = PortfolioSpec {
        n_policies: 4_000,
        ..PortfolioSpec::default()
    };
    let medium = PortfolioSpec {
        n_policies: 12_000,
        ..PortfolioSpec::default()
    };
    let large = PortfolioSpec {
        n_policies: 40_000,
        age_range: (25, 75),
        term_range: (5, 40),
        ..PortfolioSpec::default()
    };
    Ok(vec![
        small.generate("company-A", seed)?,
        medium.generate("company-B", seed.wrapping_add(1))?,
        large.generate("company-C", seed.wrapping_add(2))?,
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let spec = PortfolioSpec {
            n_policies: 500,
            ..PortfolioSpec::default()
        };
        let a = spec.generate("x", 9).unwrap();
        let b = spec.generate("x", 9).unwrap();
        assert_eq!(a, b);
        let c = spec.generate("x", 10).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn policy_count_preserved() {
        let spec = PortfolioSpec {
            n_policies: 1_000,
            ..PortfolioSpec::default()
        };
        let p = spec.generate("x", 1).unwrap();
        assert_eq!(p.policy_count(), 1_000);
        assert!(p.representative_contracts() < 1_000, "grouping must merge");
        assert!(p.representative_contracts() > 10);
    }

    #[test]
    fn horizons_respect_spec() {
        let spec = PortfolioSpec {
            n_policies: 300,
            term_range: (5, 20),
            product_weights: (0.5, 0.5, 0.0, 0.0), // no whole life
            ..PortfolioSpec::default()
        };
        let p = spec.generate("x", 3).unwrap();
        assert!(p.max_horizon(120) <= 20);
        for mp in &p.model_points {
            assert!(mp.contract.term >= 5 && mp.contract.term <= 20);
        }
    }

    #[test]
    fn whole_life_extends_horizon() {
        let spec = PortfolioSpec {
            n_policies: 200,
            product_weights: (0.0, 0.0, 0.0, 1.0),
            ..PortfolioSpec::default()
        };
        let p = spec.generate("x", 3).unwrap();
        // Youngest issue age 30 → horizon up to 90 years.
        assert!(p.max_horizon(120) > 40);
    }

    #[test]
    fn spec_validation() {
        let s = PortfolioSpec {
            n_policies: 0,
            ..PortfolioSpec::default()
        };
        assert!(s.generate("x", 1).is_err());
        let s = PortfolioSpec {
            age_range: (70, 30),
            ..PortfolioSpec::default()
        };
        assert!(s.generate("x", 1).is_err());
        let s = PortfolioSpec {
            participations: Vec::new(),
            ..PortfolioSpec::default()
        };
        assert!(s.generate("x", 1).is_err());
        let s = PortfolioSpec {
            product_weights: (0.0, 0.0, 0.0, 0.0),
            ..PortfolioSpec::default()
        };
        assert!(s.generate("x", 1).is_err());
    }

    #[test]
    fn paper_portfolios_have_increasing_size() {
        let ps = paper_portfolios(42).unwrap();
        assert_eq!(ps.len(), 3);
        assert!(ps[0].policy_count() < ps[1].policy_count());
        assert!(ps[1].policy_count() < ps[2].policy_count());
        assert!(ps.iter().all(|p| p.total_insured_sum() > 0.0));
    }
}
