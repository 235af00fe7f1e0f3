//! Life tables and survival probabilities.
//!
//! The proprietary Italian tables (SIM/SIF, IPS55, …) used in production are
//! not redistributable, so we construct tables from the Gompertz–Makeham law
//! of mortality
//!
//! ```text
//! μ(x) = A + B · c^x
//! ```
//!
//! with parameter sets calibrated to resemble Italian population and
//! annuitant mortality. The resulting `q_x` (one-year death probabilities)
//! drive all decrement computations.

use crate::ActuarialError;

/// Terminal age of all tables built here.
pub const DEFAULT_OMEGA: u32 = 120;

/// Biological sex for table selection (distinct mortality levels).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Gender {
    /// Male mortality (higher B parameter).
    Male,
    /// Female mortality.
    Female,
}

/// A discrete life table: one-year death probabilities `q_x` for
/// `x = 0 ..= omega`, with `q_omega = 1`.
///
/// # Example
///
/// ```
/// use disar_actuarial::mortality::LifeTable;
///
/// let t = LifeTable::italian_population();
/// // Mortality increases with adult age.
/// assert!(t.qx(80).unwrap() > t.qx(40).unwrap());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LifeTable {
    name: String,
    omega: u32,
    qx: Vec<f64>,
}

impl LifeTable {
    /// Builds a table from the Gompertz–Makeham force of mortality
    /// `μ(x) = a + b·c^x`, converting to `q_x = 1 − exp(−∫ μ)` with the
    /// mid-year approximation `q_x ≈ 1 − exp(−μ(x + ½))`.
    ///
    /// # Errors
    ///
    /// Returns [`ActuarialError::InvalidParameter`] unless `a ≥ 0`, `b > 0`,
    /// `c > 1` and `omega ≥ 1`.
    pub fn gompertz_makeham(
        name: &str,
        a: f64,
        b: f64,
        c: f64,
        omega: u32,
    ) -> Result<Self, ActuarialError> {
        if a < 0.0 {
            return Err(ActuarialError::InvalidParameter("a must be >= 0"));
        }
        if b <= 0.0 {
            return Err(ActuarialError::InvalidParameter("b must be > 0"));
        }
        if c <= 1.0 {
            return Err(ActuarialError::InvalidParameter("c must be > 1"));
        }
        if omega == 0 {
            return Err(ActuarialError::InvalidParameter("omega must be >= 1"));
        }
        let mut qx: Vec<f64> = (0..omega)
            .map(|x| {
                let mu = a + b * c.powf(x as f64 + 0.5);
                (1.0 - (-mu).exp()).clamp(0.0, 1.0)
            })
            .collect();
        qx.push(1.0); // q_omega = 1: nobody survives past ω.
        Ok(LifeTable {
            name: name.to_string(),
            omega,
            qx,
        })
    }

    /// A table resembling Italian general-population mortality
    /// (ISTAT-like level).
    pub fn italian_population() -> Self {
        Self::gompertz_makeham("IT-population", 5e-4, 4e-5, 1.105, DEFAULT_OMEGA)
            .expect("constant parameters are valid")
    }

    /// A lighter-mortality table resembling Italian annuitant experience
    /// (self-selection effect).
    pub fn italian_annuitants() -> Self {
        Self::gompertz_makeham("IT-annuitants", 3e-4, 2.2e-5, 1.103, DEFAULT_OMEGA)
            .expect("constant parameters are valid")
    }

    /// Selects a population table by gender (female mortality ≈ 4 years
    /// younger than male at equal age).
    pub fn italian_by_gender(gender: Gender) -> Self {
        match gender {
            Gender::Male => {
                Self::gompertz_makeham("IT-male", 6e-4, 5.5e-5, 1.105, DEFAULT_OMEGA)
                    .expect("constant parameters are valid")
            }
            Gender::Female => {
                Self::gompertz_makeham("IT-female", 4e-4, 2.5e-5, 1.105, DEFAULT_OMEGA)
                    .expect("constant parameters are valid")
            }
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Terminal age ω.
    pub fn omega(&self) -> u32 {
        self.omega
    }

    /// One-year death probability `q_x`.
    ///
    /// # Errors
    ///
    /// Returns [`ActuarialError::AgeOutOfRange`] for `age > omega`.
    pub fn qx(&self, age: u32) -> Result<f64, ActuarialError> {
        self.qx
            .get(age as usize)
            .copied()
            .ok_or(ActuarialError::AgeOutOfRange {
                age,
                omega: self.omega,
            })
    }

    /// One-year survival probability `p_x = 1 − q_x` (zero beyond ω).
    pub fn px(&self, age: u32) -> f64 {
        self.qx
            .get(age as usize)
            .map_or(0.0, |q| 1.0 - q)
    }

    /// `t`-year survival probability `t·p_x = Π p_{x+s}` (zero beyond ω).
    pub fn survival_probability(&self, age: u32, years: u32) -> f64 {
        (0..years).map(|s| self.px(age + s)).product()
    }

    /// Probability that a life aged `x` dies in year `t+1` (i.e. between
    /// `t` and `t+1`): `t·p_x · q_{x+t}`.
    pub fn deferred_death_probability(&self, age: u32, t: u32) -> f64 {
        self.survival_probability(age, t) * self.qx.get((age + t) as usize).copied().unwrap_or(1.0)
    }

    /// Curtate life expectancy `e_x = Σ_{t≥1} t·p_x`.
    pub fn curtate_expectancy(&self, age: u32) -> f64 {
        let mut e = 0.0;
        let mut p = 1.0;
        for s in 0..(self.omega.saturating_sub(age) + 1) {
            p *= self.px(age + s);
            if p <= 0.0 {
                break;
            }
            e += p;
        }
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qx_monotone_in_adult_ages() {
        let t = LifeTable::italian_population();
        for age in 30..100 {
            assert!(
                t.qx(age + 1).unwrap() >= t.qx(age).unwrap(),
                "q_x should not decrease at age {age}"
            );
        }
    }

    #[test]
    fn qx_bounded_and_terminal() {
        let t = LifeTable::italian_population();
        for age in 0..=t.omega() {
            let q = t.qx(age).unwrap();
            assert!((0.0..=1.0).contains(&q));
        }
        assert_eq!(t.qx(t.omega()).unwrap(), 1.0);
        assert!(t.qx(t.omega() + 1).is_err());
    }

    #[test]
    fn survival_decomposes_multiplicatively() {
        let t = LifeTable::italian_population();
        let p10 = t.survival_probability(50, 10);
        let p5a = t.survival_probability(50, 5);
        let p5b = t.survival_probability(55, 5);
        assert!((p10 - p5a * p5b).abs() < 1e-12);
    }

    #[test]
    fn survival_zero_years_is_one() {
        let t = LifeTable::italian_population();
        assert_eq!(t.survival_probability(40, 0), 1.0);
    }

    #[test]
    fn nobody_survives_past_omega() {
        let t = LifeTable::italian_population();
        assert_eq!(t.survival_probability(100, 30), 0.0);
    }

    #[test]
    fn deferred_death_probabilities_sum_to_one() {
        let t = LifeTable::italian_population();
        let age = 60;
        let total: f64 = (0..=(t.omega() - age))
            .map(|s| t.deferred_death_probability(age, s))
            .sum();
        assert!((total - 1.0).abs() < 1e-9, "total {total}");
    }

    #[test]
    fn annuitants_outlive_population() {
        let pop = LifeTable::italian_population();
        let ann = LifeTable::italian_annuitants();
        assert!(ann.curtate_expectancy(65) > pop.curtate_expectancy(65));
    }

    #[test]
    fn female_mortality_lighter_than_male() {
        let m = LifeTable::italian_by_gender(Gender::Male);
        let f = LifeTable::italian_by_gender(Gender::Female);
        assert!(f.survival_probability(60, 20) > m.survival_probability(60, 20));
    }

    #[test]
    fn life_expectancy_plausible() {
        let t = LifeTable::italian_population();
        let e40 = t.curtate_expectancy(40);
        assert!((25.0..60.0).contains(&e40), "e_40 = {e40}");
        assert!(t.curtate_expectancy(80) < e40);
    }

    #[test]
    fn constructor_validation() {
        assert!(LifeTable::gompertz_makeham("x", -1.0, 1e-5, 1.1, 120).is_err());
        assert!(LifeTable::gompertz_makeham("x", 0.0, 0.0, 1.1, 120).is_err());
        assert!(LifeTable::gompertz_makeham("x", 0.0, 1e-5, 1.0, 120).is_err());
        assert!(LifeTable::gompertz_makeham("x", 0.0, 1e-5, 1.1, 0).is_err());
    }
}
