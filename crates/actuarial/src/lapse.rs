//! Policyholder-lapse (surrender) models.
//!
//! Lapse is one of the actuarial risk sources DISAR models ("sources of
//! actuarial risks such as longevity/mortality and lapse", §II). Lapses are
//! assumed independent of mortality and of the financial drivers (the
//! mutual-independence assumption of the paper); what varies between models
//! is the dependence of the annual lapse rate on policy duration.

use crate::ActuarialError;

/// A lapse model: annual probability that a live policy is surrendered
/// during policy year `duration` (0-based).
pub trait LapseModel: Send + Sync {
    /// Annual lapse probability in `[0, 1]` for the given policy duration
    /// (years since issue).
    fn annual_rate(&self, duration: u32) -> f64;

    /// Probability the policy is still in force (not lapsed) after `t`
    /// years, conditional on survival.
    fn persistency(&self, t: u32) -> f64 {
        (0..t).map(|d| 1.0 - self.annual_rate(d)).product()
    }
}

/// Constant annual lapse rate.
///
/// # Example
///
/// ```
/// use disar_actuarial::lapse::{ConstantLapse, LapseModel};
///
/// let l = ConstantLapse::new(0.05).unwrap();
/// assert!((l.persistency(2) - 0.9025).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConstantLapse {
    rate: f64,
}

impl ConstantLapse {
    /// Creates a constant-rate model.
    ///
    /// # Errors
    ///
    /// Returns [`ActuarialError::InvalidParameter`] unless `rate ∈ [0, 1]`.
    pub fn new(rate: f64) -> Result<Self, ActuarialError> {
        if !(0.0..=1.0).contains(&rate) {
            return Err(ActuarialError::InvalidParameter("rate must be in [0, 1]"));
        }
        Ok(ConstantLapse { rate })
    }

    /// The constant annual rate.
    pub fn rate(&self) -> f64 {
        self.rate
    }
}

impl LapseModel for ConstantLapse {
    fn annual_rate(&self, _duration: u32) -> f64 {
        self.rate
    }
}

/// Duration-dependent lapse: elevated in the first policy years (typical
/// Italian experience: early surrenders cluster right after the surrender
/// penalty expires), decaying geometrically to a long-run level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DurationLapse {
    initial: f64,
    long_run: f64,
    decay: f64,
}

impl DurationLapse {
    /// Creates a duration-dependent model with first-year rate `initial`
    /// decaying towards `long_run` with per-year factor `decay`.
    ///
    /// # Errors
    ///
    /// Returns [`ActuarialError::InvalidParameter`] unless all rates are in
    /// `[0, 1]` and `decay ∈ (0, 1]`.
    pub fn new(initial: f64, long_run: f64, decay: f64) -> Result<Self, ActuarialError> {
        if !(0.0..=1.0).contains(&initial) || !(0.0..=1.0).contains(&long_run) {
            return Err(ActuarialError::InvalidParameter("rates must be in [0, 1]"));
        }
        if !(decay > 0.0 && decay <= 1.0) {
            return Err(ActuarialError::InvalidParameter("decay must be in (0, 1]"));
        }
        Ok(DurationLapse {
            initial,
            long_run,
            decay,
        })
    }

    /// Typical Italian profit-sharing book: 8 % first-year lapses decaying
    /// to 3 % with factor 0.7.
    pub fn italian_typical() -> Self {
        DurationLapse {
            initial: 0.08,
            long_run: 0.03,
            decay: 0.7,
        }
    }
}

impl LapseModel for DurationLapse {
    fn annual_rate(&self, duration: u32) -> f64 {
        self.long_run + (self.initial - self.long_run) * self.decay.powi(duration as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_validation() {
        assert!(ConstantLapse::new(-0.1).is_err());
        assert!(ConstantLapse::new(1.1).is_err());
        assert!(ConstantLapse::new(0.0).is_ok());
        assert!(ConstantLapse::new(1.0).is_ok());
    }

    #[test]
    fn zero_rate_full_persistency() {
        let l = ConstantLapse::new(0.0).unwrap();
        assert_eq!(l.persistency(50), 1.0);
    }

    #[test]
    fn persistency_is_monotone_decreasing() {
        let l = DurationLapse::italian_typical();
        let mut prev = 1.0;
        for t in 1..40 {
            let p = l.persistency(t);
            assert!(p < prev);
            assert!(p > 0.0);
            prev = p;
        }
    }

    #[test]
    fn duration_rate_decays_to_long_run() {
        let l = DurationLapse::new(0.10, 0.02, 0.5).unwrap();
        assert!((l.annual_rate(0) - 0.10).abs() < 1e-12);
        assert!((l.annual_rate(20) - 0.02).abs() < 1e-6);
        // Monotone decreasing towards long-run.
        for d in 0..19 {
            assert!(l.annual_rate(d + 1) <= l.annual_rate(d));
        }
    }

    #[test]
    fn duration_validation() {
        assert!(DurationLapse::new(1.5, 0.02, 0.5).is_err());
        assert!(DurationLapse::new(0.1, -0.1, 0.5).is_err());
        assert!(DurationLapse::new(0.1, 0.02, 0.0).is_err());
        assert!(DurationLapse::new(0.1, 0.02, 1.5).is_err());
    }
}
