//! Deterministic non-stationarity for the hidden performance model.
//!
//! Real clouds drift: hardware refresh generations step the per-core
//! speed and the prices. The paper's Algorithm 1 assumes none of this —
//! its KB only ever grows and the ensemble refits on everything — so the
//! drift ablation needs a cloud whose ground truth *moves* while staying
//! fully reproducible.
//!
//! A [`DriftModel`] maps the provider's run index (the position of a job
//! in the [`crate::provider::CloudProvider::run_job`] stream, the same
//! index that seeds its noise) to an *effective* [`PerformanceModel`] and
//! a price multiplier. Everything is a pure function of the run index, so
//! drifted campaigns replay exactly as stationary ones do, and
//! [`crate::provider::CloudProvider::oracle_plan`] reads the drifted
//! conditions of any position. [`DriftModel::None`] is the default and
//! leaves the provider on the exact pre-drift code path — bit-identical to
//! a provider that has never heard of drift.
//!
//! The same access contract as [`crate::perf`] applies: the provisioning
//! layer never consults the drift model; it only observes realized
//! durations and invoices. Benchmarks may read the drifted ground truth
//! through the provider's oracle accessors, and must say so.

use crate::perf::PerformanceModel;

/// Deterministic drift applied to the hidden performance model, keyed by
/// the provider's run index.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum DriftModel {
    /// Stationary cloud — the bit-identical default.
    #[default]
    None,
    /// Hardware refresh generations: every `period` runs a new generation
    /// lands, multiplying the reference core speed by `speed_factor` and
    /// every hourly price by `price_factor` (both compounding per
    /// generation).
    StepRegime {
        /// Runs per hardware generation (must be > 0).
        period: u64,
        /// Per-generation multiplier on `units_per_core_sec`.
        speed_factor: f64,
        /// Per-generation multiplier on hourly prices.
        price_factor: f64,
    },
}

impl DriftModel {
    /// The effective performance model and price multiplier at run
    /// `run_index`, or `None` when the base model applies unchanged (the
    /// provider then runs the base model at price factor 1.0).
    pub fn effective(
        &self,
        base: &PerformanceModel,
        run_index: u64,
    ) -> Option<(PerformanceModel, f64)> {
        match *self {
            DriftModel::None => None,
            DriftModel::StepRegime {
                period,
                speed_factor,
                price_factor,
            } => {
                let generation = (run_index / period.max(1)) as i32;
                let mut perf = base.clone();
                perf.units_per_core_sec *= speed_factor.powi(generation);
                Some((perf, price_factor.powi(generation)))
            }
        }
    }

    /// Whether any run index can see drifted conditions.
    pub fn is_none(&self) -> bool {
        *self == DriftModel::None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_produces_an_effective_model() {
        let base = PerformanceModel::default();
        for i in [0, 1, 1000, u64::MAX] {
            assert!(DriftModel::None.effective(&base, i).is_none());
        }
        assert!(DriftModel::None.is_none());
    }

    #[test]
    fn step_regime_compounds_per_generation() {
        let base = PerformanceModel::default();
        let d = DriftModel::StepRegime {
            period: 100,
            speed_factor: 1.5,
            price_factor: 0.8,
        };
        let (p0, c0) = d.effective(&base, 99).unwrap();
        assert_eq!(p0.units_per_core_sec, base.units_per_core_sec);
        assert_eq!(c0, 1.0);
        let (p1, c1) = d.effective(&base, 100).unwrap();
        assert_eq!(p1.units_per_core_sec, base.units_per_core_sec * 1.5);
        assert_eq!(c1, 0.8);
        let (p2, c2) = d.effective(&base, 250).unwrap();
        assert_eq!(p2.units_per_core_sec, base.units_per_core_sec * 1.5 * 1.5);
        assert_eq!(c2, 0.8 * 0.8);
        // Everything but the reference speed is untouched.
        assert_eq!(p2.contention, base.contention);
        assert_eq!(p2.noise_sigma, base.noise_sigma);
    }

    #[test]
    fn defaults_to_none() {
        assert_eq!(DriftModel::default(), DriftModel::None);
    }
}
