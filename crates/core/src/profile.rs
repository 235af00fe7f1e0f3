//! Job characteristic parameters — the paper's feature set `F`.
//!
//! "We have experimentally selected the characteristic parameters relative
//! to each EEB that induce the highest variability in the execution time of
//! the simulation, namely the number of representative contracts …, the
//! maximum time horizon of the policies, the segregated fund asset number
//! and the number of financial risk-factors" (§III). We additionally carry
//! the Monte Carlo sizes `nP`/`nQ`, which are known before the run and
//! scale execution time linearly.

use disar_engine::EebCharacteristics;
use disar_math::json::{Json, JsonError};

/// The pre-run-known profile of one simulation job (`f ∈ F`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobProfile {
    /// The EEB-derived characteristic parameters.
    pub characteristics: EebCharacteristics,
    /// Outer ("natural") iterations `nP`.
    pub n_outer: usize,
    /// Inner (risk-neutral) iterations `nQ`.
    pub n_inner: usize,
}

impl JobProfile {
    /// Flattens the profile into the job half of the ML feature vector.
    pub fn to_features(&self) -> Vec<f64> {
        let mut f = Vec::new();
        self.features_into(&mut f);
        f
    }

    /// Appends the features of [`JobProfile::to_features`] onto `out` —
    /// the allocation-free variant for batched featurization.
    pub fn features_into(&self, out: &mut Vec<f64>) {
        self.characteristics.features_into(out);
        out.push(self.n_outer as f64);
        out.push(self.n_inner as f64);
    }

    /// Names matching [`JobProfile::to_features`].
    pub fn feature_names() -> Vec<String> {
        let mut names = EebCharacteristics::feature_names();
        names.push("n_outer".to_string());
        names.push("n_inner".to_string());
        names
    }

    /// Number of job features.
    pub fn n_features() -> usize {
        Self::feature_names().len()
    }

    /// The profile as it sits inside a knowledge-base record.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("characteristics", self.characteristics.to_json()),
            ("n_outer", self.n_outer.into()),
            ("n_inner", self.n_inner.into()),
        ])
    }

    /// Reads a profile back from [`JobProfile::to_json`]'s object.
    ///
    /// # Errors
    ///
    /// Names the first field that is missing or holds another type.
    pub fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(JobProfile {
            characteristics: EebCharacteristics::from_json(json.at("characteristics")?)?,
            n_outer: json.uint_at("n_outer")?,
            n_inner: json.uint_at("n_inner")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> JobProfile {
        JobProfile {
            characteristics: EebCharacteristics {
                representative_contracts: 250,
                max_horizon: 30,
                fund_assets: 40,
                risk_factors: 2,
            },
            n_outer: 1000,
            n_inner: 50,
        }
    }

    #[test]
    fn features_in_declared_order() {
        let f = profile().to_features();
        assert_eq!(f, vec![250.0, 30.0, 40.0, 2.0, 1000.0, 50.0]);
        assert_eq!(f.len(), JobProfile::n_features());
    }

    #[test]
    fn names_match_feature_count() {
        assert_eq!(JobProfile::feature_names().len(), 6);
        assert_eq!(JobProfile::feature_names()[4], "n_outer");
    }
}
