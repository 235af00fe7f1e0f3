//! Prediction-averaging ensemble — the paper's error-damping step.
//!
//! Algorithm 1 evaluates *every* model `p_x` and uses the arithmetic mean of
//! their predicted times: "To account for possible prediction errors by the
//! various models p_x, we compute a final value time … as the average of all
//! the times predicted by the models."

use crate::batch::{check_out_len, FeatureMatrix, PredictScratch};
use crate::dataset::Dataset;
use crate::regressor::{IncrementalRegressor, Regressor};
use crate::MlError;

/// An ensemble of heterogeneous regressors predicting the arithmetic mean
/// of its members.
///
/// # Example
///
/// ```
/// use disar_ml::{default_family, Dataset, Ensemble, Regressor};
///
/// let mut data = Dataset::new(vec!["x".into()]);
/// for i in 0..40 {
///     data.push(vec![i as f64], 2.0 * i as f64).unwrap();
/// }
/// let mut ens = Ensemble::new(default_family(1));
/// ens.fit(&data).unwrap();
/// let y = ens.predict(&[20.0]).unwrap();
/// assert!((y - 40.0).abs() < 15.0);
/// ```
#[derive(Clone)]
pub struct Ensemble {
    members: Vec<Box<dyn Regressor>>,
    fitted_len: usize,
}

impl Ensemble {
    /// Wraps a set of member models.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty.
    pub fn new(members: Vec<Box<dyn Regressor>>) -> Self {
        assert!(!members.is_empty(), "ensemble needs at least one member");
        Ensemble {
            members,
            fitted_len: 0,
        }
    }

    /// Number of member models.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Returns `true` if the ensemble has no members (never, by
    /// construction).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Immutable access to the members.
    pub fn members(&self) -> &[Box<dyn Regressor>] {
        &self.members
    }

    /// Per-member predictions, paired with the member's name — the paper's
    /// Table I needs individual-model errors, not just the average.
    ///
    /// # Errors
    ///
    /// Fails with the first member error ([`MlError::NotFitted`] etc.).
    pub fn predict_each(&self, x: &[f64]) -> Result<Vec<(String, f64)>, MlError> {
        self.members
            .iter()
            .map(|m| Ok((m.name().to_string(), m.predict(x)?)))
            .collect()
    }
}

impl Regressor for Ensemble {
    fn fit(&mut self, data: &Dataset) -> Result<(), MlError> {
        for m in &mut self.members {
            m.fit(data)?;
        }
        self.fitted_len = data.len();
        Ok(())
    }

    fn predict(&self, x: &[f64]) -> Result<f64, MlError> {
        let mut sum = 0.0;
        for m in &self.members {
            sum += m.predict(x)?;
        }
        Ok(sum / self.members.len() as f64)
    }

    /// Batched mean delegating to each member's batched kernel. Member
    /// predictions for a row accumulate in member order starting from 0.0 —
    /// the same left-to-right sum as the scalar loop (`Σ pᵢ` then `/n`) —
    /// so every output is bit-identical to [`Regressor::predict`]. The
    /// member staging buffer is taken out of the scratch for the duration
    /// of the call so the members can use the rest of it.
    fn predict_batch(
        &self,
        xs: &FeatureMatrix,
        out: &mut [f64],
        scratch: &mut PredictScratch,
    ) -> Result<(), MlError> {
        check_out_len(xs.len(), out)?;
        if xs.is_empty() {
            return Ok(());
        }
        let mut tmp = std::mem::take(&mut scratch.ensemble_tmp);
        tmp.clear();
        tmp.resize(out.len(), 0.0);
        out.fill(0.0);
        let mut result = Ok(());
        for m in &self.members {
            if let Err(e) = m.predict_batch(xs, &mut tmp, scratch) {
                result = Err(e);
                break;
            }
            for (slot, &v) in out.iter_mut().zip(tmp.iter()) {
                *slot += v;
            }
        }
        scratch.ensemble_tmp = tmp;
        result?;
        let n = self.members.len() as f64;
        for slot in out.iter_mut() {
            *slot /= n;
        }
        Ok(())
    }

    fn name(&self) -> &'static str {
        "Ensemble"
    }

    fn clone_box(&self) -> Box<dyn Regressor> {
        Box::new(self.clone())
    }

    fn as_incremental(&mut self) -> Option<&mut dyn IncrementalRegressor> {
        Some(self)
    }
}

impl IncrementalRegressor for Ensemble {
    /// Extends each member with the appended rows: members with
    /// incremental support extend their fit, the rest fall back to a full
    /// refit, so the ensemble ends up bit-identical to a from-scratch
    /// [`Regressor::fit`] on all of `data`.
    fn partial_fit(&mut self, data: &Dataset, from: usize) -> Result<(), MlError> {
        if from != self.fitted_len || from > data.len() {
            return Err(MlError::IncrementalMismatch {
                fitted: self.fitted_len,
                from,
            });
        }
        for m in &mut self.members {
            match m.as_incremental() {
                Some(inc) if inc.fitted_len() == from => inc.partial_fit(data, from)?,
                _ => m.fit(data)?,
            }
        }
        self.fitted_len = data.len();
        Ok(())
    }

    fn fitted_len(&self) -> usize {
        self.fitted_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regressor::default_family;

    #[derive(Clone)]
    struct Constant(f64, bool);
    impl Regressor for Constant {
        fn clone_box(&self) -> Box<dyn Regressor> {
            Box::new(self.clone())
        }
        fn fit(&mut self, _data: &Dataset) -> Result<(), MlError> {
            self.1 = true;
            Ok(())
        }
        fn predict(&self, _x: &[f64]) -> Result<f64, MlError> {
            if self.1 {
                Ok(self.0)
            } else {
                Err(MlError::NotFitted)
            }
        }
        fn name(&self) -> &'static str {
            "Const"
        }
    }

    #[test]
    fn mean_of_members() {
        let mut ens = Ensemble::new(vec![
            Box::new(Constant(10.0, false)),
            Box::new(Constant(20.0, false)),
            Box::new(Constant(60.0, false)),
        ]);
        let mut d = Dataset::new(vec!["x".into()]);
        d.push(vec![0.0], 0.0).unwrap();
        ens.fit(&d).unwrap();
        assert_eq!(ens.predict(&[0.0]).unwrap(), 30.0);
    }

    #[test]
    fn unfitted_member_propagates() {
        let ens = Ensemble::new(vec![Box::new(Constant(1.0, false))]);
        assert!(matches!(ens.predict(&[0.0]), Err(MlError::NotFitted)));
    }

    #[test]
    fn predict_each_names_members() {
        let mut d = Dataset::new(vec!["x".into()]);
        for i in 0..30 {
            d.push(vec![i as f64], i as f64).unwrap();
        }
        let mut ens = Ensemble::new(default_family(0));
        ens.fit(&d).unwrap();
        let each = ens.predict_each(&[15.0]).unwrap();
        assert_eq!(each.len(), 6);
        let names: Vec<&str> = each.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"MLP"));
        assert!(names.contains(&"KStar"));
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn empty_ensemble_panics() {
        let _ = Ensemble::new(Vec::new());
    }

    #[test]
    fn partial_fit_matches_full_fit() {
        let mut d = Dataset::new(vec!["x".into()]);
        for i in 0..40 {
            d.push(vec![i as f64], 3.0 * i as f64).unwrap();
        }
        let mut full = Ensemble::new(default_family(5));
        full.fit(&d).unwrap();
        let mut inc = Ensemble::new(default_family(5));
        inc.partial_fit(&d.filter(|i| i < 25), 0).unwrap();
        inc.partial_fit(&d, 25).unwrap();
        assert_eq!(inc.fitted_len(), 40);
        for x in [0.0, 17.5, 39.0] {
            assert_eq!(
                inc.predict(&[x]).unwrap().to_bits(),
                full.predict(&[x]).unwrap().to_bits(),
                "x={x}"
            );
        }
        assert!(matches!(
            inc.partial_fit(&d, 7),
            Err(MlError::IncrementalMismatch { .. })
        ));
    }
}
