//! Model-evaluation helpers built on `disar_math::stats`.
//!
//! [`evaluate`] runs a fitted model over a test set in one batch and
//! summarizes exactly the quantities the paper reports: the signed bias `δ̄`
//! (Table I), the error distribution (Figure 3) and prediction/real pairs
//! (Figure 2).

use crate::batch::{FeatureMatrix, PredictScratch};
use crate::dataset::Dataset;
use crate::regressor::Regressor;
use crate::MlError;
use disar_math::stats;

/// Summary of a model's accuracy on a held-out set.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// Model name (the paper's abbreviation).
    pub model: String,
    /// Number of test observations.
    pub n: usize,
    /// Signed mean error `mean(predicted − real)` — the paper's `δ̄`.
    pub bias: f64,
    /// Mean absolute error.
    pub mae: f64,
    /// Root mean squared error.
    pub rmse: f64,
    /// Coefficient of determination.
    pub r_squared: f64,
    /// Per-observation `(real, predicted)` pairs for scatter plots.
    pub pairs: Vec<(f64, f64)>,
}

impl Evaluation {
    /// Fraction of predictions whose absolute error is within `tol`
    /// (the paper's "≈80 % within 200 s" claim).
    pub fn fraction_within(&self, tol: f64) -> f64 {
        let (real, pred): (Vec<f64>, Vec<f64>) = self.pairs.iter().cloned().unzip();
        stats::fraction_within(&pred, &real, tol)
    }

    /// Signed errors `predicted − real`, e.g. to feed a histogram.
    pub fn errors(&self) -> Vec<f64> {
        self.pairs.iter().map(|(r, p)| p - r).collect()
    }
}

/// Evaluates a fitted model on a test set.
///
/// # Errors
///
/// Propagates prediction errors ([`MlError::NotFitted`], dimension
/// mismatches) and rejects an empty test set.
pub fn evaluate<M: Regressor + ?Sized>(model: &M, test: &Dataset) -> Result<Evaluation, MlError> {
    if test.is_empty() {
        return Err(MlError::EmptyTrainingSet);
    }
    let mut xs = FeatureMatrix::with_capacity(test.len(), test.dim());
    for x in test.rows() {
        xs.push_row(x);
    }
    let mut pred = vec![0.0; test.len()];
    model.predict_batch(&xs, &mut pred, &mut PredictScratch::new())?;
    let real = test.targets();
    let pairs = real.iter().copied().zip(pred.iter().copied()).collect();
    Ok(Evaluation {
        model: model.name().to_string(),
        n: test.len(),
        bias: stats::bias(&pred, real),
        mae: stats::mae(&pred, real),
        rmse: stats::rmse(&pred, real),
        r_squared: stats::r_squared(&pred, real),
        pairs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::RandomTree;

    #[test]
    fn perfect_model_zero_errors() {
        let mut d = Dataset::new(vec!["x".into()]);
        for i in 0..20 {
            d.push(vec![i as f64], i as f64).unwrap();
        }
        // A tree on distinct values fits every training row exactly.
        let mut m = RandomTree::new(0);
        m.fit(&d).unwrap();
        let ev = evaluate(&m, &d).unwrap();
        assert_eq!(ev.bias, 0.0);
        assert_eq!(ev.mae, 0.0);
        assert_eq!(ev.rmse, 0.0);
        assert_eq!(ev.fraction_within(0.0), 1.0);
        assert_eq!(ev.n, 20);
    }

    #[test]
    fn errors_signed_correctly() {
        #[derive(Clone)]
        struct Plus10;
        impl Regressor for Plus10 {
            fn clone_box(&self) -> Box<dyn Regressor> {
                Box::new(self.clone())
            }
            fn fit(&mut self, _d: &Dataset) -> Result<(), MlError> {
                Ok(())
            }
            fn predict_batch(
                &self,
                xs: &FeatureMatrix,
                out: &mut [f64],
                _: &mut PredictScratch,
            ) -> Result<(), MlError> {
                for (i, y) in out.iter_mut().enumerate() {
                    *y = xs.row(i)[0] + 10.0;
                }
                Ok(())
            }
            fn name(&self) -> &'static str {
                "Plus10"
            }
        }
        let mut d = Dataset::new(vec!["x".into()]);
        for i in 0..5 {
            d.push(vec![i as f64], i as f64).unwrap();
        }
        let ev = evaluate(&Plus10, &d).unwrap();
        assert_eq!(ev.bias, 10.0);
        assert!(ev.errors().iter().all(|&e| e == 10.0));
    }

    #[test]
    fn empty_test_set_rejected() {
        let d = Dataset::new(vec!["x".into()]);
        let m = RandomTree::new(0);
        assert!(evaluate(&m, &d).is_err());
    }
}
