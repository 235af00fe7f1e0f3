//! Linear-model fitting on top of the matrix kernel.
//!
//! [`LinearModel`] assembles a design matrix (with intercept), fits by
//! ordinary or ridge least squares, and predicts. It is the workhorse behind
//! the LSMC conditional-expectation estimator in `disar-alm` and serves as a
//! simple calibration baseline for the ML models in `disar-ml`.

use crate::matrix::{ridge_least_squares, Matrix};
use crate::MathError;
use serde::{Deserialize, Serialize};

/// A fitted linear model `y ≈ b0 + b · x`.
///
/// # Example
///
/// ```
/// use disar_math::regression::LinearModel;
///
/// let xs = vec![vec![0.0], vec![1.0], vec![2.0], vec![3.0]];
/// let ys = vec![1.0, 3.0, 5.0, 7.0];
/// let model = LinearModel::fit(&xs, &ys, 0.0).unwrap();
/// assert!((model.predict(&[4.0]) - 9.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinearModel {
    intercept: f64,
    coefficients: Vec<f64>,
}

impl LinearModel {
    /// Fits by (ridge-regularized) least squares; `lambda = 0` is OLS.
    /// The intercept is never regularized.
    ///
    /// # Errors
    ///
    /// - [`MathError::EmptyInput`] if `xs` is empty;
    /// - [`MathError::DimensionMismatch`] if `xs.len() != ys.len()` or the
    ///   feature rows are ragged;
    /// - [`MathError::NotPositiveDefinite`] if the problem is degenerate and
    ///   unregularized.
    pub fn fit(xs: &[Vec<f64>], ys: &[f64], lambda: f64) -> Result<Self, MathError> {
        if xs.is_empty() {
            return Err(MathError::EmptyInput("regression features"));
        }
        if xs.len() != ys.len() {
            return Err(MathError::DimensionMismatch {
                op: "LinearModel::fit",
                lhs: (xs.len(), xs[0].len()),
                rhs: (ys.len(), 1),
            });
        }
        let d = xs[0].len();
        // Center targets and features so the intercept can stay unpenalized.
        let ymean = crate::stats::mean(ys);
        let xmeans: Vec<f64> = (0..d)
            .map(|j| xs.iter().map(|r| r[j]).sum::<f64>() / xs.len() as f64)
            .collect();
        let mut data = Vec::with_capacity(xs.len() * d);
        for row in xs {
            if row.len() != d {
                return Err(MathError::DimensionMismatch {
                    op: "LinearModel::fit",
                    lhs: (xs.len(), d),
                    rhs: (1, row.len()),
                });
            }
            for j in 0..d {
                data.push(row[j] - xmeans[j]);
            }
        }
        let design = Matrix::from_vec(xs.len(), d, data)?;
        let yc: Vec<f64> = ys.iter().map(|y| y - ymean).collect();
        let coefficients = if d == 0 {
            Vec::new()
        } else {
            ridge_least_squares(&design, &yc, lambda)?
        };
        let intercept = ymean
            - coefficients
                .iter()
                .zip(&xmeans)
                .map(|(b, m)| b * m)
                .sum::<f64>();
        Ok(LinearModel {
            intercept,
            coefficients,
        })
    }

    /// Predicts the target for one feature vector.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the fitted dimension.
    pub fn predict(&self, x: &[f64]) -> f64 {
        assert_eq!(
            x.len(),
            self.coefficients.len(),
            "feature dimension mismatch"
        );
        self.intercept
            + self
                .coefficients
                .iter()
                .zip(x)
                .map(|(b, xi)| b * xi)
                .sum::<f64>()
    }

    /// The fitted intercept `b0`.
    pub fn intercept(&self) -> f64 {
        self.intercept
    }

    /// The fitted slope coefficients.
    pub fn coefficients(&self) -> &[f64] {
        &self.coefficients
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::stream_rng;

    #[test]
    fn fit_exact_plane() {
        let xs: Vec<Vec<f64>> = (0..20)
            .map(|i| vec![i as f64, (i * i) as f64 % 7.0])
            .collect();
        let ys: Vec<f64> = xs.iter().map(|r| 2.0 - 1.5 * r[0] + 0.25 * r[1]).collect();
        let m = LinearModel::fit(&xs, &ys, 0.0).unwrap();
        assert!((m.intercept() - 2.0).abs() < 1e-9);
        assert!((m.coefficients()[0] + 1.5).abs() < 1e-9);
        assert!((m.coefficients()[1] - 0.25).abs() < 1e-9);
    }

    #[test]
    fn fit_noisy_recovers_approximately() {
        let mut rng = stream_rng(3, 0);
        let mut gauss = crate::rng::StandardNormal::new();
        let xs: Vec<Vec<f64>> = (0..5000).map(|_| vec![rng.gen_range(0.0..10.0)]).collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|r| 4.0 + 3.0 * r[0] + 0.5 * gauss.sample(&mut rng))
            .collect();
        let m = LinearModel::fit(&xs, &ys, 0.0).unwrap();
        assert!((m.intercept() - 4.0).abs() < 0.1);
        assert!((m.coefficients()[0] - 3.0).abs() < 0.02);
    }

    #[test]
    fn rejects_empty_and_mismatched() {
        assert!(LinearModel::fit(&[], &[], 0.0).is_err());
        assert!(LinearModel::fit(&[vec![1.0]], &[1.0, 2.0], 0.0).is_err());
        assert!(LinearModel::fit(&[vec![1.0], vec![1.0, 2.0]], &[1.0, 2.0], 0.0).is_err());
    }

    #[test]
    fn ridge_handles_duplicate_columns() {
        // Perfectly collinear features break OLS but ridge must survive.
        let xs: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64, i as f64]).collect();
        let ys: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let m = LinearModel::fit(&xs, &ys, 1e-6).unwrap();
        let pred = m.predict(&[5.0, 5.0]);
        assert!((pred - 5.0).abs() < 1e-3, "pred {pred}");
    }

    #[test]
    #[should_panic(expected = "feature dimension mismatch")]
    fn predict_wrong_dim_panics() {
        let m = LinearModel::fit(&[vec![1.0], vec![2.0]], &[1.0, 2.0], 0.0).unwrap();
        m.predict(&[1.0, 2.0]);
    }
}
