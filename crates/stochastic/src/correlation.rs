//! Correlated Gaussian shocks.
//!
//! "Actuarial risks are assumed to be mutually independent, while financial
//! risks are possibly correlated" (§II). A [`CorrelationMatrix`] validates a
//! user-supplied correlation structure and exposes the Cholesky factor that
//! turns i.i.d. standard normals into correlated ones.

use crate::StochasticError;
use disar_math::Matrix;

/// A validated correlation matrix with a precomputed Cholesky factor.
///
/// # Example
///
/// ```
/// use disar_stochastic::CorrelationMatrix;
///
/// let c = CorrelationMatrix::new(vec![
///     vec![1.0, 0.5],
///     vec![0.5, 1.0],
/// ]).unwrap();
/// let z = c.correlate(&[1.0, 0.0]);
/// assert_eq!(z[0], 1.0);
/// assert!((z[1] - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CorrelationMatrix {
    dim: usize,
    chol: Matrix,
}

impl CorrelationMatrix {
    /// Validates and factorizes a correlation matrix.
    ///
    /// # Errors
    ///
    /// Returns [`StochasticError::InvalidCorrelation`] unless the input is
    /// square, symmetric, has a unit diagonal, entries in `[-1, 1]`, and is
    /// positive definite.
    pub fn new(rows: Vec<Vec<f64>>) -> Result<Self, StochasticError> {
        let n = rows.len();
        if n == 0 {
            return Err(StochasticError::InvalidCorrelation("empty matrix".into()));
        }
        for (i, r) in rows.iter().enumerate() {
            if r.len() != n {
                return Err(StochasticError::InvalidCorrelation(format!(
                    "row {i} has length {} but the matrix has {n} rows",
                    r.len()
                )));
            }
            if (r[i] - 1.0).abs() > 1e-12 {
                return Err(StochasticError::InvalidCorrelation(format!(
                    "diagonal element ({i},{i}) is {} (must be 1)",
                    r[i]
                )));
            }
            for (j, &v) in r.iter().enumerate() {
                if !(-1.0..=1.0).contains(&v) {
                    return Err(StochasticError::InvalidCorrelation(format!(
                        "entry ({i},{j}) = {v} outside [-1, 1]"
                    )));
                }
                if (v - rows[j][i]).abs() > 1e-12 {
                    return Err(StochasticError::InvalidCorrelation(format!(
                        "matrix not symmetric at ({i},{j})"
                    )));
                }
            }
        }
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let m = Matrix::from_rows(&refs)
            .map_err(|e| StochasticError::InvalidCorrelation(e.to_string()))?;
        let chol = m
            .cholesky()
            .map_err(|e| StochasticError::InvalidCorrelation(e.to_string()))?;
        Ok(CorrelationMatrix { dim: n, chol })
    }

    /// The identity correlation (independent drivers) of dimension `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn identity(n: usize) -> Self {
        assert!(n > 0, "dimension must be positive");
        CorrelationMatrix {
            dim: n,
            chol: Matrix::identity(n),
        }
    }

    /// Dimension of the matrix.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The lower-triangular Cholesky factor `L` (`L · Lᵀ` is the matrix).
    pub fn cholesky(&self) -> &Matrix {
        &self.chol
    }

    /// Maps a vector of independent N(0,1) draws to correlated ones
    /// (`L · z`): [`CorrelationMatrix::correlate_into`] into a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `z.len() != self.dim()`.
    pub fn correlate(&self, z: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.dim];
        self.correlate_into(z, &mut out);
        out
    }

    /// Writes `L · z` into `out`: entry `d` is `0.0`, then `+ L[d][j] · z[j]`
    /// for `j ≤ d` in order of `j`.
    ///
    /// # Panics
    ///
    /// Panics if either slice length differs from the dimension.
    pub fn correlate_into(&self, z: &[f64], out: &mut [f64]) {
        assert_eq!(z.len(), self.dim, "shock dimension mismatch");
        assert_eq!(out.len(), self.dim, "output dimension mismatch");
        self.correlate_path_into(z, out);
    }

    /// [`CorrelationMatrix::correlate_into`] over a whole path: `z` and
    /// `out` hold one vector per step, back to back, and correlated entry
    /// `d` of step `s` goes to `out[s * dim + d]`.
    ///
    /// Driver by driver: the loop writes `0.0` down driver `d`'s column of
    /// the path, then adds `L[d][j] · z[j]` down the whole column for each
    /// `j ≤ d` in order of `j`, with `L[d][j]` read once. Every entry sees
    /// the operations `correlate_into` applies to it, in the same order, so
    /// it gets the same bits; only the order in which entries are visited
    /// changes.
    pub(crate) fn correlate_path_into(&self, z: &[f64], out: &mut [f64]) {
        let (dim, n_steps) = (self.dim, z.len() / self.dim);
        let chol = self.chol.as_slice();
        for d in 0..dim {
            let column = &mut out[d..];
            for o in column.iter_mut().step_by(dim).take(n_steps) {
                *o = 0.0;
            }
            for (j, &l) in chol[d * dim..=d * dim + d].iter().enumerate() {
                let draws = z[j..].iter().step_by(dim);
                for (o, zj) in column.iter_mut().step_by(dim).zip(draws) {
                    *o += l * zj;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disar_math::rng::{stream_rng, StandardNormal};
    use disar_math::stats;

    #[test]
    fn rejects_malformed_matrices() {
        assert!(CorrelationMatrix::new(vec![]).is_err());
        assert!(CorrelationMatrix::new(vec![vec![1.0, 0.5]]).is_err());
        assert!(CorrelationMatrix::new(vec![vec![0.9]]).is_err());
        assert!(
            CorrelationMatrix::new(vec![vec![1.0, 0.7], vec![0.2, 1.0]]).is_err(),
            "asymmetric"
        );
        assert!(
            CorrelationMatrix::new(vec![vec![1.0, 1.5], vec![1.5, 1.0]]).is_err(),
            "out of range"
        );
        // Not positive definite: |rho|=1 with 3 vars inconsistent.
        assert!(CorrelationMatrix::new(vec![
            vec![1.0, 0.9, -0.9],
            vec![0.9, 1.0, 0.9],
            vec![-0.9, 0.9, 1.0],
        ])
        .is_err());
    }

    #[test]
    fn identity_passes_through() {
        let c = CorrelationMatrix::identity(3);
        let z = vec![0.3, -1.2, 2.0];
        assert_eq!(c.correlate(&z), z);
    }

    #[test]
    fn empirical_correlation_matches_target() {
        let rho = 0.65;
        let c = CorrelationMatrix::new(vec![vec![1.0, rho], vec![rho, 1.0]]).unwrap();
        let mut rng = stream_rng(2, 0);
        let mut g = StandardNormal::new();
        let n = 100_000;
        let mut a = Vec::with_capacity(n);
        let mut b = Vec::with_capacity(n);
        let mut out = vec![0.0; 2];
        for _ in 0..n {
            let z = [g.sample(&mut rng), g.sample(&mut rng)];
            c.correlate_into(&z, &mut out);
            a.push(out[0]);
            b.push(out[1]);
        }
        let emp = stats::correlation(&a, &b);
        assert!((emp - rho).abs() < 0.01, "empirical rho {emp}");
        // Marginals stay standard normal.
        assert!(stats::std_dev(&b) - 1.0 < 0.01);
    }

    #[test]
    fn correlate_into_matches_correlate() {
        // One dimension per size from 1 to 4, and a −0.0 draw: an entry that
        // sums to an exact signed zero must read +0.0 either way.
        let rows = [
            vec![1.0, 0.3, 0.1, -0.25],
            vec![0.3, 1.0, -0.2, 0.15],
            vec![0.1, -0.2, 1.0, 0.05],
            vec![-0.25, 0.15, 0.05, 1.0],
        ];
        for dim in 1..=4 {
            let c = CorrelationMatrix::new(rows[..dim].iter().map(|r| r[..dim].to_vec()).collect())
                .unwrap();
            for z in [
                [-0.0, -0.0, -0.0, -0.0],
                [0.5, -0.7, 1.1, -0.0],
                [-0.0, 1.3, -0.4, 2.2],
            ] {
                let v1 = c.correlate(&z[..dim]);
                let mut v2 = vec![f64::NAN; dim];
                c.correlate_into(&z[..dim], &mut v2);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&v1), bits(&v2), "dimension {dim}, draws {z:?}");
            }
        }
    }
}
