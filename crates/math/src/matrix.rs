//! Dense row-major matrices and the factorizations the workspace needs.
//!
//! This is intentionally a *small* kernel, not a general linear-algebra
//! library: the LSMC regression and the correlation machinery only require
//! matrix products, Cholesky factorization, triangular solves and
//! (regularized) least squares. Everything is `f64`.

use crate::MathError;
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// A dense, row-major `f64` matrix.
///
/// # Example
///
/// ```
/// use disar_math::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
/// let b = Matrix::identity(2);
/// let c = a.matmul(&b).unwrap();
/// assert_eq!(c[(1, 0)], 3.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a slice of row slices.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::EmptyInput`] for an empty row set and
    /// [`MathError::DimensionMismatch`] if rows have uneven lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self, MathError> {
        if rows.is_empty() || rows[0].is_empty() {
            return Err(MathError::EmptyInput("matrix rows"));
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            if r.len() != cols {
                return Err(MathError::DimensionMismatch {
                    op: "from_rows",
                    lhs: (i, cols),
                    rhs: (i, r.len()),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Creates a matrix from a flat row-major vector.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::DimensionMismatch`] if `data.len() != rows*cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, MathError> {
        if data.len() != rows * cols {
            return Err(MathError::DimensionMismatch {
                op: "from_vec",
                lhs: (rows, cols),
                rhs: (data.len(), 1),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a column vector (an `n x 1` matrix) from a slice.
    pub fn column(values: &[f64]) -> Self {
        Matrix {
            rows: values.len(),
            cols: 1,
            data: values.to_vec(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Borrows the underlying row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Returns row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Extracts column `j` as an owned vector.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.cols()`.
    pub fn col(&self, j: usize) -> Vec<f64> {
        assert!(j < self.cols, "col index {j} out of bounds ({})", self.cols);
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::DimensionMismatch`] when the inner dimensions do
    /// not agree.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix, MathError> {
        if self.cols != rhs.rows {
            return Err(MathError::DimensionMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        // ikj loop order: keeps the inner loop streaming over contiguous rows.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                let rrow = rhs.row(k);
                let orow = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
                for (o, r) in orow.iter_mut().zip(rrow) {
                    *o += a * r;
                }
            }
        }
        Ok(out)
    }

    /// Matrix-vector product `self * v`.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::DimensionMismatch`] if `v.len() != self.cols()`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>, MathError> {
        if v.len() != self.cols {
            return Err(MathError::DimensionMismatch {
                op: "matvec",
                lhs: self.shape(),
                rhs: (v.len(), 1),
            });
        }
        Ok((0..self.rows)
            .map(|i| self.row(i).iter().zip(v).map(|(a, b)| a * b).sum())
            .collect())
    }

    /// Gram matrix `self^T * self`, exploiting symmetry.
    pub fn gram(&self) -> Matrix {
        let n = self.cols;
        let mut g = Matrix::zeros(n, n);
        for r in 0..self.rows {
            let row = self.row(r);
            for i in 0..n {
                let xi = row[i];
                if xi == 0.0 {
                    continue;
                }
                for j in i..n {
                    g[(i, j)] += xi * row[j];
                }
            }
        }
        for i in 0..n {
            for j in 0..i {
                g[(i, j)] = g[(j, i)];
            }
        }
        g
    }

    /// Cholesky factorization: returns lower-triangular `L` with
    /// `self = L * L^T`.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::NotPositiveDefinite`] if the matrix is not
    /// symmetric positive-definite (within a small tolerance), and
    /// [`MathError::DimensionMismatch`] if it is not square.
    pub fn cholesky(&self) -> Result<Matrix, MathError> {
        if self.rows != self.cols {
            return Err(MathError::DimensionMismatch {
                op: "cholesky",
                lhs: self.shape(),
                rhs: self.shape(),
            });
        }
        let n = self.rows;
        let mut l = Matrix::zeros(n, n);
        for j in 0..n {
            let mut d = self[(j, j)];
            for k in 0..j {
                d -= l[(j, k)] * l[(j, k)];
            }
            if d <= 0.0 {
                return Err(MathError::NotPositiveDefinite { pivot: j });
            }
            let dj = d.sqrt();
            l[(j, j)] = dj;
            for i in (j + 1)..n {
                let mut s = self[(i, j)];
                for k in 0..j {
                    s -= l[(i, k)] * l[(j, k)];
                }
                l[(i, j)] = s / dj;
            }
        }
        Ok(l)
    }

    /// Solves `L * x = b` for lower-triangular `L` (forward substitution).
    ///
    /// # Errors
    ///
    /// Returns [`MathError::DimensionMismatch`] on shape mismatch and
    /// [`MathError::Singular`] on a zero diagonal element.
    pub fn solve_lower(&self, b: &[f64]) -> Result<Vec<f64>, MathError> {
        if self.rows != self.cols || b.len() != self.rows {
            return Err(MathError::DimensionMismatch {
                op: "solve_lower",
                lhs: self.shape(),
                rhs: (b.len(), 1),
            });
        }
        let n = self.rows;
        let mut x = vec![0.0; n];
        for i in 0..n {
            let mut s = b[i];
            for j in 0..i {
                s -= self[(i, j)] * x[j];
            }
            let d = self[(i, i)];
            if d == 0.0 {
                return Err(MathError::Singular);
            }
            x[i] = s / d;
        }
        Ok(x)
    }

    /// Solves `U * x = b` for upper-triangular `U` (back substitution).
    ///
    /// # Errors
    ///
    /// Returns [`MathError::DimensionMismatch`] on shape mismatch and
    /// [`MathError::Singular`] on a zero diagonal element.
    pub fn solve_upper(&self, b: &[f64]) -> Result<Vec<f64>, MathError> {
        if self.rows != self.cols || b.len() != self.rows {
            return Err(MathError::DimensionMismatch {
                op: "solve_upper",
                lhs: self.shape(),
                rhs: (b.len(), 1),
            });
        }
        let n = self.rows;
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut s = b[i];
            for j in (i + 1)..n {
                s -= self[(i, j)] * x[j];
            }
            let d = self[(i, i)];
            if d == 0.0 {
                return Err(MathError::Singular);
            }
            x[i] = s / d;
        }
        Ok(x)
    }

    /// Solves the symmetric positive-definite system `self * x = b` via
    /// Cholesky factorization.
    ///
    /// # Errors
    ///
    /// Propagates the errors of [`Matrix::cholesky`] and the triangular
    /// solves.
    pub fn solve_spd(&self, b: &[f64]) -> Result<Vec<f64>, MathError> {
        let l = self.cholesky()?;
        let y = l.solve_lower(b)?;
        l.transpose().solve_upper(&y)
    }

    /// Scales every entry by `s`, in place, returning `self` for chaining.
    pub fn scale(mut self, s: f64) -> Matrix {
        for x in &mut self.data {
            *x *= s;
        }
        self
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

impl Add for &Matrix {
    type Output = Matrix;

    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "matrix addition shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a + b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl Sub for &Matrix {
    type Output = Matrix;

    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "matrix subtraction shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a - b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl Mul<f64> for Matrix {
    type Output = Matrix;

    fn mul(self, s: f64) -> Matrix {
        self.scale(s)
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{:>10.4}", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Ordinary / ridge least squares: minimizes
/// `||X beta - y||^2 + lambda ||beta||^2` via the normal equations solved by
/// Cholesky.
///
/// `lambda = 0` gives OLS; a small positive `lambda` regularizes
/// ill-conditioned design matrices (as happens with high-degree polynomial
/// bases in LSMC).
///
/// # Errors
///
/// Returns [`MathError::DimensionMismatch`] if `y.len() != x.rows()`,
/// [`MathError::InvalidArgument`] if `lambda` is negative or not finite, and
/// [`MathError::NotPositiveDefinite`] if the (regularized) Gram matrix is not
/// positive definite.
///
/// # Example
///
/// ```
/// use disar_math::matrix::{ridge_least_squares, Matrix};
///
/// // y = 2x + 1 exactly.
/// let x = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0], &[1.0, 2.0]]).unwrap();
/// let beta = ridge_least_squares(&x, &[1.0, 3.0, 5.0], 0.0).unwrap();
/// assert!((beta[0] - 1.0).abs() < 1e-10);
/// assert!((beta[1] - 2.0).abs() < 1e-10);
/// ```
pub fn ridge_least_squares(x: &Matrix, y: &[f64], lambda: f64) -> Result<Vec<f64>, MathError> {
    if y.len() != x.rows() {
        return Err(MathError::DimensionMismatch {
            op: "ridge_least_squares",
            lhs: x.shape(),
            rhs: (y.len(), 1),
        });
    }
    if !(lambda >= 0.0 && lambda.is_finite()) {
        return Err(MathError::InvalidArgument("lambda must be finite and >= 0"));
    }
    let mut gram = x.gram();
    for i in 0..gram.rows() {
        gram[(i, i)] += lambda;
    }
    // X^T y
    let xty: Vec<f64> = (0..x.cols())
        .map(|j| (0..x.rows()).map(|i| x[(i, j)] * y[i]).sum())
        .collect();
    gram.solve_spd(&xty)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn identity_matmul_is_noop() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i).unwrap(), a);
        assert_eq!(i.matmul(&a).unwrap(), a);
    }

    #[test]
    fn matmul_known_result() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        let b = Matrix::from_rows(&[&[7.0, 8.0], &[9.0, 10.0], &[11.0, 12.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape(), (2, 2));
        assert!(close(c[(0, 0)], 58.0));
        assert!(close(c[(0, 1)], 64.0));
        assert!(close(c[(1, 0)], 139.0));
        assert!(close(c[(1, 1)], 154.0));
    }

    #[test]
    fn matmul_dimension_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.matmul(&b),
            Err(MathError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn cholesky_reconstructs() {
        let a = Matrix::from_rows(&[&[4.0, 2.0, 0.6], &[2.0, 5.0, 1.0], &[0.6, 1.0, 3.0]]).unwrap();
        let l = a.cholesky().unwrap();
        let recon = l.matmul(&l.transpose()).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert!(close(recon[(i, j)], a[(i, j)]), "at ({i},{j})");
            }
        }
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        assert!(matches!(
            a.cholesky(),
            Err(MathError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn spd_solve_roundtrip() {
        let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]).unwrap();
        let x_true = vec![1.5, -2.0];
        let b = a.matvec(&x_true).unwrap();
        let x = a.solve_spd(&b).unwrap();
        assert!(close(x[0], x_true[0]));
        assert!(close(x[1], x_true[1]));
    }

    #[test]
    fn gram_matches_explicit_product() {
        let x = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        let g = x.gram();
        let g2 = x.transpose().matmul(&x).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn ols_recovers_exact_linear_model() {
        let x = Matrix::from_rows(&[
            &[1.0, 0.0, 0.0],
            &[1.0, 1.0, 2.0],
            &[1.0, 2.0, 1.0],
            &[1.0, 3.0, 5.0],
        ])
        .unwrap();
        // y = 0.5 + 2a - 3b
        let y: Vec<f64> = (0..4)
            .map(|i| 0.5 + 2.0 * x[(i, 1)] - 3.0 * x[(i, 2)])
            .collect();
        let beta = ridge_least_squares(&x, &y, 0.0).unwrap();
        assert!(close(beta[0], 0.5));
        assert!(close(beta[1], 2.0));
        assert!(close(beta[2], -3.0));
    }

    #[test]
    fn ridge_shrinks_coefficients() {
        let x = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 2.0], &[1.0, 3.0]]).unwrap();
        let y = vec![2.0, 4.0, 6.0];
        let b0 = ridge_least_squares(&x, &y, 0.0).unwrap();
        let b1 = ridge_least_squares(&x, &y, 10.0).unwrap();
        assert!(b1[1].abs() < b0[1].abs());
    }

    #[test]
    fn ridge_rejects_negative_lambda() {
        let x = Matrix::identity(2);
        assert!(matches!(
            ridge_least_squares(&x, &[1.0, 1.0], -1.0),
            Err(MathError::InvalidArgument(_))
        ));
    }

    #[test]
    fn non_finite_ridge_lambda_is_a_typed_error() {
        let x = Matrix::identity(2);
        for lambda in [f64::NAN, f64::INFINITY] {
            assert!(
                matches!(
                    ridge_least_squares(&x, &[1.0, 1.0], lambda),
                    Err(MathError::InvalidArgument(_))
                ),
                "lambda {lambda}"
            );
        }
    }

    #[test]
    fn row_and_col_access() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(a.row(1), &[3.0, 4.0]);
        assert_eq!(a.col(0), vec![1.0, 3.0]);
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let r1: &[f64] = &[1.0, 2.0];
        let r2: &[f64] = &[3.0];
        assert!(Matrix::from_rows(&[r1, r2]).is_err());
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[0.5, 0.5], &[0.5, 0.5]]).unwrap();
        let c = &(&a + &b) - &b;
        assert_eq!(c, a);
    }
}
