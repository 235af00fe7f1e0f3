//! Orthonormal polynomial bases for Least-Squares Monte Carlo.
//!
//! The LSMC technique (Bauer, Reuss & Singer 2012; Longstaff & Schwartz 2001)
//! replaces the inner Monte Carlo valuation by a *truncated series expansion
//! in orthonormal polynomials* of the outer-scenario state variables. This
//! module provides that basis: total-degree tensor products of the
//! probabilists' Hermite polynomials.

/// The probabilists' Hermite polynomials `He_0 … He_max_degree` at `x`, by
/// the three-term recurrence `He_0 = 1`, `He_1 = x`,
/// `He_{n+1} = x He_n − n He_{n−1}`. They are orthogonal under the standard
/// normal density, which suits the standardized Gaussian states LSMC
/// regresses on.
fn eval_all(max_degree: usize, x: f64) -> Vec<f64> {
    let mut he = Vec::with_capacity(max_degree + 1);
    he.push(1.0);
    if max_degree > 0 {
        he.push(x);
    }
    for n in 1..max_degree {
        he.push(x * he[n] - n as f64 * he[n - 1]);
    }
    he
}

/// A multivariate polynomial basis with total degree at most `max_degree`
/// over `dim` variables, built as tensor products of the probabilists'
/// Hermite polynomials.
///
/// The basis functions are enumerated in graded order: all multi-indices
/// `(k_1, …, k_dim)` with `k_1 + … + k_dim <= max_degree`.
///
/// # Example
///
/// ```
/// use disar_math::poly::MultiBasis;
///
/// let basis = MultiBasis::new(2, 2);
/// // 1, He_1(y), He_1(x), He_2(y), He_1(x) He_1(y), He_2(x) → 6 functions
/// assert_eq!(basis.len(), 6);
/// let row = basis.eval(&[2.0, 3.0]);
/// assert_eq!(row, vec![1.0, 3.0, 2.0, 8.0, 6.0, 3.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MultiBasis {
    dim: usize,
    max_degree: usize,
    exponents: Vec<Vec<usize>>,
}

impl MultiBasis {
    /// Builds the graded total-degree basis.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn new(dim: usize, max_degree: usize) -> Self {
        assert!(dim > 0, "basis dimension must be positive");
        let mut exponents = Vec::new();
        let mut current = vec![0usize; dim];
        enumerate_graded(&mut exponents, &mut current, 0, max_degree);
        // Sort by total degree then lexicographically for a stable order.
        exponents.sort_by(|a, b| {
            let sa: usize = a.iter().sum();
            let sb: usize = b.iter().sum();
            sa.cmp(&sb).then_with(|| a.cmp(b))
        });
        MultiBasis {
            dim,
            max_degree,
            exponents,
        }
    }

    /// Number of basis functions, `C(dim + max_degree, dim)`.
    pub fn len(&self) -> usize {
        self.exponents.len()
    }

    /// Returns `true` if the basis is empty (never happens for `dim > 0`).
    pub fn is_empty(&self) -> bool {
        self.exponents.is_empty()
    }

    /// Evaluates every basis function at the point `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the dimension the basis was built
    /// for.
    pub fn eval(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.dim, "point dimension mismatch");
        // Precompute univariate values up to max_degree per coordinate.
        let uni: Vec<Vec<f64>> = x.iter().map(|&xi| eval_all(self.max_degree, xi)).collect();
        self.exponents
            .iter()
            .map(|ks| ks.iter().zip(&uni).map(|(&k, u)| u[k]).product())
            .collect()
    }

    /// Evaluates the basis on many points, producing the LSMC design matrix
    /// (one row per point).
    pub fn design_matrix(&self, points: &[Vec<f64>]) -> crate::Matrix {
        let mut data = Vec::with_capacity(points.len() * self.len());
        for p in points {
            data.extend(self.eval(p));
        }
        crate::Matrix::from_vec(points.len(), self.len(), data)
            .expect("design matrix dimensions are consistent by construction")
    }
}

fn enumerate_graded(
    out: &mut Vec<Vec<usize>>,
    current: &mut Vec<usize>,
    pos: usize,
    remaining: usize,
) {
    if pos == current.len() {
        out.push(current.clone());
        return;
    }
    for k in 0..=remaining {
        current[pos] = k;
        enumerate_graded(out, current, pos + 1, remaining - k);
    }
    current[pos] = 0;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::normal_vec;
    use crate::stats::mean;

    #[test]
    fn hermite_low_orders() {
        let x = -1.3;
        let he = eval_all(3, x);
        assert_eq!(he.len(), 4);
        assert_eq!(he[0], 1.0);
        assert_eq!(he[1], x);
        assert!((he[2] - (x * x - 1.0)).abs() < 1e-12);
        assert!((he[3] - (x * x * x - 3.0 * x)).abs() < 1e-12);
        assert_eq!(eval_all(0, x), vec![1.0]);
    }

    #[test]
    fn hermite_orthogonality_under_gaussian() {
        // E[He_m(Z) He_n(Z)] = n! δ_{mn} for Z ~ N(0,1).
        let z = normal_vec(77, 0, 400_000);
        let he: Vec<Vec<f64>> = z.iter().map(|&x| eval_all(2, x)).collect();
        let h1h2: Vec<f64> = he.iter().map(|h| h[1] * h[2]).collect();
        assert!(mean(&h1h2).abs() < 0.05, "cross moment {}", mean(&h1h2));
        let h2sq: Vec<f64> = he.iter().map(|h| h[2] * h[2]).collect();
        assert!((mean(&h2sq) - 2.0).abs() < 0.1, "He_2 norm {}", mean(&h2sq));
    }

    #[test]
    fn multibasis_count_matches_binomial() {
        // C(dim + deg, dim)
        let cases = [(1usize, 3usize, 4usize), (2, 2, 6), (3, 2, 10), (4, 3, 35)];
        for (dim, deg, expect) in cases {
            let b = MultiBasis::new(dim, deg);
            assert_eq!(b.len(), expect, "dim={dim} deg={deg}");
        }
    }

    #[test]
    fn multibasis_first_function_is_constant() {
        let b = MultiBasis::new(3, 2);
        let v = b.eval(&[0.3, 1.2, 5.0]);
        assert_eq!(v[0], 1.0);
    }

    #[test]
    fn multibasis_hermite_values() {
        let b = MultiBasis::new(2, 2);
        let v = b.eval(&[2.0, 3.0]);
        // graded order, lexicographic within degree on exponent vectors
        // (k_x, k_y): (0,0),(0,1),(1,0),(0,2),(1,1),(2,0), that is
        // 1, He_1(3) = 3, He_1(2) = 2, He_2(3) = 9 − 1, He_1(2) He_1(3) = 6
        // and He_2(2) = 4 − 1.
        assert_eq!(v, vec![1.0, 3.0, 2.0, 8.0, 6.0, 3.0]);
    }

    #[test]
    fn design_matrix_shape() {
        let b = MultiBasis::new(2, 3);
        let pts = vec![vec![0.0, 0.0], vec![1.0, -1.0], vec![0.5, 2.0]];
        let m = b.design_matrix(&pts);
        assert_eq!(m.shape(), (3, b.len()));
        assert_eq!(m[(0, 0)], 1.0);
    }

    #[test]
    #[should_panic(expected = "point dimension mismatch")]
    fn eval_wrong_dim_panics() {
        let b = MultiBasis::new(2, 1);
        b.eval(&[1.0]);
    }
}
