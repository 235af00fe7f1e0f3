//! Orthonormal polynomial bases for Least-Squares Monte Carlo.
//!
//! The LSMC technique (Bauer, Reuss & Singer 2012; Longstaff & Schwartz 2001)
//! replaces the inner Monte Carlo valuation by a *truncated series expansion
//! in orthonormal polynomials* of the outer-scenario state variables. This
//! module provides the univariate families used in practice and a
//! multivariate total-degree tensor basis.


/// The univariate orthogonal polynomial family to expand in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolyFamily {
    /// Plain monomials `1, x, x², …` (not orthogonal; kept as the naive
    /// baseline the orthonormal families are compared against).
    Monomial,
    /// Laguerre polynomials, orthogonal on `[0, ∞)` w.r.t. `e^{-x}`;
    /// the classical choice of Longstaff & Schwartz.
    Laguerre,
    /// Probabilists' Hermite polynomials, orthogonal w.r.t. the standard
    /// normal density; natural for Gaussian risk drivers.
    Hermite,
    /// Chebyshev polynomials of the first kind on `[-1, 1]`.
    Chebyshev,
}

impl PolyFamily {
    /// Evaluates the degree-`k` member of the family at `x` using the
    /// three-term recurrence.
    ///
    /// # Example
    ///
    /// ```
    /// use disar_math::poly::PolyFamily;
    /// // L_2(x) = (x² - 4x + 2) / 2
    /// let x = 1.5;
    /// let expect = (x * x - 4.0 * x + 2.0) / 2.0;
    /// assert!((PolyFamily::Laguerre.eval(2, x) - expect).abs() < 1e-12);
    /// ```
    pub fn eval(self, k: usize, x: f64) -> f64 {
        match self {
            PolyFamily::Monomial => x.powi(k as i32),
            PolyFamily::Laguerre => {
                // L_0 = 1, L_1 = 1 - x,
                // (n+1) L_{n+1} = (2n+1-x) L_n - n L_{n-1}
                let mut p0 = 1.0;
                if k == 0 {
                    return p0;
                }
                let mut p1 = 1.0 - x;
                for n in 1..k {
                    let p2 = ((2.0 * n as f64 + 1.0 - x) * p1 - n as f64 * p0) / (n as f64 + 1.0);
                    p0 = p1;
                    p1 = p2;
                }
                p1
            }
            PolyFamily::Hermite => {
                // He_0 = 1, He_1 = x, He_{n+1} = x He_n - n He_{n-1}
                let mut p0 = 1.0;
                if k == 0 {
                    return p0;
                }
                let mut p1 = x;
                for n in 1..k {
                    let p2 = x * p1 - n as f64 * p0;
                    p0 = p1;
                    p1 = p2;
                }
                p1
            }
            PolyFamily::Chebyshev => {
                // T_0 = 1, T_1 = x, T_{n+1} = 2x T_n - T_{n-1}
                let mut p0 = 1.0;
                if k == 0 {
                    return p0;
                }
                let mut p1 = x;
                for _ in 1..k {
                    let p2 = 2.0 * x * p1 - p0;
                    p0 = p1;
                    p1 = p2;
                }
                p1
            }
        }
    }

    /// Evaluates degrees `0..=max_degree` at `x` in one pass.
    pub fn eval_all(self, max_degree: usize, x: f64) -> Vec<f64> {
        (0..=max_degree).map(|k| self.eval(k, x)).collect()
    }
}

/// A multivariate polynomial basis with total degree at most `max_degree`
/// over `dim` variables, built as tensor products of a univariate family.
///
/// The basis functions are enumerated in graded order: all multi-indices
/// `(k_1, …, k_dim)` with `k_1 + … + k_dim <= max_degree`.
///
/// # Example
///
/// ```
/// use disar_math::poly::{MultiBasis, PolyFamily};
///
/// let basis = MultiBasis::new(PolyFamily::Monomial, 2, 2);
/// // 1, x, y, x², xy, y² → 6 functions
/// assert_eq!(basis.len(), 6);
/// let row = basis.eval(&[2.0, 3.0]);
/// assert_eq!(row[0], 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MultiBasis {
    family: PolyFamily,
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
    pub fn new(family: PolyFamily, dim: usize, max_degree: usize) -> Self {
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
            family,
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

    /// Input dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Maximum total degree.
    pub fn max_degree(&self) -> usize {
        self.max_degree
    }

    /// Evaluates every basis function at the point `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    pub fn eval(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.dim, "point dimension mismatch");
        // Precompute univariate values up to max_degree per coordinate.
        let uni: Vec<Vec<f64>> = x
            .iter()
            .map(|&xi| self.family.eval_all(self.max_degree, xi))
            .collect();
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
    fn laguerre_low_orders() {
        let x = 0.7;
        assert_eq!(PolyFamily::Laguerre.eval(0, x), 1.0);
        assert!((PolyFamily::Laguerre.eval(1, x) - (1.0 - x)).abs() < 1e-12);
        let l2 = (x * x - 4.0 * x + 2.0) / 2.0;
        assert!((PolyFamily::Laguerre.eval(2, x) - l2).abs() < 1e-12);
        let l3 = (-x * x * x + 9.0 * x * x - 18.0 * x + 6.0) / 6.0;
        assert!((PolyFamily::Laguerre.eval(3, x) - l3).abs() < 1e-12);
    }

    #[test]
    fn hermite_low_orders() {
        let x = -1.3;
        assert_eq!(PolyFamily::Hermite.eval(0, x), 1.0);
        assert_eq!(PolyFamily::Hermite.eval(1, x), x);
        assert!((PolyFamily::Hermite.eval(2, x) - (x * x - 1.0)).abs() < 1e-12);
        assert!((PolyFamily::Hermite.eval(3, x) - (x * x * x - 3.0 * x)).abs() < 1e-12);
    }

    #[test]
    fn chebyshev_identity() {
        // T_n(cos θ) = cos(n θ)
        for n in 0..8 {
            for &theta in &[0.1f64, 0.5, 1.2, 2.9] {
                let lhs = PolyFamily::Chebyshev.eval(n, theta.cos());
                let rhs = (n as f64 * theta).cos();
                assert!((lhs - rhs).abs() < 1e-10, "n={n} theta={theta}");
            }
        }
    }

    #[test]
    fn hermite_orthogonality_under_gaussian() {
        // E[He_m(Z) He_n(Z)] = n! δ_{mn} for Z ~ N(0,1).
        let z = normal_vec(77, 0, 400_000);
        let h1h2: Vec<f64> = z
            .iter()
            .map(|&x| PolyFamily::Hermite.eval(1, x) * PolyFamily::Hermite.eval(2, x))
            .collect();
        assert!(mean(&h1h2).abs() < 0.05, "cross moment {}", mean(&h1h2));
        let h2sq: Vec<f64> = z
            .iter()
            .map(|&x| {
                let v = PolyFamily::Hermite.eval(2, x);
                v * v
            })
            .collect();
        assert!((mean(&h2sq) - 2.0).abs() < 0.1, "He_2 norm {}", mean(&h2sq));
    }

    #[test]
    fn multibasis_count_matches_binomial() {
        // C(dim + deg, dim)
        let cases = [(1usize, 3usize, 4usize), (2, 2, 6), (3, 2, 10), (4, 3, 35)];
        for (dim, deg, expect) in cases {
            let b = MultiBasis::new(PolyFamily::Monomial, dim, deg);
            assert_eq!(b.len(), expect, "dim={dim} deg={deg}");
        }
    }

    #[test]
    fn multibasis_first_function_is_constant() {
        let b = MultiBasis::new(PolyFamily::Laguerre, 3, 2);
        let v = b.eval(&[0.3, 1.2, 5.0]);
        assert_eq!(v[0], 1.0);
    }

    #[test]
    fn multibasis_monomial_values() {
        let b = MultiBasis::new(PolyFamily::Monomial, 2, 2);
        let v = b.eval(&[2.0, 3.0]);
        // graded order: 1, y, x, y², xy, x²  (lexicographic within degree on
        // exponent vectors (k_x, k_y): (0,0),(0,1),(1,0),(0,2),(1,1),(2,0))
        assert_eq!(v, vec![1.0, 3.0, 2.0, 9.0, 6.0, 4.0]);
    }

    #[test]
    fn design_matrix_shape() {
        let b = MultiBasis::new(PolyFamily::Hermite, 2, 3);
        let pts = vec![vec![0.0, 0.0], vec![1.0, -1.0], vec![0.5, 2.0]];
        let m = b.design_matrix(&pts);
        assert_eq!(m.shape(), (3, b.len()));
        assert_eq!(m[(0, 0)], 1.0);
    }

    #[test]
    #[should_panic(expected = "point dimension mismatch")]
    fn eval_wrong_dim_panics() {
        let b = MultiBasis::new(PolyFamily::Monomial, 2, 1);
        b.eval(&[1.0]);
    }
}
