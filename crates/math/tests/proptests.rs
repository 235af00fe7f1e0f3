//! Property tests of the numerical kernel.

use disar_math::check::{cases, vec_of};
use disar_math::matrix::{ridge_least_squares, Matrix};
use disar_math::poly::MultiBasis;
use disar_math::rng::{split_seed, stream_rng, StandardNormal};
use disar_math::stats;

/// Builds a random symmetric positive-definite matrix `A = B Bᵀ + εI`.
fn random_spd(n: usize, seed: u64) -> Matrix {
    let mut rng = stream_rng(seed, 0x5bd);
    let mut b = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            b[(i, j)] = rng.gen_range(-1.0..1.0);
        }
    }
    let mut a = b.matmul(&b.transpose()).expect("square product");
    for i in 0..n {
        a[(i, i)] += 0.5;
    }
    a
}

/// Cholesky of a constructed SPD matrix always succeeds and reconstructs
/// the input.
#[test]
fn cholesky_reconstructs_random_spd() {
    cases(256, |rng| {
        let (n, seed) = (rng.gen_range(1usize..8), rng.gen_range(0u64..500));
        let a = random_spd(n, seed);
        let l = a.cholesky().expect("SPD by construction");
        let recon = l.matmul(&l.transpose()).expect("square");
        for i in 0..n {
            for j in 0..n {
                assert!((recon[(i, j)] - a[(i, j)]).abs() < 1e-9);
            }
        }
        // L is lower-triangular with positive diagonal.
        for i in 0..n {
            assert!(l[(i, i)] > 0.0);
            for j in (i + 1)..n {
                assert_eq!(l[(i, j)], 0.0);
            }
        }
    });
}

/// `solve_spd` inverts `matvec` on random SPD systems.
#[test]
fn spd_solve_roundtrip() {
    cases(256, |rng| {
        let (n, seed) = (rng.gen_range(1usize..8), rng.gen_range(0u64..500));
        let a = random_spd(n, seed);
        let x: Vec<f64> = (0..n).map(|_| rng.gen_range(-5.0..5.0)).collect();
        let b = a.matvec(&x).expect("dims match");
        let solved = a.solve_spd(&b).expect("SPD");
        for (xi, si) in x.iter().zip(&solved) {
            assert!((xi - si).abs() < 1e-6, "x {xi} vs solved {si}");
        }
    });
}

/// Ridge regression residuals are orthogonal-ish to the design at λ = 0
/// (normal equations): ‖Xᵀ(y − Xβ)‖ ≈ 0.
#[test]
fn ols_normal_equations_hold() {
    cases(256, |rng| {
        let (rows, cols) = (rng.gen_range(4usize..30), 3);
        let data = (0..rows * cols).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let x = Matrix::from_vec(rows, cols, data).expect("consistent");
        let y: Vec<f64> = (0..rows).map(|_| rng.gen_range(-3.0..3.0)).collect();
        // Regularize minimally to guarantee invertibility on adversarial draws.
        let beta = ridge_least_squares(&x, &y, 1e-10).expect("solvable");
        let yhat = x.matvec(&beta).expect("dims");
        let resid: Vec<f64> = y.iter().zip(&yhat).map(|(a, b)| a - b).collect();
        for j in 0..cols {
            let dot: f64 = (0..rows).map(|i| x[(i, j)] * resid[i]).sum();
            assert!(dot.abs() < 1e-4, "column {j} correlation {dot}");
        }
    });
}

/// Polynomial recurrences match naive evaluation for low orders: over one
/// variable the basis is `He_0 … He_5` in degree order.
#[test]
fn hermite_recurrence_matches_closed_forms() {
    let basis = MultiBasis::new(1, 5);
    cases(256, |rng| {
        let x: f64 = rng.gen_range(-5.0..5.0);
        let h = basis.eval(&[x]);
        assert!((h[4] - (x.powi(4) - 6.0 * x * x + 3.0)).abs() < 1e-8);
        assert!((h[5] - (x.powi(5) - 10.0 * x.powi(3) + 15.0 * x)).abs() < 1e-7);
    });
}

/// Seed splitting: distinct indices give distinct streams, identical
/// indices identical streams.
#[test]
fn seed_split_consistency() {
    cases(256, |rng| {
        let master = rng.next_u64();
        let (i, j) = (rng.gen_range(0u64..10_000), rng.gen_range(0u64..10_000));
        assert_eq!(split_seed(master, i), split_seed(master, i));
        if i != j {
            assert_ne!(split_seed(master, i), split_seed(master, j));
        }
    });
}

/// Normal sampler always produces finite values.
#[test]
fn normal_sampler_finite() {
    cases(256, |rng| {
        let mut g = StandardNormal::new();
        for _ in 0..100 {
            let z = g.sample(rng);
            assert!(z.is_finite());
            assert!(z.abs() < 10.0, "10-sigma draw is essentially impossible");
        }
    });
}

/// Histogram conserves mass whatever the inputs.
#[test]
fn histogram_mass_conservation() {
    cases(256, |rng| {
        let xs = vec_of(rng, 0..200, |rng| rng.gen_range(-1e4..1e4));
        let bins = rng.gen_range(1usize..40);
        let mut h = stats::Histogram::new(-100.0, 100.0, bins).expect("valid");
        h.extend(xs.iter().copied());
        assert_eq!(h.total(), xs.len() as u64);
    });
}
