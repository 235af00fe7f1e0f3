//! Property-based tests of the numerical kernel.

use disar_math::matrix::{ridge_least_squares, Matrix};
use disar_math::poly::PolyFamily;
use disar_math::rng::{split_seed, stream_rng, StandardNormal};
use disar_math::stats::{self, Accumulator};
use proptest::prelude::*;

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

proptest! {
    /// Cholesky of a constructed SPD matrix always succeeds and
    /// reconstructs the input.
    #[test]
    fn cholesky_reconstructs_random_spd(n in 1usize..8, seed in 0u64..500) {
        let a = random_spd(n, seed);
        let l = a.cholesky().expect("SPD by construction");
        let recon = l.matmul(&l.transpose()).expect("square");
        for i in 0..n {
            for j in 0..n {
                prop_assert!((recon[(i, j)] - a[(i, j)]).abs() < 1e-9);
            }
        }
        // L is lower-triangular with positive diagonal.
        for i in 0..n {
            prop_assert!(l[(i, i)] > 0.0);
            for j in (i + 1)..n {
                prop_assert_eq!(l[(i, j)], 0.0);
            }
        }
    }

    /// `solve_spd` inverts `matvec` on random SPD systems.
    #[test]
    fn spd_solve_roundtrip(n in 1usize..8, seed in 0u64..500) {
        let a = random_spd(n, seed);
        let mut rng = stream_rng(seed, 1);
        let x: Vec<f64> = (0..n).map(|_| rng.gen_range(-5.0..5.0)).collect();
        let b = a.matvec(&x).expect("dims match");
        let solved = a.solve_spd(&b).expect("SPD");
        for (xi, si) in x.iter().zip(&solved) {
            prop_assert!((xi - si).abs() < 1e-6, "x {xi} vs solved {si}");
        }
    }

    /// Ridge regression residuals are orthogonal-ish to the design at
    /// λ = 0 (normal equations): ‖Xᵀ(y − Xβ)‖ ≈ 0.
    #[test]
    fn ols_normal_equations_hold(rows in 4usize..30, seed in 0u64..200) {
        let cols = 3;
        let mut rng = stream_rng(seed, 2);
        let mut data = Vec::with_capacity(rows * cols);
        for _ in 0..rows * cols {
            data.push(rng.gen_range(-2.0..2.0));
        }
        let x = Matrix::from_vec(rows, cols, data).expect("consistent");
        let y: Vec<f64> = (0..rows).map(|_| rng.gen_range(-3.0..3.0)).collect();
        // Regularize minimally to guarantee invertibility on adversarial draws.
        let beta = ridge_least_squares(&x, &y, 1e-10).expect("solvable");
        let yhat = x.matvec(&beta).expect("dims");
        let resid: Vec<f64> = y.iter().zip(&yhat).map(|(a, b)| a - b).collect();
        for j in 0..cols {
            let dot: f64 = (0..rows).map(|i| x[(i, j)] * resid[i]).sum();
            prop_assert!(dot.abs() < 1e-4, "column {j} correlation {dot}");
        }
    }

    /// Welford accumulator merging is order-independent (associative and
    /// commutative up to floating error).
    #[test]
    fn accumulator_merge_commutes(
        xs in prop::collection::vec(-1e3f64..1e3, 1..50),
        ys in prop::collection::vec(-1e3f64..1e3, 1..50),
    ) {
        let acc = |v: &[f64]| {
            let mut a = Accumulator::new();
            for &x in v {
                a.add(x);
            }
            a
        };
        let mut ab = acc(&xs);
        ab.merge(&acc(&ys));
        let mut ba = acc(&ys);
        ba.merge(&acc(&xs));
        prop_assert!((ab.mean() - ba.mean()).abs() < 1e-9);
        prop_assert!((ab.variance() - ba.variance()).abs() < 1e-6);
        let all: Vec<f64> = xs.iter().chain(&ys).copied().collect();
        prop_assert!((ab.mean() - stats::mean(&all)).abs() < 1e-9);
    }

    /// Polynomial recurrences match naive evaluation for low orders.
    #[test]
    fn hermite_recurrence_matches_closed_forms(x in -5.0f64..5.0) {
        let h = |k: usize| PolyFamily::Hermite.eval(k, x);
        prop_assert!((h(4) - (x.powi(4) - 6.0 * x * x + 3.0)).abs() < 1e-8);
        prop_assert!(
            (h(5) - (x.powi(5) - 10.0 * x.powi(3) + 15.0 * x)).abs() < 1e-7
        );
    }

    /// Seed splitting: distinct indices give distinct streams, identical
    /// indices identical streams.
    #[test]
    fn seed_split_consistency(master in 0u64..u64::MAX, i in 0u64..10_000, j in 0u64..10_000) {
        prop_assert_eq!(split_seed(master, i), split_seed(master, i));
        if i != j {
            prop_assert_ne!(split_seed(master, i), split_seed(master, j));
        }
    }

    /// Normal sampler always produces finite values.
    #[test]
    fn normal_sampler_finite(seed in 0u64..1000) {
        let mut rng = stream_rng(seed, 0);
        let mut g = StandardNormal::new();
        for _ in 0..100 {
            let z = g.sample(&mut rng);
            prop_assert!(z.is_finite());
            prop_assert!(z.abs() < 10.0, "10-sigma draw is essentially impossible");
        }
    }

    /// Histogram conserves mass whatever the inputs.
    #[test]
    fn histogram_mass_conservation(
        xs in prop::collection::vec(-1e4f64..1e4, 0..200),
        bins in 1usize..40,
    ) {
        let mut h = stats::Histogram::new(-100.0, 100.0, bins).expect("valid");
        h.extend(xs.iter().copied());
        prop_assert_eq!(h.total(), xs.len() as u64);
    }
}
