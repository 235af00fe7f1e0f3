//! Numerical substrate for the DISAR reproduction.
//!
//! This crate provides the numerical building blocks that every other crate
//! in the workspace relies on:
//!
//! - [`matrix`]: a small dense linear-algebra kernel (matrix type, Cholesky
//!   factorization, triangular solves, ridge/ordinary least squares) used by
//!   the LSMC regression in `disar-alm` and by the ML models in `disar-ml`;
//! - [`stats`]: descriptive statistics, empirical quantiles, histograms, and
//!   error metrics used throughout the experimental harness;
//! - [`rng`]: the workspace's one random generator (xoshiro256++, owned
//!   here so that its streams are part of the program), SplitMix64 stream
//!   derivation so that every Monte Carlo path gets an independent,
//!   reproducible generator, and Gaussian sampling by a 128-layer ziggurat
//!   (one 64-bit draw per variate 97 % of the time);
//! - [`exp`]: a branch-free `exp` for non-positive arguments that a buffer
//!   fill vectorises, for K\*'s per-row weights in `disar-ml` and nothing else;
//! - [`parallel`]: deterministic data-parallel maps on std scoped threads
//!   (results gathered in index order, `n_threads = 1` runs in sequence) used
//!   by the ALM nested Monte Carlo, Algorithm 1's configuration sweep, the
//!   predictor retrain loop and the bench campaign driver;
//! - [`poly`]: the multivariate total-degree basis of probabilists' Hermite
//!   polynomials for the Least-Squares Monte Carlo technique of Bauer,
//!   Reuss & Singer (2012) referenced by the paper;
//! - [`check`]: the seeded case runner every property test of the workspace
//!   is written on (`cases`, `case`, `vec_of`);
//! - [`json`]: the one written form of what persists (knowledge-base files,
//!   registry rows, experiment outputs): a JSON value, its compact and
//!   indented text, and a parser for text from outside the program.
//!
//! # Example
//!
//! ```
//! use disar_math::stats::quantile;
//!
//! let xs = vec![1.0, 2.0, 3.0, 4.0, 5.0];
//! assert_eq!(quantile(&xs, 0.5), 3.0);
//! ```

pub mod check;
pub mod exp;
pub mod json;
pub mod matrix;
pub mod parallel;
pub mod poly;
pub mod rng;
pub mod stats;

mod error;

pub use error::MathError;
pub use matrix::Matrix;
