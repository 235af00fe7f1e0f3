//! Stochastic risk-driver models and scenario generation for the DISAR
//! reproduction.
//!
//! DISAR values profit-sharing life policies "using a stochastic model
//! considering several sources of financial uncertainty such as interest
//! rate, equity, currency and credit/default risk" (§II of the paper), with
//! financial risks possibly correlated. This crate provides:
//!
//! - [`drivers`]: the individual risk-driver models — geometric Brownian
//!   motion for equity, Vasicek and Cox–Ingersoll–Ross for the short rate,
//!   lognormal FX, and a CIR default intensity — each aware of the
//!   real-world measure `P` (with risk premia) and the risk-neutral measure
//!   `Q` used for market-consistent valuation;
//! - [`correlation`]: a validated correlation matrix that turns independent
//!   Gaussian shocks into correlated ones via Cholesky;
//! - [`scenario`]: the time grid, the scenario generator, the reusable
//!   [`scenario::ScenarioBuffer`] every fill writes its paths into, and the
//!   [`scenario::ScenarioView`] they are read through. The generator
//!   supports the *nested* setup of the paper: outer paths under
//!   `P` from `t = 0` to `t = 1`, then inner paths under `Q` from `t = 1`
//!   to maturity, re-anchored at each outer endpoint;
//! - [`annual`]: the exact law of one policy year of a Vasicek rate and a
//!   lognormal equity, `(ln S_b/S_a, r_b, Σ r)`, drawn from three normals —
//!   what the nested valuation's inner stage draws instead of stepping the
//!   grid.
//!
//! # Example
//!
//! ```
//! use disar_stochastic::drivers::Gbm;
//! use disar_stochastic::scenario::{Measure, ScenarioBuffer, ScenarioGenerator, TimeGrid};
//!
//! let gen = ScenarioGenerator::builder()
//!     .driver(Box::new(Gbm::new(100.0, 0.05, 0.2, 0.02).unwrap()))
//!     .grid(TimeGrid::new(1.0, 12).unwrap())
//!     .build()
//!     .unwrap();
//! let mut buf = ScenarioBuffer::new();
//! gen.generate_into(Measure::RealWorld, 100, 42, None, &mut buf).unwrap();
//! assert_eq!(buf.view().n_paths(), 100);
//! ```

pub mod annual;
pub mod bonds;
pub mod correlation;
pub mod drivers;
pub mod scenario;

mod error;

pub use bonds::BondPricing;
pub use correlation::CorrelationMatrix;
pub use error::StochasticError;
