//! DiAlmEng — asset-liability-management valuation (type-B EEBs).
//!
//! This crate is the computational heart of the DISAR reproduction: it
//! values the liabilities of profit-sharing policies market-consistently,
//! which is "the most time-consuming activity" the paper offloads to the
//! cloud. Components:
//!
//! - [`fund`]: the segregated fund with *book-value* accounting — "Ft is not
//!   necessarily the market value of the fund, but could be a book value …
//!   so that the volatility of returns can be strategically controlled by
//!   the manager" (§II). The fund turns joint market scenarios into annual
//!   fund returns `I_t` via a smoothed bond book-yield and a
//!   gain-realization management strategy;
//! - [`liability`]: scenario-wise present value of a probabilized cash-flow
//!   schedule under profit sharing (`Φ_t` applied per Eq. 2, discounting by
//!   the scenario's money-market account);
//! - [`nested`]: the two-stage nested Monte Carlo of §II — `nP` outer
//!   real-world paths to `t = 1`, `nQ` inner risk-neutral paths per outer
//!   endpoint — producing the distribution of `Y_1` and the 99.5 % VaR
//!   Solvency Capital Requirement;
//! - [`lsmc`]: the Least-Squares Monte Carlo shortcut — calibrate a
//!   polynomial approximation of the inner value on a small `n'_P × n'_Q`
//!   sample, then evaluate it on every outer path;
//! - [`workspace`]: per-worker scratch ([`ValuationWorkspace`]) that makes
//!   the `nP × nQ` inner stage allocation-free without changing a bit of
//!   the results (DESIGN.md §10).

pub mod fund;
pub mod liability;
pub mod lsmc;
pub mod nested;
pub mod report;
pub mod workspace;

mod error;

pub use error::AlmError;
pub use fund::SegregatedFund;
pub use nested::{NestedConfig, NestedResult};
pub use report::SolvencyReport;
pub use workspace::ValuationWorkspace;
