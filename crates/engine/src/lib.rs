//! The DISAR architecture: orchestration of elementary elaboration blocks.
//!
//! This crate reproduces the client/server organization of §II:
//!
//! - [`eeb`]: *elementary elaboration blocks* — "a set of elaborations
//!   identified by common characteristics that make them identical from the
//!   point of view of risks" — of type A (actuarial valuation) and type B
//!   (ALM valuation), plus the per-EEB characteristic parameters that form
//!   the paper's ML feature vector;
//! - [`simulation`]: the simulation specification (portfolio, segregated
//!   fund, market model, `nP`/`nQ`) and market-model construction;
//! - [`complexity`]: DiMaS's complexity estimation — mapping an EEB to a
//!   [`disar_cloudsim::Workload`] the cloud can price;
//! - [`master`]: **DiMaS**, the master service: decomposes input into EEBs,
//!   estimates complexity, dispatches to DiActEng/DiAlmEng, and gathers
//!   results. Two backends are provided: a *local grid* of threads sharing
//!   the outer paths of one nested run (real computation, real wall-clock)
//!   and the *simulated cloud* (workload handed to [`disar_cloudsim`]).

pub mod complexity;
pub mod eeb;
pub mod master;
pub mod simulation;

mod error;

pub use eeb::{Eeb, EebCharacteristics, EebKind};
pub use error::EngineError;
pub use master::DisarMaster;
pub use simulation::SimulationSpec;
