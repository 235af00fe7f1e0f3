//! The paper's contribution: ML-based transparent cloud deploy for
//! Solvency II computations.
//!
//! This crate implements §III of the paper end to end:
//!
//! - [`profile`]: the characteristic parameters of a job (`f ∈ F`) — the
//!   EEB features the paper "experimentally selected [as inducing] the
//!   highest variability in the execution time", plus the Monte Carlo
//!   sizes;
//! - [`knowledge`]: the knowledge base — every executed simulation's
//!   `(features, configuration, measured time, cost)` record, persisted as
//!   JSON and replayed into ML training sets. "Whenever a simulation is
//!   executed on the cloud, the total execution time is stored into the
//!   database along with the values for the above parameters";
//! - [`predictor`]: the prediction-model family
//!   `P = { p_x : M × N × F → R⁺ }` with
//!   `x ∈ {MLP, RT, RF, IBk, KStar, DT}`, retrained after every run —
//!   on the whole base, or with [`predictor::RetrainMode::Windowed`] on
//!   the most recent records only, the adaptation to a drifting cloud;
//! - [`algorithm`]: **Algorithm 1** — evaluate every `p_x` on every
//!   `(m, n)` configuration, average the predictions, discard those above
//!   `T_max`, pick the cheapest, and with probability ε explore a random
//!   feasible configuration instead;
//! - [`deploy`]: the **self-optimizing loop**: select a configuration,
//!   provision and run on the (simulated) cloud, record the realized time
//!   in the knowledge base, retrain, repeat. Supports the paper's manual
//!   override for the early training phase. The loop is one
//!   [`deploy::DeployLoop`] behind the [`deploy::Deployer`] trait; the
//!   knowledge layouts supply only their storage;
//! - [`tenant`]: the multi-company extension — records keyed by
//!   (instance type × tenant), a pluggable [`tenant::TransferPolicy`]
//!   deciding whose knowledge crosses company boundaries, and a
//!   tenant-aware deployer behind the same [`deploy::Deployer`] trait;
//! - [`service`]: [`service::DeployService`] — N tenants submit jobs
//!   through bounded per-tenant handles; one service thread runs each job,
//!   in arrival order, on its tenant's own
//!   [`tenant::TenantShardedDeployer`], so every tenant's outcome stream is
//!   bit-identical to its solo run.
//!
//! # Example
//!
//! ```no_run
//! use disar_cloudsim::{CloudProvider, InstanceCatalog};
//! use disar_core::deploy::{DeployPolicy, TransparentDeployer};
//!
//! let provider = CloudProvider::new(InstanceCatalog::paper_catalog(), 1);
//! let policy = DeployPolicy::paper_defaults(3_600.0);
//! let mut deployer = TransparentDeployer::new(provider, policy, 42);
//! # let _ = &mut deployer;
//! ```

pub mod algorithm;
pub mod deploy;
pub mod knowledge;
pub mod predictor;
pub mod profile;
pub mod service;
pub mod tenant;

mod error;

pub use algorithm::{
    select_configuration, select_configuration_with_workspace, CandidateConfig, Selection,
    SelectionWorkspace, TimeEstimate,
};
pub use deploy::{
    DeployDecision, DeployLoop, DeployMode, DeployOutcome, DeployPolicy, DeployPolicyBuilder,
    Deployer, ShardedDeployer, TransparentDeployer,
};
pub use error::CoreError;
pub use knowledge::{
    KnowledgeBase, KnowledgeStore, RunRecord, SchemaVersion, ShardedKnowledgeBase,
};
pub use predictor::{GridScratch, PredictorFamily, RetrainMode, ShardedPredictor, TimePredictor};
pub use profile::JobProfile;
pub use service::{
    DeployService, PipelineJob, PipelineStats, ServiceConfig, ServiceStats, TenantHandle, TenantRun,
};
pub use tenant::{
    TenantId, TenantShardedDeployer, TenantShardedKnowledgeBase, TenantShardedPredictor,
    TenantView, TransferPolicy,
};
