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
//!   `(features, configuration, measured time, cost)` record, tagged with
//!   the company (tenant) it ran for, persisted as JSON and replayed into
//!   ML training sets, in one flat layout or sharded by instance type.
//!   "Whenever a simulation is executed on the cloud, the total execution
//!   time is stored into the database along with the values for the above
//!   parameters";
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
//!   [`deploy::DeployLoop`] behind the [`deploy::Deployer`] trait; the two
//!   knowledge layouts supply only their storage. A deployer tags each run
//!   with its active tenant, so companies that share one deployer pool
//!   their knowledge;
//! - [`service`]: [`service::DeployService`] — N tenants submit jobs
//!   through bounded per-tenant handles; one service thread runs each job,
//!   in arrival order, on its tenant's own [`deploy::ShardedDeployer`], so
//!   every tenant's outcome stream is bit-identical to its solo run.
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
pub use frozen_adapter::{
    TenantShardedDeployer, TenantShardedKnowledgeBase, TenantShardedPredictor,
};
pub use knowledge::{
    KnowledgeBase, KnowledgeStore, RunRecord, SchemaVersion, ShardedKnowledgeBase, TenantId,
};
pub use predictor::{GridScratch, PredictorFamily, RetrainMode, ShardedPredictor, TimePredictor};
pub use profile::JobProfile;
pub use service::{
    DeployService, PipelineJob, PipelineStats, ServiceConfig, ServiceStats, TenantHandle, TenantRun,
};

/// What the frozen benchmark adapter (`benchmark/src/adapter.rs`) still
/// names of the tenant layout this crate no longer has: three aliases and
/// three delegations. A service lane's base holds one tenant, so each
/// delegation ignores its tenant argument. ROADMAP direction 1a deletes
/// this block.
mod frozen_adapter {
    use crate::predictor::GridScratch;
    use crate::{
        CoreError, JobProfile, PredictorFamily, ShardedDeployer, ShardedKnowledgeBase,
        ShardedPredictor, TenantId, TimePredictor,
    };
    use disar_cloudsim::InstanceType;

    /// The deployer a service lane runs.
    pub type TenantShardedDeployer = ShardedDeployer;
    /// A lane's predictor.
    pub type TenantShardedPredictor = ShardedPredictor;
    /// A lane's knowledge base.
    pub type TenantShardedKnowledgeBase = ShardedKnowledgeBase;

    impl ShardedPredictor {
        /// [`ShardedPredictor::family`].
        pub fn local_family(&self, instance: &str, _tenant: &TenantId) -> Option<&PredictorFamily> {
            self.family(instance)
        }

        /// The predictor itself, which is what a lane's selections read.
        pub fn view<L>(&self, _tenant: &TenantId, _local_lens: L) -> &Self {
            self
        }
    }

    impl ShardedKnowledgeBase {
        /// Per-instance record counts, in first-seen order.
        pub fn local_lens(&self, _tenant: &TenantId) -> impl Iterator<Item = (&str, usize)> {
            self.shards().map(|(name, shard)| (name, shard.len()))
        }
    }

    /// A borrowed predictor answers as the predictor it borrows, so that
    /// `&view(..)` is a `&dyn TimePredictor`.
    impl<T: TimePredictor + ?Sized> TimePredictor for &T {
        fn predict_each(
            &self,
            profile: &JobProfile,
            instance: &InstanceType,
            n_nodes: usize,
        ) -> Result<Vec<(&'static str, f64)>, CoreError> {
            (**self).predict_each(profile, instance, n_nodes)
        }

        fn predict_mean(
            &self,
            profile: &JobProfile,
            instance: &InstanceType,
            n_nodes: usize,
        ) -> Result<f64, CoreError> {
            (**self).predict_mean(profile, instance, n_nodes)
        }

        fn predict_grid(
            &self,
            profile: &JobProfile,
            instance: &InstanceType,
            nodes: &[usize],
            out: &mut Vec<f64>,
            scratch: &mut GridScratch,
        ) -> Result<usize, CoreError> {
            (**self).predict_grid(profile, instance, nodes, out, scratch)
        }
    }
}
