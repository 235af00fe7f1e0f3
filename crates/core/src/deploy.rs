//! The transparent deployer — the paper's self-optimizing loop.
//!
//! "Whenever the user of DISAR starts a new simulation, the interface
//! automatically activates the required number of VMs" (§III). The loop:
//!
//! 1. **Select** a configuration with Algorithm 1 (or randomly during the
//!    bootstrap phase when the knowledge base is still too small, or by
//!    explicit manual override — "our DISAR interface allows to supersede
//!    the ML-based predicted configuration, so as to allow an early manual
//!    training phase");
//! 2. **Run** the job on the (simulated) cloud;
//! 3. **Record** the realized execution time and cost in the knowledge
//!    base — "this approach allows to refine the prediction models while
//!    carrying out useful work";
//! 4. **Retrain** the model family and go to 1 for the next simulation.
//!
//! The loop is written once, in [`DeployLoop`], over a knowledge layout
//! that supplies only its storage: the monolithic [`TransparentDeployer`]
//! and the instance-type-sharded [`ShardedDeployer`], which is also what
//! each tenant of [`crate::service::DeployService`] runs on. Tenancy is a
//! tag, not a layout: a deployer stamps every run it lands with its active
//! tenant ([`DeployLoop::set_tenant`]). One deployer per tenant keeps
//! companies' knowledge apart; one deployer shared by several tenants pools
//! it. The [`Deployer`] trait
//! names one `deploy()`'s *decision* ([`Deployer::select`]) and
//! *feedback* ([`Deployer::record`]) halves; every caller runs them in
//! sequence, one job at a time, as the paper does.

use crate::algorithm::{select_configuration_with_workspace, SelectionWorkspace, TimeEstimate};
use crate::knowledge::{KnowledgeBase, RunRecord, ShardedKnowledgeBase, TenantId};
use crate::predictor::{PredictorFamily, RetrainMode, ShardedPredictor, TimePredictor};
use crate::profile::JobProfile;
use crate::CoreError;
use disar_cloudsim::{CloudProvider, JobReport, Workload};
use disar_engine::DisarMaster;
use disar_math::rng::stream_rng;

/// How the deploy configuration was chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeployMode {
    /// Algorithm 1, greedy branch (minimum predicted cost).
    MlGreedy,
    /// Algorithm 1, ε-branch (random feasible configuration).
    MlExplored,
    /// Random configuration during the knowledge-base bootstrap phase.
    Bootstrap,
    /// Operator-supplied configuration (manual override).
    Manual,
}

/// Policy knobs of the deployer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeployPolicy {
    /// The Solvency II deadline `T_max` in seconds.
    pub t_max_secs: f64,
    /// Exploration probability ε of Algorithm 1.
    pub epsilon: f64,
    /// Upper bound of the node-count range `N = [1, max]`.
    pub max_nodes: usize,
    /// Knowledge-base size below which configurations are chosen randomly
    /// (the bootstrap/manual-training phase).
    pub min_kb_samples: usize,
    /// Retrain the family every `retrain_every` recorded runs (1 = after
    /// every run, the paper's setting; larger values trade freshness for
    /// speed in large campaigns).
    pub retrain_every: usize,
    /// Ignored: the loop selects and retrains on the calling thread.
    /// Always 1 from [`DeployPolicy::paper_defaults`]; removed with ROADMAP
    /// direction 1a (the benchmark's adapter reads it).
    pub n_threads: usize,
    /// Retrain mode every scheduled retrain uses (bulk warm-ups and the
    /// after-run cadence alike). Defaults to [`RetrainMode::Incremental`],
    /// which extends IBk, K\* and the random forest exactly and continues
    /// the MLP from its last fit; [`RetrainMode::Full`] is the from-scratch
    /// reference and [`RetrainMode::Windowed`] the adaptation to a drifting
    /// cloud.
    pub retrain_mode: RetrainMode,
}

impl DeployPolicy {
    /// Paper-like defaults: ε = 0.05, up to 8 nodes, 30-sample bootstrap,
    /// retrain after every run.
    pub fn paper_defaults(t_max_secs: f64) -> Self {
        DeployPolicy {
            t_max_secs,
            epsilon: 0.05,
            max_nodes: 8,
            min_kb_samples: 30,
            retrain_every: 1,
            n_threads: 1,
            retrain_mode: RetrainMode::Incremental,
        }
    }

    /// Starts a chainable policy build from
    /// [`DeployPolicy::paper_defaults`] — the one construction path that
    /// survives new policy knobs without touching every caller.
    pub fn builder(t_max_secs: f64) -> DeployPolicyBuilder {
        DeployPolicyBuilder {
            policy: DeployPolicy::paper_defaults(t_max_secs),
        }
    }

    pub(crate) fn validate(&self) -> Result<(), CoreError> {
        if !(self.t_max_secs > 0.0) {
            return Err(CoreError::InvalidParameter("t_max_secs must be positive"));
        }
        if !(0.0..=1.0).contains(&self.epsilon) {
            return Err(CoreError::InvalidParameter("epsilon must be in [0, 1]"));
        }
        if self.max_nodes == 0 {
            return Err(CoreError::InvalidParameter("max_nodes must be > 0"));
        }
        if self.retrain_every == 0 {
            return Err(CoreError::InvalidParameter("retrain_every must be > 0"));
        }
        self.retrain_mode.validate()
    }
}

/// Chainable construction of a [`DeployPolicy`].
///
/// Starts from [`DeployPolicy::paper_defaults`] and overrides only the
/// named knobs, so call sites state their deltas from the paper's setting
/// instead of re-listing every field (and keep compiling when the policy
/// grows a knob). Validation stays where it always was — on the deploy
/// path — so `build()` is infallible.
#[derive(Debug, Clone, Copy)]
pub struct DeployPolicyBuilder {
    policy: DeployPolicy,
}

impl DeployPolicyBuilder {
    /// Sets the exploration probability ε of Algorithm 1.
    pub fn epsilon(mut self, epsilon: f64) -> Self {
        self.policy.epsilon = epsilon;
        self
    }

    /// Sets the upper bound of the node-count range `N = [1, max]`.
    pub fn max_nodes(mut self, max_nodes: usize) -> Self {
        self.policy.max_nodes = max_nodes;
        self
    }

    /// Sets the bootstrap threshold (knowledge-base size below which
    /// configurations are chosen randomly).
    pub fn min_kb_samples(mut self, min_kb_samples: usize) -> Self {
        self.policy.min_kb_samples = min_kb_samples;
        self
    }

    /// Sets the retrain cadence (retrain every `retrain_every` records).
    pub fn retrain_every(mut self, retrain_every: usize) -> Self {
        self.policy.retrain_every = retrain_every;
        self
    }

    /// Sets the retrain mode used by every scheduled retrain.
    pub fn retrain_mode(mut self, retrain_mode: RetrainMode) -> Self {
        self.policy.retrain_mode = retrain_mode;
        self
    }

    /// Finishes the build.
    pub fn build(self) -> DeployPolicy {
        self.policy
    }
}

/// What one deploy produced.
#[derive(Debug, Clone, PartialEq)]
pub struct DeployOutcome {
    /// How the configuration was chosen.
    pub mode: DeployMode,
    /// Ensemble-predicted execution time, when ML chose (`None` for
    /// bootstrap/manual deploys).
    pub predicted_secs: Option<f64>,
    /// The cloud's report of the realized run.
    pub report: JobReport,
}

impl DeployOutcome {
    /// Signed prediction error `predicted − real` (the paper's per-sample
    /// `Θ̂ − Θ`), when a prediction was made.
    pub fn prediction_error(&self) -> Option<f64> {
        self.predicted_secs.map(|p| p - self.report.duration_secs)
    }

    /// `true` when the run violated the deadline.
    pub fn missed_deadline(&self, t_max_secs: f64) -> bool {
        self.report.duration_secs > t_max_secs
    }
}

/// A committed deploy decision: the configuration a job *will* run on,
/// before the run has executed.
///
/// This is the first half of a [`DeployOutcome`]; [`Deployer::record`]
/// turns it into knowledge once the cloud's [`JobReport`] arrives.
#[derive(Debug, Clone, PartialEq)]
pub struct DeployDecision {
    /// How the configuration was chosen.
    pub mode: DeployMode,
    /// Instance-type name the job will run on.
    pub instance: String,
    /// Number of nodes.
    pub n_nodes: usize,
    /// Ensemble-predicted execution time, when ML chose.
    pub predicted_secs: Option<f64>,
}

/// The self-optimizing deploy service, split into decision and feedback
/// halves.
///
/// The one implementor, [`DeployLoop`], owns the knowledge base, the
/// predictor(s) and the cloud provider. It takes one job at a time: each
/// `select` reads the base and families every earlier run left, so the
/// previous decision's run must be recorded before the next `select`. The
/// provided [`Deployer::deploy`] composes the halves into the paper's
/// sequential loop.
pub trait Deployer {
    /// The active policy.
    fn policy(&self) -> &DeployPolicy;

    /// The underlying cloud provider.
    fn provider(&self) -> &CloudProvider;

    /// Number of records in the knowledge base.
    fn kb_len(&self) -> usize;

    /// Trains the predictor(s) on the current knowledge base — the bulk
    /// warm-up for a pre-seeded base.
    ///
    /// # Errors
    ///
    /// Propagates policy validation and the first training failure (e.g.
    /// [`CoreError::InsufficientKnowledge`] on a base that is too small).
    fn warm(&mut self) -> Result<(), CoreError>;

    /// Chooses the configuration for the next job from the runs recorded so
    /// far, and advances the deploy counter. `pending` must be empty: the
    /// loop takes one job at a time (see the trait docs).
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] for a non-empty `pending`, before the
    /// counter moves; otherwise propagates policy validation and Algorithm 1
    /// failures (including [`CoreError::NoFeasibleConfiguration`]).
    fn select(
        &mut self,
        profile: &JobProfile,
        pending: &[DeployDecision],
    ) -> Result<DeployDecision, CoreError>;

    /// Feeds one finished run back into the knowledge base and retrains
    /// per policy. Records must land in job order.
    ///
    /// # Errors
    ///
    /// Propagates catalog lookups; a retrain that fails is
    /// [`CoreError::ShardRetrainFailed`], naming the shard. The record itself
    /// lands before a retrain can fail.
    fn record(
        &mut self,
        profile: &JobProfile,
        decision: &DeployDecision,
        report: &JobReport,
    ) -> Result<(), CoreError>;

    /// Deploys one job: full self-optimizing cycle (select → run → record →
    /// retrain), the paper's sequential loop.
    ///
    /// # Errors
    ///
    /// Propagates policy validation, Algorithm 1 (including
    /// [`CoreError::NoFeasibleConfiguration`]) and cloud failures.
    fn deploy(
        &mut self,
        profile: &JobProfile,
        workload: &Workload,
    ) -> Result<DeployOutcome, CoreError> {
        let decision = self.select(profile, &[])?;
        run_decided(self, profile, workload, decision)
    }

    /// Deploys with an operator-forced configuration (manual override);
    /// the run is still recorded and learned from. Advances the deploy
    /// counter as a selection does.
    ///
    /// # Errors
    ///
    /// Propagates policy validation and cloud failures (unknown instance,
    /// zero nodes).
    fn deploy_manual(
        &mut self,
        profile: &JobProfile,
        workload: &Workload,
        instance: &str,
        n_nodes: usize,
    ) -> Result<DeployOutcome, CoreError>;
}

/// Runs a decided job on the cloud and feeds the report back: the tail of
/// [`Deployer::deploy`] and [`Deployer::deploy_manual`].
fn run_decided<D: Deployer + ?Sized>(
    deployer: &mut D,
    profile: &JobProfile,
    workload: &Workload,
    decision: DeployDecision,
) -> Result<DeployOutcome, CoreError> {
    let report = deployer
        .provider()
        .run_job(&decision.instance, decision.n_nodes, workload)?;
    deployer.record(profile, &decision, &report)?;
    Ok(DeployOutcome {
        mode: decision.mode,
        predicted_secs: decision.predicted_secs,
        report,
    })
}

/// The fewest records a shard's family is fitted on. Every sharded layout's
/// retrain gate waits for it, and every shard family is built with it.
pub(crate) const SHARD_FLOOR: usize = 2;

pub(crate) use backend::{Backend, Shard};

/// Public in name only (the module is private): [`DeployLoop`]'s public
/// methods are bounded by [`Backend`], and no other crate can implement it.
mod backend {
    use super::{DeployPolicy, SHARD_FLOOR};
    use crate::knowledge::{RunRecord, TenantId};
    use crate::predictor::{RetrainMode, TimePredictor};
    use crate::CoreError;

    /// One family a backend retrains, named by the records it trains on.
    #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
    pub enum Shard {
        /// The whole base: the monolithic layout's only family.
        Whole,
        /// One instance type's records, whichever tenant landed them.
        Instance(String),
    }

    impl Shard {
        /// The instance type whose records the shard holds (`""` for the
        /// whole base).
        pub fn instance(&self) -> &str {
            match self {
                Shard::Whole => "",
                Shard::Instance(instance) => instance,
            }
        }
    }

    /// What a knowledge layout supplies to the one deploy loop
    /// ([`super::DeployLoop`]): where records go, which families they grow,
    /// and how a selection reads and a retrain writes those families. The
    /// gate schedule and selection are the loop's and never look behind
    /// this trait.
    pub trait Backend {
        /// Records landed so far.
        fn len(&self) -> usize;

        /// The tenant landed runs are attributed to.
        fn tenant(&self) -> &TenantId;

        /// The shard a run on `instance` grows, whose family also answers
        /// queries on `instance`.
        fn shard(&self, instance: &str) -> Shard;

        /// Records `shard` holds now.
        fn size(&self, shard: &Shard) -> usize;

        /// Fewest records `shard` must hold for its retrain to fire.
        fn floor(&self, _shard: &Shard, _policy: &DeployPolicy) -> usize {
            SHARD_FLOOR
        }

        /// Whether `shard`'s family has been trained.
        fn trained(&self, shard: &Shard) -> bool;

        /// Runs `f` on the predictor an ML selection reads.
        fn with_view<R>(&self, f: impl FnOnce(&dyn TimePredictor) -> R) -> R;

        /// Appends one landed run.
        fn append(&mut self, record: RunRecord);

        /// Refits `shard`'s family on the records it holds now: the retrain
        /// a landed run fired.
        fn retrain(&mut self, shard: &Shard, mode: RetrainMode) -> Result<(), CoreError>;

        /// Trains every family whose shard already holds the floor.
        fn warm(&mut self, mode: RetrainMode) -> Result<(), CoreError>;
    }
}

/// The paper's self-optimizing loop, written once over a knowledge layout
/// `B`: validation, the decision-seed stream, the retrain schedule,
/// bootstrap and Algorithm 1 selection, manual overrides and the record →
/// gate → retrain sequence. The layouts are
/// [`TransparentDeployer`] (one base, one family) and
/// [`ShardedDeployer`] (per instance type).
pub struct DeployLoop<B> {
    provider: CloudProvider,
    policy: DeployPolicy,
    seed: u64,
    /// Decisions made so far; with `seed` it keys each decision's seed, so
    /// decisions depend only on submission order.
    deploy_counter: u64,
    /// Warm Algorithm 1 buffers, reused across this deployer's decisions so
    /// steady-state selections stay allocation-free.
    selection: SelectionWorkspace,
    pub(crate) backend: B,
    /// Records landed since the last fired retrain (the `retrain_every`
    /// cadence).
    pub(crate) runs_since_retrain: usize,
    /// Shard retrains applied so far.
    retrains: usize,
}

impl<B> DeployLoop<B> {
    pub(crate) fn assemble(
        provider: CloudProvider,
        policy: DeployPolicy,
        seed: u64,
        backend: B,
    ) -> Self {
        DeployLoop {
            provider,
            policy,
            seed,
            deploy_counter: 0,
            selection: SelectionWorkspace::new(),
            backend,
            runs_since_retrain: 0,
            retrains: 0,
        }
    }

    /// Bumps the deploy counter and derives this deploy's decision seed.
    fn next_decision_seed(&mut self) -> u64 {
        self.deploy_counter += 1;
        disar_math::rng::split_seed(self.seed, self.deploy_counter)
    }

    /// Number of shard retrains applied so far (one per shard a landed run
    /// fired; the bulk warm-up is not counted).
    pub fn retrains(&self) -> usize {
        self.retrains
    }
}

impl<B: Backend> DeployLoop<B> {
    /// Bootstrap phase: the base is below the policy's size or some catalog
    /// type has no trained family to answer Algorithm 1's sweep.
    fn bootstrapping(&self) -> bool {
        self.backend.len() < self.policy.min_kb_samples
            || !self
                .provider
                .catalog()
                .iter()
                .all(|inst| self.backend.trained(&self.backend.shard(&inst.name)))
    }
}

impl<B: Backend> Deployer for DeployLoop<B> {
    fn policy(&self) -> &DeployPolicy {
        &self.policy
    }

    fn provider(&self) -> &CloudProvider {
        &self.provider
    }

    fn kb_len(&self) -> usize {
        self.backend.len()
    }

    fn warm(&mut self) -> Result<(), CoreError> {
        self.policy.validate()?;
        self.backend.warm(self.policy.retrain_mode)
    }

    fn select(
        &mut self,
        profile: &JobProfile,
        pending: &[DeployDecision],
    ) -> Result<DeployDecision, CoreError> {
        if !pending.is_empty() {
            return Err(CoreError::InvalidParameter(
                "select takes one job at a time: record every decided run first",
            ));
        }
        self.policy.validate()?;
        let decision_seed = self.next_decision_seed();

        if self.bootstrapping() {
            // A uniformly random configuration, no prediction.
            let names = self.provider.catalog().names();
            if names.is_empty() {
                return Err(CoreError::InvalidParameter("catalog is empty"));
            }
            let mut rng = stream_rng(decision_seed, 0xB00F);
            return Ok(DeployDecision {
                mode: DeployMode::Bootstrap,
                instance: names[rng.gen_range(0..names.len())].clone(),
                n_nodes: rng.gen_range(1..=self.policy.max_nodes),
                predicted_secs: None,
            });
        }
        let DeployLoop {
            provider,
            policy,
            selection,
            backend,
            ..
        } = self;
        backend.with_view(|view| {
            let selection = select_configuration_with_workspace(
                view,
                provider.catalog(),
                profile,
                policy.t_max_secs,
                policy.max_nodes,
                policy.epsilon,
                decision_seed,
                TimeEstimate::EnsembleMean,
                1,
                selection,
            )?;
            Ok(DeployDecision {
                mode: if selection.explored {
                    DeployMode::MlExplored
                } else {
                    DeployMode::MlGreedy
                },
                instance: selection.chosen.instance,
                n_nodes: selection.chosen.n_nodes,
                predicted_secs: Some(selection.chosen.predicted_secs),
            })
        })
    }

    fn deploy_manual(
        &mut self,
        profile: &JobProfile,
        workload: &Workload,
        instance: &str,
        n_nodes: usize,
    ) -> Result<DeployOutcome, CoreError> {
        // One decision-counter tick, so forced and automatic deploys draw
        // from the same seed stream.
        self.policy.validate()?;
        self.deploy_counter += 1;
        let decision = DeployDecision {
            mode: DeployMode::Manual,
            instance: instance.to_string(),
            n_nodes,
            predicted_secs: None,
        };
        run_decided(self, profile, workload, decision)
    }

    fn record(
        &mut self,
        profile: &JobProfile,
        decision: &DeployDecision,
        report: &JobReport,
    ) -> Result<(), CoreError> {
        let policy = self.policy;
        let inst = self.provider.catalog().get(&decision.instance)?.clone();
        let shard = self.backend.shard(&decision.instance);
        self.backend.append(
            RunRecord::new(
                *profile,
                &inst,
                decision.n_nodes,
                report.duration_secs,
                report.prorated_cost,
            )
            .with_tenant(self.backend.tenant().clone()),
        );
        self.runs_since_retrain += 1;
        if self.runs_since_retrain < policy.retrain_every
            || self.backend.size(&shard) < self.backend.floor(&shard, &policy)
        {
            return Ok(());
        }
        self.backend
            .retrain(&shard, policy.retrain_mode)
            .map_err(|cause| CoreError::ShardRetrainFailed {
                instance: shard.instance().to_string(),
                tenant: self.backend.tenant().clone(),
                cause: Box::new(cause),
            })?;
        self.retrains += 1;
        self.runs_since_retrain = 0;
        Ok(())
    }
}

/// Storage of a layout, which owns its base and its families: the
/// monolithic `Local<KnowledgeBase, PredictorFamily>` and the per-instance
/// `Local<ShardedKnowledgeBase, ShardedPredictor>`.
pub struct Local<KB, P> {
    pub(crate) kb: KB,
    pub(crate) predictor: P,
    /// The tenant landed runs are attributed to.
    pub(crate) tenant: TenantId,
}

impl<KB, P> DeployLoop<Local<KB, P>> {
    /// Seeds the deployer with a pre-existing knowledge base (e.g. loaded
    /// from disk, converted with `from_monolithic`, or transferred from
    /// another company's runs). Call [`Deployer::warm`] afterwards to
    /// train on it without waiting for fresh runs.
    pub fn with_knowledge_base(mut self, kb: KB) -> Self {
        self.backend.kb = kb;
        self
    }

    /// The current knowledge base.
    pub fn knowledge_base(&self) -> &KB {
        &self.backend.kb
    }

    /// Consumes the deployer, returning the knowledge base.
    pub fn into_knowledge_base(self) -> KB {
        self.backend.kb
    }

    /// The layout's predictor (e.g. for offline evaluation).
    pub fn predictor(&self) -> &P {
        &self.backend.predictor
    }

    /// Sets the tenant subsequent runs are tagged with (builder-style).
    pub fn with_tenant(mut self, tenant: TenantId) -> Self {
        self.backend.tenant = tenant;
        self
    }

    /// Switches the tenant subsequent runs are tagged with. The base and
    /// the families stay shared: the next tenant's selections read every
    /// run landed so far, whichever tenant landed it.
    pub fn set_tenant(&mut self, tenant: TenantId) {
        self.backend.tenant = tenant;
    }

    /// The tenant runs are currently tagged with.
    pub fn tenant(&self) -> &TenantId {
        &self.backend.tenant
    }
}

impl Backend for Local<KnowledgeBase, PredictorFamily> {
    fn len(&self) -> usize {
        self.kb.len()
    }

    fn tenant(&self) -> &TenantId {
        &self.tenant
    }

    fn shard(&self, _instance: &str) -> Shard {
        Shard::Whole
    }

    fn size(&self, _shard: &Shard) -> usize {
        self.kb.len()
    }

    fn floor(&self, _shard: &Shard, policy: &DeployPolicy) -> usize {
        policy.min_kb_samples.max(SHARD_FLOOR)
    }

    fn trained(&self, _shard: &Shard) -> bool {
        self.predictor.is_trained()
    }

    fn with_view<R>(&self, f: impl FnOnce(&dyn TimePredictor) -> R) -> R {
        f(&self.predictor)
    }

    fn append(&mut self, record: RunRecord) {
        self.kb.record(record);
    }

    fn retrain(&mut self, _shard: &Shard, mode: RetrainMode) -> Result<(), CoreError> {
        self.predictor.retrain(&self.kb, mode, 1)
    }

    fn warm(&mut self, mode: RetrainMode) -> Result<(), CoreError> {
        self.predictor.retrain(&self.kb, mode, 1)
    }
}

/// The self-optimizing transparent deployer.
pub type TransparentDeployer = DeployLoop<Local<KnowledgeBase, PredictorFamily>>;

impl DeployLoop<Local<KnowledgeBase, PredictorFamily>> {
    /// Creates a deployer with an empty knowledge base.
    pub fn new(provider: CloudProvider, policy: DeployPolicy, seed: u64) -> Self {
        let backend = Local {
            kb: KnowledgeBase::new(),
            predictor: PredictorFamily::new(seed, SHARD_FLOOR),
            tenant: TenantId::default(),
        };
        Self::assemble(provider, policy, seed, backend)
    }

    /// The prediction-model family (e.g. for offline evaluation).
    pub fn family(&self) -> &PredictorFamily {
        &self.backend.predictor
    }

    /// Convenience: deploys a DISAR simulation, deriving the profile and
    /// workload from its master.
    ///
    /// # Errors
    ///
    /// Propagates engine estimation and deploy failures.
    pub fn deploy_simulation(&mut self, master: &DisarMaster) -> Result<DeployOutcome, CoreError> {
        let profile = JobProfile {
            characteristics: master.characteristics()?,
            n_outer: master.spec().n_outer,
            n_inner: master.spec().n_inner,
        };
        let workload = master.cloud_workload()?;
        self.deploy(&profile, &workload)
    }
}

impl Backend for Local<ShardedKnowledgeBase, ShardedPredictor> {
    fn len(&self) -> usize {
        self.kb.len()
    }

    fn tenant(&self) -> &TenantId {
        &self.tenant
    }

    fn shard(&self, instance: &str) -> Shard {
        Shard::Instance(instance.to_string())
    }

    fn size(&self, shard: &Shard) -> usize {
        self.kb
            .shard(shard.instance())
            .map_or(0, KnowledgeBase::len)
    }

    fn trained(&self, shard: &Shard) -> bool {
        self.predictor.is_trained_for(shard.instance())
    }

    fn with_view<R>(&self, f: impl FnOnce(&dyn TimePredictor) -> R) -> R {
        f(&self.predictor)
    }

    fn append(&mut self, record: RunRecord) {
        self.kb.record(record);
    }

    fn retrain(&mut self, shard: &Shard, mode: RetrainMode) -> Result<(), CoreError> {
        let records = self
            .kb
            .shard(shard.instance())
            .expect("a due shard holds records");
        self.predictor
            .retrain_shard(shard.instance(), records, mode)
    }

    fn warm(&mut self, mode: RetrainMode) -> Result<(), CoreError> {
        self.predictor.retrain_all(&self.kb, mode)
    }
}

/// The self-optimizing deployer over the sharded knowledge layout.
///
/// Behaviourally a [`TransparentDeployer`] whose records land in
/// per-instance-type shards ([`ShardedKnowledgeBase`]) with one predictor
/// family per shard ([`ShardedPredictor`]): a recorded run dirties exactly
/// one shard and the after-run retrain touches only that shard's records —
/// O(shard) instead of O(total base) on the hot path.
///
/// Two structural differences from the monolithic loop follow from the
/// layout:
///
/// - the bootstrap phase runs until the base holds `min_kb_samples` runs
///   **and** every catalog type has a trained shard (Algorithm 1's sweep
///   queries all types, and an untrained shard cannot answer);
/// - shards retrain as soon as they hold the family's minimum sample
///   count, independent of the global bootstrap threshold.
pub type ShardedDeployer = DeployLoop<Local<ShardedKnowledgeBase, ShardedPredictor>>;

impl DeployLoop<Local<ShardedKnowledgeBase, ShardedPredictor>> {
    /// Creates a sharded deployer with an empty knowledge base.
    pub fn new(provider: CloudProvider, policy: DeployPolicy, seed: u64) -> Self {
        let backend = Local {
            kb: ShardedKnowledgeBase::new(),
            predictor: ShardedPredictor::new(seed, SHARD_FLOOR),
            tenant: TenantId::default(),
        };
        Self::assemble(provider, policy, seed, backend)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disar_cloudsim::InstanceCatalog;
    use disar_engine::EebCharacteristics;
    use std::collections::{BTreeMap, BTreeSet};

    fn profile(contracts: usize) -> JobProfile {
        JobProfile {
            characteristics: EebCharacteristics {
                representative_contracts: contracts,
                max_horizon: 20,
                fund_assets: 30,
                risk_factors: 2,
            },
            n_outer: 1000,
            n_inner: 50,
        }
    }

    fn workload(contracts: usize) -> Workload {
        Workload::new(30.0 * contracts as f64, 0.02 * contracts as f64, 0.8 * contracts as f64, 0.05)
            .unwrap()
    }

    fn deployer(seed: u64) -> TransparentDeployer {
        let provider = CloudProvider::new(InstanceCatalog::paper_catalog(), seed);
        let policy = DeployPolicy::builder(50_000.0)
            .max_nodes(4)
            .min_kb_samples(8)
            .build();
        TransparentDeployer::new(provider, policy, seed)
    }

    #[test]
    fn bootstrap_then_ml_transition() {
        let mut d = deployer(1);
        let mut modes = Vec::new();
        for i in 0..14 {
            let out = d
                .deploy(&profile(100 + i * 13), &workload(100 + i * 13))
                .unwrap();
            modes.push(out.mode);
        }
        // First 8 deploys are bootstrap, later ones ML-driven.
        assert!(modes[..8].iter().all(|m| *m == DeployMode::Bootstrap));
        assert!(modes[9..]
            .iter()
            .all(|m| matches!(m, DeployMode::MlGreedy | DeployMode::MlExplored)));
        assert_eq!(d.knowledge_base().len(), 14);
    }

    #[test]
    fn ml_deploys_carry_predictions() {
        let mut d = deployer(2);
        for i in 0..10 {
            d.deploy(&profile(80 + i * 17), &workload(80 + i * 17))
                .unwrap();
        }
        let out = d.deploy(&profile(150), &workload(150)).unwrap();
        assert!(out.predicted_secs.is_some());
        assert!(out.prediction_error().is_some());
    }

    #[test]
    fn manual_override_is_recorded_and_learned() {
        let mut d = deployer(3);
        let out = d
            .deploy_manual(&profile(100), &workload(100), "m4.10xlarge", 2)
            .unwrap();
        assert_eq!(out.mode, DeployMode::Manual);
        assert_eq!(out.report.instance, "m4.10xlarge");
        assert_eq!(out.report.n_nodes, 2);
        assert!(out.predicted_secs.is_none());
        assert_eq!(d.knowledge_base().len(), 1);
    }

    #[test]
    fn knowledge_base_grows_monotonically() {
        let mut d = deployer(4);
        for i in 0..5 {
            d.deploy(&profile(60 + i), &workload(60 + i)).unwrap();
            assert_eq!(d.knowledge_base().len(), i + 1);
        }
    }

    #[test]
    fn preseeded_kb_skips_bootstrap() {
        // Build a KB from one deployer's bootstrap, hand it to another.
        let mut first = deployer(5);
        for i in 0..10 {
            first.deploy(&profile(70 + i * 11), &workload(70 + i * 11)).unwrap();
        }
        let kb = first.knowledge_base().clone();
        let provider = CloudProvider::new(InstanceCatalog::paper_catalog(), 6);
        let policy = DeployPolicy {
            min_kb_samples: 8,
            ..*first.policy()
        };
        let mut second = TransparentDeployer::new(provider, policy, 6).with_knowledge_base(kb);
        // Family is untrained, so the very first deploy is still bootstrap
        // (it trains right after); the second is ML.
        let o1 = second.deploy(&profile(100), &workload(100)).unwrap();
        assert_eq!(o1.mode, DeployMode::Bootstrap);
        let o2 = second.deploy(&profile(100), &workload(100)).unwrap();
        assert!(matches!(o2.mode, DeployMode::MlGreedy | DeployMode::MlExplored));
    }

    #[test]
    fn predictions_improve_with_experience() {
        // After enough homogeneous runs the ensemble should predict within
        // a modest relative error on a familiar workload.
        let mut d = deployer(7);
        let mut last_err = None;
        for i in 0..40 {
            let c = 100 + (i * 29) % 200;
            let out = d.deploy(&profile(c), &workload(c)).unwrap();
            if let Some(p) = out.predicted_secs {
                last_err = Some(((p - out.report.duration_secs) / out.report.duration_secs).abs());
            }
        }
        let err = last_err.expect("ML deploys happened");
        assert!(err < 0.6, "relative error after 40 runs: {err}");
    }

    #[test]
    fn policy_validation() {
        let provider = CloudProvider::new(InstanceCatalog::paper_catalog(), 1);
        let mut bad = DeployPolicy::paper_defaults(3600.0);
        bad.epsilon = 2.0;
        let mut d = TransparentDeployer::new(provider, bad, 1);
        assert!(d.deploy(&profile(10), &workload(10)).is_err());
    }

    #[test]
    fn retrain_every_batches_training() {
        let provider = CloudProvider::new(InstanceCatalog::paper_catalog(), 9);
        let policy = DeployPolicy::builder(50_000.0)
            .epsilon(0.0)
            .max_nodes(3)
            .min_kb_samples(4)
            .retrain_every(5)
            .build();
        let mut d = TransparentDeployer::new(provider, policy, 9);
        for i in 0..6 {
            d.deploy(&profile(50 + i * 7), &workload(50 + i * 7)).unwrap();
        }
        // Trained at run 5 (first multiple of 5 past the 4-sample floor).
        assert_eq!(d.family().trained_on(), 5);
    }

    #[test]
    fn builder_defaults_match_paper_defaults() {
        assert_eq!(
            DeployPolicy::builder(3_600.0).build(),
            DeployPolicy::paper_defaults(3_600.0)
        );
    }

    #[test]
    fn builder_overrides_only_named_knobs() {
        let p = DeployPolicy::builder(50_000.0)
            .epsilon(0.2)
            .max_nodes(3)
            .min_kb_samples(5)
            .retrain_every(4)
            .retrain_mode(RetrainMode::Windowed { window: 64 })
            .build();
        assert_eq!(p.t_max_secs, 50_000.0);
        assert_eq!(p.epsilon, 0.2);
        assert_eq!(p.max_nodes, 3);
        assert_eq!(p.min_kb_samples, 5);
        assert_eq!(p.retrain_every, 4);
        assert_eq!(p.retrain_mode, RetrainMode::Windowed { window: 64 });
        // Unnamed knobs keep the paper defaults.
        let d = DeployPolicy::paper_defaults(50_000.0);
        assert_eq!(
            DeployPolicy::builder(50_000.0).epsilon(0.2).build(),
            DeployPolicy { epsilon: 0.2, ..d }
        );
    }

    #[test]
    fn policy_validates_the_windowed_retrain_mode() {
        let mut p = DeployPolicy::paper_defaults(3_600.0);
        p.retrain_mode = RetrainMode::Windowed { window: 0 };
        assert!(p.validate().is_err());
        p.retrain_mode = RetrainMode::Windowed { window: 16 };
        assert!(p.validate().is_ok());
    }

    #[test]
    fn unbounded_windowed_policy_matches_default_outcomes() {
        // Windowed with an unbounded window refits on the whole base from
        // scratch, which is what Full does, so the entire deploy stream must
        // be bit-identical to a Full policy's.
        let run = |mode: RetrainMode| {
            let provider = CloudProvider::new(InstanceCatalog::paper_catalog(), 67);
            let policy = DeployPolicy::builder(50_000.0)
                .max_nodes(4)
                .min_kb_samples(8)
                .retrain_mode(mode)
                .build();
            let mut d = TransparentDeployer::new(provider, policy, 67);
            (0..16)
                .map(|i| {
                    d.deploy(&profile(90 + i * 19), &workload(90 + i * 19))
                        .unwrap()
                })
                .collect::<Vec<DeployOutcome>>()
        };
        assert_eq!(
            run(RetrainMode::Full),
            run(RetrainMode::Windowed { window: usize::MAX })
        );
    }

    #[test]
    fn generic_deploy_loop_works_over_both_backends() {
        // The whole point of the trait: callers written once run over
        // either backend.
        fn run_five<D: Deployer>(d: &mut D) -> Vec<DeployMode> {
            (0..5)
                .map(|i| {
                    let c = 60 + i * 31;
                    d.deploy(&profile(c), &workload(c)).unwrap().mode
                })
                .collect()
        }
        let mut mono = deployer(43);
        let mut sharded = sharded_deployer(43);
        assert_eq!(run_five(&mut mono), vec![DeployMode::Bootstrap; 5]);
        assert_eq!(run_five(&mut sharded), vec![DeployMode::Bootstrap; 5]);
        assert_eq!(mono.kb_len(), 5);
        assert_eq!(sharded.kb_len(), 5);
    }

    #[test]
    fn bootstrap_select_on_an_empty_catalog_is_a_typed_error() {
        // Algorithm 1's answer to an empty catalog, from the branch that
        // runs before there is anything to predict with.
        fn select_once<D: Deployer>(d: &mut D) -> Result<DeployDecision, CoreError> {
            d.select(&profile(100), &[])
        }
        let provider = CloudProvider::new(InstanceCatalog::new(), 9);
        let policy = DeployPolicy::builder(50_000.0).build();
        let mut d = TransparentDeployer::new(provider, policy, 9);
        assert!(matches!(
            select_once(&mut d),
            Err(CoreError::InvalidParameter("catalog is empty"))
        ));
    }

    #[test]
    fn select_rejects_pending_decisions() {
        // The loop takes one job at a time: a selection as if decided runs
        // had landed is refused, in either phase, and the refusal leaves the
        // deploy counter (and with it every later draw) where it was.
        let (mut d, mut untouched) = (deployer(59), deployer(59));
        let pending = DeployDecision {
            mode: DeployMode::Manual,
            instance: "c3.4xlarge".to_string(),
            n_nodes: 1,
            predicted_secs: None,
        };
        let mut modes = Vec::new();
        for i in 0..12 {
            if i % 5 == 0 {
                assert!(matches!(
                    d.select(&profile(100), std::slice::from_ref(&pending)),
                    Err(CoreError::InvalidParameter(_))
                ));
            }
            let c = 90 + i * 19;
            let out = d.deploy(&profile(c), &workload(c)).unwrap();
            assert_eq!(out, untouched.deploy(&profile(c), &workload(c)).unwrap(), "deploy {i}");
            modes.push(out.mode);
        }
        assert_eq!(modes[5], DeployMode::Bootstrap);
        assert!(matches!(modes[10], DeployMode::MlGreedy | DeployMode::MlExplored));
    }

    fn sharded_deployer(seed: u64) -> ShardedDeployer {
        let provider = CloudProvider::new(InstanceCatalog::paper_catalog(), seed);
        let policy = DeployPolicy::builder(50_000.0)
            .max_nodes(4)
            .min_kb_samples(8)
            .build();
        ShardedDeployer::new(provider, policy, seed)
    }

    #[test]
    fn sharded_bootstrap_reaches_ml_phase() {
        // Bootstrap must run until every catalog type has a trained shard;
        // from then on deploys are ML-driven and each one retrains only the
        // shard it recorded into.
        let mut d = sharded_deployer(17);
        let mut ml_at = None;
        for i in 0..200 {
            let c = 80 + (i * 19) % 300;
            let out = d.deploy(&profile(c), &workload(c)).unwrap();
            match out.mode {
                DeployMode::Bootstrap => {
                    assert!(ml_at.is_none(), "bootstrap after the ML phase began")
                }
                _ => {
                    if ml_at.is_none() {
                        ml_at = Some(i);
                    }
                    assert!(out.predicted_secs.is_some());
                }
            }
            if i >= ml_at.map_or(usize::MAX, |at| at + 5) {
                break;
            }
        }
        let at = ml_at.expect("ML phase never reached in 200 deploys");
        // Coverage needs two records in each of the six shards, so the
        // first ML deploy cannot come before the 13th.
        assert!(at >= 12, "ML phase began after only {at} bootstrap runs");
        let cat = InstanceCatalog::paper_catalog();
        for name in cat.names() {
            assert!(d.predictor().is_trained_for(&name));
        }
        assert_eq!(d.knowledge_base().len() as u64, {
            let mut n = 0;
            for (_, s) in d.knowledge_base().shards() {
                n += s.len() as u64;
            }
            n
        });
    }

    #[test]
    fn sharded_deployer_is_deterministic() {
        let run = || {
            let mut d = sharded_deployer(23);
            (0..30)
                .map(|i| {
                    let c = 70 + (i * 13) % 250;
                    d.deploy(&profile(c), &workload(c)).unwrap()
                })
                .collect::<Vec<DeployOutcome>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn preseeded_sharded_kb_warms_and_skips_bootstrap() {
        // Bootstrap one deployer past coverage, transplant its base into a
        // fresh deployer, warm(), and the first deploy is already ML.
        let mut first = sharded_deployer(29);
        for i in 0..120 {
            let c = 60 + (i * 23) % 280;
            let out = first.deploy(&profile(c), &workload(c)).unwrap();
            if out.mode != DeployMode::Bootstrap {
                break;
            }
        }
        let kb = first.knowledge_base().clone();
        let provider = CloudProvider::new(InstanceCatalog::paper_catalog(), 31);
        let mut second = ShardedDeployer::new(provider, *first.policy(), 31).with_knowledge_base(kb);
        second.warm().unwrap();
        let out = second.deploy(&profile(150), &workload(150)).unwrap();
        assert!(matches!(
            out.mode,
            DeployMode::MlGreedy | DeployMode::MlExplored
        ));
    }

    #[test]
    fn sharded_manual_deploy_records_into_one_shard() {
        let mut d = sharded_deployer(37);
        let out = d
            .deploy_manual(&profile(100), &workload(100), "m4.10xlarge", 2)
            .unwrap();
        assert_eq!(out.mode, DeployMode::Manual);
        assert_eq!(d.knowledge_base().len(), 1);
        assert_eq!(d.knowledge_base().shard_count(), 1);
        assert_eq!(d.knowledge_base().shard("m4.10xlarge").unwrap().len(), 1);
    }

    /// `n` forced decisions over an uneven cycle of instance types, with the
    /// reports of their runs.
    fn decided_runs<B: Backend>(
        d: &DeployLoop<B>,
        n: usize,
        offset: usize,
    ) -> Vec<(JobProfile, DeployDecision, JobReport)> {
        let names = InstanceCatalog::paper_catalog().names();
        (offset..offset + n)
            .map(|i| {
                let contracts = 80 + (i * 37) % 200;
                let instance = &names[(i * 5 + i / 7) % names.len()];
                let n_nodes = 1 + i % 3;
                let report = d
                    .provider()
                    .run_job(instance, n_nodes, &workload(contracts))
                    .unwrap();
                let decision = DeployDecision {
                    mode: DeployMode::Manual,
                    instance: instance.clone(),
                    n_nodes,
                    predicted_secs: None,
                };
                (profile(contracts), decision, report)
            })
            .collect()
    }

    /// Lands `k` decided runs one by one and checks the loop after each
    /// record against a reference that only counts: the records that fire a
    /// retrain and the shards each refits, every shard's size and trained
    /// flag, catalog coverage and the bootstrap phase.
    fn landing_fires_retrains<B: Backend>(mut d: DeployLoop<B>, k: usize, label: &str) {
        let policy = *d.policy();
        let runs = decided_runs(&d, k, 100);
        let names = d.provider().catalog().names();
        let len0 = d.kb_len();
        let mut sizes: BTreeMap<Shard, usize> = BTreeMap::new();
        let mut trained: BTreeSet<Shard> = BTreeSet::new();
        for shard in names.iter().map(|n| d.backend.shard(n)) {
            sizes.insert(shard.clone(), d.backend.size(&shard));
            if d.backend.trained(&shard) {
                trained.insert(shard);
            }
        }
        let covered = |d: &DeployLoop<B>, trained: &BTreeSet<Shard>| {
            names.iter().all(|n| trained.contains(&d.backend.shard(n)))
        };
        assert!(
            !covered(&d, &trained),
            "{label}: covered before the first record"
        );
        let mut runs_since = d.runs_since_retrain;
        let mut fires = 0;
        for (j, (profile, decision, report)) in runs.iter().enumerate() {
            let at = format!("{label}, record {j}");
            let retrains = d.retrains();
            d.record(profile, decision, report).unwrap();

            // The reference gate: once `retrain_every` records have landed
            // since the last fire, the shard the record grows retrains if it
            // holds its floor.
            runs_since += 1;
            let shard = d.backend.shard(&decision.instance);
            let size = sizes
                .get_mut(&shard)
                .expect("every type's shard is counted");
            *size += 1;
            let fired =
                runs_since >= policy.retrain_every && *size >= d.backend.floor(&shard, &policy);
            if fired {
                trained.insert(shard);
                runs_since = 0;
            }
            fires += usize::from(fired);
            assert_eq!(d.runs_since_retrain, runs_since, "cadence at {at}");
            assert_eq!(
                d.retrains() - retrains,
                usize::from(fired),
                "retrains at {at}"
            );

            // Sizes, trained flags and coverage.
            assert_eq!(d.kb_len(), len0 + j + 1, "len at {at}");
            for (shard, size) in &sizes {
                assert_eq!(d.backend.size(shard), *size, "size of {shard:?} at {at}");
                assert_eq!(
                    d.backend.trained(shard),
                    trained.contains(shard),
                    "trained {shard:?} at {at}"
                );
            }
            assert_eq!(
                d.bootstrapping(),
                d.kb_len() < policy.min_kb_samples || !covered(&d, &trained),
                "bootstrap at {at}"
            );
        }
        if policy.retrain_every == 1 {
            assert!(
                covered(&d, &trained),
                "{label}: {k} records never covered the catalog"
            );
        }
        assert!(fires > 0, "{label}: no retrain fired in {k} records");
    }

    #[test]
    fn landing_fires_retrains_on_every_layout() {
        let provider = |seed| CloudProvider::new(InstanceCatalog::paper_catalog(), seed);
        for retrain_every in [1, 3] {
            let policy = DeployPolicy::builder(50_000.0)
                .max_nodes(4)
                .min_kb_samples(5)
                .retrain_every(retrain_every)
                .build();
            let k = 40;
            let label = |layout: &str| format!("{layout}, retrain_every {retrain_every}");

            let mono = TransparentDeployer::new(provider(3), policy, 3);
            landing_fires_retrains(mono, k, &label("monolithic"));
            let sharded = ShardedDeployer::new(provider(5), policy, 5);
            landing_fires_retrains(sharded, k, &label("per-instance"));
            // A deployer shared by two tenants: another tenant's records
            // first, so that the landing starts from a grown base.
            let mut pooled =
                ShardedDeployer::new(provider(7), policy, 7).with_tenant(TenantId::new("bolt-re"));
            for (profile, decision, report) in decided_runs(&pooled, 9, 0) {
                pooled.record(&profile, &decision, &report).unwrap();
            }
            pooled.set_tenant(TenantId::new("acme-life"));
            landing_fires_retrains(pooled, k, &label("pooled per-instance"));
        }
    }

    /// A catalog of one instance type, on every layout: the bootstrap and then
    /// Algorithm 1, each deploy an outcome or a typed error, never a panic.
    /// The base the members fit holds seven columns that never vary: the
    /// instance's three and four of the job's.
    #[test]
    fn a_one_type_catalog_runs_both_phases_on_every_layout() {
        use disar_cloudsim::InstanceType;
        use disar_ml::Scaler;

        fn run<D: Deployer>(d: &mut D, layout: &str) {
            let mut modes = Vec::new();
            for i in 0..24 {
                let c = 60 + (i * 37) % 300;
                let mut p = profile(c);
                p.characteristics.max_horizon = 10 + 5 * (i % 3) as u32;
                // A typed error is an answer; a panic fails the test.
                if let Ok(out) = d.deploy(&p, &workload(c)) {
                    modes.push(out.mode);
                }
            }
            assert_eq!(modes.first(), Some(&DeployMode::Bootstrap), "{layout}");
            assert!(modes.contains(&DeployMode::MlGreedy), "{layout}: {modes:?}");
        }
        let provider = |seed| {
            let mut catalog = InstanceCatalog::new();
            catalog.register(InstanceType::new("c4.4xlarge", 16, 30.0, 0.838, 1.18).unwrap());
            CloudProvider::new(catalog, seed)
        };
        let policy = DeployPolicy::builder(50_000.0)
            .max_nodes(4)
            .min_kb_samples(8)
            .build();

        let mut mono = TransparentDeployer::new(provider(3), policy, 3);
        run(&mut mono, "monolithic");
        let data = mono.knowledge_base().to_dataset().unwrap();
        let scaler = Scaler::fit(&data).unwrap();
        assert_eq!((0..data.dim()).filter(|&j| !scaler.varies(j)).count(), 7);
        assert!(mono.family().is_trained());
        let mut sharded = ShardedDeployer::new(provider(5), policy, 5);
        run(&mut sharded, "per-instance");
    }
}
