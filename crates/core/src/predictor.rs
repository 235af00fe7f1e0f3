//! The prediction-model family `P`.
//!
//! "We define a family of prediction models P which is composed of all the
//! prediction models p_x : M × N × F → R⁺, where
//! x ∈ {MLP, RT, RF, IBk, KStar, DT} … The co-domain of each p_x is the
//! expected execution time on the given deploy configuration" (§III).
//!
//! The family is retrained from the knowledge base after every executed
//! simulation ("we therefore re-train the ML-based models after each
//! execution"), and queried both per-model (Table I) and ensemble-averaged
//! (Algorithm 1).

use crate::knowledge::{KnowledgeBase, RunRecord, ShardedKnowledgeBase};
use crate::profile::JobProfile;
use crate::CoreError;
use disar_cloudsim::InstanceType;
use disar_ml::{default_family, Dataset, FeatureMatrix, PredictScratch, Regressor};
use std::collections::BTreeMap;

/// How a retrain treats the family's previously trained state — the single
/// knob behind [`PredictorFamily::retrain`], replacing the accreted
/// `retrain_full*`/`retrain_warm*` method family.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum RetrainMode {
    /// The default: when the knowledge base grew by appending to the
    /// trained prefix (verified by the boundary fingerprint), every member
    /// retrains through [`Regressor::fit_appended`]. IBk, K\* and the random
    /// forest extend their fit exactly, bit-identical to a from-scratch fit
    /// (the forest regrows only the trees whose online bag gained a row);
    /// the MLP, once its previous fit covered 30 rows, continues from its
    /// previous weights for a short fixed budget of epochs
    /// (`disar_ml::mlp` module docs), which does not equal a cold fit. The
    /// random tree and the decision table refit from scratch, and so does
    /// every member when the base did not grow by appending. The family is
    /// thus a pure function of the sequence of bases it was retrained on;
    /// its five members other than the MLP depend on the last base alone.
    #[default]
    Incremental,
    /// Force every member to refit from scratch, ignoring any reusable
    /// state — the from-scratch reference the incremental path is measured
    /// against.
    Full,
    /// Refit every member from scratch on the last `window` records alone
    /// — the drift-recovery mode: after a regime change the stale prefix
    /// drops out of the fit instead of dominating it. `window: usize::MAX`
    /// keeps everything, making the retrain bit-identical to
    /// [`RetrainMode::Full`]; the retrain after a genuine windowed fit
    /// falls back to a full refit automatically (the members' fitted
    /// length no longer matches the trained prefix).
    Windowed {
        /// Number of most-recent records in the training set.
        window: usize,
    },
}

impl RetrainMode {
    /// The one definition of a valid mode, read by
    /// [`PredictorFamily::retrain`] and by a deploy policy's validation: a
    /// window must be non-empty.
    pub(crate) fn validate(self) -> Result<(), CoreError> {
        if matches!(self, RetrainMode::Windowed { window: 0 }) {
            return Err(CoreError::InvalidParameter(
                "windowed retrain needs a non-empty window",
            ));
        }
        Ok(())
    }
}

/// Reusable buffers for [`TimePredictor::predict_grid`]: the feature
/// matrix covering one instance's node run and the per-member prediction
/// scratch. Grows on first use and is retained across selections, so a
/// warm scratch allocates nothing in steady state.
#[derive(Debug, Clone, Default)]
pub struct GridScratch {
    /// One feature row per queried node count.
    pub features: FeatureMatrix,
    /// The member kernels' reusable buffers.
    pub predict: PredictScratch,
}

impl GridScratch {
    /// An empty scratch; buffers are sized lazily on first use.
    pub fn new() -> Self {
        GridScratch::default()
    }
}

/// Anything Algorithm 1 can query for predicted execution times — the
/// monolithic [`PredictorFamily`] or the per-instance-type
/// [`ShardedPredictor`].
pub trait TimePredictor {
    /// Per-model predicted times `p_x(m, n, f)`, paired with model names.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Ml`] if no trained model covers the query.
    fn predict_each(
        &self,
        profile: &JobProfile,
        instance: &InstanceType,
        n_nodes: usize,
    ) -> Result<Vec<(&'static str, f64)>, CoreError>;

    /// Every member's predicted time over one instance type and a run of
    /// node counts — the batched kernel behind the Algorithm 1 grid sweep.
    ///
    /// Fills `out` member-major (`out[m * nodes.len() + i]` is member `m`'s
    /// prediction for `nodes[i]`) and returns the member count (an empty
    /// `nodes` run clears `out` and returns 0). Each value
    /// is bit-identical to the corresponding [`TimePredictor::predict_each`]
    /// entry; the default implementation literally loops `predict_each`,
    /// while [`PredictorFamily`] overrides it with one
    /// `Regressor::predict_batch` pass per member over a feature matrix
    /// built once.
    ///
    /// # Errors
    ///
    /// Same contract as [`TimePredictor::predict_each`].
    fn predict_grid(
        &self,
        profile: &JobProfile,
        instance: &InstanceType,
        nodes: &[usize],
        out: &mut Vec<f64>,
        scratch: &mut GridScratch,
    ) -> Result<usize, CoreError> {
        let _ = scratch;
        out.clear();
        let mut members = 0;
        for (i, &n) in nodes.iter().enumerate() {
            let each = self.predict_each(profile, instance, n)?;
            if i == 0 {
                members = each.len();
                out.resize(members * nodes.len(), 0.0);
            }
            debug_assert_eq!(each.len(), members, "member count must be stable");
            for (m, (_, t)) in each.iter().enumerate() {
                out[m * nodes.len() + i] = *t;
            }
        }
        Ok(members)
    }
}

/// The six retrainable execution-time predictors.
///
/// `Clone` copies the full fitted state (via `Regressor::clone_box`).
#[derive(Clone)]
pub struct PredictorFamily {
    models: Vec<Box<dyn Regressor>>,
    trained_on: usize,
    /// Fingerprint of the featurized prefix the family was trained on —
    /// gates the incremental retrain path.
    trained_fingerprint: u64,
    min_samples: usize,
}

impl PredictorFamily {
    /// Creates an untrained family with Weka-like defaults.
    ///
    /// `min_samples` is the knowledge-base size below which training is
    /// refused (predictions would be meaningless); the paper bootstraps
    /// this phase with manual configurations.
    pub fn new(seed: u64, min_samples: usize) -> Self {
        PredictorFamily {
            models: default_family(seed),
            trained_on: 0,
            trained_fingerprint: 0,
            min_samples: min_samples.max(2),
        }
    }

    /// FNV-1a over the prefix length and the bit patterns of the boundary
    /// rows (first and last) with their targets. A cheap O(dim) check that
    /// the knowledge base grew by *appending* to the exact prefix the family
    /// was trained on: any truncation, reordering or boundary edit changes
    /// the hash and forces the full-refit path. Callers still own the
    /// append-only discipline — the guard catches accidents, it is not
    /// cryptographic.
    fn fingerprint(data: &Dataset, len: usize) -> u64 {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = (0xcbf2_9ce4_8422_2325_u64 ^ len as u64).wrapping_mul(PRIME);
        if len > 0 {
            for i in [0, len - 1] {
                for v in &data.rows()[i] {
                    h = (h ^ v.to_bits()).wrapping_mul(PRIME);
                }
                h = (h ^ data.targets()[i].to_bits()).wrapping_mul(PRIME);
            }
        }
        h
    }

    /// Number of models (always 6 for the paper's family).
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// `true` if the family has no members (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// Number of samples the family was last trained on (0 = untrained).
    pub fn trained_on(&self) -> usize {
        self.trained_on
    }

    /// `true` once the family has been trained at least once.
    pub fn is_trained(&self) -> bool {
        self.trained_on > 0
    }

    /// Retrains every model on the current knowledge base.
    ///
    /// `mode` selects the training set and whether previously trained
    /// state is reused (see [`RetrainMode`]); [`RetrainMode::Incremental`]
    /// is the default. Every mode runs the same guards and the same member
    /// loop: under `Incremental`, a base that grew by appending to the
    /// prefix of the last retrain (the boundary fingerprint) reaches each
    /// member through [`Regressor::fit_appended`]; otherwise each member
    /// refits from scratch, on the window under `Windowed`.
    ///
    /// The members fit one after another on the calling thread, each
    /// against the featurized knowledge base the base builds once and
    /// caches. Every member is fitted even when an earlier one fails, and
    /// the first failure in member order is returned. `n_threads` is
    /// ignored; the argument stays until the benchmark's frozen adapter
    /// stops passing it.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for an invalid windowed
    /// mode, [`CoreError::InsufficientKnowledge`] below `min_samples`, and
    /// propagates model-training failures.
    pub fn retrain(
        &mut self,
        kb: &KnowledgeBase,
        mode: RetrainMode,
        _n_threads: usize,
    ) -> Result<(), CoreError> {
        mode.validate()?;
        if kb.len() < self.min_samples {
            return Err(CoreError::InsufficientKnowledge {
                have: kb.len(),
                need: self.min_samples,
            });
        }
        let data_ref = kb.dataset()?;
        let data: &Dataset = &data_ref;
        let from = self.trained_on;
        let appended = mode == RetrainMode::Incremental
            && from > 0
            && from <= data.len()
            && Self::fingerprint(data, from) == self.trained_fingerprint;
        let windowed;
        let train = match mode {
            RetrainMode::Windowed { window } => {
                let start = data.len().saturating_sub(window);
                windowed = data.filter(|i| i >= start);
                &windowed
            }
            _ => data,
        };
        let mut fitted = Ok(());
        for m in &mut self.models {
            let fit = if appended {
                m.fit_appended(data, from)
            } else {
                m.fit(train)
            };
            fitted = fitted.and(fit);
        }
        fitted?;
        self.trained_on = data.len();
        self.trained_fingerprint = Self::fingerprint(data, data.len());
        Ok(())
    }
}

impl TimePredictor for PredictorFamily {
    /// Each member's one-row `Regressor::predict`. Names are the members'
    /// `&'static str` names, so the per-cell cost is one `Vec`; Table I
    /// callers that want owned names convert at the reporting edge.
    fn predict_each(
        &self,
        profile: &JobProfile,
        instance: &InstanceType,
        n_nodes: usize,
    ) -> Result<Vec<(&'static str, f64)>, CoreError> {
        let x = RunRecord::features_for(profile, instance, n_nodes);
        self.models
            .iter()
            .map(|m| Ok((m.name(), m.predict(&x)?)))
            .collect()
    }

    /// Builds the feature matrix once (one row per node count, assembled in
    /// place) and runs each member's `predict_batch` over it, so the whole
    /// run costs one member pass instead of `nodes.len()` one-row passes.
    fn predict_grid(
        &self,
        profile: &JobProfile,
        instance: &InstanceType,
        nodes: &[usize],
        out: &mut Vec<f64>,
        scratch: &mut GridScratch,
    ) -> Result<usize, CoreError> {
        let n = nodes.len();
        if n == 0 {
            out.clear();
            return Ok(0);
        }
        scratch.features.clear();
        for &n_nodes in nodes {
            scratch
                .features
                .push_row_with(|buf| RunRecord::features_into(profile, instance, n_nodes, buf));
        }
        out.clear();
        out.resize(self.models.len() * n, 0.0);
        for (m, model) in self.models.iter().enumerate() {
            model.predict_batch(
                &scratch.features,
                &mut out[m * n..(m + 1) * n],
                &mut scratch.predict,
            )?;
        }
        Ok(self.models.len())
    }
}

/// One [`PredictorFamily`] per instance-type shard of a
/// [`ShardedKnowledgeBase`].
///
/// Queries route to the family owning the queried instance type and a
/// `record()` on the base only ever dirties one shard, so the
/// after-every-run retrain touches that shard's records instead of the
/// whole base. Every family is created from the same `(seed, min_samples)`
/// pair, so a shard's family is bit-identical to a monolithic
/// [`PredictorFamily`] trained on [`KnowledgeBase::for_instance`] of the
/// equivalent monolithic base through the same prefix sequence (the MLP's
/// incremental retrain continues from its last fit, so the sequence counts,
/// not the last base alone).
pub struct ShardedPredictor {
    families: BTreeMap<String, PredictorFamily>,
    seed: u64,
    min_samples: usize,
}

impl ShardedPredictor {
    /// Creates an empty sharded predictor; families materialize lazily on
    /// the first retrain of their shard, all seeded identically.
    pub fn new(seed: u64, min_samples: usize) -> Self {
        ShardedPredictor {
            families: BTreeMap::new(),
            seed,
            min_samples: min_samples.max(2),
        }
    }

    /// `true` once the named instance type has a trained family.
    pub fn is_trained_for(&self, instance: &str) -> bool {
        self.families
            .get(instance)
            .is_some_and(PredictorFamily::is_trained)
    }

    /// Number of shards with a trained family.
    pub fn trained_shards(&self) -> usize {
        self.families.values().filter(|f| f.is_trained()).count()
    }

    /// The family serving the named instance type, if it exists.
    pub fn family(&self, instance: &str) -> Option<&PredictorFamily> {
        self.families.get(instance)
    }

    /// Retrains the family owning `instance` on that shard's records,
    /// creating the family on first use. `mode` behaves as in
    /// [`PredictorFamily::retrain`].
    ///
    /// # Errors
    ///
    /// Same contract as [`PredictorFamily::retrain`].
    pub fn retrain_shard(
        &mut self,
        instance: &str,
        shard: &KnowledgeBase,
        mode: RetrainMode,
    ) -> Result<(), CoreError> {
        let seed = self.seed;
        let min_samples = self.min_samples;
        self.families
            .entry(instance.to_string())
            .or_insert_with(|| PredictorFamily::new(seed, min_samples))
            .retrain(shard, mode, 1)
    }

    /// Retrains every shard holding at least `min_samples` records —
    /// the bulk warm-up after a load or bootstrap; smaller shards are
    /// skipped, not errors.
    ///
    /// # Errors
    ///
    /// Propagates the first shard-retrain failure.
    pub fn retrain_all(
        &mut self,
        kb: &ShardedKnowledgeBase,
        mode: RetrainMode,
    ) -> Result<(), CoreError> {
        for (name, shard) in kb.shards() {
            if shard.len() >= self.min_samples {
                self.retrain_shard(name, shard, mode)?;
            }
        }
        Ok(())
    }
}

/// Answers a query from the family of the queried instance type; a type
/// with no trained family is [`disar_ml::MlError::NotFitted`].
impl TimePredictor for ShardedPredictor {
    fn predict_each(
        &self,
        profile: &JobProfile,
        instance: &InstanceType,
        n_nodes: usize,
    ) -> Result<Vec<(&'static str, f64)>, CoreError> {
        match self.families.get(&instance.name) {
            Some(f) if f.is_trained() => f.predict_each(profile, instance, n_nodes),
            _ => Err(disar_ml::MlError::NotFitted.into()),
        }
    }

    fn predict_grid(
        &self,
        profile: &JobProfile,
        instance: &InstanceType,
        nodes: &[usize],
        out: &mut Vec<f64>,
        scratch: &mut GridScratch,
    ) -> Result<usize, CoreError> {
        match self.families.get(&instance.name) {
            Some(f) if f.is_trained() => f.predict_grid(profile, instance, nodes, out, scratch),
            _ => Err(disar_ml::MlError::NotFitted.into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disar_cloudsim::InstanceCatalog;
    use disar_engine::EebCharacteristics;

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

    fn filled_kb(n: usize) -> KnowledgeBase {
        // Synthetic ground truth: time ~ contracts / (vcpus · nodes).
        let cat = InstanceCatalog::paper_catalog();
        let names = cat.names();
        let mut kb = KnowledgeBase::new();
        for i in 0..n {
            let inst = cat.get(&names[i % names.len()]).unwrap();
            let nodes = i % 4 + 1;
            let contracts = 50 + (i * 37) % 400;
            let time = 5000.0 * contracts as f64
                / (inst.compute_power() * nodes as f64)
                / 100.0;
            kb.record(RunRecord::new(profile(contracts), inst, nodes, time, 0.01));
        }
        kb
    }

    #[test]
    fn retrain_requires_min_samples() {
        let mut fam = PredictorFamily::new(1, 10);
        let kb = filled_kb(5);
        assert!(matches!(
            fam.retrain(&kb, RetrainMode::Incremental, 1),
            Err(CoreError::InsufficientKnowledge { have: 5, need: 10 })
        ));
        assert!(!fam.is_trained());
    }

    #[test]
    fn untrained_family_refuses_predictions() {
        let fam = PredictorFamily::new(1, 2);
        let cat = InstanceCatalog::paper_catalog();
        let inst = cat.get("c3.4xlarge").unwrap();
        assert!(fam.predict_each(&profile(100), inst, 2).is_err());
    }

    #[test]
    fn family_learns_monotonicity_in_nodes() {
        let mut fam = PredictorFamily::new(7, 2);
        fam.retrain(&filled_kb(300), RetrainMode::Incremental, 1).unwrap();
        let cat = InstanceCatalog::paper_catalog();
        let inst = cat.get("c3.4xlarge").unwrap();
        let t1 = mean_time(&fam, inst, 1);
        let t4 = mean_time(&fam, inst, 4);
        assert!(t4 < t1, "more nodes should predict faster: {t1} vs {t4}");
    }

    #[test]
    fn predict_each_names_all_six() {
        let mut fam = PredictorFamily::new(3, 2);
        fam.retrain(&filled_kb(100), RetrainMode::Incremental, 1).unwrap();
        let cat = InstanceCatalog::paper_catalog();
        let inst = cat.get("m4.4xlarge").unwrap();
        let each = fam.predict_each(&profile(100), inst, 2).unwrap();
        assert_eq!(each.len(), 6);
        let names: Vec<&str> = each.iter().map(|(n, _)| *n).collect();
        for expect in ["MLP", "RT", "RF", "IBk", "KStar", "DT"] {
            assert!(names.contains(&expect), "{expect} missing");
        }
    }

    /// The members' mean for a 200-contract job, floored at zero.
    fn mean_time(fam: &PredictorFamily, inst: &InstanceType, n_nodes: usize) -> f64 {
        let each = fam.predict_each(&profile(200), inst, n_nodes).unwrap();
        (each.iter().map(|(_, t)| t).sum::<f64>() / each.len() as f64).max(0.0)
    }

    /// Algorithm 1's `time` of every cell it keeps is the members' mean.
    #[test]
    fn mean_is_average_of_each() {
        let mut fam = PredictorFamily::new(3, 2);
        fam.retrain(&filled_kb(100), RetrainMode::Incremental, 1).unwrap();
        let cat = InstanceCatalog::paper_catalog();
        let sel =
            crate::algorithm::select_configuration(&fam, &cat, &profile(200), 1e12, 4, 0.0, 1)
                .unwrap();
        assert!(!sel.feasible.is_empty());
        for c in &sel.feasible {
            let want = mean_time(&fam, cat.get(&c.instance).unwrap(), c.n_nodes);
            assert_eq!(c.predicted_secs.to_bits(), want.to_bits(), "{c:?}");
        }
    }

    #[test]
    fn retraining_updates_trained_on() {
        let mut fam = PredictorFamily::new(3, 2);
        fam.retrain(&filled_kb(50), RetrainMode::Incremental, 1).unwrap();
        assert_eq!(fam.trained_on(), 50);
        fam.retrain(&filled_kb(80), RetrainMode::Incremental, 1).unwrap();
        assert_eq!(fam.trained_on(), 80);
    }

    /// Predictions of two families must agree bitwise across the catalog.
    fn assert_families_identical(a: &PredictorFamily, b: &PredictorFamily, what: &str) {
        let cat = InstanceCatalog::paper_catalog();
        for name in cat.names() {
            let inst = cat.get(&name).unwrap();
            for n in [1usize, 3] {
                let pa = a.predict_each(&profile(180), inst, n).unwrap();
                let pb = b.predict_each(&profile(180), inst, n).unwrap();
                for ((ma, va), (mb, vb)) in pa.iter().zip(&pb) {
                    assert_eq!(ma, mb);
                    assert_eq!(
                        va.to_bits(),
                        vb.to_bits(),
                        "{what}: {ma} diverges on {name} n={n}"
                    );
                }
            }
        }
    }

    /// The family's MLP replaced by a cold fit on `fits[0]` continued over
    /// each later base in turn, as the incremental retrain of a family of
    /// `seed` does it.
    fn with_continued_mlp(
        mut fam: PredictorFamily,
        seed: u64,
        fits: &[KnowledgeBase],
    ) -> PredictorFamily {
        let mut mlp = default_family(seed).remove(0);
        assert_eq!(mlp.name(), "MLP");
        let mut from = 0;
        for kb in fits {
            // Unfitted, the MLP fits cold.
            let data = kb.to_dataset().unwrap();
            mlp.fit_appended(&data, from).unwrap();
            from = data.len();
        }
        fam.models[0] = mlp;
        fam
    }

    #[test]
    fn incremental_retrain_matches_full_refit() {
        // filled_kb(80) extends filled_kb(50) by appending — the second
        // retrain may feed the instance-based models only the 30 new rows,
        // yet they and the members that refit must land bit-identical to a
        // from-scratch fit on all 80. The MLP continues from its fit on the
        // 50, so it must equal a cold fit on the 50 continued over the 80.
        let mut inc = PredictorFamily::new(3, 2);
        inc.retrain(&filled_kb(50), RetrainMode::Incremental, 1).unwrap();
        inc.retrain(&filled_kb(80), RetrainMode::Incremental, 1).unwrap();
        assert_eq!(inc.trained_on(), 80);
        let mut full = PredictorFamily::new(3, 2);
        full.retrain(&filled_kb(80), RetrainMode::Full, 1).unwrap();
        let full = with_continued_mlp(full, 3, &[filled_kb(50), filled_kb(80)]);
        assert_families_identical(&inc, &full, "incremental vs full");
    }

    #[test]
    fn full_prefix_fit_then_incremental_retrain_continues_the_mlp() {
        // The retrain the benchmark's incremental probe times: a Full fit
        // on all but the last record, then an Incremental retrain on all.
        let (head, all) = (filled_kb(79), filled_kb(80));
        let mut fam = PredictorFamily::new(6, 2);
        fam.retrain(&head, RetrainMode::Full, 1).unwrap();
        fam.retrain(&all, RetrainMode::Incremental, 1).unwrap();
        let mut full = PredictorFamily::new(6, 2);
        full.retrain(&all, RetrainMode::Full, 1).unwrap();
        let cat = InstanceCatalog::paper_catalog();
        let inst = cat.get("c3.4xlarge").unwrap();
        let cold = full.predict_each(&profile(180), inst, 2).unwrap()[0].1;
        let warm = fam.predict_each(&profile(180), inst, 2).unwrap()[0].1;
        assert_ne!(cold.to_bits(), warm.to_bits(), "the MLP was refitted cold");
        let continued = with_continued_mlp(full, 6, &[head, all]);
        assert_families_identical(&fam, &continued, "full prefix, then incremental");
    }

    #[test]
    fn continued_family_is_the_same_after_clone() {
        let (kb50, kb80, kb95) = (filled_kb(50), filled_kb(80), filled_kb(95));
        let mut one = PredictorFamily::new(12, 2);
        for kb in [&kb50, &kb80, &kb95] {
            one.retrain(kb, RetrainMode::Incremental, 1).unwrap();
        }
        let mut cloned = PredictorFamily::new(12, 2);
        cloned.retrain(&kb50, RetrainMode::Incremental, 1).unwrap();
        let mut cloned = cloned.clone();
        for kb in [&kb80, &kb95] {
            cloned.retrain(kb, RetrainMode::Incremental, 1).unwrap();
        }
        assert_families_identical(&one, &cloned, "continued from a clone");
    }

    #[test]
    fn unbounded_window_matches_full_refit_bitwise() {
        let kb = filled_kb(120);
        let mut win = PredictorFamily::new(3, 2);
        win.retrain(&kb, RetrainMode::Windowed { window: usize::MAX }, 1)
            .unwrap();
        let mut full = PredictorFamily::new(3, 2);
        full.retrain(&kb, RetrainMode::Full, 1).unwrap();
        assert_eq!(win.trained_on(), full.trained_on());
        assert_families_identical(&win, &full, "windowed(∞) vs full");
    }

    #[test]
    fn windowed_retrain_trains_on_the_window() {
        // A genuine window must match a from-scratch fit on just the
        // suffix.
        let kb = filled_kb(150);
        let mut win = PredictorFamily::new(3, 2);
        win.retrain(&kb, RetrainMode::Windowed { window: 40 }, 1)
            .unwrap();
        assert_eq!(win.trained_on(), 150);
        let mut suffix_kb = KnowledgeBase::new();
        for r in &kb.records()[110..] {
            suffix_kb.record(r.clone());
        }
        let mut suffix = PredictorFamily::new(3, 2);
        suffix.retrain(&suffix_kb, RetrainMode::Full, 1).unwrap();
        let cat = InstanceCatalog::paper_catalog();
        let inst = cat.get("c3.4xlarge").unwrap();
        let pw = win.predict_each(&profile(180), inst, 2).unwrap();
        let ps = suffix.predict_each(&profile(180), inst, 2).unwrap();
        assert_eq!(pw, ps, "window fit must see only the suffix");
    }

    #[test]
    fn incremental_after_windowed_falls_back_to_full_refit() {
        // After a genuine windowed fit the members cover fewer rows than
        // `trained_on`; the next incremental retrain must not splice new
        // rows onto that state but refit from scratch.
        let mut fam = PredictorFamily::new(8, 2);
        fam.retrain(&filled_kb(100), RetrainMode::Windowed { window: 30 }, 1)
            .unwrap();
        // The members that extend a fit exactly, the forest among them, each
        // cover the window's rows, not the 100 the family was retrained on.
        let mut exact = Vec::new();
        for m in &mut fam.models {
            let name = m.name();
            if let Some(inc) = m.as_incremental() {
                let rows = inc.fitted_len();
                assert!(rows < 100, "{name} covers {rows} rows");
                exact.push(name);
            }
        }
        assert_eq!(exact, ["RF", "IBk", "KStar"]);
        fam.retrain(&filled_kb(130), RetrainMode::Incremental, 1).unwrap();
        let mut fresh = PredictorFamily::new(8, 2);
        fresh.retrain(&filled_kb(130), RetrainMode::Full, 1).unwrap();
        assert_families_identical(&fam, &fresh, "incremental after windowed");
    }

    #[test]
    fn windowed_retrain_validates_parameters() {
        let mut fam = PredictorFamily::new(3, 2);
        let kb = filled_kb(50);
        assert!(matches!(
            fam.retrain(&kb, RetrainMode::Windowed { window: 0 }, 1),
            Err(CoreError::InvalidParameter(_))
        ));
        assert!(!fam.is_trained());
    }

    #[test]
    fn non_prefix_kb_falls_back_to_full_refit() {
        // Same length, different order: the boundary fingerprint must
        // reject the incremental path, leaving the family equal to a fresh
        // fit on the new base (not a stale no-op on the old one).
        let kb = filled_kb(60);
        let mut rev = KnowledgeBase::new();
        for r in kb.records().iter().rev() {
            rev.record(r.clone());
        }
        let mut fam = PredictorFamily::new(9, 2);
        fam.retrain(&kb, RetrainMode::Incremental, 1).unwrap();
        fam.retrain(&rev, RetrainMode::Incremental, 1).unwrap();
        let mut fresh = PredictorFamily::new(9, 2);
        fresh.retrain(&rev, RetrainMode::Incremental, 1).unwrap();
        assert_families_identical(&fam, &fresh, "fingerprint fallback");
    }

    #[test]
    fn shrunk_kb_falls_back_to_full_refit() {
        let mut fam = PredictorFamily::new(4, 2);
        fam.retrain(&filled_kb(50), RetrainMode::Incremental, 1).unwrap();
        fam.retrain(&filled_kb(20), RetrainMode::Incremental, 1).unwrap();
        assert_eq!(fam.trained_on(), 20);
        let mut fresh = PredictorFamily::new(4, 2);
        fresh.retrain(&filled_kb(20), RetrainMode::Incremental, 1).unwrap();
        assert_families_identical(&fam, &fresh, "shrunk base");
    }

    #[test]
    fn sharded_predictor_matches_per_instance_training() {
        let kb = filled_kb(120);
        let skb = crate::knowledge::ShardedKnowledgeBase::from_monolithic(&kb);
        let mut sharded = ShardedPredictor::new(5, 2);
        sharded.retrain_all(&skb, RetrainMode::Incremental).unwrap();
        let cat = InstanceCatalog::paper_catalog();
        assert_eq!(sharded.trained_shards(), cat.names().len());
        for name in cat.names() {
            let inst = cat.get(&name).unwrap();
            assert!(sharded.is_trained_for(&name));
            let mut mono = PredictorFamily::new(5, 2);
            mono.retrain(&kb.for_instance(&name), RetrainMode::Incremental, 1).unwrap();
            for n in [1usize, 4] {
                let a = TimePredictor::predict_each(&sharded, &profile(123), inst, n).unwrap();
                let b = mono.predict_each(&profile(123), inst, n).unwrap();
                assert_eq!(a, b, "shard {name} diverges from per-instance family");
            }
        }
    }

    #[test]
    fn predict_grid_matches_predict_each_bitwise() {
        let mut fam = PredictorFamily::new(3, 2);
        fam.retrain(&filled_kb(120), RetrainMode::Incremental, 1).unwrap();
        let cat = InstanceCatalog::paper_catalog();
        let nodes: Vec<usize> = (1..=6).collect();
        let mut out = Vec::new();
        let mut scratch = GridScratch::new();
        for name in cat.names() {
            let inst = cat.get(&name).unwrap();
            let members = fam
                .predict_grid(&profile(150), inst, &nodes, &mut out, &mut scratch)
                .unwrap();
            assert_eq!(members, 6);
            assert_eq!(out.len(), members * nodes.len());
            for (i, &n) in nodes.iter().enumerate() {
                let each = fam.predict_each(&profile(150), inst, n).unwrap();
                for (m, (_, t)) in each.iter().enumerate() {
                    assert_eq!(
                        out[m * nodes.len() + i].to_bits(),
                        t.to_bits(),
                        "{name} n={n} member {m}"
                    );
                }
            }
        }
    }

    /// A predictor that only implements `predict_each` — exercises the
    /// trait's default looping `predict_grid`.
    struct EachOnly(PredictorFamily);
    impl TimePredictor for EachOnly {
        fn predict_each(
            &self,
            profile: &JobProfile,
            instance: &InstanceType,
            n_nodes: usize,
        ) -> Result<Vec<(&'static str, f64)>, CoreError> {
            self.0.predict_each(profile, instance, n_nodes)
        }
    }

    #[test]
    fn default_predict_grid_matches_family_override() {
        let mut fam = PredictorFamily::new(3, 2);
        fam.retrain(&filled_kb(120), RetrainMode::Incremental, 1).unwrap();
        let cat = InstanceCatalog::paper_catalog();
        let inst = cat.get("c3.4xlarge").unwrap();
        let nodes: Vec<usize> = (1..=5).collect();
        let wrapped = EachOnly(fam.clone());
        let (mut a, mut b) = (Vec::new(), Vec::new());
        let mut scratch = GridScratch::new();
        let ma = fam
            .predict_grid(&profile(150), inst, &nodes, &mut a, &mut scratch)
            .unwrap();
        let mb = wrapped
            .predict_grid(&profile(150), inst, &nodes, &mut b, &mut scratch)
            .unwrap();
        assert_eq!(ma, mb);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        // Empty node runs are a no-op for both paths.
        for p in [&fam as &dyn TimePredictor, &wrapped] {
            assert_eq!(
                p.predict_grid(&profile(150), inst, &[], &mut a, &mut scratch)
                    .unwrap(),
                0
            );
            assert!(a.is_empty());
        }
    }

    #[test]
    fn sharded_predictor_refuses_unknown_instance() {
        let sharded = ShardedPredictor::new(5, 2);
        let cat = InstanceCatalog::paper_catalog();
        let inst = cat.get("c3.4xlarge").unwrap();
        assert!(!sharded.is_trained_for("c3.4xlarge"));
        assert!(matches!(
            TimePredictor::predict_each(&sharded, &profile(100), inst, 2),
            Err(CoreError::Ml(disar_ml::MlError::NotFitted))
        ));
    }
}
