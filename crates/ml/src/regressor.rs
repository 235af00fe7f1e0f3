//! The [`Regressor`] trait and the paper's six-model family.

use crate::batch::{FeatureMatrix, PredictScratch};
use crate::{Dataset, DecisionTable, IbK, KStar, MlError, Mlp, RandomForest, RandomTree};
use std::fmt;

/// A supervised regression model with Weka-style fit-in-place semantics.
///
/// A model writes [`Regressor::fit`], one prediction kernel,
/// [`Regressor::predict_batch`], [`Regressor::name`] and
/// [`Regressor::clone_box`]; a single [`Regressor::predict`] is a batch of
/// one row. Implementations are object-safe so a heterogeneous family of
/// models can be stored as `Vec<Box<dyn Regressor>>` (the paper's set `X`).
pub trait Regressor: Send + Sync {
    /// Trains the model on `data`, replacing any previous fit.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::EmptyTrainingSet`] for empty data; other variants
    /// are implementation-specific (see each model's docs).
    fn fit(&mut self, data: &Dataset) -> Result<(), MlError>;

    /// Retrains on `data`, which grew by appending rows to
    /// `data.rows()[..from]`. The caller guarantees that if this model's
    /// last fit was on `from` rows, it was on exactly those.
    ///
    /// This is the one rule for how a member meets a grown base. The
    /// default extends the fit through [`Regressor::as_incremental`] when
    /// the model has that capability and its last fit covered exactly
    /// `from` rows ([`IbK`], [`KStar`], [`RandomTree`], [`RandomForest`]:
    /// the result is the cold fit's to the bit), and is a cold
    /// [`Regressor::fit`] otherwise.
    /// [`Mlp`] overrides it: when its last fit covered exactly `from` rows,
    /// and at least 30, it continues from that fit's weights for a short
    /// fixed budget of epochs instead of 500 from fresh ones (`mlp` module
    /// docs), so its model depends on the sequence of training sets and is
    /// not the one a cold fit would give.
    ///
    /// # Errors
    ///
    /// Same contract as [`Regressor::fit`].
    fn fit_appended(&mut self, data: &Dataset, from: usize) -> Result<(), MlError> {
        match self.as_incremental() {
            Some(inc) if inc.fitted_len() == from => inc.partial_fit(data, from),
            _ => self.fit(data),
        }
    }

    /// Predicts the targets for a whole batch of feature vectors, writing
    /// one prediction per row into `out`: the one prediction kernel a model
    /// writes. The built-in members carry `scratch`'s buffers across the
    /// rows, and a row's prediction does not depend on the batch around
    /// it: an n-row batch gives, slot for slot, the bits of the n one-row
    /// batches of its rows (`tests/batch_proptests.rs`). An empty batch
    /// succeeds without touching the model.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::BatchShapeMismatch`] when `out.len()` differs
    /// from `xs.len()`, [`MlError::NotFitted`] before the first successful
    /// `fit`, and [`MlError::FeatureDimensionMismatch`] for rows of the
    /// wrong width.
    fn predict_batch(
        &self,
        xs: &FeatureMatrix,
        out: &mut [f64],
        scratch: &mut PredictScratch,
    ) -> Result<(), MlError>;

    /// Predicts the target for one feature vector: a batch of one row.
    ///
    /// # Errors
    ///
    /// Same contract as [`Regressor::predict_batch`].
    fn predict(&self, x: &[f64]) -> Result<f64, MlError> {
        let mut xs = FeatureMatrix::with_capacity(1, x.len());
        xs.push_row(x);
        let mut out = [0.0];
        self.predict_batch(&xs, &mut out, &mut PredictScratch::new())?;
        Ok(out[0])
    }

    /// Short human-readable name (used in experiment tables, e.g. `"IBk"`).
    ///
    /// The `'static` bound keeps hot paths allocation-free: callers can
    /// pair predictions with names without cloning per call.
    fn name(&self) -> &'static str;

    /// Downcast hook to the model's incremental-learning capability.
    ///
    /// The models whose fit a grown base extends exactly ([`IbK`],
    /// [`KStar`], [`RandomTree`], [`RandomForest`]) override this to return
    /// `Some`; everything else keeps the `None` default. The default
    /// [`Regressor::fit_appended`] reads it, so a caller retraining on a
    /// grown base calls `fit_appended` and never needs it.
    fn as_incremental(&mut self) -> Option<&mut dyn IncrementalRegressor> {
        None
    }

    /// Clones the model behind the trait object, fitted state included.
    ///
    /// Powers `impl Clone for Box<dyn Regressor>`, through which a
    /// predictor family is cloned with its fitted members.
    fn clone_box(&self) -> Box<dyn Regressor>;
}

impl Clone for Box<dyn Regressor> {
    fn clone(&self) -> Self {
        self.as_ref().clone_box()
    }
}

/// Suffix training: extend a fitted model with new trailing rows without
/// refitting from scratch.
///
/// The shared preconditions are strict: `partial_fit(data, from)` requires
/// that `data` is the full training set, that `data.rows()[..from]` is
/// exactly the prefix the model was last fitted on, and that
/// `from == fitted_len()`. What the suffix step guarantees is exactness:
/// predictions after `partial_fit` are the same *to the bit* as after a
/// fresh [`Regressor::fit`] on all of `data`. [`IbK`] and [`KStar`] keep
/// append-only training state. A [`RandomTree`] regrows on all rows from
/// its old arena, copying every subtree the new rows do not reach.
/// [`RandomForest`] bags online, so a grown base only appends to each tree's
/// sample: it keeps every tree whose sample gained no row and regrows the
/// others the same way. The trees' arenas and importances equal a cold
/// fit's too.
/// A model that cannot promise exactness does not implement the trait, and
/// [`Regressor::fit_appended`] refits it (or, for the [`Mlp`], continues
/// it).
pub trait IncrementalRegressor: Regressor {
    /// Extends the fit with the rows `data.rows()[from..]`.
    ///
    /// An unfitted model with `from == 0` performs a full fit;
    /// `from == data.len()` is a no-op.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::IncrementalMismatch`] when `from` does not equal
    /// [`IncrementalRegressor::fitted_len`] or exceeds `data.len()`, and
    /// [`MlError::FeatureDimensionMismatch`] when the feature dimension
    /// changed since the last fit.
    fn partial_fit(&mut self, data: &Dataset, from: usize) -> Result<(), MlError>;

    /// Number of rows the current fit was trained on (0 before any fit).
    fn fitted_len(&self) -> usize;
}

/// Identifies one of the six model families used by the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Multi-Layer Perceptron.
    Mlp,
    /// Random Tree (single randomized regression tree).
    RandomTree,
    /// Random Forest.
    RandomForest,
    /// IBk — k-nearest neighbours.
    IbK,
    /// KStar — entropic instance-based learner.
    KStar,
    /// Decision Table with best-first feature selection.
    DecisionTable,
}

impl ModelKind {
    /// All six kinds, in the order the paper lists them
    /// (`X = {MLP, RT, RF, IBk, KStar, DT}`).
    pub const ALL: [ModelKind; 6] = [
        ModelKind::Mlp,
        ModelKind::RandomTree,
        ModelKind::RandomForest,
        ModelKind::IbK,
        ModelKind::KStar,
        ModelKind::DecisionTable,
    ];

    /// Instantiates the model, whose Weka-like hyper-parameters are
    /// constants of its module.
    ///
    /// `seed` feeds the stochastic learners (MLP weight init, tree/forest
    /// feature sampling); deterministic learners ignore it.
    pub fn instantiate(self, seed: u64) -> Box<dyn Regressor> {
        match self {
            ModelKind::Mlp => Box::new(Mlp::new(seed)),
            ModelKind::RandomTree => Box::new(RandomTree::new(seed)),
            ModelKind::RandomForest => Box::new(RandomForest::new(seed)),
            ModelKind::IbK => Box::new(IbK::new()),
            ModelKind::KStar => Box::new(KStar::new()),
            ModelKind::DecisionTable => Box::new(DecisionTable::new()),
        }
    }

    /// The abbreviation used in the paper's tables.
    pub fn abbreviation(self) -> &'static str {
        match self {
            ModelKind::Mlp => "MLP",
            ModelKind::RandomTree => "RT",
            ModelKind::RandomForest => "RF",
            ModelKind::IbK => "IBk",
            ModelKind::KStar => "KStar",
            ModelKind::DecisionTable => "DT",
        }
    }
}

impl fmt::Display for ModelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.abbreviation())
    }
}

/// Builds the full six-model family with default hyper-parameters — the set
/// `X` of Algorithm 1.
///
/// # Example
///
/// ```
/// let family = disar_ml::default_family(42);
/// assert_eq!(family.len(), 6);
/// ```
pub fn default_family(seed: u64) -> Vec<Box<dyn Regressor>> {
    ModelKind::ALL
        .iter()
        .enumerate()
        .map(|(i, k)| k.instantiate(seed.wrapping_add(i as u64 * 0x9E37)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_has_six_distinct_names() {
        let fam = default_family(1);
        let mut names: Vec<String> = fam.iter().map(|m| m.name().to_string()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 6);
    }

    #[test]
    fn display_matches_paper_abbreviations() {
        assert_eq!(ModelKind::KStar.to_string(), "KStar");
        assert_eq!(ModelKind::DecisionTable.to_string(), "DT");
        assert_eq!(ModelKind::IbK.to_string(), "IBk");
    }

    #[test]
    fn unfitted_models_refuse_to_predict() {
        for kind in ModelKind::ALL {
            let m = kind.instantiate(0);
            assert!(
                matches!(m.predict(&[1.0, 2.0]), Err(MlError::NotFitted)),
                "{kind} should report NotFitted"
            );
        }
    }

    /// Every member's predictions on its training rows and on 50 rows it has
    /// not seen, as the digests the members gave before any of them was
    /// rewritten for speed: a fit that reorders one sum or one draw fails
    /// here, on data where equal feature values are the rule. Three columns
    /// are of a later date. K\*'s scale search ends on a first-order
    /// correction where Newton's ended on an iterate, equal to 10⁻¹² and not
    /// to the bit (`kstar.rs` module header); its sweeps then went from two
    /// lanes to eight, a new order for every sum, which moved its last bits
    /// again. RT and RF draw each node's candidates from a stream keyed by
    /// its path, and RF bags online (`forest` module header), which moved
    /// their digests by definition.
    #[test]
    fn known_answer_digests_pin_all_six_members() {
        use crate::dataset::tests::{fnv1a, kb_shaped};

        #[rustfmt::skip]
        let expected: [(usize, [u64; 6]); 3] = [
            (30, [0xdbdd84614439b533, 0xa91e25d5a09f6a10, 0xca31c1a7fda668e5,
                  0x765fa631737fe62e, 0xc090591b71140989, 0x7c51c4663ab27a2f]),
            (100, [0x2d915519381b42a0, 0xfbd1bfd11bb2687d, 0x1a466ed0468c7aab,
                   0x8970e69da883919f, 0xaed7ca2e2a1fbc1f, 0x651366aad27fdaa7]),
            (500, [0x84a587e3627b5ba7, 0x640cd28eeae288f1, 0x1624c56aeb60542d,
                   0x8d03778c653b242f, 0x224d36cf2c2b3ba9, 0xbdff9f1055d9aa7c]),
        ];
        let held_out = kb_shaped(50, 0xFEED);
        for (n, digests) in expected {
            let data = kb_shaped(n, 20160627);
            let got: Vec<u64> = default_family(7)
                .iter_mut()
                .map(|m| {
                    m.fit(&data).unwrap();
                    let preds: Vec<f64> = data
                        .rows()
                        .iter()
                        .chain(held_out.rows())
                        .map(|x| m.predict(x).unwrap())
                        .collect();
                    fnv1a(&preds)
                })
                .collect();
            assert_eq!(
                got, digests,
                "{n} rows, members in ModelKind::ALL order: {got:#018x?}"
            );
        }
    }

    #[test]
    fn all_models_fit_and_predict_linear_data() {
        let mut data = Dataset::new(vec!["x".into()]);
        for i in 0..60 {
            data.push(vec![i as f64], 5.0 * i as f64 + 3.0).unwrap();
        }
        for kind in ModelKind::ALL {
            let mut m = kind.instantiate(7);
            m.fit(&data).unwrap();
            let y = m.predict(&[30.0]).unwrap();
            // Interpolation should be in the right ballpark for every family.
            assert!(
                (y - 153.0).abs() < 60.0,
                "{kind} predicted {y}, expected ≈153"
            );
        }
    }
}
