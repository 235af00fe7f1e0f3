//! Random Forest regressor (Breiman 2001).
//!
//! Bagged ensemble of [`RandomTree`]s: each tree is trained on a bootstrap
//! resample of the data and the forest predicts the mean of the trees.
//! Weka defaults: 100 trees, `⌊log₂ d⌋ + 1` features per split.
//!
//! A resample is a list of row numbers ([`Dataset::bootstrap_indices`]), not
//! a copied dataset, and one list is refilled for every tree: every tree
//! grows on the same [`TreeFit`] view of the data and borrows its buffers,
//! so a tree's own allocations are its arena and its importances.

use crate::batch::{check_out_len, FeatureMatrix, PredictScratch};
use crate::dataset::Dataset;
use crate::regressor::Regressor;
use crate::tree::{RandomTree, TreeFit};
use crate::MlError;
use disar_math::rng::split_seed;

/// A bagged forest of randomized regression trees.
///
/// # Example
///
/// ```
/// use disar_ml::{Dataset, RandomForest, Regressor};
///
/// let mut data = Dataset::new(vec!["x".into()]);
/// for i in 0..60 {
///     data.push(vec![i as f64], i as f64 * i as f64).unwrap();
/// }
/// let mut rf = RandomForest::with_defaults(7);
/// rf.fit(&data).unwrap();
/// let y = rf.predict(&[30.0]).unwrap();
/// assert!((y - 900.0).abs() < 150.0);
/// ```
#[derive(Debug, Clone)]
pub struct RandomForest {
    n_trees: usize,
    min_leaf: usize,
    max_depth: usize,
    seed: u64,
    trees: Vec<RandomTree>,
}

impl RandomForest {
    /// Weka defaults: 100 trees, unbounded depth, leaves of size ≥ 1.
    pub fn with_defaults(seed: u64) -> Self {
        RandomForest {
            n_trees: 100,
            min_leaf: 1,
            max_depth: 64,
            seed,
            trees: Vec::new(),
        }
    }

    /// Fully parameterized constructor.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidHyperparameter`] if any size parameter is
    /// zero.
    pub fn new(
        n_trees: usize,
        min_leaf: usize,
        max_depth: usize,
        seed: u64,
    ) -> Result<Self, MlError> {
        if n_trees == 0 {
            return Err(MlError::InvalidHyperparameter("n_trees must be > 0"));
        }
        if min_leaf == 0 || max_depth == 0 {
            return Err(MlError::InvalidHyperparameter(
                "min_leaf and max_depth must be > 0",
            ));
        }
        Ok(RandomForest {
            n_trees,
            min_leaf,
            max_depth,
            seed,
            trees: Vec::new(),
        })
    }

    /// Number of trees in the (fitted or configured) forest.
    pub fn n_trees(&self) -> usize {
        self.n_trees
    }

    /// Mean variance-reduction feature importances across the fitted
    /// trees, normalized to sum to 1 (empty before fitting).
    pub fn importances(&self) -> Vec<f64> {
        let Some(first) = self.trees.first() else {
            return Vec::new();
        };
        let dim = first.importances().len();
        let mut out = vec![0.0; dim];
        for t in &self.trees {
            for (o, v) in out.iter_mut().zip(t.importances()) {
                *o += v;
            }
        }
        let total: f64 = out.iter().sum();
        if total > 0.0 {
            for v in &mut out {
                *v /= total;
            }
        }
        out
    }

    /// Checked once per call, for every tree: all were grown on one dataset.
    fn check_query(&self, dim: usize) -> Result<(), MlError> {
        self.trees
            .first()
            .ok_or(MlError::NotFitted)?
            .check_query(dim)
    }
}

impl Regressor for RandomForest {
    fn fit(&mut self, data: &Dataset) -> Result<(), MlError> {
        if data.is_empty() {
            return Err(MlError::EmptyTrainingSet);
        }
        let mut fit = TreeFit::new(data);
        let mut sample = Vec::with_capacity(data.len());
        let mut trees = Vec::with_capacity(self.n_trees);
        for t in 0..self.n_trees {
            let tree_seed = split_seed(self.seed, t as u64);
            data.bootstrap_indices_into(tree_seed, &mut sample);
            let mut tree =
                RandomTree::new(None, self.min_leaf, self.max_depth, tree_seed ^ 0x51ED)?;
            tree.grow(&mut fit, &mut sample);
            trees.push(tree);
        }
        self.trees = trees;
        Ok(())
    }

    fn predict(&self, x: &[f64]) -> Result<f64, MlError> {
        self.check_query(x.len())?;
        let mut sum = 0.0;
        for t in &self.trees {
            sum += t.descend(x);
        }
        Ok(sum / self.trees.len() as f64)
    }

    /// Tree-major batched traversal: each tree streams over the whole batch
    /// before the next, keeping its nodes hot in cache, and takes the rows
    /// four at a time (`RandomTree::descend4`). Per row the tree
    /// contributions still land in tree order starting from 0.0 — the same
    /// left-to-right sum as the scalar loop — so every output is
    /// bit-identical to [`Regressor::predict`].
    fn predict_batch(
        &self,
        xs: &FeatureMatrix,
        out: &mut [f64],
        scratch: &mut PredictScratch,
    ) -> Result<(), MlError> {
        let _ = scratch;
        check_out_len(xs.len(), out)?;
        if xs.is_empty() {
            return Ok(());
        }
        self.check_query(xs.dim())?;
        out.fill(0.0);
        let tail = out.len() - out.len() % 4;
        for t in &self.trees {
            let mut fours = out.chunks_exact_mut(4);
            for (c, slots) in fours.by_ref().enumerate() {
                let ys = t.descend4(std::array::from_fn(|k| xs.row(4 * c + k)));
                for (slot, y) in slots.iter_mut().zip(ys) {
                    *slot += y;
                }
            }
            for (k, slot) in fours.into_remainder().iter_mut().enumerate() {
                *slot += t.descend(xs.row(tail + k));
            }
        }
        let n = self.trees.len() as f64;
        for slot in out.iter_mut() {
            *slot /= n;
        }
        Ok(())
    }

    fn name(&self) -> &'static str {
        "RF"
    }

    fn clone_box(&self) -> Box<dyn Regressor> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wavy(n: usize) -> Dataset {
        let mut d = Dataset::new(vec!["x".into()]);
        for i in 0..n {
            let x = i as f64 / 10.0;
            d.push(vec![x], (x * 1.3).sin() * 50.0 + x * 5.0).unwrap();
        }
        d
    }

    #[test]
    fn forest_beats_or_matches_single_tree_on_noise() {
        use disar_math::rng::{stream_rng, StandardNormal};

        // Noisy linear data: bagging should reduce variance vs one tree.
        let mut rng = stream_rng(1, 0);
        let mut gauss = StandardNormal::new();
        let mut train = Dataset::new(vec!["x".into()]);
        let mut test = Dataset::new(vec!["x".into()]);
        for i in 0..300 {
            let x = (i % 100) as f64;
            let y = 2.0 * x + 10.0 * gauss.sample(&mut rng);
            if i < 200 {
                train.push(vec![x], y).unwrap();
            } else {
                test.push(vec![x], y).unwrap();
            }
        }
        let mut tree = RandomTree::with_defaults(2);
        tree.fit(&train).unwrap();
        let mut forest = RandomForest::new(40, 1, 64, 2).unwrap();
        forest.fit(&train).unwrap();
        let tp: Vec<f64> = test.rows().iter().map(|r| tree.predict(r).unwrap()).collect();
        let fp: Vec<f64> = test.rows().iter().map(|r| forest.predict(r).unwrap()).collect();
        let t_rmse = disar_math::stats::rmse(&tp, test.targets());
        let f_rmse = disar_math::stats::rmse(&fp, test.targets());
        assert!(
            f_rmse <= t_rmse * 1.05,
            "forest rmse {f_rmse} should not exceed tree rmse {t_rmse}"
        );
    }

    #[test]
    fn prediction_within_target_hull() {
        let d = wavy(80);
        let mut rf = RandomForest::new(20, 1, 64, 3).unwrap();
        rf.fit(&d).unwrap();
        let lo = d.targets().iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = d.targets().iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for i in 0..d.len() {
            let y = rf.predict(d.get(i).0).unwrap();
            assert!(y >= lo - 1e-9 && y <= hi + 1e-9);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let d = wavy(50);
        let mut a = RandomForest::new(10, 1, 64, 9).unwrap();
        let mut b = RandomForest::new(10, 1, 64, 9).unwrap();
        a.fit(&d).unwrap();
        b.fit(&d).unwrap();
        assert_eq!(a.predict(&[2.5]).unwrap(), b.predict(&[2.5]).unwrap());
    }

    #[test]
    fn rejects_zero_trees() {
        assert!(RandomForest::new(0, 1, 10, 0).is_err());
    }

    #[test]
    fn unfitted_reports_not_fitted() {
        let rf = RandomForest::with_defaults(0);
        assert!(matches!(rf.predict(&[1.0]), Err(MlError::NotFitted)));
    }

    #[test]
    fn forest_importances_aggregate_and_normalize() {
        let mut d = Dataset::new(vec!["signal".into(), "noise".into()]);
        for i in 0..150 {
            let s = (i % 8) as f64;
            d.push(vec![s, ((i * 29) % 13) as f64], s * 10.0).unwrap();
        }
        let mut rf = RandomForest::new(15, 1, 64, 3).unwrap();
        assert!(rf.importances().is_empty(), "unfitted forest");
        rf.fit(&d).unwrap();
        let imp = rf.importances();
        assert_eq!(imp.len(), 2);
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(imp[0] > imp[1], "signal must dominate: {imp:?}");
    }

    /// The forest's definition, spelled out with public parts: tree `t` is a
    /// `RandomTree` seeded `tree_seed ^ 0x51ED` and fitted on the copied
    /// rows of `Dataset::bootstrap(tree_seed)`.
    #[test]
    fn forest_equals_trees_on_materialised_bootstraps_bitwise() {
        use crate::dataset::tests::kb_shaped;

        let held_out = kb_shaped(50, 0xFEED);
        for (n, min_leaf, max_depth) in [(30, 1, 64), (100, 1, 64), (100, 3, 4), (260, 1, 64)] {
            let d = kb_shaped(n, 11);
            let mut rf = RandomForest::new(12, min_leaf, max_depth, 5).unwrap();
            rf.fit(&d).unwrap();
            let trees: Vec<RandomTree> = (0..12)
                .map(|t| {
                    let tree_seed = split_seed(5, t);
                    let mut tree =
                        RandomTree::new(None, min_leaf, max_depth, tree_seed ^ 0x51ED).unwrap();
                    tree.fit(&d.bootstrap(tree_seed)).unwrap();
                    tree
                })
                .collect();
            for x in d.rows().iter().chain(held_out.rows()) {
                let sum = trees.iter().fold(0.0, |s, t| s + t.predict(x).unwrap());
                assert_eq!(rf.predict(x).unwrap().to_bits(), (sum / 12.0).to_bits());
            }
            let mut imp = vec![0.0; d.dim()];
            for t in &trees {
                for (o, v) in imp.iter_mut().zip(t.importances()) {
                    *o += v;
                }
            }
            let total: f64 = imp.iter().sum();
            let imp: Vec<u64> = imp.iter().map(|v| (v / total).to_bits()).collect();
            let got: Vec<u64> = rf.importances().iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, imp, "{n} rows");
        }
    }

    /// What callers ask of a fitted forest besides predictions: its shape,
    /// a clone that answers alike (the service publishes clones), and
    /// batched answers equal to scalar ones.
    #[test]
    fn shape_queries_and_clones_answer_as_before() {
        use crate::dataset::tests::{fnv1a, kb_shaped};

        let d = kb_shaped(100, 3);
        let mut tree = RandomTree::with_defaults(9);
        assert_eq!((tree.depth(), tree.leaf_count()), (0, 0));
        tree.fit(&d).unwrap();
        assert_eq!((tree.depth(), tree.leaf_count()), (10, 45));
        let mut stump = RandomTree::new(None, 25, 1, 9).unwrap();
        stump.fit(&d).unwrap();
        assert_eq!((stump.depth(), stump.leaf_count()), (2, 2));

        let mut rf = RandomForest::new(10, 1, 64, 9).unwrap();
        rf.fit(&d).unwrap();
        let copy = rf.clone();
        let boxed = rf.clone_box();
        let mut xs = FeatureMatrix::new();
        for x in d.rows() {
            xs.push_row(x);
        }
        let mut batch = vec![0.0; d.len()];
        copy.predict_batch(&xs, &mut batch, &mut PredictScratch::default())
            .unwrap();
        for (x, b) in d.rows().iter().zip(&batch) {
            let y = rf.predict(x).unwrap().to_bits();
            assert_eq!(y, boxed.predict(x).unwrap().to_bits());
            assert_eq!(y, b.to_bits());
        }
        assert_eq!(fnv1a(&batch), 0x887649476d5d5f1d);
        // Rows go through a tree four at a time; seven leave three over.
        let mut seven = FeatureMatrix::new();
        for x in &d.rows()[..7] {
            seven.push_row(x);
        }
        let mut out = [0.0; 7];
        rf.predict_batch(&seven, &mut out, &mut PredictScratch::default())
            .unwrap();
        assert_eq!(fnv1a(&out), fnv1a(&batch[..7]));
        assert!(matches!(
            rf.predict(&[1.0]),
            Err(MlError::FeatureDimensionMismatch {
                expected: 10,
                got: 1
            })
        ));
    }

    #[test]
    fn single_tree_forest_close_to_tree_family() {
        // A 1-tree forest is still a valid regressor on its bootstrap sample.
        let d = wavy(40);
        let mut rf = RandomForest::new(1, 1, 64, 4).unwrap();
        rf.fit(&d).unwrap();
        let y = rf.predict(&[2.0]).unwrap();
        assert!(y.is_finite());
    }
}
